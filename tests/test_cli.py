"""Command-line surface: outputs and exit codes."""

import pytest

from wavelogic.cli import main

MAJ_TABLE = """\
a b c | out
0 0 0 | 0
0 0 1 | 0
0 1 0 | 0
0 1 1 | 1
1 0 0 | 0
1 0 1 | 1
1 1 0 | 1
1 1 1 | 1
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tt_majority(capsys):
    code, out, _ = run(capsys, "tt", "maj(a,b,c)")
    assert code == 0
    assert out == MAJ_TABLE


def test_tt_sorted_header(capsys):
    code, out, _ = run(capsys, "tt", "xor(b,a)")
    assert code == 0
    assert out.splitlines()[0] == "a b | out"


def test_eval(capsys):
    code, out, _ = run(capsys, "eval", "maj(a,b,c)", "--assign", "a=1,b=0,c=1")
    assert code == 0 and out.strip() == "1"


def test_eval_missing_variable_exits_2(capsys):
    code, _, err = run(capsys, "eval", "maj(a,b,c)", "--assign", "a=1")
    assert code == 2
    assert "missing" in err


def test_equiv_exit_codes(capsys):
    assert run(capsys, "equiv", "maj(a,b,1)", "or(a,b)")[0] == 0
    assert run(capsys, "equiv", "maj(a,b,0)", "or(a,b)")[0] == 1


def test_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "tt", "maj(a,b)")
    assert code == 2
    assert "line 1" in err


def test_simplify_with_trace(capsys):
    code, out, _ = run(capsys, "simplify", "not(not(a))", "--trace", "--checked")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "a"
    assert lines[1] == "1 F L->R cost=(0,0,3)->(0,0,2)"
    assert lines[2] == "2 ID L->R cost=(0,0,2)->(0,0,1)"


def test_subst(capsys):
    code, out, _ = run(capsys, "subst", "maj(a,b,c)", "--set", "a=0")
    assert code == 0
    assert out.strip() == "and(b,c)"


def test_to_dot_file(capsys, tmp_path):
    target = tmp_path / "c.dot"
    code, out, _ = run(capsys, "to-dot", "maj(a,b,0)", "-o", str(target))
    assert code == 0
    text = target.read_text()
    assert text.startswith("digraph circuit {")
    code, out, _ = run(capsys, "to-dot", "maj(a,b,0)")
    assert out == text


def test_rules_check(capsys):
    code, out, _ = run(capsys, "rules", "--check")
    assert code == 0
    for name in ("ID", "Comp", "F", "C1", "C2", "CM", "D", "M", "A", "CH", "CH2"):
        assert any(line.startswith(name + " ") for line in out.splitlines()), name
    assert "certified" in out and "FAILED" not in out


def test_prove_found_and_not_found(capsys):
    code, out, _ = run(capsys, "prove", "not(not(a))", "a")
    assert code == 0
    assert "F L->R" in out
    code, out, _ = run(capsys, "prove", "a", "not(a)", "--budget", "3")
    assert code == 1
    assert out.strip() == "not found (budget exhausted)"


def test_save_load_round_trip(capsys, tmp_path):
    target = tmp_path / "fa.json"
    code, _, _ = run(capsys, "save", "maj(a,b,c)", str(target))
    assert code == 0
    code, out, _ = run(capsys, "load", str(target))
    assert code == 0
    assert "maj(a,b,c)" in out
    assert "cost=(1,1,3)" in out


def test_load_rejects_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "load", str(tmp_path / "absent.json"))
    assert code == 2
    assert err.startswith("error:")


def test_cli_deterministic_output(capsys):
    first = run(capsys, "tt", "maj(a,b,xor(a,c))")
    second = run(capsys, "tt", "maj(a,b,xor(a,c))")
    assert first == second


def test_deeply_nested_input_is_an_error_not_a_traceback(capsys):
    code, out, err = run(capsys, "tt", "not(" * 1200 + "a" + ")" * 1200)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
