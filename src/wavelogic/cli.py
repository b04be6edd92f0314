"""Command-line interface.

Exit codes are uniform across subcommands: 0 for success (or a true verdict),
1 for a semantic "no" (not equivalent, derivation not found, certification
failure), 2 for usage, parse or validation errors.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .boolexpr import from_boolean, to_boolean
from .circuit import cost, variables
from .engine import analyze, prove_equal, replay, simplify
from .errors import EvaluationError, WaveLogicError
from .parser import format_expr, parse_expr
from .rules import check_soundness, rule_definitions
from .semantics import equivalent, eval_bit, truth_table
from .serialize import export_dot, load_circuit, save_circuit


def _parse_bindings(text: str) -> dict[str, int]:
    bindings = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, value = part.partition("=")
        if value not in ("0", "1"):
            raise EvaluationError(f"binding {part!r} must look like name=0 or name=1")
        bindings[name.strip()] = int(value)
    return bindings


def _circuit_for(expr_text: str):
    return from_boolean(parse_expr(expr_text))


def _cmd_tt(args) -> int:
    c = _circuit_for(args.expr)
    table = truth_table(c, vars=sorted(variables(c)))
    print(table.format())
    return 0


def _cmd_eval(args) -> int:
    c = _circuit_for(args.expr)
    bits = eval_bit(c, _parse_bindings(args.assign))
    print(" ".join(str(b) for b in bits))
    return 0


def _cmd_equiv(args) -> int:
    if equivalent(_circuit_for(args.expr1), _circuit_for(args.expr2)):
        print("equivalent")
        return 0
    print("not equivalent")
    return 1


def _cmd_simplify(args) -> int:
    c = _circuit_for(args.expr)
    result, trace = simplify(
        c, budget=args.budget, checked=args.checked, exhaustive=args.exhaustive
    )
    print(format_expr(to_boolean(result)))
    if args.trace:
        for line in trace.format_lines():
            print(line)
    return 0


def _cmd_subst(args) -> int:
    c = _circuit_for(args.expr)
    residual, _ = analyze(c, _parse_bindings(args.set), budget=args.budget, checked=args.checked)
    print(format_expr(to_boolean(residual)))
    return 0


def _cmd_to_dot(args) -> int:
    text = export_dot(_circuit_for(args.expr))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text, end="")
    return 0


def _cmd_rules(args) -> int:
    failures = 0
    for rule in rule_definitions():
        readings = "; ".join(
            f"{format_expr(l)} = {format_expr(r)}" for l, r in rule.readings
        ) or "structural"
        if args.check:
            cert = check_soundness(rule)
            verdict = "certified" if cert.ok else "FAILED"
            print(
                f"{rule.name:<4} {rule.provenance:<7} {verdict:<9} "
                f"instances={cert.instances} rows={cert.rows_checked}  {readings}"
            )
            if not cert.ok:
                failures += 1
                print(f"     counterexample: {cert.counterexample}")
        else:
            print(f"{rule.name:<4} {rule.provenance:<7} {readings}")
    return 1 if failures else 0


def _cmd_prove(args) -> int:
    trace = prove_equal(_circuit_for(args.expr1), _circuit_for(args.expr2), budget=args.budget)
    if trace is None:
        print("not found (budget exhausted)")
        return 1
    result = replay(trace)
    if not result:
        print(f"internal error: trace failed replay at step {result.first_bad_step}")
        return 2
    for line in trace.format_lines() or ["<identical circuits>"]:
        print(line)
    return 0


def _cmd_save(args) -> int:
    save_circuit(_circuit_for(args.expr), args.file)
    return 0


def _cmd_load(args) -> int:
    c = load_circuit(args.file)
    counts = cost(c)
    names = ",".join(variables(c)) or "-"
    print(
        f"nodes={len(c.nodes)} outputs={len(c.outputs)} "
        f"cost=({counts.merges},{counts.copies},{counts.phase_shifts}) vars={names}"
    )
    if len(c.outputs) == 1:
        print(format_expr(to_boolean(c)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavelogic",
        description="Design, analyse and optimise phase-encoded wave logic circuits.",
    )
    parser.add_argument("--version", action="version", version=f"wavelogic {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tt", help="print the truth table of an expression")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_tt)

    p = sub.add_parser("eval", help="evaluate an expression under an assignment")
    p.add_argument("expr")
    p.add_argument("--assign", required=True, metavar="k=v,...")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("equiv", help="exit 0 iff the two expressions are equivalent")
    p.add_argument("expr1")
    p.add_argument("expr2")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("simplify", help="rewrite an expression's circuit to lower cost")
    p.add_argument("expr")
    p.add_argument("--budget", type=int, default=64)
    p.add_argument("--trace", action="store_true", help="print the derivation steps")
    p.add_argument("--checked", action="store_true", help="assert equivalence at every step")
    p.add_argument(
        "--exhaustive",
        action="store_true",
        help="sweep every rewrite sequence (small circuits only) instead of greedy descent",
    )
    p.set_defaults(func=_cmd_simplify)

    p = sub.add_parser("subst", help="fix inputs, then simplify the residual circuit")
    p.add_argument("expr")
    p.add_argument("--set", required=True, metavar="k=v,...")
    p.add_argument("--budget", type=int, default=64)
    p.add_argument("--checked", action="store_true")
    p.set_defaults(func=_cmd_subst)

    p = sub.add_parser("to-dot", help="export the circuit as a DOT graph")
    p.add_argument("expr")
    p.add_argument("-o", "--output", metavar="FILE")
    p.set_defaults(func=_cmd_to_dot)

    p = sub.add_parser("rules", help="list the rewrite rules and their Boolean readings")
    p.add_argument("--check", action="store_true", help="certify every rule; exit 1 on failure")
    p.set_defaults(func=_cmd_rules)

    p = sub.add_parser("prove", help="search for a derivation between two expressions")
    p.add_argument("expr1")
    p.add_argument("expr2")
    p.add_argument("--budget", type=int, default=20)
    p.set_defaults(func=_cmd_prove)

    p = sub.add_parser("save", help="write an expression's circuit to a file")
    p.add_argument("expr")
    p.add_argument("file")
    p.set_defaults(func=_cmd_save)

    p = sub.add_parser("load", help="load a circuit file, validate it and summarise it")
    p.add_argument("file")
    p.set_defaults(func=_cmd_load)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (WaveLogicError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: expression nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
