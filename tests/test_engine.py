"""Rewrite engine: matching, application, simplification, proofs, replay."""

import dataclasses
import itertools
import random

import pytest

from wavelogic import (
    BudgetError,
    Circuit,
    Direction,
    Edge,
    Node,
    NodeKind,
    PhaseParam,
    RewriteError,
    RewriteRule,
    StaleSiteError,
    ValidationError,
    analyze,
    apply,
    base_rules,
    cost,
    equivalent,
    find_matches,
    is_isomorphic,
    mk_and,
    mk_const,
    mk_maj,
    mk_not,
    mk_or,
    mk_var,
    mk_xor,
    prove_equal,
    replay,
    simplify,
    to_boolean,
    truth_table,
)
from wavelogic.engine import DerivationTrace


def test_find_matches_fusion_site():
    sites = find_matches(mk_not(mk_not(mk_var("a"))), "F", Direction.LR)
    assert len(sites) == 1
    binding = sites[0].binding_map()
    assert str(binding["alpha"]) == "pi" and str(binding["beta"]) == "pi"


def test_find_matches_ch_exactly_one():
    sites = find_matches(mk_maj(mk_var("a"), mk_const(0), mk_const(1)), "CH", Direction.LR)
    assert len(sites) == 1


def test_find_matches_no_merge_no_ch():
    assert find_matches(mk_xor(mk_var("a"), mk_var("b")), "CH", Direction.LR) == []


def test_find_matches_requires_valid_circuit():
    from wavelogic import Circuit, Edge, Node, NodeKind, ValidationError

    broken = Circuit(
        [Node(0, NodeKind.SOURCE), Node(1, NodeKind.MERGE), Node(2, NodeKind.OUTPUT)],
        [Edge(0, 0, 1, 0), Edge(1, 0, 2, 0)],
        [2],
    )
    with pytest.raises(ValidationError):
        find_matches(broken, "CM", Direction.LR)


def test_find_matches_is_deterministic():
    c = mk_maj(mk_var("a"), mk_var("a"), mk_const(0))
    first = find_matches(c, "M", Direction.LR)
    second = find_matches(c, "M", Direction.LR)
    assert first == second


def test_apply_f_then_id_reaches_the_variable():
    c = mk_not(mk_not(mk_var("a")))
    c = apply(c, find_matches(c, "F", Direction.LR)[0])
    c = apply(c, find_matches(c, "ID", Direction.LR)[0])
    assert is_isomorphic(c, mk_var("a"))


def test_apply_rejects_stale_site():
    c1 = mk_not(mk_not(mk_var("a")))
    c2 = mk_not(mk_not(mk_var("b")))
    site = find_matches(c1, "F", Direction.LR)[0]
    with pytest.raises(StaleSiteError):
        apply(c2, site)


def test_apply_checked_mode():
    c = mk_maj(mk_var("a"), mk_var("a"), mk_var("b"))
    site = find_matches(c, "M", Direction.LR)[0]
    assert equivalent(apply(c, site, checked=True), mk_var("a"))


def test_every_check_raises_on_every_call(monkeypatch):
    # Validity and tables are kept on each circuit; a repeated call must still fail.
    nodes = [
        Node(0, NodeKind.SOURCE),
        Node(1, NodeKind.SHIFT, PhaseParam.var("a")),
        Node(2, NodeKind.OUTPUT),
        Node(3, NodeKind.MERGE),
    ]
    invalid = Circuit(nodes, [Edge(0, 0, 1, 0), Edge(1, 0, 2, 0)], [2])
    c = mk_not(mk_not(mk_var("a")))
    site = find_matches(c, "F", Direction.LR)[0]
    wrong = mk_not(mk_var("a"))
    for _ in range(3):
        with pytest.raises(ValidationError):
            truth_table(invalid)
        with pytest.raises(ValidationError):
            equivalent(mk_var("a"), invalid)
    monkeypatch.setattr(RewriteRule, "apply", lambda rule, circuit, s: invalid)
    for _ in range(3):
        with pytest.raises(RewriteError, match="invalid circuit"):
            apply(c, site)
    monkeypatch.setattr(RewriteRule, "apply", lambda rule, circuit, s: wrong)
    assert apply(c, site) is wrong
    for _ in range(3):
        with pytest.raises(RewriteError, match="changed the truth table"):
            apply(c, site, checked=True)


@pytest.mark.parametrize(
    "build,expected_cost",
    [
        (lambda: mk_not(mk_not(mk_var("a"))), (0, 0, 1)),
        (lambda: mk_maj(mk_var("a"), mk_var("a"), mk_var("b")), (0, 0, 1)),
        (lambda: mk_maj(mk_var("a"), mk_const(0), mk_const(1)), (0, 0, 1)),
        (lambda: mk_xor(mk_var("a"), mk_const(0)), (0, 0, 1)),
    ],
)
def test_simplify_benchmarks(build, expected_cost):
    c = build()
    result, trace = simplify(c)
    assert cost(result) == expected_cost
    assert equivalent(result, mk_var("a"))
    assert equivalent(result, c)
    # non-increasing cost at every step
    for step in trace.steps:
        assert step.cost_after < step.cost_before
    assert replay(trace)


def test_simplify_budget_must_be_positive():
    with pytest.raises(BudgetError):
        simplify(mk_var("a"), budget=0)
    with pytest.raises(BudgetError):
        prove_equal(mk_var("a"), mk_var("a"), budget=-1)


def test_simplify_monotone_and_deterministic():
    rng = random.Random(7)
    from conftest import random_circuit

    for _ in range(40):
        c = random_circuit(rng)
        r1, t1 = simplify(c, budget=16)
        r2, t2 = simplify(c, budget=16)
        assert cost(r1) <= cost(c)
        assert is_isomorphic(r1, r2)
        assert [(s.rule, s.direction) for s in t1.steps] == [
            (s.rule, s.direction) for s in t2.steps
        ]
        assert equivalent(r1, c)


def test_simplify_budget_caps_steps():
    c = mk_not(mk_not(mk_var("a")))
    result, trace = simplify(c, budget=1)
    assert len(trace.steps) == 1
    assert cost(result) == (0, 0, 2)


def test_exhaustive_simplify_matches_greedy_on_direct_cases():
    c = mk_maj(mk_const(0), mk_var("a"), mk_const(1))
    exhaust, trace = simplify(c, budget=2, exhaustive=True)
    assert cost(exhaust) == (0, 0, 1)
    assert equivalent(exhaust, c)
    assert replay(trace)


def test_exhaustive_simplify_escapes_greedy_plateau():
    # Twin inner majorities on branches 1 and 3: reverse distributivity only
    # fires on branches 1 and 2, so greedy sees no improving step, while the
    # sweep takes a cost-neutral commutativity step first.
    a, b, u, v, z = (mk_var(n) for n in "abuvz")
    host = mk_maj(mk_maj(a, b, u), z, mk_maj(mk_var("a"), mk_var("b"), v))
    greedy, _ = simplify(host, budget=8)
    assert cost(greedy) == cost(host) == (3, 3, 7)
    exhaust, trace = simplify(host, budget=2, exhaustive=True)
    assert cost(exhaust) == (2, 2, 5)
    assert equivalent(exhaust, host)
    assert replay(trace)
    assert [s.rule for s in trace.steps] == ["CM", "D"]


def test_exhaustive_simplify_rejects_large_circuits():
    inner = lambda names: mk_maj(*(mk_var(n) for n in names))
    big = mk_maj(inner("abc"), inner("def"), inner("ghi"))
    with pytest.raises(BudgetError):
        simplify(big, budget=3, exhaustive=True)


def test_analyze_majority_fixings():
    maj = mk_maj(mk_var("a"), mk_var("b"), mk_var("c"))
    residual, trace = analyze(maj, {"a": 0})
    assert equivalent(residual, mk_and(mk_var("b"), mk_var("c")))
    assert replay(trace)
    residual, _ = analyze(maj, {"a": 1})
    assert equivalent(residual, mk_or(mk_var("b"), mk_var("c")))
    residual, _ = analyze(maj, {"a": 0, "b": 1})
    assert is_isomorphic(residual, mk_var("c"))


def test_analyze_xor_with_zero():
    residual, _ = analyze(mk_xor(mk_var("a"), mk_var("b")), {"b": 0})
    assert is_isomorphic(residual, mk_var("a"))


def test_prove_equal_benchmarks():
    cases = [
        (mk_not(mk_not(mk_var("a"))), mk_var("a")),
        (mk_xor(mk_var("a"), mk_const(0)), mk_var("a")),
        (mk_maj(mk_var("a"), mk_var("a"), mk_var("b")), mk_var("a")),
    ]
    for lhs, rhs in cases:
        trace = prove_equal(lhs, rhs, budget=20)
        assert trace is not None
        assert replay(trace)
        assert equivalent(trace.final, rhs)


def test_prove_equal_inequivalent_is_not_found():
    assert prove_equal(mk_var("a"), mk_not(mk_var("a")), budget=3) is None


def test_prove_equal_identical_inputs_gives_empty_trace():
    trace = prove_equal(mk_var("a"), mk_var("a"), budget=5)
    assert trace is not None and trace.steps == ()
    assert replay(trace)


def test_ch2_is_derivable_from_base_rules():
    for phi, alpha in itertools.product((0, 1), repeat=2):
        lhs = mk_maj(mk_const(phi), mk_not(mk_const(phi)), mk_const(alpha))
        trace = prove_equal(lhs, mk_const(alpha), budget=6, rules=base_rules())
        assert trace is not None, (phi, alpha)
        assert all(step.rule != "CH2" for step in trace.steps)
        assert replay(trace)


def test_a_constant_instances_derivable_from_base_rules():
    # Representative constant instantiations; each collapses via the
    # eliminative rules without ever invoking A itself.
    base_without_a = tuple(r for r in base_rules() if r.name != "A")
    for alpha, beta, gamma, u in [(0, 0, 0, 0), (0, 1, 1, 0), (1, 0, 1, 1), (0, 1, 0, 1)]:
        lhs = mk_maj(mk_const(alpha), mk_const(u), mk_maj(mk_const(beta), mk_const(u), mk_const(gamma)))
        rhs = mk_maj(mk_maj(mk_const(alpha), mk_const(u), mk_const(beta)), mk_const(u), mk_const(gamma))
        trace = prove_equal(lhs, rhs, budget=8, rules=base_without_a)
        assert trace is not None, (alpha, beta, gamma, u)
        assert all(step.rule not in ("A", "CH2") for step in trace.steps)
        assert replay(trace)


def test_prove_equal_reconstructs_against_simplified_forms():
    # Random circuit vs its simplification: exercises the bidirectional meet
    # and the backward-half trace inversion.
    from conftest import random_circuit

    rng = random.Random(4096)
    found = 0
    for _ in range(40):
        c = random_circuit(rng, max_nodes=10)
        simplified, _ = simplify(c, budget=8)
        trace = prove_equal(c, simplified, budget=6, max_states=3000)
        if trace is None:
            continue
        found += 1
        assert replay(trace).verified
        assert len(trace.steps) <= 6
    assert found >= 35  # misses are inconclusive, not wrong, but should be rare


def test_replay_detects_tampered_rule_name():
    c = mk_not(mk_not(mk_var("a")))
    _, trace = simplify(c)
    assert len(trace.steps) == 2
    bad_step = dataclasses.replace(trace.steps[0], rule="M")
    tampered = DerivationTrace(trace.initial, trace.final, (bad_step,) + trace.steps[1:])
    result = replay(tampered)
    assert not result.verified
    assert result.first_bad_step == 0


def test_replay_detects_wrong_final_circuit():
    c = mk_not(mk_not(mk_var("a")))
    _, trace = simplify(c)
    tampered = DerivationTrace(trace.initial, mk_var("b"), trace.steps)
    result = replay(tampered)
    assert not result.verified
    assert result.first_bad_step == len(trace.steps)


def test_replay_empty_trace_on_unchanged_circuit():
    c = mk_var("a")
    assert replay(DerivationTrace(c, c, ()))


def test_trace_line_format():
    _, trace = simplify(mk_not(mk_not(mk_var("a"))))
    lines = trace.format_lines()
    assert lines == [
        "1 F L->R cost=(0,0,3)->(0,0,2)",
        "2 ID L->R cost=(0,0,2)->(0,0,1)",
    ]


def test_to_boolean_of_simplified_majority():
    result, _ = simplify(mk_maj(mk_var("a"), mk_const(0), mk_const(1)))
    from wavelogic import Var

    assert to_boolean(result) == Var("a")
