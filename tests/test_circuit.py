"""Circuit IR: constructors, composition, substitution, validation, cost."""

import random

import pytest

from wavelogic import (
    Circuit,
    CircuitBundle,
    CircuitError,
    Edge,
    Node,
    NodeKind,
    Phase,
    PhaseParam,
    canonical_form,
    compose_parallel,
    compose_series,
    cost,
    eval_bit,
    equivalent,
    fingerprint,
    full_adder,
    is_isomorphic,
    mk_and,
    mk_const,
    mk_maj,
    mk_not,
    mk_var,
    mk_xor,
    substitute,
    truth_table,
    validate,
    variables,
)
from conftest import random_constructor_circuit


def test_phase_group():
    assert Phase.ZERO + Phase.ZERO is Phase.ZERO
    assert Phase.ZERO + Phase.PI is Phase.PI
    assert Phase.PI + Phase.ZERO is Phase.PI
    assert Phase.PI + Phase.PI is Phase.ZERO
    for p in Phase:
        assert p + Phase.ZERO is p


def test_mk_var_evaluates_to_its_bit():
    c = mk_var("a")
    assert eval_bit(c, {"a": 1}) == (1,)
    assert eval_bit(c, {"a": 0}) == (0,)
    assert variables(c) == ["a"]


@pytest.mark.parametrize("bad", ["", "A", "1a", "a-b", "a b", "Î±"])
def test_mk_var_rejects_bad_identifiers(bad):
    with pytest.raises(CircuitError):
        mk_var(bad)


def test_mk_const_tables():
    assert truth_table(mk_const(1)).rows == ((1,),)
    assert truth_table(mk_const(0)).rows == ((0,),)
    assert not equivalent(mk_const(0), mk_var("a"))
    with pytest.raises(CircuitError):
        mk_const(2)


def test_series_pi_is_not():
    c = compose_series(mk_var("a"), mk_const(1))
    assert truth_table(c).column() == (1, 0)


def test_series_of_two_vars_is_xor():
    c = compose_series(mk_var("a"), mk_var("b"))
    assert truth_table(c).column() == (0, 1, 1, 0)


def test_series_with_zero_shift_is_identity():
    for c in (mk_var("a"), mk_maj(mk_var("a"), mk_var("b"), mk_var("c"))):
        assert equivalent(compose_series(c, mk_const(0)), c)


def test_series_arity_checks():
    two_out = compose_parallel(mk_var("a"), mk_var("b"))
    with pytest.raises(CircuitError):
        compose_series(two_out, mk_var("c"))
    with pytest.raises(CircuitError):
        compose_series(mk_var("a"), two_out)


def test_maj_rejects_multi_output_argument():
    two_out = compose_parallel(mk_var("a"), mk_var("b"))
    with pytest.raises(CircuitError):
        mk_maj(two_out, mk_var("c"), mk_var("d"))


def test_default_var_cap_guards_enumeration():
    from wavelogic import TableTooLargeError

    c = mk_var("v0")
    for i in range(1, 21):
        c = mk_xor(c, mk_var(f"v{i}"))
    assert len(variables(c)) == 21
    with pytest.raises(TableTooLargeError):
        truth_table(c)


def test_parallel_initialises_two_variables():
    c = compose_parallel(mk_var("a"), mk_var("b"))
    assert len(c.outputs) == 2
    t = truth_table(c)
    assert t.vars == ("a", "b")
    assert t.rows == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_parallel_shared_name_keeps_outputs_equal():
    c = compose_parallel(mk_var("a"), mk_var("a"))
    for a in (0, 1):
        bits = eval_bit(c, {"a": a})
        assert bits[0] == bits[1] == a


def test_maj_rows_and_idempotence():
    maj = mk_maj(mk_var("a"), mk_var("b"), mk_var("c"))
    assert eval_bit(maj, {"a": 0, "b": 1, "c": 1}) == (1,)
    assert eval_bit(maj, {"a": 1, "b": 0, "c": 0}) == (0,)
    aaa = mk_maj(mk_var("a"), mk_var("a"), mk_var("a"))
    assert equivalent(aaa, mk_var("a"))


def test_substitute_specialises_majority():
    from wavelogic import mk_or

    maj = mk_maj(mk_var("a"), mk_var("b"), mk_var("c"))
    assert equivalent(substitute(maj, "a", 0), mk_and(mk_var("b"), mk_var("c")))
    assert equivalent(substitute(maj, "a", 1), mk_or(mk_var("b"), mk_var("c")))
    assert variables(substitute(maj, "a", 0)) == ["b", "c"]


def test_substitute_absent_name_is_noop():
    c = mk_var("a")
    s = substitute(c, "z", 1)
    assert is_isomorphic(c, s)
    assert variables(s) == ["a"]


def test_substitution_commutes_with_evaluation():
    rng = random.Random(1301)
    for _ in range(200):
        c = random_constructor_circuit(rng)
        names = variables(c)
        if not names:
            continue
        name = rng.choice(names)
        bit = rng.randint(0, 1)
        sub = substitute(c, name, bit)
        rest = [v for v in names if v != name]
        for index in range(1 << len(rest)):
            sigma = {v: (index >> k) & 1 for k, v in enumerate(rest)}
            assert eval_bit(sub, sigma) == eval_bit(c, {**sigma, name: bit})


def test_variables_order_full_adder():
    assert variables(full_adder()) == ["c_in", "a", "b"]


def test_variables_trivia():
    assert variables(mk_const(1)) == []
    assert variables(mk_xor(mk_var("a"), mk_xor(mk_var("b"), mk_var("a")))) == ["a", "b"]


def test_validate_accepts_constructor_output():
    assert validate(mk_maj(mk_var("a"), mk_const(0), mk_var("b"))) == []


def test_validate_flags_underfed_merge():
    nodes = [
        Node(0, NodeKind.SOURCE),
        Node(1, NodeKind.MERGE),
        Node(2, NodeKind.OUTPUT),
    ]
    edges = [Edge(0, 0, 1, 0), Edge(1, 0, 2, 0)]
    violations = validate(Circuit(nodes, edges, [2]))
    assert any("input port 1" in v for v in violations)
    assert any("input port 2" in v for v in violations)


def test_validate_flags_cycle():
    nodes = [
        Node(0, NodeKind.SOURCE),
        Node(1, NodeKind.SHIFT, PhaseParam.const(Phase.ZERO)),
        Node(2, NodeKind.SHIFT, PhaseParam.const(Phase.ZERO)),
        Node(3, NodeKind.OUTPUT),
    ]
    # 1 and 2 feed each other; the source and output dangle off the loop
    edges = [Edge(1, 0, 2, 0), Edge(2, 0, 1, 0), Edge(0, 0, 3, 0)]
    violations = validate(Circuit(nodes, edges, [3]))
    assert any("cycle" in v for v in violations)


def test_validate_returns_a_fresh_list_each_call():
    c = Circuit([Node(0, NodeKind.SOURCE), Node(1, NodeKind.OUTPUT)], [], [1])
    first = validate(c)
    assert first
    expected = list(first)
    first.clear()
    assert validate(c) == expected
    good = mk_var("a")
    validate(good).append("injected")
    assert validate(good) == []


def test_validate_fuzz_constructor_compositions():
    rng = random.Random(77)
    for _ in range(10_000):
        assert validate(random_constructor_circuit(rng)) == []


def test_cost_counts():
    assert cost(mk_var("a")) == (0, 0, 1)
    assert cost(mk_maj(mk_var("a"), mk_var("b"), mk_var("c"))) == (1, 1, 3)
    assert cost(mk_not(mk_not(mk_var("a")))) == (0, 0, 3)


def test_cost_invariant_under_relabelling():
    c = mk_maj(mk_var("a"), mk_not(mk_var("b")), mk_const(0))
    shifted = Circuit(
        [Node(n.id + 40, n.kind, n.param) for n in c.nodes.values()],
        [Edge(e.src + 40, e.src_port, e.dst + 40, e.dst_port) for e in c.edges],
        [o + 40 for o in c.outputs],
    )
    assert cost(shifted) == cost(c)
    assert is_isomorphic(shifted, c)
    assert fingerprint(shifted) == fingerprint(c)


def test_series_associative_up_to_isomorphism():
    a, b, c = mk_var("a"), mk_var("b"), mk_var("c")
    left = compose_series(compose_series(a, b), c)
    right = compose_series(a, compose_series(b, c))
    assert canonical_form(left) == canonical_form(right)


def test_bundle_rejects_duplicate_names():
    with pytest.raises(CircuitError):
        CircuitBundle((("s", mk_var("a")), ("s", mk_var("b"))))


def test_bundle_rejects_multi_output_member():
    two = compose_parallel(mk_var("a"), mk_var("b"))
    with pytest.raises(CircuitError):
        CircuitBundle((("s", two),))
