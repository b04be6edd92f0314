"""Wave evaluation, truth tables, operational equivalence."""

import random

import pytest

from wavelogic import (
    CircuitBundle,
    Const,
    EvaluationError,
    Maj,
    Not,
    TruthTable,
    TableTooLargeError,
    compose_series,
    equivalent,
    eval_bit,
    eval_bool,
    eval_wave,
    from_boolean,
    full_adder,
    half_adder,
    merge_interference,
    mk_and,
    mk_const,
    mk_maj,
    mk_nand,
    mk_not,
    mk_or,
    mk_var,
    mk_xnor,
    mk_xor,
    truth_table,
    variables,
    wire,
)
from conftest import VAR_NAMES, random_circuit, random_expr


def test_majority_interference_two_ones():
    maj = mk_maj(mk_var("a"), mk_var("b"), mk_var("c"))
    sums = merge_interference(maj, {"a": 1, "b": 1, "c": 0})
    assert list(sums.values()) == [-1]
    assert eval_wave(maj, {"a": 1, "b": 1, "c": 0}) == (-1,)
    assert eval_bit(maj, {"a": 1, "b": 1, "c": 0}) == (1,)


def test_bare_wire_carries_reference_wave():
    assert eval_wave(wire(), {}) == (1,)
    assert eval_bit(wire(), {}) == (0,)


def test_double_pi_shift_cancels():
    c = compose_series(mk_const(1), mk_const(1))
    assert eval_wave(c, {}) == (1,)


def test_eval_requires_full_assignment():
    with pytest.raises(EvaluationError):
        eval_wave(mk_xor(mk_var("a"), mk_var("b")), {"a": 1})


def test_adder_spot_rows():
    assert eval_bit(full_adder(), {"c_in": 1, "a": 0, "b": 1}) == {"c_out": 1, "sum": 0}
    assert eval_bit(half_adder(), {"a": 1, "b": 1}) == {"carry": 1, "sum": 0}
    assert eval_bit(mk_nand(mk_var("a"), mk_var("b")), {"a": 1, "b": 1}) == (0,)


def test_gate_tables():
    a, b = mk_var("a"), mk_var("b")
    assert truth_table(mk_not(mk_var("a"))).column() == (1, 0)
    assert truth_table(mk_xor(a, b)).column() == (0, 1, 1, 0)
    assert truth_table(mk_xnor(a, b)).column() == (1, 0, 0, 1)
    assert truth_table(mk_and(a, b)).column() == (0, 0, 0, 1)
    assert truth_table(mk_or(a, b)).column() == (0, 1, 1, 1)
    assert truth_table(mk_nand(a, b)).column() == (1, 1, 1, 0)


def test_majority_table_exact():
    maj = mk_maj(mk_var("a"), mk_var("b"), mk_var("c"))
    assert truth_table(maj).column() == (0, 0, 0, 1, 0, 1, 1, 1)
    assert truth_table(mk_const(1)).rows == ((1,),)


def test_majority_matches_boolean_oracle():
    from wavelogic import And, Or, Var

    maj = mk_maj(mk_var("a"), mk_var("b"), mk_var("c"))
    formula = Or(Or(And(Var("a"), Var("b")), And(Var("b"), Var("c"))), And(Var("c"), Var("a")))
    table = truth_table(maj)
    for i, row in enumerate(table.rows):
        assert row[0] == eval_bool(formula, table.assignment_for_row(i))


def test_truth_table_var_cap():
    c = mk_var("a")
    with pytest.raises(TableTooLargeError):
        truth_table(c, vars=[f"v{i}" for i in range(21)] + ["a"], cap=20)
    with pytest.raises(TableTooLargeError):
        truth_table(c, vars=["a", "b", "c"], cap=2)


def test_equivalence_examples():
    a, b = mk_var("a"), mk_var("b")
    assert equivalent(mk_maj(a, b, mk_const(0)), mk_and(a, b))
    assert equivalent(mk_xor(a, b), mk_xor(b, a))
    assert not equivalent(mk_var("a"), mk_not(mk_var("a")))
    assert not equivalent(mk_var("a"), compose_series(mk_var("a"), mk_var("a")))


def test_equivalent_is_an_equivalence_relation():
    rng = random.Random(42)
    pool = [from_boolean(random_expr(rng, 2, n_vars=3)) for _ in range(12)]
    for c in pool:
        assert equivalent(c, c)
    for x in pool:
        for y in pool:
            assert equivalent(x, y) == equivalent(y, x)
    for x in pool:
        for y in pool:
            for z in pool:
                if equivalent(x, y) and equivalent(y, z):
                    assert equivalent(x, z)


def test_dummy_variable_invariance():
    rng = random.Random(4242)
    for _ in range(50):
        c1 = from_boolean(random_expr(rng, 2, n_vars=3))
        c2 = from_boolean(random_expr(rng, 2, n_vars=3))
        verdict = equivalent(c1, c2)
        union = list(dict.fromkeys(variables(c1) + variables(c2) + ["zz1", "zz2"]))
        lifted = truth_table(c1, vars=union) == truth_table(c2, vars=union)
        assert lifted == verdict


def test_merge_sums_always_odd():
    rng = random.Random(99)
    seen = set()
    for _ in range(300):
        c = random_circuit(rng)
        names = variables(c)
        for index in range(1 << len(names)):
            sigma = {v: (index >> k) & 1 for k, v in enumerate(names)}
            for s in merge_interference(c, sigma).values():
                seen.add(s)
    assert seen <= {-3, -1, 1, 3}


def test_wave_and_bit_views_cohere():
    rng = random.Random(123)
    for _ in range(200):
        c = random_circuit(rng)
        names = variables(c)
        for index in range(1 << len(names)):
            sigma = {v: (index >> k) & 1 for k, v in enumerate(names)}
            wave = eval_wave(c, sigma)
            bits = eval_bit(c, sigma)
            assert bits == tuple((1 - v) // 2 for v in wave)


def test_outputs_are_odd_in_the_source_wave():
    # Prepending a pi shift to any single-output circuit complements its output:
    # every node function commutes with global phase inversion.
    rng = random.Random(321)
    for _ in range(100):
        c = random_circuit(rng)
        flipped = compose_series(mk_const(1), c)
        names = variables(c)
        for index in range(1 << len(names)):
            sigma = {v: (index >> k) & 1 for k, v in enumerate(names)}
            assert eval_wave(flipped, sigma)[0] == -eval_wave(c, sigma)[0]


def test_truth_table_lift_onto_superset():
    c = mk_and(mk_var("a"), mk_var("b"))
    lifted = truth_table(c, vars=["a", "b", "c"])
    base = truth_table(c)
    for i, row in enumerate(lifted.rows):
        sigma = lifted.assignment_for_row(i)
        base_index = (sigma["a"] << 1) | sigma["b"]
        assert row == base.rows[base_index]


def _phasor_row(c, sigma):
    return tuple((1 - w) // 2 for w in eval_wave(c, sigma))


def test_table_kernel_matches_phasor_simulator_and_boolean_oracle():
    rng = random.Random(2026)
    for i in range(240):
        expr = random_expr(rng, rng.randint(0, 4), n_vars=4)
        c = from_boolean(expr)
        names = variables(c)
        if i % 2:
            # a permuted superset of the circuit's own variables
            names = names + [v for v in VAR_NAMES if v not in names][: rng.randint(1, 2)]
            rng.shuffle(names)
        table = truth_table(c, vars=names)
        assert table.vars == tuple(names)
        assert len(table.rows) == 1 << len(names)
        for index, row in enumerate(table.rows):
            sigma = table.assignment_for_row(index)
            assert row == _phasor_row(c, sigma)
            assert row == (eval_bool(expr, sigma),)


def test_table_kernel_on_a_bundle_over_a_permuted_superset():
    adder = full_adder()
    names = ["b", "zz", "c_in", "a"]
    table = truth_table(adder, vars=names)
    assert table.vars == tuple(names)
    for index, row in enumerate(table.rows):
        sigma = table.assignment_for_row(index)
        assert row == tuple(eval_bit(adder, sigma)[name] for name in adder.names)
        assert row == tuple(b for _, c in adder.items() for b in _phasor_row(c, sigma))


def test_table_kernel_with_zero_variables():
    for expr in (Const(0), Const(1), Not(Const(0)), Maj(Const(0), Const(1), Not(Const(0)))):
        c = from_boolean(expr)
        table = truth_table(c)
        assert table.vars == ()
        assert table.rows == (_phasor_row(c, {}),) == ((eval_bool(expr, {}),),)
    assert truth_table(wire()).rows == ((0,),)
    assert truth_table(mk_const(1), vars=["a"]).rows == ((1,), (1,))
    assert truth_table(CircuitBundle(()), vars=["a"]).rows == ((), ())


def test_truth_table_built_positionally_compares_by_value():
    table = truth_table(mk_xor(mk_var("a"), mk_var("b")))
    assert TruthTable(("a", "b"), ((0,), (1,), (1,), (0,))) == table
    assert TruthTable(("a", "b"), ((0,), (1,), (1,), (1,))) != table
