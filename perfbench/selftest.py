"""Self-tests of the benchmark harness (not of wavelogic).

Run from the root of a checkout::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import hashlib
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

wl = run.load_package()

import inputs  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402


def input_hash(workload: str, seed: int, count: int) -> str:
    make = inputs.GENERATORS[workload]
    return hashlib.sha256(repr([make(seed, i) for i in range(count)]).encode()).hexdigest()


def traced_pass(workload: str, count: int):
    op, _ = workloads.WORKLOADS[workload]
    items = [inputs.GENERATORS[workload](7, i) for i in range(count)]
    tracer = tr.Tracer(wl)
    tracer.install()
    try:
        times, outcomes = run.run_pass(op, items, tracer)
    finally:
        tracer.uninstall()
    return tracer, times, outcomes


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in run.NAMES:
            with self.subTest(workload=workload):
                self.assertEqual(input_hash(workload, 3, 12), input_hash(workload, 3, 12))
                self.assertNotEqual(input_hash(workload, 3, 12), input_hash(workload, 4, 12))

    def test_padded_pairs_are_equivalent(self):
        for i in range(60):
            pair = inputs.prove_input(5, i)
            self.assertTrue(inputs.equivalent(wl.parse_expr(pair.padded), wl.parse_expr(pair.target)))
            self.assertEqual(len(pair.kinds), 2 if i % 3 == 2 else 1)

    def test_shapes_hold(self):
        for i in range(24):
            e = wl.parse_expr(inputs.simplify_input(2, i))
            shape = (inputs.size(e), inputs.merges(e), len(inputs.var_names(e)))
            self.assertEqual(shape, inputs.SIMPLIFY_SHAPES[i % len(inputs.SIMPLIFY_SHAPES)])
        for i in range(5):
            e = wl.parse_expr(inputs.table_input(2, i))
            self.assertEqual(len(inputs.var_names(e)), inputs.TABLE_SHAPES[i][0])


class Checks(unittest.TestCase):
    """A wrong answer from the program must be caught, not counted as good."""

    def setUp(self):
        self.saved = {name: getattr(wl, name) for name in ("simplify", "truth_table", "prove_equal")}

    def tearDown(self):
        for name, fn in self.saved.items():
            setattr(wl, name, fn)

    def verdicts(self, workload, count=3):
        op, check = workloads.WORKLOADS[workload]
        items = [inputs.GENERATORS[workload](1, i) for i in range(count)]
        return run.tally(run.check_all(check, items, run.run_pass(op, items)[1]))

    def test_good_outputs_pass(self):
        for workload in run.NAMES:
            with self.subTest(workload=workload):
                t = self.verdicts(workload)
                self.assertEqual(t["failures"], [])

    def test_wrong_simplify_is_caught(self):
        wrong = wl.from_boolean(wl.parse_expr("not(x)"))
        wl.simplify = lambda c, **kw: (wrong, None)
        t = self.verdicts("simplify_checked")
        self.assertEqual(t["wrong"], 3)

    def test_wrong_table_is_caught(self):
        real = self.saved["truth_table"]

        def flipped(c, vars=None, cap=20):
            table = real(c, vars=vars, cap=cap)
            rows = ((1 - table.rows[0][0],),) + table.rows[1:]
            return wl.TruthTable(table.vars, rows)

        wl.truth_table = flipped
        self.assertEqual(self.verdicts("table_wide", 2)["wrong"], 2)

    def test_prove_ending_elsewhere_is_caught(self):
        real = self.saved["prove_equal"]

        def elsewhere(c1, c2, **kw):
            return real(c1, c1, **kw)

        wl.prove_equal = elsewhere
        pair = inputs.prove_input(1, 0)
        _, check = workloads.WORKLOADS["prove_padded"]
        with self.assertRaises(workloads.CheckFailed):
            check(pair, workloads.prove_op(pair))

    def test_a_crash_is_a_failure_not_a_wrong_answer(self):
        def boom(c, **kw):
            raise wl.RewriteError("stub")

        wl.simplify = boom
        t = self.verdicts("simplify_checked", 2)
        self.assertEqual((len(t["failures"]), t["wrong"]), (2, 0))


class Tracing(unittest.TestCase):
    def test_counts_repeat_exactly(self):
        for workload in run.NAMES:
            with self.subTest(workload=workload):
                a, _, _ = traced_pass(workload, 3)
                b, _, _ = traced_pass(workload, 3)
                self.assertEqual(a.counts, b.counts)
                self.assertEqual(tr.summarise(a.spans)[1], tr.summarise(b.spans)[1])

    def test_self_times_fit_in_each_operation(self):
        tracer, times, _ = traced_pass("simplify_checked", 3)
        own = tr.self_times(tracer.spans)
        for op, wall in enumerate(times):
            mine = [s for s, span in zip(own, tracer.spans) if span[4] == op]
            self.assertTrue(all(s >= -1e-9 for s in mine))
            self.assertLessEqual(sum(mine), wall + 1e-9)

    def test_direct_imports_are_wrapped_and_restored(self):
        originals = (wl.engine.equivalent, wl.semantics.validate, wl.rules.truth_table, wl.truth_table)
        tracer = tr.Tracer(wl)
        tracer.install()
        try:
            self.assertTrue(all(hasattr(f, "__wrapped__") for f in (
                wl.engine.equivalent, wl.semantics.validate, wl.rules.truth_table,
                wl.truth_table, wl.circuit.validate, wl.rules.RewriteRule.find,
            )))
        finally:
            tracer.uninstall()
        self.assertEqual(
            originals, (wl.engine.equivalent, wl.semantics.validate, wl.rules.truth_table, wl.truth_table)
        )
        self.assertFalse(hasattr(wl.rules.RewriteRule.find, "__wrapped__"))

    def test_recursion_is_one_span(self):
        tracer = tr.Tracer(wl)
        expr = wl.parse_expr("and(or(a,b),xor(c,not(d)))")
        tracer.install()
        try:
            tracer.run_op(0, wl.from_boolean, expr)
        finally:
            tracer.uninstall()
        self.assertEqual(tr.summarise(tracer.spans)[1]["boolexpr.from_boolean"], 1)


if __name__ == "__main__":
    unittest.main()
