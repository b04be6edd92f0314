"""The three workloads: one operation each, and its reference check.

An operation is the in-process work of one CLI command (``simplify``,
``prove``, ``tt``), calling the package through the ``wavelogic`` namespace
so the tracer's rebinding sees it. A check runs outside the timed region.
``simplify`` and ``tt`` outputs are compared on every assignment with
``eval_bool``, an evaluator on the syntax tree that no operation uses; prove
traces must pass ``replay`` and end isomorphic to the target.
"""

from __future__ import annotations

import itertools
import re

import wavelogic as wl

import inputs


class CheckFailed(Exception):
    """The operation returned, but its output is wrong."""


# --- simplify_checked: parse -> from_boolean -> simplify(checked) -> print


def simplify_op(src: str) -> str:
    c = wl.from_boolean(wl.parse_expr(src))
    result, _ = wl.simplify(c)
    return wl.format_expr(wl.to_boolean(result))


def simplify_check(src: str, out: str) -> dict:
    source, printed = wl.parse_expr(src), wl.parse_expr(out)
    if not inputs.equivalent(source, printed):
        raise CheckFailed(f"{out} is not equivalent to {src}")
    return {"merges_in": inputs.merges(source), "merges_out": inputs.merges(printed)}


# --- prove_padded: parse both -> prove_equal (CLI defaults) -> replay


def prove_op(pair: inputs.Pair):
    c1 = wl.from_boolean(wl.parse_expr(pair.padded))
    c2 = wl.from_boolean(wl.parse_expr(pair.target))
    trace = wl.prove_equal(c1, c2, budget=20, max_states=20000)
    if trace is None:
        return None
    return trace, wl.replay(trace), trace.format_lines()


def prove_check(pair: inputs.Pair, out) -> dict:
    if out is None:
        return {"undecided": 1}
    trace, verdict, lines = out
    if not verdict:
        raise CheckFailed(f"trace failed replay at step {verdict.first_bad_step}: {verdict.message}")
    if len(lines) != len(trace.steps):
        raise CheckFailed("printed trace has the wrong number of lines")
    target = wl.from_boolean(wl.parse_expr(pair.target))
    if not wl.is_isomorphic(trace.final, target):
        raise CheckFailed("trace does not end at the target circuit")
    padded = wl.parse_expr(pair.padded)
    return {
        "undecided": 0,
        "merges_in": inputs.merges(padded),
        "merges_out": inputs.merges(wl.parse_expr(pair.target)),
    }


# --- table_wide: parse -> from_boolean -> truth_table(sorted vars) -> format

_ROW = re.compile(r"([01](?: [01])*) \| ([01])\Z")


def table_op(src: str) -> str:
    c = wl.from_boolean(wl.parse_expr(src))
    return wl.truth_table(c, vars=sorted(wl.variables(c))).format()


def table_check(src: str, out: str) -> dict:
    expr = wl.parse_expr(src)
    names = sorted(inputs.var_names(expr))
    lines = out.split("\n")
    if lines[0] != " ".join(names) + " | out":
        raise CheckFailed(f"header {lines[0]!r} does not list {names}")
    if len(lines) != 1 + (1 << len(names)):
        raise CheckFailed(f"{len(lines) - 1} rows for {len(names)} variables")
    for line, bits in zip(lines[1:], itertools.product("01", repeat=len(names))):
        m = _ROW.match(line)
        if m is None or m.group(1) != " ".join(bits):
            raise CheckFailed(f"row {line!r} is not the assignment {' '.join(bits)}")
        expected = wl.eval_bool(expr, {v: int(b) for v, b in zip(names, bits)})
        if int(m.group(2)) != expected:
            raise CheckFailed(f"row {line!r} should read {expected}")
    merges = inputs.merges(expr)
    return {"merges_in": merges, "merges_out": merges}


WORKLOADS = {
    "simplify_checked": (simplify_op, simplify_check),
    "prove_padded": (prove_op, prove_check),
    "table_wide": (table_op, table_check),
}
