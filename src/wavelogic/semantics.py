"""Wave-level and Boolean evaluation of circuits.

The reference wave enters every source with unit amplitude and phase 0. After
amplitude normalisation a wire carries a signed unit phasor: +1 for phase 0
(bit 0) and -1 for phase pi (bit 1). A merge adds its three input phasors and
renormalises; the pre-normalisation sum of three odd units is odd, so it lies
in {-3, -1, +1, +3} and total destructive interference cannot occur.

Truth tables enumerate every assignment in canonical order (first variable is
the most significant bit) and define operational equality of circuits. They
are computed bit-parallel: one pass over the circuit carries, on each wire, an
integer with one bit per row. The phasor simulator is the reference semantics;
the tests hold the table kernel to it row for row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

from .circuit import (
    Circuit,
    CircuitBundle,
    NodeKind,
    topo_order,
    validate,
    variables,
)
from .errors import EvaluationError, InterferenceError, TableTooLargeError, ValidationError

DEFAULT_VAR_CAP = 20


def phasor_to_bit(value: int) -> int:
    return (1 - value) // 2


def _check_ready(c: Circuit, assignment: Mapping[str, int]) -> None:
    violations = validate(c)
    if violations:
        raise ValidationError(violations)
    missing = [v for v in variables(c) if v not in assignment]
    if missing:
        raise EvaluationError(f"assignment missing variables: {', '.join(missing)}")


def _propagate(c: Circuit, assignment: Mapping[str, int]):
    """Phasor on every wire, plus each merge's pre-normalisation sum."""
    value: dict[tuple[int, int], int] = {}
    sums: dict[int, int] = {}
    out_vals: dict[int, int] = {}
    for nid in topo_order(c):
        node = c.nodes[nid]
        kind = node.kind
        if kind is NodeKind.SOURCE:
            value[(nid, 0)] = 1
        elif kind is NodeKind.SHIFT:
            v = value[_feed(c, nid, 0)]
            p = node.param
            if p.is_const:
                value[(nid, 0)] = -v if p.phase.bit else v
            else:
                value[(nid, 0)] = -v if assignment[p.name] else v
        elif kind is NodeKind.COPY:
            v = value[_feed(c, nid, 0)]
            for port in range(3):
                value[(nid, port)] = v
        elif kind is NodeKind.MERGE:
            s = sum(value[_feed(c, nid, port)] for port in range(3))
            if s == 0 or s % 2 == 0:
                raise InterferenceError(f"merge {nid} saw pre-normalisation sum {s}")
            sums[nid] = s
            value[(nid, 0)] = 1 if s > 0 else -1
        else:  # OUTPUT
            out_vals[nid] = value[_feed(c, nid, 0)]
    return out_vals, sums


def _feed(c: Circuit, nid: int, port: int) -> tuple[int, int]:
    e = c.in_edge(nid, port)
    return (e.src, e.src_port)


def eval_wave(c: Circuit, assignment: Mapping[str, int]) -> tuple[int, ...]:
    """Phasor (+1 or -1) per output, in output order."""
    _check_ready(c, assignment)
    out_vals, _ = _propagate(c, assignment)
    return tuple(out_vals[o] for o in c.outputs)


def merge_interference(c: Circuit, assignment: Mapping[str, int]) -> dict[int, int]:
    """Pre-normalisation sum at every merge, keyed by merge node id."""
    _check_ready(c, assignment)
    _, sums = _propagate(c, assignment)
    return sums


def eval_bit(
    obj: Union[Circuit, CircuitBundle], assignment: Mapping[str, int]
) -> Union[tuple[int, ...], dict[str, int]]:
    """Boolean output(s): a tuple per output port, or name -> bit for a bundle."""
    if isinstance(obj, CircuitBundle):
        return {name: eval_bit(circ, assignment)[0] for name, circ in obj.items()}
    return tuple(phasor_to_bit(v) for v in eval_wave(obj, assignment))


@dataclass(frozen=True)
class TruthTable:
    """Exhaustive table: ``rows[i]`` holds the output bits for the assignment
    whose binary encoding is ``i`` with ``vars[0]`` as the most significant bit.

    ``truth_table`` fills it from bit-parallel columns; it agrees row for row
    with the phasor simulator (``eval_wave``), which is the reference."""

    vars: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]

    @property
    def n_outputs(self) -> int:
        return len(self.rows[0])

    def column(self, j: int = 0) -> tuple[int, ...]:
        return tuple(row[j] for row in self.rows)

    def assignment_for_row(self, index: int) -> dict[str, int]:
        n = len(self.vars)
        return {v: (index >> (n - 1 - k)) & 1 for k, v in enumerate(self.vars)}

    def format(self) -> str:
        header = " ".join(self.vars) + (" | " if self.vars else "| ") + "out"
        lines = [header]
        for i, row in enumerate(self.rows):
            a = self.assignment_for_row(i)
            bits = " ".join(str(a[v]) for v in self.vars)
            lines.append(bits + (" | " if self.vars else "| ") + " ".join(str(b) for b in row))
        return "\n".join(lines)


def truth_table(
    obj: Union[Circuit, CircuitBundle],
    vars: list[str] | None = None,
    cap: int = DEFAULT_VAR_CAP,
) -> TruthTable:
    """Enumerate all assignments of ``vars`` (default: the circuit's variables).

    ``vars`` may be a superset of the circuit's variables to lift the table onto
    a larger input space; extra variables simply do not affect the outputs.
    """
    own = variables(obj)
    if vars is None:
        names = list(own)
    else:
        names = list(vars)
        if len(set(names)) != len(names):
            raise EvaluationError(f"duplicate variables in table order: {names}")
        missing = [v for v in own if v not in names]
        if missing:
            raise EvaluationError(f"table order missing circuit variables: {missing}")
    if len(names) > cap:
        raise TableTooLargeError(f"{len(names)} variables exceeds the cap of {cap}")

    circuits = [c for _, c in obj.items()] if isinstance(obj, CircuitBundle) else [obj]
    for c in circuits:
        violations = validate(c)
        if violations:
            raise ValidationError(violations)

    key = tuple(names)
    cols = [col for c in circuits for col in _columns(c, key)]
    size = 1 << len(key)
    if not cols:
        return TruthTable(key, ((),) * size)
    # format() writes row size-1 first; reversed, byte i is the bit of row i.
    bits = [format(col, f"0{size}b").encode().translate(_ASCII_BITS)[::-1] for col in cols]
    return TruthTable(key, tuple(zip(*bits)))


_ASCII_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _var_mask(n: int, k: int) -> int:
    """Rows where variable ``k`` of ``n`` is 1 (``k = 0`` is the most significant)."""
    half = 1 << (n - 1 - k)
    mask = ((1 << half) - 1) << half
    width = 2 * half
    while width < 1 << n:
        mask |= mask << width
        width *= 2
    return mask


def _columns(c: Circuit, names: tuple[str, ...]) -> tuple[int, ...]:
    """Each output's column over the rows of ``names``: bit ``i`` is the output
    bit at row ``i``. A wire value is the set of rows where it carries phase pi.

    The result is kept on the circuit for the last ``names`` it was asked for;
    ``c`` must already be valid.
    """
    memo = c._cols
    if memo is not None and memo[0] == names:
        return memo[1]
    n = len(names)
    ones = (1 << (1 << n)) - 1
    masks = {v: _var_mask(n, k) for k, v in enumerate(names)}
    value: dict[int, int] = {}
    for nid in topo_order(c):
        node = c.nodes[nid]
        kind = node.kind
        if kind is NodeKind.SOURCE:
            value[nid] = 0
        elif kind is NodeKind.MERGE:
            a, b, d = (value[c.in_edge(nid, port).src] for port in range(3))
            # Three odd unit phasors never sum to zero, so the majority is exact.
            value[nid] = (a & b) | (a & d) | (b & d)
        elif kind is NodeKind.SHIFT:
            v = value[c.in_edge(nid, 0).src]
            p = node.param
            if p.is_var:
                value[nid] = v ^ masks[p.name]
            else:
                value[nid] = v ^ ones if p.phase.bit else v
        else:  # COPY (all three output ports carry its input) or OUTPUT
            value[nid] = value[c.in_edge(nid, 0).src]
    cols = tuple(value[o] for o in c.outputs)
    c._cols = (names, cols)
    return cols


def equivalent(
    a: Union[Circuit, CircuitBundle],
    b: Union[Circuit, CircuitBundle],
    cap: int = DEFAULT_VAR_CAP,
) -> bool:
    """Operational equality: identical truth tables over the union of the two
    variable lists. Circuits with different output counts are never equivalent."""
    if len(a.outputs) != len(b.outputs):
        return False
    union = list(variables(a))
    for v in variables(b):
        if v not in union:
            union.append(v)
    if len(union) > cap:
        raise TableTooLargeError(f"{len(union)} combined variables exceeds the cap of {cap}")
    return truth_table(a, vars=union, cap=cap) == truth_table(b, vars=union, cap=cap)
