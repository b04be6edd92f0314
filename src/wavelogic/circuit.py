"""Circuit IR for phase-encoded wave logic.

A circuit is an acyclic port graph of five node kinds:

* ``SOURCE``  (0 in, 1 out) -- injects the reference wave, phase 0.
* ``SHIFT``   (1 in, 1 out) -- adds a phase in {0, pi}; a named shift is an
  external Boolean input, a constant shift is a literal bit.
* ``COPY``    (1 in, 3 out) -- splits a wave into three branches.
* ``MERGE``   (3 in, 1 out) -- interferes three branches; the output carries
  the majority phase.
* ``OUTPUT``  (1 in, 0 out) -- a read-out port.

Ports are linear: every input port is fed by exactly one edge and every
output port feeds exactly one edge, so fan-out only ever happens through an
explicit COPY. Repeated shift labels denote the *same* external input, not an
internal split. Circuits are immutable values; every operation here is pure.
"""

from __future__ import annotations

import hashlib
import heapq
import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Optional, Union

from .errors import CircuitError

IDENT_RE = re.compile(r"[a-z][a-z0-9_]*\Z")


class Phase(Enum):
    """A phase in {0, pi}: the two-element group under addition mod 2*pi."""

    ZERO = 0
    PI = 1

    def __add__(self, other: "Phase") -> "Phase":
        return Phase(self.value ^ other.value)

    @property
    def bit(self) -> int:
        return self.value

    @property
    def complement(self) -> "Phase":
        return Phase(self.value ^ 1)

    def __str__(self) -> str:
        return "pi" if self is Phase.PI else "0"


@dataclass(frozen=True)
class PhaseParam:
    """Parameter of a SHIFT node: a constant phase or a named variable."""

    phase: Optional[Phase] = None
    name: Optional[str] = None

    def __post_init__(self):
        if (self.phase is None) == (self.name is None):
            raise CircuitError("phase parameter must be a constant or a variable, not both")

    @staticmethod
    def const(phase: Phase) -> "PhaseParam":
        return PhaseParam(phase=phase)

    @staticmethod
    def const_bit(bit: int) -> "PhaseParam":
        if bit not in (0, 1):
            raise CircuitError(f"bit must be 0 or 1, got {bit!r}")
        return PhaseParam(phase=Phase(bit))

    @staticmethod
    def var(name: str) -> "PhaseParam":
        if not isinstance(name, str) or not IDENT_RE.match(name):
            raise CircuitError(f"invalid variable identifier {name!r}")
        return PhaseParam(name=name)

    @property
    def is_const(self) -> bool:
        return self.phase is not None

    @property
    def is_var(self) -> bool:
        return self.name is not None

    def complemented(self) -> "PhaseParam":
        """Constant params complement; variable shifts have no single-node complement."""
        if not self.is_const:
            raise CircuitError("cannot complement a variable phase parameter")
        return PhaseParam.const(self.phase.complement)

    def __str__(self) -> str:
        return self.name if self.is_var else str(self.phase)


class NodeKind(Enum):
    def __new__(cls, value: str, in_arity: int, out_arity: int):
        member = object.__new__(cls)
        member._value_ = value
        member.in_arity = in_arity
        member.out_arity = out_arity
        return member

    SOURCE = ("source", 0, 1)
    SHIFT = ("shift", 1, 1)
    COPY = ("copy", 1, 3)
    MERGE = ("merge", 3, 1)
    OUTPUT = ("output", 1, 0)


@dataclass(frozen=True)
class Node:
    id: int
    kind: NodeKind
    param: Optional[PhaseParam] = None


class Edge(NamedTuple):
    src: int
    src_port: int
    dst: int
    dst_port: int


class Cost(NamedTuple):
    """Node counts, ordered by optimisation priority (compare lexicographically)."""

    merges: int
    copies: int
    phase_shifts: int


class Circuit:
    """An immutable port graph. Use the ``mk_*`` constructors to build one."""

    __slots__ = (
        "nodes", "edges", "outputs", "_in", "_out",
        "_topo", "_canon", "_fp", "_violations", "_cols",
    )

    def __init__(self, nodes: Iterable[Node], edges: Iterable[Edge], outputs: Iterable[int]):
        self.nodes = {n.id: n for n in nodes}
        self.edges = tuple(sorted(Edge(*e) for e in edges))
        self.outputs = tuple(outputs)
        self._in = {(e.dst, e.dst_port): e for e in self.edges}
        self._out = {(e.src, e.src_port): e for e in self.edges}
        self._topo = None
        self._canon = None
        self._fp = None
        self._violations = None
        self._cols = None  # (variable order, output columns), see semantics._columns

    def node(self, nid: int) -> Node:
        return self.nodes[nid]

    def in_edge(self, nid: int, port: int) -> Optional[Edge]:
        return self._in.get((nid, port))

    def out_edge(self, nid: int, port: int) -> Optional[Edge]:
        return self._out.get((nid, port))

    def nodes_of_kind(self, kind: NodeKind) -> list[Node]:
        return [self.nodes[i] for i in sorted(self.nodes) if self.nodes[i].kind is kind]

    def __repr__(self) -> str:
        c = cost(self)
        return (
            f"Circuit(nodes={len(self.nodes)}, outputs={len(self.outputs)}, "
            f"cost=({c.merges},{c.copies},{c.phase_shifts}))"
        )


@dataclass(frozen=True)
class CircuitBundle:
    """An ordered collection of named single-output circuits.

    The circuits may share variable names; a shared name is read as the same
    external input across all outputs.
    """

    outputs: tuple[tuple[str, Circuit], ...]

    def __post_init__(self):
        names = [n for n, _ in self.outputs]
        if len(set(names)) != len(names):
            raise CircuitError(f"duplicate output names in bundle: {names}")
        for name, circ in self.outputs:
            if len(circ.outputs) != 1:
                raise CircuitError(f"bundle output {name!r} is not single-output")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.outputs)

    def __getitem__(self, name: str) -> Circuit:
        for n, c in self.outputs:
            if n == name:
                return c
        raise KeyError(name)

    def items(self):
        return iter(self.outputs)


# ---------------------------------------------------------------------------
# Traversal, canonical form, fingerprints


def _kahn(c: Circuit):
    """Topological order with smallest-id-first tie-break.

    Uses actual in-edge counts so it also works on malformed circuits; returns
    (order, leftover) where a non-empty leftover means a cycle.
    """
    indeg = {nid: 0 for nid in c.nodes}
    for e in c.edges:
        if e.dst in indeg:
            indeg[e.dst] += 1
    ready = [nid for nid, d in sorted(indeg.items()) if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        nid = heapq.heappop(ready)
        order.append(nid)
        for port in range(c.nodes[nid].kind.out_arity):
            e = c.out_edge(nid, port)
            if e is not None and e.dst in indeg:
                indeg[e.dst] -= 1
                if indeg[e.dst] == 0:
                    heapq.heappush(ready, e.dst)
    placed = set(order)
    leftover = [nid for nid in c.nodes if nid not in placed]
    return order, leftover


def topo_order(c: Circuit) -> list[int]:
    if c._topo is None:
        order, leftover = _kahn(c)
        if leftover:
            raise CircuitError("circuit contains a cycle")
        c._topo = order
    return c._topo


def _canonical_rank(c: Circuit) -> dict[int, int]:
    """Id-independent node numbering.

    Pre-order DFS from the outputs (in output order), following input ports in
    port order. Ports are linear, so the visit order depends only on the shape
    of the graph, never on the node ids.
    """
    rank: dict[int, int] = {}
    for out in c.outputs:
        stack = [out]
        while stack:
            nid = stack.pop()
            if nid in rank:
                continue
            rank[nid] = len(rank)
            node = c.nodes[nid]
            for port in reversed(range(node.kind.in_arity)):
                e = c.in_edge(nid, port)
                if e is not None:
                    stack.append(e.src)
    for nid in sorted(c.nodes):
        if nid not in rank:
            rank[nid] = len(rank)
    return rank


def _param_key(param: Optional[PhaseParam]):
    if param is None:
        return None
    if param.is_const:
        return ("c", param.phase.bit)
    return ("v", param.name)


def canonical_form(c: Circuit) -> tuple:
    """A value equal for exactly the circuits that differ only by node ids."""
    if c._canon is None:
        rank = _canonical_rank(c)
        nodes = tuple(
            (rank[nid], c.nodes[nid].kind.value, _param_key(c.nodes[nid].param))
            for nid in sorted(c.nodes, key=lambda i: rank[i])
        )
        edges = tuple(sorted((rank[e.src], e.src_port, rank[e.dst], e.dst_port) for e in c.edges))
        c._canon = (nodes, edges, tuple(rank[o] for o in c.outputs))
    return c._canon


def fingerprint(c: Circuit) -> str:
    """Short stable hash of the canonical form; used to detect stale match sites."""
    if c._fp is None:
        digest = hashlib.blake2b(repr(canonical_form(c)).encode(), digest_size=8)
        c._fp = digest.hexdigest()
    return c._fp


def is_isomorphic(a: Circuit, b: Circuit) -> bool:
    return canonical_form(a) == canonical_form(b)


def renumbered(c: Circuit) -> Circuit:
    """The same circuit with ids 0..n-1 in canonical order.

    Isomorphic circuits renumber to identical values, which makes search
    deduplication and trace replay exact.
    """
    rank = _canonical_rank(c)
    nodes = [Node(rank[n.id], n.kind, n.param) for n in c.nodes.values()]
    edges = [Edge(rank[e.src], e.src_port, rank[e.dst], e.dst_port) for e in c.edges]
    return Circuit(nodes, edges, [rank[o] for o in c.outputs])


# ---------------------------------------------------------------------------
# Constructors


class _Builder:
    def __init__(self):
        self.nodes: list[Node] = []
        self.edges: list[Edge] = []

    def add(self, kind: NodeKind, param: Optional[PhaseParam] = None) -> int:
        nid = len(self.nodes)
        self.nodes.append(Node(nid, kind, param))
        return nid

    def wire(self, src, sport, dst, dport):
        self.edges.append(Edge(src, sport, dst, dport))

    def copy_in(self, c: Circuit, skip: frozenset[int] = frozenset()) -> dict[int, int]:
        """Graft all of ``c`` except ``skip`` nodes (and their edges) into this builder."""
        idmap = {}
        for nid in sorted(c.nodes):
            if nid in skip:
                continue
            node = c.nodes[nid]
            idmap[nid] = self.add(node.kind, node.param)
        for e in c.edges:
            if e.src in skip or e.dst in skip:
                continue
            self.wire(idmap[e.src], e.src_port, idmap[e.dst], e.dst_port)
        return idmap

    def done(self, outputs: Iterable[int]) -> Circuit:
        return Circuit(self.nodes, self.edges, outputs)


def _single_source(c: Circuit) -> Node:
    sources = c.nodes_of_kind(NodeKind.SOURCE)
    if len(sources) != 1:
        raise CircuitError(f"expected exactly one source, found {len(sources)}")
    return sources[0]


def _single_output(c: Circuit) -> Node:
    if len(c.outputs) != 1:
        raise CircuitError(f"expected exactly one output, found {len(c.outputs)}")
    return c.nodes[c.outputs[0]]


def mk_var(name: str) -> Circuit:
    """A wire initialising the Boolean variable ``name`` (source, one named shift)."""
    param = PhaseParam.var(name)
    b = _Builder()
    s = b.add(NodeKind.SOURCE)
    p = b.add(NodeKind.SHIFT, param)
    o = b.add(NodeKind.OUTPUT)
    b.wire(s, 0, p, 0)
    b.wire(p, 0, o, 0)
    return b.done([o])


def mk_const(bit: int) -> Circuit:
    """A wire carrying the literal bit 0 or 1 (a constant phase shift)."""
    param = PhaseParam.const_bit(bit)
    b = _Builder()
    s = b.add(NodeKind.SOURCE)
    p = b.add(NodeKind.SHIFT, param)
    o = b.add(NodeKind.OUTPUT)
    b.wire(s, 0, p, 0)
    b.wire(p, 0, o, 0)
    return b.done([o])


def compose_series(lower: Circuit, upper: Circuit) -> Circuit:
    """Feed ``lower``'s single output into ``upper``'s single source.

    Stacking circuits adds their phase actions, so for single-output circuits
    this computes the XOR of the two functions.
    """
    out = _single_output(lower)
    src = _single_source(upper)
    b = _Builder()
    lmap = b.copy_in(lower, skip=frozenset([out.id]))
    feed = lower.in_edge(out.id, 0)
    umap = b.copy_in(upper, skip=frozenset([src.id]))
    entry = upper.out_edge(src.id, 0)
    b.wire(lmap[feed.src], feed.src_port, umap[entry.dst], entry.dst_port)
    return b.done([umap[o] for o in upper.outputs])


def compose_parallel(left: Circuit, right: Circuit) -> Circuit:
    """Disjoint union; outputs are left's then right's. Shared names stay shared."""
    b = _Builder()
    lmap = b.copy_in(left)
    rmap = b.copy_in(right)
    return b.done([lmap[o] for o in left.outputs] + [rmap[o] for o in right.outputs])


def _graft_branch(b: _Builder, arg: Circuit, below: tuple[int, int]) -> tuple[int, int]:
    """Copy ``arg`` minus source and output, fed from ``below``; return its exit wire."""
    src = _single_source(arg)
    out = _single_output(arg)
    entry = arg.out_edge(src.id, 0)
    if entry.dst == out.id:
        return below  # bare wire
    idmap = b.copy_in(arg, skip=frozenset([src.id, out.id]))
    b.wire(below[0], below[1], idmap[entry.dst], entry.dst_port)
    exit_edge = arg.in_edge(out.id, 0)
    return (idmap[exit_edge.src], exit_edge.src_port)


def mk_maj(x: Circuit, y: Circuit, z: Circuit) -> Circuit:
    """The majority gate: copy the input wave into the three argument circuits
    and merge their results. Arguments must be single-source, single-output."""
    b = _Builder()
    s = b.add(NodeKind.SOURCE)
    k = b.add(NodeKind.COPY)
    b.wire(s, 0, k, 0)
    m = b.add(NodeKind.MERGE)
    for port, arg in enumerate((x, y, z)):
        exit_wire = _graft_branch(b, arg, (k, port))
        b.wire(exit_wire[0], exit_wire[1], m, port)
    o = b.add(NodeKind.OUTPUT)
    b.wire(m, 0, o, 0)
    return b.done([o])


def mk_not(x: Circuit) -> Circuit:
    return compose_series(x, mk_const(1))


def mk_xor(x: Circuit, y: Circuit) -> Circuit:
    return compose_series(x, y)


def mk_xnor(x: Circuit, y: Circuit) -> Circuit:
    return mk_not(mk_xor(x, y))


def mk_and(x: Circuit, y: Circuit) -> Circuit:
    return mk_maj(x, y, mk_const(0))


def mk_or(x: Circuit, y: Circuit) -> Circuit:
    return mk_maj(x, y, mk_const(1))


def mk_nand(x: Circuit, y: Circuit) -> Circuit:
    return mk_not(mk_and(x, y))


def wire() -> Circuit:
    """The bare identity wire (source straight to output); carries bit 0."""
    b = _Builder()
    s = b.add(NodeKind.SOURCE)
    o = b.add(NodeKind.OUTPUT)
    b.wire(s, 0, o, 0)
    return b.done([o])


# ---------------------------------------------------------------------------
# Queries and rewiring-free transforms


def substitute(c: Circuit, name: str, bit: int) -> Circuit:
    """Fix variable ``name`` to ``bit``: every shift labelled ``name`` becomes a
    constant shift. Unknown names are a no-op."""
    if bit not in (0, 1):
        raise CircuitError(f"bit must be 0 or 1, got {bit!r}")
    replacement = PhaseParam.const(Phase(bit))
    nodes = [
        Node(n.id, n.kind, replacement)
        if n.kind is NodeKind.SHIFT and n.param.is_var and n.param.name == name
        else n
        for n in c.nodes.values()
    ]
    return Circuit(nodes, c.edges, c.outputs)


def variables(obj: Union[Circuit, CircuitBundle]) -> list[str]:
    """Variable names in first-occurrence order of the topological traversal
    (bundles: across outputs in declaration order)."""
    circuits = [c for _, c in obj.items()] if isinstance(obj, CircuitBundle) else [obj]
    seen: list[str] = []
    for c in circuits:
        for nid in topo_order(c):
            node = c.nodes[nid]
            if node.kind is NodeKind.SHIFT and node.param.is_var and node.param.name not in seen:
                seen.append(node.param.name)
    return seen


def cost(c: Circuit) -> Cost:
    merges = copies = shifts = 0
    for n in c.nodes.values():
        if n.kind is NodeKind.MERGE:
            merges += 1
        elif n.kind is NodeKind.COPY:
            copies += 1
        elif n.kind is NodeKind.SHIFT:
            shifts += 1
    return Cost(merges, copies, shifts)


def validate(c: Circuit) -> list[str]:
    """Every violated structural invariant, or [] if the circuit is well-formed.

    Found once per circuit (circuits are immutable); each call returns a new list.
    """
    if c._violations is None:
        c._violations = tuple(_find_violations(c))
    return list(c._violations)


def _find_violations(c: Circuit) -> list[str]:
    v: list[str] = []
    if not c.outputs:
        v.append("circuit has no outputs")
    listed = set()
    for o in c.outputs:
        if o in listed:
            v.append(f"output {o} listed twice")
        listed.add(o)
        if o not in c.nodes:
            v.append(f"output {o} is not a node")
        elif c.nodes[o].kind is not NodeKind.OUTPUT:
            v.append(f"output {o} is not an OUTPUT node")
    for n in c.nodes.values():
        if n.kind is NodeKind.OUTPUT and n.id not in listed:
            v.append(f"OUTPUT node {n.id} missing from the outputs list")
        if n.kind is NodeKind.SHIFT and n.param is None:
            v.append(f"shift {n.id} has no phase parameter")
        if n.kind is not NodeKind.SHIFT and n.param is not None:
            v.append(f"node {n.id} ({n.kind.value}) carries a phase parameter")

    in_count: dict[tuple[int, int], int] = {}
    out_count: dict[tuple[int, int], int] = {}
    succ: dict[int, list[int]] = {nid: [] for nid in c.nodes}
    pred: dict[int, list[int]] = {nid: [] for nid in c.nodes}
    for e in c.edges:
        if e.src not in c.nodes or e.dst not in c.nodes:
            v.append(f"edge {tuple(e)} references a missing node")
            continue
        if not 0 <= e.src_port < c.nodes[e.src].kind.out_arity:
            v.append(f"edge {tuple(e)} leaves a nonexistent port")
        if not 0 <= e.dst_port < c.nodes[e.dst].kind.in_arity:
            v.append(f"edge {tuple(e)} enters a nonexistent port")
        in_count[(e.dst, e.dst_port)] = in_count.get((e.dst, e.dst_port), 0) + 1
        out_count[(e.src, e.src_port)] = out_count.get((e.src, e.src_port), 0) + 1
        succ[e.src].append(e.dst)
        pred[e.dst].append(e.src)
    for n in c.nodes.values():
        for port in range(n.kind.in_arity):
            got = in_count.get((n.id, port), 0)
            if got != 1:
                v.append(f"node {n.id} ({n.kind.value}) input port {port} has {got} edges")
        for port in range(n.kind.out_arity):
            got = out_count.get((n.id, port), 0)
            if got != 1:
                v.append(f"node {n.id} ({n.kind.value}) output port {port} has {got} edges")

    _, leftover = _kahn(c)
    if leftover:
        v.append(f"cycle through nodes {sorted(leftover)}")
        return v

    def closure(seeds, adjacency):
        seen = set(seeds)
        stack = list(seeds)
        while stack:
            for nxt in adjacency[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    fwd = closure([n.id for n in c.nodes.values() if n.kind is NodeKind.SOURCE], succ)
    back = closure([o for o in c.outputs if o in c.nodes], pred)
    for nid in sorted(c.nodes):
        if nid not in fwd:
            v.append(f"node {nid} is not reachable from any source")
        if nid not in back:
            v.append(f"node {nid} cannot reach any output")
    return v


def is_valid(c: Circuit) -> bool:
    return not validate(c)
