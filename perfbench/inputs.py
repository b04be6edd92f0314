"""Seeded input generators for the benchmark workloads.

Input ``i`` of a run depends only on ``(seed, i)``, so a run can draw as many
inputs as its time allows and two runs with the same seed see the same
sequence. Shape parameters (size, variable count, padding count) cycle with
``i`` instead of being drawn at random: every run then holds the same mix of
shapes, and only the random structure within a shape changes with the seed.
This keeps the seed-to-seed spread of throughput small enough for the bounds
in ``BENCHMARK.json``.

Expressions are built from the ``wavelogic`` syntax classes and printed by
``text`` below, not by the program's printer. Nothing here rewrites a
circuit, so a change to ``simplify`` or ``prove_equal`` cannot change any
workload's inputs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from wavelogic import And, Const, Maj, Not, Or, Var, Xor, eval_bool

NAMES = "abcdefghijkl"


def text(e) -> str:
    """Concrete syntax accepted by ``wavelogic.parse_expr``."""
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Const):
        return str(e.bit)
    if isinstance(e, Not):
        return f"not({text(e.arg)})"
    if isinstance(e, Maj):
        return f"maj({text(e.a)},{text(e.b)},{text(e.c)})"
    op = {And: "and", Or: "or", Xor: "xor"}[type(e)]
    return f"{op}({text(e.left)},{text(e.right)})"


def children(e) -> tuple:
    if isinstance(e, Not):
        return (e.arg,)
    if isinstance(e, Maj):
        return (e.a, e.b, e.c)
    if isinstance(e, (And, Or, Xor)):
        return (e.left, e.right)
    return ()


def rebuild(e, kids):
    if isinstance(e, Not):
        return Not(*kids)
    return type(e)(*kids)


def size(e) -> int:
    return 1 + sum(size(k) for k in children(e))


def merges(e) -> int:
    """Merge gates the circuit of ``e`` has: ``from_boolean`` builds one per
    AND, OR and MAJ and none for NOT and XOR (phase shifts)."""
    own = 1 if isinstance(e, (And, Or, Maj)) else 0
    return own + sum(merges(k) for k in children(e))


def var_names(e) -> set[str]:
    if isinstance(e, Var):
        return {e.name}
    out: set[str] = set()
    for k in children(e):
        out |= var_names(k)
    return out


def equivalent(a, b) -> bool:
    """Equal under ``eval_bool`` on every assignment of the union of variables."""
    names = sorted(var_names(a) | var_names(b))
    for bits in itertools.product((0, 1), repeat=len(names)):
        sigma = dict(zip(names, bits))
        if eval_bool(a, sigma) != eval_bool(b, sigma):
            return False
    return True


def _split(rng: random.Random, total: int, parts: int) -> list[int]:
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [hi - lo for lo, hi in zip([0] + cuts, cuts + [total])]


def random_tree(rng: random.Random, n: int, leaf):
    """A random expression of exactly ``n`` syntax nodes."""
    if n == 1:
        return leaf()
    if n == 2:
        return Not(leaf())
    op = rng.choice(("not", "xor", "and", "or", "maj", "and", "or", "maj"))
    if op == "not":
        return Not(random_tree(rng, n - 1, leaf))
    if op == "maj" and n >= 4:
        return Maj(*(random_tree(rng, k, leaf) for k in _split(rng, n - 1, 3)))
    cls = {"xor": Xor, "and": And, "or": Or}.get(op, And)
    left, right = _split(rng, n - 1, 2)
    return cls(random_tree(rng, left, leaf), random_tree(rng, right, leaf))


def _leaves(rng: random.Random, names, const_p: float, cover: bool = False):
    """Leaf factory; with ``cover`` the first leaves visit every name once."""
    queue = list(names)
    rng.shuffle(queue)

    def leaf():
        if cover and queue:
            return Var(queue.pop())
        if rng.random() < const_p:
            return Const(rng.randint(0, 1))
        return Var(rng.choice(names))

    return leaf


def _rng(workload: str, seed: int, i: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{i}")


# --- simplify_checked --------------------------------------------------------

# (syntax nodes, merge gates, distinct variables) per input, cycled. Time
# per operation grows steeply with merges and variables (on a 2-core x86
# host, medians of 44, 49, 59 and 111 ms for the shapes below in order), so
# fixing the mix fixes most of the seed-to-seed spread. (5, 1, 3) is the
# tightest shape measured (80% within 47-54 ms); holding two fifths of the
# inputs, it puts p50 where operations are dense, and p90 falls near the
# median of the (5, 2, 2) shape.
SIMPLIFY_SHAPES = ((4, 1, 2), (5, 1, 3), (5, 1, 3), (6, 1, 3), (5, 2, 2))
SIMPLIFY_POOLS = (4, 5)


def shaped_tree(rng: random.Random, n: int, names, const_p: float, m=None):
    """A random expression of ``n`` syntax nodes that uses exactly the
    variables ``names``, and exactly ``m`` merge gates if ``m`` is given."""
    while True:
        e = random_tree(rng, n, _leaves(rng, names, const_p, cover=True))
        if len(var_names(e)) == len(names) and (m is None or merges(e) == m):
            return e


def simplify_input(seed: int, i: int) -> str:
    """An expression of 4-6 syntax nodes and 1-2 merges over 2-3 of 4-5 names."""
    rng = _rng("simplify", seed, i)
    n, m, v = SIMPLIFY_SHAPES[i % len(SIMPLIFY_SHAPES)]
    pool = NAMES[: SIMPLIFY_POOLS[(i // len(SIMPLIFY_SHAPES)) % len(SIMPLIFY_POOLS)]]
    return text(shaped_tree(rng, n, rng.sample(pool, v), 0.15, m))


# --- prove_padded ------------------------------------------------------------

PAD_KINDS = ("xor0", "and1", "or0", "notnot", "majxx")
PAD_PAIRS = tuple(itertools.combinations_with_replacement(PAD_KINDS, 2))


@dataclass(frozen=True)
class Pair:
    padded: str  # e' : e with identities inserted
    target: str  # e
    kinds: tuple[str, ...]


def _subterms(e, path=()):
    yield path, e
    for j, k in enumerate(children(e)):
        yield from _subterms(k, path + (j,))


def _replace(e, path, new):
    if not path:
        return new
    kids = list(children(e))
    kids[path[0]] = _replace(kids[path[0]], path[1:], new)
    return rebuild(e, kids)


def pad(rng: random.Random, e, kind: str, names: str):
    """Insert one identity the certified rules justify at a random subterm."""
    path, x = rng.choice(list(_subterms(e)))
    if kind == "xor0":
        new = Xor(x, Const(0))
    elif kind == "and1":
        new = And(x, Const(1))
    elif kind == "or0":
        new = Or(x, Const(0))
    elif kind == "notnot":
        new = Not(Not(x))
    else:
        new = Maj(x, x, Var(rng.choice(names)))
    return _replace(e, path, new)


def prove_input(seed: int, i: int) -> Pair:
    """``(e', e)``: ``e`` with one identity (two inputs in three, ``e`` of 3-6
    nodes) or two (every third input, ``e`` of 1-2 nodes). Kinds cycle
    through every single kind and every unordered pair of kinds.

    Two identities on a 3-node ``e`` already take 0.3-0.9 s per search on a
    2-core x86 host, and a few such operations would set a whole run's
    throughput; on 1-2 nodes they take 5-190 ms."""
    rng = _rng("prove", seed, i)
    slot = i // 3
    if i % 3 != 2:
        single = 2 * slot + i % 3
        kinds = (PAD_KINDS[single % len(PAD_KINDS)],)
        n = 3 + (single // len(PAD_KINDS)) % 4
    else:
        kinds = PAD_PAIRS[slot % len(PAD_PAIRS)]
        n = 1 + (slot // len(PAD_PAIRS)) % 2
    names = NAMES[:4]
    e = random_tree(rng, n, _leaves(rng, names, const_p=0.1))
    padded = e
    for kind in kinds:
        padded = pad(rng, padded, kind, names)
    if not equivalent(padded, e):
        raise AssertionError(f"padding broke equivalence: {text(padded)} vs {text(e)}")
    return Pair(text(padded), text(e), kinds)


# --- table_wide --------------------------------------------------------------

# (variables, syntax nodes) per input, cycled. Nodes shrink as rows double,
# so the widest tables do not dominate the run.
TABLE_SHAPES = ((8, 90), (9, 60), (10, 42), (11, 32), (12, 26))


def table_input(seed: int, i: int) -> str:
    """An expression over exactly 8-12 distinct variables."""
    rng = _rng("table", seed, i)
    n_vars, base = TABLE_SHAPES[i % len(TABLE_SHAPES)]
    return text(shaped_tree(rng, rng.randint(base, base + base // 10), NAMES[:n_vars], 0.05))


GENERATORS = {
    "simplify_checked": simplify_input,
    "prove_padded": prove_input,
    "table_wide": table_input,
}
