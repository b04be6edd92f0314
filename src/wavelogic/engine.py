"""Rewrite engine: rule application, derivation traces, simplification.

Application is guarded three ways: a site carries the fingerprint of the
circuit it was enumerated on (stale sites are rejected), every result is
re-validated, and in checked mode the result is asserted truth-table
equivalent to the input.

``simplify`` runs a greedy best-improvement loop over the lexicographic cost
(merges, copies, phase shifts); it stops at a local minimum or when the step
budget runs out, so it never returns a costlier circuit. ``prove_equal`` runs
a budget-limited bidirectional search meeting at a shared canonical form; a
miss is inconclusive, never a disproof.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

from .circuit import (
    Circuit,
    Cost,
    canonical_form,
    cost,
    fingerprint,
    substitute,
    validate,
)
from .errors import BudgetError, RewriteError, StaleSiteError, ValidationError
from .patterns import Direction, MatchSite, find_cells
from .rules import RewriteRule, all_rules, rule_by_name
from .semantics import equivalent

DIRECTIONS = (Direction.LR, Direction.RL)


def find_matches(c: Circuit, rule: Union[RewriteRule, str], direction: Direction) -> list[MatchSite]:
    """All sites where ``rule`` applies in ``direction``, in canonical order."""
    violations = validate(c)
    if violations:
        raise ValidationError(violations)
    if isinstance(rule, str):
        rule = rule_by_name(rule)
    return rule.find(c, direction, find_cells(c))


def apply(c: Circuit, site: MatchSite, checked: bool = False) -> Circuit:
    """Apply a previously enumerated site to the exact circuit it was found on."""
    if site.fingerprint != fingerprint(c):
        raise StaleSiteError(
            f"site {site.rule} {site.direction} was enumerated on a different circuit"
        )
    rule = rule_by_name(site.rule)
    result = rule.apply(c, site)
    violations = validate(result)
    if violations:
        raise RewriteError(f"{site.rule} produced an invalid circuit: {'; '.join(violations)}")
    if checked and not equivalent(c, result):
        raise RewriteError(f"{site.rule} at {site.summary()} changed the truth table")
    return result


@dataclass(frozen=True)
class Step:
    rule: str
    direction: Direction
    site: MatchSite
    summary: str
    cost_before: Cost
    cost_after: Cost


@dataclass(frozen=True)
class DerivationTrace:
    """An auditable chain of rule applications from ``initial`` to ``final``."""

    initial: Circuit
    final: Circuit
    steps: tuple[Step, ...]

    def format_lines(self) -> list[str]:
        lines = []
        for i, s in enumerate(self.steps, start=1):
            b, a = s.cost_before, s.cost_after
            lines.append(
                f"{i} {s.rule} {s.direction} "
                f"cost=({b.merges},{b.copies},{b.phase_shifts})"
                f"->({a.merges},{a.copies},{a.phase_shifts})"
            )
        return lines

    def __str__(self) -> str:
        return "\n".join(self.format_lines())


def _make_step(site: MatchSite, before: Circuit, after: Circuit) -> Step:
    return Step(site.rule, site.direction, site, site.summary(), cost(before), cost(after))


def _all_sites(c: Circuit, rules: Sequence[RewriteRule]) -> list[MatchSite]:
    """Every site of every rule: left-to-right first, then rule order, then site order."""
    cells = find_cells(c)
    sites = []
    for direction in DIRECTIONS:
        for rule in rules:
            sites.extend(rule.find(c, direction, cells))
    return sites


def simplify(
    c: Circuit,
    budget: int = 64,
    checked: bool = True,
    rules: Optional[Sequence[RewriteRule]] = None,
    exhaustive: bool = False,
) -> tuple[Circuit, DerivationTrace]:
    """Greedy best-improvement simplification.

    At each step every applicable site is tried and the one producing the
    lexicographically smallest cost is taken, with ties broken by rule order,
    direction (left-to-right first) and site order. Stops at a local minimum.

    With ``exhaustive=True`` (circuits of at most 16 nodes) the whole rewrite
    neighbourhood up to ``budget`` steps is explored instead and the cheapest
    reachable circuit is returned; greedy local minima cannot trap it.
    """
    if budget <= 0:
        raise BudgetError(f"budget must be a positive step count, got {budget}")
    violations = validate(c)
    if violations:
        raise ValidationError(violations)
    if rules is None:
        rules = all_rules()
    if exhaustive:
        return _simplify_exhaustive(c, budget, checked, rules)

    current = c
    steps: list[Step] = []
    for _ in range(budget):
        current_cost = cost(current)
        best = None  # (cost, circuit, site)
        for site in _all_sites(current, rules):
            candidate = apply(current, site, checked=checked)
            cand_cost = cost(candidate)
            if cand_cost >= current_cost:
                continue
            if best is None or cand_cost < best[0]:
                best = (cand_cost, candidate, site)
        if best is None:
            break
        steps.append(_make_step(best[2], current, best[1]))
        current = best[1]
    return current, DerivationTrace(c, current, tuple(steps))


_EXHAUSTIVE_NODE_LIMIT = 16
_EXHAUSTIVE_STATE_CAP = 4000


def _simplify_exhaustive(c, budget, checked, rules) -> tuple[Circuit, DerivationTrace]:
    """Breadth-first sweep of every rewrite sequence up to ``budget`` steps,
    keeping the cheapest circuit seen. Exponential; gated to small inputs."""
    if len(c.nodes) > _EXHAUSTIVE_NODE_LIMIT:
        raise BudgetError(
            f"exhaustive search is limited to {_EXHAUSTIVE_NODE_LIMIT}-node circuits "
            f"(got {len(c.nodes)}); use the greedy strategy"
        )
    size_cap = len(c.nodes) + 6
    start_key = canonical_form(c)
    seen = {start_key: _SearchNode(c, None, 0)}
    frontier = [start_key]
    best_key = start_key
    for _ in range(budget):
        if not frontier or len(seen) > _EXHAUSTIVE_STATE_CAP:
            break
        next_frontier = []
        for key in frontier:
            node = seen[key]
            for site in _all_sites(node.circuit, rules):
                candidate = rule_by_name(site.rule).apply(node.circuit, site)
                if len(candidate.nodes) > size_cap:
                    continue
                ckey = canonical_form(candidate)
                if ckey in seen:
                    continue
                seen[ckey] = _SearchNode(candidate, (key, site), node.depth + 1)
                next_frontier.append(ckey)
                if cost(candidate) < cost(seen[best_key].circuit):
                    best_key = ckey
        frontier = next_frontier

    chain = []
    key = best_key
    while seen[key].parent is not None:
        parent_key, site = seen[key].parent
        chain.append(site)
        key = parent_key
    chain.reverse()

    steps = []
    cursor = c
    for site in chain:
        after = apply(cursor, site, checked=checked)
        steps.append(_make_step(site, cursor, after))
        cursor = after
    return cursor, DerivationTrace(c, cursor, tuple(steps))


def analyze(
    c: Circuit,
    fixings: Mapping[str, int],
    budget: int = 64,
    checked: bool = True,
) -> tuple[Circuit, DerivationTrace]:
    """Fix the given inputs, then simplify the residual circuit.

    The returned trace starts from the substituted circuit, so replaying it
    reproduces the residual exactly.
    """
    current = c
    for name in sorted(fixings):
        current = substitute(current, name, fixings[name])
    return simplify(current, budget=budget, checked=checked)


@dataclass
class _SearchNode:
    circuit: Circuit
    parent: Optional[tuple]  # (parent_canon, site) or None for a root
    depth: int


def prove_equal(
    c1: Circuit,
    c2: Circuit,
    budget: int = 20,
    rules: Optional[Sequence[RewriteRule]] = None,
    max_states: int = 20000,
) -> Optional[DerivationTrace]:
    """Search for a derivation turning ``c1`` into ``c2``.

    Bidirectional breadth-first search over rule applications, meeting at a
    shared canonical form; ``budget`` bounds the combined trace length. The
    backward frontier only takes steps whose inverses the matchers can
    re-enumerate, so a found derivation can always be reconstructed. Returns
    None when the budget or state cap is exhausted (inconclusive).
    """
    if budget <= 0:
        raise BudgetError(f"budget must be a positive step count, got {budget}")
    for c in (c1, c2):
        violations = validate(c)
        if violations:
            raise ValidationError(violations)
    if rules is None:
        rules = all_rules()

    size_cap = max(len(c1.nodes), len(c2.nodes)) + 6

    if canonical_form(c1) == canonical_form(c2):
        return DerivationTrace(c1, c2, ())

    left = {canonical_form(c1): _SearchNode(c1, None, 0)}
    right = {canonical_form(c2): _SearchNode(c2, None, 0)}
    left_frontier = [canonical_form(c1)]
    right_frontier = [canonical_form(c2)]
    left_depth = right_depth = 0

    def meet(key):
        return key in left and key in right

    def expand(side, frontier, backward):
        # Cheapest states first: collapse chains meet long before the level
        # is exhausted, which keeps the exact-BFS budget semantics but avoids
        # ploughing through every insertion-bloated sibling.
        index = {k: i for i, k in enumerate(frontier)}
        ordered = sorted(frontier, key=lambda k: (cost(side[k].circuit), index[k]))
        new_frontier = []
        for key in ordered:
            node = side[key]
            for site in _all_sites(node.circuit, rules):
                if backward and not rule_by_name(site.rule).inverse_enumerable(site):
                    continue
                candidate = rule_by_name(site.rule).apply(node.circuit, site)
                if len(candidate.nodes) > size_cap:
                    continue
                ckey = canonical_form(candidate)
                if ckey in side:
                    continue
                side[ckey] = _SearchNode(candidate, (key, site), node.depth + 1)
                new_frontier.append(ckey)
                if len(side) > max_states:
                    return new_frontier, ckey if meet(ckey) else None
                if meet(ckey):
                    return new_frontier, ckey
        return new_frontier, None

    meeting = None
    while left_depth + right_depth < budget:
        if not left_frontier and not right_frontier:
            break
        if left_frontier and (not right_frontier or len(left) <= len(right)):
            left_frontier, meeting = expand(left, left_frontier, backward=False)
            left_depth += 1
        else:
            right_frontier, meeting = expand(right, right_frontier, backward=True)
            right_depth += 1
        if meeting is not None:
            break
        if len(left) > max_states or len(right) > max_states:
            return None

    if meeting is None:
        return None

    # Forward half: c1 ... meeting point.
    forward: list[tuple[Circuit, MatchSite]] = []
    key = meeting
    while left[key].parent is not None:
        parent_key, site = left[key].parent
        forward.append((left[parent_key].circuit, site))
        key = parent_key
    forward.reverse()

    steps = []
    cursor = c1
    for before, site in forward:
        after = apply(cursor, site)
        steps.append(_make_step(site, cursor, after))
        cursor = after

    # Backward half: invert the right-side path, re-enumerating each site.
    backward_path = []
    key = meeting
    while right[key].parent is not None:
        parent_key, site = right[key].parent
        backward_path.append((right[parent_key].circuit, site))
        key = parent_key

    for target_circuit, site in backward_path:
        rule = rule_by_name(site.rule)
        target_key = canonical_form(target_circuit)
        inverted = None
        for inv_site in rule.find(cursor, site.direction.flip(), find_cells(cursor)):
            candidate = apply(cursor, inv_site)
            if canonical_form(candidate) == target_key:
                inverted = (inv_site, candidate)
                break
        if inverted is None:
            raise RewriteError(
                f"could not invert {site.rule} {site.direction} during trace reconstruction"
            )
        steps.append(_make_step(inverted[0], cursor, inverted[1]))
        cursor = inverted[1]

    return DerivationTrace(c1, cursor, tuple(steps))


@dataclass(frozen=True)
class ReplayResult:
    verified: bool
    first_bad_step: Optional[int] = None
    message: str = ""

    def __bool__(self) -> bool:
        return self.verified


def replay(trace: DerivationTrace) -> ReplayResult:
    """Re-run a trace from its initial circuit, checking every step.

    Each step must re-apply cleanly (fingerprints bind sites to the exact
    intermediate circuits), stay valid and preserve the truth table; the last
    circuit must match the recorded final form.
    """
    cursor = trace.initial
    for index, step in enumerate(trace.steps):
        if step.rule != step.site.rule or step.direction != step.site.direction:
            return ReplayResult(False, index, "step metadata disagrees with its site")
        try:
            rule_by_name(step.rule)
        except KeyError:
            return ReplayResult(False, index, f"unknown rule {step.rule!r}")
        try:
            cursor = apply(cursor, step.site, checked=True)
        except (StaleSiteError, RewriteError) as exc:
            return ReplayResult(False, index, str(exc))
        if cost(cursor) != step.cost_after:
            return ReplayResult(False, index, "recorded cost does not match the replayed step")
    if canonical_form(cursor) != canonical_form(trace.final):
        return ReplayResult(False, len(trace.steps), "replay did not reproduce the final circuit")
    return ReplayResult(True)
