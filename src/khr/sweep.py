"""Sweep-line evaluation over interval colorings of a tilted line.

The state is an ordered family of disjoint intervals carried by a line of
slope just under n/m.  An interval is recorded purely combinatorially: by
the vertical grid line x = start_col holding its lower endpoint and the
horizontal grid line y = end_row holding its upper endpoint.  As the line
moves up it crosses one lattice point at a time; the crossing of p = (x, y)
happens at the scaled height d = m*y - n*x, and for coprime (m, n) no two
points in range share a d, so the event order is fully determined by
integers and the slope never has to be represented.

Crossing a point transforms the family by exactly one local rule, and
apply_rule is the one place where each rule's effect is written:

* Contract  -- p is both endpoints of one interval, which vanishes;
* StartPass -- p is the lower endpoint of an interval, which slides past;
* EndPass   -- p is the upper endpoint of an interval, which slides past;
* Branch    -- p is strictly inside an interval; the evaluation forks into
               a Split state (the interval cut in two at p) and a Keep
               state (unchanged);
* NoOp      -- p touches nothing.

Each branch of the fork tree multiplies weights drawn from a pluggable
profile and ends when the last interval contracts, contributing the
profile's base value.  One leaf arises per (m, n)-Dyck path: the region the
chosen intervals sweep is bounded by that path, and the branch's rule steps
are reconstructed into the path and validated against its statistics; the
leaf keeps only that path and its numerator.  The tree does not depend on
the weights, so one traversal serves several profiles.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterator, Mapping, NamedTuple

from .dyck import (
    DyckPath,
    KnotParams,
    Point,
    corners,
    distance,
    enumerate_paths,
    interior_points,
    k_values,
    most_distant,
    pass_through_points,
)
from .laurent import A, Invariant, LaurentPoly, ONE, T, poly_sum, q_power


class UnsupportedConfiguration(RuntimeError):
    """Two intervals claimed the same event point; unreachable from the
    single-interval start state and treated as a hard error."""


class Rule(str, Enum):
    CONTRACT = "Contract"
    START_PASS = "StartPass"
    END_PASS = "EndPass"
    BRANCH = "Branch"
    SPLIT = "Split"
    KEEP = "Keep"
    NOOP = "NoOp"
    TERMINAL = "Terminal"


# A state: the intervals as (start_col, end_row) pairs, starts and ends both
# strictly increasing.
Coloring = tuple[tuple[int, int], ...]


def initial_coloring(params: KnotParams) -> Coloring:
    """The single interval from the origin's vertical line to the top row,
    whose sweep computes the (m, n) torus knot."""
    return ((0, params.n),)


def event_list(params: KnotParams) -> list[Point]:
    """Lattice points with 0 < d <= m*n inside the bounding rectangle, in
    sweep order: by d, which no two of them share (checked)."""
    m, n = params.m, params.n
    events = [(x, y) for x in range(m + 1) for y in range(n + 1) if 0 < m * y - n * x <= m * n]
    events.sort(key=lambda p: distance(params, p))
    if len({distance(params, p) for p in events}) != len(events):
        raise RuntimeError(f"event heights collide for ({m}, {n})")
    return events


def classify(state: Coloring, p: Point) -> tuple[Rule, int | None]:
    """Which rule fires at p, and on which interval (None for NoOp).

    The state must be alive at p's height: every interval's contraction
    must not lie strictly in the past.
    """
    x, y = p
    found: tuple[Rule, int] | None = None
    for i, (a, b) in enumerate(state):
        if a == x and b == y:
            rule = Rule.CONTRACT
        elif a == x and b > y:
            rule = Rule.START_PASS
        elif a < x and b == y:
            rule = Rule.END_PASS
        elif a < x and b > y:
            rule = Rule.BRANCH
        else:
            continue  # p lies left or right of this interval
        if found is not None:
            raise UnsupportedConfiguration(
                f"intervals {found[1]} and {i} both meet event {p}"
            )
        found = (rule, i)
    if found is None:
        return Rule.NOOP, None
    return found


# One successor of a rule step: the next state, the weight tag charged for
# reaching it, and the interval count its weight function receives.
Successor = tuple[Coloring, Rule, int | None]


def apply_rule(state: Coloring, p: Point) -> tuple[Successor, ...]:
    """Successors of state as the line crosses p; the one place where each
    rule's effect is written.

    NoOp and the pass rules keep the state.  Contract drops the interval,
    and with one interval left it short-circuits to Terminal (the base value
    absorbs the final contraction).  Branch returns the Split successor, the
    interval cut in two at p, then the Keep successor.
    """
    rule, idx = classify(state, p)
    if rule is Rule.NOOP:
        return ((state, Rule.NOOP, None),)
    if idx is None:
        raise RuntimeError(f"rule {rule} fires at {p} on no interval")
    k = len(state)
    if rule is Rule.START_PASS or rule is Rule.END_PASS:
        return ((state, rule, k),)
    before, after = state[:idx], state[idx + 1 :]
    if rule is Rule.CONTRACT:
        rest = before + after
        return ((rest, Rule.TERMINAL, None),) if k == 1 else ((rest, Rule.CONTRACT, k - 1),)
    start, end = state[idx]
    return (
        (before + ((start, p[1]), (p[0], end)) + after, Rule.SPLIT, k),
        (state, Rule.KEEP, k),
    )


@dataclass(frozen=True)
class WeightProfile:
    """Per-rule weights accumulated along a branch, times a base value at
    the end.  Weight functions receive the interval count recorded in the
    successor: the count after removal for Contract, the unchanged count
    for the other rules."""

    name: str
    weights: Mapping[Rule, Callable[[int], LaurentPoly]] = field(hash=False)
    base: Invariant

    def weight(self, tag: Rule, k: int) -> LaurentPoly:
        rule_weight = self.weights.get(tag)
        if rule_weight is None:
            raise ValueError(f"no weight attached to {tag}")
        return rule_weight(k)


HHH_PROFILE = WeightProfile(
    name="HHH",
    weights={
        Rule.CONTRACT: lambda k: q_power(k) - A,
        Rule.START_PASS: lambda k: ONE,
        Rule.END_PASS: lambda k: ONE,
        Rule.SPLIT: lambda k: q_power(-k),
        Rule.KEEP: lambda k: T * q_power(-k),
    },
    base=Invariant(ONE, 1),
)

# Scalar evaluation in the toric-braid representation.  The split weight is
# the lone half power q^(-1/2); contract flips sign against HHH and the two
# pass rules acquire +-q^(k-1).
TORIC_PROFILE = WeightProfile(
    name="I",
    weights={
        Rule.CONTRACT: lambda k: A - q_power(k),
        Rule.START_PASS: lambda k: -q_power(k - 1),
        Rule.END_PASS: lambda k: q_power(k - 1),
        Rule.SPLIT: lambda k: LaurentPoly.monomial(1, q2=-1),
        Rule.KEEP: lambda k: T,
    },
    base=Invariant(A - ONE, 0),
)


class Leaf(NamedTuple):
    """One branch's Dyck path and its value's numerator: the value is
    num / (1 - t)^dpow, dpow being its SweepResult's."""

    path: DyckPath
    num: LaurentPoly


@dataclass
class SweepResult:
    params: KnotParams
    profile: str
    total: Invariant
    dpow: int  # the base's (1 - t) power, shared by every leaf
    leaves: list[Leaf]


def reconstruct_path(
    steps: Mapping[Point, tuple[Rule, int]], terminal: Point, params: KnotParams
) -> DyckPath:
    """The Dyck path bounding the region one branch's intervals swept.

    steps maps every non-NoOp, non-terminal event of the branch to the tag
    and interval count of the successor it took there; terminal is the
    point whose contraction ended it.  Events after the terminal never
    interact with anything and are omitted.

    The Keep points are exactly the lattice points strictly between the
    path and the diagonal, and row y holds m*y//n - columns[y] of them (the
    per-row form of dyck.area), so the Keep count per row gives the columns.
    That path fixes the step at every event; steps must equal that map, and
    the terminal must be the most distant outer corner.
    """
    m, n = params.m, params.n
    keeps = Counter(y for (_, y), (tag, _) in steps.items() if tag is Rule.KEEP)
    try:
        path = DyckPath(params, tuple(m * y // n - keeps[y] for y in range(n)))
    except ValueError as exc:
        # a sweep fault, not a usage error
        raise RuntimeError(f"the Keep steps give no path: {exc}") from exc

    outer, inner = corners(path)
    top = most_distant(params, outer)
    # Keep inside, Split at inner corners, Contract at the other outer ones
    weighted = dict.fromkeys(interior_points(path), Rule.KEEP)
    weighted.update(dict.fromkeys(inner, Rule.SPLIT))
    weighted.update(dict.fromkeys((p for p in outer if p != top), Rule.CONTRACT))
    ks = k_values(path, tuple(weighted))
    expected: dict[Point, object] = {p: (tag, k) for (p, tag), k in zip(weighted.items(), ks)}
    # a pass is charged with the live interval count, which the path does
    # not fix, so a pass step is compared by its tag alone
    vertical_pass, horizontal_pass = pass_through_points(path)
    expected.update(dict.fromkeys(vertical_pass, Rule.START_PASS))
    expected.update(dict.fromkeys(horizontal_pass, Rule.END_PASS))
    passes = (Rule.START_PASS, Rule.END_PASS)
    got = {p: tag if tag in passes else (tag, k) for p, (tag, k) in steps.items()}
    if got != expected:
        p = next(p for p in sorted(got.keys() | expected.keys()) if got.get(p) != expected.get(p))
        raise RuntimeError(
            f"step {steps.get(p)} at {p} does not match the path {path}: "
            f"expected {expected.get(p)}"
        )
    if terminal != top:
        raise RuntimeError(
            f"terminal {terminal} is not the most distant corner {top} of {path}"
        )
    return path


def branches(
    params: KnotParams, profiles: tuple[WeightProfile, ...]
) -> Iterator[tuple[dict[Point, tuple[Rule, int]], Point, tuple[LaurentPoly, ...]]]:
    """The one walk over the sweep's branch tree: (steps, terminal, weights)
    for each branch, in the order the walk finishes it.

    Every event steps through apply_rule; the branch continues with the
    first successor, a second one (Keep) is pushed for later, and Terminal
    ends the branch.  steps is the branch's own {point: (tag, k)} dict,
    never touched again after the yield; weights holds, per profile, the
    product of its rule weights without the base, each rule's weights
    looked up once per interval count.
    """
    events = event_list(params)
    factors: dict[tuple[Rule, int], tuple[LaurentPoly, ...]] = {}

    def charge(weights: tuple[LaurentPoly, ...], rule: Rule, k: int) -> tuple[LaurentPoly, ...]:
        rule_factors = factors.get((rule, k))
        if rule_factors is None:
            rule_factors = factors[rule, k] = tuple(prof.weight(rule, k) for prof in profiles)
        return tuple(w * f for w, f in zip(weights, rule_factors))

    stack: list[tuple[int, Coloring, tuple[LaurentPoly, ...], dict]] = [
        (0, initial_coloring(params), (ONE,) * len(profiles), {})
    ]
    while stack:
        i, state, weights, steps = stack.pop()
        while i < len(events):
            p = events[i]
            i += 1
            successors = apply_rule(state, p)
            state, tag, k = successors[0]
            if tag is Rule.NOOP:
                continue
            if tag is Rule.TERMINAL:
                yield steps, p, weights
                break
            for other, other_tag, other_k in successors[1:]:
                stack.append(
                    (i, other, charge(weights, other_tag, other_k), {**steps, p: (other_tag, other_k)})
                )
            steps[p] = (tag, k)
            weights = charge(weights, tag, k)
        else:
            raise RuntimeError("sweep exhausted its events with intervals still alive")


def evaluate_profiles(
    params: KnotParams, profiles: tuple[WeightProfile, ...]
) -> tuple[SweepResult, ...]:
    """Every profile's sweep, assembled from one walk of branches.

    Each branch is reconstructed into its Dyck path and validated once, and
    every profile's leaf shares that path.  The leaves come back sorted by
    path (N before E), and their paths must be exactly enumerate_paths(params):
    one leaf per path.  Each leaf numerator sits over its base's (1 - t)
    power, stored once as dpow, so each total is one sum of numerators,
    normalized once.
    """
    found = [
        (reconstruct_path(steps, terminal, params), weights)
        for steps, terminal, weights in branches(params, profiles)
    ]
    found.sort(key=lambda leaf: leaf[0].columns)
    paths = enumerate_paths(params)
    if tuple(path for path, _ in found) != paths:
        raise RuntimeError(f"{len(found)} leaves, not one on each of the {len(paths)} paths")
    results = []
    for j, profile in enumerate(profiles):
        base = profile.base
        leaves = [Leaf(path, weights[j] * base.num) for path, weights in found]
        total = Invariant(poly_sum([leaf.num for leaf in leaves]), base.dpow)
        results.append(SweepResult(params, profile.name, total, base.dpow, leaves))
    return tuple(results)


def evaluate(params: KnotParams, profile: WeightProfile) -> SweepResult:
    """The sweep of one profile: evaluate_profiles with that profile alone."""
    return evaluate_profiles(params, (profile,))[0]

