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
leaf keeps only that path and its value.  The tree does not depend on the
weights, so one traversal serves several profiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Mapping

from .dyck import (
    DyckPath,
    KnotParams,
    Point,
    corners,
    distance,
    interior_points,
    k_values,
    most_distant,
    pass_through_points,
    rational_catalan,
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


@dataclass(frozen=True)
class Interval:
    """One interval: start on vertical line x = start_col, end on horizontal
    line y = end_row."""

    start_col: int
    end_row: int


def contract_distance(interval: Interval, params: KnotParams) -> int:
    """Scaled height at which the interval shrinks to a point."""
    return params.m * interval.end_row - params.n * interval.start_col


@dataclass(frozen=True)
class Coloring:
    """Ordered disjoint intervals; starts and ends both strictly increase."""

    params: KnotParams
    intervals: tuple[Interval, ...]

    def __post_init__(self) -> None:
        m, n = self.params.m, self.params.n
        prev: Interval | None = None
        for iv in self.intervals:
            if not 0 <= iv.start_col < m:
                raise ValueError(f"start column {iv.start_col} out of range for m={m}")
            if not (0 < iv.end_row <= n):
                raise ValueError(f"end row {iv.end_row} out of range for n={n}")
            if prev is not None and not (
                prev.start_col < iv.start_col and prev.end_row < iv.end_row
            ):
                raise ValueError("intervals out of order or overlapping")
            prev = iv

    @property
    def k(self) -> int:
        return len(self.intervals)


def initial_coloring(params: KnotParams) -> Coloring:
    """The single interval from the origin's vertical line to the top row,
    whose sweep computes the (m, n) torus knot."""
    return Coloring(params, (Interval(0, params.n),))


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
    for i, iv in enumerate(state.intervals):
        a, b = iv.start_col, iv.end_row
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
    k = state.k
    if rule is Rule.START_PASS or rule is Rule.END_PASS:
        return ((state, rule, k),)
    intervals = state.intervals
    before, after = intervals[:idx], intervals[idx + 1 :]
    if rule is Rule.CONTRACT:
        rest = Coloring(state.params, before + after)
        return ((rest, Rule.TERMINAL, None),) if k == 1 else ((rest, Rule.CONTRACT, k - 1),)
    iv = intervals[idx]
    halves = (Interval(iv.start_col, p[1]), Interval(p[0], iv.end_row))
    return (
        (Coloring(state.params, before + halves + after), Rule.SPLIT, k),
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


@dataclass
class BranchRecord:
    """Rule steps of one finished branch, keyed by event point.

    steps maps every non-NoOp, non-terminal event to the tag and interval
    count of the successor the branch took there; terminal is the point
    whose contraction ended the branch.  Events after the terminal never
    interact with anything and are omitted.
    """

    steps: dict[Point, tuple[Rule, int]]
    terminal: Point


@dataclass
class Leaf:
    path: DyckPath
    value: Invariant


@dataclass
class SweepResult:
    params: KnotParams
    profile: str
    total: Invariant
    leaves: list[Leaf]


def reconstruct_path(record: BranchRecord, params: KnotParams) -> DyckPath:
    """The Dyck path bounding the region this branch's intervals swept.

    The Keep points are exactly the lattice points strictly between the
    path and the diagonal, which pins down the vertical step of every row;
    every other tag is then validated against the path's statistics:
    Split points must be its inner corners, Contract points the outer
    corners short of the most distant one, the terminal the most distant
    outer corner, and the pass tags the straight-through vertices.
    """
    m, n = params.m, params.n
    by_rule: dict[Rule, set[Point]] = {}
    for p, (tag, _) in record.steps.items():
        by_rule.setdefault(tag, set()).add(p)
    keeps = by_rule.get(Rule.KEEP, set())

    first_keep: dict[int, int] = {}
    for x, y in keeps:
        first_keep[y] = min(x, first_keep.get(y, x))
    columns: list[int] = []
    prev = 0
    for y in range(n):
        col = first_keep[y] - 1 if y in first_keep else (m * y) // n
        if col < prev:
            raise RuntimeError(f"keep set {sorted(keeps)} yields no monotone path")
        columns.append(col)
        prev = col
    path = DyckPath(params, tuple(columns))

    outer, inner = corners(path)
    top = most_distant(params, outer)
    vertical_pass, horizontal_pass = pass_through_points(path)
    expected = {
        Rule.KEEP: set(interior_points(path)),
        Rule.SPLIT: set(inner),
        Rule.CONTRACT: set(outer) - {top},
        Rule.START_PASS: set(vertical_pass),
        Rule.END_PASS: set(horizontal_pass),
    }
    for rule, points in expected.items():
        got = by_rule.get(rule, set())
        if got != points:
            raise RuntimeError(
                f"{rule.value} tags {sorted(got)} do not match the path "
                f"{path}: expected {sorted(points)}"
            )
    if record.terminal != top:
        raise RuntimeError(
            f"terminal {record.terminal} is not the most distant corner {top} of {path}"
        )
    weighted = tuple(
        p for p, (tag, _) in record.steps.items() if tag in (Rule.SPLIT, Rule.KEEP, Rule.CONTRACT)
    )
    for p, expected_k in zip(weighted, k_values(path, weighted)):
        tag, k = record.steps[p]
        if k != expected_k:
            raise RuntimeError(
                f"{tag.value} at {p} used k={k} but the path {path} has k={expected_k}"
            )
    return path


def evaluate_profiles(
    params: KnotParams, profiles: tuple[WeightProfile, ...]
) -> tuple[SweepResult, ...]:
    """Explore every branch of the sweep once, carrying one weight per profile.

    The rules are written once, in apply_rule: every event steps through
    it, the branch continues with the first successor, a second one (Keep)
    is pushed for later, and Terminal ends the branch.  The branch tree
    does not depend on the weights, so each leaf is reconstructed into its
    Dyck path and validated once; its record is then dropped, and every
    profile's leaf shares that path.  The leaf lists come back sorted by
    path (N before E), and the leaf count is checked against the rational
    Catalan number.  Each rule's weights are looked up once per interval
    count.  Every leaf numerator sits over its base's (1 - t) power, so
    each total is one sum of those numerators, normalized once; each leaf
    also keeps its own normalized value.
    """
    events = event_list(params)
    factors: dict[tuple[Rule, int], tuple[LaurentPoly, ...]] = {}

    def charge(weights: tuple[LaurentPoly, ...], rule: Rule, k: int) -> tuple[LaurentPoly, ...]:
        rule_factors = factors.get((rule, k))
        if rule_factors is None:
            rule_factors = factors[rule, k] = tuple(prof.weight(rule, k) for prof in profiles)
        return tuple(w * f for w, f in zip(weights, rule_factors))

    found: list[tuple[DyckPath, tuple[LaurentPoly, ...]]] = []
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
                found.append((reconstruct_path(BranchRecord(steps, p), params), weights))
                break
            for other, other_tag, other_k in successors[1:]:
                stack.append(
                    (i, other, charge(weights, other_tag, other_k), {**steps, p: (other_tag, other_k)})
                )
            steps[p] = (tag, k)
            weights = charge(weights, tag, k)
        else:
            raise RuntimeError("sweep exhausted its events with intervals still alive")

    found.sort(key=lambda leaf: leaf[0].columns)
    expected = rational_catalan(params)
    if len(found) != expected:
        raise RuntimeError(f"{len(found)} leaves, expected {expected}")
    if len({path for path, _ in found}) != len(found):
        raise RuntimeError("duplicate leaf paths")
    results = []
    for j, profile in enumerate(profiles):
        base = profile.base
        numerators = [weights[j] * base.num for _, weights in found]
        leaves = [
            Leaf(path, Invariant(num, base.dpow))
            for (path, _), num in zip(found, numerators)
        ]
        total = Invariant(poly_sum(numerators), base.dpow)
        results.append(SweepResult(params, profile.name, total, leaves))
    return tuple(results)


def evaluate(params: KnotParams, profile: WeightProfile) -> SweepResult:
    """The sweep of one profile: evaluate_profiles with that profile alone."""
    return evaluate_profiles(params, (profile,))[0]

