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
the weights, so it is walked once without them, and each profile weighs a
leaf from the (tag, k) values of its steps alone, kept factored as a key
and a monomial.  ordered_leaves weighs each leaf as its branch ends and
keeps only that weight, in one dict keyed by the path's columns, whose
sorted keys are enumeration order, so each consumer reads the leaves in
the order the closed form sums its paths.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, TypeVar

from .dyck import (
    DyckPath,
    KnotParams,
    Point,
    agreed,
    crossing_windows,
    distance,
    most_distant,
    rational_catalan,
    row_spans,
)
from .laurent import A, Invariant, LaurentPoly, Monomial, ONE, T, poly_sum, q_power, single_term


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


# The members under plain names, which the per-event code reads: a read of
# Rule.KEEP goes through the Enum class and costs several global reads.
CONTRACT, START_PASS, END_PASS, BRANCH, SPLIT, KEEP, NOOP, TERMINAL = Rule

# A branch's step at an event: the tag of the successor it took there and
# that successor's interval count.
Step = tuple[Rule, int]


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
    i = 0  # a plain counter: enumerate costs a quarter of this loop
    for a, b in state:
        if a <= x and b >= y:  # p lies neither left nor right of this interval
            if found is not None:
                raise UnsupportedConfiguration(
                    f"intervals {found[1]} and {i} both meet event {p}"
                )
            if a == x:
                found = (CONTRACT if b == y else START_PASS, i)
            else:
                found = (END_PASS if b == y else BRANCH, i)
        i += 1
    if found is None:
        return NOOP, None
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
    if rule is NOOP:
        return ((state, NOOP, None),)
    if idx is None:
        raise RuntimeError(f"rule {rule} fires at {p} on no interval")
    k = len(state)
    if rule is START_PASS or rule is END_PASS:
        return ((state, rule, k),)
    before, after = state[:idx], state[idx + 1 :]
    if rule is CONTRACT:
        rest = before + after
        return ((rest, TERMINAL, None),) if k == 1 else ((rest, CONTRACT, k - 1),)
    start, end = state[idx]
    return (
        (before + ((start, p[1]), (p[0], end)) + after, SPLIT, k),
        (state, KEEP, k),
    )


class WeightProfile(NamedTuple):
    """Per-rule weights accumulated along a branch, times a base value at
    the end.  Weight functions receive the interval count recorded in the
    successor: the count after removal for Contract, the unchanged count
    for the other rules."""

    name: str
    weights: Mapping[Rule, Callable[[int], LaurentPoly]]
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


class SweepResult(NamedTuple):
    params: KnotParams
    profile: str
    total: Invariant
    dpow: int  # the base's (1 - t) power, shared by every leaf
    leaves: list[Leaf]


def reconstruct_path(steps: Mapping[Point, Step], terminal: Point, params: KnotParams) -> DyckPath:
    """The Dyck path bounding the region one branch's intervals swept.

    steps maps every non-NoOp, non-terminal event of the branch to its
    step; terminal is the point whose contraction ended it.  Events after
    the terminal never interact with anything and are omitted.

    The Keep points are exactly the lattice points strictly between the
    path and the diagonal, and row y holds m*y//n - columns[y] of them (the
    per-row form of dyck.area), so the Keep count per row gives the columns.
    That path fixes the step at every event (fixed_steps), and steps must
    be that whole map, checked in one pass: each step is the one the path
    fixes at its point, and there are as many steps as points with one,
    area + inner + outer - 1 + passes, which is the Keep count plus the
    m + n - 2 vertices between the path's ends other than the terminal.
    The terminal must be the most distant outer corner.  Only a branch that
    fails is compared with expected_steps, to name the first point that
    differs.
    """
    m, n = params.m, params.n
    columns = [m * y // n for y in range(n)]
    keeps = 0
    for p, (tag, _) in steps.items():
        if tag is KEEP:
            if not 0 <= p[1] < n:
                raise RuntimeError(f"the Keep steps give no path: a Keep at {p} lies in no row")
            columns[p[1]] -= 1
            keeps += 1
    try:
        path = DyckPath(params, tuple(columns))
    except ValueError as exc:
        # a sweep fault, not a usage error
        raise RuntimeError(f"the Keep steps give no path: {exc}") from exc

    fixed, top = fixed_steps(path, steps)
    if len(steps) != keeps + m + n - 2 or fixed != steps:
        expected, _ = expected_steps(path)
        # the first point, in sorted order, whose step differs
        p = min(p for p in steps.keys() | expected.keys() if steps.get(p) != expected.get(p))
        raise RuntimeError(
            f"step {steps.get(p)} at {p} does not match the path {path}: expected {expected.get(p)}"
        )
    if terminal != top:
        raise RuntimeError(f"terminal {terminal} is not the most distant corner {top} of {path}")
    return path


def fixed_steps(path: DyckPath, points: Iterable[Point]) -> tuple[dict[Point, Step], Point]:
    """The step path fixes at each of points that has one, and the terminal
    it must end at, its most distant outer corner.

    The row spans give the tag: Contract at the outer corners but the
    terminal, StartPass at the vertical pass-through vertices, EndPass at
    the horizontal ones, Split at the inner corners and Keep at the points
    right of the path above the diagonal.  The crossing counts of the line
    through the point (dyck.crossing_windows) give k: Keep, Split and
    Contract take the agreed count (dyck.agreed), a StartPass the
    horizontal count and an EndPass the vertical one, as the pass vertex
    lies on a step of its own kind, which the open count windows leave out.
    """
    params = path.params
    m, n = params.m, params.n
    spans = row_spans(path)
    top = most_distant(params, tuple((lo, y) for y, (lo, hi) in enumerate(spans) if y and hi > lo))
    n_tops, n_window, e_tops, e_window = crossing_windows(path)
    fixed: dict[Point, Step] = {}
    for p in points:
        x, y = p
        if not 0 < y <= n:
            continue
        lo, hi = spans[y]
        dp = m * y - n * x
        if x > hi:
            tag = KEEP if dp > 0 else None
        elif x == lo:
            tag = START_PASS if hi == lo else CONTRACT if p != top else None
        elif x > lo:
            tag = END_PASS if x < hi else SPLIT if y < n else None
        else:
            tag = None
        if tag is None:
            continue
        vertical = (n_tops >> dp & n_window).bit_count()
        horizontal = (e_tops >> dp & e_window).bit_count()
        if tag is START_PASS:
            fixed[p] = (tag, horizontal)
        elif tag is END_PASS:
            fixed[p] = (tag, vertical)
        else:
            if horizontal != vertical:
                agreed(p, vertical, horizontal)  # the one agreement guard: raises
            fixed[p] = (tag, vertical)
    return fixed, top


def expected_steps(path: DyckPath) -> tuple[dict[Point, Step], Point]:
    """The step every event must have on path, and the terminal it must end
    at: fixed_steps at every point of every row from the path's vertex to
    the last point right of it not below the diagonal."""
    m, n = path.params.m, path.params.n
    points = [
        (x, y)
        for y, (lo, hi) in enumerate(row_spans(path))
        for x in range(lo, max(hi, m * y // n) + 1)
    ]
    return fixed_steps(path, points)


def branches(params: KnotParams) -> Iterator[tuple[dict[Point, Step], Point]]:
    """The one walk over the sweep's branch tree: (steps, terminal) for
    each branch, in the order the walk finishes it.

    Every event steps through apply_rule; the branch continues with the
    first successor, a second one (Keep) is pushed for later, and Terminal
    ends the branch.  steps is the branch's own {point: (tag, k)} dict,
    never touched again after the yield.  The walk carries no weights.
    """
    events = event_list(params)
    last = len(events)
    stack: list[tuple[int, Coloring, dict[Point, Step]]] = [(0, initial_coloring(params), {})]
    while stack:
        i, state, steps = stack.pop()
        while i < last:
            p = events[i]
            i += 1
            successors = apply_rule(state, p)
            state, tag, k = successors[0]
            if tag is NOOP:
                continue
            if tag is TERMINAL:
                yield steps, p
                break
            if len(successors) > 1:
                other, other_tag, other_k = successors[1]
                stack.append((i, other, {**steps, p: (other_tag, other_k)}))
            steps[p] = (tag, k)
        else:
            raise RuntimeError("sweep exhausted its events with intervals still alive")


# A leaf numerator, factored: the sorted steps whose weights have more than
# one term, whose product with the base numerator is looked up by that key,
# and the product of the other weights, one term.
Factored = tuple[tuple[Step, ...], Monomial]


def leaf_factors(
    profile: WeightProfile,
) -> tuple[Callable[[Iterable[Step]], Factored], Callable[[tuple[Step, ...]], LaurentPoly]]:
    """(factor, product): factor takes a branch's steps to its factored leaf
    numerator in profile, and product takes a key to the base numerator
    times the key's weights, so that a leaf numerator is
    product(key).times_monomial(*monomial).

    A weight with one term only scales and shifts: its coefficients multiply
    and its exponents add.  Each step's one term (None where it has more) is
    looked up once, and each key's product is multiplied out once, from the
    weights of its steps, both kept for the functions' lifetime, one knot's
    evaluation.
    """
    monomials: dict[Step, Monomial | None] = {}
    keys: dict[tuple[Step, ...], tuple[Step, ...]] = {}
    products: dict[tuple[Step, ...], LaurentPoly] = {}

    def factor(steps: Iterable[Step]) -> Factored:
        coeff, ea, q2, t2 = 1, 0, 0, 0
        others = []
        for step in steps:
            try:
                term = monomials[step]
            except KeyError:
                term = monomials[step] = single_term(profile.weight(*step))
            if term is None:
                others.append(step)
            else:
                c, a, q, t = term
                coeff *= c
                ea += a
                q2 += q
                t2 += t
        others.sort()
        key = tuple(others)
        # one object per distinct key: a leaf ordered_leaves holds until the
        # walk ends keeps neither its own key tuple nor that key's step tuples
        return keys.setdefault(key, key), (coeff, ea, q2, t2)

    def product(key: tuple[Step, ...]) -> LaurentPoly:
        poly = products.get(key)
        if poly is None:
            poly = profile.base.num
            for step in key:
                poly = poly * profile.weight(*step)
            products[key] = poly
        return poly

    return factor, product


# what a consumer of ordered_leaves weighs each leaf to
W = TypeVar("W")


def ordered_leaves(params: KnotParams, weigh: Callable[[DyckPath, Iterable[Step]], W]) -> list[W]:
    """weigh(path, steps) for each branch of the one walk, in enumeration
    order: each branch is reconstructed into its checked path and weighed
    from its (tag, k) steps as it ends, and its step map is then dropped.
    One dict from each path's columns to its weight holds the leaves, and
    sorted columns are enumeration order.

    The leaf-set guard: a path reached twice raises at once, before any
    later branch is read, and too few leaves raise when the walk ends.  So
    the leaves are one on each path.
    """
    count = rational_catalan(params)
    leaves: dict[tuple[int, ...], W] = {}
    for steps, terminal in branches(params):
        path = reconstruct_path(steps, terminal, params)
        if path.columns in leaves:
            raise RuntimeError(f"{len(leaves) + 1} leaves, not one on each of the {count} paths")
        leaves[path.columns] = weigh(path, steps.values())
    if len(leaves) != count:
        raise RuntimeError(f"{len(leaves)} leaves, not one on each of the {count} paths")
    return [leaves[columns] for columns in sorted(leaves)]


def evaluate(params: KnotParams, profile: WeightProfile) -> SweepResult:
    """The sweep of one profile, held: every leaf and the total.

    Each leaf of ordered_leaves, in enumeration order, one on each path, is
    its path and its numerator, weighed from its steps by leaf_factors and
    expanded.  Each leaf numerator sits over the base's (1 - t) power,
    stored once as dpow, so the total is one sum of numerators, normalized
    once.
    """
    factor, product = leaf_factors(profile)

    def weigh(path: DyckPath, steps: Iterable[Step]) -> Leaf:
        key, monomial = factor(steps)
        return Leaf(path, product(key).times_monomial(*monomial))

    leaves = ordered_leaves(params, weigh)
    dpow = profile.base.dpow
    total = Invariant(poly_sum([leaf.num for leaf in leaves]), dpow)
    return SweepResult(params, profile.name, total, dpow, leaves)
