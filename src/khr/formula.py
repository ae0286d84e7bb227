"""Closed-form evaluation: one weighted summand per Dyck path.

Each path contributes t^area q^(hplus - genus - sum k) prod (q^k - a), the
product running over its trimmed outer corners.  Their sum over (1 - t) is
the unnormalized series, matched leaf-by-leaf against the sweep evaluation;
the normalized superpolynomial is that series times the single monomial
a^genus q^(genus/2) t^(-genus/2).
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Iterable, Iterator

from .dyck import DyckPath, KnotParams, area, count_windows, e_strides, hplus, k_values, vstar
from .laurent import A, Invariant, LaurentPoly, Monomial, q_power

# (area, hplus, k over the trimmed outer corners in ascending order): all a
# path's summand depends on
PathRecord = tuple[int, int, tuple[int, ...]]


def genus(params: KnotParams) -> int:
    """(m-1)(n-1)/2: the Seifert genus of the (m, n) torus knot, and the
    exponent of the normalization monomial."""
    product = (params.m - 1) * (params.n - 1)
    if product % 2 != 0:
        raise ValueError(f"(m-1)(n-1) = {product} is odd for ({params.m}, {params.n})")
    return product // 2


def normalization(params: KnotParams) -> LaurentPoly:
    """a^genus q^(genus/2) t^(-genus/2): the unnormalized series times this
    is the superpolynomial."""
    g = genus(params)
    return LaurentPoly.monomial(1, ea=g, q2=g, t2=-g)


def path_record(path: DyckPath) -> PathRecord:
    """The statistics a path's summand is built from: the per-path
    reference that records() is tested against."""
    return area(path), hplus(path), tuple(sorted(k_values(path, vstar(path))))


def records(params: KnotParams) -> Iterator[PathRecord]:
    """path_record of every path of params, in enumeration order, from one
    depth-first walk over rows that builds no DyckPath.

    A stack entry is a prefix of rows 0 .. y: its last column x, its area,
    its hplus, the top offsets of its E and N steps as bit sets (as in
    dyck.hplus and dyck.k_values), the offsets of its outer corners so far,
    those corners, and their offsets as a bit set.  Expanding a prefix steps
    each child row y+1 at column nx, high nx first, so that prefixes pop in
    enumeration order.  The row's E steps from x to nx top out at d + n,
    d + 2n, .., d + n(nx - x), with d = m*(y+1) - n*nx, and row y's N step
    ends in an outer corner iff nx > x.  The walk starts from an empty
    prefix at row -1, whose one child is row 0's N step from the origin.

    The children of a prefix of rows 0 .. n-2 are whole paths: the same row
    step lists them, high nx first, instead of pushing them, and each is
    then completed, low nx first, by the final row's E steps and the last
    corner (nx, n), so every child's contact guard runs before any leaf's
    corner or crossing guard.  The guards are those of dyck.hplus,
    dyck.most_distant and dyck.k_values, with their messages.
    """
    m, n = params.m, params.n
    last = n - 1
    stride = e_strides(m, n)
    window = (1 << (m + n - 1)) - 1
    contact = 1 | 1 << (m + n)
    n_window, e_window = count_windows(m, n)
    mn = m * n
    stack = [(-1, 0, 0, 0, 0, 0, (), (), 0)]
    pop, push = stack.pop, stack.append
    while stack:
        y, x, area_, hplus_, e_tops, n_tops, outer, points, corner_bits = pop()
        y += 1
        my = m * y
        top = my // n
        corner = my - n * x
        last_row = y == last
        ends = []
        for nx in range(top, x - 1, -1):
            d = my - n * nx
            e = e_tops | stride[nx - x] << d
            s = e >> d
            if s & contact:
                raise RuntimeError("degenerate offset-interval contact")
            h = hplus_ + ((s >> 1) & window).bit_count()
            n_t = n_tops | 1 << (d + m)
            if last_row:
                ends.append((nx, e, n_t, h))
            elif nx > x:
                push((y, nx, area_ + top - nx, h, e, n_t, outer + (corner,),
                      points + ((x, y),), corner_bits | 1 << corner))
            else:
                push((y, nx, area_ + top - nx, h, e, n_t, outer, points, corner_bits))
        if not last_row:
            continue
        area_ += top
        with_corner = outer + (corner,)
        with_corner_bits = corner_bits | 1 << corner
        for nx, e, n_t, h in reversed(ends):
            o, o_bits = (with_corner, with_corner_bits) if nx > x else (outer, corner_bits)
            final = mn - n * nx
            o += (final,)
            # corners at equal offsets share a bit
            if (o_bits | 1 << final).bit_count() != len(o):
                raise RuntimeError(f"corner distances collide: {list(o)}")
            e |= stride[m - nx]
            highest = max(o)
            ks = []
            for dp in o:
                if dp == highest:
                    continue
                vertical = (n_t >> dp & n_window).bit_count()
                horizontal = (e >> dp & e_window).bit_count()
                if vertical != horizontal:
                    corners = (*points, (x, y), (nx, n)) if nx > x else (*points, (nx, n))
                    raise ValueError(
                        f"crossing counts at {corners[o.index(dp)]} disagree ({vertical} "
                        f"vertical, {horizontal} horizontal): the point must be an interior "
                        "point or a corner"
                    )
                ks.append(vertical)
            ks.sort()
            yield area_ - nx, h, tuple(ks)


@lru_cache(maxsize=8)
def path_data(params: KnotParams) -> tuple[PathRecord, ...]:
    """records(params) as a tuple, aligned with enumerate_paths(params)."""
    return tuple(records(params))


def _term(record: PathRecord, g: int) -> LaurentPoly:
    """t^area q^(hplus - g - sum k) prod (q^k - a), multiplied out in plain
    LaurentPoly arithmetic: the per-path reference for _assemble."""
    area_, hplus_, ks = record
    term = LaurentPoly.monomial(1, q2=2 * (hplus_ - g - sum(ks)), t2=2 * area_)
    for k in ks:
        term = term * (q_power(k) - A)
    return term


def path_summand(path: DyckPath) -> LaurentPoly:
    """t^area q^hplus prod over trimmed outer corners of (1 - a q^(-k)),
    which is q^genus times hhh_path_term(path)."""
    return _term(path_record(path), 0)


def hhh_path_term(path: DyckPath) -> LaurentPoly:
    """The summand with the q-shift distributed:
    t^area q^(hplus - genus - sum k) prod (q^k - a)."""
    return _term(path_record(path), genus(path.params))


def _assemble(records: Iterable[PathRecord], g: int) -> LaurentPoly:
    """Sum of the summands of records, by Horner's rule over shared k-prefixes.

    Equal records are counted once with their multiplicity.  Each k tuple
    (ascending) starts with the terms t^area q^(hplus - g - sum k) of its
    records.  Taken from the longest tuple to the shortest, each tuple's
    terms are multiplied by (q^k - a) for its last, largest k and added into
    its prefix's, so the corner factors of a shared prefix are multiplied
    out once; the empty tuple's terms are then the sum.
    """
    by_ks: dict[tuple[int, ...], dict[tuple[int, int, int], int]] = {}
    for record, count in Counter(records).items():
        ks, (_, ea, q2, t2) = term_factors(record, g)
        terms = by_ks.get(ks)
        if terms is None:
            terms = by_ks[ks] = {}
            # every prefix of ks gets its entry before the pass below
            for i in range(len(ks)):
                by_ks.setdefault(ks[:i], {})
        terms[ea, q2, t2] = count
    for ks in sorted(by_ks, key=len, reverse=True):
        if not ks:
            break
        terms = by_ks.pop(ks)
        out = by_ks[ks[:-1]]
        get = out.get
        q2k = 2 * ks[-1]
        for (ea, q2, t2), c in terms.items():
            key = (ea, q2 + q2k, t2)
            out[key] = get(key, 0) + c
            key = (ea + 1, q2, t2)
            out[key] = get(key, 0) - c
    return LaurentPoly(by_ks.get((), {}))


def term_factors(record: PathRecord, g: int) -> tuple[tuple[int, ...], Monomial]:
    """A path's summand t^area q^(hplus - g - sum k) prod (q^k - a),
    factored: its k tuple and its monomial as (coefficient, ea, q2, t2)."""
    area_, hplus_, ks = record
    return ks, (1, 0, 2 * (hplus_ - g - sum(ks)), 2 * area_)


def corner_product(ks: tuple[int, ...]) -> LaurentPoly:
    """prod (q^k - a) over ks, expanded by _assemble."""
    # the record (0, sum ks, ks) at genus 0 stands for the product alone
    return _assemble(((0, sum(ks), ks),), 0)


@lru_cache(maxsize=32)
def hhh_direct(params: KnotParams) -> Invariant:
    """The unnormalized series: sum of the summands over (1 - t).

    The walk's records go straight into _assemble's Counter, so only the
    distinct records are held.
    """
    return Invariant(_assemble(records(params), genus(params)), 1)


def superpolynomial(params: KnotParams) -> Invariant:
    """The normalized invariant, (a (qt)^(-1/2))^genus / (1-t) times the sum
    of t^area q^hplus prod (1 - a q^(-k)): the unnormalized series times
    the normalization monomial."""
    return hhh_direct(params) * normalization(params)


def euler_characteristic(v: Invariant) -> Invariant:
    """Graded Euler characteristic: (qt)^(1/2) -> -(qt)^(1/2) on the numerator."""
    return Invariant(v.num.euler_sign(), v.dpow)
