"""(m, n) Dyck paths and the statistics attached to them.

An (m, n)-Dyck path runs from (0, 0) to (m, n) in unit steps E = (1, 0) and
N = (0, 1) and stays weakly above the diagonal m*y = n*x.  Only coprime
(m, n) are accepted: the closure of the corresponding torus braid is then a
knot, and no lattice point other than the two endpoints lies on the
diagonal, which removes every tie from the geometry below.

All comparisons against the diagonal are integer comparisons of the scaled
signed distance d(x, y) = m*y - n*x; no rational or floating arithmetic is
used anywhere.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Iterator

from .values import FrozenRecord

Point = tuple[int, int]


class LinksUnsupported(ValueError):
    """Parameters with gcd(m, n) > 1 describe a torus link, not a knot."""


class KnotParams(FrozenRecord):
    """Torus-knot parameters: m horizontal units, n vertical units."""

    __slots__ = _fields = ("m", "n")
    m: int
    n: int

    def __init__(self, m: int, n: int) -> None:
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ValueError(f"both parameters must be positive, got ({self.m}, {self.n})")
        g = math.gcd(self.m, self.n)
        if g != 1:
            raise LinksUnsupported(
                f"({self.m}, {self.n}) has gcd {g}: this is a torus link with "
                f"{g} components, and only knots (gcd 1) are supported"
            )

    def swapped(self) -> "KnotParams":
        return KnotParams(self.n, self.m)


def distance(params: KnotParams, p: Point) -> int:
    """Scaled signed distance m*y - n*x of a lattice point from the diagonal."""
    return params.m * p[1] - params.n * p[0]


def rational_catalan(params: KnotParams) -> int:
    """C(m+n, n) / (m+n), the number of (m, n)-Dyck paths."""
    total = math.comb(params.m + params.n, params.n)
    if total % (params.m + params.n) != 0:
        raise ValueError(f"C(m+n, n) is not divisible by m+n for ({params.m}, {params.n})")
    return total // (params.m + params.n)


def iter_coprime_pairs(max_sum: int) -> Iterator[KnotParams]:
    """Every coprime (m, n) with m, n >= 1 and m + n <= max_sum, both
    orders, by m + n and then m, built one at a time."""
    for s in range(2, max_sum + 1):
        for m in range(1, s):
            if math.gcd(m, s - m) == 1:
                yield KnotParams(m, s - m)


def coprime_pairs(max_sum: int) -> list[KnotParams]:
    """iter_coprime_pairs(max_sum) as a list."""
    return list(iter_coprime_pairs(max_sum))


class DyckPath(FrozenRecord):
    """A single (m, n)-Dyck path, stored as its row columns: columns[y] is
    the x-coordinate of the N step in row y = 0 .. n-1.  str(path) is its
    N/E word, and tuple order on columns is the word order with N < E."""

    __slots__ = _fields = ("params", "columns")
    params: KnotParams
    columns: tuple[int, ...]

    def __init__(self, params: KnotParams, columns: tuple[int, ...]) -> None:
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "columns", columns)
        self.__post_init__()

    def __post_init__(self) -> None:
        m, n = self.params.m, self.params.n
        if len(self.columns) != n:
            raise ValueError(f"expected {n} rows, got {len(self.columns)}")
        prev = 0
        for y, x in enumerate(self.columns):
            if x < prev:
                raise ValueError(f"columns {self.columns} decrease at row {y}")
            # with y < n this also keeps x below m
            if n * x > m * y:
                raise ValueError(f"path {self} dips below the diagonal")
            prev = x

    @classmethod
    def from_string(cls, params: KnotParams, word: str) -> "DyckPath":
        """The path whose N/E word is word."""
        columns = []
        x = 0
        for s in word:
            if s == "E":
                x += 1
            elif s == "N":
                columns.append(x)
            else:
                raise ValueError(f"invalid step {s!r}")
        if x != params.m:
            raise ValueError(f"path {word} has {x} E steps, expected {params.m}")
        return cls(params, tuple(columns))

    def __str__(self) -> str:
        # the runs of E steps between the N steps, row by row
        cols = self.columns
        return "N".join(["E" * (x - prev) for prev, x in zip((0, *cols), (*cols, self.params.m))])


@lru_cache(maxsize=8)
def enumerate_paths(params: KnotParams) -> tuple[DyckPath, ...]:
    """All (m, n)-Dyck paths, ordered by columns (the N < E word order).

    Row y's N step can sit at any x from row y-1's column up to the last
    one not below the diagonal, floor(m*y/n); row 0's is at x = 0.
    The closed form walks the rows itself (formula.records), so the callers
    here work one knot at a time and the cache keeps only a few knots.
    """
    m, n = params.m, params.n
    prefixes: list[tuple[int, ...]] = [(0,)]
    for y in range(1, n):
        top = m * y // n
        prefixes = [(*cols, x) for cols in prefixes for x in range(cols[-1], top + 1)]
    return tuple(DyckPath(params, cols) for cols in prefixes)


def area(path: DyckPath) -> int:
    """Unit cells whose interior lies fully between the path and the diagonal.

    The cell [x, x+1] x [y, y+1] qualifies iff it sits right of the path's
    vertical step in row y and its bottom-right corner is not below the
    diagonal, i.e. columns[y] <= x <= floor(m*y/n) - 1; the path's vertex
    (columns[y], y) is not below the diagonal, so every row count is >= 0.
    """
    m, n = path.params.m, path.params.n
    return sum(m * y // n - x for y, x in enumerate(path.columns))


def interior_points(path: DyckPath) -> tuple[Point, ...]:
    """Lattice points strictly between the path and the diagonal; there
    are area(path) of them, which is checked."""
    m, n = path.params.m, path.params.n
    out: list[Point] = []
    for y, hi in enumerate((*path.columns, m)):
        x = hi + 1
        while n * x < m * y:
            out.append((x, y))
            x += 1
    cells = area(path)
    if cells != len(out):
        raise ValueError(f"area {cells} differs from {len(out)} interior points")
    return tuple(out)


def hplus(path: DyckPath) -> int:
    """Pairs (E step, later N step) pierced by a common diagonal-parallel line.

    The scaled offsets swept by an E step starting at d = D are [D - n, D],
    by an N step starting at d = D are [D, D + m]; the closed intervals meet
    iff DN <= DE and DE - n <= DN + m.  For coprime (m, n) neither comparison
    can be an equality, which is checked.
    """
    m, n = path.params.m, path.params.n
    # bit d of e_seen is set for each E step so far that starts at offset d;
    # every vertex has d >= 0, so each shift below is nonnegative
    window = (1 << (m + n - 1)) - 1  # offsets DN + 1 .. DN + m + n - 1
    count = 0
    e_seen = 0
    prev = 0
    for y, x in enumerate(path.columns):
        for e in range(prev, x):
            e_seen |= 1 << (m * y - n * e)
        d = m * y - n * x
        if (e_seen >> d) & 1 or (e_seen >> (d + m + n)) & 1:
            raise RuntimeError("degenerate offset-interval contact")
        count += ((e_seen >> (d + 1)) & window).bit_count()
        prev = x
    return count


def opairs(path: DyckPath) -> int:
    """Number of (E step, later N step) pairs, with no line condition: row
    y's N step follows columns[y] E steps."""
    return sum(path.columns)


def corners(path: DyckPath) -> tuple[tuple[Point, ...], tuple[Point, ...]]:
    """(outer, inner) turning vertices: N-then-E and E-then-N, endpoints excluded.

    Row y's N step ends in an outer corner iff the next row's N step (or
    the endpoint, at the top) lies further right, and starts at an inner
    corner iff it lies right of row y-1's.  The first step is always N and
    the last always E, so the endpoints are never counted.
    """
    cols = path.columns
    outer = tuple(
        (x, y + 1) for y, (x, nxt) in enumerate(zip(cols, (*cols[1:], path.params.m))) if nxt > x
    )
    inner = tuple((x, y) for y, (prev, x) in enumerate(zip(cols, cols[1:]), 1) if x > prev)
    return outer, inner


def pass_through_points(path: DyckPath) -> tuple[tuple[Point, ...], tuple[Point, ...]]:
    """(vertical, horizontal) pass-through vertices: N-then-N and E-then-E.

    Row y's N step continues row y-1's where the two columns agree, and the
    E steps at height y, from x = lo to hi, pass through lo+1 .. hi-1.
    """
    cols = path.columns
    vertical = tuple((x, y) for y, (prev, x) in enumerate(zip(cols, cols[1:]), 1) if x == prev)
    horizontal = tuple(
        (x, y)
        for y, (lo, hi) in enumerate(zip((0, *cols), (*cols, path.params.m)))
        for x in range(lo + 1, hi)
    )
    return vertical, horizontal


def most_distant(params: KnotParams, outer: tuple[Point, ...]) -> Point:
    """The corner of outer farthest from the diagonal; any two corners
    at equal distance raise."""
    m, n = params.m, params.n
    dists = [m * y - n * x for x, y in outer]
    if len(set(dists)) != len(dists):
        raise RuntimeError(f"corner distances collide: {dists}")
    return outer[dists.index(max(dists))]


def vstar(path: DyckPath) -> tuple[Point, ...]:
    """Outer corners with the most distant one removed."""
    outer, _ = corners(path)
    top = most_distant(path.params, outer)
    return tuple(v for v in outer if v != top)


@lru_cache(maxsize=8)
def e_strides(m: int, n: int) -> tuple[int, ...]:
    """e_strides(m, n)[j]: the top offsets n, 2n, .., jn of j E steps
    ending at offset 0, as a bit set, for j = 0 .. m."""
    strides = [0]
    for j in range(1, m + 1):
        strides.append(strides[-1] | 1 << (n * j))
    return tuple(strides)


def row_spans(path: DyckPath) -> tuple[tuple[int, int], ...]:
    """(lo, hi) for each row y = 0 .. n: the path runs along row y from
    (lo, y) to (hi, y), then up from (hi, y) unless y = n."""
    cols = path.columns
    return tuple(zip((0, *cols), (*cols, path.params.m)))


def count_windows(m: int, n: int) -> tuple[int, int]:
    """(n_window, e_window), the one statement of the crossing-count
    windows: a step sweeps the offsets between its two ends, so the line at
    scaled offset dp crosses its interior iff dp < top < dp + length, with
    top the larger end offset and length m for an N step, n for an E step.
    So for a bit set tops of top offsets, (tops >> dp & window).bit_count()
    counts the steps of that kind the line crosses, the window being bits
    1 .. length - 1."""
    return ((1 << (m - 1)) - 1) << 1, ((1 << (n - 1)) - 1) << 1


def crossing_windows(path: DyckPath) -> tuple[int, int, int, int]:
    """(n_tops, n_window, e_tops, e_window), from one walk over the path:
    the top offsets of its N and E steps as bit sets, and count_windows, so
    that the line at scaled offset dp crosses
    (n_tops >> dp & n_window).bit_count() of its N steps and
    (e_tops >> dp & e_window).bit_count() of its E steps, counting only
    crossings interior to a step.
    """
    m, n = path.params.m, path.params.n
    # row y's E steps end at (hi, y), at offset d = m*y - n*hi, and top out
    # at d + n, .., d + n*(hi - lo); its N step from (hi, y) tops out at
    # d + m.  Every vertex has d >= 0, so every shift is nonnegative.
    strides = e_strides(m, n)
    n_tops = e_tops = 0
    lo = my = 0
    for hi in path.columns:
        d = my - n * hi
        e_tops |= strides[hi - lo] << d
        n_tops |= 1 << (d + m)
        lo = hi
        my += m
    # row n, whose E steps end at (m, n), at offset 0
    e_tops |= strides[m - lo]
    n_window, e_window = count_windows(m, n)
    return n_tops, n_window, e_tops, e_window


def crossings(path: DyckPath, points: Iterable[Point]) -> Iterator[tuple[int, int]]:
    """(vertical, horizontal) crossing counts at each of points
    (crossing_windows), yielded one point at a time.  Each point must lie on
    the path or strictly below it, which is checked just before its counts
    are yielded."""
    m, n = path.params.m, path.params.n
    spans = row_spans(path)
    n_tops, n_window, e_tops, e_window = crossing_windows(path)
    for p in points:
        x, y = p
        dp = m * y - n * x
        # on the path, or right of it at p's height and above the diagonal
        if not (0 <= y <= n and spans[y][0] <= x and (x <= spans[y][1] or dp > 0)):
            raise ValueError(f"point {p} is neither on the path nor strictly below it")
        yield (n_tops >> dp & n_window).bit_count(), (e_tops >> dp & e_window).bit_count()


def agreed(p: Point, vertical: int, horizontal: int) -> int:
    """k at p: its two crossing counts, which must agree."""
    if vertical != horizontal:
        raise ValueError(
            f"crossing counts at {p} disagree ({vertical} vertical, {horizontal} "
            "horizontal): the point must be an interior point or a corner"
        )
    return vertical


def k_values(path: DyckPath, points: tuple[Point, ...]) -> tuple[int, ...]:
    """k_of at each of points, from one walk over the path; each point's
    counts are checked, and must agree, before the next point's."""
    return tuple(agreed(p, *counts) for p, counts in zip(points, crossings(path, points)))


def k_totals(path: DyckPath) -> tuple[int, int]:
    """(sum of k_of over the interior points, sum over the inner corners),
    counted per N step instead of per point.

    The line at offset dp crosses row y's N step, which runs from offset
    d = m*y - n*columns[y] up to d + m, iff d < dp < d + m.  So each sum
    counts, over the N steps, the set's offsets strictly inside that
    range, the N window of count_windows read from d up; the set is a bit
    set, as no two lattice points in range share an offset.
    """
    m, n = path.params.m, path.params.n
    strides = e_strides(m, n)
    interior = inner = 0
    prev = 0
    for y, x in enumerate(path.columns):
        # row y's interior points run from (x + 1, y) to (top, y), at offsets
        # r, r + n, .., with r = m*y - n*top >= 0 the last one's
        top = m * y // n
        interior |= strides[top - x] << (m * y - n * top) >> n
        if x > prev:
            inner |= 1 << (m * y - n * x)
        prev = x
    window, _ = count_windows(m, n)
    k_interior = k_inner = 0
    for y, x in enumerate(path.columns):
        d = m * y - n * x
        k_interior += (interior >> d & window).bit_count()
        k_inner += (inner >> d & window).bit_count()
    return k_interior, k_inner


def k_of(path: DyckPath, p: Point) -> int:
    """Number of path steps of either kind crossed by the diagonal-parallel
    line through p, counting only crossings interior to a step.

    Defined for p strictly between the path and the diagonal or at a corner
    vertex of the path; there the vertical and horizontal counts agree (the
    line enters and leaves the region below the path equally often), and the
    agreement is checked.  At a pass-through vertex the two counts differ by
    one and the call is rejected.
    """
    return k_values(path, (p,))[0]


def stats_json(path: DyckPath) -> dict:
    """Every statistic of path, as one `paths --with-stats` row; kvals
    covers the corners and the interior points."""
    outer, inner = corners(path)
    if len(outer) != len(inner) + 1:
        raise ValueError(
            f"{len(outer)} outer corners need {len(outer) - 1} inner ones, got {len(inner)}"
        )
    top = most_distant(path.params, outer)
    interior = interior_points(path)
    points = (*outer, *inner, *interior)
    kvals = dict(zip(points, k_values(path, points)))
    return {
        "path": str(path),
        "area": len(interior),  # interior_points checks this count against area
        "hplus": hplus(path),
        "outer": [list(p) for p in outer],
        "inner": [list(p) for p in inner],
        "vstar": [list(p) for p in outer if p != top],
        "interior": [list(p) for p in interior],
        "opairs": opairs(path),
        "kvals": {f"{x},{y}": k for (x, y), k in sorted(kvals.items())},
    }
