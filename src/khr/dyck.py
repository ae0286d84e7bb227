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
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterator

Point = tuple[int, int]


class LinksUnsupported(ValueError):
    """Parameters with gcd(m, n) > 1 describe a torus link, not a knot."""


@dataclass(frozen=True)
class KnotParams:
    """Torus-knot parameters: m horizontal units, n vertical units."""

    m: int
    n: int

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


@dataclass(frozen=True)
class DyckPath:
    """A single (m, n)-Dyck path, stored as its N/E step sequence."""

    params: KnotParams
    steps: tuple[str, ...]

    def __post_init__(self) -> None:
        m, n = self.params.m, self.params.n
        if len(self.steps) != m + n:
            raise ValueError(f"expected {m + n} steps, got {len(self.steps)}")
        x = y = 0
        for s in self.steps:
            if s == "E":
                x += 1
            elif s == "N":
                y += 1
            else:
                raise ValueError(f"invalid step {s!r}")
            if m * y < n * x:
                raise ValueError(f"path {''.join(self.steps)} dips below the diagonal")
        if x != m or y != n:
            raise ValueError(f"path has {x} E and {y} N steps, expected {m} and {n}")

    @classmethod
    def from_string(cls, params: KnotParams, word: str) -> "DyckPath":
        return cls(params, tuple(word))

    def __str__(self) -> str:
        return "".join(self.steps)

    @property
    def sort_key(self) -> tuple[int, ...]:
        # lexicographic with N < E
        return tuple(0 if s == "N" else 1 for s in self.steps)

    @cached_property
    def vertices(self) -> tuple[Point, ...]:
        pts = [(0, 0)]
        x = y = 0
        for s in self.steps:
            if s == "E":
                x += 1
            else:
                y += 1
            pts.append((x, y))
        return tuple(pts)

    @cached_property
    def columns(self) -> tuple[int, ...]:
        """x-coordinate of the vertical step in each row y = 0 .. n-1."""
        cols = []
        x = 0
        for s in self.steps:
            if s == "E":
                x += 1
            else:
                cols.append(x)
        return tuple(cols)

    def row_span(self, y: int) -> tuple[int, int]:
        """Horizontal extent [lo, hi] of the path at height y."""
        lo = self.columns[y - 1] if y >= 1 else 0
        hi = self.columns[y] if y < self.params.n else self.params.m
        return lo, hi

    def is_on(self, p: Point) -> bool:
        x, y = p
        if not (0 <= y <= self.params.n):
            return False
        lo, hi = self.row_span(y)
        return lo <= x <= hi

    def is_strictly_below(self, p: Point) -> bool:
        """Strictly to the right of the path at p's height (the path side of the diagonal)."""
        x, y = p
        return 0 <= y <= self.params.n and x > self.row_span(y)[1]


@lru_cache(maxsize=64)
def enumerate_paths(params: KnotParams) -> tuple[DyckPath, ...]:
    """All (m, n)-Dyck paths, lexicographically ordered with N < E."""
    m, n = params.m, params.n
    out: list[DyckPath] = []
    prefix: list[str] = []

    def extend(x: int, y: int) -> None:
        if x == m and y == n:
            out.append(DyckPath(params, tuple(prefix)))
            return
        if y < n:  # an N step can never dip below the diagonal
            prefix.append("N")
            extend(x, y + 1)
            prefix.pop()
        if x < m and m * y >= n * (x + 1):
            prefix.append("E")
            extend(x + 1, y)
            prefix.pop()

    extend(0, 0)
    return tuple(out)


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
    """Lattice points strictly between the path and the diagonal."""
    m, n = path.params.m, path.params.n
    out: list[Point] = []
    for y in range(n + 1):
        x = path.row_span(y)[1] + 1
        while n * x < m * y:
            out.append((x, y))
            x += 1
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
    d = 0
    for s in path.steps:
        if s == "N":
            if (e_seen >> d) & 1 or (e_seen >> (d + m + n)) & 1:
                raise RuntimeError("degenerate offset-interval contact")
            count += ((e_seen >> (d + 1)) & window).bit_count()
            d += m
        else:
            e_seen |= 1 << d
            d -= n
    return count


def opairs(path: DyckPath) -> int:
    """Number of (E step, later N step) pairs, with no line condition."""
    count = 0
    es_so_far = 0
    for s in path.steps:
        if s == "E":
            es_so_far += 1
        else:
            count += es_so_far
    return count


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
    """(vertical, horizontal) pass-through vertices: N-then-N and E-then-E."""
    vertical: list[Point] = []
    horizontal: list[Point] = []
    for i in range(1, len(path.steps)):
        prev, nxt = path.steps[i - 1], path.steps[i]
        if prev == "N" and nxt == "N":
            vertical.append(path.vertices[i])
        elif prev == "E" and nxt == "E":
            horizontal.append(path.vertices[i])
    return tuple(vertical), tuple(horizontal)


def most_distant(params: KnotParams, outer: tuple[Point, ...]) -> Point:
    """The corner of outer farthest from the diagonal; any two corners
    at equal distance raise."""
    dists = [distance(params, v) for v in outer]
    if len(set(dists)) != len(dists):
        raise RuntimeError(f"corner distances collide: {dists}")
    return outer[dists.index(max(dists))]


def vstar(path: DyckPath) -> tuple[Point, ...]:
    """Outer corners with the most distant one removed."""
    outer, _ = corners(path)
    top = most_distant(path.params, outer)
    return tuple(v for v in outer if v != top)


def k_values(path: DyckPath, points: tuple[Point, ...]) -> tuple[int, ...]:
    """k_of at each of points, from one walk over the path.

    A step sweeps the offsets between its two ends, so the line at offset
    dp crosses its interior iff dp < top < dp + length, with top the larger
    end offset and length m for an N step, n for an E step.  The walk
    records the top offsets of each kind as bit sets, and each count is the
    number of bits in that window.
    """
    params = path.params
    m, n = params.m, params.n
    offsets = []
    for p in points:
        dp = distance(params, p)
        if not (path.is_on(p) or (dp > 0 and path.is_strictly_below(p))):
            raise ValueError(f"point {p} is neither on the path nor strictly below it")
        offsets.append(dp)
    n_tops = e_tops = 0
    d = 0  # every vertex has d >= 0, so every shift is nonnegative
    for s in path.steps:
        if s == "N":
            d += m
            n_tops |= 1 << d
        else:
            e_tops |= 1 << d
            d -= n
    n_window = (1 << (m - 1)) - 1
    e_window = (1 << (n - 1)) - 1
    out = []
    for p, dp in zip(points, offsets):
        vertical = ((n_tops >> (dp + 1)) & n_window).bit_count()
        horizontal = ((e_tops >> (dp + 1)) & e_window).bit_count()
        if vertical != horizontal:
            raise ValueError(
                f"crossing counts at {p} disagree ({vertical} vertical, {horizontal} "
                "horizontal): the point must be an interior point or a corner"
            )
        out.append(vertical)
    return tuple(out)


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


@dataclass(frozen=True)
class PathStats:
    """Full statistic bundle of one path."""

    area: int
    hplus: int
    outer: tuple[Point, ...]
    inner: tuple[Point, ...]
    vstar: tuple[Point, ...]
    interior: tuple[Point, ...]
    opairs: int
    kvals: dict[Point, int] = field(compare=False)

    def __post_init__(self) -> None:
        if len(self.outer) != len(self.inner) + 1:
            raise ValueError(
                f"{len(self.outer)} outer corners need {len(self.outer) - 1} inner ones, "
                f"got {len(self.inner)}"
            )
        if self.area != len(self.interior):
            raise ValueError(f"area {self.area} differs from {len(self.interior)} interior points")


def path_stats(path: DyckPath) -> PathStats:
    """Compute every statistic; k-values cover corners and interior points."""
    outer, inner = corners(path)
    top = most_distant(path.params, outer)
    interior = interior_points(path)
    points = (*outer, *inner, *interior)
    kvals = dict(zip(points, k_values(path, points)))
    return PathStats(
        area=area(path),
        hplus=hplus(path),
        outer=outer,
        inner=inner,
        vstar=tuple(v for v in outer if v != top),
        interior=interior,
        opairs=opairs(path),
        kvals=kvals,
    )


def stats_json(path: DyckPath) -> dict:
    stats = path_stats(path)
    return {
        "path": str(path),
        "area": stats.area,
        "hplus": stats.hplus,
        "outer": [list(p) for p in stats.outer],
        "inner": [list(p) for p in stats.inner],
        "vstar": [list(p) for p in stats.vstar],
        "interior": [list(p) for p in stats.interior],
        "opairs": stats.opairs,
        "kvals": {f"{x},{y}": k for (x, y), k in sorted(stats.kvals.items())},
    }
