"""Brute-force reference implementations used as test oracles.

Everything here recomputes path sets and statistics from first principles
with fractions.Fraction, deliberately avoiding the package's scaled-integer
formulation, so agreement between the two is meaningful.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def brute_paths(m: int, n: int) -> list[str]:
    """All monotone N/E words from (0,0) to (m,n) staying weakly above the
    diagonal, in lexicographic order with N < E."""
    slope = Fraction(n, m)
    words = []
    for n_positions in combinations(range(m + n), n):
        steps = ["E"] * (m + n)
        for i in n_positions:
            steps[i] = "N"
        x = y = 0
        ok = True
        for s in steps:
            if s == "E":
                x += 1
            else:
                y += 1
            if Fraction(y) < slope * x:
                ok = False
                break
        if ok:
            words.append("".join(steps))
    words.sort(key=lambda w: [0 if c == "N" else 1 for c in w])
    return words


def _vertices(word: str) -> list[tuple[int, int]]:
    pts = [(0, 0)]
    x = y = 0
    for s in word:
        if s == "E":
            x += 1
        else:
            y += 1
        pts.append((x, y))
    return pts


def _row_max_x(m: int, n: int, word: str) -> list[int]:
    """Rightmost x the path reaches at each height y = 0 .. n."""
    out = [0] * (n + 1)
    x = y = 0
    out[0] = 0
    for s in word:
        if s == "E":
            x += 1
        else:
            y += 1
        out[y] = max(out[y], x)
    return out


def brute_area(m: int, n: int, word: str) -> int:
    """Cells fully between path and diagonal: all four corners weakly above
    the diagonal, interior strictly above, and the cell under the path."""
    slope = Fraction(n, m)
    row_max = _row_max_x(m, n, word)
    count = 0
    for cy in range(n):
        for cx in range(row_max[cy], m):
            corners = [(cx, cy), (cx + 1, cy), (cx, cy + 1), (cx + 1, cy + 1)]
            if all(Fraction(py) >= slope * px for px, py in corners):
                count += 1
    return count


def brute_interior(m: int, n: int, word: str) -> list[tuple[int, int]]:
    slope = Fraction(n, m)
    row_max = _row_max_x(m, n, word)
    out = []
    for y in range(n + 1):
        for x in range(row_max[y] + 1, m + 1):
            if Fraction(y) > slope * x:
                out.append((x, y))
    return out


def _step_segments(word: str):
    """(kind, start, end) for each step, in path order."""
    segs = []
    x = y = 0
    for s in word:
        if s == "E":
            segs.append(("E", (x, y), (x + 1, y)))
            x += 1
        else:
            segs.append(("N", (x, y), (x, y + 1)))
            y += 1
    return segs


def _offset_interval(m: int, n: int, seg) -> tuple[Fraction, Fraction]:
    """Range of y - (n/m) x over the segment, as a closed interval."""
    slope = Fraction(n, m)
    (_, (x1, y1), (x2, y2)) = seg
    a = Fraction(y1) - slope * x1
    b = Fraction(y2) - slope * x2
    return (min(a, b), max(a, b))


def brute_hplus(m: int, n: int, word: str) -> int:
    segs = _step_segments(word)
    count = 0
    for i, s1 in enumerate(segs):
        if s1[0] != "E":
            continue
        lo1, hi1 = _offset_interval(m, n, s1)
        for s2 in segs[i + 1 :]:
            if s2[0] != "N":
                continue
            lo2, hi2 = _offset_interval(m, n, s2)
            if max(lo1, lo2) <= min(hi1, hi2):
                count += 1
    return count


def brute_dinv(m: int, n: int, word: str) -> int:
    """Rational dinv (Gorsky-Mazin): the cells left of the path whose arm
    and leg satisfy arm/(leg+1) < m/n < (arm+1)/leg, the right side vacuous
    when leg = 0, compared in integers.  A cell (x, y) is left of the path
    when x < columns[y]; its arm is columns[y] - x - 1 and its leg the number
    of lower rows whose column is right of x."""
    columns = []
    x = 0
    for s in word:
        if s == "E":
            x += 1
        else:
            columns.append(x)
    count = 0
    for y, column in enumerate(columns):
        for x in range(column):
            arm = column - x - 1
            leg = sum(1 for below in columns[:y] if below > x)
            if arm * n < m * (leg + 1) and (leg == 0 or m * leg < (arm + 1) * n):
                count += 1
    return count


def brute_opairs(word: str) -> int:
    count = 0
    es = 0
    for s in word:
        if s == "E":
            es += 1
        else:
            count += es
    return count


def brute_corners(word: str):
    verts = _vertices(word)
    outer, inner = [], []
    for i in range(1, len(word)):
        if word[i - 1] == "N" and word[i] == "E":
            outer.append(verts[i])
        elif word[i - 1] == "E" and word[i] == "N":
            inner.append(verts[i])
    return outer, inner


def brute_k(m: int, n: int, word: str, p: tuple[int, int]) -> tuple[int, int]:
    """(vertical, horizontal) interior-crossing counts of the line of slope
    n/m through p."""
    slope = Fraction(n, m)
    px, py = p
    offset = Fraction(py) - slope * px
    vertical = horizontal = 0
    for kind, (x1, y1), (x2, y2) in _step_segments(word):
        if kind == "N":
            line_y = slope * x1 + offset
            if Fraction(y1) < line_y < Fraction(y2):
                vertical += 1
        else:
            line_x = (Fraction(y1) - offset) / slope
            if Fraction(x1) < line_x < Fraction(x2):
                horizontal += 1
    return vertical, horizontal


def brute_vstar(m: int, n: int, word: str) -> list[tuple[int, int]]:
    slope = Fraction(n, m)
    outer, _ = brute_corners(word)
    dists = [Fraction(y) - slope * x for x, y in outer]
    top = outer[dists.index(max(dists))]
    return [v for v in outer if v != top]
