"""Output checks that share no code with khr.

Every `khr` output the benchmark times is parsed here from its printed form
(json, text or latex) and tested against closed formulas or properties the
superpolynomial must have.  Nothing is compared with a stored copy of an
earlier output, and nothing imports khr.

A parsed invariant is (terms, dpow): terms maps doubled exponent triples
(a, q2, t2) to nonzero integer coefficients, and the value is
sum(c a^a q^(q2/2) t^(t2/2)) / (1-t)^dpow.

Each check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction

Terms = dict  # (a, q2, t2) -> int


class ParseError(ValueError):
    pass


# -- parsers -----------------------------------------------------------------


def parse_json(text: str) -> tuple[Terms, int]:
    obj = json.loads(text)
    terms: Terms = {}
    for item in obj["num"]:
        key = (int(item["a"]), int(item["q2"]), int(item["t2"]))
        if key in terms:
            raise ParseError(f"duplicate term {key}")
        coeff = int(item["c"])
        if coeff == 0:
            raise ParseError(f"zero coefficient at {key}")
        terms[key] = coeff
    return terms, int(obj["one_minus_t_pow"])


_TERM_SPLIT = re.compile(r" ([+-]) ")
_TEXT_FACTOR = re.compile(r"^([aqt])(?:\^(?:(-?\d+)|\((-?\d+)/2\)))?$")


def _split_terms(body: str) -> list[tuple[int, str]]:
    """Signed term bodies of a sum written `t1 + t2 - t3`, first sign optional."""
    sign = 1
    if body.startswith("-"):
        sign, body = -1, body[1:]
    pieces = _TERM_SPLIT.split(body)
    out = [(sign, pieces[0])]
    for op, piece in zip(pieces[1::2], pieces[2::2]):
        out.append((1 if op == "+" else -1, piece))
    return out


def _add_term(terms: Terms, key: tuple[int, int, int], coeff: int) -> None:
    if key in terms:
        raise ParseError(f"duplicate term {key}")
    if coeff == 0:
        raise ParseError(f"zero coefficient at {key}")
    terms[key] = coeff


def _parse_text_poly(body: str) -> Terms:
    terms: Terms = {}
    if body == "0":
        return terms
    for sign, piece in _split_terms(body):
        mag = 1
        exps = {"a": 0, "q": 0, "t": 0}
        factors = piece.split("*")
        if factors[0].isdigit():
            mag = int(factors.pop(0))
        for factor in factors:
            match = _TEXT_FACTOR.match(factor)
            if not match:
                raise ParseError(f"bad factor {factor!r} in {piece!r}")
            sym, whole, half = match.groups()
            if half is not None:
                doubled = int(half)
            else:
                doubled = 2 * (int(whole) if whole is not None else 1)
            exps[sym] += doubled
        if exps["a"] % 2:
            raise ParseError(f"half power of a in {piece!r}")
        _add_term(terms, (exps["a"] // 2, exps["q"], exps["t"]), sign * mag)
    return terms


def parse_text(text: str) -> tuple[Terms, int]:
    """Parse `poly` or `(poly) / (1-t)` or `(poly) / (1-t)^d`."""
    text = text.strip()
    match = re.fullmatch(r"\((.*)\) / \(1-t\)(?:\^(\d+))?", text)
    if match:
        return _parse_text_poly(match.group(1)), int(match.group(2) or 1)
    return _parse_text_poly(text), 0


_LATEX_FACTOR = re.compile(r"^(?:([aqt])(?:\^\{(-?\d+)(/2)?\})?|\(qt\)\^\{(-?1)/2\})$")


def _parse_latex_poly(body: str) -> Terms:
    terms: Terms = {}
    if body == "0":
        return terms
    for sign, piece in _split_terms(body):
        tokens = piece.split(" ")
        mag = 1
        if tokens[0].isdigit():
            mag = int(tokens.pop(0))
        exps = {"a": 0, "q": 0, "t": 0}
        for token in tokens:
            match = _LATEX_FACTOR.match(token)
            if not match:
                raise ParseError(f"bad factor {token!r} in {piece!r}")
            sym, power, half, qt_half = match.groups()
            if qt_half is not None:
                exps["q"] += int(qt_half)
                exps["t"] += int(qt_half)
                continue
            k = int(power) if power is not None else 1
            if sym == "a":
                if half:
                    raise ParseError(f"half power of a in {piece!r}")
                exps["a"] += k
            else:
                exps[sym] += k if half else 2 * k
        _add_term(terms, (exps["a"], exps["q"], exps["t"]), sign * mag)
    return terms


def parse_latex(text: str) -> tuple[Terms, int]:
    """Parse `poly` or `\\frac{poly}{1-t}` or `\\frac{poly}{(1-t)^{d}}`."""
    text = text.strip()
    if text.startswith("\\frac{") and text.endswith("}"):
        num, denom = text[len("\\frac{") : -1].rsplit("}{", 1)
        if denom == "1-t":
            return _parse_latex_poly(num), 1
        match = re.fullmatch(r"\(1-t\)\^\{(\d+)\}", denom)
        if not match:
            raise ParseError(f"bad denominator {denom!r}")
        return _parse_latex_poly(num), int(match.group(1))
    return _parse_latex_poly(text), 0


PARSERS = {"json": parse_json, "text": parse_text, "latex": parse_latex}


def parse_invariant(text: str, fmt: str) -> tuple[Terms, int]:
    return PARSERS[fmt](text)


# -- closed formulas -------------------------------------------------------------


def dyck_count(m: int, n: int) -> int:
    """C(m+n, n) / (m+n): the number of (m, n)-Dyck paths."""
    return math.comb(m + n, n) // (m + n)


def genus(m: int, n: int) -> int:
    return (m - 1) * (n - 1) // 2


def narayana_poly(m: int, n: int) -> dict[int, int]:
    """Coefficients by a-degree of sum_k (1/m) C(m,k) C(n-1,k-1) (1-a)^(k-1)."""
    coeffs: dict[int, Fraction] = {}
    for k in range(1, min(m, n) + 1):
        weight = Fraction(math.comb(m, k) * math.comb(n - 1, k - 1), m)
        for j in range(k):
            coeffs[j] = coeffs.get(j, Fraction(0)) + weight * math.comb(k - 1, j) * (-1) ** j
    out = {}
    for j, c in coeffs.items():
        if c.denominator != 1:
            raise ArithmeticError(f"rational Narayana coefficient {c} is not an integer")
        if c:
            out[j] = int(c)
    return out


@dataclass(frozen=True)
class Expected:
    """Closed-form values that the outputs for one knot must reproduce."""

    count: int  # the number of (m, n)-Dyck paths
    narayana: dict[int, int]  # HHH at q=t=1, by a-degree


def expected_values(knots) -> dict[tuple[int, int], Expected]:
    """Expected values for every knot of a round, made once before it runs."""
    return {(m, n): Expected(dyck_count(m, n), narayana_poly(m, n)) for m, n in set(knots)}


def coprime_range(bound: int) -> list[tuple[int, int]]:
    """Coprime (m, n) with m >= n >= 1 and m + n <= bound, by increasing m + n."""
    return [
        (m, s - m)
        for s in range(2, bound + 1)
        for m in range(1, s)
        if math.gcd(m, s - m) == 1 and m >= s - m
    ]


def hhh_to_p(terms: Terms, m: int, n: int) -> Terms:
    """HHH times a^g q^(g/2) t^(-g/2)."""
    g = genus(m, n)
    return {(a + g, q2 + g, t2 - g): c for (a, q2, t2), c in terms.items()}


def p_to_hhh(terms: Terms, m: int, n: int) -> Terms:
    """P times a^(-g) q^(-g/2) t^(g/2): undoes hhh_to_p."""
    g = genus(m, n)
    return {(a - g, q2 - g, t2 + g): c for (a, q2, t2), c in terms.items()}


def p_to_euler(terms: Terms) -> Terms:
    """Negate every term of odd q2."""
    return {key: (-c if key[1] % 2 else c) for key, c in terms.items()}


# -- checks on one invariant --------------------------------------------------


def check_hhh(terms: Terms, dpow: int, m: int, n: int, want: Expected, label: str = "HHH") -> list[str]:
    problems = []
    if dpow != 1:
        problems.append(f"{label}({m},{n}) has (1-t)^{dpow}, expected (1-t)^1")
    count = sum(c for (a, _, _), c in terms.items() if a == 0)
    if count != want.count:
        problems.append(f"{label}({m},{n}) at a=0, q=t=1 gives {count}, expected {want.count}")
    by_a: dict[int, int] = {}
    for (a, _, _), c in terms.items():
        by_a[a] = by_a.get(a, 0) + c
    by_a = {a: c for a, c in by_a.items() if c}
    if by_a != want.narayana:
        problems.append(f"{label}({m},{n}) at q=t=1 gives {by_a}, rational Narayana sum gives {want.narayana}")
    return problems


def check_p(terms: Terms, dpow: int, m: int, n: int, want: Expected, label: str = "P") -> list[str]:
    problems = []
    g = genus(m, n)
    if not terms:
        return [f"{label}({m},{n}) is zero"]
    for (a, q2, t2), c in terms.items():
        if not g <= a <= 2 * g:
            problems.append(f"{label}({m},{n}) has a-degree {a} outside [{g}, {2 * g}]")
            break
        if (c > 0) != ((a - g) % 2 == 0):
            problems.append(f"{label}({m},{n}) term a^{a} q2={q2} t2={t2} has sign of {c}")
            break
    swapped = {(a, t2, q2): c for (a, q2, t2), c in terms.items()}
    if swapped != terms:
        problems.append(f"{label}({m},{n}) numerator changes under q <-> t")
    # with the shift undone it is HHH, so HHH's Catalan and Narayana sums must hold
    problems += check_hhh(p_to_hhh(terms, m, n), dpow, m, n, want, label=f"{label} shifted to HHH")
    return problems


def check_euler(terms: Terms, dpow: int, m: int, n: int, want: Expected) -> list[str]:
    # euler is P with odd-q2 terms negated, so undoing that must pass P's checks
    return check_p(p_to_euler(terms), dpow, m, n, want, label="euler")


FORM_CHECKS = {"HHH": check_hhh, "P": check_p, "euler": check_euler}


def check_forms_agree(values: dict[str, tuple[Terms, int]], m: int, n: int) -> list[str]:
    """P = HHH a^g q^(g/2) t^(-g/2) and euler = P with odd-q2 terms negated,
    for whichever of the three forms of one knot are present."""
    problems = []
    p_ref = None
    if "HHH" in values:
        terms, dpow = values["HHH"]
        p_ref = (hhh_to_p(terms, m, n), dpow)
        if "P" in values and values["P"] != p_ref:
            problems.append(f"P({m},{n}) differs from the shifted HHH({m},{n})")
    elif "P" in values:
        p_ref = values["P"]
    if p_ref is not None and "euler" in values:
        if values["euler"] != (p_to_euler(p_ref[0]), p_ref[1]):
            problems.append(f"euler({m},{n}) differs from P({m},{n}) with odd q2 negated")
    return problems


# -- checks on other commands ----------------------------------------------------


def dyck_area(m: int, n: int, word: str) -> int:
    """Cells between the path and the diagonal: per row y, floor(m y / n)
    minus the column of the path's vertical step."""
    x = total = 0
    y = 0
    for step in word:
        if step == "E":
            x += 1
        else:
            total += (m * y) // n - x
            y += 1
    return total


def is_dyck_word(m: int, n: int, word: str) -> bool:
    x = y = 0
    for step in word:
        if step == "E":
            x += 1
        elif step == "N":
            y += 1
        else:
            return False
        if m * y < n * x:
            return False
    return (x, y) == (m, n)


def check_paths_json(text: str, m: int, n: int, want: Expected) -> list[str]:
    rows = json.loads(text)
    words = [row["path"] for row in rows]
    problems = []
    if len(words) != want.count or len(set(words)) != len(words):
        problems.append(f"paths({m},{n}) lists {len(set(words))} distinct of {len(words)}, expected {want.count}")
    for row in rows:
        word = row["path"]
        if not is_dyck_word(m, n, word):
            problems.append(f"paths({m},{n}): {word} is not an ({m},{n})-Dyck path")
            break
        area = dyck_area(m, n, word)
        if row["area"] != area or len(row["interior"]) != area:
            problems.append(f"paths({m},{n}): {word} reports area {row['area']}, expected {area}")
            break
    return problems


def check_verify_json(text: str, knots: list[tuple[int, int]], table: dict[tuple[int, int], Expected]) -> list[str]:
    reports = json.loads(text)
    got = [(r["m"], r["n"]) for r in reports]
    problems = []
    if got != knots:
        problems.append(f"verify reports knots {got}, expected {knots}")
    for r in reports:
        count = table[(r["m"], r["n"])].count
        where = f"verify({r['m']},{r['n']})"
        if r.get("overall_pass") is not True:
            problems.append(f"{where} does not report overall_pass")
        if r["cross_check"]["leaf_count"] != count:
            problems.append(f"{where} has {r['cross_check']['leaf_count']} leaves, expected {count}")
        if r["catalan"]["got"] != count or r["catalan"]["expected"] != count:
            problems.append(f"{where} catalan specialization {r['catalan']}, expected {count}")
    return problems


_VERIFY_HEAD = re.compile(r"^verification of \((\d+),(\d+)\)$")
_VERIFY_CROSS = re.compile(r"^  cross-check \(closed form vs sweep\), (\d+) leaves: pass$")
_VERIFY_CATALAN = re.compile(r"^  catalan specialization: expected (\d+), got (\d+): pass$")


def check_verify_text(text: str, knots: list[tuple[int, int]], table: dict[tuple[int, int], Expected]) -> list[str]:
    blocks: list[list[str]] = []
    for line in text.splitlines():
        if _VERIFY_HEAD.match(line):
            blocks.append([])
        if blocks:
            blocks[-1].append(line)
    problems = []
    got = [tuple(int(g) for g in _VERIFY_HEAD.match(b[0]).groups()) for b in blocks]
    if got != knots:
        problems.append(f"verify reports knots {got}, expected {knots}")
    for (m, n), block in zip(got, blocks):
        count = table[(m, n)].count
        cross = [_VERIFY_CROSS.match(line) for line in block]
        catalan = [_VERIFY_CATALAN.match(line) for line in block]
        leaves = [int(c.group(1)) for c in cross if c]
        specs = [(int(c.group(1)), int(c.group(2))) for c in catalan if c]
        if leaves != [count]:
            problems.append(f"verify({m},{n}) text reports leaves {leaves}, expected [{count}]")
        if specs != [(count, count)]:
            problems.append(f"verify({m},{n}) text reports catalan {specs}, expected {count}")
        if block[-1] != "  overall: pass":
            problems.append(f"verify({m},{n}) text ends with {block[-1]!r}")
    return problems
