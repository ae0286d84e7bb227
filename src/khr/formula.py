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

from .dyck import DyckPath, KnotParams, area, enumerate_paths, hplus, k_values, vstar
from .laurent import Invariant, LaurentPoly

# (area, hplus, k over the trimmed outer corners in ascending order): all a
# path's summand depends on
PathRecord = tuple[int, int, tuple[int, ...]]
# a product of corner factors, as {(a-exponent, doubled q-exponent): coefficient}
CornerProduct = dict[tuple[int, int], int]


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
    """The statistics a path's summand is built from."""
    return area(path), hplus(path), tuple(sorted(k_values(path, vstar(path))))


@lru_cache(maxsize=8)
def path_data(params: KnotParams) -> tuple[PathRecord, ...]:
    """path_record of every path of params, in enumeration order."""
    return tuple(path_record(p) for p in enumerate_paths(params))


def hhh_corner_product(ks: Iterable[int]) -> CornerProduct:
    """prod over ks of (q^k - a)."""
    out: CornerProduct = {(0, 0): 1}
    for k in ks:
        nxt: CornerProduct = {}
        for (ea, q), c in out.items():
            key = (ea, q + 2 * k)
            nxt[key] = nxt.get(key, 0) + c
            key = (ea + 1, q)
            nxt[key] = nxt.get(key, 0) - c
        out = {key: c for key, c in nxt.items() if c}
    return out


def _hhh_shift(record: PathRecord, g: int) -> tuple[int, int]:
    """Doubled (q, t) exponents of t^area q^(hplus - g - sum k)."""
    area_, hplus_, ks = record
    return 2 * (hplus_ - g - sum(ks)), 2 * area_


def _shifted(product: CornerProduct, q2: int, t2: int) -> LaurentPoly:
    return LaurentPoly({(ea, q + q2, t2): c for (ea, q), c in product.items()})


def _term(record: PathRecord, g: int) -> LaurentPoly:
    return _shifted(hhh_corner_product(record[2]), *_hhh_shift(record, g))


def path_summand(path: DyckPath) -> LaurentPoly:
    """t^area q^hplus prod over trimmed outer corners of (1 - a q^(-k)),
    which is q^genus times hhh_path_term(path)."""
    return _term(path_record(path), 0)


def hhh_path_term(path: DyckPath) -> LaurentPoly:
    """The summand with the q-shift distributed:
    t^area q^(hplus - genus - sum k) prod (q^k - a)."""
    return _term(path_record(path), genus(path.params))


def _expanded(records: Iterable[PathRecord]) -> Iterator[tuple[PathRecord, CornerProduct]]:
    """(record, hhh_corner_product(ks)) for each record, expanding each
    k-multiset once.

    The memo lives as long as the iteration, so nothing outlives the call.
    """
    products: dict[tuple[int, ...], CornerProduct] = {}
    for record in records:
        ks = record[2]
        expanded = products.get(ks)
        if expanded is None:
            expanded = products[ks] = hhh_corner_product(ks)
        yield record, expanded


def _assemble(records: Iterable[PathRecord], g: int) -> LaurentPoly:
    """Sum of the summands of records.

    Equal records are summed once with their multiplicity, and the terms
    accumulate under plain tuple keys.
    """
    counts = Counter(records)
    acc: dict[tuple[int, int, int], int] = {}
    get = acc.get
    for record, expanded in _expanded(counts):
        count = counts[record]
        q2, t2 = _hhh_shift(record, g)
        for (ea, q), c in expanded.items():
            key = (ea, q + q2, t2)
            acc[key] = get(key, 0) + count * c
    return LaurentPoly(acc)


def hhh_terms(params: KnotParams) -> Iterator[LaurentPoly]:
    """hhh_path_term of every path of params, in enumeration order."""
    g = genus(params)
    for record, expanded in _expanded(path_data(params)):
        yield _shifted(expanded, *_hhh_shift(record, g))


@lru_cache(maxsize=32)
def hhh_direct(params: KnotParams) -> Invariant:
    """The unnormalized series: sum of the summands over (1 - t)."""
    return Invariant(_assemble(path_data(params), genus(params)), 1)


def superpolynomial(params: KnotParams) -> Invariant:
    """The normalized invariant, (a (qt)^(-1/2))^genus / (1-t) times the sum
    of t^area q^hplus prod (1 - a q^(-k)): the unnormalized series times
    the normalization monomial."""
    return hhh_direct(params) * normalization(params)


def euler_characteristic(v: Invariant) -> Invariant:
    """Graded Euler characteristic: (qt)^(1/2) -> -(qt)^(1/2) on the numerator."""
    return Invariant(v.num.euler_sign(), v.dpow)
