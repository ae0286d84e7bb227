"""Closed-form evaluation: one weighted summand per Dyck path.

Two equivalent shapes of the summand are computed and compared.  The
display shape t^area q^hplus prod(1 - a q^(-k)) feeds the normalized
superpolynomial; the rewritten shape, with q^(-genus - sum k) distributed
in, feeds the unnormalized series and is the one matched leaf-by-leaf
against the sweep evaluation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator

from .dyck import DyckPath, KnotParams, area, enumerate_paths, hplus, k_values, vstar
from .laurent import Invariant, LaurentPoly

# (area, hplus, k over the trimmed outer corners in ascending order): all a
# path's summand depends on
PathRecord = tuple[int, int, tuple[int, ...]]
# a product of corner factors, as {(a-exponent, doubled q-exponent): coefficient}
CornerProduct = dict[tuple[int, int], int]


def genus(params: KnotParams) -> int:
    """(m-1)(n-1)/2: the Seifert genus of the (m, n) torus knot, and the
    exponent of the normalization prefactor."""
    product = (params.m - 1) * (params.n - 1)
    if product % 2 != 0:
        raise ValueError(f"(m-1)(n-1) = {product} is odd for ({params.m}, {params.n})")
    return product // 2


@dataclass(frozen=True)
class Normalization:
    genus: int
    prefactor: LaurentPoly  # (a (qt)^(-1/2))^genus


def normalization(params: KnotParams) -> Normalization:
    g = genus(params)
    return Normalization(g, LaurentPoly.monomial(1, ea=g, q2=-g, t2=-g))


def path_record(path: DyckPath) -> PathRecord:
    """The statistics a path's summand is built from."""
    return area(path), hplus(path), tuple(sorted(k_values(path, vstar(path))))


@lru_cache(maxsize=8)
def path_data(params: KnotParams) -> tuple[PathRecord, ...]:
    """path_record of every path of params, in enumeration order."""
    return tuple(path_record(p) for p in enumerate_paths(params))


def _expand(factors: Iterable[tuple[tuple[int, int], tuple[int, int]]]) -> CornerProduct:
    """Multiply out binomial factors, each given as its two exponent keys
    with coefficients +1 and -1."""
    out: CornerProduct = {(0, 0): 1}
    for (ea1, q1), (ea2, q2) in factors:
        nxt: CornerProduct = {}
        for (ea, q), c in out.items():
            key = (ea + ea1, q + q1)
            nxt[key] = nxt.get(key, 0) + c
            key = (ea + ea2, q + q2)
            nxt[key] = nxt.get(key, 0) - c
        out = {key: c for key, c in nxt.items() if c}
    return out


def hhh_corner_product(ks: Iterable[int]) -> CornerProduct:
    """prod over ks of (q^k - a)."""
    return _expand(((0, 2 * k), (1, 0)) for k in ks)


def display_corner_product(ks: Iterable[int]) -> CornerProduct:
    """prod over ks of (1 - a q^(-k))."""
    return _expand(((0, 0), (1, -2 * k)) for k in ks)


def _hhh_shift(record: PathRecord, g: int) -> tuple[int, int]:
    """Doubled (q, t) exponents of t^area q^(hplus - genus - sum k)."""
    area_, hplus_, ks = record
    return 2 * (hplus_ - g - sum(ks)), 2 * area_


def _display_shift(record: PathRecord) -> tuple[int, int]:
    """Doubled (q, t) exponents of t^area q^hplus."""
    area_, hplus_, _ = record
    return 2 * hplus_, 2 * area_


def _shifted(product: CornerProduct, q2: int, t2: int) -> LaurentPoly:
    return LaurentPoly({(ea, q + q2, t2): c for (ea, q), c in product.items()})


def path_summand(path: DyckPath) -> LaurentPoly:
    """t^area q^hplus prod over trimmed outer corners of (1 - a q^(-k))."""
    record = path_record(path)
    return _shifted(display_corner_product(record[2]), *_display_shift(record))


def hhh_path_term(path: DyckPath) -> LaurentPoly:
    """The same summand with the q-shift distributed:
    t^area q^(hplus - genus - sum k) prod (q^k - a)."""
    record = path_record(path)
    return _shifted(hhh_corner_product(record[2]), *_hhh_shift(record, genus(path.params)))


def _expanded(
    records: Iterable[PathRecord], product: Callable[[tuple[int, ...]], CornerProduct]
) -> Iterator[tuple[PathRecord, CornerProduct]]:
    """(record, product(ks)) for each record, expanding each k-multiset once.

    The memo lives as long as the iteration, so nothing outlives the call.
    """
    products: dict[tuple[int, ...], CornerProduct] = {}
    for record in records:
        ks = record[2]
        expanded = products.get(ks)
        if expanded is None:
            expanded = products[ks] = product(ks)
        yield record, expanded


def _assemble(
    records: Iterable[PathRecord],
    product: Callable[[tuple[int, ...]], CornerProduct],
    shift: Callable[[PathRecord], tuple[int, int]],
) -> LaurentPoly:
    """Sum of x^shift(record) * product(ks) over records.

    Equal records are summed once with their multiplicity, and the terms
    accumulate under plain tuple keys.
    """
    counts = Counter(records)
    acc: dict[tuple[int, int, int], int] = {}
    get = acc.get
    for record, expanded in _expanded(counts, product):
        count = counts[record]
        q2, t2 = shift(record)
        for (ea, q), c in expanded.items():
            key = (ea, q + q2, t2)
            acc[key] = get(key, 0) + count * c
    return LaurentPoly(acc)


def hhh_terms(params: KnotParams) -> Iterator[LaurentPoly]:
    """hhh_path_term of every path of params, in enumeration order."""
    g = genus(params)
    for record, expanded in _expanded(path_data(params), hhh_corner_product):
        yield _shifted(expanded, *_hhh_shift(record, g))


@lru_cache(maxsize=32)
def hhh_direct(params: KnotParams) -> Invariant:
    """The unnormalized series: sum of rewritten summands over (1 - t)."""
    g = genus(params)
    return Invariant(
        _assemble(path_data(params), hhh_corner_product, lambda r: _hhh_shift(r, g)), 1
    )


def display_sum(params: KnotParams) -> LaurentPoly:
    """Sum of the display summands, before the prefactor and (1 - t)."""
    return _assemble(path_data(params), display_corner_product, _display_shift)


@lru_cache(maxsize=32)
def superpolynomial(params: KnotParams) -> Invariant:
    """The normalized invariant (a (qt)^(-1/2))^genus / (1-t) * sum of
    display summands.

    Also assembled a second way, through the unnormalized series times
    (a q^(1/2) t^(-1/2))^genus, and the two assemblies are required to
    agree exactly; a discrepancy means an exponent bookkeeping bug.
    """
    norm = normalization(params)
    display = Invariant(norm.prefactor * display_sum(params), 1)
    via_series = hhh_direct(params) * LaurentPoly.monomial(
        1, ea=norm.genus, q2=norm.genus, t2=-norm.genus
    )
    if display != via_series:
        raise RuntimeError(f"normalization mismatch for {params}")
    return display


def euler_characteristic(v: Invariant) -> Invariant:
    """Graded Euler characteristic: (qt)^(1/2) -> -(qt)^(1/2) on the numerator."""
    return Invariant(v.num.euler_sign(), v.dpow)
