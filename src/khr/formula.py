"""Closed-form evaluation: one weighted summand per Dyck path.

Two equivalent shapes of the summand are computed and compared.  The
display shape t^area q^hplus prod(1 - a q^(-k)) feeds the normalized
superpolynomial; the rewritten shape, with q^(-genus - sum k) distributed
in, feeds the unnormalized series and is the one matched leaf-by-leaf
against the sweep evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .dyck import DyckPath, KnotParams, area, enumerate_paths, hplus, k_of, vstar
from .laurent import A, Invariant, LaurentPoly, ONE, poly_sum, q_power


def genus(params: KnotParams) -> int:
    """(m-1)(n-1)/2: the Seifert genus of the (m, n) torus knot, and the
    exponent of the normalization prefactor."""
    product = (params.m - 1) * (params.n - 1)
    assert product % 2 == 0
    return product // 2


@dataclass(frozen=True)
class Normalization:
    genus: int
    prefactor: LaurentPoly  # (a (qt)^(-1/2))^genus


def normalization(params: KnotParams) -> Normalization:
    g = genus(params)
    return Normalization(g, LaurentPoly.monomial(1, ea=g, q2=-g, t2=-g))


def path_summand(path: DyckPath) -> LaurentPoly:
    """t^area q^hplus prod over trimmed outer corners of (1 - a q^(-k))."""
    poly = LaurentPoly.monomial(1, q2=2 * hplus(path), t2=2 * area(path))
    for v in vstar(path):
        poly = poly * (ONE - LaurentPoly.monomial(1, ea=1, q2=-2 * k_of(path, v)))
    return poly


def hhh_path_term(path: DyckPath) -> LaurentPoly:
    """The same summand with the q-shift distributed:
    t^area q^(hplus - genus - sum k) prod (q^k - a)."""
    g = genus(path.params)
    ks = [k_of(path, v) for v in vstar(path)]
    poly = LaurentPoly.monomial(1, q2=2 * (hplus(path) - g - sum(ks)), t2=2 * area(path))
    for k in ks:
        poly = poly * (q_power(k) - A)
    return poly


@lru_cache(maxsize=None)
def hhh_direct(params: KnotParams) -> Invariant:
    """The unnormalized series: sum of rewritten summands over (1 - t)."""
    return Invariant(poly_sum(hhh_path_term(p) for p in enumerate_paths(params)), 1)


def display_sum(params: KnotParams) -> LaurentPoly:
    """Sum of the display summands, before the prefactor and (1 - t)."""
    return poly_sum(path_summand(p) for p in enumerate_paths(params))


@lru_cache(maxsize=None)
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
