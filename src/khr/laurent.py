"""Exact sparse arithmetic for Laurent polynomials in a, q, t.

Exponents of q and t are stored doubled (fields q2, t2), so q2 = -1 encodes
q^(-1/2) and every stored exponent is a plain int.  Half powers only ever
enter through (qt)^(1/2) pairs and isolated q^(1/2) factors, so halves are
the finest granularity needed; exponents of a are stored as-is.

A polynomial maps plain exponent tuples (ea, q2, t2) to nonzero integer
coefficients; the zero polynomial has no terms.  Coefficients are Python
ints, hence exact at any size.  Values of the shape num / (1-t)^d live in
:class:`Invariant`, which cancels every (1-t) factor out of num on
construction, so equality of invariants is structural equality.

Term order everywhere (serialization, rendering) is lexicographic on
(ea, q2, t2).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Optional, Union

from .values import FrozenRecord

# exponent key of one term: (a-power, doubled q-power, doubled t-power)
ExponentTriple = tuple[int, int, int]
# one signed term as (coefficient, ea, q2, t2), the arguments of times_monomial
Monomial = tuple[int, int, int, int]


class LaurentPoly:
    """Sparse Laurent polynomial in a, q^(1/2), t^(1/2) over the integers."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[ExponentTriple, int] | None = None):
        self._terms = {exp: c for exp, c in terms.items() if c} if terms else {}

    # -- construction helpers -------------------------------------------

    @staticmethod
    def monomial(coeff: int = 1, ea: int = 0, q2: int = 0, t2: int = 0) -> "LaurentPoly":
        return LaurentPoly({(ea, q2, t2): coeff})

    # -- inspection ------------------------------------------------------

    def items(self) -> Iterator[tuple[ExponentTriple, int]]:
        return iter(self._terms.items())

    def sorted_items(self) -> list[tuple[ExponentTriple, int]]:
        # keys are unique, so sorting them alone gives the order of the pairs
        terms = self._terms
        return [(exp, terms[exp]) for exp in sorted(terms)]

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (LaurentPoly, int)):
            return NotImplemented
        return self._terms == self._coerce(other)._terms

    def __hash__(self) -> int:
        terms = self._terms
        if terms.keys() <= {(0, 0, 0)}:
            # a constant equals its int, so it hashes like it
            return hash(terms.get((0, 0, 0), 0))
        return hash(frozenset(terms.items()))

    # -- ring operations --------------------------------------------------

    @staticmethod
    def _coerce(value: Union["LaurentPoly", int]) -> "LaurentPoly":
        if isinstance(value, LaurentPoly):
            return value
        if isinstance(value, int):
            return LaurentPoly.monomial(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to LaurentPoly")

    def __add__(self, other: Union["LaurentPoly", int]) -> "LaurentPoly":
        other = self._coerce(other)
        out = dict(self._terms)
        for exp, c in other._terms.items():
            s = out.get(exp, 0) + c
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        return _from_terms(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return _from_terms({exp: -c for exp, c in self._terms.items()})

    def __sub__(self, other: Union["LaurentPoly", int]) -> "LaurentPoly":
        return self + (-self._coerce(other))

    def __mul__(self, other: Union["LaurentPoly", int]) -> "LaurentPoly":
        other = self._coerce(other)
        poly, factor = (other, self) if len(self._terms) == 1 else (self, other)
        if len(factor._terms) == 1:
            ((ea, q2, t2), c), = factor._terms.items()
            return poly.times_monomial(c, ea, q2, t2)
        out: dict[ExponentTriple, int] = {}
        for (ea1, q1, t1), c1 in self._terms.items():
            for (ea2, q2, t2), c2 in other._terms.items():
                exp = (ea1 + ea2, q1 + q2, t1 + t2)
                s = out.get(exp, 0) + c1 * c2
                if s:
                    out[exp] = s
                else:
                    out.pop(exp, None)
        return _from_terms(out)

    __rmul__ = __mul__

    def times_monomial(self, coeff: int, ea: int = 0, q2: int = 0, t2: int = 0) -> "LaurentPoly":
        """self times coeff * a^ea q^(q2/2) t^(t2/2), in one pass: the shift
        keeps the keys distinct, and no coefficient cancels."""
        if not coeff:
            return ZERO
        return _from_terms({
            (ea1 + ea, q1 + q2, t1 + t2): c * coeff for (ea1, q1, t1), c in self._terms.items()
        })

    # -- structure maps ----------------------------------------------------

    def swap_qt(self) -> "LaurentPoly":
        """Exchange the q- and t-exponents of every term."""
        return _from_terms({(ea, t2, q2): c for (ea, q2, t2), c in self._terms.items()})

    def euler_sign(self) -> "LaurentPoly":
        """Substitute (qt)^(1/2) -> -(qt)^(1/2), negating the odd terms.

        Every term must have q2 and t2 of equal parity; mixed-parity terms
        cannot be written with a (qt)^(1/2) factor and are rejected.
        """
        out: dict[ExponentTriple, int] = {}
        for exp, c in self._terms.items():
            ea, q2, t2 = exp
            if (q2 - t2) % 2 != 0:
                raise ValueError(f"term a^{ea} q2={q2} t2={t2} mixes half-integer parities")
            out[exp] = -c if q2 % 2 else c
        return _from_terms(out)

    def is_even_series(self) -> bool:
        """True iff every term involves only integer powers of q and t."""
        return all(q2 % 2 == 0 and t2 % 2 == 0 for _, q2, t2 in self._terms)

    # -- rendering ----------------------------------------------------------

    def _render(self, latex: bool) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        # (symbol, doubled exponent) -> its spelling, built once per call
        spelled: dict[tuple[str, int], str] = {}
        for (ea, q2, t2), c in self.sorted_items():
            powers = [("a", 2 * ea), ("q", q2), ("t", t2)]
            if latex and q2 % 2 and t2 % 2:
                # factor one (qt)^(1/2), signed to keep the leftovers small
                half = 1 if q2 > 0 else -1
                powers[1:] = [("(qt)", half), ("q", q2 - half), ("t", t2 - half)]
            factors = []
            for power in powers:
                if power[1]:
                    spelling = spelled.get(power)
                    if spelling is None:
                        spelling = spelled[power] = _power(*power, latex)
                    factors.append(spelling)
            if abs(c) != 1 or not factors:
                factors.insert(0, str(abs(c)))
            if parts:
                parts.append(" - " if c < 0 else " + ")
            elif c < 0:
                parts.append("-")
            parts.append((" " if latex else "*").join(factors))
        return "".join(parts)

    def text(self) -> str:
        return self._render(latex=False)

    def latex(self) -> str:
        return self._render(latex=True)

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"LaurentPoly('{self.text()}')"


def _from_terms(terms: dict[ExponentTriple, int]) -> LaurentPoly:
    """A polynomial that takes terms, which hold no zero coefficient, as is."""
    poly = object.__new__(LaurentPoly)
    poly._terms = terms
    return poly


def _power(sym: str, doubled: int, latex: bool) -> str:
    """sym^(doubled/2), spelled for text or for LaTeX."""
    if doubled == 2:
        return sym
    exponent = f"{doubled}/2" if doubled % 2 else str(doubled // 2)
    if latex:
        return f"{sym}^{{{exponent}}}"
    return f"{sym}^({exponent})" if doubled % 2 else f"{sym}^{exponent}"


ZERO = LaurentPoly()
ONE = LaurentPoly.monomial(1)
A = LaurentPoly.monomial(1, ea=1)
Q = LaurentPoly.monomial(1, q2=2)
T = LaurentPoly.monomial(1, t2=2)


def q_power(k: int) -> LaurentPoly:
    """q^k as a polynomial (k may be negative)."""
    return LaurentPoly.monomial(1, q2=2 * k)


def single_term(poly: LaurentPoly) -> Optional[Monomial]:
    """The one term of poly as (coefficient, ea, q2, t2), None unless it
    has exactly one."""
    if len(poly) != 1:
        return None
    ((ea, q2, t2), c), = poly.items()
    return c, ea, q2, t2


def poly_sum(polys: Iterable[LaurentPoly]) -> LaurentPoly:
    """Sum of polys, accumulated in place in one dict.

    Linear in the total number of input terms, where a fold with + copies
    the growing sum at every step; zero coefficients are dropped once at
    the end.
    """
    acc: dict[ExponentTriple, int] = {}
    get = acc.get
    for p in polys:
        for exp, c in p._terms.items():
            acc[exp] = get(exp, 0) + c
    return _from_terms({exp: c for exp, c in acc.items() if c})


def monomial_ratio(p: LaurentPoly, r: LaurentPoly) -> Optional[LaurentPoly]:
    """The signed monomial c * x^e with p = c * x^e * r, or None when p is
    no such multiple of r (including p = 0); r must be nonzero."""
    if not r:
        raise ValueError("reference polynomial must be nonzero")
    if not p or len(p) != len(r):
        return None
    pa, pq, pt = p_low = min(p._terms)
    ra, rq, rt = r_low = min(r._terms)
    cp, cr = p._terms[p_low], r._terms[r_low]
    if cp % cr != 0:
        return None
    ratio = cp // cr
    if ratio == 0:
        return None
    sa, sq, st = pa - ra, pq - rq, pt - rt
    if r.times_monomial(ratio, sa, sq, st)._terms != p._terms:
        return None
    return LaurentPoly.monomial(ratio, sa, sq, st)


def divide_exact_by_one_minus_t(p: LaurentPoly) -> LaurentPoly:
    """Exact quotient p / (1 - t); raises ValueError when not divisible.

    Works per (ea, q2, t2-parity) slice: within a slice, u_j = c_j + u_{j-2}
    solves (1 - t) u = c from the bottom exponent up, and divisibility is
    equivalent to the recursion closing with u = 0 at the top.
    """
    if not p:
        return ZERO
    slices: dict[tuple[int, int, int], dict[int, int]] = {}
    for (ea, q2, t2), c in p.items():
        slices.setdefault((ea, q2, t2 % 2), {})[t2] = c
    out: dict[ExponentTriple, int] = {}
    for (ea, q2, _), coeffs in slices.items():
        lo, hi = min(coeffs), max(coeffs)
        prev = 0
        for t2 in range(lo, hi + 1, 2):
            u = coeffs.get(t2, 0) + prev
            if t2 == hi:
                if u != 0:
                    raise ValueError("polynomial is not divisible by 1 - t")
            elif u:
                out[ea, q2, t2] = u
            prev = u
    return _from_terms(out)


class Invariant(FrozenRecord):
    """A Laurent polynomial divided by (1 - t)^dpow, kept in lowest terms."""

    __slots__ = _fields = ("num", "dpow")
    num: LaurentPoly
    dpow: int

    def __init__(self, num: LaurentPoly, dpow: int = 0, lowest: bool = False) -> None:
        """lowest: num / (1 - t)^dpow is known to be in lowest terms, so no
        division by (1 - t) is tried."""
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "dpow", dpow)
        self.__post_init__(lowest)

    def __post_init__(self, lowest: bool = False) -> None:
        if self.dpow < 0:
            raise ValueError("denominator power must be nonnegative")
        num, dpow = self.num, self.dpow
        if not num:
            dpow = 0
        while dpow > 0 and not lowest:
            try:
                num = divide_exact_by_one_minus_t(num)
            except ValueError:
                break
            dpow -= 1
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "dpow", dpow)

    def __add__(self, other: "Invariant") -> "Invariant":
        low, high = sorted((self, other), key=lambda v: v.dpow)
        num = low.num
        for _ in range(high.dpow - low.dpow):
            num = num * (ONE - T)
        return Invariant(num + high.num, high.dpow)

    def __mul__(self, other: Union[LaurentPoly, int]) -> "Invariant":
        other = LaurentPoly._coerce(other)
        # a one-term other is c x^e with c != 0, and the prime 1 - t divides
        # neither c nor x^e: it divides the product only if it divides
        # self.num, which is in lowest terms, so nothing cancels
        return Invariant(self.num * other, self.dpow, lowest=len(other) == 1)

    __rmul__ = __mul__

    def text(self) -> str:
        if self.dpow == 0:
            return self.num.text()
        denom = "(1-t)" if self.dpow == 1 else f"(1-t)^{self.dpow}"
        return f"({self.num.text()}) / {denom}"

    def latex(self) -> str:
        if self.dpow == 0:
            return self.num.latex()
        denom = "1-t" if self.dpow == 1 else f"(1-t)^{{{self.dpow}}}"
        return f"\\frac{{{self.num.latex()}}}{{{denom}}}"

    def __str__(self) -> str:
        return self.text()


def specialize_count(v: Invariant) -> int:
    """Numerator of v at a = 0, q = t = 1 (the denominator is ignored)."""
    return sum(c for (ea, _, _), c in v.num.items() if ea == 0)


# -- JSON forms -----------------------------------------------------------
#
# Term: {"a": int, "q2": int, "t2": int, "c": "<decimal int>"}; coefficients
# travel as strings so arbitrary-precision values survive any JSON reader.


def poly_to_json(p: LaurentPoly) -> list[dict]:
    return [
        {"a": ea, "q2": q2, "t2": t2, "c": str(c)}
        for (ea, q2, t2), c in p.sorted_items()
    ]


def poly_from_json(items: Iterable[Mapping]) -> LaurentPoly:
    terms: dict[ExponentTriple, int] = {}
    for item in items:
        exp = (int(item["a"]), int(item["q2"]), int(item["t2"]))
        if exp in terms:
            raise ValueError(f"duplicate term {exp} in serialized polynomial")
        terms[exp] = int(item["c"])
    return LaurentPoly(terms)


def invariant_to_json(v: Invariant) -> dict:
    return {"num": poly_to_json(v.num), "one_minus_t_pow": v.dpow}


def invariant_json_text(v: Invariant) -> str:
    """The text of json.dumps(invariant_to_json(v), sort_keys=True), written
    directly: the encoder would first need a dict per term."""
    terms = ", ".join(
        [f'{{"a": {ea}, "c": "{c}", "q2": {q2}, "t2": {t2}}}' for (ea, q2, t2), c in v.num.sorted_items()]
    )
    return f'{{"num": [{terms}], "one_minus_t_pow": {v.dpow}}}'


def invariant_from_json(obj: Mapping) -> Invariant:
    return Invariant(poly_from_json(obj["num"]), int(obj["one_minus_t_pow"]))
