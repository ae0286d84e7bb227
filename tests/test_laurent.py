import functools
import json
import operator
import re

import pytest
from hypothesis import given, strategies as st

import khr.laurent
from khr.dyck import coprime_pairs
from khr.formula import euler_characteristic, hhh_direct, superpolynomial
from khr.laurent import (
    A,
    Invariant,
    LaurentPoly,
    ONE,
    Q,
    T,
    ZERO,
    divide_exact_by_one_minus_t,
    invariant_from_json,
    invariant_json_text,
    invariant_to_json,
    monomial_ratio,
    poly_from_json,
    poly_sum,
    poly_to_json,
    q_power,
    specialize_count,
)

mono = LaurentPoly.monomial


@st.composite
def polys(draw):
    n_terms = draw(st.integers(0, 6))
    terms = {}
    for _ in range(n_terms):
        exp = (draw(st.integers(-3, 3)), draw(st.integers(-6, 6)), draw(st.integers(-6, 6)))
        terms[exp] = draw(st.integers(-20, 20))
    return LaurentPoly(terms)


@st.composite
def parity_coherent_polys(draw):
    n_terms = draw(st.integers(0, 6))
    terms = {}
    for _ in range(n_terms):
        parity = draw(st.integers(0, 1))
        exp = (
            draw(st.integers(-3, 3)),
            2 * draw(st.integers(-3, 3)) + parity,
            2 * draw(st.integers(-3, 3)) + parity,
        )
        terms[exp] = draw(st.integers(-20, 20))
    return LaurentPoly(terms)


class TestPolySum:
    @given(st.lists(polys(), max_size=8))
    def test_matches_pairwise_fold(self, ps):
        assert poly_sum(ps) == functools.reduce(operator.add, ps, ZERO)

    @given(st.lists(polys(), max_size=4))
    def test_cancels_to_zero(self, ps):
        # each polynomial and its negation: every coefficient cancels
        both = ps + [-p for p in reversed(ps)]
        assert poly_sum(both) == functools.reduce(operator.add, both, ZERO) == ZERO

    def test_accepts_generators(self):
        assert poly_sum(q_power(k) for k in range(3)) == ONE + Q + Q * Q


class TestHashing:
    def test_constants_hash_like_their_ints(self):
        for c in (0, 1, -1, 7, 10**30):
            const = mono(c)
            assert const == c
            assert hash(const) == hash(c)
            assert len({c, const}) == 1
            assert c in {const: "x"} and const in {c: "x"}
        assert hash(ZERO) == hash(0) and hash(ONE) == hash(1)

    def test_term_order_does_not_change_the_hash(self):
        assert hash(Q + T - 2) == hash(-2 + T + Q)


class TestArithmetic:
    def test_add_cancellation(self):
        assert (Q + T) + (-T) == Q

    def test_add_identity(self):
        p = Q - A + 5 * T
        assert p + ZERO == p

    def test_add_trefoil_numerator_pieces(self):
        # the two path contributions of the simplest nontrivial knot
        assert (Q - A) + T == Q + T - A

    def test_mul_expansion(self):
        assert Q * (ONE - A * q_power(-1)) == Q - A

    def test_mul_inverse_half_monomials(self):
        qt_minus = mono(1, q2=-1, t2=-1)
        qt_plus = mono(1, q2=1, t2=1)
        assert qt_minus * qt_plus == ONE

    def test_mul_binomials(self):
        assert (ONE - A) * (ONE - T) == ONE - A - T + A * T

    @given(polys(), polys())
    def test_add_commutes(self, p, r):
        assert p + r == r + p

    @given(polys(), polys(), polys())
    def test_add_associates(self, p, r, s):
        assert (p + r) + s == p + (r + s)

    @given(polys(), polys())
    def test_mul_commutes(self, p, r):
        assert p * r == r * p

    @given(polys(), polys(), polys())
    def test_mul_associates(self, p, r, s):
        assert (p * r) * s == p * (r * s)

    @given(polys(), polys(), polys())
    def test_mul_distributes(self, p, r, s):
        assert p * (r + s) == p * r + p * s


def convolve(p, r):
    """p * r summed term by term, without LaurentPoly.__mul__."""
    out = {}
    for (a1, q1, t1), c1 in p.items():
        for (a2, q2, t2), c2 in r.items():
            key = (a1 + a2, q1 + q2, t1 + t2)
            out[key] = out.get(key, 0) + c1 * c2
    return LaurentPoly(out)


class TestMonomialProduct:
    """A one-term factor multiplies by shifting every key."""

    @given(
        polys(),
        st.integers(-3, 3),
        st.integers(-6, 6),
        st.integers(-6, 6),
        st.integers(-20, 20).filter(bool),
    )
    def test_matches_convolution(self, p, ea, q2, t2, c):
        m = mono(c, ea, q2, t2)
        expected = convolve(p, m)
        for product in (p * m, m * p):
            assert product == expected
            assert all(type(exp) is tuple for exp, _ in product.items())

    @given(polys(), st.integers(-20, 20))
    def test_scalar_matches_convolution(self, p, c):
        expected = convolve(p, LaurentPoly({(0, 0, 0): c}))
        assert c * p == p * c == expected
        assert not (0 * p)

    @given(st.integers(-3, 3), st.integers(-6, 6), st.integers(-6, 6), st.integers(-20, 20).filter(bool))
    def test_zero_polynomial(self, ea, q2, t2, c):
        m = mono(c, ea, q2, t2)
        assert len(ZERO * m) == len(m * ZERO) == 0
        assert m * m == convolve(m, m)


class TestPlainKeys:
    def test_every_operation_makes_plain_tuples(self):
        p = Q + T - A
        half = mono(1, ea=1, q2=-1, t2=-1)
        made = {
            "constructor": LaurentPoly({(1, 2, 3): 4}),
            "monomial": mono(2, ea=1, q2=-3, t2=5),
            "mul by a monomial": p * half,
            "mul by a monomial on the left": half * p,
            "mul": p * (ONE - T),
            "add": p + T,
            "poly_sum": poly_sum([p, T, half]),
            "swap_qt": (p * half).swap_qt(),
            "euler_sign": (p * half).euler_sign(),
            "divide_exact_by_one_minus_t": divide_exact_by_one_minus_t(p * (ONE - T)),
            "poly_from_json": poly_from_json(poly_to_json(p * half)),
        }
        for name, poly in made.items():
            assert poly, name
            assert all(type(exp) is tuple for exp, _ in poly.items()), name


class TestStructureMaps:
    def test_swap_qt_symmetric_input(self):
        assert (Q + T).swap_qt() == Q + T

    def test_swap_qt_moves_powers(self):
        assert (Q * Q + Q * T).swap_qt() == T * T + Q * T

    def test_swap_qt_fixes_trefoil_numerator(self):
        p = Q + T - A
        assert p.swap_qt() == p

    @given(polys())
    def test_swap_qt_involution(self, p):
        assert p.swap_qt().swap_qt() == p

    def test_euler_sign_even_terms(self):
        p = ONE + Q * T
        assert p.euler_sign() == p

    def test_euler_sign_single_odd_term(self):
        p = mono(1, ea=1, q2=-1, t2=-1)
        assert p.euler_sign() == -p

    def test_euler_sign_trefoil_numerator(self):
        p = mono(1, ea=1, q2=-1, t2=-1) * (Q + T - A)
        assert p.euler_sign() == -p

    def test_euler_sign_rejects_mixed_parity(self):
        with pytest.raises(ValueError):
            mono(1, q2=1).euler_sign()

    @given(parity_coherent_polys())
    def test_euler_sign_involution(self, p):
        assert p.euler_sign().euler_sign() == p

    def test_is_even_series(self):
        assert (q_power(-1) * (Q + T - A)).is_even_series()
        assert not mono(1, q2=1).is_even_series()
        assert ZERO.is_even_series()


class TestMonomialRatio:
    def test_plain_monomials(self):
        assert monomial_ratio(2 * Q * Q, 2 * Q) == Q

    def test_not_a_multiple(self):
        assert monomial_ratio(Q + T, Q) is None

    def test_binomial_shift(self):
        base = Q + T - A
        assert monomial_ratio(Q * base, base) == Q

    def test_negative_scalar(self):
        base = Q + T - A
        assert monomial_ratio(-3 * base, base) == mono(-3)

    def test_zero_numerator(self):
        assert monomial_ratio(ZERO, Q) is None

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            monomial_ratio(Q, ZERO)

    @given(polys(), st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4), st.sampled_from([-3, -1, 1, 2]))
    def test_recovers_shift(self, p, ea, q2, t2, c):
        if not p:
            return
        shifted = p * mono(c, ea=ea, q2=q2, t2=t2)
        assert monomial_ratio(shifted, p) == mono(c, ea=ea, q2=q2, t2=t2)


class TestDivision:
    def test_exact_quotients(self):
        assert divide_exact_by_one_minus_t(ONE - T) == ONE
        assert divide_exact_by_one_minus_t(ONE - T * T) == ONE + T
        assert divide_exact_by_one_minus_t(ZERO) == ZERO

    def test_rejects_non_multiples(self):
        with pytest.raises(ValueError):
            divide_exact_by_one_minus_t(ONE + T)
        with pytest.raises(ValueError):
            divide_exact_by_one_minus_t(ONE)

    @given(polys())
    def test_round_trip(self, p):
        assert divide_exact_by_one_minus_t(p * (ONE - T)) == p


class TestInvariant:
    def test_canonical_form_cancels(self):
        assert Invariant((ONE - T) * Q, 1) == Invariant(Q, 0)

    def test_canonical_form_stops_at_zero_power(self):
        v = Invariant((ONE - T) * (ONE - T), 1)
        assert v == Invariant(ONE - T, 0)

    def test_zero_numerator_normalizes(self):
        assert Invariant(ZERO, 3) == Invariant(ZERO, 0)

    def test_addition_aligns_denominators(self):
        # x/(1-t) + y = (x + y(1-t))/(1-t)
        total = Invariant(Q, 1) + Invariant(T, 0)
        assert total == Invariant(Q + T * (ONE - T), 1)

    def test_addition_across_a_gap_of_three(self):
        # x/(1-t)^3 + y = (x + y(1-t)^3)/(1-t)^3, in either order
        cube = (ONE - T) * (ONE - T) * (ONE - T)
        expected = Invariant(Q + T * cube, 3)
        assert expected.dpow == 3
        assert Invariant(Q, 3) + Invariant(T, 0) == expected
        assert Invariant(T, 0) + Invariant(Q, 3) == expected

    def test_scaling(self):
        assert Invariant(Q, 1) * T == Invariant(Q * T, 1)

    def test_one_term_multiplier_keeps_lowest_terms(self, monkeypatch):
        # a one-term nonzero multiplier tries no division by (1 - t); any
        # other multiplier retries it, and a zero product has power 0
        calls = []
        divide = khr.laurent.divide_exact_by_one_minus_t

        def counting_divide(p):
            calls.append(p)
            return divide(p)

        monkeypatch.setattr(khr.laurent, "divide_exact_by_one_minus_t", counting_divide)
        v = Invariant(Q + T, 2)
        for factor in (T, -3, mono(2, ea=1, q2=-1, t2=5)):
            calls.clear()
            products = [v * factor] + ([factor * v] if isinstance(factor, int) else [])
            assert calls == []
            expected = Invariant((Q + T) * factor, 2)
            assert all((p.num, p.dpow) == (expected.num, expected.dpow) for p in products)
        w = Invariant(Q, 1)
        calls.clear()
        assert w * (ONE - T) == Invariant(Q, 0)
        assert calls == [Q - Q * T]
        assert (v * 0).dpow == 0 and (v * ZERO).dpow == 0 and not (v * 0).num
        assert (v * (Q - Q)).dpow == 0

    @given(polys(), st.integers(0, 2))
    def test_json_round_trip(self, p, d):
        v = Invariant(p, d)
        assert invariant_from_json(invariant_to_json(v)) == v

    @given(polys())
    def test_poly_json_round_trip(self, p):
        assert poly_from_json(poly_to_json(p)) == p

    def test_json_coefficients_are_strings(self):
        big = 10**30
        data = poly_to_json(mono(big, ea=1))
        assert data == [{"a": 1, "q2": 0, "t2": 0, "c": str(big)}]
        assert poly_from_json(data) == mono(big, ea=1)


def encoder_text(v):
    return json.dumps(invariant_to_json(v), sort_keys=True)


class TestJsonText:
    @pytest.mark.parametrize("params", coprime_pairs(14), ids=str)
    def test_matches_the_encoder_on_every_form(self, params):
        p = superpolynomial(params)
        for v in (p, hhh_direct(params), euler_characteristic(p)):
            assert invariant_json_text(v) == encoder_text(v)

    @pytest.mark.parametrize(
        "v",
        [
            Invariant(ZERO, 0),
            Invariant(ONE, 0),
            Invariant(mono(-3, ea=-2, q2=-7, t2=-1) + mono(5, q2=3), 0),
            Invariant(mono(2**64 + 1, ea=1) - mono(3**70, t2=-5), 2),
        ],
        ids=["zero", "one", "negative-exponents", "beyond-2^64"],
    )
    def test_matches_the_encoder_on_edge_cases(self, v):
        assert invariant_json_text(v) == encoder_text(v)
        assert invariant_from_json(json.loads(invariant_json_text(v))) == v

    @given(polys(), st.integers(0, 2))
    def test_matches_the_encoder(self, p, d):
        v = Invariant(p, d)
        assert invariant_json_text(v) == encoder_text(v)


class TestSpecializeCount:
    def test_trefoil_numerator(self):
        assert specialize_count(Invariant(Q + T - A, 1)) == 2

    def test_unknot(self):
        assert specialize_count(Invariant(ONE, 1)) == 1

    @given(polys())
    def test_matches_term_iteration(self, p):
        expected = sum(c for (ea, _, _), c in p.items() if ea == 0)
        assert specialize_count(Invariant(p, 0)) == expected


FACTOR = {
    False: re.compile(r"([aqt])(?:\^(-?\d+)|\^\((-?\d+)/2\))?"),
    True: re.compile(r"([aqt]|\(qt\))(?:\^\{(-?\d+)\}|\^\{(-?\d+)/2\})?"),
}


def parse(rendered, latex):
    """The polynomial that a text() (latex=False) or latex() rendering
    spells, read back one factor at a time; (qt) adds to both q and t."""
    if rendered == "0":
        return ZERO
    pieces = re.split(r" ([+-]) ", rendered)
    first = pieces.pop(0)
    pieces = ["-", first[1:]] + pieces if first.startswith("-") else ["+", first] + pieces
    terms = {}
    for sign, body in zip(pieces[::2], pieces[1::2]):
        coeff, doubled = (1 if sign == "+" else -1), {"a": 0, "q": 0, "t": 0}
        for factor in body.split(" " if latex else "*"):
            if factor.isdigit():
                coeff *= int(factor)
                continue
            sym, whole, half = FACTOR[latex].fullmatch(factor).groups()
            power = int(half) if half else 2 * int(whole or 1)
            for s in ("q", "t") if sym == "(qt)" else (sym,):
                doubled[s] += power
        exp = (doubled["a"] // 2, doubled["q"], doubled["t"])
        assert doubled["a"] % 2 == 0 and exp not in terms
        terms[exp] = coeff
    return LaurentPoly(terms)


class TestRendering:
    @given(polys())
    def test_text_round_trip(self, p):
        assert parse(p.text(), latex=False) == p

    @given(polys())
    def test_latex_round_trip(self, p):
        assert parse(p.latex(), latex=True) == p

    def test_parse_reads_hand_examples(self):
        assert parse("-2*a^2*q^(-1/2)*t^(3/2)", latex=False) == mono(-2, ea=2, q2=-1, t2=3)
        assert parse("a (qt)^{-1/2} - 3 q^{-2}", latex=True) == mono(1, ea=1, q2=-1, t2=-1) - mono(3, q2=-4)

    def test_text_zero(self):
        assert ZERO.text() == "0"

    def test_text_half_powers(self):
        assert mono(-2, ea=2, q2=-1, t2=3).text() == "-2*a^2*q^(-1/2)*t^(3/2)"

    def test_latex_qt_factoring(self):
        assert mono(1, ea=1, q2=-1, t2=-1).latex() == "a (qt)^{-1/2}"
        assert mono(1, q2=3, t2=1).latex() == "(qt)^{1/2} q"

    def test_latex_denominator(self):
        assert Invariant(ONE, 1).latex() == "\\frac{1}{1-t}"

    def test_text_order_is_deterministic(self):
        # lexicographic on (ea, q2, t2): t before q before a
        p = T + Q + A
        assert p.text() == "t + q + a"
