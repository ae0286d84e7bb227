import re
from functools import reduce
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from khr.dyck import DyckPath, KnotParams, coprime_pairs, enumerate_paths
from khr.formula import (
    _assemble,
    corner_product,
    euler_characteristic,
    genus,
    hhh_direct,
    hhh_path_term,
    normalization,
    path_data,
    path_record,
    path_summand,
    records,
    superpolynomial,
    term_factors,
)
from khr.laurent import A, Invariant, LaurentPoly, ONE, Q, T, ZERO, poly_sum, q_power
from khr.sweep import HHH_PROFILE, evaluate

mono = LaurentPoly.monomial
small_coprime = st.sampled_from(coprime_pairs(10))


def path(m, n, word):
    return DyckPath.from_string(KnotParams(m, n), word)


def link_params(m, n):
    # gcd(m, n) > 1 gets past KnotParams' check only this way
    params = object.__new__(KnotParams)
    object.__setattr__(params, "m", m)
    object.__setattr__(params, "n", n)
    return params


class TestNormalization:
    def test_genus_values(self):
        assert genus(KnotParams(3, 2)) == 1
        assert genus(KnotParams(1, 7)) == 0
        assert genus(KnotParams(4, 3)) == 3

    def test_prefactor_exponents(self):
        assert normalization(KnotParams(4, 3)) == mono(1, ea=3, q2=3, t2=-3)

    def test_genus_parity_raises(self):
        with pytest.raises(ValueError, match="odd"):
            genus(SimpleNamespace(m=2, n=2))


class TestPathSummand:
    def test_examples(self):
        assert path_summand(path(3, 2, "NNEEE")) == T
        assert path_summand(path(3, 2, "NENEE")) == mono(1, q2=2) - A
        assert path_summand(path(1, 4, "NNNNE")) == ONE

    def test_rewritten_term_is_q_genus_shift(self):
        # prod(q^k - a) = q^(sum k) prod(1 - a q^(-k)), so the shapes differ
        # by q^(-genus) exactly
        p = path(3, 2, "NENEE")
        assert hhh_path_term(p) == q_power(-1) * path_summand(p)
        p2 = path(3, 2, "NNEEE")
        assert hhh_path_term(p2) == q_power(-1) * path_summand(p2)


class TestHhhDirect:
    def test_trefoil(self):
        expected = Invariant(q_power(-1) * (T + mono(1, q2=2) - A), 1)
        assert hhh_direct(KnotParams(3, 2)) == expected
        assert hhh_direct(KnotParams(2, 3)) == expected

    def test_unknots(self):
        for n in (1, 2, 5, 9):
            assert hhh_direct(KnotParams(1, n)) == Invariant(ONE, 1)

    @given(small_coprime)
    @settings(max_examples=30, deadline=None)
    def test_even_series(self, params):
        assert hhh_direct(params).num.is_even_series()

    @given(small_coprime)
    @settings(max_examples=20, deadline=None)
    def test_matches_sweep_totals(self, params):
        assert hhh_direct(params) == evaluate(params, HHH_PROFILE).total


class TestSuperpolynomial:
    def test_unknot_family(self):
        for n in (1, 4, 20):
            assert superpolynomial(KnotParams(1, n)) == Invariant(ONE, 1)

    def test_trefoil(self):
        expected = Invariant(
            mono(1, ea=1, q2=-1, t2=-1) * (mono(1, q2=2) + T - A), 1
        )
        assert superpolynomial(KnotParams(3, 2)) == expected
        assert superpolynomial(KnotParams(2, 3)) == expected

    @given(small_coprime)
    @settings(max_examples=20, deadline=None)
    def test_mn_symmetry(self, params):
        assert superpolynomial(params) == superpolynomial(params.swapped())

    @given(small_coprime)
    @settings(max_examples=20, deadline=None)
    def test_alternating_a_signs_above_genus(self, params):
        g = genus(params)
        for (ea, _, _), c in superpolynomial(params).num.items():
            assert (c > 0) == ((ea - g) % 2 == 0)


class TestEulerCharacteristic:
    def test_unknot_fixed(self):
        v = superpolynomial(KnotParams(1, 5))
        assert euler_characteristic(v) == v

    def test_trefoil_negated(self):
        v = superpolynomial(KnotParams(3, 2))
        assert euler_characteristic(v) == Invariant(-v.num, v.dpow)

    def test_zero(self):
        assert euler_characteristic(Invariant(ZERO, 0)) == Invariant(ZERO, 0)


class TestCornerProducts:
    """Each k-multiset's expansion against a plain LaurentPoly product fold."""

    ks_lists = st.lists(st.integers(min_value=-4, max_value=15), max_size=9)

    @given(ks_lists)
    @settings(max_examples=100, deadline=None)
    def test_hhh_product(self, ks):
        fold = reduce(lambda acc, k: acc * (q_power(k) - A), ks, ONE)
        assert _assemble([(0, sum(ks), tuple(ks))], 0) == fold


class TestPathData:
    @given(small_coprime)
    @settings(max_examples=20, deadline=None)
    def test_aligned_with_enumeration(self, params):
        paths = enumerate_paths(params)
        assert path_data(params) == tuple(path_record(p) for p in paths)
        # each factored term, multiplied out, is the per-path reference term
        g = genus(params)
        factored = (term_factors(record, g) for record in path_data(params))
        assert [corner_product(ks).times_monomial(*shift) for ks, shift in factored] == [
            hhh_path_term(p) for p in paths
        ]

    def test_walk_matches_per_path_records(self):
        # the walk against the per-path reference, record by record, and
        # hhh_direct against the sum of the reference records
        for params in coprime_pairs(16):
            expected = tuple(path_record(p) for p in enumerate_paths(params))
            assert tuple(records(params)) == expected, params
            assert hhh_direct(params) == Invariant(_assemble(expected, genus(params)), 1)

    def test_direct_matches_per_path_sum(self):
        # hhh_direct against the per-path terms added up by poly_sum, which
        # shares no code with the records walk or _assemble's prefix pass
        for params in coprime_pairs(16):
            total = poly_sum(hhh_path_term(p) for p in enumerate_paths(params))
            assert hhh_direct(params) == Invariant(total, 1), params

    @pytest.mark.parametrize(
        "m, n, error, text",
        [
            (2, 2, RuntimeError, "corner distances collide: [2, 2]"),
            (3, 3, RuntimeError, "degenerate offset-interval contact"),
            (4, 2, ValueError, "crossing counts at (0, 1) disagree (1 vertical, 0 horizontal)"),
            (2, 4, ValueError, "crossing counts at (1, 4) disagree (0 vertical, 1 horizontal)"),
            (6, 4, ValueError, "crossing counts at (3, 4) disagree (0 vertical, 1 horizontal)"),
            (4, 6, ValueError, "crossing counts at (2, 6) disagree (0 vertical, 1 horizontal)"),
            (9, 6, ValueError, "crossing counts at (3, 6) disagree (0 vertical, 1 horizontal)"),
        ],
    )
    def test_walk_guards(self, m, n, error, text):
        # links (gcd > 1) put lattice points on shared diagonals, which
        # trips each of the walk's guards
        with pytest.raises(error, match=re.escape(text)):
            tuple(records(link_params(m, n)))

    def test_record_shape(self):
        # NENEE: hplus 1, area 0, one trimmed corner (0, 1) with k = 1
        assert path_record(path(3, 2, "NENEE")) == (0, 1, (1,))
        assert path_record(path(3, 2, "NNEEE")) == (1, 0, ())


class TestAssemble:
    """_assemble's pass over shared k-prefixes against summands written out
    by hand: a record (area, hplus, ks) stands for
    t^area q^(hplus - g - sum ks) prod (q^k - a)."""

    def test_no_records(self):
        assert _assemble([], 0) == ZERO

    def test_empty_k_tuple(self):
        assert _assemble([(2, 3, ())], 1) == mono(1, q2=4, t2=4)

    def test_repeated_records(self):
        # (1, 2, (1,)) three times: 3 t q^(2-1) (q - a) with g = 0
        expected = 3 * T * Q * (Q - A)
        assert _assemble([(1, 2, (1,))] * 3, 0) == expected
        assert _assemble([(0, 0, ()), (1, 2, (1,)), (0, 0, ())] * 2, 0) == 4 + 2 * T * Q * (Q - A)

    def test_sibling_tuples(self):
        # (1, 2) and (1, 3) share the prefix (1,), which also has a record
        # of its own; with g = 0 every q-shift below is q^0
        records = [(0, 1, (1,)), (1, 3, (1, 2)), (2, 4, (1, 3))]
        a2 = mono(1, ea=2)
        first = Q - A
        with_two = T * (mono(1, q2=6) - A * Q * Q - A * Q + a2)
        with_three = T * T * (mono(1, q2=8) - mono(1, ea=1, q2=6) - A * Q + a2)
        assert _assemble(records, 0) == first + with_two + with_three
        # without the prefix's own record, and in the other order
        assert _assemble(records[:0:-1], 0) == with_two + with_three


class TestComputePath:
    def test_builds_no_dyck_path(self, monkeypatch):
        def refuse(self):
            raise AssertionError(f"built {self.columns}")

        params = KnotParams(9, 5)
        for cache in (enumerate_paths, path_data, hhh_direct):
            cache.cache_clear()
        monkeypatch.setattr(DyckPath, "__post_init__", refuse)
        hhh_direct(params)
        euler_characteristic(superpolynomial(params))
        assert enumerate_paths.cache_info().misses == 0
        assert path_data.cache_info().currsize == 0


class TestBoundedCaches:
    def test_currsize_stays_within_maxsize(self):
        caches = (enumerate_paths, path_data, hhh_direct)
        bound = max(cache.cache_info().maxsize for cache in caches)
        knots = coprime_pairs(12)
        assert len(knots) > bound
        for params in knots:
            superpolynomial(params)
            path_data(params)
            enumerate_paths(params)
            for cache in caches:
                info = cache.cache_info()
                assert info.maxsize is not None
                assert info.currsize <= info.maxsize
