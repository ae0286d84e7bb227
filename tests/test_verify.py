import json
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import khr.verify
from khr.dyck import KnotParams, coprime_pairs, enumerate_paths, rational_catalan, suffix_counts
from khr.formula import corner_product, hhh_direct, hhh_path_term, path_data
from khr.laurent import A, Invariant, LaurentPoly, ONE, T, monomial_ratio, poly_sum, q_power
from khr.sweep import HHH_PROFILE, TORIC_PROFILE, evaluate
from khr.verify import (
    catalan_check,
    cross_check,
    identity_suite,
    leaf_ratio_report,
    report_lines,
    run_suite,
    symmetry_checks,
)

from .branch_walk import branches_by_path

small_coprime = st.sampled_from(coprime_pairs(10))


def sign_structure_ok(params: KnotParams) -> bool:
    """In the unnormalized numerator every a^j coefficient carries sign
    (-1)^j.  That numerator is q^(-genus) times the sum of the display
    summands t^area q^hplus prod (1 - a q^(-k)), and the normalized one is
    a^genus q^(genus/2) t^(-genus/2) times it, so the normalized signs
    alternate starting from + at a-degree genus."""
    series = hhh_direct(params)
    if series.dpow != 1:
        raise RuntimeError(
            f"unnormalized series of {params} is over (1-t)^{series.dpow}, not (1-t)"
        )
    return all((c > 0) == (ea % 2 == 0) for (ea, _, _), c in series.num.items())


class TestIdentitySuite:
    def test_trefoil_rows(self):
        rows = {row["path"]: row for row in identity_suite(KnotParams(3, 2))["paths"]}
        keep = rows["NNEEE"]
        # genus 1: i3 reads hplus + k_interior = 0 + 1, i1 reads interior + opairs
        assert keep["hplus"] == 0 and keep["k_interior"] == 1
        assert keep["interior"] + keep["opairs"] == 1
        assert keep["i1"] and keep["i3"]
        split = rows["NENEE"]
        assert split["hplus"] == 1 and split["k_interior"] == 0
        assert split["i3"]
        assert split["k_inner"] == 1 and split["k_outer_trimmed"] == 1
        assert split["i4"]

    def test_unknot_row(self):
        (row,) = identity_suite(KnotParams(1, 1))["paths"]
        assert row["interior"] == 0 and row["opairs"] == 0 and row["i1"]

    def test_reads_hplus_from_path_data(self, monkeypatch):
        params = KnotParams(5, 3)
        records = list(path_data(params))
        area, hplus, ks = records[2]
        records[2] = (area, hplus + 1, ks)
        monkeypatch.setattr(khr.verify, "path_data", lambda p: tuple(records))
        suite = identity_suite(params)
        assert [row["i3"] for row in suite["paths"]] == [True, True, False, True, True, True, True]
        assert not suite["pass"]

    @given(small_coprime)
    @settings(max_examples=40, deadline=None)
    def test_all_identities_hold(self, params):
        suite = identity_suite(params)
        assert all(row["i1"] and row["i2"] and row["i3"] and row["i4"] for row in suite["paths"])
        assert suite["pass"]


class TestCrossCheck:
    def test_trefoil(self):
        check = cross_check(KnotParams(3, 2))
        assert check["pass"] and check["leaf_count"] == 2

    def test_unknot_family(self):
        for n in (1, 7, 20):
            assert cross_check(KnotParams(1, n))["pass"]

    def test_53_leaf_count(self):
        check = cross_check(KnotParams(5, 3))
        assert check["pass"] and check["leaf_count"] == 7


class TestCatalan:
    def test_examples(self):
        assert catalan_check(KnotParams(3, 2))["got"] == 2
        assert catalan_check(KnotParams(1, 1))["got"] == 1
        assert catalan_check(KnotParams(5, 2))["got"] == 3

    @given(small_coprime)
    @settings(max_examples=40, deadline=None)
    def test_specialization_counts_paths(self, params):
        assert catalan_check(params)["pass"]


class TestSymmetry:
    def test_examples(self):
        assert symmetry_checks(KnotParams(3, 2))["pass"]
        assert symmetry_checks(KnotParams(1, 1))["pass"]
        assert symmetry_checks(KnotParams(5, 3))["pass"]


class TestLeafRatios:
    def test_trefoil_table(self):
        report = leaf_ratio_report(KnotParams(3, 2))
        ratios = {leaf["path"]: leaf["ratio"] for leaf in report["leaves"]}
        assert ratios == {"NNEEE": "q", "NENEE": "q^(3/2)"}
        assert report["all_monomial"] and report["pass"]
        assert not report["shares_global_monomial"]
        assert report["single_interval_prediction"] == "q^(-1/2)"
        # one interval on n strands predicts (-1)^n q^((1-n)/2)
        for (m, n), expected in (
            ((1, 1), "-1"),
            ((2, 3), "-q^-1"),
            ((5, 3), "-q^-1"),
            ((5, 4), "q^(-3/2)"),
            ((4, 7), "-q^-3"),
        ):
            report = leaf_ratio_report(KnotParams(m, n))
            assert report["single_interval_prediction"] == expected, (m, n)

    def test_unknot_single_leaf(self):
        report = leaf_ratio_report(KnotParams(1, 1))
        (leaf,) = report["leaves"]
        assert leaf["ratio"] == "-1"
        assert report["shares_global_monomial"]

    @given(small_coprime)
    @settings(max_examples=20, deadline=None)
    def test_all_ratios_are_monomials(self, params):
        assert leaf_ratio_report(params)["all_monomial"]


class TestSignStructure:
    @given(small_coprime)
    @settings(max_examples=30, deadline=None)
    def test_alternation(self, params):
        assert sign_structure_ok(params)

    def test_flipped_signs_detected(self, monkeypatch):
        series = hhh_direct(KnotParams(3, 2))
        monkeypatch.setitem(globals(), "hhh_direct", lambda params: Invariant(-series.num, 1))
        assert not sign_structure_ok(KnotParams(3, 2))

    def test_series_not_over_one_minus_t_raises(self, monkeypatch):
        monkeypatch.setitem(globals(), "hhh_direct", lambda params: Invariant(ONE, 0))
        with pytest.raises(RuntimeError, match="not \\(1-t\\)"):
            sign_structure_ok(KnotParams(3, 2))


class TestReport:
    def test_full_suite_passes(self):
        report = run_suite(KnotParams(4, 3))
        assert report["overall_pass"]
        assert report["identities"]["pass"]
        assert report["cross_check"]["pass"] and report["catalan"]["pass"]

    def test_suite_selection(self):
        report = run_suite(KnotParams(3, 2), suites={"catalan"})
        assert "identities" not in report and "cross_check" not in report
        assert report["catalan"]["pass"]
        assert report["overall_pass"]

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suite(KnotParams(3, 2), suites={"bogus"})

    def test_empty_suite_selection_rejected(self):
        # an empty selection would pass with nothing checked
        with pytest.raises(ValueError, match="no suites selected"):
            run_suite(KnotParams(3, 2), suites=set())

    def test_suite_selection_takes_any_iterable(self):
        for suites in (["cross", "catalan"], ("catalan", "cross")):
            report = run_suite(KnotParams(3, 2), suites=suites)
            assert "cross_check" in report and "catalan" in report
            assert "identities" not in report and report["overall_pass"]
        for suites in (["bogus"], ("catalan", "bogus")):
            with pytest.raises(ValueError, match="unknown suites"):
                run_suite(KnotParams(3, 2), suites=suites)
        for suites in ([], ()):
            with pytest.raises(ValueError, match="no suites selected"):
                run_suite(KnotParams(3, 2), suites=suites)

    def test_external_demotion_flag(self):
        strict = run_suite(KnotParams(3, 2))
        lax = run_suite(KnotParams(3, 2), external_strict=False)
        assert strict["overall_pass"] and lax["overall_pass"]
        assert strict["external_strict"] and not lax["external_strict"]

    def test_json_and_text_render(self):
        report = run_suite(KnotParams(3, 2))
        data = json.loads(json.dumps(report, sort_keys=True))
        assert data == report
        assert data["overall_pass"] is True
        assert data["catalan"]["expected"] == 2
        assert data["symmetry"]["label"] == "external property"
        assert data["leaf_ratios"]["shares_global_monomial"] is False
        # the exact key set of every section, identity row and ratio leaf
        header = {"m", "n", "overall_pass", "external_strict"}
        sections = {
            "identities": {"pass", "paths"},
            "cross_check": {"pass", "total_match", "leaf_count", "expected_leaf_count", "mismatches"},
            "catalan": {"pass", "expected", "got"},
            "symmetry": {"pass", "mn_symmetric", "qt_symmetric", "label"},
            "leaf_ratios": {"pass", "all_monomial", "shares_global_monomial", "single_interval_prediction", "leaves"},
        }
        assert set(data) == header | set(sections)
        for key, keys in sections.items():
            assert set(data[key]) == keys, key
        row_keys = {"path", "i1", "i2", "i3", "i4", "interior", "opairs", "hplus", "k_interior", "k_inner", "k_outer_trimmed"}
        assert [set(row) for row in data["identities"]["paths"]] == [row_keys] * 2
        assert [set(leaf) for leaf in data["leaf_ratios"]["leaves"]] == [{"path", "is_monomial", "ratio"}] * 2
        # a --suite selection keeps only the selected sections
        section_of = {
            "identities": "identities",
            "cross": "cross_check",
            "catalan": "catalan",
            "symmetry": "symmetry",
            "ratios": "leaf_ratios",
        }
        for selection in ({"identities"}, {"cross"}, {"catalan"}, {"symmetry"}, {"ratios"}, {"cross", "ratios"}):
            selected = run_suite(KnotParams(3, 2), suites=selection)
            assert set(selected) == header | {section_of[name] for name in selection}
        lines = report_lines(report)
        assert lines[0] == "verification of (3,2)"
        assert any("overall: pass" in line for line in lines)


class TestLeafRatio:
    # the one relation both per-leaf suites ask: leaf over leaf, each kept
    # factored as (key, monomial), as a signed monomial
    path = enumerate_paths(KnotParams(3, 2))[0]

    def test_needs_unit_coefficients(self):
        # a leaf monomial with coefficient 2 has no +-1 inverse to scale its
        # pair's ratio by
        ratio = khr.verify._leaf_ratio(lambda key: ONE, lambda key: ONE - A)
        assert ratio(self.path, ((), (-1, 0, 0, 0)), ((), (1, 0, 0, 0))) is None
        with pytest.raises(RuntimeError, match="^the leaf monomials of NNEEE have coefficients 2 and 1$"):
            ratio(self.path, ((), (1, 0, 0, 0)), ((), (2, 0, 0, 0)))

    # q (q - a) is q times corner_product((1,)) = q - a, and q^2 - a is no
    # monomial times it
    products = {
        "shifted": LaurentPoly.monomial(1, q2=2) * (q_power(1) - A),
        "other": q_power(2) - A,
    }
    corner = ((1,), (1, 0, 2, 0))

    def cross_ratio(self, calls):
        def num_product(key):
            calls.append(key)
            return self.products[key]

        return khr.verify._leaf_ratio(num_product, corner_product)

    def test_equal_leaves_give_one(self):
        # q (q - a) times 1 is (q - a) times q: the ratio is exactly 1, so
        # the cross-check passes this leaf
        leaf = ("shifted", (1, 0, 0, 0))
        ks, shift = self.corner
        assert self.products["shifted"] == corner_product(ks).times_monomial(*shift)
        assert self.cross_ratio([])(self.path, leaf, self.corner) == (1, 0, 0, 0)

    def test_other_monomial_is_a_mismatch(self):
        # the same products under other leaf monomials: a ratio other than 1
        ratio = self.cross_ratio([])
        assert ratio(self.path, ("shifted", (-1, 0, 0, 0)), self.corner) == (-1, 0, 0, 0)
        assert ratio(self.path, ("shifted", (1, 1, 0, 2)), self.corner) == (1, 1, 0, 2)
        assert ratio(self.path, ("shifted", (1, 0, 0, 0)), ((1,), (-1, 0, 0, 0))) == (-1, 0, 2, 0)

    def test_no_monomial_ratio(self):
        # no monomial takes q - a to q^2 - a, under any leaf monomials, and
        # each key pair's products are divided once
        calls = []
        ratio = self.cross_ratio(calls)
        assert ratio(self.path, ("other", (1, 0, 0, 0)), self.corner) is None
        assert ratio(self.path, ("other", (-1, 2, 4, 6)), ((1,), (1, 0, 0, 0))) is None
        assert ratio(self.path, ("shifted", (1, 0, 0, 0)), self.corner) == (1, 0, 0, 0)
        assert calls == ["other", "shifted"]


class TestSharedSweep:
    def test_one_sweep_per_profile(self, monkeypatch):
        # one walk of the branches per knot carries every profile the
        # selected suites need, and a suite that needs no sweep walks none
        walks = []
        factored = []
        walk, factors = khr.sweep.branches, khr.verify.leaf_factors

        def counting_walk(params):
            walks.append((params, tuple(factored)))
            factored.clear()
            return walk(params)

        def counting_factors(profile):
            factored.append(profile.name)
            return factors(profile)

        monkeypatch.setattr(khr.sweep, "branches", counting_walk)
        monkeypatch.setattr(khr.verify, "leaf_factors", counting_factors)
        knots = [KnotParams(3, 2), KnotParams(5, 3)]
        for suites, names in (
            (None, ("HHH", "I")),
            ({"cross"}, ("HHH",)),
            ({"ratios"}, ("HHH", "I")),
            ({"catalan"}, None),
        ):
            walks.clear()
            for params in knots:
                assert run_suite(params, suites=suites)["overall_pass"]
            assert walks == ([] if names is None else [(p, names) for p in knots])
            assert factored == []

    def test_few_polynomial_products(self, monkeypatch):
        # a leaf's one-term weights only shift its exponents, and the leaves
        # stay factored, so the products left are one per key and profile,
        # one per key in the HHH total and one per key pair in the ratio
        # table: 278 at (9,7), where expanding every leaf took 939
        products = []
        multiply = LaurentPoly.__mul__

        def counting_mul(self, other):
            products.append(1)
            return multiply(self, other)

        monkeypatch.setattr(LaurentPoly, "__mul__", counting_mul)
        monkeypatch.setattr(LaurentPoly, "__rmul__", counting_mul)
        for cached in (enumerate_paths, path_data, hhh_direct):
            cached.cache_clear()
        assert run_suite(KnotParams(9, 7))["overall_pass"]
        assert 0 < len(products) < 400


class TestStreamedSweep:
    def test_sections_match_the_branch_reference(self):
        # each branch's numerators recomputed from its own steps, with no
        # memo and nothing factored (branch_walk): the HHH one is the closed
        # form's term of its path, and the ratio row is the monomial ratio
        # of the scalar one to (1-a) times the HHH one; each suite alone
        # gives the section of the two together
        one_minus_a = ONE - A
        for params in coprime_pairs(14):
            branches = branches_by_path(params, (HHH_PROFILE, TORIC_PROFILE))
            paths = enumerate_paths(params)
            assert sorted(branches) == sorted(str(path) for path in paths), params
            hhh_nums, rows = [], []
            for path in paths:
                _, _, (hhh, toric) = branches[str(path)]
                assert hhh == hhh_path_term(path), (params, str(path))
                hhh_nums.append(hhh)
                ratio = monomial_ratio(toric, one_minus_a * hhh)
                text = "not a monomial" if ratio is None else ratio.text()
                rows.append({"path": str(path), "is_monomial": ratio is not None, "ratio": text})
            assert Invariant(poly_sum(hhh_nums), 1) == hhh_direct(params), params
            count = rational_catalan(params)
            cross = cross_check(params)
            assert cross == {
                "pass": True,
                "total_match": True,
                "leaf_count": count,
                "expected_leaf_count": count,
                "mismatches": [],
            }, params
            ratios = leaf_ratio_report(params)
            assert ratios["leaves"] == rows, params
            assert ratios["pass"] == ratios["all_monomial"] == all(row["is_monomial"] for row in rows)
            assert ratios["shares_global_monomial"] == (
                ratios["all_monomial"] and len({row["ratio"] for row in rows}) <= 1
            )
            both = run_suite(params, suites={"cross", "ratios"})
            assert both["cross_check"] == cross and both["leaf_ratios"] == ratios, params

    def test_leaf_set_guard(self, monkeypatch):
        # the walk of (5,3) with one branch dropped, then with its first
        # branch repeated, then its last
        params = KnotParams(5, 3)
        walk = list(khr.sweep.branches(params))
        for edited, leaves in ((walk[1:], 6), (walk[:1] + walk, 2), (walk + walk[-1:], 8)):
            monkeypatch.setattr(khr.sweep, "branches", lambda params, edited=edited: iter(edited))
            for suites in ({"cross"}, {"ratios"}):
                with pytest.raises(RuntimeError, match=f"^{leaves} leaves, not one on each of the 7 paths$"):
                    run_suite(params, suites=suites)

    @pytest.mark.parametrize("edit", ["monomial", "key"])
    def test_tampered_factored_leaf(self, monkeypatch, edit):
        # the HHH leaf of rank 2 with its monomial times t, or with its key
        # emptied, its product then the base numerator 1: the mismatch
        # prints that leaf normalized, and the total no longer matches
        params = KnotParams(5, 3)
        rank = []
        monomials = []
        walk, factors = khr.verify.ranked_branches, khr.verify.leaf_factors

        def noting_walk(params):
            for leaf in walk(params):
                rank[:] = [leaf[0]]
                yield leaf

        def tampered_factors(profile):
            factor, product = factors(profile)

            def tampered(steps):
                key, monomial = factor(steps)
                if profile is not HHH_PROFILE or rank != [2]:
                    return key, monomial
                monomials.append(monomial)
                c, ea, q2, t2 = monomial
                return ((), monomial) if edit == "key" else (key, (c, ea, q2, t2 + 2))

            return tampered, product

        monkeypatch.setattr(khr.verify, "ranked_branches", noting_walk)
        monkeypatch.setattr(khr.verify, "leaf_factors", tampered_factors)
        check = run_suite(params, suites={"cross"})["cross_check"]
        path, num = evaluate(params, HHH_PROFILE).leaves[2]
        (monomial,) = monomials
        tampered = LaurentPoly.monomial(*monomial) if edit == "key" else num * T
        assert not check["pass"] and not check["total_match"] and check["leaf_count"] == 7
        assert check["mismatches"] == [f"{path}: sweep {Invariant(tampered, 1)}, closed form {Invariant(num, 1)}"]

    def test_streamed_memory(self):
        # no leaf is held: the peak of the two streamed suites at (9,7),
        # path records included, stays under 2 MB (3.1 MB holding leaves)
        for cached in (enumerate_paths, path_data, hhh_direct, suffix_counts):
            cached.cache_clear()
        tracemalloc.start()
        try:
            assert run_suite(KnotParams(9, 7), suites={"cross", "ratios"})["overall_pass"]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1024 * 1024
