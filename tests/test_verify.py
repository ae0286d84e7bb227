import json

import pytest
from hypothesis import given, settings, strategies as st

import khr.verify
from khr.dyck import KnotParams, coprime_pairs, enumerate_paths
from khr.formula import hhh_direct, path_data
from khr.laurent import Invariant, LaurentPoly, ONE, T
from khr.sweep import HHH_PROFILE, TORIC_PROFILE, Leaf, evaluate, evaluate_profiles
from khr.verify import (
    catalan_check,
    cross_check,
    identity_suite,
    leaf_ratio_report,
    report_lines,
    run_suite,
    symmetry_checks,
)

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


def both_sweeps(params):
    return evaluate_profiles(params, (HHH_PROFILE, TORIC_PROFILE))


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
        check = cross_check(KnotParams(3, 2), evaluate(KnotParams(3, 2), HHH_PROFILE))
        assert check["pass"] and check["leaf_count"] == 2

    def test_unknot_family(self):
        for n in (1, 7, 20):
            assert cross_check(KnotParams(1, n), evaluate(KnotParams(1, n), HHH_PROFILE))["pass"]

    def test_53_leaf_count(self):
        check = cross_check(KnotParams(5, 3), evaluate(KnotParams(5, 3), HHH_PROFILE))
        assert check["pass"] and check["leaf_count"] == 7

    def test_tampered_leaf_detected(self):
        # one leaf numerator off, the total untouched: the mismatch prints
        # the leaf normalized, (1 - t) / (1 - t) = 1
        params = KnotParams(5, 3)
        hhh = evaluate(params, HHH_PROFILE)
        path, num = hhh.leaves[0]
        hhh.leaves[0] = Leaf(path, ONE - T)
        check = cross_check(params, hhh)
        assert check["total_match"] and not check["pass"]
        assert check["mismatches"] == [f"{path}: sweep 1, closed form {Invariant(num, 1)}"]

    def test_wrong_leaf_list_fails_without_raising(self):
        # leaves pair with paths by position: a dropped leaf fails through
        # leaf_count, and two leaves swapped are two mismatches
        params = KnotParams(5, 3)
        hhh = evaluate(params, HHH_PROFILE)
        hhh.leaves[0], hhh.leaves[1] = hhh.leaves[1], hhh.leaves[0]
        check = cross_check(params, hhh)
        assert check["total_match"] and not check["pass"] and len(check["mismatches"]) == 2
        hhh = evaluate(params, HHH_PROFILE)
        del hhh.leaves[-1]
        check = cross_check(params, hhh)
        assert check["mismatches"] == [] and check["leaf_count"] == 6 and not check["pass"]


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
        report = leaf_ratio_report(KnotParams(3, 2), *both_sweeps(KnotParams(3, 2)))
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
            report = leaf_ratio_report(KnotParams(m, n), *both_sweeps(KnotParams(m, n)))
            assert report["single_interval_prediction"] == expected, (m, n)

    def test_unknot_single_leaf(self):
        report = leaf_ratio_report(KnotParams(1, 1), *both_sweeps(KnotParams(1, 1)))
        (leaf,) = report["leaves"]
        assert leaf["ratio"] == "-1"
        assert report["shares_global_monomial"]

    @given(small_coprime)
    @settings(max_examples=20, deadline=None)
    def test_all_ratios_are_monomials(self, params):
        assert leaf_ratio_report(params, *both_sweeps(params))["all_monomial"]


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


class TestSharedSweep:
    def test_one_sweep_per_profile(self, monkeypatch):
        # one traversal per knot carries every profile the selected suites
        # need, and a suite that needs no sweep runs none
        traversals = []

        def counting_profiles(params, profiles):
            traversals.append((params, tuple(profile.name for profile in profiles)))
            return evaluate_profiles(params, profiles)

        monkeypatch.setattr(khr.verify, "evaluate_profiles", counting_profiles)
        knots = [KnotParams(3, 2), KnotParams(5, 3)]
        for suites, names in ((None, ("HHH", "I")), ({"cross"}, ("HHH",)), ({"catalan"}, None)):
            traversals.clear()
            for params in knots:
                assert run_suite(params, suites=suites)["overall_pass"]
            assert traversals == ([] if names is None else [(p, names) for p in knots])

    def test_few_polynomial_products(self, monkeypatch):
        # a leaf's one-term weights only shift its exponents, so the products
        # left are the other weights' multisets, one per knot, and one per
        # leaf in the ratio table; per-step products would be over 13,000
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
        assert 0 < len(products) < 2500

    def test_given_sweep_matches_fresh(self):
        # sweeps of one profile each give the same reports as the shared one
        params = KnotParams(5, 3)
        hhh = evaluate(params, HHH_PROFILE)
        toric = evaluate(params, TORIC_PROFILE)
        shared_hhh, shared_toric = both_sweeps(params)
        assert cross_check(params, hhh) == cross_check(params, shared_hhh)
        assert cross_check(params, hhh)["pass"]
        assert leaf_ratio_report(params, hhh, toric) == leaf_ratio_report(params, shared_hhh, shared_toric)
        assert leaf_ratio_report(params, hhh, shared_toric) == leaf_ratio_report(params, shared_hhh, toric)

    def test_wrong_sweep_detected(self):
        params = KnotParams(5, 3)
        hhh, toric = both_sweeps(params)
        assert not cross_check(params, evaluate(params, TORIC_PROFILE))["pass"]
        assert not cross_check(params, evaluate(KnotParams(3, 5), HHH_PROFILE))["pass"]
        with pytest.raises(RuntimeError, match="not polynomial"):
            leaf_ratio_report(params, evaluate(params, TORIC_PROFILE), toric)
        with pytest.raises(RuntimeError):
            leaf_ratio_report(params, evaluate(KnotParams(3, 5), HHH_PROFILE), toric)
        with pytest.raises(RuntimeError, match="not polynomial"):
            leaf_ratio_report(params, hhh, evaluate(params, HHH_PROFILE))
        with pytest.raises(RuntimeError, match="leaf paths differ"):
            leaf_ratio_report(params, hhh, evaluate(KnotParams(3, 5), TORIC_PROFILE))
