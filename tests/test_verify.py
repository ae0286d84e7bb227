import pytest
from hypothesis import given, settings, strategies as st

import khr.verify
from khr.dyck import KnotParams, coprime_pairs
from khr.laurent import Invariant, ONE
from khr.sweep import HHH_PROFILE, TORIC_PROFILE, evaluate, evaluate_profiles
from khr.verify import (
    catalan_check,
    cross_check,
    identity_suite,
    leaf_ratio_report,
    report_json,
    report_lines,
    run_suite,
    sign_structure_ok,
    symmetry_checks,
)

small_coprime = st.sampled_from(coprime_pairs(10))


class TestIdentitySuite:
    def test_trefoil_rows(self):
        rows = {row.path: row for row in identity_suite(KnotParams(3, 2))}
        keep = rows["NNEEE"]
        assert keep.hplus == 0 and keep.k_interior == 1 and keep.genus == 1
        assert keep.i3
        split = rows["NENEE"]
        assert split.hplus == 1 and split.k_interior == 0
        assert split.i3
        assert split.k_inner == 1 and split.k_outer_trimmed == 1
        assert split.i4

    def test_unknot_row(self):
        (row,) = identity_suite(KnotParams(1, 1))
        assert row.interior_count == 0 and row.opairs == 0 and row.i1

    @given(small_coprime)
    @settings(max_examples=40, deadline=None)
    def test_all_identities_hold(self, params):
        assert all(row.passed for row in identity_suite(params))


class TestCrossCheck:
    def test_trefoil(self):
        check = cross_check(KnotParams(3, 2))
        assert check.passed and check.leaf_count == 2

    def test_unknot_family(self):
        for n in (1, 7, 20):
            assert cross_check(KnotParams(1, n)).passed

    def test_53_leaf_count(self):
        check = cross_check(KnotParams(5, 3))
        assert check.passed and check.leaf_count == 7


class TestCatalan:
    def test_examples(self):
        assert catalan_check(KnotParams(3, 2)).got == 2
        assert catalan_check(KnotParams(1, 1)).got == 1
        assert catalan_check(KnotParams(5, 2)).got == 3

    @given(small_coprime)
    @settings(max_examples=40, deadline=None)
    def test_specialization_counts_paths(self, params):
        assert catalan_check(params).passed


class TestSymmetry:
    def test_examples(self):
        assert symmetry_checks(KnotParams(3, 2)).passed
        assert symmetry_checks(KnotParams(1, 1)).passed
        assert symmetry_checks(KnotParams(5, 3)).passed


class TestLeafRatios:
    def test_trefoil_table(self):
        report = leaf_ratio_report(KnotParams(3, 2))
        ratios = {e.path: e.pretty for e in report.entries}
        assert ratios == {"NNEEE": "q", "NENEE": "q^(3/2)"}
        assert report.all_monomial
        assert not report.shares_global_monomial
        assert report.single_interval_prediction == "q^(-1/2)"

    def test_unknot_single_leaf(self):
        report = leaf_ratio_report(KnotParams(1, 1))
        (entry,) = report.entries
        assert entry.pretty == "-1"
        assert report.shares_global_monomial

    @given(small_coprime)
    @settings(max_examples=20, deadline=None)
    def test_all_ratios_are_monomials(self, params):
        assert leaf_ratio_report(params).all_monomial


class TestSignStructure:
    @given(small_coprime)
    @settings(max_examples=30, deadline=None)
    def test_alternation(self, params):
        assert sign_structure_ok(params)

    def test_flipped_signs_detected(self, monkeypatch):
        series = khr.verify.hhh_direct(KnotParams(3, 2))
        monkeypatch.setattr(khr.verify, "hhh_direct", lambda params: Invariant(-series.num, 1))
        assert not sign_structure_ok(KnotParams(3, 2))

    def test_series_not_over_one_minus_t_raises(self, monkeypatch):
        monkeypatch.setattr(khr.verify, "hhh_direct", lambda params: Invariant(ONE, 0))
        with pytest.raises(RuntimeError, match="not \\(1-t\\)"):
            sign_structure_ok(KnotParams(3, 2))


class TestReport:
    def test_full_suite_passes(self):
        report = run_suite(KnotParams(4, 3))
        assert report.overall_pass
        assert report.identities_pass
        assert report.cross.passed and report.catalan.passed

    def test_suite_selection(self):
        report = run_suite(KnotParams(3, 2), suites={"catalan"})
        assert report.identities is None and report.cross is None
        assert report.catalan.passed
        assert report.overall_pass

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suite(KnotParams(3, 2), suites={"bogus"})

    def test_external_demotion_flag(self):
        strict = run_suite(KnotParams(3, 2))
        lax = run_suite(KnotParams(3, 2), external_strict=False)
        assert strict.overall_pass and lax.overall_pass
        assert not lax.external_strict

    def test_json_and_text_render(self):
        report = run_suite(KnotParams(3, 2))
        data = report_json(report)
        assert data["overall_pass"] is True
        assert data["catalan"]["expected"] == 2
        assert data["symmetry"]["label"] == "external property"
        assert data["leaf_ratios"]["shares_global_monomial"] is False
        lines = report_lines(report)
        assert lines[0] == "verification of (3,2)"
        assert any("overall: pass" in line for line in lines)


class TestSharedSweep:
    def test_one_sweep_per_profile(self, monkeypatch):
        # one traversal per knot carries both profiles; no single-profile
        # sweep runs beside it
        traversals = []
        single = []

        def counting_profiles(params, profiles):
            traversals.append((params, tuple(profile.name for profile in profiles)))
            return evaluate_profiles(params, profiles)

        def counting_single(params, profile):
            single.append((params, profile.name))
            return evaluate(params, profile)

        monkeypatch.setattr(khr.verify, "evaluate_profiles", counting_profiles)
        monkeypatch.setattr(khr.verify, "evaluate", counting_single)
        knots = [KnotParams(3, 2), KnotParams(5, 3)]
        for params in knots:
            assert run_suite(params).overall_pass
        assert traversals == [(p, ("HHH", "I")) for p in knots]
        assert single == []

    def test_given_sweep_matches_fresh(self):
        params = KnotParams(5, 3)
        hhh = evaluate(params, HHH_PROFILE)
        toric = evaluate(params, TORIC_PROFILE)
        assert cross_check(params, hhh) == cross_check(params)
        assert leaf_ratio_report(params, hhh) == leaf_ratio_report(params)
        assert leaf_ratio_report(params, hhh, toric) == leaf_ratio_report(params)
        assert leaf_ratio_report(params, toric=toric) == leaf_ratio_report(params)

    def test_wrong_sweep_detected(self):
        params = KnotParams(5, 3)
        assert not cross_check(params, evaluate(params, TORIC_PROFILE)).passed
        assert not cross_check(params, evaluate(KnotParams(3, 5), HHH_PROFILE)).passed
        with pytest.raises(ValueError):
            leaf_ratio_report(params, evaluate(params, TORIC_PROFILE))
        with pytest.raises(RuntimeError):
            leaf_ratio_report(params, evaluate(KnotParams(3, 5), HHH_PROFILE))
        with pytest.raises(RuntimeError, match="not polynomial"):
            leaf_ratio_report(params, toric=evaluate(params, HHH_PROFILE))
        with pytest.raises(RuntimeError, match="leaf paths differ"):
            leaf_ratio_report(params, toric=evaluate(KnotParams(3, 5), TORIC_PROFILE))
