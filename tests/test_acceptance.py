"""Acceptance suite: the binding exit criteria, one test per criterion.

Every check is exact (integer or polynomial equality, no tolerances), and
each test prints a single PASS/FAIL line so a -s run reads as a checklist.
Several criteria re-derive their expected values from first principles in
this file (brute-force enumeration with Fraction arithmetic) instead of
trusting the package under test.
"""

import math

from khr.dyck import KnotParams, coprime_pairs, k_of, rational_catalan
from khr.formula import genus, superpolynomial
from khr.laurent import Invariant, LaurentPoly, ONE, ZERO
from khr.sweep import HHH_PROFILE, Rule, evaluate
from khr.verify import (
    catalan_check,
    cross_check,
    identity_suite,
    leaf_ratio_report,
    symmetry_checks,
)

from .branch_walk import branches_by_path
from .oracles import brute_area, brute_hplus, brute_k, brute_paths, brute_vstar

mono = LaurentPoly.monomial


def _report(name: str, failures: list) -> None:
    verdict = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {name}: {verdict}")
    assert not failures, f"{name}: {failures[:5]}"


def test_criterion_01_unknot_family():
    failures = []
    expected = Invariant(ONE, 1)
    for n in range(1, 21):
        if superpolynomial(KnotParams(1, n)) != expected:
            failures.append(n)
    _report("1 unknot family P(1,n) = 1/(1-t), n <= 20", failures)


def _brute_superpolynomial(m: int, n: int, failures: list) -> Invariant:
    """(a (qt)^(-1/2))^genus / (1-t) times the sum over paths of
    t^area q^hplus prod (1 - a q^(-k)), from the Fraction-based oracles
    alone; an unbalanced crossing count is recorded in failures."""
    g = (m - 1) * (n - 1) // 2
    total = ZERO
    for word in brute_paths(m, n):
        summand = mono(1, q2=2 * brute_hplus(m, n, word), t2=2 * brute_area(m, n, word))
        for v in brute_vstar(m, n, word):
            kv, kh = brute_k(m, n, word, v)
            if kv != kh:
                failures.append(f"unbalanced k at {v} on {word}")
            summand = summand * (ONE - mono(1, ea=1, q2=-2 * kv))
        total = total + summand
    return Invariant(mono(1, ea=g, q2=-g, t2=-g) * total, 1)


def test_criterion_02_trefoil_rederived_by_brute_force():
    failures = []
    m, n = 3, 2
    # independent re-derivation: enumerate words, build the summand from
    # Fraction-based statistics, normalize by (a (qt)^(-1/2))^genus
    words = brute_paths(m, n)
    if words != ["NNEEE", "NENEE"]:
        failures.append(f"brute enumeration gave {words}")
    oracle = _brute_superpolynomial(m, n, failures)

    hand_value = Invariant(
        mono(1, ea=1, q2=-1, t2=-1)
        * (mono(1, q2=2) + mono(1, t2=2) - mono(1, ea=1)),
        1,
    )
    if oracle != hand_value:
        failures.append("brute-force oracle disagrees with the frozen value")
    if superpolynomial(KnotParams(3, 2)) != oracle:
        failures.append("P(3,2) differs from the brute-force oracle")
    if superpolynomial(KnotParams(2, 3)) != oracle:
        failures.append("P(2,3) differs from the brute-force oracle")
    _report("2 trefoil value re-derived by brute force", failures)


def test_criterion_02_every_knot_to_msum_12_rederived_by_brute_force():
    failures = []
    for s in range(2, 13):
        for m in range(1, s):
            n = s - m
            if math.gcd(m, n) != 1:
                continue
            if superpolynomial(KnotParams(m, n)) != _brute_superpolynomial(m, n, failures):
                failures.append(f"P({m},{n}) differs from the brute-force oracle")
    _report("2 P(m,n) re-derived by brute force, m+n <= 12", failures)


def test_criterion_03_cross_evaluator_oracle():
    failures = []
    for params in coprime_pairs(17):
        check = cross_check(params)
        if not check["pass"]:
            failures.append((params.m, params.n, check["mismatches"][:2]))
    _report("3 closed form == sweep, total and leaf-by-leaf, m+n <= 17", failures)


def test_criterion_04_proof_identity_suite():
    failures = []
    for params in coprime_pairs(16):
        suite = identity_suite(params)
        for row in suite["paths"]:
            if not (row["i1"] and row["i2"] and row["i3"] and row["i4"]):
                failures.append((params.m, params.n, row["path"]))
        if not suite["pass"]:
            failures.append((params.m, params.n, "suite pass flag"))
    _report("4 counting identities i1-i4, m+n <= 16", failures)


def test_criterion_05_sweep_statistics_coherence():
    failures = []
    for params in coprime_pairs(14):
        result = evaluate(params, HHH_PROFILE)
        if len(result.leaves) != rational_catalan(params):
            failures.append((params.m, params.n, "leaf count"))
        # the sweep keeps no branch records; read them from sweep.branches
        branches = branches_by_path(params, (HHH_PROFILE,))
        if len(branches) != len(result.leaves):
            failures.append((params.m, params.n, "walked branch count"))
        seen = set()
        for leaf in result.leaves:
            seen.add(str(leaf.path))
            steps, _, (num,) = branches[str(leaf.path)]
            if num != leaf.num:
                failures.append((params.m, params.n, str(leaf.path), "leaf value"))
            for p, (tag, k) in steps.items():
                if tag in (Rule.SPLIT, Rule.KEEP, Rule.CONTRACT):
                    if k != k_of(leaf.path, p):
                        failures.append((params.m, params.n, str(leaf.path), p))
        if len(seen) != len(result.leaves):
            failures.append((params.m, params.n, "leaf paths not distinct"))
    _report("5 fork/contract k-values match path statistics, m+n <= 14", failures)


def test_criterion_06_catalan_specialization():
    failures = []
    for params in coprime_pairs(20):
        check = catalan_check(params)
        if not check["pass"]:
            failures.append((params.m, params.n, check["expected"], check["got"]))
    _report("6 a=0, q=t=1 specialization counts paths, m+n <= 20", failures)


def test_criterion_07_parity():
    failures = []
    for params in coprime_pairs(16):
        if not evaluate(params, HHH_PROFILE).total.num.is_even_series():
            failures.append((params.m, params.n))
    _report("7 sweep HHH totals involve only integer q, t powers, m+n <= 16", failures)


def test_criterion_08_sign_structure():
    failures = []
    for params in coprime_pairs(14):
        g = genus(params)
        for (ea, q2, t2), c in superpolynomial(params).num.items():
            if (c > 0) != ((ea - g) % 2 == 0):
                failures.append((params.m, params.n, (ea, q2, t2), c))
    _report("8 a-coefficient signs alternate from + at degree genus, m+n <= 14", failures)


def test_criterion_09_profile_ratio_diagnostic():
    failures = []
    shared = []
    for params in coprime_pairs(12):
        report = leaf_ratio_report(params)
        for leaf in report["leaves"]:
            if not leaf["is_monomial"]:
                failures.append((params.m, params.n, leaf["path"]))
        shared.append(((params.m, params.n), report["shares_global_monomial"]))
    with_shared = [mn for mn, flag in shared if flag]
    print(
        f"\n  (info) pairs whose leaves share one global monomial: "
        f"{len(with_shared)}/{len(shared)}; all single-leaf families: "
        f"{all(1 in mn for mn in with_shared)}"
    )
    _report(
        "9 every scalar-profile leaf = signed monomial * (1-a)(1-t) * HHH leaf, m+n <= 12",
        failures,
    )


def test_criterion_10_external_symmetries():
    failures = []
    for params in coprime_pairs(12):
        check = symmetry_checks(params)
        if not check["mn_symmetric"]:
            failures.append((params.m, params.n, "mn"))
        if not check["qt_symmetric"]:
            failures.append((params.m, params.n, "qt"))
    _report("10 external regressions: (m,n)<->(n,m) and q<->t, m+n <= 12", failures)
