"""Executable consistency suite: per-path counting identities, the
cross-evaluator comparison, specialization counts, symmetry regressions,
and the per-leaf ratio table between the two weight profiles.

Each suite returns its own section of the JSON report, a plain dict that
carries its own "pass"; `run_suite` gathers the selected sections into the
report that `verify --format json` prints, and `report_lines` renders that
same dict as text.

The symmetry checks (q <-> t on the numerator, (m, n) <-> (n, m)) are
externally known properties of these invariants, not consequences of
anything computed here; they are kept because they catch bugs well, and
can be demoted to warnings.  The ratio table's global comparison is
informational only: whether all leaves share one monomial is reported,
never asserted.
"""

from __future__ import annotations

from typing import Optional

from .dyck import KnotParams, area, enumerate_paths, k_totals, opairs, rational_catalan
from .formula import genus, hhh_direct, hhh_terms, path_data, superpolynomial
from .laurent import (
    A,
    Invariant,
    LaurentPoly,
    ONE,
    monomial_ratio,
    specialize_count,
)
from .sweep import HHH_PROFILE, TORIC_PROFILE, SweepResult, evaluate_profiles


def identity_suite(params: KnotParams) -> dict:
    """The four counting identities evaluated on every path.

    i1: interior points + unordered EN pairs = genus
    i2: unordered EN pairs - hplus = sum over interior of (k - 1)
    i3: hplus + sum of k over interior = genus
    i4: sum of k over inner corners = sum of k over trimmed outer corners

    hplus and the trimmed outer corners' k come from the closed form's
    path_data records; the interior count is area, and the two other k
    sums are dyck.k_totals, counted per N step rather than per point.
    """
    g = genus(params)
    rows = []
    for path, (_, hplus, ks) in zip(enumerate_paths(params), path_data(params), strict=True):
        interior = area(path)
        k_interior, k_inner = k_totals(path)
        k_outer_trimmed = sum(ks)
        pairs = opairs(path)
        rows.append(
            {
                "path": str(path),
                "i1": interior + pairs == g,
                "i2": pairs - hplus == k_interior - interior,
                "i3": hplus + k_interior == g,
                "i4": k_inner == k_outer_trimmed,
                "interior": interior,
                "opairs": pairs,
                "hplus": hplus,
                "k_interior": k_interior,
                "k_inner": k_inner,
                "k_outer_trimmed": k_outer_trimmed,
            }
        )
    passed = all(row["i1"] and row["i2"] and row["i3"] and row["i4"] for row in rows)
    return {"pass": passed, "paths": rows}


def cross_check(params: KnotParams, hhh: SweepResult) -> dict:
    """Compare hhh, the HHH sweep of params, with the closed form, total
    and leaf by leaf."""
    total_match = hhh.total == hhh_direct(params)
    leaf_count = len(hhh.leaves)
    expected_leaf_count = rational_catalan(params)
    mismatches = []
    # the leaves are sorted by path; a wrong count fails through leaf_count
    for path, leaf, term in zip(enumerate_paths(params), hhh.leaves, hhh_terms(params)):
        # each leaf is term / (1 - t): compare numerators, and normalize
        # only to print a mismatch
        if leaf.path != path or hhh.dpow != 1 or leaf.num != term:
            mismatches.append(
                f"{path}: sweep {Invariant(leaf.num, hhh.dpow)}, closed form {Invariant(term, 1)}"
            )
    return {
        "pass": total_match and not mismatches and leaf_count == expected_leaf_count,
        "total_match": total_match,
        "leaf_count": leaf_count,
        "expected_leaf_count": expected_leaf_count,
        "mismatches": mismatches,
    }


def catalan_check(params: KnotParams) -> dict:
    """Counting specialization: the unnormalized numerator at a=0, q=t=1
    must count the Dyck paths."""
    expected = rational_catalan(params)
    got = specialize_count(hhh_direct(params))
    return {"pass": expected == got, "expected": expected, "got": got}


def symmetry_checks(params: KnotParams) -> dict:
    """Externally known regressions, not consequences of the evaluators."""
    p = superpolynomial(params)
    mn_symmetric = p == superpolynomial(params.swapped())
    qt_symmetric = p.num.swap_qt() == p.num
    return {
        "pass": mn_symmetric and qt_symmetric,
        "mn_symmetric": mn_symmetric,
        "qt_symmetric": qt_symmetric,
        "label": "external property",
    }


def leaf_ratio_report(params: KnotParams, hhh: SweepResult, toric: SweepResult) -> dict:
    """Per-leaf ratio of the scalar sweep (toric) of params to (1-a)(1-t)
    times its HHH sweep (hhh).  Each ratio must be a signed monomial;
    whether all leaves share a single monomial is reported but never
    required."""
    # every leaf is x / (1-t)^d with the HHH side at d = 1 and the scalar
    # side at d = 0, so (1-a)(1-t) * HHH leaf is polynomial
    if hhh.dpow != 1 or toric.dpow != 0:
        raise RuntimeError(f"the leaves of {params} are not polynomial")
    one_minus_a = ONE - A
    # few leaves have a ratio of their own, so each distinct one is rendered once
    texts: dict[Optional[LaurentPoly], str] = {None: "not a monomial"}
    leaves = []
    for h_leaf, t_leaf in zip(hhh.leaves, toric.leaves):
        if h_leaf.path != t_leaf.path:
            raise RuntimeError(f"leaf paths differ: {h_leaf.path} vs {t_leaf.path}")
        ratio = monomial_ratio(t_leaf.num, one_minus_a * h_leaf.num)
        text = texts.get(ratio)
        if text is None:
            text = texts[ratio] = ratio.text()
        leaves.append({"path": str(h_leaf.path), "is_monomial": ratio is not None, "ratio": text})
    all_monomial = all(leaf["is_monomial"] for leaf in leaves)
    # the sweep starts from one interval on the n strands of the braid
    n = params.n
    return {
        "pass": all_monomial,
        "all_monomial": all_monomial,
        "shares_global_monomial": all_monomial and len({leaf["ratio"] for leaf in leaves}) <= 1,
        "single_interval_prediction": LaurentPoly.monomial(1 if n % 2 == 0 else -1, q2=1 - n).text(),
        "leaves": leaves,
    }


# suite name -> its section key in the report, in the order the suites run
_SUITES = {
    "identities": "identities",
    "cross": "cross_check",
    "catalan": "catalan",
    "symmetry": "symmetry",
    "ratios": "leaf_ratios",
}


def run_suite(
    params: KnotParams,
    external_strict: bool = True,
    suites: Optional[set[str]] = None,
) -> dict:
    """Run the selected suites (all by default, at least one) for one pair
    and return its report: each suite's section under its key, and an
    overall_pass that counts the symmetry section only when external_strict
    is set.

    The sweep runs at most once: "cross" and "ratios" share its HHH
    result, and "ratios" has the scalar profile carried in the same
    traversal.
    """
    selected = set(_SUITES) if suites is None else suites
    unknown = selected - set(_SUITES)
    if unknown:
        raise ValueError(f"unknown suites: {sorted(unknown)}")
    if not selected:
        raise ValueError("no suites selected: an empty selection checks nothing")
    hhh = toric = None
    if "ratios" in selected:
        hhh, toric = evaluate_profiles(params, (HHH_PROFILE, TORIC_PROFILE))
    elif "cross" in selected:
        (hhh,) = evaluate_profiles(params, (HHH_PROFILE,))
    runners = {
        "identities": lambda: identity_suite(params),
        "cross": lambda: cross_check(params, hhh),
        "catalan": lambda: catalan_check(params),
        "symmetry": lambda: symmetry_checks(params),
        "ratios": lambda: leaf_ratio_report(params, hhh, toric),
    }
    report: dict = {"m": params.m, "n": params.n, "external_strict": external_strict}
    for name, key in _SUITES.items():
        if name in selected:
            report[key] = runners[name]()
    report["overall_pass"] = all(
        report[key]["pass"]
        for name, key in _SUITES.items()
        if key in report and (external_strict or name != "symmetry")
    )
    return report


def report_lines(report: dict) -> list[str]:
    def mark(ok: bool) -> str:
        return "pass" if ok else "FAIL"

    lines = [f"verification of ({report['m']},{report['n']})"]
    if (s := report.get("identities")) is not None:
        lines.append(f"  identities i1-i4 over {len(s['paths'])} paths: {mark(s['pass'])}")
    if (c := report.get("cross_check")) is not None:
        lines.append(
            f"  cross-check (closed form vs sweep), {c['leaf_count']} leaves: {mark(c['pass'])}"
        )
        lines.extend(f"    mismatch {m}" for m in c["mismatches"])
    if (c := report.get("catalan")) is not None:
        lines.append(
            f"  catalan specialization: expected {c['expected']}, "
            f"got {c['got']}: {mark(c['pass'])}"
        )
    if (s := report.get("symmetry")) is not None:
        tag = "" if report["external_strict"] else " (warning only)"
        lines.append(
            f"  symmetry [external property]{tag}: (m,n)<->(n,m) "
            f"{mark(s['mn_symmetric'])}, q<->t {mark(s['qt_symmetric'])}"
        )
    if (r := report.get("leaf_ratios")) is not None:
        lines.append(
            f"  profile leaf ratios all monomial: {mark(r['all_monomial'])}; "
            f"shared global monomial: {'yes' if r['shares_global_monomial'] else 'no'} "
            f"(informational; single-interval prediction {r['single_interval_prediction']})"
        )
        lines.extend(f"    {leaf['path']}: {leaf['ratio']}" for leaf in r["leaves"])
    lines.append(f"  overall: {mark(report['overall_pass'])}")
    return lines
