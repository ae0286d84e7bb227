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

from typing import Callable, Hashable, Iterable, Optional

from .dyck import DyckPath, KnotParams, area, enumerate_paths, k_totals, opairs, rational_catalan
from .formula import corner_product, genus, hhh_direct, path_data, superpolynomial, term_factors
from .laurent import (
    A,
    Invariant,
    LaurentPoly,
    Monomial,
    ONE,
    monomial_ratio,
    poly_sum,
    single_term,
    specialize_count,
)
from .sweep import HHH_PROFILE, TORIC_PROFILE, SweepResult, leaf_factors, ranked_branches


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


# the one-term factor of a leaf kept whole: coefficient 1, no exponent
_UNIT = (1, 0, 0, 0)


def _cross_leaves(
    params: KnotParams, product: Callable[[Hashable], LaurentPoly], dpow: int
) -> tuple[Callable[..., None], dict[int, str]]:
    """(check, mismatches): check(rank, path, key, monomial, on_path=True)
    compares one HHH sweep leaf, product(key).times_monomial(*monomial)
    over (1 - t)^dpow, with the closed-form term of the path at rank, and
    files a mismatch string under rank in mismatches.

    The closed-form term comes factored too (formula.term_factors), so each
    (key, k tuple) pair compares its two products once.  Where they are
    equal and nonzero, the leaf matches iff the monomials do, as Laurent
    polynomials have no zero divisors; elsewhere the two are multiplied
    out and compared.  A leaf off its path, or over another power than
    (1 - t), is a mismatch; each is normalized only to print one.
    """
    records = path_data(params)
    g = genus(params)
    corners: dict[tuple[int, ...], LaurentPoly] = {}
    same: dict[tuple[Hashable, tuple[int, ...]], bool] = {}
    mismatches: dict[int, str] = {}

    def corner(ks: tuple[int, ...]) -> LaurentPoly:
        poly = corners.get(ks)
        if poly is None:
            poly = corners[ks] = corner_product(ks)
        return poly

    def check(
        rank: int, path: DyckPath, key: Hashable, monomial: Monomial, on_path: bool = True
    ) -> None:
        ks, shift = term_factors(records[rank], g)
        if on_path and dpow == 1:
            equal = same.get((key, ks))
            if equal is None:
                poly = product(key)
                equal = same[key, ks] = bool(poly) and poly == corner(ks)
            if equal:
                if monomial == shift:
                    return
            elif product(key).times_monomial(*monomial) == corner(ks).times_monomial(*shift):
                return
        leaf = Invariant(product(key).times_monomial(*monomial), dpow)
        term = Invariant(corner(ks).times_monomial(*shift), 1)
        mismatches[rank] = f"{path}: sweep {leaf}, closed form {term}"

    return check, mismatches


def _cross_section(
    total_match: bool, leaf_count: int, params: KnotParams, mismatches: dict[int, str]
) -> dict:
    expected_leaf_count = rational_catalan(params)
    return {
        "pass": total_match and not mismatches and leaf_count == expected_leaf_count,
        "total_match": total_match,
        "leaf_count": leaf_count,
        "expected_leaf_count": expected_leaf_count,
        "mismatches": [mismatches[rank] for rank in sorted(mismatches)],
    }


def cross_check(params: KnotParams, hhh: SweepResult) -> dict:
    """Compare hhh, the HHH sweep of params, with the closed form, total
    and leaf by leaf, through the per-leaf check of the streamed walk."""
    leaves = hhh.leaves
    check, mismatches = _cross_leaves(params, lambda i: leaves[i].num, hhh.dpow)
    # leaves pair with paths by position; a wrong count fails through leaf_count
    for i, (path, leaf) in enumerate(zip(enumerate_paths(params), leaves)):
        check(i, path, i, _UNIT, leaf.path == path)
    return _cross_section(hhh.total == hhh_direct(params), len(leaves), params, mismatches)


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


def _ratio_rows(
    params: KnotParams,
    hhh_product: Callable[[Hashable], LaurentPoly],
    hhh_dpow: int,
    toric_product: Callable[[Hashable], LaurentPoly],
    toric_dpow: int,
) -> Callable[[DyckPath, Hashable, Monomial, Hashable, Monomial], dict]:
    """The function from one leaf's path and its two factored numerators,
    HHH and scalar, to its ratio row: the ratio of the scalar leaf to
    (1-a)(1-t) times the HHH leaf, which must be a signed monomial.

    Each (HHH key, scalar key) pair's product ratio is taken once.  Every
    one-term weight of both profiles has coefficient +-1, so every leaf
    monomial does too, which is checked, and the leaf's ratio is its pair's
    ratio times the scalar monomial over the HHH one; there is none where
    the pair's ratio has none.
    """
    # every leaf is x / (1-t)^d with the HHH side at d = 1 and the scalar
    # side at d = 0, so (1-a)(1-t) * HHH leaf is polynomial
    if hhh_dpow != 1 or toric_dpow != 0:
        raise RuntimeError(f"the leaves of {params} are not polynomial")
    one_minus_a = ONE - A
    ratios: dict[tuple[Hashable, Hashable], Optional[Monomial]] = {}
    # few leaves have a ratio of their own, so each distinct one is rendered once
    texts: dict[Optional[Monomial], str] = {None: "not a monomial"}

    def row(
        path: DyckPath, h_key: Hashable, h_mono: Monomial, t_key: Hashable, t_mono: Monomial
    ) -> dict:
        hc, ha, hq, ht = h_mono
        tc, ta, tq, tt = t_mono
        if hc * hc != 1 or tc * tc != 1:
            raise RuntimeError(f"the leaf monomials of {path} have coefficients {hc} and {tc}")
        pair = (h_key, t_key)
        if pair in ratios:
            ratio = ratios[pair]
        else:
            base = monomial_ratio(toric_product(t_key), one_minus_a * hhh_product(h_key))
            ratio = ratios[pair] = None if base is None else single_term(base)
        if ratio is not None:
            c, ea, q2, t2 = ratio
            # hc is +-1, its own inverse
            ratio = (c * hc * tc, ea + ta - ha, q2 + tq - hq, t2 + tt - ht)
        text = texts.get(ratio)
        if text is None:
            text = texts[ratio] = LaurentPoly.monomial(*ratio).text()
        return {"path": str(path), "is_monomial": ratio is not None, "ratio": text}

    return row


def _ratio_section(params: KnotParams, rows: list[dict]) -> dict:
    all_monomial = all(row["is_monomial"] for row in rows)
    # the sweep starts from one interval on the n strands of the braid
    n = params.n
    return {
        "pass": all_monomial,
        "all_monomial": all_monomial,
        "shares_global_monomial": all_monomial and len({row["ratio"] for row in rows}) <= 1,
        "single_interval_prediction": LaurentPoly.monomial(1 if n % 2 == 0 else -1, q2=1 - n).text(),
        "leaves": rows,
    }


def leaf_ratio_report(params: KnotParams, hhh: SweepResult, toric: SweepResult) -> dict:
    """Per-leaf ratio of the scalar sweep (toric) of params to (1-a)(1-t)
    times its HHH sweep (hhh), through the per-leaf row of the streamed
    walk.  Each ratio must be a signed monomial; whether all leaves share a
    single monomial is reported but never required."""
    row = _ratio_rows(
        params, lambda i: hhh.leaves[i].num, hhh.dpow, lambda i: toric.leaves[i].num, toric.dpow
    )
    rows = []
    for i, (h_leaf, t_leaf) in enumerate(zip(hhh.leaves, toric.leaves)):
        if h_leaf.path != t_leaf.path:
            raise RuntimeError(f"leaf paths differ: {h_leaf.path} vs {t_leaf.path}")
        rows.append(row(h_leaf.path, i, _UNIT, i, _UNIT))
    return _ratio_section(params, rows)


def _streamed_sections(
    params: KnotParams, cross: bool, ratios: bool
) -> tuple[Optional[dict], Optional[dict]]:
    """The cross-check and ratio sections (None where not asked for) from
    one walk of sweep.ranked_branches, with each leaf checked as it arrives
    and kept factored (sweep.leaf_factors); no leaf is held.

    The HHH total is the sum over keys of each key's product times the sum
    of its leaves' monomials, and it must equal hhh_direct.  Only the
    mismatch strings and the ratio rows are kept, by rank, so they come out
    in enumeration order.  Without the ratio section no scalar leaf is
    factored.
    """
    hhh_factor, hhh_product = leaf_factors(HHH_PROFILE)
    hhh_dpow = HHH_PROFILE.base.dpow
    if cross:
        check, mismatches = _cross_leaves(params, hhh_product, hhh_dpow)
        sums: dict[tuple, dict[tuple[int, int, int], int]] = {}
    if ratios:
        toric_factor, toric_product = leaf_factors(TORIC_PROFILE)
        row = _ratio_rows(params, hhh_product, hhh_dpow, toric_product, TORIC_PROFILE.base.dpow)
        rows: list = [None] * rational_catalan(params)
    leaves = 0
    for rank, path, steps in ranked_branches(params):
        leaves += 1
        tags = steps.values()
        key, monomial = hhh_factor(tags)
        if cross:
            check(rank, path, key, monomial)
            c, ea, q2, t2 = monomial
            terms = sums.get(key)
            if terms is None:
                terms = sums[key] = {}
            terms[ea, q2, t2] = terms.get((ea, q2, t2), 0) + c
        if ratios:
            rows[rank] = row(path, key, monomial, *toric_factor(tags))
    cross_section = ratio_section = None
    if cross:
        total = Invariant(
            poly_sum(hhh_product(key) * LaurentPoly(terms) for key, terms in sums.items()), hhh_dpow
        )
        cross_section = _cross_section(total == hhh_direct(params), leaves, params, mismatches)
    if ratios:
        ratio_section = _ratio_section(params, rows)
    return cross_section, ratio_section


# suite name -> its section key in the report, in the order the suites run
SUITES = {
    "identities": "identities",
    "cross": "cross_check",
    "catalan": "catalan",
    "symmetry": "symmetry",
    "ratios": "leaf_ratios",
}


def run_suite(
    params: KnotParams,
    external_strict: bool = True,
    suites: Optional[Iterable[str]] = None,
) -> dict:
    """Run the selected suites (all by default, at least one) for one pair
    and return its report: each suite's section under its key, and an
    overall_pass that counts the symmetry section only when external_strict
    is set.

    The sweep is walked at most once, streamed (_streamed_sections):
    "cross" and "ratios" share its HHH leaves, and "ratios" has the scalar
    profile carried in the same walk.
    """
    selected = set(SUITES if suites is None else suites)
    unknown = selected - SUITES.keys()
    if unknown:
        raise ValueError(f"unknown suites: {sorted(unknown)}")
    if not selected:
        raise ValueError("no suites selected: an empty selection checks nothing")
    cross = ratios = None
    if "cross" in selected or "ratios" in selected:
        cross, ratios = _streamed_sections(params, "cross" in selected, "ratios" in selected)
    runners = {
        "identities": lambda: identity_suite(params),
        "cross": lambda: cross,
        "catalan": lambda: catalan_check(params),
        "symmetry": lambda: symmetry_checks(params),
        "ratios": lambda: ratios,
    }
    report: dict = {"m": params.m, "n": params.n, "external_strict": external_strict}
    for name, key in SUITES.items():
        if name in selected:
            report[key] = runners[name]()
    report["overall_pass"] = all(
        report[key]["pass"]
        for name, key in SUITES.items()
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
