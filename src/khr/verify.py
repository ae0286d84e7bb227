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
from .sweep import HHH_PROFILE, TORIC_PROFILE, leaf_factors, ranked_branches


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


def _cross_leaves(
    params: KnotParams, product: Callable[[Hashable], LaurentPoly]
) -> tuple[Callable[[int, DyckPath, Hashable, Monomial], None], dict[int, str]]:
    """(check, mismatches): check(rank, path, key, monomial) compares one
    HHH sweep leaf, product(key).times_monomial(*monomial) over (1 - t),
    with the closed-form term of the path at rank, over (1 - t) too, and
    files a mismatch string under rank in mismatches.

    The closed-form term comes factored too (formula.term_factors), so each
    (key, k tuple) pair compares its two products once.  Where they are
    equal and nonzero, the leaf matches iff the monomials do, as Laurent
    polynomials have no zero divisors; elsewhere the two are multiplied
    out and compared.  A mismatch is normalized only to print it.
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

    def check(rank: int, path: DyckPath, key: Hashable, monomial: Monomial) -> None:
        ks, shift = term_factors(records[rank], g)
        equal = same.get((key, ks))
        if equal is None:
            poly = product(key)
            equal = same[key, ks] = bool(poly) and poly == corner(ks)
        if equal:
            if monomial == shift:
                return
        elif product(key).times_monomial(*monomial) == corner(ks).times_monomial(*shift):
            return
        leaf = Invariant(product(key).times_monomial(*monomial), 1)
        term = Invariant(corner(ks).times_monomial(*shift), 1)
        mismatches[rank] = f"{path}: sweep {leaf}, closed form {term}"

    return check, mismatches


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
    hhh_product: Callable[[Hashable], LaurentPoly],
    toric_product: Callable[[Hashable], LaurentPoly],
) -> Callable[[DyckPath, Hashable, Monomial, Hashable, Monomial], dict]:
    """The function from one leaf's path and its two factored numerators,
    HHH and scalar, to its ratio row: the ratio of the scalar leaf to
    (1-a)(1-t) times the HHH leaf, which must be a signed monomial.  Every
    HHH leaf sits over (1 - t) and every scalar leaf over 1, so that ratio
    is the scalar numerator's to (1-a) times the HHH one.

    Each (HHH key, scalar key) pair's product ratio is taken once.  Every
    one-term weight of both profiles has coefficient +-1, so every leaf
    monomial does too, which is checked, and the leaf's ratio is its pair's
    ratio times the scalar monomial over the HHH one; there is none where
    the pair's ratio has none.
    """
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


def _streamed_sections(
    params: KnotParams, cross: bool, ratios: bool
) -> tuple[Optional[dict], Optional[dict]]:
    """The cross-check and ratio sections (None where not asked for) from
    one walk of sweep.ranked_branches, with each leaf checked as it arrives
    and kept factored (sweep.leaf_factors); no leaf is held.

    The HHH total is the sum over keys of each key's product times the sum
    of its leaves' monomials, over (1 - t), and it must equal hhh_direct.
    Only the mismatch strings and the ratio rows are kept, by rank, so they
    come out in enumeration order.  Without the ratio section no scalar
    leaf is factored.
    """
    hhh_factor, hhh_product = leaf_factors(HHH_PROFILE)
    if cross:
        check, mismatches = _cross_leaves(params, hhh_product)
        sums: dict[tuple, dict[tuple[int, int, int], int]] = {}
    if ratios:
        toric_factor, toric_product = leaf_factors(TORIC_PROFILE)
        row = _ratio_rows(hhh_product, toric_product)
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
            poly_sum(hhh_product(key) * LaurentPoly(terms) for key, terms in sums.items()), 1
        )
        total_match = total == hhh_direct(params)
        expected_leaf_count = rational_catalan(params)
        cross_section = {
            "pass": total_match and not mismatches and leaves == expected_leaf_count,
            "total_match": total_match,
            "leaf_count": leaves,
            "expected_leaf_count": expected_leaf_count,
            "mismatches": [mismatches[rank] for rank in sorted(mismatches)],
        }
    if ratios:
        all_monomial = all(leaf["is_monomial"] for leaf in rows)
        # the sweep starts from one interval on the n strands of the braid
        n = params.n
        prediction = LaurentPoly.monomial(1 if n % 2 == 0 else -1, q2=1 - n)
        ratio_section = {
            "pass": all_monomial,
            "all_monomial": all_monomial,
            "shares_global_monomial": all_monomial and len({leaf["ratio"] for leaf in rows}) <= 1,
            "single_interval_prediction": prediction.text(),
            "leaves": rows,
        }
    return cross_section, ratio_section


def cross_check(params: KnotParams) -> dict:
    """The HHH sweep of params against the closed form, total and leaf by
    leaf: the cross-check section of one streamed walk."""
    return _streamed_sections(params, cross=True, ratios=False)[0]


def leaf_ratio_report(params: KnotParams) -> dict:
    """Per-leaf ratio of the scalar sweep of params to (1-a)(1-t) times its
    HHH sweep: the ratio section of one streamed walk.  Each ratio must be
    a signed monomial; whether all leaves share a single monomial is
    reported but never required."""
    return _streamed_sections(params, cross=False, ratios=True)[1]


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
