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
from .sweep import HHH_PROFILE, TORIC_PROFILE, Step, leaf_factors, ordered_leaves


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


# a leaf kept factored, its key's product times its monomial: (key,
# monomial) from sweep.leaf_factors, or (k tuple, shift) from
# formula.term_factors
Factored = tuple[Hashable, Monomial]


def _leaf_ratio(
    num_product: Callable[[Hashable], LaurentPoly], den_product: Callable[[Hashable], LaurentPoly]
) -> Callable[[DyckPath, Factored, Factored], Optional[Monomial]]:
    """The function from one path's two factored leaves, numerator and
    denominator, to their quotient as a signed monomial (coefficient, ea,
    q2, t2), or None where there is none; num_product and den_product take
    each side's keys to their products.

    Each (numerator key, denominator key) pair's product ratio is taken
    once.  Both leaf monomials must have coefficient +-1, which is checked,
    so the leaf's ratio is its pair's ratio times the numerator monomial
    over the denominator one; there is none where the pair's ratio has none.
    """
    ratios: dict[tuple[Hashable, Hashable], Optional[Monomial]] = {}

    def ratio(path: DyckPath, num: Factored, den: Factored) -> Optional[Monomial]:
        num_key, (nc, na, nq, nt) = num
        den_key, (dc, da, dq, dt) = den
        if nc * nc != 1 or dc * dc != 1:
            raise RuntimeError(f"the leaf monomials of {path} have coefficients {dc} and {nc}")
        pair = (num_key, den_key)
        # one hash of the pair per leaf: False marks a pair not yet seen,
        # None one whose products have no monomial ratio
        base = ratios.get(pair, False)
        if base is False:
            base = monomial_ratio(num_product(num_key), den_product(den_key))
            base = ratios[pair] = None if base is None else single_term(base)
        if base is None:
            return None
        c, ea, q2, t2 = base
        # dc is +-1, its own inverse
        return c * nc * dc, ea + na - da, q2 + nq - dq, t2 + nt - dt

    return ratio


def _leaf_sections(
    params: KnotParams, cross: bool, ratios: bool
) -> tuple[Optional[dict], Optional[dict]]:
    """The cross-check and ratio sections (None where not asked for) from
    one walk of sweep.ordered_leaves, whose leaves come in enumeration
    order, each one (path, HHH leaf, ratio row): the HHH leaf kept factored
    (sweep.leaf_factors) and, when the ratio section is asked for, the
    ratio row built as its leaf arrives (None without it).  Without the
    ratio section no scalar leaf is factored.

    Both sections ask _leaf_ratio of each leaf: the cross-check of the HHH
    leaf over its path's closed-form term, the ratio table of the scalar
    leaf over (1 - a) times the HHH leaf.  The HHH total is the sum over
    keys of each key's product times the sum of its leaves' monomials, over
    (1 - t), and it must equal hhh_direct.
    """
    hhh_factor, hhh_product = leaf_factors(HHH_PROFILE)
    if ratios:
        toric_factor, toric_product = leaf_factors(TORIC_PROFILE)
        # every HHH leaf sits over (1 - t) and every scalar leaf over 1, so
        # the scalar leaf over (1-a)(1-t) times the HHH leaf is the ratio of
        # their numerators over (1 - a)
        one_minus_a = ONE - A
        to_hhh = _leaf_ratio(toric_product, lambda key: one_minus_a * hhh_product(key))
        # few leaves have a ratio of their own, so each distinct one is rendered once
        texts: dict[Optional[Monomial], str] = {None: "not a monomial"}

    def weigh(path: DyckPath, steps: Iterable[Step]) -> tuple[DyckPath, Factored, Optional[dict]]:
        leaf = hhh_factor(steps)
        if not ratios:
            return path, leaf, None
        ratio = to_hhh(path, toric_factor(steps), leaf)
        text = texts.get(ratio)
        if text is None:
            text = texts[ratio] = LaurentPoly.monomial(*ratio).text()
        return path, leaf, {"path": str(path), "is_monomial": ratio is not None, "ratio": text}

    leaves = ordered_leaves(params, weigh)
    cross_section = ratio_section = None
    if cross:
        g = genus(params)
        # a leaf matches its closed-form term iff their ratio is exactly 1
        to_term = _leaf_ratio(hhh_product, corner_product)
        mismatches = []
        sums: dict[Hashable, dict[tuple[int, int, int], int]] = {}
        for (path, leaf, _), record in zip(leaves, path_data(params), strict=True):
            key, (c, ea, q2, t2) = leaf
            term = term_factors(record, g)
            if to_term(path, leaf, term) != (1, 0, 0, 0):
                ks, shift = term
                sweep_leaf = Invariant(hhh_product(key).times_monomial(c, ea, q2, t2), 1)
                closed = Invariant(corner_product(ks).times_monomial(*shift), 1)
                mismatches.append(f"{path}: sweep {sweep_leaf}, closed form {closed}")
            terms = sums.get(key)
            if terms is None:
                terms = sums[key] = {}
            terms[ea, q2, t2] = terms.get((ea, q2, t2), 0) + c
        total = Invariant(
            poly_sum(hhh_product(key) * LaurentPoly(terms) for key, terms in sums.items()), 1
        )
        total_match = total == hhh_direct(params)
        expected_leaf_count = rational_catalan(params)
        cross_section = {
            "pass": total_match and not mismatches and len(leaves) == expected_leaf_count,
            "total_match": total_match,
            "leaf_count": len(leaves),
            "expected_leaf_count": expected_leaf_count,
            "mismatches": mismatches,
        }
    if ratios:
        rows = [row for _, _, row in leaves]
        all_monomial = all(row["is_monomial"] for row in rows)
        # the sweep starts from one interval on the n strands of the braid
        n = params.n
        prediction = LaurentPoly.monomial(1 if n % 2 == 0 else -1, q2=1 - n)
        ratio_section = {
            "pass": all_monomial,
            "all_monomial": all_monomial,
            "shares_global_monomial": all_monomial and len({row["ratio"] for row in rows}) <= 1,
            "single_interval_prediction": prediction.text(),
            "leaves": rows,
        }
    return cross_section, ratio_section


def cross_check(params: KnotParams) -> dict:
    """The HHH sweep of params against the closed form, total and leaf by
    leaf: the cross-check section of one walk of the sweep."""
    return _leaf_sections(params, cross=True, ratios=False)[0]


def leaf_ratio_report(params: KnotParams) -> dict:
    """Per-leaf ratio of the scalar sweep of params to (1-a)(1-t) times its
    HHH sweep: the ratio section of one walk of the sweep.  Each ratio must be
    a signed monomial; whether all leaves share a single monomial is
    reported but never required."""
    return _leaf_sections(params, cross=False, ratios=True)[1]


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

    The sweep is walked at most once (_leaf_sections): "cross" and
    "ratios" share its HHH leaves, and "ratios" has the scalar profile
    carried in the same walk.
    """
    selected = set(SUITES if suites is None else suites)
    unknown = selected - SUITES.keys()
    if unknown:
        raise ValueError(f"unknown suites: {sorted(unknown)}")
    if not selected:
        raise ValueError("no suites selected: an empty selection checks nothing")
    cross = ratios = None
    if "cross" in selected or "ratios" in selected:
        cross, ratios = _leaf_sections(params, "cross" in selected, "ratios" in selected)
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
