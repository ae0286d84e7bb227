"""Executable consistency suite: per-path counting identities, the
cross-evaluator comparison, specialization counts, symmetry regressions,
and the per-leaf ratio table between the two weight profiles.

The symmetry checks (q <-> t on the numerator, (m, n) <-> (n, m)) are
externally known properties of these invariants, not consequences of
anything computed here; they are kept because they catch bugs well, and
can be demoted to warnings.  The ratio table's global comparison is
informational only: whether all leaves share one monomial is reported,
never asserted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .dyck import (
    KnotParams,
    enumerate_paths,
    path_stats,
    rational_catalan,
)
from .formula import genus, hhh_direct, hhh_terms, superpolynomial
from .laurent import (
    A,
    ExponentTriple,
    Invariant,
    LaurentPoly,
    ONE,
    monomial_ratio,
    specialize_count,
)
from .sweep import HHH_PROFILE, TORIC_PROFILE, SweepResult, evaluate_profiles, initial_coloring


@dataclass(frozen=True)
class IdentityRow:
    """The four counting identities evaluated on one path.

    i1: interior points + unordered EN pairs = genus
    i2: unordered EN pairs - hplus = sum over interior of (k - 1)
    i3: hplus + sum of k over interior = genus
    i4: sum of k over inner corners = sum of k over trimmed outer corners
    """

    path: str
    genus: int
    interior_count: int
    opairs: int
    hplus: int
    k_interior: int
    k_inner: int
    k_outer_trimmed: int

    @property
    def i1(self) -> bool:
        return self.interior_count + self.opairs == self.genus

    @property
    def i2(self) -> bool:
        return self.opairs - self.hplus == self.k_interior - self.interior_count

    @property
    def i3(self) -> bool:
        return self.hplus + self.k_interior == self.genus

    @property
    def i4(self) -> bool:
        return self.k_inner == self.k_outer_trimmed

    @property
    def passed(self) -> bool:
        return self.i1 and self.i2 and self.i3 and self.i4


def identity_suite(params: KnotParams) -> list[IdentityRow]:
    g = genus(params)
    rows = []
    for path in enumerate_paths(params):
        stats = path_stats(path)
        rows.append(
            IdentityRow(
                path=str(path),
                genus=g,
                interior_count=len(stats.interior),
                opairs=stats.opairs,
                hplus=stats.hplus,
                k_interior=sum(stats.kvals[p] for p in stats.interior),
                k_inner=sum(stats.kvals[p] for p in stats.inner),
                k_outer_trimmed=sum(stats.kvals[p] for p in stats.vstar),
            )
        )
    return rows


@dataclass
class CrossCheck:
    """Closed-form sum vs sweep evaluation, total and leaf by leaf."""

    total_match: bool
    leaf_count: int
    expected_leaf_count: int
    mismatches: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (
            self.total_match
            and not self.mismatches
            and self.leaf_count == self.expected_leaf_count
        )


def cross_check(params: KnotParams, hhh: SweepResult) -> CrossCheck:
    """Compare hhh, the HHH sweep of params, with the closed form."""
    check = CrossCheck(
        total_match=(hhh.total == hhh_direct(params)),
        leaf_count=len(hhh.leaves),
        expected_leaf_count=rational_catalan(params),
    )
    by_path = {str(leaf.path): leaf.value for leaf in hhh.leaves}
    for path, term in zip(enumerate_paths(params), hhh_terms(params), strict=True):
        expected = Invariant(term, 1)
        got = by_path.get(str(path))
        if got != expected:
            check.mismatches.append(
                f"{path}: sweep {got}, closed form {expected}"
            )
    return check


@dataclass
class CatalanCheck:
    expected: int
    got: int

    @property
    def passed(self) -> bool:
        return self.expected == self.got


def catalan_check(params: KnotParams) -> CatalanCheck:
    """Counting specialization: the unnormalized numerator at a=0, q=t=1
    must count the Dyck paths."""
    return CatalanCheck(
        expected=rational_catalan(params), got=specialize_count(hhh_direct(params))
    )


@dataclass
class SymmetryChecks:
    """Externally known regressions, not consequences of the evaluators."""

    mn_symmetric: bool
    qt_symmetric: bool

    @property
    def passed(self) -> bool:
        return self.mn_symmetric and self.qt_symmetric


def symmetry_checks(params: KnotParams) -> SymmetryChecks:
    p = superpolynomial(params)
    return SymmetryChecks(
        mn_symmetric=(p == superpolynomial(params.swapped())),
        qt_symmetric=(p.num.swap_qt() == p.num),
    )


@dataclass
class RatioEntry:
    path: str
    is_monomial: bool
    sign: Optional[int]
    exponents: Optional[ExponentTriple]
    magnitude: Optional[int]
    pretty: str


@dataclass
class RatioReport:
    """Per-leaf ratio of the scalar-profile value to (1-a)(1-t) times the
    HHH-profile value.  Each ratio must be a signed monomial; whether all
    leaves share a single monomial is reported but never required."""

    entries: list[RatioEntry]
    all_monomial: bool
    shares_global_monomial: bool
    single_interval_prediction: str

    @property
    def passed(self) -> bool:
        return self.all_monomial


def _pretty_monomial(sign: int, exp: ExponentTriple, magnitude: int) -> str:
    body = LaurentPoly.monomial(magnitude, *exp).text()
    return body if sign > 0 else f"-{body}"


def leaf_ratio_report(params: KnotParams, hhh: SweepResult, toric: SweepResult) -> RatioReport:
    """Ratio table of the scalar sweep (toric) against the HHH sweep (hhh)
    of params."""
    one_minus_a = ONE - A
    entries: list[RatioEntry] = []
    for h_leaf, t_leaf in zip(hhh.leaves, toric.leaves):
        if str(h_leaf.path) != str(t_leaf.path):
            raise RuntimeError(f"leaf paths differ: {h_leaf.path} vs {t_leaf.path}")
        # both leaves are x / (1-t)^d with the HHH side at d = 1 and the
        # scalar side at d = 0, so (1-a)(1-t) * HHH leaf is polynomial
        reference = Invariant(one_minus_a * h_leaf.value.num, h_leaf.value.dpow - 1)
        if reference.dpow != 0 or t_leaf.value.dpow != 0:
            raise RuntimeError(f"leaf {h_leaf.path} of {params} is not polynomial")
        ratio = monomial_ratio(t_leaf.value.num, reference.num)
        if ratio is None:
            entries.append(
                RatioEntry(str(h_leaf.path), False, None, None, None, "not a monomial")
            )
        else:
            sign, exp, mag = ratio
            entries.append(
                RatioEntry(
                    str(h_leaf.path), True, sign, exp, mag, _pretty_monomial(sign, exp, mag)
                )
            )
    all_monomial = all(e.is_monomial for e in entries)
    shares = all_monomial and len({e.pretty for e in entries}) <= 1

    start = initial_coloring(params)
    strands = start.strand_count
    predicted = _pretty_monomial(
        1 if strands % 2 == 0 else -1, (0, start.k - strands, 0), 1
    )
    return RatioReport(entries, all_monomial, shares, predicted)


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


_SUITES = ("identities", "cross", "catalan", "symmetry", "ratios")


@dataclass
class VerificationReport:
    m: int
    n: int
    identities: Optional[list[IdentityRow]]
    cross: Optional[CrossCheck]
    catalan: Optional[CatalanCheck]
    symmetry: Optional[SymmetryChecks]
    ratios: Optional[RatioReport]
    external_strict: bool

    @property
    def identities_pass(self) -> Optional[bool]:
        if self.identities is None:
            return None
        return all(row.passed for row in self.identities)

    @property
    def overall_pass(self) -> bool:
        checks = [
            self.identities_pass,
            None if self.cross is None else self.cross.passed,
            None if self.catalan is None else self.catalan.passed,
            None if self.ratios is None else self.ratios.passed,
        ]
        if self.external_strict and self.symmetry is not None:
            checks.append(self.symmetry.passed)
        return all(c for c in checks if c is not None)


def run_suite(
    params: KnotParams,
    external_strict: bool = True,
    suites: Optional[set[str]] = None,
) -> VerificationReport:
    """Run the selected suites (all by default) for one pair.

    The sweep runs at most once: "cross" and "ratios" share its HHH
    result, and "ratios" has the scalar profile carried in the same
    traversal.
    """
    selected = set(_SUITES) if suites is None else suites
    unknown = selected - set(_SUITES)
    if unknown:
        raise ValueError(f"unknown suites: {sorted(unknown)}")
    hhh = toric = None
    if "ratios" in selected:
        hhh, toric = evaluate_profiles(params, (HHH_PROFILE, TORIC_PROFILE))
    elif "cross" in selected:
        (hhh,) = evaluate_profiles(params, (HHH_PROFILE,))
    return VerificationReport(
        m=params.m,
        n=params.n,
        identities=identity_suite(params) if "identities" in selected else None,
        cross=cross_check(params, hhh) if "cross" in selected else None,
        catalan=catalan_check(params) if "catalan" in selected else None,
        symmetry=symmetry_checks(params) if "symmetry" in selected else None,
        ratios=leaf_ratio_report(params, hhh, toric) if "ratios" in selected else None,
        external_strict=external_strict,
    )


def report_json(report: VerificationReport) -> dict:
    out: dict = {
        "m": report.m,
        "n": report.n,
        "overall_pass": report.overall_pass,
        "external_strict": report.external_strict,
    }
    if report.identities is not None:
        out["identities"] = {
            "pass": report.identities_pass,
            "paths": [
                {
                    "path": row.path,
                    "i1": row.i1,
                    "i2": row.i2,
                    "i3": row.i3,
                    "i4": row.i4,
                    "interior": row.interior_count,
                    "opairs": row.opairs,
                    "hplus": row.hplus,
                    "k_interior": row.k_interior,
                    "k_inner": row.k_inner,
                    "k_outer_trimmed": row.k_outer_trimmed,
                }
                for row in report.identities
            ],
        }
    if report.cross is not None:
        out["cross_check"] = {
            "pass": report.cross.passed,
            "total_match": report.cross.total_match,
            "leaf_count": report.cross.leaf_count,
            "expected_leaf_count": report.cross.expected_leaf_count,
            "mismatches": report.cross.mismatches,
        }
    if report.catalan is not None:
        out["catalan"] = {
            "pass": report.catalan.passed,
            "expected": report.catalan.expected,
            "got": report.catalan.got,
        }
    if report.symmetry is not None:
        out["symmetry"] = {
            "pass": report.symmetry.passed,
            "mn_symmetric": report.symmetry.mn_symmetric,
            "qt_symmetric": report.symmetry.qt_symmetric,
            "label": "external property",
        }
    if report.ratios is not None:
        out["leaf_ratios"] = {
            "pass": report.ratios.passed,
            "all_monomial": report.ratios.all_monomial,
            "shares_global_monomial": report.ratios.shares_global_monomial,
            "single_interval_prediction": report.ratios.single_interval_prediction,
            "leaves": [
                {
                    "path": e.path,
                    "is_monomial": e.is_monomial,
                    "ratio": e.pretty,
                }
                for e in report.ratios.entries
            ],
        }
    return out


def report_lines(report: VerificationReport) -> list[str]:
    def mark(ok: Optional[bool]) -> str:
        return "pass" if ok else "FAIL"

    lines = [f"verification of ({report.m},{report.n})"]
    if report.identities is not None:
        lines.append(
            f"  identities i1-i4 over {len(report.identities)} paths: "
            f"{mark(report.identities_pass)}"
        )
    if report.cross is not None:
        c = report.cross
        lines.append(
            f"  cross-check (closed form vs sweep), {c.leaf_count} leaves: {mark(c.passed)}"
        )
        lines.extend(f"    mismatch {m}" for m in c.mismatches)
    if report.catalan is not None:
        lines.append(
            f"  catalan specialization: expected {report.catalan.expected}, "
            f"got {report.catalan.got}: {mark(report.catalan.passed)}"
        )
    if report.symmetry is not None:
        s = report.symmetry
        tag = "" if report.external_strict else " (warning only)"
        lines.append(
            f"  symmetry [external property]{tag}: (m,n)<->(n,m) "
            f"{mark(s.mn_symmetric)}, q<->t {mark(s.qt_symmetric)}"
        )
    if report.ratios is not None:
        r = report.ratios
        lines.append(
            f"  profile leaf ratios all monomial: {mark(r.all_monomial)}; "
            f"shared global monomial: {'yes' if r.shares_global_monomial else 'no'} "
            f"(informational; single-interval prediction {r.single_interval_prediction})"
        )
        for e in r.entries:
            lines.append(f"    {e.path}: {e.pretty}")
    lines.append(f"  overall: {mark(report.overall_pass)}")
    return lines
