"""The a^0 slice of the unnormalized series in two variables: the rational
q,t-Catalan number (Gorsky-Negut, one of the conjectures the paper proves).

With g = (m-1)(n-1)/2, the a^0 terms of the numerator are

    q^-g  sum over (m, n)-Dyck paths pi of  t^area(pi) q^dinv(pi),

with the rational dinv of Gorsky-Mazin.  The paths, their area and their
dinv come from tests/oracles.py, which shares no code with the package.
The classical oracles check only this slice's t = q^-1 shadow.

The top a-degree slice is pinned by the same q,t-Catalan numbers, one knot
down: see top_slice_prediction.
"""

from khr.dyck import KnotParams, coprime_pairs, enumerate_paths, hplus
from khr.formula import hhh_direct
from khr.sweep import HHH_PROFILE, evaluate

from .oracles import brute_area, brute_dinv, brute_paths


def qt_catalan(m, n):
    """q^-g sum t^area q^dinv as {(q2, t2): coefficient}, in the numerator's
    doubled exponents."""
    g = (m - 1) * (n - 1) // 2
    out = {}
    for word in brute_paths(m, n):
        key = (2 * (brute_dinv(m, n, word) - g), 2 * brute_area(m, n, word))
        out[key] = out.get(key, 0) + 1
    return out


def a_zero_slice(value):
    """The a^0 terms of value's numerator as {(q2, t2): coefficient}, or
    None when value does not sit over (1 - t)^1."""
    if value.dpow != 1:
        return None
    return {(q2, t2): c for (ea, q2, t2), c in value.num.items() if ea == 0}


def top_slice(value, n):
    """The a^(n-1) terms of value's numerator as {(q2, t2): coefficient},
    or None when value does not sit over (1 - t)^1 or has a term of higher
    a-degree."""
    if value.dpow != 1 or any(ea >= n for (ea, _, _), _ in value.num.items()):
        return None
    return {(q2, t2): c for (ea, q2, t2), c in value.num.items() if ea == n - 1}


def top_slice_prediction(m, n):
    """For coprime m > n: (-1)^(n-1) q^(-n(n-1)/2) times the a^0 slice of
    the (m - n, n) knot, as {(q2, t2): coefficient}.

    External property, not a consequence of anything computed here: the
    (m, n) torus braid is the (m - n, n) one times a full twist on n
    strands, and the full twist is a Serre functor (Gorsky, Hogancamp,
    Mellit and Nakagane, Serre duality for Khovanov-Rozansky homology,
    2019), which relates the top a-degree of the closure of a braid times
    the full twist to the bottom a-degree of the braid's own closure.  The
    sign and the q-shift are this package's conventions, found by
    comparison."""
    sign = -1 if n % 2 == 0 else 1
    return {(q2 - n * (n - 1), t2): sign * c for (q2, t2), c in qt_catalan(m - n, n).items()}


def test_trefoil():
    # NNEEE has area 1 and dinv 0, NENEE area 0 and dinv 1; g = 1
    assert [brute_dinv(3, 2, word) for word in ("NNEEE", "NENEE")] == [0, 1]
    assert qt_catalan(3, 2) == {(-2, 2): 1, (0, 0): 1}


def test_dinv_is_hplus():
    checked = 0
    for params in coprime_pairs(16):
        for path in enumerate_paths(params):
            assert brute_dinv(params.m, params.n, str(path)) == hplus(path), (params, str(path))
            checked += 1
    assert checked == 4505


def test_closed_form_a_zero_slice():
    failures = [
        (p.m, p.n) for p in coprime_pairs(14) if a_zero_slice(hhh_direct(p)) != qt_catalan(p.m, p.n)
    ]
    assert failures == []


def test_sweep_a_zero_slice():
    failures = [
        (p.m, p.n)
        for p in coprime_pairs(12)
        if a_zero_slice(evaluate(p, HHH_PROFILE).total) != qt_catalan(p.m, p.n)
    ]
    assert failures == []


def test_closed_form_top_slice():
    knots = [p for p in coprime_pairs(20) if p.m > p.n]
    assert len(knots) == 63
    failures = [
        (p.m, p.n) for p in knots if top_slice(hhh_direct(p), p.n) != top_slice_prediction(p.m, p.n)
    ]
    assert failures == []


def test_sweep_top_slice():
    knots = [p for p in coprime_pairs(14) if p.m > p.n]
    assert len(knots) == 31
    failures = [
        (p.m, p.n)
        for p in knots
        if top_slice(evaluate(p, HHH_PROFILE).total, p.n) != top_slice_prediction(p.m, p.n)
    ]
    assert failures == []


def test_trefoil_top_slice():
    # the (3, 2) numerator is q^-1 t + 1 - a q^-1, and its a^1 slice is
    # -q^-1 times the (1, 2) unknot's a^0 slice, 1
    assert top_slice(hhh_direct(KnotParams(3, 2)), 2) == {(-2, 0): -1}
    assert top_slice_prediction(3, 2) == {(-2, 0): -1}
