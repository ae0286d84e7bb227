"""The a^0 slice of the unnormalized series in two variables: the rational
q,t-Catalan number (Gorsky-Negut, one of the conjectures the paper proves).

With g = (m-1)(n-1)/2, the a^0 terms of the numerator are

    q^-g  sum over (m, n)-Dyck paths pi of  t^area(pi) q^dinv(pi),

with the rational dinv of Gorsky-Mazin.  The paths, their area and their
dinv come from tests/oracles.py, which shares no code with the package.
The classical oracles check only this slice's t = q^-1 shadow.
"""

from khr.dyck import coprime_pairs, enumerate_paths, hplus
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
