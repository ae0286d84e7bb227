"""Classical torus-knot formulas that share nothing with Dyck paths.

Both checks substitute t = q^-1 into a numerator, so a term a^ea q^(q2/2)
t^(t2/2) becomes q^((q2 - t2)/2), and compare the resulting Laurent
polynomial in q exactly with a closed product formula, where
g = (m-1)(n-1)/2:

* Alexander: at a = 1 the numerator of P(m, n) is q^-g times the Alexander
  polynomial (q^(mn) - 1)(q - 1) / ((q^m - 1)(q^n - 1)), which has degree
  2g; the numerator is q <-> t symmetric, so the result is symmetric about
  q^0;
* rational q-Catalan: the a^0 part of the unnormalized numerator is q^-2g
  times [m+n choose n]_q / [m+n]_q, with q-integers
  [k]_q = 1 + q + ... + q^(k-1).

* HOMFLYPT at qt = 1 (Jones 1987; Rosso-Jones 1993): substitute a -> a^2,
  q -> q^2, t -> q^-2 into the numerator N of P(m, n), so a term becomes
  a^(2 ea) q^(q2 - t2); call the result N*.  Then
  N* prod_{k=2..m} (q^k - q^-k) equals the mirrored hook-partition sum
  a^(n(m-1)) sum_{b=0..m-1} (-1)^b q^(n(m-2b-1)) [m-1, b]
  prod_{c=1..m-b-1} (a^-1 q^c - a q^-c) prod_{c=1..b} (a^-1 q^-c - a q^c),
  with the symmetric q-binomial [N, 0] = [N, N] = 1,
  [N, k] = q^-k [N-1, k] + q^(N-k) [N-1, k-1]: twist times quantum
  dimension of each hook (m-b, 1^b), with the denominators cleared.

* rational Narayana (Armstrong-Rhoades-Williams 2013): at q = t = 1 the
  unnormalized numerator is sum_j N(m, n; j) (1-a)^(j-1) over j = 1 ..
  min(m, n), where N(m, n; j) = C(m-1, j-1) C(n-1, j-1) / j counts the
  paths with j outer corners; both sides are compared times m, which makes
  every term an integer: m N(m, n; j) = C(m, j) C(n-1, j-1).  This one
  substitutes nothing into q or t, and pins the a-structure that the
  corner products carry.

The arithmetic here is plain integer lists and {(a, q) exponent:
coefficient} dicts, independent of the package's polynomial type.  All
three identities read only q2 - t2, so an error that moves weight between
the q- and t-exponents by equal amounts passes them; the q <-> t symmetry
check covers part of that gap.
"""

from math import comb

from khr.dyck import coprime_pairs
from khr.formula import hhh_direct, superpolynomial

MAX_SUM = 16


def mul(p, r):
    out = [0] * (len(p) + len(r) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(r):
            out[i + j] += a * b
    return out


def divide_exact(p, r):
    """p / r for dense coefficient lists, lowest degree first; r is monic and
    the remainder must vanish."""
    p = list(p)
    if r[-1] != 1:
        raise ValueError("divisor must be monic")
    quotient = [0] * (len(p) - len(r) + 1)
    for i in range(len(quotient) - 1, -1, -1):
        c = p[i + len(r) - 1]
        quotient[i] = c
        for j, b in enumerate(r):
            p[i + j] -= c * b
    if any(p):
        raise ValueError("division leaves a remainder")
    return quotient


def q_minus_one(k):
    """q^k - 1."""
    return [-1] + [0] * (k - 1) + [1]


def q_integer(k):
    """[k]_q = 1 + q + ... + q^(k-1)."""
    return [1] * k


def gaussian_binomial(n, k):
    """[n choose k]_q through [n, k] = [n-1, k-1] + q^k [n-1, k]."""
    row = [[1]]  # row[j] is [i choose j]_q for the current i
    for i in range(1, n + 1):
        nxt = []
        for j in range(i + 1):
            left = row[j - 1] if j >= 1 else []
            right = [0] * j + row[j] if j < i else []
            width = max(len(left), len(right))
            nxt.append([
                (left[d] if d < len(left) else 0) + (right[d] if d < len(right) else 0)
                for d in range(width)
            ])
        row = nxt
    return row[k]


def times_q_power(coeffs, s):
    """q^s times the polynomial with dense coefficients coeffs, as
    {exponent: coefficient} without zero terms."""
    return {s + i: c for i, c in enumerate(coeffs) if c}


def at_t_inverse_q(numerator, a_degree=None):
    """Substitute t = q^-1 (and a = 1) into the numerator's terms, keeping
    only a-degree a_degree when it is given; {exponent: coefficient}
    without zero terms."""
    out = {}
    for (ea, q2, t2), c in numerator.items():
        if a_degree is not None and ea != a_degree:
            continue
        if (q2 - t2) % 2:
            raise ValueError(f"term {(ea, q2, t2)} has a half-integer q-power at t = q^-1")
        e = (q2 - t2) // 2
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def alexander(m, n):
    return divide_exact(
        divide_exact(mul(q_minus_one(m * n), q_minus_one(1)), q_minus_one(m)), q_minus_one(n)
    )


def rational_q_catalan(m, n):
    return divide_exact(gaussian_binomial(m + n, n), q_integer(m + n))


def aq_mul(p, r):
    """Product of two {(a-exponent, q-exponent): coefficient} dicts."""
    out = {}
    for (a1, q1), c1 in p.items():
        for (a2, q2), c2 in r.items():
            key = (a1 + a2, q1 + q2)
            out[key] = out.get(key, 0) + c1 * c2
    return {key: c for key, c in out.items() if c}


def aq_add(p, r):
    out = dict(p)
    for key, c in r.items():
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def aq_monomial(c, ea=0, eq=0):
    return {(ea, eq): c}


def symmetric_q_binomial(big, k):
    """[big, k] in q, through [N, k] = q^-k [N-1, k] + q^(N-k) [N-1, k-1]."""
    row = [aq_monomial(1)]  # row[j] is [i, j] for the current i
    for i in range(1, big + 1):
        row = [
            aq_monomial(1),
            *(
                aq_add(
                    aq_mul(aq_monomial(1, eq=-j), row[j]),
                    aq_mul(aq_monomial(1, eq=i - j), row[j - 1]),
                )
                for j in range(1, i)
            ),
            aq_monomial(1),
        ]
    return row[k]


def homflypt_hook_sum(m, n):
    """The right side: the mirrored sum over hooks (m-b, 1^b)."""
    total = {}
    for b in range(m):
        term = aq_mul(aq_monomial((-1) ** b, eq=n * (m - 2 * b - 1)), symmetric_q_binomial(m - 1, b))
        for c in range(1, m - b):
            term = aq_mul(term, {(-1, c): 1, (1, -c): -1})
        for c in range(1, b + 1):
            term = aq_mul(term, {(-1, -c): 1, (1, c): -1})
        total = aq_add(total, term)
    return aq_mul(aq_monomial(1, ea=n * (m - 1)), total)


def homflypt_numerator_side(numerator, m):
    """The left side: N* times prod_{k=2..m} (q^k - q^-k)."""
    star = {}
    for (ea, q2, t2), c in numerator.items():
        star = aq_add(star, aq_monomial(c, ea=2 * ea, eq=q2 - t2))
    for k in range(2, m + 1):
        star = aq_mul(star, {(0, k): 1, (0, -k): -1})
    return star


def narayana_side(m, n):
    """m sum_j N(m, n; j) (1-a)^(j-1) as {a-exponent: coefficient}."""
    out = {}
    for j in range(1, min(m, n) + 1):
        weight = comb(m, j) * comb(n - 1, j - 1)
        for i in range(j):
            out[i] = out.get(i, 0) + weight * comb(j - 1, i) * (-1) ** i
    return {e: c for e, c in out.items() if c}


def at_q_t_one(numerator, scale=1):
    """scale times the numerator at q = t = 1, as {a-exponent: coefficient}."""
    out = {}
    for (ea, _, _), c in numerator.items():
        out[ea] = out.get(ea, 0) + scale * c
    return {e: c for e, c in out.items() if c}


def test_helpers_on_small_cases():
    # the trefoil's Alexander polynomial and the (3,2) q-Catalan number
    assert alexander(3, 2) == [1, -1, 1]
    assert rational_q_catalan(3, 2) == [1, 0, 1]
    assert gaussian_binomial(4, 2) == [1, 1, 2, 1, 1]
    assert times_q_power([1, 0, -1], -2) == {-2: 1, 0: -1}
    assert symmetric_q_binomial(2, 1) == {(0, -1): 1, (0, 1): 1}
    assert symmetric_q_binomial(4, 2) == {(0, -4): 1, (0, -2): 1, (0, 0): 2, (0, 2): 1, (0, 4): 1}
    # the unknot: both sides are 1
    assert homflypt_hook_sum(1, 1) == {(0, 0): 1}
    assert homflypt_numerator_side({(0, 0, 0): 1}, 1) == {(0, 0): 1}
    # the trefoil: 3 (N(3,2;1) + N(3,2;2) (1-a)) = 3 (2 - a)
    assert narayana_side(3, 2) == {0: 6, 1: -3}
    assert at_q_t_one({(0, -2, 2): 1, (0, 0, 0): 1, (1, -2, 0): -1}, scale=3) == {0: 6, 1: -3}


def test_alexander_polynomial():
    failures = []
    for params in coprime_pairs(MAX_SUM):
        m, n = params.m, params.n
        g = (m - 1) * (n - 1) // 2
        value = superpolynomial(params)
        if value.dpow != 1:
            failures.append((m, n, f"over (1-t)^{value.dpow}"))
        elif at_t_inverse_q(value.num) != times_q_power(alexander(m, n), -g):
            failures.append((m, n))
    assert failures == []


def test_rational_q_catalan():
    failures = []
    for params in coprime_pairs(MAX_SUM):
        m, n = params.m, params.n
        g = (m - 1) * (n - 1) // 2
        value = hhh_direct(params)
        if value.dpow != 1:
            failures.append((m, n, f"over (1-t)^{value.dpow}"))
        elif at_t_inverse_q(value.num, a_degree=0) != times_q_power(rational_q_catalan(m, n), -2 * g):
            failures.append((m, n))
    assert failures == []


def test_homflypt_at_qt_one():
    failures = []
    for params in coprime_pairs(MAX_SUM):
        m, n = params.m, params.n
        value = superpolynomial(params)
        if value.dpow != 1:
            failures.append((m, n, f"over (1-t)^{value.dpow}"))
        elif homflypt_numerator_side(value.num, m) != homflypt_hook_sum(m, n):
            failures.append((m, n))
    assert failures == []


def test_rational_narayana_at_q_t_one():
    failures = []
    for params in coprime_pairs(MAX_SUM):
        m, n = params.m, params.n
        value = hhh_direct(params)
        if value.dpow != 1:
            failures.append((m, n, f"over (1-t)^{value.dpow}"))
        elif at_q_t_one(value.num, scale=m) != narayana_side(m, n):
            failures.append((m, n))
    assert failures == []
