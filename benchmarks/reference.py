"""Expectations the benchmark derives on its own, without the code it times.

Every operation the benchmark runs is checked against something computed
here: bands from the alpha product formulas of the paper, the Darboux band
products, scalar four-term recurrences evaluated at one rational point, and
a direct scan for the first negative entry of a dense matrix.  All of it is
exact (``Fraction`` or ``int``) arithmetic; nothing here imports tetrahess.
"""

from __future__ import annotations

import math
from fractions import Fraction


class CheckFailed(Exception):
    """An operation's exit code, verdict or output differs from the expectation."""


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


def alpha_at(alphas, j):
    """1-based alpha_j with alpha_j = 0 for j <= 0."""
    return alphas[j - 1] if j >= 1 else Fraction(0)


def bands(alphas, rows):
    """(a, b, c) band lists of the matrix factored by ``alphas``, rows 0..rows:
    c_n = al_{3n+1} + al_{3n} + al_{3n-1},
    b_n = al_{3n} al_{3n-2} + al_{3n-1} al_{3n-2} + al_{3n-1} al_{3n-3},
    a_n = al_{3n-1} al_{3n-3} al_{3n-5};  c from n = 0, b from 1, a from 2."""
    al = lambda j: alpha_at(alphas, j)  # noqa: E731
    c = [al(3 * n + 1) + al(3 * n) + al(3 * n - 1) for n in range(rows + 1)]
    b = [
        al(3 * n) * al(3 * n - 2) + al(3 * n - 1) * al(3 * n - 2) + al(3 * n - 1) * al(3 * n - 3)
        for n in range(1, rows + 1)
    ]
    a = [al(3 * n - 1) * al(3 * n - 3) * al(3 * n - 5) for n in range(2, rows + 1)]
    return a, b, c


def darboux_bands(alphas, which):
    """(a, b, c) bands of the hat or hathat transform down to the last row the
    alphas determine, from the paper's band products (alpha_j = 0, j <= 0)."""
    al = lambda j: alpha_at(alphas, j)  # noqa: E731
    k = len(alphas)
    if which == "hat":
        rows = min((k - 2) // 3, (k - 1) // 3, k // 3)
        c = lambda n: al(3 * n + 2) + al(3 * n + 1) + al(3 * n)  # noqa: E731
        b = lambda n: (  # noqa: E731
            al(3 * n) * al(3 * n - 1) + al(3 * n + 1) * al(3 * n - 1) + al(3 * n) * al(3 * n - 2)
        )
        a = lambda n: al(3 * n) * al(3 * n - 2) * al(3 * n - 4)  # noqa: E731
    else:
        rows = min((k - 3) // 3, (k - 2) // 3, (k - 1) // 3)
        c = lambda n: al(3 * n + 3) + al(3 * n + 2) + al(3 * n + 1)  # noqa: E731
        b = lambda n: (  # noqa: E731
            al(3 * n + 1) * al(3 * n) + al(3 * n + 2) * al(3 * n) + al(3 * n + 1) * al(3 * n - 1)
        )
        a = lambda n: al(3 * n + 1) * al(3 * n - 1) * al(3 * n - 3)  # noqa: E731
    return (
        [a(n) for n in range(2, rows + 1)],
        [b(n) for n in range(1, rows + 1)],
        [c(n) for n in range(rows + 1)],
    )


# -- scalar recurrences at one point x ---------------------------------------
# Band lists are indexed as returned by bands(): c[n], b[n - 1], a[n - 2].


def type2_values(a, b, c, n, x):
    """B_0(x) .. B_N(x) from B_{k+1} = (x - c_k) B_k - b_k B_{k-1} - a_k B_{k-2}."""
    vals = [Fraction(1)]
    if n >= 1:
        vals.append(x - c[0])
    for k in range(1, n):
        v = (x - c[k]) * vals[k] - b[k - 1] * vals[k - 1]
        if k >= 2:
            v -= a[k - 2] * vals[k - 2]
        vals.append(v)
    return vals


def type1_values(a, b, c, n, nu, x):
    """(A1_0..A1_N, A2_0..A2_N) at x from the left eigenvector relation
    a_k A_k = -b_{k-1} A_{k-1} + (x - c_{k-2}) A_{k-2} - A_{k-3}."""
    a1 = [Fraction(1), nu]
    a2 = [Fraction(0), Fraction(1)]
    for k in range(2, n + 1):
        for seq in (a1, a2):
            v = -(b[k - 2] * seq[k - 1]) + (x - c[k - 2]) * seq[k - 2]
            if k >= 3:
                v -= seq[k - 3]
            seq.append(v / a[k - 2])
    return a1[: n + 1], a2[: n + 1]


def second_kind_values(a, b, c, n, nu, x):
    """(B1, B2, b1) at x, indices 0..N: the type II recurrence extended to
    k >= 0 with b_0 = a_0 = a_1 = -1, seeded at indices (-2, -1, 0) by
    B1: (1, 0, 0) and B2: (-1 - nu, 1, 0); b1 = B2 + nu B1."""

    def run(w0, w1):
        w2 = Fraction(0)
        out = [w2]
        for k in range(n):
            bk = b[k - 1] if k >= 1 else Fraction(-1)
            ak = a[k - 2] if k >= 2 else Fraction(-1)
            w0, w1, w2 = w1, w2, (x - c[k]) * w2 - bk * w1 - ak * w0
            out.append(w2)
        return out

    big1 = run(Fraction(1), Fraction(0))
    big2 = run(-1 - nu, Fraction(1))
    return big1, big2, [q + nu * p for p, q in zip(big1, big2)]


def poly_matches_value(coeff_strings, x, value):
    """True when the polynomial with ascending coefficients ``coeff_strings``
    ("p/q" text) takes exactly ``value`` at the rational ``x``.

    Evaluated in integers, q^d D P(p/q) = sum n_k (D/d_k) p^k q^(d-k) with D
    the lcm of the coefficient denominators, so no gcd runs per term."""
    nums, dens = [], []
    for s in coeff_strings:
        num, _, den = s.partition("/")
        nums.append(int(num))
        dens.append(int(den) if den else 1)
    if not nums:
        return value == 0
    lcm = math.lcm(*dens)
    p, q = x.numerator, x.denominator
    deg = len(nums) - 1
    acc = 0
    qpow = 1
    for k in range(deg, -1, -1):
        acc = acc * p + nums[k] * (lcm // dens[k]) * qpow
        qpow *= q
    # acc = D q^deg P(x); qpow = q^(deg+1)
    return acc * value.denominator == value.numerator * lcm * (qpow // q)


def first_negative_entry(rows):
    """Lexicographically first negative 1x1 minor of a dense matrix, as the
    1-based (rows, cols, value) witness plus its 1-based position in the
    row-major scan, or None."""
    size = len(rows)
    for i in range(size):
        for j in range(size):
            if rows[i][j] < 0:
                return ((i + 1,), (j + 1,), rows[i][j]), i * size + j + 1
    return None
