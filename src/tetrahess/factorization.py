"""Gauss-Borel (LU) data of leading principal truncations and the refinement
into three positive bidiagonal factors.

The LU factorization of T^[N] exists iff every leading principal minor
delta^[n] is nonzero.  Each minor is the recursion polynomial B_{n+1} =
det(xI - T^[n]) at the origin,

    delta^[n] = det T^[n] = (-1)^{n+1} B_{n+1}(0),

so the factors are read off the values at x = 0, int numerators over one
denominator (``polynomials._values``): with B_0 = 1,
u_n = -B_{n+1}(0) / B_n(0) and l_n = -a_n B_{n-2}(0) / B_{n-1}(0), each
one Fraction of two ints.  The refinement T^[N] = L1 L2 U is parametrized
by one free value alpha_2; everything else is forced:

    alpha_{3n+1} = delta^[n] / delta^[n-1]          (diagonal of U)
    alpha_2 + alpha_3 = m_1,   alpha_{3n+2} alpha_{3n} = l_{n+1},
    alpha_{3n+2} + alpha_{3n+3} = m_{n+1}

where m_n, l_n are the two subdiagonals of the unit lower factor L.

The signs of the factors alone can decide whether T^[N] is oscillatory
(``_factor_sign_verdict``): nonnegative bidiagonal factors with a positive
U diagonal make it a nonsingular totally nonnegative matrix
(Loewner-Whitney), and a negative entry a_n refutes it.
"""

from __future__ import annotations

from fractions import Fraction

from .core import AlphaSequence, TetraHessenberg, _interleave, _split_alphas
from .errors import SingularLeadingMinor, ZeroAlpha3n
from .polynomials import _values


def gauss_borel(t: TetraHessenberg, n: int) -> tuple:
    """LU data of T^[N] as the factor triple (u, m, l) of core._factor_triple:
    u = (u_0, ..., u_N) the diagonal of U, m = (m_0, ..., m_N) and
    l = (l_0, ..., l_N) the subdiagonals of L, with m_0 = l_0 = l_1 = 0, so
    core._lu_bands gives back the bands of T^[N].  delta^[n] is
    u_0 u_1 ... u_n.

    Raises SingularLeadingMinor at the first vanishing delta^[n].  Rows
    0..N are read before any delta is tested, so a matrix with fewer rows
    raises BandExhausted even when an earlier delta vanishes."""
    if n < 0:
        raise ValueError("truncation order must be >= 0")
    [((b,), _)] = _values(t, n + 1, (0,), ("B",))
    if 0 in b[1:]:
        raise SingularLeadingMinor(b.index(0, 1) - 1)
    u = tuple(Fraction(-b[k + 1], b[k]) for k in range(n + 1))
    m = tuple(t.c(k) - u[k] for k in range(n + 1))
    ell = [Fraction(0), Fraction(0)][: n + 1]
    for k in range(2, n + 1):
        a = t.a(k)
        ell.append(Fraction(-a.numerator * b[k - 2], a.denominator * b[k - 1]))
    return u, m, tuple(ell)


def bidiagonal_factor(t: TetraHessenberg, n: int, alpha2) -> AlphaSequence:
    """Refine the LU data of T^[N] into alpha_1 .. alpha_{3N+1} given the
    free parameter alpha_2, by splitting L = L1 L2: with p and q the
    subdiagonals of L1 and L2 (core._split_alphas),

        p_1 = alpha_2,  p_k = l_k / q_{k-1} (k >= 2),  q_k = m_k - p_k,

    and U's diagonal as it stands.

    Raises ZeroAlpha3n(k) when q_k = alpha_{3k} = 0 makes the division for
    p_{k+1} impossible (k = 1 .. N-1; a zero q_N is harmless because
    nothing is divided by it)."""
    u, m, ell = gauss_borel(t, n)
    p, q = [0], [0]
    for k in range(1, n + 1):
        if k > 1 and q[-1] == 0:
            raise ZeroAlpha3n(k - 1)
        p_k = alpha2 if k == 1 else ell[k] / q[-1]
        p.append(p_k)
        q.append(m[k] - p_k)
    return _interleave(u, p, q)


def _factor_sign_verdict(signs, n):
    """Is T^[N] oscillatory, read off the tuple of the signs (-1, 0 or 1)
    of alpha_1 .. alpha_{3N+1} alone?  True, False, or None when the signs cannot tell.

    True when every u_k > 0 and every p_k, q_k >= 0 (core._split_alphas)
    with p_k > 0 or q_k > 0 for k = 1..N.  Then T^[N] = L1 L2 U is a
    product of nonnegative bidiagonals, so it is totally nonnegative; its
    determinant u_0 ... u_N is positive; its superdiagonal is 1 and
    b_k = p_k q_{k-1} + (p_k + q_k) u_{k-1} > 0.  By Gantmacher-Krein it is
    oscillatory.

    False when some a_k = p_k q_{k-1} u_{k-2}, 2 <= k <= N, is negative: a
    negative entry is a negative 1 x 1 minor."""
    u, p, q = _split_alphas(signs)
    if (all(s > 0 for s in u) and all(s >= 0 for s in p + q)
            and all(p[k] > 0 or q[k] > 0 for k in range(1, n + 1))):
        return True
    if any(p[k] * q[k - 1] * u[k - 2] < 0 for k in range(2, n + 1)):
        return False
    return None
