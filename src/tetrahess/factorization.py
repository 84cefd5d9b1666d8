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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (AlphaSequence, DenseMatrix, TetraHessenberg, _banded, _factor_triple, _interleave,
                   _lu_bands, _split_alphas)
from .errors import SingularLeadingMinor, ZeroAlpha3n
from .polynomials import _values


@dataclass(frozen=True)
class GaussBorelFactors:
    """LU data of one truncation T^[N].

    delta  -- (delta^[0], ..., delta^[N]); delta^[-1] = 1 is implicit
    m      -- first subdiagonal of L, (m_1, ..., m_N)
    ell    -- second subdiagonal of L, (l_2, ..., l_N)
    u_diag -- diagonal of U, (alpha_1, alpha_4, ..., alpha_{3N+1})
    """

    delta: tuple
    m: tuple
    ell: tuple
    u_diag: tuple

    @property
    def order(self) -> int:
        return len(self.delta) - 1

    def lower_matrix(self) -> DenseMatrix:
        one = Fraction(1)
        bands = {0: lambda i: one, -1: lambda i: self.m[i - 1], -2: lambda i: self.ell[i - 2]}
        return _banded(self.order + 1, bands)

    def upper_matrix(self) -> DenseMatrix:
        bands = {0: lambda i: self.u_diag[i], 1: lambda i: Fraction(1)}
        return _banded(self.order + 1, bands)

    def product_bands(self):
        """(diagonal, first subdiagonal, second subdiagonal) of L U in O(N),
        rows indexed as c, b and a are (from 0, 1 and 2): the product of
        core._lu_bands with m_0 = l_0 = l_1 = 0."""
        c, b, a = _lu_bands(self.u_diag, (0,) + self.m, (0, 0) + self.ell)
        return c.values, b.values, a.values


def gauss_borel(t: TetraHessenberg, n: int) -> GaussBorelFactors:
    """LU data of T^[N]; raises SingularLeadingMinor at the first vanishing
    delta^[n].  Rows 0..N are read before any delta is tested, so a matrix
    with fewer rows raises BandExhausted even when an earlier delta
    vanishes."""
    if n < 0:
        raise ValueError("truncation order must be >= 0")
    [((b,), d)] = _values(t, n + 1, (0,), ("B",))
    if 0 in b[1:]:
        raise SingularLeadingMinor(b.index(0, 1) - 1)
    delta = tuple(Fraction(v if k % 2 else -v, d) for k, v in enumerate(b[1:]))
    u_diag = tuple(Fraction(-b[k + 1], b[k]) for k in range(n + 1))
    m = tuple(t.c(k) - u_diag[k] for k in range(1, n + 1))
    ell = []
    for k in range(2, n + 1):
        a = t.a(k)
        ell.append(Fraction(-a.numerator * b[k - 2], a.denominator * b[k - 1]))
    return GaussBorelFactors(delta=delta, m=m, ell=tuple(ell), u_diag=u_diag)


def bidiagonal_factor(t: TetraHessenberg, n: int, alpha2) -> AlphaSequence:
    """Refine the LU data of T^[N] into alpha_1 .. alpha_{3N+1} given the
    free parameter alpha_2, by splitting L = L1 L2: with p and q the
    subdiagonals of L1 and L2 (core._split_alphas),

        p_1 = alpha_2,  p_k = l_k / q_{k-1} (k >= 2),  q_k = m_k - p_k,

    and U's diagonal as it stands.

    Raises ZeroAlpha3n(k) when q_k = alpha_{3k} = 0 makes the division for
    p_{k+1} impossible (k = 1 .. N-1; a zero q_N is harmless because
    nothing is divided by it)."""
    gb = gauss_borel(t, n)
    p, q = [0], [0]
    for k, m_k in enumerate(gb.m, start=1):
        if k > 1 and q[-1] == 0:
            raise ZeroAlpha3n(k - 1)
        p_k = alpha2 if k == 1 else gb.ell[k - 2] / q[-1]
        p.append(p_k)
        q.append(m_k - p_k)
    return _interleave(gb.u_diag, p, q)


def lm_from_alphas(alphas: AlphaSequence, n: int):
    """The L-subdiagonals induced by an alpha sequence: m_k (k = 1..N) and
    l_k (k = 2..N), sliced from the factor triple of alpha_1 .. alpha_{3N}.

    Any two alpha sequences factoring the same matrix agree on these."""
    _, m, ell = _factor_triple(*_split_alphas(alphas.prefix(3 * n)))
    return m[1:], ell[2:]
