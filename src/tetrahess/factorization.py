"""Gauss-Borel (LU) data of leading principal truncations and the refinement
into three positive bidiagonal factors.

The LU factorization of T^[N] exists iff every leading principal minor
delta^[n] is nonzero; these minors satisfy the four-term recurrence

    delta^[n] = c_n delta^[n-1] - b_n delta^[n-2] + a_n delta^[n-3]

with delta^[-1] = 1 and delta^[-2] = delta^[-3] = 0 (so a_1, b_0 never
enter).  The refinement T^[N] = L1 L2 U is parametrized by one free value
alpha_2; everything else is forced:

    alpha_{3n+1} = delta^[n] / delta^[n-1]          (diagonal of U)
    alpha_2 + alpha_3 = m_1,   alpha_{3n+2} alpha_{3n} = l_{n+1},
    alpha_{3n+2} + alpha_{3n+3} = m_{n+1}

where m_n, l_n are the two subdiagonals of the unit lower factor L.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import AlphaSequence, DenseMatrix, TetraHessenberg, _banded, _factor_triple, _lu_bands
from .errors import SingularLeadingMinor, ZeroAlpha3n


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
    delta^[n]."""
    if n < 0:
        raise ValueError("truncation order must be >= 0")
    deltas = [Fraction(1)]  # deltas[i] = delta^[i-1]
    for k in range(n + 1):
        term_c = t.c(k) * deltas[k]
        term_b = t.b(k) * deltas[k - 1] if k >= 1 else 0
        term_a = t.a(k) * deltas[k - 2] if k >= 2 else 0
        value = term_c - term_b + term_a
        if value == 0:
            raise SingularLeadingMinor(k)
        deltas.append(value)
    u_diag = tuple(deltas[k + 1] / deltas[k] for k in range(n + 1))
    m = tuple(t.c(k) - u_diag[k] for k in range(1, n + 1))
    ell = tuple(t.a(k) * deltas[k - 2] / deltas[k - 1] for k in range(2, n + 1))
    return GaussBorelFactors(delta=tuple(deltas[1:]), m=m, ell=ell, u_diag=u_diag)


def bidiagonal_factor(t: TetraHessenberg, n: int, alpha2) -> AlphaSequence:
    """Refine the LU data of T^[N] into alpha_1 .. alpha_{3N+1} given the
    free parameter alpha_2.

    Raises ZeroAlpha3n(k) when alpha_{3k} = 0 makes the division for
    alpha_{3k+2} impossible (k = 1 .. N-1; a zero alpha_{3N} is harmless
    because nothing is divided by it)."""
    gb = gauss_borel(t, n)
    alpha = [None] * (3 * n + 2)  # 1-based
    for k in range(n + 1):
        alpha[3 * k + 1] = gb.u_diag[k]
    if n >= 1:
        alpha[2] = alpha2
        alpha[3] = gb.m[0] - alpha2
        for k in range(1, n):
            if alpha[3 * k] == 0:
                raise ZeroAlpha3n(k)
            alpha[3 * k + 2] = gb.ell[k - 1] / alpha[3 * k]
            alpha[3 * k + 3] = gb.m[k] - alpha[3 * k + 2]
    return AlphaSequence(values=alpha[1:])


def lm_from_alphas(alphas: AlphaSequence, n: int):
    """The L-subdiagonals induced by an alpha sequence:
    m_k = alpha_{3k-1} + alpha_{3k} (k = 1..N) and
    l_k = alpha_{3k-1} alpha_{3k-3} (k = 2..N), sliced from the factor
    triple of alpha_1 .. alpha_{3N}.

    Any two alpha sequences factoring the same matrix agree on these."""
    _, m, ell = _factor_triple(alphas.at, 3 * n)
    return m[1:], ell[2:]
