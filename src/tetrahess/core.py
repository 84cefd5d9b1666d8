"""Core types: banded tetradiagonal lower Hessenberg matrices, alpha
(factorization parameter) sequences, and small dense matrices.

Index conventions, used everywhere in the package:

* the matrix acts on indices 0, 1, 2, ...; row n holds a_n, b_n, c_n, 1
  with c_n on the diagonal and a unit superdiagonal;
* the diagonal band c starts at n = 0, the first subdiagonal b at n = 1,
  the second subdiagonal a at n = 2, and a_n > 0 is required for every
  n the band holds;
* alpha sequences are 1-based, with the convention alpha_j = 0 for j <= 0;
  _split_alphas alone decides which alpha sits in which bidiagonal factor
  of T = L1 L2 U, and _interleave alone puts the factors back in order.

Every band and every alpha sequence is an explicit finite tuple: the
matrices in this package are truncations of T = L1 L2 U, and a band built
from alphas holds exactly the rows those alphas determine.  Reading past
the end raises BandExhausted naming the band, the index and the count.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .errors import (
    BandExhausted,
    IndexOutOfRange,
    NonPositiveSubSubDiagonal,
)
from .poly import Poly, _make, _reduce
from .scalars import exact_tuple, over_common_denominator


class Classification(enum.Enum):
    """Sign classification of an alpha sequence prefix."""

    PBF = "PBF"            # all inspected entries strictly positive
    TN = "TN"              # all nonnegative, at least one zero
    INDEFINITE = "INDEFINITE"  # some entry negative

    def __str__(self):
        return self.value


class AlphaSequence:
    """1-based finite sequence of factorization parameters alpha_1, alpha_2,
    ..., held as a tuple of int or Fraction values (anything else raises
    TypeError).  ``at(j)`` returns 0 for j <= 0 by convention."""

    __slots__ = ("values",)

    def __init__(self, values):
        object.__setattr__(self, "values", exact_tuple(values, "alpha"))

    def __setattr__(self, name, value):
        raise AttributeError("AlphaSequence is immutable")

    @property
    def length(self):
        return len(self.values)

    def at(self, j):
        if j <= 0:
            return Fraction(0)
        if j > len(self.values):
            raise BandExhausted("alpha", j, len(self.values))
        return self.values[j - 1]

    def prefix(self, count):
        if count > len(self.values):
            raise BandExhausted("alpha", len(self.values) + 1, len(self.values))
        return self.values[: max(count, 0)]

    def classify(self, count=None) -> Classification:
        """Sign classification of alpha_1 .. alpha_count (default: all).  A
        negative entry gives INDEFINITE even when count runs past the end."""
        if count is None:
            count = self.length
        if any(v < 0 for v in self.values[: max(count, 0)]):
            return Classification.INDEFINITE
        return Classification.TN if 0 in self.prefix(count) else Classification.PBF

    def __repr__(self):
        return f"AlphaSequence({list(self.values)!r})"


#: The row at which each band starts: the fixed convention of the package.
BAND_STARTS = {"a": 2, "b": 1, "c": 0}


class TetraHessenberg:
    """Semi-infinite tetradiagonal lower Hessenberg matrix with unit
    superdiagonal, held as the tuples of its first rows in the three bands:
    ``c_band[i]`` is c_i, ``b_band[i]`` is b_{i+1} and ``a_band[i]`` is
    a_{i+2}, each an int or a Fraction (anything else raises TypeError).
    Every a_n is checked to be positive when the matrix is built."""

    __slots__ = ("a_band", "b_band", "c_band")

    def __init__(self, a, b, c):
        object.__setattr__(self, "a_band", exact_tuple(a, "band 'a'"))
        object.__setattr__(self, "b_band", exact_tuple(b, "band 'b'"))
        object.__setattr__(self, "c_band", exact_tuple(c, "band 'c'"))
        for i, v in enumerate(self.a_band):
            if not v > 0:
                raise NonPositiveSubSubDiagonal(2 + i, v)

    def __setattr__(self, name, value):
        raise AttributeError("TetraHessenberg is immutable")

    def c(self, n):
        return _read(self.c_band, "c", n)

    def b(self, n):
        return _read(self.b_band, "b", n)

    def a(self, n):
        return _read(self.a_band, "a", n)

    def materializable_n(self):
        """Largest N with leading_principal(self, N) available."""
        return min(len(self.c_band) - 1, len(self.b_band), len(self.a_band) + 1)

    def shifted(self, k):
        """Matrix with the first k rows and columns deleted (band shift)."""
        return TetraHessenberg(self.a_band[k:], self.b_band[k:], self.c_band[k:])


def _read(values, name, n):
    """Row n of the band ``name``, whose values start at BAND_STARTS[name]."""
    start = BAND_STARTS[name]
    if n < start:
        raise IndexOutOfRange(f"band {name!r} starts at {start}, got {n}")
    if n - start >= len(values):
        raise BandExhausted(name, n, len(values))
    return values[n - start]


class DenseMatrix:
    """Immutable square matrix of exact scalars: an int or Fraction entry,
    anything else raises TypeError naming its row.

    It has two forms.  ``rows`` holds the entries; ``scaled`` is the pair
    (ints, scales) of int rows and one int scale > 0 per row, with
    rows[i][j] == ints[i][j] / scales[i].  A matrix is built in one form,
    and the other is computed on first use and kept: ``scaled`` from
    ``rows`` takes each row's scale as the lcm of its denominators, and
    ``rows`` from ``scaled`` holds reduced Fractions, zeros as one shared
    Fraction(0).  The band builders (leading_principal and the
    Jacobi-Pineiro truncation) write the scaled form through _from_scaled,
    so the TN check and the dense oracles read their int rows with no
    Fraction formed.  ``n`` reads either form."""

    __slots__ = ("_rows", "_scaled")

    def __init__(self, rows):
        rows = tuple(exact_tuple(r, f"DenseMatrix row {i}") for i, r in enumerate(rows))
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("DenseMatrix must be square")
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_scaled", None)

    @classmethod
    def _from_scaled(cls, ints, scales):
        """The matrix of rows ints[i][j] / scales[i], trusted: ``ints`` a
        square tuple of int tuples and ``scales`` a tuple of ints > 0, one per
        row, neither checked.  Any positive scales serve, not only the least."""
        m = object.__new__(cls)
        object.__setattr__(m, "_rows", None)
        object.__setattr__(m, "_scaled", (ints, scales))
        return m

    def __setattr__(self, name, value):
        raise AttributeError("DenseMatrix is immutable")

    @property
    def rows(self):
        rows = self._rows
        if rows is None:
            ints, scales = self._scaled
            rows = tuple(tuple(Fraction(v, d) if v else _ZERO for v in row) for row, d in zip(ints, scales))
            object.__setattr__(self, "_rows", rows)
        return rows

    @property
    def scaled(self):
        scaled = self._scaled
        if scaled is None:
            pairs = [over_common_denominator(row) for row in self._rows]
            scaled = tuple(tuple(ints) for ints, _ in pairs), tuple(d for _, d in pairs)
            object.__setattr__(self, "_scaled", scaled)
        return scaled

    @property
    def n(self) -> int:
        rows = self._rows
        return len(rows if rows is not None else self._scaled[0])

    def principal_block(self, lo, hi) -> "DenseMatrix":
        """Rows and columns lo .. hi - 1, scaled over this matrix's row scales."""
        ints, scales = self.scaled
        return self._from_scaled(tuple(r[lo:hi] for r in ints[lo:hi]), scales[lo:hi])

    def entry(self, i, j):
        return self.rows[i][j]

    def to_lists(self):
        return [list(r) for r in self.rows]

    @staticmethod
    def identity(n):
        return _banded(n, {0: _unit})

    def mul(self, other: "DenseMatrix") -> "DenseMatrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        cols = list(zip(*other.rows))
        return DenseMatrix(
            tuple(
                tuple(sum(u * v for u, v in zip(row, col)) for col in cols)
                for row in self.rows
            )
        )

    __matmul__ = mul

    def submatrix(self, rows, cols) -> "DenseMatrix":
        return DenseMatrix(tuple(tuple(self.rows[i][j] for j in cols) for i in rows))

    def det(self):
        """Determinant by exact Gaussian elimination."""
        n = self.n
        if n == 0:
            return Fraction(1)
        work = [list(r) for r in self.rows]
        det = Fraction(1)
        for col in range(n):
            pivot_row = next((r for r in range(col, n) if work[r][col] != 0), None)
            if pivot_row is None:
                return Fraction(0)
            if pivot_row != col:
                work[col], work[pivot_row] = work[pivot_row], work[col]
                det = -det
            pivot = work[col][col]
            det = det * pivot
            for r in range(col + 1, n):
                if work[r][col] == 0:
                    continue
                factor = Fraction(work[r][col], pivot)  # exact for int entries too
                work[r] = [u - factor * v for u, v in zip(work[r], work[col])]
        return det

    def minor(self, rows, cols):
        return self.submatrix(rows, cols).det()

    def char_poly(self) -> Poly:
        """Characteristic polynomial det(xI - self) via Faddeev-LeVerrier.

        Uses only ring operations plus division by integers, so it is exact
        over Fractions and independent of any banded recurrence."""
        n = self.n
        if n == 0:
            return Poly((Fraction(1),))
        descending = [Fraction(1)]
        m = DenseMatrix.identity(n)
        for k in range(1, n + 1):
            am = self.mul(m)
            ck = -sum(am.rows[i][i] for i in range(n)) / k
            descending.append(ck)
            if k < n:
                m = DenseMatrix(
                    tuple(v + ck if i == j else v for j, v in enumerate(row)) for i, row in enumerate(am.rows)
                )
        return Poly(tuple(reversed(descending)))

    def leading_char_polys(self) -> list:
        """[det(xI - M_k) for k = 0..n], M_k the leading k x k block of this
        lower Hessenberg matrix, in one pass of the cofactor recurrence

            p_{k+1} = (x - m_kk) p_k - sum_{j<k} m_kj (m_{j,j+1} ... m_{k-1,k}) p_j

        (expansion of det(xI - M_{k+1}) along its last row; Wilkinson 1965,
        section 7.11).  It reads the dense entries only, superdiagonal
        included, and walks each row's chain down to its lowest nonzero
        entry, so a banded input costs one polynomial term per nonzero
        subdiagonal entry.  Raises ValueError if an entry above the
        superdiagonal is nonzero.

        Each p_k is held canonical, as int coefficients over its own
        denominator, and row k keeps its own scale s_k from ``scaled``, so
        m_kj = ints_kj / s_k.  With the chain an int ratio cn / cd, p_{k+1}
        is formed over L s_k, L the lcm of den(p_k) and every cd den(p_j),
        and reduced by one gcd (fraction-free, as in Bareiss, Math. Comp.
        1968): no coefficient carries a scale shared across polynomials."""
        ints, scales = self.scaled
        for k, row in enumerate(ints):
            if any(row[k + 2 :]):
                raise ValueError(f"row {k} has a nonzero entry above the superdiagonal")
        polys = [_make((1,), 1)]
        for k, (row, s) in enumerate(zip(ints, scales)):
            p = polys[k]
            lowest = next((j for j in range(k) if row[j]), k)
            big, terms = p.den, []
            cn = cd = 1  # m_{j,j+1} ... m_{k-1,k} = cn / cd
            for j in range(k - 1, lowest - 1, -1):
                cn *= ints[j][j + 1]
                cd *= scales[j]
                g = gcd(cn, cd)
                cn, cd = cn // g, cd // g
                if row[j]:
                    e = cd * polys[j].den
                    big = lcm(big, e)
                    terms.append((row[j] * cn, e, polys[j].num))
            f = big // p.den
            sf, df = s * f, row[k] * f
            new = [sf * u - df * v for u, v in zip((0, *p.num), (*p.num, 0))]  # (s x - ints_kk) p_k
            for c, e, num in terms:
                c *= big // e
                for i, v in enumerate(num):
                    new[i] -= c * v
            polys.append(_make(*_reduce(new, big * s)))
        return polys

    def __eq__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"DenseMatrix({self.to_lists()!r})"


# -- constructors and truncations ----------------------------------------


#: The zero and the unit every dense builder shares: a Fraction is
#: immutable, so one instance serves every entry.
_ZERO = Fraction(0)
_ONE = Fraction(1)


def _unit(i):
    """The entry of a unit band at any row i."""
    return _ONE


def _banded(size, bands) -> DenseMatrix:
    """size x size matrix holding bands[d](i) at (i, i + d) for each
    diagonal offset d and zero elsewhere; entries are evaluated row by row,
    in the order of ``bands`` within a row."""
    rows = []
    for i in range(size):
        row = [_ZERO] * size
        for offset, entry in bands.items():
            if 0 <= i + offset < size:
                row[i + offset] = entry(i)
        rows.append(row)
    return DenseMatrix(rows)


def _split_alphas(alpha):
    """The tuple (alpha_1, alpha_2, ...) split by residue mod 3 into the
    bidiagonal factors of T = L1 L2 U, indexed by row from 0: U has diagonal
    u_n = alpha_{3n+1} and L1, L2 have subdiagonals p_n = alpha_{3n-1},
    q_n = alpha_{3n} (p_0 = q_0 = 0, an int, so int alphas give int factors
    and Fraction alphas Fraction bands).  Only this split and its inverse
    _interleave know which alpha sits in which factor."""
    return alpha[0::3], (0,) + alpha[1::3], (0,) + alpha[2::3]


def _interleave(u, p, q) -> AlphaSequence:
    """Inverse of _split_alphas: alpha_1 .. alpha_{3N+1} from u_0 .. u_N,
    p_1 .. p_N and q_1 .. q_N."""
    return AlphaSequence((u[0], *chain.from_iterable(zip(p[1:], q[1:], u[1:]))))


def _factor_triple(u, p, q):
    """The factors (u, m, l) of T = L U from the bidiagonal factors (u, p, q)
    of _split_alphas: L = L1 L2 has subdiagonals m_n = p_n + q_n and
    l_n = p_n q_{n-1} (l_0 = 0), each down to the last row p and q fix."""
    m = tuple(p_n + q_n for p_n, q_n in zip(p, q))
    ell = tuple(p_n * q_n1 for p_n, q_n1 in zip(p, (0,) + q))
    return u, m, ell


def _lu_bands(u, m, ell):
    """Bands (c, b, a) of L U, as tuples starting at rows 0, 1 and 2, for a
    factor triple indexed as _factor_triple returns it,

        c_n = u_n + m_n,  b_n = l_n + m_n u_{n-1},  a_n = l_n u_{n-2},

    each down to the last row the three tuples determine (u_n1 is u_{n-1},
    u_n2 is u_{n-2})."""
    c = tuple(u_n + m_n for u_n, m_n in zip(u, m))
    b = tuple(l_n + m_n * u_n1 for l_n, m_n, u_n1 in zip(ell[1:], m[1:], u))
    a = tuple(l_n * u_n2 for l_n, u_n2 in zip(ell[2:], u))
    return c, b, a


def bands_from_alphas(alphas: AlphaSequence):
    """Bands (c, b, a) of L U for the factor triple of an alpha sequence,
    every row its entries determine.

    No positivity is enforced here; this is the arithmetic layer used both
    by tetra_from_alphas and by sign studies of parameter families whose
    induced a_n may go negative.
    """
    return _lu_bands(*_factor_triple(*_split_alphas(alphas.values)))


def tetra_from_alphas(alphas: AlphaSequence) -> TetraHessenberg:
    """The matrix T = L1 L2 U of an alpha sequence, with the bands of
    bands_from_alphas; expanded (alpha_j = 0 for j <= 0),

        c_n = alpha_{3n+1} + alpha_{3n} + alpha_{3n-1}
        b_n = alpha_{3n-1} alpha_{3n-3} + (alpha_{3n-1} + alpha_{3n}) alpha_{3n-2}
        a_n = alpha_{3n-1} alpha_{3n-3} alpha_{3n-5}.

    Every a_n is validated as for any other TetraHessenberg.
    """
    c, b, a = bands_from_alphas(alphas)
    return TetraHessenberg(a, b, c)


def leading_principal(t: TetraHessenberg, n: int) -> DenseMatrix:
    """The (N+1) x (N+1) leading principal truncation T^[N], built in its
    scaled form: row i holds c_i, b_i and a_i (those it has, read in that
    order) and the unit superdiagonal, over the lcm of their denominators."""
    if n < 0:
        raise IndexOutOfRange(f"truncation order {n} must be >= 0")
    size = n + 1
    ints, scales = [], []
    for i in range(size):
        # the entries of row i in columns i, i - 1 and i - 2
        band = [t.c(i)]
        if i >= 1:
            band.append(t.b(i))
            if i >= 2:
                band.append(t.a(i))
        d = lcm(*[v.denominator for v in band])
        row = [0] * size
        for j, v in enumerate(band):
            row[i - j] = v.numerator * (d // v.denominator)
        if i < n:
            row[i + 1] = d
        ints.append(tuple(row))
        scales.append(d)
    return DenseMatrix._from_scaled(tuple(ints), tuple(scales))


def trailing_truncation(t: TetraHessenberg, n: int, k: int) -> DenseMatrix:
    """T^[N,k]: T^[N] with its first k rows and columns deleted.

    k = N+1 yields the empty truncation, whose determinant and
    characteristic polynomial are both 1 by convention.
    """
    if not 0 <= k <= n + 1:
        raise IndexOutOfRange(f"trailing truncation index {k} not in [0, {n + 1}]")
    if k == n + 1:
        return DenseMatrix(())
    return leading_principal(t.shifted(k), n - k)


def alpha_factor_matrices(alphas: AlphaSequence, n: int):
    """Truncated bidiagonal factors (L1, L2, U) of order N+1.

    L1 and L2 are unit lower bidiagonal with subdiagonals p and q, and U
    has diagonal u and a unit superdiagonal (see _split_alphas).  Their
    product L1 L2 U reproduces the leading principal truncation of
    tetra_from_alphas exactly (no boundary discrepancy in this ordering).
    """
    if n < 0:
        raise IndexOutOfRange(f"truncation order {n} must be >= 0")
    u, p, q = _split_alphas(alphas.prefix(3 * n + 1))
    size = n + 1
    # entry functions take the row i; L1 and L2 carry p_i and q_i in row i
    l1 = _banded(size, {0: _unit, -1: p.__getitem__})
    l2 = _banded(size, {0: _unit, -1: q.__getitem__})
    upper = _banded(size, {0: u.__getitem__, 1: _unit})
    return l1, l2, upper
