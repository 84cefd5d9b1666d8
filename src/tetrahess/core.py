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

from .errors import (
    BandExhausted,
    IndexOutOfRange,
    NonPositiveSubSubDiagonal,
)
from .poly import Poly
from .scalars import exact_tuple


class Band:
    """One band of a semi-infinite matrix, held as the tuple of its first
    rows: ``values[i]`` is the entry of row ``start + i``, an int or a
    Fraction (anything else raises TypeError)."""

    __slots__ = ("name", "start", "values")

    def __init__(self, name, start, values):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "values", exact_tuple(values, f"band {name!r}"))

    def __setattr__(self, name, value):
        raise AttributeError("Band is immutable")

    @property
    def last_index(self):
        """Largest materializable row index (start - 1 for an empty band)."""
        return self.start + len(self.values) - 1

    def get(self, n):
        if n < self.start:
            raise IndexOutOfRange(f"band {self.name!r} starts at {self.start}, got {n}")
        if n - self.start >= len(self.values):
            raise BandExhausted(self.name, n, len(self.values))
        return self.values[n - self.start]

    def shifted(self, k):
        """Same band of the matrix with its first k rows and columns removed."""
        return Band(self.name, self.start, self.values[k:])


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
        return tuple(self.at(j) for j in range(1, count + 1))

    def classify(self, count=None) -> Classification:
        """Sign classification of alpha_1 .. alpha_count (default: all)."""
        if count is None:
            count = self.length
        seen_zero = False
        for j in range(1, count + 1):
            v = self.at(j)
            if v < 0:
                return Classification.INDEFINITE
            if v == 0:
                seen_zero = True
        return Classification.TN if seen_zero else Classification.PBF

    def __repr__(self):
        return f"AlphaSequence({list(self.values)!r})"


class TetraHessenberg:
    """Semi-infinite tetradiagonal lower Hessenberg matrix with unit
    superdiagonal, held as three bands; every a_n is checked to be positive
    when the matrix is built."""

    __slots__ = ("a_band", "b_band", "c_band")

    def __init__(self, a: Band, b: Band, c: Band):
        object.__setattr__(self, "a_band", a)
        object.__setattr__(self, "b_band", b)
        object.__setattr__(self, "c_band", c)
        for i, v in enumerate(a.values):
            if not v > 0:
                raise NonPositiveSubSubDiagonal(a.start + i, v)

    def __setattr__(self, name, value):
        raise AttributeError("TetraHessenberg is immutable")

    def c(self, n):
        return self.c_band.get(n)

    def b(self, n):
        return self.b_band.get(n)

    def a(self, n):
        return self.a_band.get(n)

    def materializable_n(self):
        """Largest N with leading_principal(self, N) available."""
        return min(band.last_index for band in (self.a_band, self.b_band, self.c_band))

    def entry(self, i, j):
        if i < 0 or j < 0:
            raise ValueError("negative matrix index")
        if j == i + 1:
            return Fraction(1)
        if j == i:
            return self.c(i)
        if j == i - 1:
            return self.b(i)
        if j == i - 2:
            return self.a(i)
        return Fraction(0)

    def shifted(self, k):
        """Matrix with the first k rows and columns deleted (band shift)."""
        return TetraHessenberg(
            self.a_band.shifted(k), self.b_band.shifted(k), self.c_band.shifted(k)
        )


class DenseMatrix:
    """Immutable square matrix of exact scalars: an int or Fraction entry,
    anything else raises TypeError naming its row."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(exact_tuple(r, f"DenseMatrix row {i}") for i, r in enumerate(rows))
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("DenseMatrix must be square")
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("DenseMatrix is immutable")

    @property
    def n(self) -> int:
        return len(self.rows)

    def entry(self, i, j):
        return self.rows[i][j]

    def to_lists(self):
        return [list(r) for r in self.rows]

    @staticmethod
    def identity(n):
        return _banded(n, {0: lambda i: Fraction(1)})

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

    def add_scaled_identity(self, scalar) -> "DenseMatrix":
        return DenseMatrix(
            tuple(
                tuple(v + scalar if i == j else v for j, v in enumerate(row))
                for i, row in enumerate(self.rows)
            )
        )

    def trace(self):
        return sum(self.rows[i][i] for i in range(self.n))

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
            ck = -am.trace() / k
            descending.append(ck)
            if k < n:
                m = am.add_scaled_identity(ck)
        return Poly(tuple(reversed(descending)))

    def leading_char_polys(self) -> list:
        """[det(xI - M_k) for k = 0..n], M_k the leading k x k block of this
        lower Hessenberg matrix, in one pass of the cofactor recurrence

            p_{k+1} = (x - m_kk) p_k - sum_{j<k} m_kj (m_{j,j+1} ... m_{k-1,k}) p_j

        (expansion of det(xI - M_{k+1}) along its last row; Wilkinson 1965,
        section 7.11).  It reads the dense entries only, superdiagonal
        included, and skips exactly-zero entries, so a banded input costs
        one polynomial term per nonzero subdiagonal entry.  Raises ValueError
        if an entry above the superdiagonal is nonzero."""
        rows = self.rows
        polys = [Poly((Fraction(1),))]
        for k, row in enumerate(rows):
            if any(v != 0 for v in row[k + 2 :]):
                raise ValueError(f"row {k} has a nonzero entry above the superdiagonal")
            p = polys[k]
            new = p.times_x() - p.scale(row[k])
            chain = Fraction(1)  # m_{j,j+1} ... m_{k-1,k}
            for j in range(k - 1, -1, -1):
                chain = chain * rows[j][j + 1]
                if row[j] != 0:
                    new = new - polys[j].scale(row[j] * chain)
            polys.append(new)
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


def _banded(size, bands) -> DenseMatrix:
    """size x size matrix holding bands[d](i) at (i, i + d) for each
    diagonal offset d and zero elsewhere; entries are evaluated row by row,
    in the order of ``bands`` within a row."""
    rows = []
    for i in range(size):
        row = [Fraction(0)] * size
        for offset, entry in bands.items():
            if 0 <= i + offset < size:
                row[i + offset] = entry(i)
        rows.append(row)
    return DenseMatrix(rows)


def tetra_from_bands(a, b, c) -> TetraHessenberg:
    """Build a matrix from explicit band value sequences a (n >= 2),
    b (n >= 1), c (n >= 0); a_n > 0 is enforced immediately."""
    return TetraHessenberg(Band("a", 2, a), Band("b", 1, b), Band("c", 0, c))


def _split_alphas(alpha):
    """The tuple (alpha_1, alpha_2, ...) split by residue mod 3 into the
    bidiagonal factors of T = L1 L2 U, indexed by row from 0: U has diagonal
    u_n = alpha_{3n+1} and L1, L2 have subdiagonals p_n = alpha_{3n-1},
    q_n = alpha_{3n} (p_0 = q_0 = 0).  Only this split and its inverse
    _interleave know which alpha sits in which factor."""
    zero = (Fraction(0),)
    return alpha[0::3], zero + alpha[1::3], zero + alpha[2::3]


def _interleave(u, p, q) -> AlphaSequence:
    """Inverse of _split_alphas: alpha_1 .. alpha_{3N+1} from u_0 .. u_N,
    p_1 .. p_N and q_1 .. q_N."""
    return AlphaSequence((u[0], *chain.from_iterable(zip(p[1:], q[1:], u[1:]))))


def _factor_triple(u, p, q):
    """The factors (u, m, l) of T = L U from the bidiagonal factors (u, p, q)
    of _split_alphas: L = L1 L2 has subdiagonals m_n = p_n + q_n and
    l_n = p_n q_{n-1} (l_0 = 0), each down to the last row p and q fix."""
    m = tuple(p_n + q_n for p_n, q_n in zip(p, q))
    ell = tuple(p_n * q_n1 for p_n, q_n1 in zip(p, (Fraction(0),) + q))
    return u, m, ell


def _lu_bands(u, m, ell):
    """Bands (c, b, a) of L U for a factor triple indexed as _factor_triple
    returns it,

        c_n = u_n + m_n,  b_n = l_n + m_n u_{n-1},  a_n = l_n u_{n-2},

    each down to the last row the three tuples determine (u_n1 is u_{n-1},
    u_n2 is u_{n-2})."""
    c = [u_n + m_n for u_n, m_n in zip(u, m)]
    b = [l_n + m_n * u_n1 for l_n, m_n, u_n1 in zip(ell[1:], m[1:], u)]
    a = [l_n * u_n2 for l_n, u_n2 in zip(ell[2:], u)]
    return Band("c", 0, c), Band("b", 1, b), Band("a", 2, a)


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
    """The (N+1) x (N+1) leading principal truncation T^[N]."""
    if n < 0:
        raise IndexOutOfRange(f"truncation order {n} must be >= 0")
    return _banded(n + 1, {0: t.c, 1: lambda i: Fraction(1), -1: t.b, -2: t.a})


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

    def unit(i):
        return Fraction(1)

    # entry functions take the row i; L1 and L2 carry p_i and q_i in row i
    l1 = _banded(size, {0: unit, -1: p.__getitem__})
    l2 = _banded(size, {0: unit, -1: q.__getitem__})
    upper = _banded(size, {0: u.__getitem__, 1: unit})
    return l1, l2, upper
