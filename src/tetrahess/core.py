"""Core types: banded tetradiagonal lower Hessenberg matrices, alpha
(factorization parameter) sequences, and small dense matrices.

Index conventions, used everywhere in the package:

* the matrix acts on indices 0, 1, 2, ...; row n holds a_n, b_n, c_n, 1
  with c_n on the diagonal and a unit superdiagonal;
* the diagonal band c starts at n = 0, the first subdiagonal b at n = 1,
  the second subdiagonal a at n = 2, and a_n > 0 is required for every
  materialized n;
* alpha sequences are 1-based, with the convention alpha_j = 0 for j <= 0
  (this makes the band product formulas below uniform in n).
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .errors import (
    BandExhausted,
    IndexOutOfRange,
    NonPositiveSubSubDiagonal,
)
from .poly import Poly
from .scalars import exact_tuple


class Band:
    """One band of a semi-infinite matrix, explicit or generator-backed.

    ``start`` is the first meaningful row index of the band.  An explicit
    band stores a tuple of int or Fraction values (anything else raises
    TypeError); a generator-backed band stores a pure function of the row
    index (optionally with a last valid index), so the type stays immutable
    and shareable.
    """

    __slots__ = ("name", "start", "values", "func", "limit")

    def __init__(self, name, start, values=None, func=None, limit=None):
        if (values is None) == (func is None):
            raise ValueError("exactly one of values/func must be given")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "values", exact_tuple(values, f"band {name!r}"))
        object.__setattr__(self, "func", func)
        object.__setattr__(self, "limit", limit)

    def __setattr__(self, name, value):
        raise AttributeError("Band is immutable")

    @property
    def last_index(self):
        """Largest materializable row index, or None when unbounded."""
        if self.values is not None:
            return self.start + len(self.values) - 1
        return self.limit

    def get(self, n):
        if n < self.start:
            raise IndexOutOfRange(f"band {self.name!r} starts at {self.start}, got {n}")
        if self.values is not None:
            if n - self.start >= len(self.values):
                raise BandExhausted(self.name, n, len(self.values))
            return self.values[n - self.start]
        if self.limit is not None and n > self.limit:
            raise BandExhausted(self.name, n, self.limit - self.start + 1)
        return self.func(n)

    def shifted(self, k):
        """Same band of the matrix with its first k rows and columns removed."""
        if k == 0:
            return self
        last = self.last_index
        return Band(
            self.name,
            self.start,
            func=lambda n: self.get(n + k),
            limit=None if last is None else last - k,
        )


class Classification(enum.Enum):
    """Sign classification of an alpha sequence prefix."""

    PBF = "PBF"            # all inspected entries strictly positive
    TN = "TN"              # all nonnegative, at least one zero
    INDEFINITE = "INDEFINITE"  # some entry negative

    def __str__(self):
        return self.value


class AlphaSequence:
    """1-based sequence of factorization parameters alpha_1, alpha_2, ...

    ``at(j)`` returns 0 for j <= 0 by convention.  Explicit sequences are
    finite tuples of int or Fraction values (anything else raises
    TypeError); generator-backed ones are pure functions of j >= 1.
    """

    __slots__ = ("values", "func", "limit")

    def __init__(self, values=None, func=None, limit=None):
        if (values is None) == (func is None):
            raise ValueError("exactly one of values/func must be given")
        object.__setattr__(self, "values", exact_tuple(values, "alpha"))
        object.__setattr__(self, "func", func)
        object.__setattr__(self, "limit", limit)

    def __setattr__(self, name, value):
        raise AttributeError("AlphaSequence is immutable")

    @property
    def length(self):
        """Number of available entries, or None when unbounded."""
        if self.values is not None:
            return len(self.values)
        return self.limit

    def at(self, j):
        if j <= 0:
            return Fraction(0)
        if self.values is not None:
            if j > len(self.values):
                raise BandExhausted("alpha", j, len(self.values))
            return self.values[j - 1]
        if self.limit is not None and j > self.limit:
            raise BandExhausted("alpha", j, self.limit)
        return self.func(j)

    def prefix(self, count):
        return tuple(self.at(j) for j in range(1, count + 1))

    def classify(self, count=None, start=1) -> Classification:
        """Sign classification of alpha_start .. alpha_count.

        ``start=2`` skips alpha_1 = c_0, whose positivity is a statement
        about the matrix entry rather than the factorization choice.
        """
        if count is None:
            count = self.length
        if count is None:
            raise ValueError("count is required for an unbounded alpha sequence")
        seen_zero = False
        for j in range(start, count + 1):
            v = self.at(j)
            if v < 0:
                return Classification.INDEFINITE
            if v == 0:
                seen_zero = True
        return Classification.TN if seen_zero else Classification.PBF

    def __repr__(self):
        if self.values is not None:
            return f"AlphaSequence({list(self.values)!r})"
        return f"AlphaSequence(<generator>, limit={self.limit})"


class TetraHessenberg:
    """Semi-infinite tetradiagonal lower Hessenberg matrix with unit
    superdiagonal, held as three bands."""

    __slots__ = ("a_band", "b_band", "c_band")

    def __init__(self, a: Band, b: Band, c: Band):
        object.__setattr__(self, "a_band", a)
        object.__setattr__(self, "b_band", b)
        object.__setattr__(self, "c_band", c)
        if a.values is not None:
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
        # generator-backed bands are validated on access
        v = self.a_band.get(n)
        if not v > 0:
            raise NonPositiveSubSubDiagonal(n, v)
        return v

    def materializable_n(self):
        """Largest N with leading_principal(self, N) available (None = any)."""
        limits = [band.last_index for band in (self.a_band, self.b_band, self.c_band)]
        finite = [v for v in limits if v is not None]
        return min(finite) if finite else None

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
        if k == 0:
            return self
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
    return TetraHessenberg(
        Band("a", 2, values=a), Band("b", 1, values=b), Band("c", 0, values=c)
    )


def _alpha_bands(at, length=None):
    """Bands (c, b, a) given by the alpha product formulas read through the
    accessor ``at`` (j -> alpha_j), each limited to the rows that the first
    ``length`` alphas determine (None: unbounded)."""

    def c(n):
        return at(3 * n + 1) + at(3 * n) + at(3 * n - 1)

    def b(n):
        return (
            at(3 * n) * at(3 * n - 2)
            + at(3 * n - 1) * at(3 * n - 2)
            + at(3 * n - 1) * at(3 * n - 3)
        )

    def a(n):
        return at(3 * n - 1) * at(3 * n - 3) * at(3 * n - 5)

    def limit(need):
        # last row whose entries read no alpha past alpha_length, when row n
        # reads up to alpha_{3n+need}
        return None if length is None else (length - need) // 3

    return (
        Band("c", 0, func=c, limit=limit(1)),
        Band("b", 1, func=b, limit=limit(0)),
        Band("a", 2, func=a, limit=limit(-1)),
    )


def _tetra_from_accessor(at, length) -> TetraHessenberg:
    """Validated matrix with the alpha product bands read through ``at``;
    with a finite ``length`` every a_n is checked eagerly, otherwise on
    access."""
    c, b, a = _alpha_bands(at, length)
    t = TetraHessenberg(a, b, c)
    if a.limit is not None:
        for n in range(2, a.limit + 1):
            t.a(n)  # raises NonPositiveSubSubDiagonal on a violation
    return t


def bands_from_alphas(alphas: AlphaSequence):
    """Raw band value functions (c, b, a) induced by an alpha sequence.

    No positivity is enforced here; this is the arithmetic layer used both
    by tetra_from_alphas and by sign studies of parameter families whose
    induced a_n may go negative.
    """
    return tuple(band.func for band in _alpha_bands(alphas.at))


def tetra_from_alphas(alphas: AlphaSequence) -> TetraHessenberg:
    """Matrix with bands given by the alpha product formulas

        c_n = alpha_{3n+1} + alpha_{3n} + alpha_{3n-1}
        b_n = alpha_{3n} alpha_{3n-2} + alpha_{3n-1} alpha_{3n-2}
              + alpha_{3n-1} alpha_{3n-3}
        a_n = alpha_{3n-1} alpha_{3n-3} alpha_{3n-5}

    (alpha_j = 0 for j <= 0).  Finite alpha arrays are validated eagerly;
    generator-backed ones on access.
    """
    return _tetra_from_accessor(alphas.at, alphas.length)


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

    L1 is unit lower bidiagonal with subdiagonal alpha_{3k+2}; L2 the same
    with alpha_{3k+3}; U has diagonal alpha_{3k+1} and unit superdiagonal.
    Their product L1 L2 U reproduces the leading principal truncation of
    tetra_from_alphas exactly (no boundary discrepancy in this ordering).
    """
    if n < 0:
        raise IndexOutOfRange(f"truncation order {n} must be >= 0")
    at = alphas.at
    size = n + 1

    def unit(i):
        return Fraction(1)

    # entry functions take the row i; subdiagonal entry k sits in row k + 1
    l1 = _banded(size, {0: unit, -1: lambda i: at(3 * i - 1)})
    l2 = _banded(size, {0: unit, -1: lambda i: at(3 * i)})
    u = _banded(size, {0: lambda i: at(3 * i + 1), 1: unit})
    return l1, l2, u
