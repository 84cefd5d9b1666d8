"""Total nonnegativity and oscillation checks: Neville elimination, then
exact minor enumeration.

Every verdict is a certificate.  A nonsingular TN matrix is proved TN by
Neville elimination (Gasca and Pena, Linear Algebra Appl. 165, 1992), in
O(n^3) int operations with no minor formed.  Every other input goes to the
minor scan, which names the lexicographically first negative minor of a
refutation and decides a singular matrix.  Enumeration is exponential, so
the TN check is guarded by a fixed dimension cap (DEFAULT_CAP), and the
power oracle by a lower one (POWER_ORACLE_CAP); a larger matrix raises
DimensionCapExceeded.

The scan expands each minor along its first row from the minors of the
order below, over the nonzero entries of that row only, and stops at the
first negative minor; a certificate, from the scan or from Neville
elimination, reports every minor, C(2n, n) - 1.  Past the certificate,
nonsingularity comes from one fraction-free elimination of the scaled
rows, O(n^3), not from the minors.

The ring is the integers, not the rationals (fraction-free, as in Bareiss,
Math. Comp. 1968).  The check reads the matrix's scaled form
(DenseMatrix.scaled): int rows and one scale d_i > 0 per row, row i being
the true row times d_i.  The band builders (leading_principal and
jp_dense_truncation) write it from their band formulas, so no Fraction
matrix comes between them and the verdict; a matrix built from its
entries takes d_i as the lcm of row i's denominators, on first use.  Any
positive scales are valid: a minor on rows R of the scaled matrix is an
int equal to prod(d_r, r in R) times the true minor.  The factor is
positive, so every sign test (< 0 for TN, != 0 for nonsingularity) reads
the same on the scaled minor, and no minor pays for a gcd.  A witness
carries the true minor, Fraction(scaled, prod(d_r, r in R)).

The Neville certificate.  Neville elimination clears column k bottom up,
each row minus a multiple of the row above it.  A nonsingular A is TN if
and only if the eliminations of A and of its transpose need no row
exchange (a zero of the working column never sits above a nonzero), every
multiplier is >= 0 and every diagonal pivot of A is > 0 (Gasca and Pena
1992, Thm 5.4).  It runs on the scaled rows, fraction-free: row i becomes
p row_i - q row_(i-1), p > 0 the entry above q, divided by the gcd of its
entries.  Every working row is then a positive multiple of the true one,
so every sign and zero test reads the same (_neville_certifies).  A
certified matrix has every minor >= 0 and a nonzero determinant, so it
needs neither the scan nor the elimination for nonsingularity.

The power oracle tests total positivity without the scan.  A matrix is
totally positive if and only if its n^2 initial minors are positive
(Gasca and Pena, Linear Algebra Appl. 165, 1992; Fallat and Johnson,
Totally Nonnegative Matrices, 2011), an initial minor being one on
consecutive rows and consecutive columns that start at row 1 or at column
1.  They are the leading principal minors of 2n - 1 corner blocks, each
read off one fraction-free elimination (_initial_minors_positive).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm, prod
from operator import mul

from .core import DenseMatrix
from .errors import DimensionCapExceeded

DEFAULT_CAP = 8
POWER_ORACLE_CAP = 6


@dataclass(frozen=True)
class TNReport:
    """Outcome of a total-nonnegativity / oscillation analysis.

    witness is the lexicographically first negative minor as 1-based
    (rows, cols, value), present exactly when is_tn is False.  conclusive
    is always True: a TN verdict on a nonsingular matrix is proved by
    Neville elimination (Gasca and Pena 1992), and the minor scan names
    every witness and decides every singular input.
    """

    is_tn: bool
    conclusive: bool
    witness: tuple | None
    minors_checked: int
    is_nonsingular: bool
    is_oscillatory_gk: bool


def _check_cap(m: DenseMatrix, cap: int):
    if m.n > cap:
        raise DimensionCapExceeded(m.n, cap)


def _neighbors_positive(rows) -> bool:
    """Are the first super- and subdiagonal entries of the square ``rows``
    all positive?  Read off the scaled int rows, whose scales are > 0."""
    return all(rows[i][i + 1] > 0 and rows[i + 1][i] > 0 for i in range(len(rows) - 1))


def _full_scan(rows, scales):
    """(first witness of a negative minor, or None; minors checked) of the
    scaled form (rows, scales).  The test sees the scaled minor, which has
    the sign of the true one; the witness carries the true minor, divided
    by its rows' scales.  Enumeration order: minor order ascending, then
    row subsets lexicographic, then columns.

    Order-1 minors are read off the rows; entry (i, j) is minor i n + j + 1.
    Past order 1 the minors fill one flat list, order by order, at index
    (row bitmask << n) | column bitmask.  The minor on rows R and columns C
    expands along the first row r of R: each nonzero entry of row r in a
    column c of C contributes (-1)^p times the entry times the minor on
    R - {r}, C - {c}, filled one order below, p the number of columns of C
    left of c.  A certificate counts every minor, C(2n, n) - 1."""
    n = len(rows)
    for i, row in enumerate(rows):
        for j, value in enumerate(row):
            if value < 0:
                return ((i + 1,), (j + 1,), Fraction(value, scales[i])), i * n + j + 1
    minors = [0] * (1 << 2 * n)
    # the nonzero (column bit, entry) pairs of each row: at most 4 in a
    # tetradiagonal truncation
    terms = []
    for i, row in enumerate(rows):
        terms.append(tuple((1 << j, v) for j, v in enumerate(row) if v))
        for bit, v in terms[-1]:
            minors[1 << i + n | bit] = v
    checked = n * n
    for order in range(2, n + 1):
        masks = [sum(1 << i for i in subset) for subset in combinations(range(n), order)]
        for rmask in masks:
            first = rmask & -rmask
            expansion = terms[first.bit_length() - 1]
            below = (rmask ^ first) << n
            for cmask in masks:
                value = 0
                for bit, entry in expansion:
                    if cmask & bit:
                        if (cmask & (bit - 1)).bit_count() & 1:
                            value -= entry * minors[below | cmask ^ bit]
                        else:
                            value += entry * minors[below | cmask ^ bit]
                minors[rmask << n | cmask] = value
                checked += 1
                if value < 0:
                    r, c = ([i for i in range(n) if mask >> i & 1] for mask in (rmask, cmask))
                    true = Fraction(value, prod(scales[i] for i in r))
                    return (tuple(i + 1 for i in r), tuple(j + 1 for j in c), true), checked
    return None, checked


def _neville_certifies(rows) -> bool:
    """Is the square int matrix ``rows`` nonsingular and TN, by Neville
    elimination (see the module docstring)?  No entry may be negative, and
    the elimination of the rows and of their transpose must each pass
    _neville_passes.  False means only that the scan has to decide."""
    return (
        all(v >= 0 for row in rows for v in row)
        and _neville_passes(rows)
        and _neville_passes(list(zip(*rows)))
    )


def _neville_passes(rows) -> bool:
    """Does the fraction-free Neville elimination of the square int matrix
    ``rows`` need no row exchange, with every multiplier >= 0 and every
    diagonal pivot > 0?  At step k ``work`` holds the rows and columns
    from k on.  The step clears its first column below the pivot, bottom
    up, each row with the row above it as it stood before the step, then
    drops the pivot's row and column.  Given a pivot > 0, the three
    conditions say that each nonzero entry of the column is > 0 and has a
    nonzero entry above it.

    Asking for pivots > 0 in the transpose's pass too turns no matrix
    away: a nonsingular TN matrix has a nonsingular TN transpose, whose
    pivots are > 0 by the same theorem.  Each new row is divided by the
    gcd of its entries, so it stays a positive multiple of the true
    Neville row; undivided, its bit size would about double at each
    step."""
    work = [list(row) for row in rows]
    while work:
        if work[0][0] <= 0:
            return False
        for i in range(len(work) - 1, 0, -1):
            q = work[i][0]
            if q:
                above = work[i - 1]
                p = above[0]
                if p <= 0 or q < 0:
                    return False
                row = [p * b - q * a for b, a in zip(work[i], above)]
                g = gcd(*row)
                work[i] = [v // g for v in row] if g > 1 else row
        work = [row[1:] for row in work[1:]]
    return True


def _nonsingular(rows) -> bool:
    """Is the square int matrix ``rows`` nonsingular?  Fraction-free
    Gaussian elimination (Bareiss, Math. Comp. 1968): after step k every
    entry below the pivot rows is a minor of order k + 2 of the row-permuted
    matrix, so each division by the previous pivot is exact.  O(n^3) int
    operations, and no minor table."""
    work = [list(row) for row in rows]
    n = len(work)
    previous = 1
    for k in range(n):
        for i in range(k, n):
            if work[i][k]:
                break
        else:
            return False
        work[k], work[i] = work[i], work[k]
        top = work[k]
        pivot = top[k]
        for row in work[k + 1 :]:
            factor = row[k]
            if factor:
                for j in range(k + 1, n):
                    row[j] = (row[j] * pivot - factor * top[j]) // previous
            elif pivot != previous:
                # the same update with factor = 0
                for j in range(k + 1, n):
                    row[j] = row[j] * pivot // previous
        previous = pivot
    return True


def is_totally_nonnegative(m: DenseMatrix) -> TNReport:
    """Check every minor >= 0 (dim <= DEFAULT_CAP): by Neville elimination,
    which proves a nonsingular TN matrix TN, else by full enumeration.

    The report also carries nonsingularity, decided by the certificate or
    by one fraction-free elimination of the scaled rows, and the
    Gantmacher-Krein oscillation verdict (TN + nonsingular + positive first
    sub/superdiagonal neighbours).
    """
    _check_cap(m, DEFAULT_CAP)
    rows, scales = m.scaled
    if _neville_certifies(rows):
        witness, checked, nonsingular = None, comb(2 * m.n, m.n) - 1, True
    else:
        witness, checked = _full_scan(rows, scales)
        nonsingular = _nonsingular(rows)
    is_tn = witness is None
    return TNReport(
        is_tn=is_tn,
        conclusive=True,
        witness=witness,
        minors_checked=checked,
        is_nonsingular=nonsingular,
        is_oscillatory_gk=is_tn and nonsingular and _neighbors_positive(rows),
    )


def is_oscillatory(m: DenseMatrix) -> TNReport:
    """Gantmacher-Krein verdict: TN, nonsingular, and positive neighbours."""
    return is_totally_nonnegative(m)


def is_oscillatory_power_oracle(m: DenseMatrix) -> bool:
    """Definition-based oracle: m is oscillatory iff it is TN and some power
    m^k (1 <= k <= max(1, dim-1)) is totally positive.

    The TN gate is the Gantmacher-Krein route's own check (Neville
    elimination, else the minor scan), and each power is tested on its
    initial minors (_initial_minors_positive); the lower
    cap (POWER_ORACLE_CAP) bounds the powers taken.  It exists to
    cross-check is_oscillatory, not to replace it."""
    _check_cap(m, POWER_ORACLE_CAP)
    return is_totally_nonnegative(m).is_tn and _some_power_totally_positive(m)


def _some_power_totally_positive(m: DenseMatrix) -> bool:
    """The power oracle after its TN gate: is some m^k, 1 <= k <= max(1,
    dim-1), totally positive?  For a caller that already holds the TN
    verdict of m (dim <= POWER_ORACLE_CAP).

    The powers are taken of L m, L the lcm of the row scales of m's
    scaled form, as int rows; a minor of order r of (L m)^k is L^(k r)
    times that of m^k, so the TP verdict is the same."""
    _check_cap(m, POWER_ORACLE_CAP)
    n = m.n
    ints, scales = m.scaled
    big = lcm(*scales)
    base = [[v * f for v in row] for row, f in zip(ints, [big // d for d in scales])]
    cols = list(zip(*base))
    power = base
    for _ in range(max(1, n - 1)):
        if _initial_minors_positive(power):
            return True
        power = [[sum(map(mul, row, col)) for col in cols] for row in power]
    return False


def _initial_minors_positive(rows) -> bool:
    """Is the square int matrix ``rows`` totally positive?  Every entry must
    be > 0, and then every initial minor: the leading principal minors of
    the blocks rows[:n-d] cut to columns [d:] and rows[d:] cut to columns
    [:n-d], d = 0..n-1 (one block at d = 0).  Each block runs one
    fraction-free elimination without pivoting (Bareiss, Math. Comp. 1968):
    its k-th pivot is its leading principal minor of order k + 1, and the
    first pivot <= 0 ends the test, so every division is by a positive
    minor and exact."""
    if any(v <= 0 for row in rows for v in row):
        return False
    n = len(rows)
    blocks = [[list(row[d:]) for row in rows[: n - d]] for d in range(n)]
    blocks += [[list(row[: n - d]) for row in rows[d:]] for d in range(1, n)]
    for work in blocks:
        previous = 1
        for k, top in enumerate(work):
            pivot = top[k]
            if pivot <= 0:
                return False
            for row in work[k + 1 :]:
                factor = row[k]
                row[k + 1 :] = [(v * pivot - factor * t) // previous for v, t in zip(row[k + 1 :], top[k + 1 :])]
            previous = pivot
    return True
