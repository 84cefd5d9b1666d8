"""Total nonnegativity and oscillation checks by exact minor enumeration.

Every verdict is a certificate: all minors are enumerated, so a TN verdict
is proved and a refutation carries the lexicographically first negative
minor.  Enumeration is exponential, so it is guarded by fixed dimension caps
(DEFAULT_CAP for the TN scan, POWER_ORACLE_CAP for the power oracle); a
larger matrix raises DimensionCapExceeded.

The scan fills a table of minors one order at a time from the order below.
A minor is indexed by its row and column bitmasks, packed into one int, and
is a first-row expansion over the nonzero entries of its first row (at most
4 in a tetradiagonal truncation), each times a minor of the order below read
from the table; the cofactor sign is a bit count (int.bit_count, Python
3.10, the declared floor).  All 2^n x 2^n minors thus cost O(4^n) ring
operations in all, not one elimination each.  The table is one flat list of
4^n slots, 65 536 at the cap of 8, allocated only once every entry (the
order-1 minors, read off the rows) has passed.  Nonsingularity comes from
one fraction-free elimination of the scaled rows, O(n^3), not from the
table, so a refutation at order 1 builds no table at all.

The ring is the integers, not the rationals (fraction-free, as in Bareiss,
Math. Comp. 1968).  Row i is scaled once by d_i > 0, the lcm of its
denominators; a minor on rows R of the scaled matrix is then an int equal
to prod(d_r, r in R) times the true minor.  The factor is positive, so
every sign test (< 0 for TN, <= 0 for TP, != 0 for nonsingularity) reads
the same on the scaled minor, and no operation pays for a gcd.  A witness
carries the true minor, Fraction(scaled, prod(d_r, r in R)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm, prod

from .core import DenseMatrix
from .errors import DimensionCapExceeded

DEFAULT_CAP = 8
POWER_ORACLE_CAP = 6


@dataclass(frozen=True)
class TNReport:
    """Outcome of a total-nonnegativity / oscillation analysis.

    witness is the lexicographically first negative minor as 1-based
    (rows, cols, value), present exactly when is_tn is False.  conclusive
    is always True: every verdict comes from the full enumeration.
    """

    is_tn: bool
    conclusive: bool
    witness: tuple | None
    minors_checked: int
    is_nonsingular: bool
    is_oscillatory_gk: bool


class _MinorTable:
    """One matrix scaled to integer rows, for the minor scan.

    Row i is multiplied by d_i, the lcm of its denominators, so every minor
    of ``rows`` is an int with the sign of the true minor; ``true_minor``
    divides the row factors back out."""

    def __init__(self, m: DenseMatrix):
        self.scales = tuple(lcm(*(v.denominator for v in row)) for row in m.rows)
        self.rows = tuple(_scaled(row, d) for row, d in zip(m.rows, self.scales))

    def true_minor(self, rows, scaled) -> Fraction:
        return Fraction(scaled, prod(self.scales[r] for r in rows))


def _scaled(row, d):
    """The exact scalars of ``row`` times d, a common multiple of their
    denominators, as ints."""
    return tuple(v.numerator * (d // v.denominator) for v in row)


def _check_cap(m: DenseMatrix, cap: int):
    if m.n > cap:
        raise DimensionCapExceeded(m.n, cap)


def _neighbors_positive(m: DenseMatrix) -> bool:
    return all(m.entry(i, i + 1) > 0 and m.entry(i + 1, i) > 0 for i in range(m.n - 1))


def _full_scan(table: _MinorTable, violates=lambda value: value < 0):
    """(first witness of a minor that ``violates``, or None; minors checked).
    The default test finds negative minors; ``value <= 0`` tests total
    positivity.  ``violates`` sees the scaled minor, which has the sign of
    the true one; the witness carries the true minor.  Enumeration order:
    minor order ascending, then row subsets lexicographic, then columns.

    Order-1 minors are read off the rows.  Past order 1 the minors fill one
    flat list, order by order, at index (row bitmask << n) | column bitmask.
    The minor on rows R and columns C expands along the first row r of R:
    each nonzero entry of row r in a column c of C contributes (-1)^p times
    the entry times the minor on R - {r}, C - {c}, filled one order below,
    with p the number of columns of C left of c."""
    n = len(table.rows)
    checked = 0
    for i, row in enumerate(table.rows):
        for j, value in enumerate(row):
            checked += 1
            if violates(value):
                return ((i + 1,), (j + 1,), table.true_minor((i,), value)), checked
    minors = [0] * (1 << 2 * n)
    # the nonzero (column bit, entry) pairs of each row: at most 4 in a
    # tetradiagonal truncation
    terms = []
    for i, row in enumerate(table.rows):
        terms.append(tuple((1 << j, v) for j, v in enumerate(row) if v != 0))
        for bit, v in terms[-1]:
            minors[1 << i + n | bit] = v
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
                if violates(value):
                    rows, cols = _members(rmask), _members(cmask)
                    witness = (
                        tuple(i + 1 for i in rows),
                        tuple(j + 1 for j in cols),
                        table.true_minor(rows, value),
                    )
                    return witness, checked
    return None, checked


def _members(mask):
    """The 0-based indices of the set bits of ``mask``, ascending."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


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
    """Check every minor >= 0 by full enumeration (dim <= DEFAULT_CAP).

    The report also carries nonsingularity, decided by one fraction-free
    elimination of the scaled rows, and the Gantmacher-Krein oscillation
    verdict (TN + nonsingular + positive first sub/superdiagonal
    neighbours).
    """
    _check_cap(m, DEFAULT_CAP)
    table = _MinorTable(m)
    witness, checked = _full_scan(table)
    nonsingular = _nonsingular(table.rows)
    is_tn = witness is None
    return TNReport(
        is_tn=is_tn,
        conclusive=True,
        witness=witness,
        minors_checked=checked,
        is_nonsingular=nonsingular,
        is_oscillatory_gk=is_tn and nonsingular and _neighbors_positive(m),
    )


def is_oscillatory(m: DenseMatrix) -> TNReport:
    """Gantmacher-Krein verdict: TN, nonsingular, and positive neighbours."""
    return is_totally_nonnegative(m)


def is_oscillatory_power_oracle(m: DenseMatrix) -> bool:
    """Definition-based oracle: m is oscillatory iff it is TN and some power
    m^k (1 <= k <= max(1, dim-1)) is totally positive.

    Exponentially more minors than the Gantmacher-Krein route, hence the
    lower cap (POWER_ORACLE_CAP); exists to cross-check is_oscillatory, not
    to replace it."""
    _check_cap(m, POWER_ORACLE_CAP)
    return is_totally_nonnegative(m).is_tn and _some_power_totally_positive(m)


def _some_power_totally_positive(m: DenseMatrix) -> bool:
    """The power oracle after its TN gate: is some m^k, 1 <= k <= max(1,
    dim-1), totally positive?  For a caller that already holds the TN
    verdict of m (dim <= POWER_ORACLE_CAP).

    The powers are taken of L m, L the common denominator of m, so every
    power and minor is an int; a minor of order r of (L m)^k is L^(k r)
    times that of m^k, so the TP verdict is the same."""
    _check_cap(m, POWER_ORACLE_CAP)
    common = lcm(*(v.denominator for row in m.rows for v in row))
    base = DenseMatrix(_scaled(row, common) for row in m.rows)
    power = base
    for _ in range(max(1, m.n - 1)):
        if _full_scan(_MinorTable(power), violates=lambda value: value <= 0)[0] is None:
            return True
        power = power.mul(base)
    return False
