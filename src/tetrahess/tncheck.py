"""Total nonnegativity and oscillation checks by exact minor enumeration.

Every verdict is a certificate: all minors are enumerated, so a TN verdict
is proved and a refutation carries the lexicographically first negative
minor.  Enumeration is exponential, so it is guarded by fixed dimension caps
(DEFAULT_CAP for the TN scan, POWER_ORACLE_CAP for the power oracle); a
larger matrix raises DimensionCapExceeded.  Minors are evaluated with a
memoized first-row expansion, so all 2^n x 2^n pairs cost O(4^n) ring
operations total rather than one elimination each.

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
    """Memoized integer minors of one matrix, keyed by (rows, cols) index
    tuples.

    ``det`` is the minor of the row-scaled matrix (row i times d_i, the lcm
    of its denominators), an int with the sign of the true minor;
    ``true_minor`` divides the row factors back out."""

    def __init__(self, m: DenseMatrix):
        self.scales = tuple(lcm(*(v.denominator for v in row)) for row in m.rows)
        self.rows = tuple(_scaled(row, d) for row, d in zip(m.rows, self.scales))
        self.cache = {}

    def det(self, rows, cols):
        first = self.rows[rows[0]]
        if len(rows) == 1:
            return first[cols[0]]
        key = (rows, cols)
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        value = 0
        rest = rows[1:]
        for pos, j in enumerate(cols):
            entry = first[j]
            if entry == 0:
                continue
            sub = self.det(rest, cols[:pos] + cols[pos + 1 :])
            value = value + entry * sub if pos % 2 == 0 else value - entry * sub
        self.cache[key] = value
        return value

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
    minor order ascending, then row subsets lexicographic, then columns."""
    indices = range(len(table.rows))
    checked = 0
    for order in range(1, len(indices) + 1):
        for rows in combinations(indices, order):
            for cols in combinations(indices, order):
                value = table.det(rows, cols)
                checked += 1
                if violates(value):
                    witness = (
                        tuple(i + 1 for i in rows),
                        tuple(j + 1 for j in cols),
                        table.true_minor(rows, value),
                    )
                    return witness, checked
    return None, checked


def is_totally_nonnegative(m: DenseMatrix) -> TNReport:
    """Check every minor >= 0 by full enumeration (dim <= DEFAULT_CAP).

    The report also carries nonsingularity, read off the full n x n minor of
    the same table (already memoized when the scan completes), and the
    Gantmacher-Krein oscillation verdict (TN + nonsingular + positive first
    sub/superdiagonal neighbours).
    """
    _check_cap(m, DEFAULT_CAP)
    table = _MinorTable(m)
    witness, checked = _full_scan(table)
    full = tuple(range(m.n))
    nonsingular = m.n == 0 or table.det(full, full) != 0
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
