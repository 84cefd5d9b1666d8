"""Total nonnegativity and oscillation checks by exact minor enumeration.

Minor enumeration is exponential, so full checks are guarded by a dimension
cap (default 8).  Beyond the cap a sampling mode is available which can
only falsify (a negative sampled minor) or report "inconclusive", never
certify.  Minors are evaluated with a memoized first-row expansion, so all
2^n x 2^n pairs cost O(4^n) ring operations total rather than one
elimination each.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from .core import DenseMatrix
from .errors import DimensionCapExceeded

DEFAULT_CAP = 8
POWER_ORACLE_CAP = 6


@dataclass(frozen=True)
class TNReport:
    """Outcome of a total-nonnegativity / oscillation analysis.

    is_tn is None when a sampled check found no violation (inconclusive);
    witness is the lexicographically first negative minor as 1-based
    (rows, cols, value), present whenever is_tn is False.
    """

    dim: int
    is_tn: object  # True / False / None
    conclusive: bool
    witness: tuple = None
    minors_checked: int = 0
    is_nonsingular: bool = None
    is_oscillatory_gk: bool = None


class _MinorTable:
    """Memoized minors of one matrix, keyed by (rows, cols) index tuples."""

    def __init__(self, m: DenseMatrix):
        self.m = m
        self.cache = {}

    def det(self, rows, cols):
        if len(rows) == 1:
            return self.m.entry(rows[0], cols[0])
        key = (rows, cols)
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        value = 0
        rest = rows[1:]
        for pos, j in enumerate(cols):
            entry = self.m.entry(rows[0], j)
            if entry == 0:
                continue
            sub = self.det(rest, cols[:pos] + cols[pos + 1 :])
            value = value + entry * sub if pos % 2 == 0 else value - entry * sub
        self.cache[key] = value
        return value


def _neighbors_positive(m: DenseMatrix) -> bool:
    return all(m.entry(i, i + 1) > 0 and m.entry(i + 1, i) > 0 for i in range(m.n - 1))


def _full_scan(m: DenseMatrix, violates=lambda value: value < 0):
    """(first witness of a minor that ``violates``, or None; minors checked).
    The default test finds negative minors; ``value <= 0`` tests total
    positivity.  Enumeration order: minor order ascending, then row subsets
    lexicographic, then columns."""
    table = _MinorTable(m)
    indices = range(m.n)
    checked = 0
    for order in range(1, m.n + 1):
        for rows in combinations(indices, order):
            for cols in combinations(indices, order):
                value = table.det(rows, cols)
                checked += 1
                if violates(value):
                    witness = (
                        tuple(i + 1 for i in rows),
                        tuple(j + 1 for j in cols),
                        value,
                    )
                    return witness, checked
    return None, checked


def _sample_scan(m: DenseMatrix, sample: int, seed: int):
    rng = random.Random(seed)
    indices = range(m.n)
    for _ in range(sample):
        order = rng.randint(1, m.n)
        rows = tuple(sorted(rng.sample(indices, order)))
        cols = tuple(sorted(rng.sample(indices, order)))
        value = m.minor(rows, cols)
        if value < 0:
            return (
                tuple(i + 1 for i in rows),
                tuple(j + 1 for j in cols),
                value,
            )
    return None


def is_totally_nonnegative(
    m: DenseMatrix, cap: int = DEFAULT_CAP, sample: int = 0, seed: int = 0
) -> TNReport:
    """Check every minor >= 0 by full enumeration (dim <= cap) or, past the
    cap, by random sampling with an explicit inconclusive verdict.

    The report also carries nonsingularity and the
    Gantmacher-Krein oscillation verdict (TN + nonsingular + positive
    first sub/superdiagonal neighbours) when they are determined.
    """
    dim = m.n
    nonsingular = m.det() != 0
    if dim > cap:
        if sample <= 0:
            raise DimensionCapExceeded(dim, cap)
        witness = _sample_scan(m, sample, seed)
        if witness is not None:
            return TNReport(
                dim=dim,
                is_tn=False,
                conclusive=True,
                witness=witness,
                minors_checked=sample,
                is_nonsingular=nonsingular,
                is_oscillatory_gk=False,
            )
        return TNReport(
            dim=dim,
            is_tn=None,
            conclusive=False,
            minors_checked=sample,
            is_nonsingular=nonsingular,
        )
    witness, checked = _full_scan(m)
    is_tn = witness is None
    gk = bool(is_tn and nonsingular and _neighbors_positive(m))
    return TNReport(
        dim=dim,
        is_tn=is_tn,
        conclusive=True,
        witness=witness,
        minors_checked=checked,
        is_nonsingular=nonsingular,
        is_oscillatory_gk=gk,
    )


def is_oscillatory(m: DenseMatrix, cap: int = DEFAULT_CAP) -> TNReport:
    """Gantmacher-Krein verdict: TN, nonsingular, and positive neighbours.
    Full enumeration only (no sampling: a certificate is required)."""
    return is_totally_nonnegative(m, cap=cap)


def is_oscillatory_power_oracle(m: DenseMatrix, cap: int = POWER_ORACLE_CAP) -> bool:
    """Definition-based oracle: m is oscillatory iff it is TN and some power
    m^k (1 <= k <= max(1, dim-1)) is totally positive.

    Exponentially more minors than the Gantmacher-Krein route, hence the
    lower cap; exists to cross-check is_oscillatory, not to replace it."""
    dim = m.n
    if dim > cap:
        raise DimensionCapExceeded(dim, cap)
    if not is_totally_nonnegative(m, cap=cap).is_tn:
        return False
    power = m
    for _ in range(max(1, dim - 1)):
        if _full_scan(power, violates=lambda value: value <= 0)[0] is None:
            return True
        power = power.mul(m)
    return False
