"""The Fraction-valued Jacobi-Pineiro closed forms that the integer kernel
of ``tetrahess.families.jp_alphas`` replaced, and the Fraction forms of
``jp_cross_consistency``, ``jp_sign_report`` and ``jp_dense_truncation``
that the integer forms replaced, kept unchanged as the oracles of the
differential tests in test_families.py, with the region sign table that
``jp_sign_report`` checks against.

Each alpha_j is built by Fraction arithmetic on (alpha, beta, gamma), one
gcd per operation, straight from the six-periodic formulas.  The two
checks form the factor triples and bands of both variants as Fractions and
compare them, and every sign, with Fraction comparisons.
"""

from __future__ import annotations

from fractions import Fraction

from tetrahess.core import _banded, _factor_triple, _lu_bands, _split_alphas, bands_from_alphas
from tetrahess.errors import ConsistencyViolation, PredictionMismatch
from tetrahess.families import JPConsistencyReport, JPParams, JPSignReport, Region, Variant, jp_alphas


def jp_value(p: JPParams, variant: Variant, j: int):
    """alpha_j (or the AKV tilde value) from the six-periodic closed forms."""
    n = (j - 1) // 6
    r = j - 6 * n
    a, b, g = p.alpha, p.beta, p.gamma
    if r == 1:
        return ((n + 1 + a) * (2 * n + 1 + a + g) * (2 * n + 1 + b + g)) / (
            (3 * n + 1 + a + g) * (3 * n + 2 + a + g) * (3 * n + 1 + b + g)
        )
    if r == 2:
        if variant is Variant.FIRST:
            return (n * (2 * n + 1 + g) * (2 * n + 1 + a + g)) / (
                (3 * n + 2 + a + g) * (3 * n + 1 + b + g) * (3 * n + 2 + b + g)
            )
        return ((n - a + b) * (2 * n + 1 + g) * (2 * n + 1 + b + g)) / (
            (3 * n + 2 + a + g) * (3 * n + 1 + b + g) * (3 * n + 2 + b + g)
        )
    if r == 3:
        if variant is Variant.FIRST:
            return ((n + 1) * (2 * n + 1 + g) * (2 * n + 2 + b + g)) / (
                (3 * n + 2 + a + g) * (3 * n + 3 + a + g) * (3 * n + 2 + b + g)
            )
        return ((n + 1 + a - b) * (2 * n + 1 + g) * (2 * n + 2 + a + g)) / (
            (3 * n + 2 + a + g) * (3 * n + 3 + a + g) * (3 * n + 2 + b + g)
        )
    if r == 4:
        return ((n + 1 + b) * (2 * n + 2 + a + g) * (2 * n + 2 + b + g)) / (
            (3 * n + 3 + a + g) * (3 * n + 2 + b + g) * (3 * n + 3 + b + g)
        )
    if r == 5:
        if variant is Variant.FIRST:
            return ((n + 1 + a - b) * (2 * n + 2 + g) * (2 * n + 2 + a + g)) / (
                (3 * n + 3 + a + g) * (3 * n + 4 + a + g) * (3 * n + 3 + b + g)
            )
        return ((n + 1) * (2 * n + 2 + g) * (2 * n + 2 + b + g)) / (
            (3 * n + 3 + a + g) * (3 * n + 4 + a + g) * (3 * n + 3 + b + g)
        )
    if variant is Variant.FIRST:
        return ((n + 1 - a + b) * (2 * n + 2 + g) * (2 * n + 3 + b + g)) / (
            (3 * n + 4 + a + g) * (3 * n + 3 + b + g) * (3 * n + 4 + b + g)
        )
    return ((n + 1) * (2 * n + 2 + g) * (2 * n + 3 + a + g)) / (
        (3 * n + 4 + a + g) * (3 * n + 3 + b + g) * (3 * n + 4 + b + g)
    )


def oracle_jp_alphas(p: JPParams, variant: Variant, count: int) -> tuple:
    """alpha_1 .. alpha_count by the Fraction closed forms."""
    return tuple(jp_value(p, variant, j) for j in range(1, count + 1))


# The region sign table written as a branch chain, apart from the data
# table tetrahess.families._SIGN_EXCEPTIONS, so that a wrong entry in either
# shows as a disagreement.
def _predicted_sign(j: int, variant: Variant, region: Region) -> int:
    if variant is Variant.FIRST:
        if j == 2:
            return 0
        if j == 5:
            return -1 if region is Region.R4 else 1
        if j == 6:
            return -1 if region is Region.R1 else 1
        return 1
    if j == 2:
        return -1 if region in (Region.R1, Region.R2) else 1
    if j == 3:
        return -1 if region is Region.R4 else 1
    if j == 8:
        return -1 if region is Region.R1 else 1
    return 1


def jp_sign_report(p: JPParams, count: int, variants=None) -> JPSignReport:
    """Record the sign of every alpha_j, j <= count, for both variants and
    check each against the region sign table:

      FIRST: positive except alpha_2 = 0, alpha_5 < 0 in R4, alpha_6 < 0 in R1
      AKV:   positive except alpha_2 < 0 in R1 u R2, alpha_3 < 0 in R4,
             alpha_8 < 0 in R1

    (in particular: FIRST is TN in the strip R2 u R3, AKV is TP in R3).
    ``variants`` is the pair (jp_alphas(p, FIRST, count), jp_alphas(p, AKV,
    count)) when the caller has built it already.  Raises PredictionMismatch
    on the first disagreement.
    """
    region = p.region
    if variants is None:
        variants = (jp_alphas(p, Variant.FIRST, count), jp_alphas(p, Variant.AKV, count))
    signs = {}
    for variant, seq in zip((Variant.FIRST, Variant.AKV), variants):
        out = []
        for j in range(1, count + 1):
            v = seq.at(j)
            sign = 0 if v == 0 else (1 if v > 0 else -1)
            if sign != _predicted_sign(j, variant, region):
                raise PredictionMismatch(j, str(variant), _predicted_sign(j, variant, region), v)
            out.append(sign)
        signs[variant] = tuple(out)
    return JPSignReport(
        region=region,
        count=count,
        first_signs=signs[Variant.FIRST],
        akv_signs=signs[Variant.AKV],
    )


def _agree(name, start, first, akv):
    """Number of entries compared; raises ConsistencyViolation(n, name, ...)
    at the first index n, counted from ``start``, where the two differ."""
    for n, (u, v) in enumerate(zip(first, akv), start=start):
        if u != v:
            raise ConsistencyViolation(n, name, u, v)
    return len(first)


def jp_cross_consistency(p: JPParams, count: int, variants=None) -> JPConsistencyReport:
    """Both parametrizations must induce identical L-subdiagonals
    (m_k = alpha_{3k-1}+alpha_{3k}, l_k = alpha_{3k-1} alpha_{3k-3},
    k <= count // 3) and identical Hessenberg bands, exactly; each variant's
    factor triple is read once.  ``variants`` is the pair
    (jp_alphas(p, FIRST, count), jp_alphas(p, AKV, count)) when the caller
    has built it already."""
    if variants is None:
        variants = (jp_alphas(p, Variant.FIRST, count), jp_alphas(p, Variant.AKV, count))
    (u_f, m_f, l_f), (u_a, m_a, l_a) = (_factor_triple(*_split_alphas(v.values)) for v in variants)
    rows = count // 3 + 1
    subdiagonals = _agree("m", 1, m_f[1:rows], m_a[1:rows])
    subdiagonals += _agree("l", 2, l_f[2:rows], l_a[2:rows])
    bands = sum(
        _agree(f.name, f.start, f.values, a.values)
        for f, a in zip(_lu_bands(u_f, m_f, l_f), _lu_bands(u_a, m_a, l_a))
    )
    return JPConsistencyReport(count=count, bands_compared=bands, subdiagonals_compared=subdiagonals)


def jp_dense_truncation(p: JPParams, n: int):
    """(N+1) x (N+1) leading truncation of the recursion matrix, built from
    the raw band products so it exists in every region (outside the strip
    some a_n are negative and TetraHessenberg would refuse them).  Rows
    0..N read alpha_1 .. alpha_{3N+1} (c_N is the last), so exactly those
    are built."""
    c, b, a = bands_from_alphas(jp_alphas(p, Variant.FIRST, 3 * n + 1))
    return _banded(n + 1, {0: c.get, 1: lambda i: Fraction(1), -1: b.get, -2: a.get})
