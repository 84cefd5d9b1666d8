"""Jacobi-Pineiro parameter families: the two explicit six-periodic alpha
sequences factoring the same recursion matrix, region classification of
(alpha, beta), sign-structure checks, and cross-consistency of the two
parametrizations.

The weights are x^alpha (1-x)^gamma and x^beta (1-x)^gamma on [0, 1] with
alpha, beta, gamma > -1 and alpha - beta not an integer (the natural
region R).  R splits by d = alpha - beta into
R1: d > 1, R2: 0 < d < 1, R3: -1 < d < 0, R4: d < -1.

The closed forms are evaluated over the integers: ``jp_alphas`` brings
(alpha, beta, gamma) to one common denominator once, multiplies the three
numerator and three denominator factors of each alpha_j as ints and builds
one Fraction from them, so the only gcd paid per alpha is that Fraction's.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .core import (AlphaSequence, _banded, _factor_triple, _lu_bands, _split_alphas, bands_from_alphas,
                   tetra_from_alphas)
from .errors import ConsistencyViolation, OutsideNaturalRegion, PredictionMismatch
from .scalars import exact_tuple


class Variant(enum.Enum):
    FIRST = "first"
    AKV = "akv"

    def __str__(self):
        return self.value


class Region(enum.Enum):
    R1 = "R1"
    R2 = "R2"
    R3 = "R3"
    R4 = "R4"
    OUTSIDE = "OUTSIDE"

    def __str__(self):
        return self.value


def jp_region(alpha, beta) -> Region:
    """Strict-inequality region of (alpha, beta); boundaries (integer
    alpha - beta) and points outside alpha, beta > -1 return OUTSIDE."""
    if not (alpha > -1 and beta > -1):
        return Region.OUTSIDE
    d = alpha - beta
    if d.denominator == 1:  # an integer alpha - beta is a region boundary
        return Region.OUTSIDE
    if d > 1:
        return Region.R1
    if d > 0:
        return Region.R2
    if d > -1:
        return Region.R3
    return Region.R4


@dataclass(frozen=True)
class JPParams:
    """Validated parameter triple in the natural region with gamma > -1.
    Each parameter is an int or a Fraction; anything else raises TypeError."""

    alpha: Fraction
    beta: Fraction
    gamma: Fraction

    def __post_init__(self):
        a, b, g = exact_tuple((self.alpha, self.beta, self.gamma), "JPParams")
        if not (a > -1 and b > -1):
            raise OutsideNaturalRegion(f"alpha = {a}, beta = {b} must both exceed -1")
        if not g > -1:
            raise OutsideNaturalRegion(f"gamma = {g} must exceed -1")
        if (a - b).denominator == 1:
            raise OutsideNaturalRegion(f"alpha - beta = {a - b} is an integer")
        # the closed forms divide by (k + alpha + gamma) and (k + beta + gamma),
        # k >= 1; with parameters > -1 only k = 1 can vanish
        if a + g == -1 or b + g == -1:
            raise OutsideNaturalRegion(
                "alpha + gamma = -1 or beta + gamma = -1 degenerates the closed forms"
            )

    @property
    def region(self) -> Region:
        return jp_region(self.alpha, self.beta)


# The closed forms, six-periodic in j = 6n + r (r = 1..6).  alpha_j is the
# product of three numerator factors over three denominator factors, each
# linear in n: (k, t, s) stands for k n + t + s, s naming a combination of
# the parameters (see _jp_rows).  The denominators and residues 1 and 4 are
# the same in both parametrizations.
_JP_DENOMINATORS = {
    1: ((3, 1, "a+g"), (3, 2, "a+g"), (3, 1, "b+g")),
    2: ((3, 2, "a+g"), (3, 1, "b+g"), (3, 2, "b+g")),
    3: ((3, 2, "a+g"), (3, 3, "a+g"), (3, 2, "b+g")),
    4: ((3, 3, "a+g"), (3, 2, "b+g"), (3, 3, "b+g")),
    5: ((3, 3, "a+g"), (3, 4, "a+g"), (3, 3, "b+g")),
    6: ((3, 4, "a+g"), (3, 3, "b+g"), (3, 4, "b+g")),
}
_JP_SHARED_NUMERATORS = {
    1: ((1, 1, "a"), (2, 1, "a+g"), (2, 1, "b+g")),
    4: ((1, 1, "b"), (2, 2, "a+g"), (2, 2, "b+g")),
}
_JP_NUMERATORS = {
    Variant.FIRST: {
        2: ((1, 0, "0"), (2, 1, "g"), (2, 1, "a+g")),
        3: ((1, 1, "0"), (2, 1, "g"), (2, 2, "b+g")),
        5: ((1, 1, "a-b"), (2, 2, "g"), (2, 2, "a+g")),
        6: ((1, 1, "b-a"), (2, 2, "g"), (2, 3, "b+g")),
        **_JP_SHARED_NUMERATORS,
    },
    Variant.AKV: {
        2: ((1, 0, "b-a"), (2, 1, "g"), (2, 1, "b+g")),
        3: ((1, 1, "a-b"), (2, 1, "g"), (2, 2, "a+g")),
        5: ((1, 1, "0"), (2, 2, "g"), (2, 2, "b+g")),
        6: ((1, 1, "0"), (2, 2, "g"), (2, 3, "a+g")),
        **_JP_SHARED_NUMERATORS,
    },
}


def _jp_rows(p: JPParams, variant: Variant):
    """The closed forms over the integers: with (alpha, beta, gamma) =
    (A, B, G) / D, the factor k n + t + s is ((k n + t) D + S) / D, and
    the D^3 of the numerator cancels that of the denominator.  Row r - 1
    lists each of its six factors as (k D, t D + S), numerators first, so
    alpha_{6n+r} = prod(u n + v, numerators) / prod(u n + v, denominators)."""
    a, b, g = p.alpha, p.beta, p.gamma
    d = lcm(a.denominator, b.denominator, g.denominator)
    a, b, g = (v.numerator * (d // v.denominator) for v in (a, b, g))
    combos = {"0": 0, "a": a, "b": b, "g": g, "a+g": a + g, "b+g": b + g, "a-b": a - b, "b-a": b - a}
    numerators = _JP_NUMERATORS[variant]
    return tuple(
        tuple((k * d, t * d + combos[s]) for k, t, s in numerators[r] + _JP_DENOMINATORS[r])
        for r in range(1, 7)
    )


def jp_alphas(p: JPParams, variant: Variant, count: int) -> AlphaSequence:
    """First `count` entries of the chosen parametrization, exactly: each
    one is a single Fraction of two integer products (see _jp_rows)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rows = _jp_rows(p, variant)
    values = []
    for i in range(count):
        n, r = divmod(i, 6)
        (u1, v1), (u2, v2), (u3, v3), (u4, v4), (u5, v5), (u6, v6) = rows[r]
        values.append(Fraction(
            (u1 * n + v1) * (u2 * n + v2) * (u3 * n + v3),
            (u4 * n + v4) * (u5 * n + v5) * (u6 * n + v6),
        ))
    return AlphaSequence(values=tuple(values))


def jp_dense_truncation(p: JPParams, n: int):
    """(N+1) x (N+1) leading truncation of the recursion matrix, built from
    the raw band products so it exists in every region (outside the strip
    some a_n are negative and TetraHessenberg would refuse them).  Rows
    0..N read alpha_1 .. alpha_{3N+1} (c_N is the last), so exactly those
    are built."""
    c, b, a = bands_from_alphas(jp_alphas(p, Variant.FIRST, 3 * n + 1))
    return _banded(n + 1, {0: c.get, 1: lambda i: Fraction(1), -1: b.get, -2: a.get})


# Region sign table for the first period layers; the fixed grids used for
# verification stay within |alpha - beta| < 2, where every entry's sign is
# pinned.
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


@dataclass(frozen=True)
class JPSignReport:
    region: Region
    count: int
    first_signs: tuple
    akv_signs: tuple


@dataclass(frozen=True)
class JPConsistencyReport:
    count: int
    bands_compared: int
    subdiagonals_compared: int


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


def jp_matrix(p: JPParams, variant: Variant = Variant.FIRST, count: int = 64):
    """The recursion matrix as a validated TetraHessenberg (only possible
    where the induced a_n stay positive, e.g. the strip R2 u R3)."""
    return tetra_from_alphas(jp_alphas(p, variant, count))


def _grid_points():
    """16 rational (alpha, beta, gamma) points, four per region R1-R4."""
    bases = (
        (Fraction(3, 2), Fraction(0)),  # R1
        (Fraction(5, 2), Fraction(1)),  # R1
        (Fraction(1, 2), Fraction(0)),  # R2
        (Fraction(3, 2), Fraction(1)),  # R2
        (Fraction(0), Fraction(1, 2)),  # R3
        (Fraction(1), Fraction(3, 2)),  # R3
        (Fraction(0), Fraction(3, 2)),  # R4
        (Fraction(1), Fraction(5, 2)),  # R4
    )
    gammas = (Fraction(0), Fraction(1, 2))
    return tuple(
        JPParams(alpha=a, beta=b, gamma=g) for (a, b) in bases for g in gammas
    )


#: Fixed, documented verification grid covering R1-R4 (|alpha - beta| < 2).
JP_VERIFICATION_GRID = _grid_points()
