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

from .core import AlphaSequence, _banded, _factor_triple, _lu_bands, _split_alphas, tetra_from_alphas
from .errors import ConsistencyViolation, OutsideNaturalRegion, PredictionMismatch
from .scalars import exact_tuple, format_scalar, over_common_denominator


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
            raise OutsideNaturalRegion(f"alpha = {format_scalar(a)}, beta = {format_scalar(b)} must both exceed -1")
        if not g > -1:
            raise OutsideNaturalRegion(f"gamma = {format_scalar(g)} must exceed -1")
        if (a - b).denominator == 1:
            raise OutsideNaturalRegion(f"alpha - beta = {format_scalar(a - b)} is an integer")
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
    (a, b, g), d = over_common_denominator((p.alpha, p.beta, p.gamma))
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
    are built.

    The bands are formed over the integers, as in jp_cross_consistency:
    every alpha is multiplied by K, the lcm of their denominators, so c, b
    and a of the scaled alphas are K, K^2 and K^3 times the true ones, and
    each entry is one Fraction of that int over K^deg."""
    scaled, k = over_common_denominator(jp_alphas(p, Variant.FIRST, 3 * n + 1).values)
    c, b, a = _lu_bands(*_factor_triple(*_split_alphas(tuple(scaled))))
    return _banded(n + 1, {
        0: lambda i: Fraction(c.get(i), k),
        1: lambda i: Fraction(1),
        -1: lambda i: Fraction(b.get(i), k**2),
        -2: lambda i: Fraction(a.get(i), k**3),
    })


#: Region sign table: the alpha_j of each (variant, region) that are not
#: positive, as {j: sign}; every alpha_j not listed is positive.  The fixed
#: grids used for verification stay within |alpha - beta| < 2, where every
#: entry's sign is pinned.
_SIGN_EXCEPTIONS = {
    (Variant.FIRST, Region.R1): {2: 0, 6: -1},
    (Variant.FIRST, Region.R2): {2: 0},
    (Variant.FIRST, Region.R3): {2: 0},
    (Variant.FIRST, Region.R4): {2: 0, 5: -1},
    (Variant.AKV, Region.R1): {2: -1, 8: -1},
    (Variant.AKV, Region.R2): {2: -1},
    (Variant.AKV, Region.R3): {},
    (Variant.AKV, Region.R4): {3: -1},
}


def jp_sign_report(p: JPParams, count: int, variants=None) -> None:
    """Check the sign of every alpha_j, j <= count, of both variants
    against the region's row of ``_SIGN_EXCEPTIONS``, read once per variant
    (in particular: FIRST is TN in the strip R2 u R3, AKV is TP in R3).
    Each sign is read off the numerator (a Fraction's denominator is
    positive), so no Fraction is compared.  ``variants`` is the pair
    (jp_alphas(p, FIRST, count), jp_alphas(p, AKV, count)) when the caller
    has built it already.  Raises PredictionMismatch on the first
    disagreement.  Each variant is read in one pass over its values; a
    sequence shorter than ``count`` raises BandExhausted at its first
    missing entry once every entry it has is checked.
    """
    if variants is None:
        variants = (jp_alphas(p, Variant.FIRST, count), jp_alphas(p, Variant.AKV, count))
    for variant, seq in zip((Variant.FIRST, Variant.AKV), variants):
        exceptions = _SIGN_EXCEPTIONS[(variant, p.region)]
        for j, v in enumerate(seq.values[: max(count, 0)], start=1):
            predicted = exceptions.get(j, 1)
            if (v.numerator > 0) - (v.numerator < 0) != predicted:
                raise PredictionMismatch(j, str(variant), predicted, v)
        if seq.length < count:
            seq.at(seq.length + 1)


def _agree(name, start, first, akv, scale):
    """Raise ConsistencyViolation(n, name, ...) at the first index n,
    counted from ``start``, where the two differ, with the two entries
    divided by ``scale``."""
    for n, (u, v) in enumerate(zip(first, akv), start=start):
        if u != v:
            raise ConsistencyViolation(n, name, Fraction(u, scale), Fraction(v, scale))


#: The degree of each compared quantity in the alphas: u is one alpha, m a
#: sum of two and l a product of two, so c = u + m, b = l + m u and a = l u
#: have degrees 1, 2 and 3.
_DEGREE = {"m": 1, "l": 2, "c": 1, "b": 2, "a": 3}


def jp_cross_consistency(p: JPParams, count: int, variants=None) -> None:
    """Both parametrizations must induce identical L-subdiagonals
    (m_k = alpha_{3k-1}+alpha_{3k}, l_k = alpha_{3k-1} alpha_{3k-3},
    k <= count // 3) and identical Hessenberg bands, exactly; each variant's
    factor triple is read once.  ``variants`` is the pair
    (jp_alphas(p, FIRST, count), jp_alphas(p, AKV, count)) when the caller
    has built it already.

    The comparison runs over the integers.  Every alpha of both variants is
    multiplied by K, the lcm of all their denominators, and the factor
    triples and bands are formed from those ints.  m and c are homogeneous
    of degree 1 in the alphas, l and b of degree 2 and a of degree 3, so
    each scaled quantity is K^deg times the true one; with one K > 0 for
    both variants, two scaled entries agree exactly when the true entries
    do.  A ConsistencyViolation divides its entries by K^deg, so it carries
    the true values."""
    if variants is None:
        variants = (jp_alphas(p, Variant.FIRST, count), jp_alphas(p, Variant.AKV, count))
    first, akv = (seq.values for seq in variants)
    scaled, k = over_common_denominator(first + akv)
    (u_f, m_f, l_f), (u_a, m_a, l_a) = (
        _factor_triple(*_split_alphas(tuple(part))) for part in (scaled[: len(first)], scaled[len(first) :])
    )
    rows = count // 3 + 1
    _agree("m", 1, m_f[1:rows], m_a[1:rows], k)
    _agree("l", 2, l_f[2:rows], l_a[2:rows], k**2)
    for f, a in zip(_lu_bands(u_f, m_f, l_f), _lu_bands(u_a, m_a, l_a)):
        _agree(f.name, f.start, f.values, a.values, k ** _DEGREE[f.name])


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
