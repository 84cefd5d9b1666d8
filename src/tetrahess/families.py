"""Jacobi-Pineiro parameter families: the two explicit six-periodic alpha
sequences factoring the same recursion matrix, region classification of
(alpha, beta), sign-structure checks, and cross-consistency of the two
parametrizations, sampled up to a count or proved for every j by
``jp_certificate``.

The weights are x^alpha (1-x)^gamma and x^beta (1-x)^gamma on [0, 1] with
alpha, beta, gamma > -1 and alpha - beta not an integer (the natural
region R).  R splits by d = alpha - beta into
R1: d > 1, R2: 0 < d < 1, R3: -1 < d < 0, R4: d < -1.

The closed forms are evaluated over the integers, once: ``JPParams``
brings (alpha, beta, gamma) to one common denominator when it is built,
``_jp_rows`` lists the int linear factors of each residue, and
``_jp_ratios`` multiplies the three numerator and three denominator
factors of each alpha_j into an int pair (num, den), with no gcd.  Every
reader starts from those pairs: ``jp_alphas`` builds one Fraction from
each, ``jp_dense_truncation`` brings them to one denominator and forms
the bands as ints, the int rows of its DenseMatrix, and the signs
(``jp_certificate``, the ``jp-scan`` PBF flag of ``_jp_is_pbf``) are the
signs of num * den.

The ``jp-scan`` oscillation flag (``_jp_oscillatory``) is read off those
signs too, as the signs of the bidiagonal factors of T^[N] = L1 L2 U
(``factorization._factor_sign_verdict``): nonnegative factors with a
positive U diagonal make T^[N] oscillatory, a negative a_n refutes it, and
only where the signs decide neither is the dense truncation built and put
through ``is_totally_nonnegative``.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import gcd, lcm

from .core import BAND_STARTS, AlphaSequence, DenseMatrix, _factor_bands, _split_alphas, tetra_from_alphas
from .errors import ConsistencyViolation, OutsideNaturalRegion, PredictionMismatch
from .factorization import _factor_sign_verdict
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
    (a, b), d = over_common_denominator((alpha, beta))
    return _region(a, b, d)


def _region(a, b, d) -> Region:
    """jp_region of (alpha, beta) = (a, b) / d, ints with d > 0."""
    if not (a > -d and b > -d):
        return Region.OUTSIDE
    diff = a - b
    if diff % d == 0:  # an integer alpha - beta is a region boundary
        return Region.OUTSIDE
    if diff > d:
        return Region.R1
    if diff > 0:
        return Region.R2
    if diff > -d:
        return Region.R3
    return Region.R4


class JPParams:
    """Validated parameter triple in the natural region with gamma > -1.
    Each parameter is an int or a Fraction; anything else raises TypeError.

    The parameters are brought to one common denominator once, as the ints
    (A, B, G) over D > 0; the checks, the region and the closed forms
    (_jp_rows) read those ints."""

    __slots__ = ("alpha", "beta", "gamma", "_ints", "_region")

    def __init__(self, alpha, beta, gamma):
        (a, b, g), d = ints = over_common_denominator(exact_tuple((alpha, beta, gamma), "JPParams"))
        if not (a > -d and b > -d):
            raise OutsideNaturalRegion(
                f"alpha = {format_scalar(alpha)}, beta = {format_scalar(beta)} must both exceed -1"
            )
        if not g > -d:
            raise OutsideNaturalRegion(f"gamma = {format_scalar(gamma)} must exceed -1")
        if (a - b) % d == 0:
            raise OutsideNaturalRegion(f"alpha - beta = {format_scalar(alpha - beta)} is an integer")
        # the closed forms divide by (k + alpha + gamma) and (k + beta + gamma),
        # k >= 1; with parameters > -1 only k = 1 can vanish
        if a + g == -d or b + g == -d:
            raise OutsideNaturalRegion(
                "alpha + gamma = -1 or beta + gamma = -1 degenerates the closed forms"
            )
        # the ints and the region are computed once; equality, hashing and
        # repr read the three parameters only
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "_ints", ints)
        object.__setattr__(self, "_region", _region(a, b, d))

    def __setattr__(self, name, value):
        raise AttributeError("JPParams is immutable")

    def __delattr__(self, name):
        raise AttributeError("JPParams is immutable")

    def _key(self):
        return self.alpha, self.beta, self.gamma

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"JPParams(alpha={self.alpha!r}, beta={self.beta!r}, gamma={self.gamma!r})"

    def __reduce__(self):
        return JPParams, self._key()

    @property
    def region(self) -> Region:
        return self._region


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
    (a, b, g), d = p._ints
    combos = {"0": 0, "a": a, "b": b, "g": g, "a+g": a + g, "b+g": b + g, "a-b": a - b, "b-a": b - a}
    numerators = _JP_NUMERATORS[variant]
    return [[(k * d, t * d + combos[s]) for k, t, s in numerators[r] + _JP_DENOMINATORS[r]] for r in range(1, 7)]


def _jp_ratios(rows, count, start=0):
    """``count`` alphas of one variant from alpha_{6 start + 1} on (from
    alpha_1 by default), from its rows (see _jp_rows), each yielded as the
    int pair (num, den) of its three numerator and three denominator
    factors, unreduced: alpha_j = num / den.  den is nonzero but may be
    negative, so the sign of alpha_j is that of num * den."""
    for i in range(6 * start, 6 * start + count):
        n, r = divmod(i, 6)
        (u1, v1), (u2, v2), (u3, v3), (u4, v4), (u5, v5), (u6, v6) = rows[r]
        yield (u1 * n + v1) * (u2 * n + v2) * (u3 * n + v3), (u4 * n + v4) * (u5 * n + v5) * (u6 * n + v6)


def jp_alphas(p: JPParams, variant: Variant, count: int) -> AlphaSequence:
    """First `count` entries of the chosen parametrization, exactly: each
    one is a single Fraction of two integer products (see _jp_ratios)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return AlphaSequence(values=tuple(Fraction(num, den) for num, den in _jp_ratios(_jp_rows(p, variant), count)))


def _jp_is_pbf(p: JPParams, variant: Variant, count: int) -> bool:
    """Is jp_alphas(p, variant, count).classify(count) PBF?  alpha_j =
    num / den is positive exactly when num * den is, so the signs are read
    off _jp_ratios and no Fraction is built."""
    return all(num * den > 0 for num, den in _jp_ratios(_jp_rows(p, variant), count))


def jp_dense_truncation(p: JPParams, n: int) -> DenseMatrix:
    """(N+1) x (N+1) leading truncation of the recursion matrix, built from
    the raw band products so it exists in every region (outside the strip
    some a_n are negative and TetraHessenberg would refuse them).  Rows
    0..N read alpha_1 .. alpha_{3N+1} (c_N is the last), so exactly those
    are read off _jp_ratios.

    The bands are formed over the integers, as in jp_cross_consistency:
    every alpha num / den is brought to K, the lcm of the dens, as the int
    num (K / den), so c, b and a of those ints are K, K^2 and K^3 times the
    true ones.  The matrix is built in its scaled form (DenseMatrix), with
    no Fraction: row i holds c K^2, K^3 (the unit superdiagonal), b K and
    a over the scale K^3, each divided by the gcd of the row and K^3, so
    the scale is the lcm of the row's denominators.  Each row is written
    in one pass from the factors p_i, q_i, u_i of core._split_alphas,

        c_i = u_i + p_i + q_i,  b_i = l_i + (p_i + q_i) u_{i-1},
        a_i = l_i u_{i-2},  l_i = p_i q_{i-1}."""
    ratios = list(_jp_ratios(_jp_rows(p, Variant.FIRST), 3 * n + 1))
    k = lcm(*(den for _, den in ratios))
    u, ps, qs = _split_alphas(tuple(num * (k // den) for num, den in ratios))
    k2, k3 = k * k, k**3
    ints, scales = [], []
    for i, (p_i, q_i, u_i) in enumerate(zip(ps, qs, u)):
        row = [0] * (n + 1)
        row[i] = (u_i + p_i + q_i) * k2
        if i < n:
            row[i + 1] = k3
        if i >= 1:
            ell = p_i * qs[i - 1]
            row[i - 1] = (ell + (p_i + q_i) * u[i - 1]) * k
            if i >= 2:
                row[i - 2] = ell * u[i - 2]
        g = gcd(k3, *row)
        ints.append(tuple([v // g for v in row]) if g > 1 else tuple(row))
        scales.append(k3 // g)
    return DenseMatrix._from_scaled(tuple(ints), tuple(scales))


def _jp_oscillatory(p: JPParams, n: int) -> bool:
    """Is jp_dense_truncation(p, n) oscillatory?  The verdict is read off
    the signs of FIRST's alpha_1 .. alpha_{3N+1}, the signs of num * den of
    _jp_ratios, by factorization._factor_sign_verdict; only where those
    signs cannot tell is the truncation built and checked by
    is_totally_nonnegative."""
    ratios = _jp_ratios(_jp_rows(p, Variant.FIRST), 3 * n + 1)
    signs = tuple((num * den > 0) - (num * den < 0) for num, den in ratios)
    verdict = _factor_sign_verdict(signs, n)
    if verdict is None:
        # imported here: no jp-scan grid point gets this far, so the command
        # never loads the TN checker
        from .tncheck import is_totally_nonnegative
        return is_totally_nonnegative(jp_dense_truncation(p, n)).is_oscillatory_gk
    return verdict


#: Region sign table: the alpha_j of each (variant, region) that are not
#: positive, as {j: sign}; every alpha_j not listed is positive.  The fixed
#: grids used for verification stay within |alpha - beta| < 2, where every
#: entry's sign is pinned.  jp_certificate proves each row for every j at
#: the points of JP_VERIFICATION_GRID, from the factors of _jp_rows.
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


def _l_subdiagonals(p, q):
    """The subdiagonals m_n = p_n + q_n and l_n = p_n q_{n-1} (l_0 = 0) of
    L = L1 L2, from the factors p and q of _split_alphas, each down to the
    last row p and q fix."""
    m = tuple(p_n + q_n for p_n, q_n in zip(p, q))
    ell = tuple(p_n * q_n1 for p_n, q_n1 in zip(p, (0,) + q))
    return m, ell


def jp_cross_consistency(p: JPParams, count: int, variants=None) -> None:
    """Both parametrizations must induce identical L-subdiagonals
    (m_k = alpha_{3k-1}+alpha_{3k}, l_k = alpha_{3k-1} alpha_{3k-3},
    k <= count // 3) and identical Hessenberg bands, exactly; each variant's
    factors are read once.  ``variants`` is the pair
    (jp_alphas(p, FIRST, count), jp_alphas(p, AKV, count)) when the caller
    has built it already.  A variant shorter than ``count`` raises
    BandExhausted at its first missing entry before anything is compared,
    FIRST before AKV.

    The comparison runs over the integers.  Every alpha of both variants is
    multiplied by K, the lcm of all their denominators, and m, l and the
    bands (core._factor_bands, Fractions of denominator 1 here) are formed
    from those ints.  m and c are homogeneous of degree 1 in the alphas,
    l and b of degree 2 and a of degree 3, so each scaled quantity is
    K^deg times the true one; with one K > 0 for both variants, two scaled
    entries agree exactly when the true entries do.  A ConsistencyViolation
    divides its entries by K^deg, so it carries the true values."""
    if variants is None:
        variants = (jp_alphas(p, Variant.FIRST, count), jp_alphas(p, Variant.AKV, count))
    for seq in variants:
        if seq.length < count:
            seq.at(seq.length + 1)
    first, akv = (seq.values for seq in variants)
    scaled, k = over_common_denominator(first + akv)
    factors = [_split_alphas(tuple(part)) for part in (scaled[: len(first)], scaled[len(first) :])]
    (m_f, l_f), (m_a, l_a) = (_l_subdiagonals(*f[1:]) for f in factors)
    rows = count // 3 + 1
    _agree("m", 1, m_f[1:rows], m_a[1:rows], k)
    _agree("l", 2, l_f[2:rows], l_a[2:rows], k**2)
    for name, f, a in zip("cba", *(_factor_bands(*f) for f in factors)):
        _agree(name, BAND_STARTS[name], f, a, k ** _DEGREE[name])


def _induced(rows, n):
    """The numerators at row n of what a variant's rows (from _jp_rows)
    induce in T = L U, over denominators made of the denominator products
    D_r alone:

        u_{2n} = alpha_{6n+1}, u_{2n+1} = alpha_{6n+4}:   N_1 / D_1, N_4 / D_4;
        m_{2n+1} = alpha_{6n+2} + alpha_{6n+3}:  (N_2 D_3 + N_3 D_2) / D_2 D_3;
        m_{2n+2} = alpha_{6n+5} + alpha_{6n+6}:  (N_5 D_6 + N_6 D_5) / D_5 D_6;
        l_{2n+2} = alpha_{6n+5} alpha_{6n+3}:    N_5 N_3 / D_5 D_3;
        l_{2n+3} = alpha_{6n+8} alpha_{6n+6}:    N_2(n + 1) N_6 / D_2(n + 1) D_6,

    N_r / D_r being the int pair of _jp_ratios for alpha_{6n+r}, the
    products of its three numerator and three denominator factors, and
    N_2(n + 1) that of alpha_{6n+8}.  As polynomials in n each numerator
    has degree <= 6 and int coefficients."""
    (n1, _), (n2, d2), (n3, d3), (n4, _), (n5, d5), (n6, d6), _, (n2_next, _) = _jp_ratios(rows, 8, n)
    return n1, n4, n2 * d3 + n3 * d2, n5 * d6 + n6 * d5, n5 * n3, n2_next * n6


def _induce_alike(first, akv) -> bool:
    """Do two variants' rows induce the numerators of _induced alike at
    every row n?  With M the largest |u| + |v| of their factors (the n + 1
    of N_2(n + 1) at most doubles it), the coefficients of each numerator
    sum in absolute value to at most 8 M^6, so a difference has int
    coefficients of absolute value <= 16 M^6 and, if nonzero, by Cauchy's
    bound no root n >= 16 M^6 + 1: one evaluation there decides."""
    n = 16 * max(abs(u) + abs(v) for row in first + akv for u, v in row) ** 6 + 1
    return _induced(first, n) == _induced(akv, n)


#: jp_cross_consistency at this count compares m_k and l_k for k <= 15 and
#: u_k for k <= 14, so every row n <= 6 of the quantities of _induced.
_WITNESS_COUNT = 45


def jp_certificate(p: JPParams) -> None:
    """Prove, for every j, what jp_cross_consistency and jp_sign_report
    check for j <= count: both variants induce the same L-subdiagonals and
    Hessenberg bands, and every alpha_j of each variant has the sign the
    region's row of ``_SIGN_EXCEPTIONS`` gives it.  Raises what those two
    raise on their first failure, in their order: agreement before signs,
    FIRST's signs before AKV's, each in j order.

    Agreement.  _jp_rows takes the denominators of both variants from the
    one table _JP_DENOMINATORS, so u, m and l agree at every row exactly
    when the numerator polynomials of _induced do, which _induce_alike
    decides; the bands c, b and a are formed from u, m and l and so agree
    too.  A failed identity is a nonzero polynomial of degree <= 6, so it
    is nonzero at one of n = 0..6, and jp_cross_consistency over those
    rows raises the ConsistencyViolation of its first failing entry.

    Signs.  Every factor u n + v of _jp_rows has u > 0, so it is positive
    from row -v // u + 1 on.  The rows up to the later of the last with a
    factor <= 0 and the last the table lists an exception at are read off
    the int pairs of _jp_ratios, the sign of alpha_j being that of
    num * den; every later alpha is positive, as the table says.  So an
    exception listed where the alpha is positive fails too.

    The proof reads the closed forms of _jp_rows: a formula transcribed
    wrong in both variants alike is beyond it."""
    first, akv = _jp_rows(p, Variant.FIRST), _jp_rows(p, Variant.AKV)
    if not _induce_alike(first, akv):
        jp_cross_consistency(p, _WITNESS_COUNT)
    region = p.region
    for variant, rows in ((Variant.FIRST, first), (Variant.AKV, akv)):
        exceptions = _SIGN_EXCEPTIONS[(variant, region)]
        # from row ``read`` on every factor is positive and no exception listed
        read = max(0, *(-v // u + 1 for row in rows for u, v in row), *((j - 1) // 6 + 1 for j in exceptions))
        for j, (num, den) in enumerate(_jp_ratios(rows, 6 * read), start=1):
            sign = (num * den > 0) - (num * den < 0)
            predicted = exceptions.get(j, 1)
            if sign != predicted:
                raise PredictionMismatch(j, str(variant), predicted, Fraction(num, den))


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
