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

``comparison_cases`` and ``compared`` are a differential set and the
compared results of the integer forms and these oracles.  They need no
pytest, so the comparison also runs as a script, on an interpreter
without it:

    PYTHONPATH=src python tests/oracle_jp.py
"""

from __future__ import annotations

import random
from fractions import Fraction

from tetrahess import families
from tetrahess.core import AlphaSequence, _banded, _factor_triple, _lu_bands, _split_alphas, bands_from_alphas
from tetrahess.errors import ConsistencyViolation, OutsideNaturalRegion, PredictionMismatch, TetraError
from tetrahess.families import JP_VERIFICATION_GRID, JPParams, Region, Variant, jp_alphas


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


def jp_sign_report(p: JPParams, count: int, variants=None) -> None:
    """Check the sign of every alpha_j, j <= count, of both variants
    against the region sign table:

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
    for variant, seq in zip((Variant.FIRST, Variant.AKV), variants):
        for j in range(1, count + 1):
            v = seq.at(j)
            sign = 0 if v == 0 else (1 if v > 0 else -1)
            if sign != _predicted_sign(j, variant, region):
                raise PredictionMismatch(j, str(variant), _predicted_sign(j, variant, region), v)


def _agree(name, start, first, akv):
    """Raise ConsistencyViolation(n, name, ...) at the first index n,
    counted from ``start``, where the two differ."""
    for n, (u, v) in enumerate(zip(first, akv), start=start):
        if u != v:
            raise ConsistencyViolation(n, name, u, v)


def jp_cross_consistency(p: JPParams, count: int, variants=None) -> None:
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
    _agree("m", 1, m_f[1:rows], m_a[1:rows])
    _agree("l", 2, l_f[2:rows], l_a[2:rows])
    for f, a in zip(_lu_bands(u_f, m_f, l_f), _lu_bands(u_a, m_a, l_a)):
        _agree(f.name, f.start, f.values, a.values)


def jp_dense_truncation(p: JPParams, n: int):
    """(N+1) x (N+1) leading truncation of the recursion matrix, built from
    the raw band products so it exists in every region (outside the strip
    some a_n are negative and TetraHessenberg would refuse them).  Rows
    0..N read alpha_1 .. alpha_{3N+1} (c_N is the last), so exactly those
    are built."""
    c, b, a = bands_from_alphas(jp_alphas(p, Variant.FIRST, 3 * n + 1))
    return _banded(n + 1, {0: c.get, 1: lambda i: Fraction(1), -1: b.get, -2: a.get})


def _point(rng):
    """A random rational (alpha, beta, gamma) of the natural region, each
    parameter in (-1, 60] with one of a few denominators."""
    while True:
        a, b, g = (Fraction(rng.randint(0, 60), rng.choice((1, 2, 3, 5, 7, 12))) - Fraction(rng.randint(0, 11), 12)
                   for _ in range(3))
        try:
            return JPParams(a, b, g)
        except OutsideNaturalRegion:
            pass


def _moved(alphas, *moves):
    """alphas with alpha_j increased by d for each (j, d) in moves."""
    values = list(alphas.values)
    for j, d in moves:
        values[j - 1] += d
    return AlphaSequence(values=tuple(values))


def comparison_cases(seed, count):
    """``count`` inputs (p, count, variants) reproducible from ``seed``: p
    a grid point or a random rational point of the natural region, both
    variants of 30 alphas, checked at a count of 1..30.  In turn the
    variants are left whole; have up to three alphas of either variant
    moved by a rational d, each alone or against alpha_{j+1} or
    alpha_{j+2} moved by -d (which keeps m_k or c_k and so reaches l and
    b); have one alpha of either variant negated; or have one variant cut
    short of 30."""
    rng = random.Random(seed)
    cases = []
    for i in range(count):
        p = JP_VERIFICATION_GRID[i // 2 % len(JP_VERIFICATION_GRID)] if i % 2 else _point(rng)
        variants = [jp_alphas(p, v, 30) for v in (Variant.FIRST, Variant.AKV)]
        which, kind = rng.randrange(2), i // 2 % 4
        if kind == 1:
            for _ in range(rng.randint(1, 3)):
                j, d, partner = rng.randint(1, 28), Fraction(rng.randint(-9, 9), rng.randint(1, 9)), rng.randint(0, 2)
                variants[which] = _moved(variants[which], *(((j, d), (j + partner, -d)) if partner else ((j, d),)))
        elif kind == 2:
            j = rng.randint(1, 30)
            variants[which] = _moved(variants[which], (j, -2 * variants[which].at(j)))
        elif kind == 3:
            variants[which] = AlphaSequence(values=variants[which].values[: rng.randint(0, 29)])
        cases.append((p, rng.randint(1, 30), tuple(variants)))
    return cases


def outcome(check, *args):
    """What ``check`` returns (None), or its error's type, message and
    fields, each field with its type."""
    try:
        return check(*args)
    except TetraError as error:
        return type(error), str(error), tuple((key, v, type(v)) for key, v in sorted(vars(error).items()))


def _typed(values):
    return tuple((type(v), v) for v in values)


def compared(case):
    """(what, got, want) for each integer form and its Fraction oracle on
    one case: both variants' closed forms (60 alphas, each value with its
    type), the sign check and the cross-consistency check.  got == want is
    the differential check."""
    p, count, variants = case
    out = [(f"jp_alphas {v}", _typed(jp_alphas(p, v, 60).values), _typed(oracle_jp_alphas(p, v, 60)))
           for v in (Variant.FIRST, Variant.AKV)]
    for name, oracle in (("jp_sign_report", jp_sign_report), ("jp_cross_consistency", jp_cross_consistency)):
        out.append((name, outcome(getattr(families, name), p, count, variants), outcome(oracle, p, count, variants)))
    return out


if __name__ == "__main__":
    import sys

    cases = [case for seed in (1, 2, 3) for case in comparison_cases(seed, 200)]
    results = [(what, got, want) for case in cases for what, got, want in compared(case)]
    differ = sorted({what for what, got, want in results if got != want})
    raised = sum(want is not None for what, _, want in results if not what.startswith("jp_alphas"))
    print(f"Python {sys.version.split()[0]}: {len(cases)} cases, {len(results)} comparisons "
          f"({raised} checks raise), {sum(got != want for _, got, want in results)} differ"
          f"{': ' + ', '.join(differ) if differ else ''}")
    sys.exit(1 if differ else 0)
