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
compared results of the integer forms and these oracles: the closed forms,
the two checks, the truncations T^[0] .. T^[9] and the PBF flag that
``jp-scan`` prints, each integer form read off the int pairs of
``families._jp_ratios`` and each oracle off the Fraction closed forms
below.  They need no pytest, so the comparison also runs as a script, on
an interpreter without it:

    PYTHONPATH=src python tests/oracle_jp.py

``jp_certificate`` proves for every j what the two checks sample for
j <= 24.  ``certificate_compared`` holds it to the sampled pair, as the
``jp-consistency`` suite ran it, and ``numerator_mutations``,
``late_mutations`` and ``sign_table_mutations`` are the wrong tables it
must refuse; the script runs those too.

``oscillation_compared`` holds the oscillation flag ``jp-scan`` prints,
read off the signs of the bidiagonal factors where they decide it, to the
dense check of the Fraction-built truncation at every point of the scan
at four gammas; the script runs that too.
"""

from __future__ import annotations

import random
from contextlib import ExitStack, contextmanager
from fractions import Fraction

from oracle_bands import factor_triple, lu_bands
from tetrahess import families
from tetrahess.core import AlphaSequence, Classification, _banded, _split_alphas, bands_from_alphas
from tetrahess.errors import ConsistencyViolation, OutsideNaturalRegion, PredictionMismatch, TetraError
from tetrahess.families import JP_VERIFICATION_GRID, JPParams, Region, Variant, jp_alphas
from tetrahess.tncheck import is_totally_nonnegative


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
    has built it already.  A variant shorter than ``count`` raises
    BandExhausted at its first missing entry before anything is compared."""
    if variants is None:
        variants = (jp_alphas(p, Variant.FIRST, count), jp_alphas(p, Variant.AKV, count))
    for seq in variants:
        for j in range(1, count + 1):
            seq.at(j)
    (u_f, m_f, l_f), (u_a, m_a, l_a) = (factor_triple(*_split_alphas(v.values)) for v in variants)
    rows = count // 3 + 1
    _agree("m", 1, m_f[1:rows], m_a[1:rows])
    _agree("l", 2, l_f[2:rows], l_a[2:rows])
    for name, start, f, a in zip("cba", (0, 1, 2), lu_bands(u_f, m_f, l_f), lu_bands(u_a, m_a, l_a)):
        _agree(name, start, f, a)


def jp_dense_truncation(p: JPParams, n: int):
    """(N+1) x (N+1) leading truncation of the recursion matrix, built from
    the raw band products so it exists in every region (outside the strip
    some a_n are negative and TetraHessenberg would refuse them).  Rows
    0..N read alpha_1 .. alpha_{3N+1} (c_N is the last), so exactly those
    are built, by the Fraction closed forms."""
    c, b, a = bands_from_alphas(AlphaSequence(oracle_jp_alphas(p, Variant.FIRST, 3 * n + 1)))
    return _banded(n + 1, {0: lambda i: c[i], 1: lambda i: Fraction(1), -1: lambda i: b[i - 1], -2: lambda i: a[i - 2]})


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


#: The checks ``compared`` runs on a case's variants, each with its oracle.
CHECKS = {"jp_sign_report": jp_sign_report, "jp_cross_consistency": jp_cross_consistency}

#: The truncation orders N ``compared`` builds T^[N] at.
TRUNCATION_ORDERS = range(10)


def compared(case):
    """(what, got, want) for each integer form and its Fraction oracle on
    one case: both variants' closed forms (60 alphas, each value with its
    type); the sign check and the cross-consistency check; the truncation
    T^[N], N = 0..9, each entry with its type; and each variant's PBF flag
    (the one jp-scan prints for AKV at count 24) at 24 and at the case's
    count, against classify of the Fraction closed forms.  got == want is
    the differential check."""
    p, count, variants = case
    out = [(f"jp_alphas {v}", _typed(jp_alphas(p, v, 60).values), _typed(oracle_jp_alphas(p, v, 60)))
           for v in (Variant.FIRST, Variant.AKV)]
    for name, oracle in CHECKS.items():
        out.append((name, outcome(getattr(families, name), p, count, variants), outcome(oracle, p, count, variants)))
    out += [(f"jp_dense_truncation {n}", tuple(map(_typed, families.jp_dense_truncation(p, n).rows)),
             tuple(map(_typed, jp_dense_truncation(p, n).rows))) for n in TRUNCATION_ORDERS]
    out += [(f"_jp_is_pbf {v}", (k, families._jp_is_pbf(p, v, k)),
             (k, AlphaSequence(oracle_jp_alphas(p, v, k)).classify(k) is Classification.PBF))
            for v in (Variant.FIRST, Variant.AKV) for k in (24, count)]
    return out


def _near_point(rng):
    """A random rational point of the natural region with |alpha - beta| <
    2, where every entry of the sign table is pinned, and alpha, gamma in
    (-1, 2], where some factors of the closed forms start out negative."""
    while True:
        a, g = (Fraction(rng.randint(-23, 48), 24) for _ in range(2))
        try:
            return JPParams(a, a + Fraction(rng.randint(-47, 47), 24), g)
        except OutsideNaturalRegion:
            pass


def sampled(p):
    """Both checks at count 24 on one build of each variant, as the
    jp-consistency suite ran them before the certificate."""
    variants = (jp_alphas(p, Variant.FIRST, 24), jp_alphas(p, Variant.AKV, 24))
    families.jp_cross_consistency(p, 24, variants)
    families.jp_sign_report(p, 24, variants)


def certificate_compared(p):
    """(got, want): the outcomes of the certificate and of the sampled pair
    at p."""
    return outcome(families.jp_certificate, p), outcome(sampled, p)


def numerator_mutations():
    """The 48 closed forms one step wrong: 1 added to k or to t of one
    factor (k, t, s) of a numerator that one variant alone has (residues
    2, 3, 5 and 6), as (variant, residue, the mutated numerator)."""
    out = []
    for variant in Variant:
        for r in (2, 3, 5, 6):
            row = families._JP_NUMERATORS[variant][r]
            for i, (k, t, s) in enumerate(row):
                out += [(variant, r, row[:i] + (factor,) + row[i + 1:]) for factor in ((k + 1, t, s), (k, t + 1, s))]
    return out


def late_mutations():
    """Two wrong tables whose first failure lies past every m_k, as lists
    of (variant, residue, numerator) edits: FIRST given AKV's alpha_{6n+5}
    and alpha_{6n+6}, which keeps every m_k and moves l_{2n+2}; and AKV's
    alpha_{6n+1} one step wrong, which moves u_{2n} and so c_{2n} alone."""
    table = families._JP_NUMERATORS
    return [
        [(Variant.FIRST, r, table[Variant.AKV][r]) for r in (5, 6)],
        [(Variant.AKV, 1, ((1, 2, "a"),) + table[Variant.AKV][1][1:])],
    ]


def sign_table_mutations():
    """Two wrong rows of the sign table, as (key, row, the j the
    certificate must name): an exception far beyond j = 24, and FIRST's
    negative alpha_6 in R1 dropped."""
    table = families._SIGN_EXCEPTIONS
    akv_r3, first_r1 = (Variant.AKV, Region.R3), (Variant.FIRST, Region.R1)
    return [
        (akv_r3, {**table[akv_r3], 50: -1}, 50),
        (first_r1, {j: s for j, s in table[first_r1].items() if j != 6}, 6),
    ]


@contextmanager
def patched(table, key, value):
    """``table[key]`` set to ``value`` for the duration."""
    old = table[key]
    table[key] = value
    try:
        yield
    finally:
        table[key] = old


def certificate_results(seed, count):
    """(what, got, want) for the certificate against the sampled pair: at
    the grid and ``count`` random points near the diagonal, where both
    pass; under each numerator mutation and each late mutation at every
    grid point, where both raise alike; and under each sign-table mutation
    at the grid points of its region, where the certificate names its j
    (want is that j)."""
    rng = random.Random(seed)
    out = [("certificate", *certificate_compared(p)) for p in JP_VERIFICATION_GRID]
    out += [("certificate", *certificate_compared(_near_point(rng))) for _ in range(count)]
    for edits in [[mutation] for mutation in numerator_mutations()] + late_mutations():
        with ExitStack() as stack:
            for variant, r, row in edits:
                stack.enter_context(patched(families._JP_NUMERATORS[variant], r, row))
            out += [(f"mutation {edits}", *certificate_compared(p)) for p in JP_VERIFICATION_GRID]
    for key, row, j in sign_table_mutations():
        with patched(families._SIGN_EXCEPTIONS, key, row):
            out += [(f"sign table {key[0]} {key[1]}", _mismatched_j(p), j)
                    for p in JP_VERIFICATION_GRID if p.region is key[1]]
    return out


def _mismatched_j(p):
    """The j of the certificate's PredictionMismatch at p, or None if it
    passes."""
    try:
        families.jp_certificate(p)
    except PredictionMismatch as error:
        return error.j


#: The gammas ``oscillation_compared`` scans at.
SCAN_GAMMAS = (Fraction(0), Fraction(1, 2), Fraction(3), Fraction(-1, 2))


def oscillation_compared():
    """(what, got, want) for the oscillation verdict of T^[N], N = 0..7,
    at every (alpha, beta) of the grid at each gamma of SCAN_GAMMAS: got
    from ``families._jp_oscillatory``, want the Gantmacher-Krein verdict of
    the dense check on the truncation built by the Fraction closed forms."""
    bases = dict.fromkeys((p.alpha, p.beta) for p in JP_VERIFICATION_GRID)
    points = [JPParams(a, b, g) for g in SCAN_GAMMAS for a, b in bases]
    return [(f"oscillatory {p} N = {n}", families._jp_oscillatory(p, n),
             is_totally_nonnegative(jp_dense_truncation(p, n)).is_oscillatory_gk) for p in points for n in range(8)]


if __name__ == "__main__":
    import sys

    cases = [case for seed in (1, 2, 3) for case in comparison_cases(seed, 200)]
    results = [(what, got, want) for case in cases for what, got, want in compared(case)]
    differ = sorted({what for what, got, want in results if got != want})
    raised = sum(want is not None for what, _, want in results if what in CHECKS)
    print(f"Python {sys.version.split()[0]}: {len(cases)} cases, {len(results)} comparisons "
          f"({raised} checks raise), {sum(got != want for _, got, want in results)} differ"
          f"{': ' + ', '.join(differ) if differ else ''}")
    certified = certificate_results(1, 200)
    wrong = sorted({what for what, got, want in certified if got != want})
    # a mutated table both pass would not differ, so those are counted
    unrefused = sum(got is None for what, got, _ in certified if what.startswith("mutation"))
    print(f"certificate: {len(certified)} comparisons ({len(numerator_mutations())} numerator, "
          f"{len(late_mutations())} late and {len(sign_table_mutations())} sign-table mutations), "
          f"{len(wrong)} kinds differ, "
          f"{unrefused} mutated cases pass{': ' + ', '.join(wrong) if wrong else ''}")
    verdicts = oscillation_compared()
    disagree = [what for what, got, want in verdicts if got != want]
    print(f"oscillation: {len(verdicts)} verdicts at gamma in {{{', '.join(map(str, SCAN_GAMMAS))}}}, "
          f"{len(disagree)} differ from the dense check{': ' + ', '.join(disagree) if disagree else ''}")
    sys.exit(1 if differ or wrong or unrefused or disagree else 0)
