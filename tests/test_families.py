"""Jacobi-Pineiro recurrence parameters: closed forms, regions, sign
predictions, and the cross-variant band consistency."""

import copy
import pickle
import random
from fractions import Fraction as F
from itertools import product
from math import prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracle_jp
from oracle_bands import factor_triple
from oracle_jp import _moved, oracle_jp_alphas
from tetrahess import families, tncheck
from tetrahess import (
    AlphaSequence,
    BandExhausted,
    Classification,
    ConsistencyViolation,
    JPParams,
    JP_VERIFICATION_GRID,
    OutsideNaturalRegion,
    PredictionMismatch,
    Region,
    Variant,
    jp_alphas,
    jp_certificate,
    jp_cross_consistency,
    jp_dense_truncation,
    jp_matrix,
    jp_region,
    jp_sign_report,
)
from tetrahess.core import _banded, _split_alphas, bands_from_alphas
from tetrahess.factorization import _factor_sign_verdict
from tetrahess.scalars import format_scalar
from tetrahess.tncheck import is_totally_nonnegative


# Closed-form values for (alpha, beta, gamma) = (0, -1/2, 0), first set.
FIRST_HEAD = (F(1, 2), F(0), F(1, 6), F(2, 15), F(1, 5), F(1, 14))
# Same parameters, AKV set.
AKV_HEAD = (F(1, 2), F(-1, 6), F(1, 3))


def test_first_set_head_values():
    p = JPParams(F(0), F(-1, 2), F(0))
    alphas = jp_alphas(p, Variant.FIRST, 6)
    assert alphas.prefix(6) == FIRST_HEAD


def test_akv_set_head_values():
    p = JPParams(F(0), F(-1, 2), F(0))
    alphas = jp_alphas(p, Variant.AKV, 3)
    assert alphas.prefix(3) == AKV_HEAD


def same_as_oracle(p, count):
    """Both variants equal the Fraction closed forms, value and type."""
    for variant in Variant:
        values = jp_alphas(p, variant, count).prefix(count)
        assert values == oracle_jp_alphas(p, variant, count), (p, variant)
        assert all(type(v) is F for v in values)


def test_integer_kernel_matches_the_fraction_oracle_on_the_grid():
    for p in JP_VERIFICATION_GRID:
        same_as_oracle(p, 60)


# ints, Fractions with mixed denominators, and values in (-1, 0)
jp_parameters = st.one_of(
    st.integers(min_value=0, max_value=5),
    st.fractions(min_value=F(-1), max_value=F(6), max_denominator=40),
    st.fractions(min_value=F(-1), max_value=F(0), max_denominator=12),
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(jp_parameters, jp_parameters, jp_parameters, st.integers(min_value=1, max_value=60))
@example(F(1, 3), F(-2, 7), F(3, 5), 30)  # off the grid, at mixed denominators
def test_integer_kernel_matches_the_fraction_oracle(alpha, beta, gamma, count):
    try:
        p = JPParams(alpha, beta, gamma)
    except OutsideNaturalRegion:
        assume(False)
    same_as_oracle(p, count)


@pytest.mark.parametrize("params", [
    (0.5, 0, 0), (0, 0.5, 0), (F(1, 2), 0, 0.25), ("1/2", 0, 0), (F(1, 2), None, 0),
])
def test_params_refuse_inexact_values(params):
    with pytest.raises(TypeError, match="JPParams entries must be int or Fraction"):
        JPParams(*params)


def test_params_are_an_immutable_value():
    """JPParams is built positionally or by keyword; it is equal to and
    hashed as its three parameters (the common-denominator ints do not
    count), equal to no other type, immutable, copied and pickled as the
    same value, and printed as the frozen dataclass it once was."""
    p = JPParams(F(3, 2), 1, 0)
    q = JPParams(alpha=F(6, 4), beta=F(1), gamma=F(0))
    assert (p.alpha, p.beta, p.gamma) == (F(3, 2), 1, 0)
    assert p == q and hash(p) == hash(q) == hash((F(3, 2), 1, 0))
    assert p != JPParams(F(3, 2), 1, F(1, 2)) and p != (F(3, 2), 1, 0)
    assert repr(p) == "JPParams(alpha=Fraction(3, 2), beta=1, gamma=0)"
    assert repr(JPParams(alpha=0, beta=F(1, 2), gamma=F(-1, 3))) == (
        "JPParams(alpha=0, beta=Fraction(1, 2), gamma=Fraction(-1, 3))")
    for change in (lambda: setattr(p, "alpha", 0), lambda: setattr(p, "other", 0), lambda: delattr(p, "gamma")):
        with pytest.raises(AttributeError):
            change()
    assert p.gamma == 0
    for twin in (copy.copy(p), pickle.loads(pickle.dumps(p))):
        assert twin == p and twin.region is Region.R2 and twin._ints == p._ints


def test_region_classification():
    assert jp_region(F(3, 2), F(0)) is Region.R1
    assert jp_region(F(1, 2), F(0)) is Region.R2
    assert jp_region(F(0), F(1, 2)) is Region.R3
    assert jp_region(F(0), F(3, 2)) is Region.R4


def test_region_boundaries_are_outside():
    # integer difference, and the half-strip edges
    assert jp_region(F(1), F(0)) is Region.OUTSIDE
    assert jp_region(F(2), F(2)) is Region.OUTSIDE
    assert jp_region(F(-1), F(0)) is Region.OUTSIDE
    assert jp_region(F(0), F(-3, 2)) is Region.OUTSIDE


def test_params_reject_outside():
    with pytest.raises(OutsideNaturalRegion):
        JPParams(F(1), F(0), F(0))  # alpha - beta integer
    with pytest.raises(OutsideNaturalRegion):
        JPParams(F(-3, 2), F(0), F(0))  # alpha <= -1
    with pytest.raises(OutsideNaturalRegion):
        JPParams(F(0), F(-1, 2), F(-1))  # gamma = -1


def fraction_region(alpha, beta):
    """jp_region as Fraction comparisons, the int classification's oracle."""
    if not (alpha > -1 and beta > -1):
        return Region.OUTSIDE
    d = alpha - beta
    if d.denominator == 1:
        return Region.OUTSIDE
    return Region.R1 if d > 1 else Region.R2 if d > 0 else Region.R3 if d > -1 else Region.R4


def fraction_params_outcome(alpha, beta, gamma):
    """The region of JPParams(alpha, beta, gamma), or the message it raises,
    from the checks written as Fraction comparisons."""
    if not (alpha > -1 and beta > -1):
        reason = f"alpha = {format_scalar(alpha)}, beta = {format_scalar(beta)} must both exceed -1"
    elif not gamma > -1:
        reason = f"gamma = {format_scalar(gamma)} must exceed -1"
    elif (alpha - beta).denominator == 1:
        reason = f"alpha - beta = {format_scalar(alpha - beta)} is an integer"
    elif alpha + gamma == -1 or beta + gamma == -1:
        reason = "alpha + gamma = -1 or beta + gamma = -1 degenerates the closed forms"
    else:
        return fraction_region(alpha, beta)
    return str(OutsideNaturalRegion(reason))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(jp_parameters, jp_parameters, jp_parameters)
@example(F(-1, 2), F(1, 4), F(-1, 2))
@example(F(1, 4), F(-1, 2), F(-1, 2))
@example(F(7, 3), F(1, 3), 0)
@example(-1, F(1, 2), 0)
@example(F(1, 2), 0, -1)
@example(F(-1, 3), F(-2, 3), 4)
def test_int_checks_match_the_fraction_checks(alpha, beta, gamma):
    """JPParams decides on (alpha, beta, gamma) brought to ints over one
    denominator: the same region and the same message, byte for byte."""
    assert jp_region(alpha, beta) is fraction_region(alpha, beta)
    try:
        got = JPParams(alpha, beta, gamma).region
    except OutsideNaturalRegion as exc:
        got = str(exc)
    assert got == fraction_params_outcome(alpha, beta, gamma)


def test_params_reject_degenerate_gamma_sums():
    # alpha + gamma = -1 makes the 6n+1 denominator vanish at n = 0
    with pytest.raises(OutsideNaturalRegion):
        JPParams(F(-1, 2), F(1, 4), F(-1, 2))
    with pytest.raises(OutsideNaturalRegion):
        JPParams(F(1, 4), F(-1, 2), F(-1, 2))


def test_both_variants_induce_same_bands():
    p = JPParams(F(0), F(1, 2), F(0))
    assert jp_cross_consistency(p, 24) is None
    first, akv = (jp_alphas(p, v, 24) for v in (Variant.FIRST, Variant.AKV))
    assert bands_from_alphas(first) == bands_from_alphas(akv)
    # the subdiagonals m and l of L = L1 L2, from alpha_1 .. alpha_24
    lower = [factor_triple(*_split_alphas(v.prefix(24)))[1:] for v in (first, akv)]
    assert lower[0] == lower[1]


def test_prebuilt_variants_give_the_same_reports():
    """Prebuilt variants pass where building them passes, and they are what
    is checked: a pair with AKV's alpha_1 negated fails both checks."""
    for p in JP_VERIFICATION_GRID:
        variants = (jp_alphas(p, Variant.FIRST, 24), jp_alphas(p, Variant.AKV, 24))
        assert jp_cross_consistency(p, 24, variants) is jp_cross_consistency(p, 24) is None
        assert jp_sign_report(p, 24, variants) is jp_sign_report(p, 24) is None
        moved = (variants[0], _negated(variants[1], 1))
        with pytest.raises(ConsistencyViolation):
            jp_cross_consistency(p, 24, moved)
        with pytest.raises(PredictionMismatch):
            jp_sign_report(p, 24, moved)


def test_cross_consistency_m_values():
    """m_1 and m_2 agree between the two parameterizations."""
    p = JPParams(F(0), F(-1, 2), F(0))
    for variant in (Variant.FIRST, Variant.AKV):
        alphas = jp_alphas(p, variant, 9)
        _, m, _ = factor_triple(*_split_alphas(alphas.prefix(7)))
        assert m[1] == F(1, 6)
        assert m[2] == F(19, 70)


R3_POINT = JPParams(F(0), F(1, 2), F(0))


@pytest.mark.parametrize("j", [j for j in range(1, 25) if j % 6 not in (1, 4)])
def test_cross_consistency_catches_a_moved_akv_alpha(j):
    first, akv = (jp_alphas(R3_POINT, v, 24) for v in (Variant.FIRST, Variant.AKV))
    # alpha_j enters m_k, k = ceil(j / 3), the first quantity compared
    with pytest.raises(ConsistencyViolation) as info:
        jp_cross_consistency(R3_POINT, 24, (first, _moved(akv, (j, 1))))
    assert (info.value.band, info.value.n) == ("m", (j + 2) // 3)
    if j % 3 == 2 and j > 2:
        # moving alpha_j against alpha_{j+1} keeps m_k and changes l_k
        with pytest.raises(ConsistencyViolation) as info:
            jp_cross_consistency(R3_POINT, 24, (first, _moved(akv, (j, 1), (j + 1, -1))))
        assert (info.value.band, info.value.n) == ("l", (j + 1) // 3)


@pytest.mark.parametrize("j", [j for j in range(1, 25) if j % 6 in (1, 4)])
def test_cross_consistency_catches_a_moved_shared_alpha_on_c(j):
    # alpha_{3n+1} is u_n: m and l agree, c_n = u_n + m_n does not
    first, akv = (jp_alphas(R3_POINT, v, 24) for v in (Variant.FIRST, Variant.AKV))
    with pytest.raises(ConsistencyViolation) as info:
        jp_cross_consistency(R3_POINT, 24, (first, _moved(akv, (j, 1))))
    assert (info.value.band, info.value.n) == ("c", (j - 1) // 3)


@pytest.mark.parametrize("moves, message", [
    # alpha_5 enters m_2 only
    (((5, 1),), "band m_2 differs between parameter families: 3/14 vs 17/14"),
    (((6, F(2, 7)),), "band m_2 differs between parameter families: 3/14 vs 1/2"),
    # alpha_8 moved against alpha_9 keeps m_3 and changes l_3
    (((8, 1), (9, -1)), "band l_3 differs between parameter families: 2/165 vs 124/1155"),
    (((11, F(1, 5)), (12, F(-1, 5))), "band l_4 differs between parameter families: 72/5005 vs 906/25025"),
    # alpha_7 = u_2 enters c_2 only
    (((7, F(1, 3)),), "band c_2 differs between parameter families: 47/105 vs 82/105"),
])
def test_consistency_violation_prints_the_true_values(moves, message):
    """The comparison runs on the alphas scaled by K; the message carries
    the entries divided back by K^deg, as the Fraction oracle prints them."""
    first, akv = (jp_alphas(R3_POINT, v, 24) for v in (Variant.FIRST, Variant.AKV))
    with pytest.raises(ConsistencyViolation) as info:
        jp_cross_consistency(R3_POINT, 24, (first, _moved(akv, *moves)))
    assert str(info.value) == message


def test_consistency_violation_on_b_prints_the_true_values():
    """Bands run past the count // 3 rows of m and l: with c_7 kept, a moved
    m_7 is caught on b_7, whose entries are divided by K^2."""
    first, akv = (jp_alphas(R3_POINT, v, 24) for v in (Variant.FIRST, Variant.AKV))
    with pytest.raises(ConsistencyViolation) as info:
        jp_cross_consistency(R3_POINT, 6, (first, _moved(akv, (20, 1), (22, -1))))
    assert str(info.value) == "band b_7 differs between parameter families: 10486/158631 vs 296828/793155"


def _negated(alphas, j):
    return AlphaSequence(values=tuple(-v if i == j else v for i, v in enumerate(alphas.values, 1)))


@pytest.mark.parametrize("variant, j, message", [
    (Variant.AKV, 3, "akv alpha_3 = -1/15 does not match predicted sign 1"),
    (Variant.FIRST, 5, "first alpha_5 = -1/21 does not match predicted sign 1"),
])
def test_prediction_mismatch_message_for_a_flipped_sign(variant, j, message):
    variants = [jp_alphas(R3_POINT, v, 24) for v in (Variant.FIRST, Variant.AKV)]
    i = 0 if variant is Variant.FIRST else 1
    variants[i] = _negated(variants[i], j)
    with pytest.raises(PredictionMismatch) as info:
        jp_sign_report(R3_POINT, 24, tuple(variants))
    assert str(info.value) == message
    assert type(info.value.value) is F


@pytest.mark.parametrize("region", [Region.R1, Region.R2, Region.R3, Region.R4])
@pytest.mark.parametrize("variant", [Variant.FIRST, Variant.AKV])
def test_sign_table_is_the_oracle_branch_chain(variant, region):
    row = families._SIGN_EXCEPTIONS[(variant, region)]
    assert [row.get(j, 1) for j in range(1, 25)] == [
        oracle_jp._predicted_sign(j, variant, region) for j in range(1, 25)
    ]


def _sign_outcome(check, p, variants):
    """None for a pass, or the PredictionMismatch's args, message and
    fields."""
    try:
        return check(p, 24, variants)
    except PredictionMismatch as exc:
        return exc.args, str(exc), exc.j, exc.variant, exc.predicted, exc.value


@pytest.mark.parametrize("p", JP_VERIFICATION_GRID, ids=lambda p: f"{p.alpha}_{p.beta}_{p.gamma}")
def test_one_negated_alpha_is_reported_as_the_oracle_reports_it(p):
    """Each alpha_j, j <= 24, of either variant negated in turn (the table's
    entries among them, in every region): the same pass or
    PredictionMismatch as the Fraction oracle, and a nonzero entry's flipped
    sign is caught at that entry."""
    base = [jp_alphas(p, v, 24) for v in (Variant.FIRST, Variant.AKV)]
    for i, variant in enumerate((Variant.FIRST, Variant.AKV)):
        for j in range(1, 25):
            variants = list(base)
            variants[i] = _negated(base[i], j)
            got = _sign_outcome(jp_sign_report, p, tuple(variants))
            assert got == _sign_outcome(oracle_jp.jp_sign_report, p, tuple(variants)), (variant, j)
            if base[i].at(j) != 0:
                assert isinstance(got, tuple) and got[2:4] == (j, str(variant))


@pytest.mark.parametrize("p", JP_VERIFICATION_GRID[::3], ids=lambda p: f"{p.alpha}_{p.beta}_{p.gamma}")
def test_a_short_variant_is_read_to_its_end_as_the_oracle_reads_it(p):
    """Either variant cut short of count = 24, with or without one negated
    alpha before the cut, and the other variant whole or with alpha_4
    negated: a mismatch at an earlier j is raised first, FIRST is checked
    to its end before AKV, and otherwise the first missing entry raises the
    same BandExhausted as the oracle's entry-by-entry reads."""
    base = [jp_alphas(p, v, 24) for v in (Variant.FIRST, Variant.AKV)]
    kinds = set()
    for i, length, j, other in product((0, 1), (0, 1, 5, 12, 23), (None, 1, 3, 23), (False, True)):
        variants = list(base)
        cut = AlphaSequence(values=base[i].values[:length])
        variants[i] = cut if j is None or j > length else _negated(cut, j)
        if other:
            variants[1 - i] = _negated(base[1 - i], 4)
        outcomes = []
        for check in (jp_sign_report, oracle_jp.jp_sign_report):
            try:
                outcomes.append(check(p, 24, tuple(variants)))
            except (BandExhausted, PredictionMismatch) as exc:
                outcomes.append((type(exc), exc.args, str(exc)))
        assert outcomes[0] == outcomes[1], (i, length, j, other)
        kinds.add(outcomes[0][0])
    assert kinds == {BandExhausted, PredictionMismatch}


def _outcome(check, *args):
    """None for a pass, or the violation's type and message."""
    try:
        return check(*args)
    except (ConsistencyViolation, PredictionMismatch) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "band", None), getattr(exc, "n", None)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(jp_parameters, jp_parameters, jp_parameters, st.integers(min_value=1, max_value=30),
       st.lists(st.tuples(st.integers(1, 28), st.integers(0, 1), jp_parameters, st.integers(0, 2)),
                max_size=3))
def test_integer_consistency_and_signs_match_the_fraction_oracle(alpha, beta, gamma, count, moves):
    """A pass, or the first violation with its message, against the
    Fraction checks: variants of 30 alphas checked at every count up to 30,
    with up to three alphas of either variant moved by a rational d, each
    alone or against alpha_{j+1} or alpha_{j+2} moved by -d (which keeps
    m_k or c_k and so reaches l and b)."""
    try:
        p = JPParams(alpha, beta, gamma)
    except OutsideNaturalRegion:
        assume(False)
    variants = [jp_alphas(p, v, 30) for v in (Variant.FIRST, Variant.AKV)]
    for j, which, d, partner in moves:
        pair = ((j, d), (j + partner, -d)) if partner else ((j, d),)
        variants[which] = _moved(variants[which], *pair)
    variants = tuple(variants)
    for check in ("jp_cross_consistency", "jp_sign_report"):
        got = _outcome(getattr(families, check), p, count, variants)
        assert got == _outcome(getattr(oracle_jp, check), p, count, variants), check


@pytest.mark.parametrize("cut", [(24, 4), (1, 1)])
def test_cross_consistency_refuses_a_short_variant(cut):
    """A variant cut short of count raises BandExhausted at its first
    missing entry, FIRST before AKV, as the Fraction oracle does: the
    compared prefix of a short pair agrees, so a zip would pass it."""
    variants = tuple(AlphaSequence(jp_alphas(R3_POINT, v, 24).values[:n]) for v, n in zip(Variant, cut))
    for check in (jp_cross_consistency, oracle_jp.jp_cross_consistency):
        with pytest.raises(BandExhausted) as info:
            check(R3_POINT, 24, variants)
        assert (info.value.band, info.value.index, info.value.length) == ("alpha", min(cut) + 1, min(cut))


def test_every_closed_form_factor_grows_with_n():
    """The certificate reads each factor k n + t + s as positive from
    n = -v // u + 1 on, which needs u = k D > 0."""
    rows = [families._JP_DENOMINATORS] + list(families._JP_NUMERATORS.values())
    assert all(k >= 1 for table in rows for row in table.values() for k, _, _ in row)


def test_certificate_and_sampled_pair_pass_on_the_grid():
    for p in JP_VERIFICATION_GRID:
        assert oracle_jp.certificate_compared(p) == (None, None)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(jp_parameters, jp_parameters,
       st.fractions(min_value=F(-2), max_value=F(2), max_denominator=40).filter(lambda d: d.denominator > 1))
@example(F(1, 3), F(3, 5), F(13, 21))  # (1/3, -2/7, 3/5)
def test_certificate_and_sampled_pair_pass_near_the_diagonal(alpha, gamma, difference):
    """Every valid point with |alpha - beta| < 2, where the sign table is
    pinned, passes both."""
    try:
        p = JPParams(alpha, alpha - difference, gamma)
    except OutsideNaturalRegion:
        assume(False)
    assert oracle_jp.certificate_compared(p) == (None, None)


@pytest.mark.parametrize("variant, r, row", oracle_jp.numerator_mutations(),
                         ids=[f"{v}-r{r}-factor{i // 2 % 3}-{'kt'[i % 2]}"
                              for i, (v, r, _) in enumerate(oracle_jp.numerator_mutations())])
def test_a_numerator_mutation_fails_as_the_sampled_pair_fails(monkeypatch, variant, r, row):
    """One numerator factor of one variant one step wrong: the certificate
    raises at every grid point, and what the sampled pair raises, fields
    and message alike (each first failure lies at j <= 24)."""
    monkeypatch.setitem(families._JP_NUMERATORS[variant], r, row)
    for p in JP_VERIFICATION_GRID:
        got, want = oracle_jp.certificate_compared(p)
        assert got is not None and got[0] in (ConsistencyViolation, PredictionMismatch), p
        assert got == want, p


@pytest.mark.parametrize("edits, band", zip(oracle_jp.late_mutations(), "lc"), ids=["l", "c"])
def test_a_failure_past_m_is_found_as_the_sampled_pair_finds_it(monkeypatch, edits, band):
    """A wrong table that keeps every m_k fails on l or c, at every grid
    point, as the sampled pair fails."""
    for variant, r, row in edits:
        monkeypatch.setitem(families._JP_NUMERATORS[variant], r, row)
    for p in JP_VERIFICATION_GRID:
        got, want = oracle_jp.certificate_compared(p)
        assert got == want and got[0] is ConsistencyViolation, p
        assert dict((key, v) for key, v, _ in got[2])["band"] == band


def test_the_witness_count_reaches_row_6_of_every_identity():
    """A failed identity of the certificate shows at some n <= 6.  The
    latest entry that can take is l_15 = alpha_44 alpha_42 (l_{2n+3} at
    n = 6), and jp_cross_consistency compares it at the witness count."""
    count = families._WITNESS_COUNT
    first, akv = (jp_alphas(R3_POINT, v, count) for v in Variant)
    with pytest.raises(ConsistencyViolation) as info:
        jp_cross_consistency(R3_POINT, count, (first, _moved(akv, (44, 1), (45, -1))))
    assert (info.value.band, info.value.n) == ("l", 15)


def _sympy_induced(rows):
    """The six numerators of families._induced as sympy polynomials in n,
    expanded from the factors u n + v of ``rows``."""
    sympy = pytest.importorskip("sympy")
    n = sympy.Symbol("n")
    num = [sympy.Mul(*(u * n + v for u, v in row[:3])) for row in rows]
    den = [sympy.Mul(*(u * n + v for u, v in row[3:])) for row in rows]
    quantities = (num[0], num[3], num[1] * den[2] + num[2] * den[1], num[4] * den[5] + num[5] * den[4],
                  num[4] * num[2], num[1].subs(n, n + 1) * num[5])
    return [sympy.Poly(sympy.expand(q), n) for q in quantities]


def _edited(rows, edit, rng):
    """``rows`` with one edit: none; the numerators and the denominators of
    one row each in another order; a numerator and a denominator factor
    traded; or one factor u n + v shifted by one, to u (n + 1) + v or to
    u n + v + 1."""
    rows = [list(row) for row in rows]
    row = rows[rng.randrange(6)]
    i, j = rng.randrange(3), rng.randrange(3, 6)
    u, v = row[i]
    if edit == "permuted":
        row[:3], row[3:] = rng.sample(row[:3], 3), rng.sample(row[3:], 3)
    elif edit == "traded":
        row[i], row[j] = row[j], row[i]
    elif edit == "n+1":
        row[i] = (u, u + v)
    elif edit == "t+1":
        row[i] = (u, v + 1)
    return [tuple(row) for row in rows]


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["none", "permuted", "traded", "n+1", "t+1"]))
def test_one_evaluation_past_the_root_bound_decides_agreement(seed, edit):
    """For random rows and the rows one edit away, the one evaluation of
    _induce_alike finds a difference exactly when the expanded numerator
    polynomials differ, and _induced is those polynomials at every row
    it is read at."""
    rng = random.Random(seed)
    first = [tuple((rng.randint(1, 4), rng.randint(-6, 6)) for _ in range(6)) for _ in range(6)]
    akv = _edited(first, edit, rng)
    expanded = [(rows, _sympy_induced(rows)) for rows in (first, akv)]
    alike = expanded[0][1] == expanded[1][1]
    assert families._induce_alike(first, akv) is alike
    assert alike or edit not in ("none", "permuted")
    bound = 16 * max(abs(u) + abs(v) for row in first + akv for u, v in row) ** 6 + 1
    for rows, polys in expanded:
        for n in (0, 1, 2, 6, bound):
            assert families._induced(rows, n) == tuple(int(p.eval(n)) for p in polys), n


def test_a_difference_that_vanishes_at_rows_0_to_5_is_found():
    """AKV doubles FIRST's N_3 = n (n - 1) (n - 2), and N_5 = D_2 =
    (n - 3) (n - 4) (n - 5), so m_{2n+1} and l_{2n+2} differ by
    -n (n - 1) ... (n - 5): zero at rows 0..5, not zero at any other."""
    rest = ((1, 1),) * 3
    first = [rest + rest] * 6
    first[1] = rest + ((1, -3), (1, -4), (1, -5))
    first[2] = ((1, 0), (1, -1), (1, -2)) + rest
    first[4] = ((1, -3), (1, -4), (1, -5)) + rest
    akv = list(first)
    akv[2] = ((2, 0),) + first[2][1:]
    for n in range(12):
        vanishing = -prod(n - k for k in range(6))
        want = (0, 0, vanishing, 0, vanishing, 0)
        assert tuple(f - a for f, a in zip(families._induced(first, n), families._induced(akv, n))) == want
    assert not families._induce_alike(first, akv)


@pytest.mark.parametrize("key, row, j", oracle_jp.sign_table_mutations(), ids=["added-akv-r3-50", "dropped-first-r1-6"])
def test_a_sign_table_mutation_names_its_j(monkeypatch, key, row, j):
    """A wrong row of the sign table fails at every grid point of its
    region with a PredictionMismatch at that j, far beyond the sampled
    j <= 24 or not; within it, as the sampled pair fails."""
    monkeypatch.setitem(families._SIGN_EXCEPTIONS, key, row)
    points = [p for p in JP_VERIFICATION_GRID if p.region is key[1]]
    assert len(points) == 4
    for p in points:
        with pytest.raises(PredictionMismatch) as info:
            jp_certificate(p)
        assert (info.value.j, info.value.variant) == (j, str(key[0]))
        got, want = oracle_jp.certificate_compared(p)
        assert want == (None if j > 24 else got)


def test_the_oracle_script_certificate_results_match():
    """The certificate part of ``tests/oracle_jp.py`` as a script runs it,
    with fewer random points."""
    results = oracle_jp.certificate_results(1, 20)
    assert [(what, got) for what, got, want in results if got != want] == []
    assert not any(got is None for what, got, _ in results if what.startswith("mutation"))


def _signs(p, variant):
    """The sign of each alpha_j, j <= 24, read off its numerator."""
    return tuple((v.numerator > 0) - (v.numerator < 0) for v in jp_alphas(p, variant, 24).values)


def test_sign_report_strip_point():
    p = JPParams(F(0), F(1, 2), F(0))  # R3
    assert p.region is Region.R3
    assert jp_sign_report(p, 24) is None
    first, akv = _signs(p, Variant.FIRST), _signs(p, Variant.AKV)
    # first set: TN with the single zero at alpha_2
    assert all(s >= 0 for s in first)
    assert first[1] == 0
    # AKV set: strictly positive in R3
    assert all(s > 0 for s in akv)


def test_sign_report_r1_negatives():
    p = JPParams(F(3, 2), F(0), F(0))
    assert jp_sign_report(p, 24) is None
    # alpha_6 strand negative in R1 for the first set, alpha_2 strand for AKV
    assert _signs(p, Variant.FIRST)[5] < 0
    assert _signs(p, Variant.AKV)[1] < 0


def test_sign_report_r4_negatives():
    p = JPParams(F(0), F(3, 2), F(0))
    assert jp_sign_report(p, 24) is None
    assert _signs(p, Variant.FIRST)[4] < 0  # alpha_5 strand
    assert _signs(p, Variant.AKV)[2] < 0  # alpha_3 strand


def test_classification_by_region():
    strip_first = jp_alphas(JPParams(F(1, 2), F(0), F(0)), Variant.FIRST, 24)
    assert strip_first.classify(24) is Classification.TN
    r3_akv = jp_alphas(JPParams(F(0), F(1, 2), F(0)), Variant.AKV, 24)
    assert r3_akv.classify(24) is Classification.PBF
    r1_first = jp_alphas(JPParams(F(3, 2), F(0), F(0)), Variant.FIRST, 24)
    assert r1_first.classify(24) is Classification.INDEFINITE


def test_grid_covers_all_regions_twice():
    regions = [p.region for p in JP_VERIFICATION_GRID]
    for r in (Region.R1, Region.R2, Region.R3, Region.R4):
        assert regions.count(r) == 4
    assert len(JP_VERIFICATION_GRID) == 16


def test_dense_truncation_allows_negative_bands():
    """In R1 the first-set a-band goes negative; the dense builder must not
    reject it (the lattice-path TN test needs the raw matrix)."""
    p = JPParams(F(3, 2), F(0), F(0))
    m = jp_dense_truncation(p, 4)
    assert m.n == 5
    entries = [m.entry(i, j) for i in range(5) for j in range(5)]
    assert any(v < 0 for v in entries)


@pytest.mark.parametrize("n", [0, 1, 4, 7])
def test_dense_truncation_builds_only_the_alphas_it_reads(monkeypatch, n):
    """Rows 0..N read alpha_1 .. alpha_{3N+1}: exactly that many int pairs
    are asked of and read off _jp_ratios, and the truncation is the one
    built from a longer prefix."""
    p = JPParams(F(3, 2), F(0), F(1, 2))
    original = families._jp_ratios
    counts, read = [], []

    def counting_jp_ratios(rows, count):
        counts.append(count)
        for pair in original(rows, count):
            read.append(pair)
            yield pair

    monkeypatch.setattr(families, "_jp_ratios", counting_jp_ratios)
    m = jp_dense_truncation(p, n)
    assert counts == [3 * n + 1]
    assert len(read) == 3 * n + 1
    c, b, a = bands_from_alphas(jp_alphas(p, Variant.FIRST, 3 * n + 10))
    assert m == _banded(n + 1, {0: lambda i: c[i], 1: lambda i: F(1), -1: lambda i: b[i - 1], -2: lambda i: a[i - 2]})


def same_truncation_as_oracle(p, n):
    """The integer-band truncation equals the Fraction-band one, entry by
    entry, value and type."""
    m = jp_dense_truncation(p, n)
    assert m == oracle_jp.jp_dense_truncation(p, n), (p, n)
    assert all(type(v) is F for row in m.rows for v in row)


def test_dense_truncation_matches_the_fraction_oracle_on_the_grid():
    for p in JP_VERIFICATION_GRID:
        for n in range(8):
            same_truncation_as_oracle(p, n)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(jp_parameters, jp_parameters, jp_parameters, st.integers(min_value=0, max_value=9))
def test_dense_truncation_matches_the_fraction_oracle(alpha, beta, gamma, n):
    try:
        p = JPParams(alpha, beta, gamma)
    except OutsideNaturalRegion:
        assume(False)
    same_truncation_as_oracle(p, n)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(jp_parameters, jp_parameters, jp_parameters, st.integers(min_value=0, max_value=7))
@example(F(3, 2), F(0), F(0), 2)  # R1 at N = 2: the signs cannot tell
@example(F(11, 2), F(1, 3), F(1, 2), 7)  # alpha - beta > 2
@example(F(0), F(9, 2), F(-1, 2), 7)  # alpha - beta < -2
def test_sign_verdict_is_the_dense_verdict(alpha, beta, gamma, n):
    """The oscillation flag jp-scan prints, read off the signs of the
    factors where they decide it, is the dense check's verdict on T^[N],
    far from the diagonal too."""
    try:
        p = JPParams(alpha, beta, gamma)
    except OutsideNaturalRegion:
        assume(False)
    assert families._jp_oscillatory(p, n) == is_totally_nonnegative(jp_dense_truncation(p, n)).is_oscillatory_gk


@pytest.mark.parametrize("signs, n, verdict", [
    ((1,), 0, True),
    ((0,), 0, None),  # u_0 = 0: singular
    ((-1,), 0, None),
    ((1, 0, 1, 1), 1, True),  # p_1 = 0, as in FIRST
    ((1, 1, 1, 0), 1, None),  # u_1 = 0: singular
    ((1, 0, 0, 1), 1, None),  # p_1 = q_1 = 0: b_1 = 0
    ((1, 0, 1, 1, 1, -1, 1), 2, None),  # q_2 < 0 but a_2 > 0, as FIRST in R1
    ((1, 0, 1, 1, 1, -1, 1, 1, 1, 1), 3, False),  # a_3 = p_3 q_2 u_1 < 0
    ((1, 0, 1, 1, -1, 1, 1), 2, False),  # a_2 = p_2 q_1 u_0 < 0, as FIRST in R4
    ((1, 1, -1, -1, 1, 1, 1), 2, False),  # a_2 < 0 with u_1 < 0
    ((-1, 1, -1, 1, 1, 1, 1), 2, None),  # a_2 > 0 with u_0 < 0
])
def test_sign_verdict_branches(signs, n, verdict):
    """Each answer of the sign verdict on hand-written signs, and where it
    answers, the dense check's verdict on T^[N] of alphas with those
    signs."""
    assert _factor_sign_verdict(signs, n) is verdict
    if verdict is not None:
        c, b, a = bands_from_alphas(AlphaSequence(signs))
        m = _banded(n + 1, {0: lambda i: c[i], 1: lambda i: F(1), -1: lambda i: b[i - 1], -2: lambda i: a[i - 2]})
        assert is_totally_nonnegative(m).is_oscillatory_gk is verdict


@pytest.mark.parametrize("gamma", [F(0), F(1, 2), F(3), F(-1, 2), F(-999, 1000), F(10**5)])
def test_jp_scan_points_need_no_dense_check(monkeypatch, gamma):
    """At every point jp-scan prints, the signs decide T^[4]: oscillatory
    in R2 and R3, refuted by a negative a_k in R1 and R4.  The grid's alpha
    and beta are >= 0, so no sign depends on gamma."""
    def untouchable(m):
        raise AssertionError("a jp-scan grid point reached the dense check")

    monkeypatch.setattr(tncheck, "is_totally_nonnegative", untouchable)
    for p in JP_VERIFICATION_GRID[::2]:
        p = JPParams(p.alpha, p.beta, gamma)
        assert families._jp_oscillatory(p, 4) is (p.region in (Region.R2, Region.R3))


def int_classification(pairs):
    """The sign classification of alphas given as int pairs (num, den),
    read off the signs of num * den alone."""
    signs = [(num * den > 0) - (num * den < 0) for num, den in pairs]
    if -1 in signs:
        return Classification.INDEFINITE
    return Classification.TN if 0 in signs else Classification.PBF


def same_signs_as_fractions(p, count):
    """For both variants, the sign of each num * den of _jp_ratios is that
    of the Fraction alpha_j, the classification read off those signs is
    classify(count) of jp_alphas, and _jp_is_pbf, the jp-scan PBF flag, is
    classify(count) is PBF."""
    for variant in Variant:
        pairs = list(families._jp_ratios(families._jp_rows(p, variant), count))
        alphas = jp_alphas(p, variant, count)
        assert len(pairs) == count
        for j, ((num, den), v) in enumerate(zip(pairs, alphas.values), start=1):
            assert (num * den > 0) - (num * den < 0) == (v > 0) - (v < 0), (p, variant, j)
        assert int_classification(pairs) is alphas.classify(count), (p, variant)
        pbf = families._jp_is_pbf(p, variant, count)
        assert pbf == (alphas.classify(count) is Classification.PBF), (p, variant)


def test_int_signs_match_the_fraction_signs_on_the_grid():
    """On the grid, FIRST's alpha_2 = 0 makes it TN, never PBF, in every
    region where no alpha is negative; AKV is PBF exactly in R3."""
    for p in JP_VERIFICATION_GRID:
        same_signs_as_fractions(p, 24)
        first = list(families._jp_ratios(families._jp_rows(p, Variant.FIRST), 24))
        assert first[1][0] == 0
        assert int_classification(first) is (
            Classification.TN if p.region in (Region.R2, Region.R3) else Classification.INDEFINITE)
        assert families._jp_is_pbf(p, Variant.AKV, 24) == (p.region is Region.R3)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(jp_parameters, jp_parameters, jp_parameters, st.integers(min_value=1, max_value=60))
def test_int_signs_match_the_fraction_signs(alpha, beta, gamma, count):
    try:
        p = JPParams(alpha, beta, gamma)
    except OutsideNaturalRegion:
        assume(False)
    same_signs_as_fractions(p, count)
    if count >= 2:
        first = list(families._jp_ratios(families._jp_rows(p, Variant.FIRST), count))
        assert int_classification(first) is not Classification.PBF


def test_jp_matrix_is_positive_in_strip():
    t = jp_matrix(JPParams(F(0), F(1, 2), F(0)), count=24)
    assert t.a(2) > 0 and t.b(1) > 0 and t.c(0) > 0


def test_jp_matrix_variant_bands_agree():
    p = JPParams(F(1, 2), F(1, 4), F(1, 2))
    t_first = jp_matrix(p, Variant.FIRST, count=24)
    t_akv = jp_matrix(p, Variant.AKV, count=24)
    for n in range(5):
        assert t_first.c(n) == t_akv.c(n)
    for n in range(1, 5):
        assert t_first.b(n) == t_akv.b(n)
    for n in range(2, 5):
        assert t_first.a(n) == t_akv.a(n)


def test_the_oracle_script_cases_match():
    """One seed of the set ``tests/oracle_jp.py`` runs as a script: whole,
    moved, negated and cut-short variants at grid and random points, each
    check passing or raising as its Fraction form does; every outcome
    occurs."""
    outcomes = set()
    for case in oracle_jp.comparison_cases(1, 200):
        for what, got, want in oracle_jp.compared(case):
            assert got == want, (what, case[:2])
            if what in oracle_jp.CHECKS:
                outcomes.add(want if want is None else want[0])
    assert outcomes == {None, BandExhausted, ConsistencyViolation, PredictionMismatch}


def test_the_oracle_script_oscillation_verdicts_match():
    """The oscillation flag against the dense check at every scanned point
    at four gammas, as ``tests/oracle_jp.py`` runs it."""
    for what, got, want in oracle_jp.oscillation_compared():
        assert got == want, what
