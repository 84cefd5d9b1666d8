"""Jacobi-Pineiro recurrence parameters: closed forms, regions, sign
predictions, and the cross-variant band consistency."""

from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle_jp
from oracle_jp import _moved, oracle_jp_alphas
from tetrahess import families
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
    jp_cross_consistency,
    jp_dense_truncation,
    jp_matrix,
    jp_region,
    jp_sign_report,
    lm_from_alphas,
)
from tetrahess.core import _banded, bands_from_alphas


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
    assert [band.values for band in bands_from_alphas(first)] == [band.values for band in bands_from_alphas(akv)]
    assert lm_from_alphas(first, 8) == lm_from_alphas(akv, 8)


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
        m, _ = lm_from_alphas(alphas, 2)
        assert m[0] == F(1, 6)
        assert m[1] == F(19, 70)


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
    """Rows 0..N read alpha_1 .. alpha_{3N+1}: exactly that many are built,
    one fewer cannot form the truncation, and the truncation is the one
    built from a longer prefix."""
    p = JPParams(F(3, 2), F(0), F(1, 2))
    counts = []

    def counting_jp_alphas(params, variant, count):
        counts.append(count)
        return jp_alphas(params, variant, count)

    monkeypatch.setattr(families, "jp_alphas", counting_jp_alphas)
    m = jp_dense_truncation(p, n)
    assert counts == [3 * n + 1]

    def one_short_jp_alphas(params, variant, count):
        return AlphaSequence(jp_alphas(params, variant, count).values[:-1])

    monkeypatch.setattr(families, "jp_alphas", one_short_jp_alphas)
    with pytest.raises(BandExhausted):
        jp_dense_truncation(p, n)
    c, b, a = bands_from_alphas(jp_alphas(p, Variant.FIRST, 3 * n + 10))
    assert m == _banded(n + 1, {0: c.get, 1: lambda i: F(1), -1: b.get, -2: a.get})


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
            if not what.startswith("jp_alphas"):
                outcomes.add(want if want is None else want[0])
    assert outcomes == {None, BandExhausted, ConsistencyViolation, PredictionMismatch}
