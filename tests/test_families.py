"""Jacobi-Pineiro recurrence parameters: closed forms, regions, sign
predictions, and the cross-variant band consistency."""

from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracle_jp import oracle_jp_alphas
from tetrahess import families
from tetrahess import (
    AlphaSequence,
    BandExhausted,
    Classification,
    ConsistencyViolation,
    JPParams,
    JP_VERIFICATION_GRID,
    OutsideNaturalRegion,
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
    report = jp_cross_consistency(p, 24)
    assert report.bands_compared > 0
    assert report.subdiagonals_compared > 0


def test_prebuilt_variants_give_the_same_reports():
    for p in JP_VERIFICATION_GRID:
        variants = (jp_alphas(p, Variant.FIRST, 24), jp_alphas(p, Variant.AKV, 24))
        assert jp_cross_consistency(p, 24, variants) == jp_cross_consistency(p, 24)
        assert jp_sign_report(p, 24, variants) == jp_sign_report(p, 24)


def test_cross_consistency_m_values():
    """m_1 and m_2 agree between the two parameterizations."""
    p = JPParams(F(0), F(-1, 2), F(0))
    for variant in (Variant.FIRST, Variant.AKV):
        alphas = jp_alphas(p, variant, 9)
        m, _ = lm_from_alphas(alphas, 2)
        assert m[0] == F(1, 6)
        assert m[1] == F(19, 70)


def _moved(alphas, *moves):
    """alphas with alpha_j increased by d for each (j, d) in moves."""
    values = list(alphas.values)
    for j, d in moves:
        values[j - 1] += d
    return AlphaSequence(values=values)


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


def test_sign_report_strip_point():
    p = JPParams(F(0), F(1, 2), F(0))  # R3
    report = jp_sign_report(p, 24)
    assert report.region is Region.R3
    # first set: TN with the single zero at alpha_2
    assert all(s >= 0 for s in report.first_signs)
    assert report.first_signs[1] == 0
    # AKV set: strictly positive in R3
    assert all(s > 0 for s in report.akv_signs)


def test_sign_report_r1_negatives():
    p = JPParams(F(3, 2), F(0), F(0))
    report = jp_sign_report(p, 24)
    # alpha_6 strand negative in R1 for the first set, alpha_2 strand for AKV
    assert report.first_signs[5] < 0
    assert report.akv_signs[1] < 0


def test_sign_report_r4_negatives():
    p = JPParams(F(0), F(3, 2), F(0))
    report = jp_sign_report(p, 24)
    assert report.first_signs[4] < 0  # alpha_5 strand
    assert report.akv_signs[2] < 0  # alpha_3 strand


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
