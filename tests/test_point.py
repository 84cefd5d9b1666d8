"""Values at a point over the integers against the Fraction forms they
replaced (oracle_point.py): the sampled recurrence behind sequence_values
and the AKV determinants of akv_sign_checks.  The same recurrence without a
point (x = None) builds the polynomials, checked against the Poly-op
recurrence of the oracle."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle_point import akv_sign_checks as oracle_akv_sign_checks
from oracle_point import sequence_values as oracle_sequence_values
from tetrahess import AlphaSequence, BandExhausted, SignViolation, tetra_from_alphas, tetra_from_bands
from tetrahess.cli import AKV_XS
from tetrahess.darboux import akv_sign_checks
from tetrahess.poly import Poly
from tetrahess.polynomials import sequence_values
from tetrahess.serialize import load_alphas

#: Negative, zero, dyadic and non-dyadic points.
POINT = st.builds(F, st.integers(-40, 40), st.integers(1, 27))
#: A point, or None for the polynomials themselves.
POINT_OR_NONE = st.none() | POINT
NONNEGATIVE_POINT = st.builds(F, st.integers(0, 40), st.integers(1, 27))
NU = st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 11))
PBF_FRACTION = st.builds(F, st.integers(1, 12), st.integers(1, 12))


def _pbf_alphas(draw, count):
    """A PBF alpha sequence of ``count`` entries: Fractions, small ints (so
    that the bands hold ints), or the ones generator's."""
    kind = draw(st.sampled_from(["fractions", "ints", "ones"]))
    if kind == "ones":
        return load_alphas({"generator": {"name": "ones", "count": count}})
    entry = PBF_FRACTION if kind == "fractions" else st.integers(1, 5)
    return AlphaSequence(values=tuple(draw(st.lists(entry, min_size=count, max_size=count))))


@st.composite
def pbf_input(draw, max_n):
    n = draw(st.integers(0, max_n))
    alphas = _pbf_alphas(draw, 3 * n + 10)
    return tetra_from_alphas(alphas), alphas, n


@st.composite
def signed_bands(draw):
    """A matrix from signed bands with a_n > 0, not from any alphas."""
    n = draw(st.integers(0, 14))
    entry = st.builds(F, st.integers(-9, 9), st.integers(1, 7))
    c = draw(st.lists(entry, min_size=n + 3, max_size=n + 3))
    b = draw(st.lists(entry, min_size=n + 2, max_size=n + 2))
    a = draw(st.lists(st.builds(F, st.integers(1, 9), st.integers(1, 7)), min_size=n + 1, max_size=n + 1))
    return tetra_from_bands(a=a, b=b, c=c), n


def _same_values(t, n, x, nu):
    for kind in ("type2", "type1", "second"):
        got = sequence_values(t, kind, n, x, nu)
        assert got == oracle_sequence_values(t, kind, n, x, nu), (kind, n, x, nu)
        assert all(type(v) is (Poly if x is None else F) for vals in got.values() for v in vals)


@settings(max_examples=60, derandomize=True)
@given(pbf_input(24), POINT_OR_NONE, NU)
def test_point_recurrence_matches_the_fraction_oracle(case, x, nu):
    t, _, n = case
    _same_values(t, n, x, nu)


@settings(max_examples=40, derandomize=True)
@given(signed_bands(), POINT_OR_NONE, NU)
def test_point_recurrence_on_signed_bands_matches_the_oracle(case, x, nu):
    t, n = case
    _same_values(t, n, x, nu)


def _height_12_input(n):
    """Random height-12 PBF alphas for rows 0..N, seeded by N, and the
    matrix they factor."""
    rng = random.Random(n)
    alphas = AlphaSequence(values=tuple(F(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(3 * n + 10)))
    return tetra_from_alphas(alphas), alphas, n


@pytest.mark.parametrize("x", [0, 3, F(-7, 9), F(1, 3), F(10), None])
@pytest.mark.parametrize("n", [14, 50, 150])
def test_point_recurrence_at_depth(n, x):
    """Deep runs on random height-12 alphas, where the common denominator
    grows with every step."""
    t, _, n = _height_12_input(n)
    _same_values(t, n, x, F(-2, 3))


@pytest.mark.parametrize("kind, nu, n", [("type2", None, 30), ("type1", 1, 30), ("second", 1, 30)])
def test_point_recurrence_fails_on_the_same_band_entry(kind, nu, n):
    t = tetra_from_alphas(AlphaSequence(values=(F(1),) * 20))
    for x in (F(1, 3), None):
        for values in (sequence_values, oracle_sequence_values):
            with pytest.raises(BandExhausted) as info:
                values(t, kind, n, x, nu)
            assert (info.value.band, info.value.index) == (("a", 8) if kind == "type1" else ("c", 7)), x


def _outcome(check, *args):
    """The report, or the SignViolation's fields and message."""
    try:
        return check(*args)
    except SignViolation as exc:
        return ("violation", exc.det_id, exc.n, exc.x, exc.value, type(exc.value), str(exc))


@settings(max_examples=40, derandomize=True)
@given(pbf_input(10), st.lists(NONNEGATIVE_POINT, min_size=1, max_size=5))
@example(_height_12_input(30), AKV_XS)
def test_akv_determinants_match_the_fraction_oracle(case, xs):
    """Small inputs, and one at N = 30 on height-12 alphas, where the
    common denominators K and d are large."""
    t, alphas, n = case
    report = akv_sign_checks(t, alphas, n, xs)
    assert report == oracle_akv_sign_checks(t, alphas, n, xs)
    assert type(report.max_value) is F


@settings(max_examples=60, derandomize=True)
@given(signed_bands(), st.lists(PBF_FRACTION, min_size=60, max_size=60),
       st.lists(NONNEGATIVE_POINT, min_size=1, max_size=5))
def test_akv_on_a_matrix_the_alphas_do_not_factor_matches_the_oracle(case, alphas, xs):
    """Determinants of signed bands are often positive: the same
    SignViolation (det_id, n, x and the value as a reduced Fraction), or
    the same report."""
    t, n = case
    n = max(n - 2, 0)
    alphas = AlphaSequence(values=tuple(alphas))
    assert _outcome(akv_sign_checks, t, alphas, n, xs) == _outcome(oracle_akv_sign_checks, t, alphas, n, xs)


def test_a_sign_violation_carries_the_reduced_fraction():
    """A fixed positive determinant, the one the Fraction loop reports."""
    t = tetra_from_bands(a=[F(1)] * 6, b=[F(-3)] * 7, c=[F(5, 3)] * 8)
    alphas = AlphaSequence(values=(F(1),) * 30)
    got = _outcome(akv_sign_checks, t, alphas, 4, (F(0), F(1, 4)))
    assert got == _outcome(oracle_akv_sign_checks, t, alphas, 4, (F(0), F(1, 4)))
    assert got[0] == "violation" and got[5] is F
