"""Values at a point over the integers against the Fraction forms they
replaced (oracle_point.py): the sampled recurrence behind sequence_values
and polynomials._values, the AKV determinants of akv_sign_checks, and the
origin-value readers _origin_system, alphas_from_polynomials and
gauss_borel.  The same recurrence without a point (x = None) builds the
polynomials, checked against the Poly-op recurrence of the oracle."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle_point
from oracle_point import akv_sign_checks as oracle_akv_sign_checks
from oracle_point import sequence_values as oracle_sequence_values
from tetrahess import (AlphaSequence, BandExhausted, SignViolation, TetraHessenberg, ZeroNu, polynomials,
                       tetra_from_alphas)
from tetrahess.cli import AKV_XS
from tetrahess.darboux import akv_sign_checks
from tetrahess.errors import SingularLeadingMinor, ZeroAtOrigin
from tetrahess.poly import Poly
from tetrahess.polynomials import _values, sequence_values
from tetrahess.serialize import load_alphas

#: Negative, zero, dyadic and non-dyadic points.
POINT = st.builds(F, st.integers(-40, 40), st.integers(1, 27))
#: A point, or None for the polynomials themselves.
POINT_OR_NONE = st.none() | POINT
NONNEGATIVE_POINT = st.builds(F, st.integers(0, 40), st.integers(1, 27))
#: Points with numerators and denominators of up to 100 bits.
LARGE_POINT = st.builds(F, st.integers(-(2**100), 2**100), st.integers(1, 2**100))
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
    return TetraHessenberg(a=a, b=b, c=c), n


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


def _same_int_values(t, n, points, nu):
    """_values at all ``points`` in one call, for each kind, read back as
    Fractions, equals the oracle's sequence_values at each point; every
    numerator is an int and the one denominator per point a positive int."""
    for kind, names in polynomials._KINDS.items():
        got = _values(t, n, points, names, nu)
        assert len(got) == len(points)
        for x, (lists, d) in zip(points, got):
            assert type(d) is int and d > 0
            assert all(type(v) is int for vals in lists for v in vals)
            values = {name: tuple(F(v, d) for v in vals) for name, vals in zip(names, lists)}
            assert values == oracle_sequence_values(t, kind, n, x, nu), (kind, n, x, nu)


@settings(max_examples=40, derandomize=True)
@given(pbf_input(24), st.lists(POINT | LARGE_POINT, min_size=1, max_size=4), NU)
@example(_height_12_input(40), [F(0), F(-7, 9), F(2**90 + 1, 3**50)], F(-2, 3))
def test_int_values_match_the_fraction_oracle(case, points, nu):
    t, _, n = case
    _same_int_values(t, n, points, nu)


@settings(max_examples=30, derandomize=True)
@given(signed_bands(), st.lists(POINT | LARGE_POINT, min_size=1, max_size=4), NU)
def test_int_values_on_signed_bands_match_the_oracle(case, points, nu):
    t, n = case
    _same_int_values(t, n, points, nu)


@pytest.mark.parametrize("kind, nu, n", [("type2", None, 30), ("type1", 1, 30), ("second", 1, 30)])
def test_int_values_fail_as_the_oracle_fails(kind, nu, n):
    """A matrix too short for N raises the oracle's BandExhausted, at any
    point, and nu = 0 raises ZeroNu for the kinds that read nu."""
    t = tetra_from_alphas(AlphaSequence(values=(F(1),) * 20))
    names = polynomials._KINDS[kind]
    with pytest.raises(BandExhausted) as info:
        _values(t, n, (F(1, 3), F(0)), names, nu)
    with pytest.raises(BandExhausted) as want:
        oracle_sequence_values(t, kind, n, F(1, 3), nu)
    assert info.value.args == want.value.args
    if kind != "type2":
        for check in (lambda: _values(t, 3, (F(0),), names, 0), lambda: oracle_sequence_values(t, kind, 3, F(0), 0)):
            with pytest.raises(ZeroNu):
                check()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_int_readers_match_the_fraction_oracles(seed):
    """The comparison set of oracle_point: PBF pairs, signed int bands whose
    origin values vanish, and matrices too short for N.  Values at every
    point, the origin system, gauss_borel, alphas_from_polynomials and the
    AKV determinants give the same results, scalar types included, or the
    same errors; the set reaches every zero the readers refuse."""
    errors = set()
    for case in oracle_point.comparison_cases(seed, 100):
        for what, got, want in oracle_point.compared(case):
            assert got == want, what
            if isinstance(want, tuple) and isinstance(want[0], type):
                errors.add(want[0])
    assert {ZeroAtOrigin, SingularLeadingMinor, BandExhausted, SignViolation} <= errors


def test_akv_builds_one_row_form_step_table_per_call(monkeypatch):
    """The step table does not depend on x: one row-form table serves B,
    B1 and B2 at all five sample points."""
    calls = []

    def counting(t, start, stop, transpose=False):
        calls.append(transpose)
        return steps(t, start, stop, transpose)

    steps = polynomials._steps
    monkeypatch.setattr(polynomials, "_steps", counting)
    t, alphas, n = _height_12_input(14)
    akv_sign_checks(t, alphas, n, AKV_XS)
    assert calls == [False]


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
    t = TetraHessenberg(a=[F(1)] * 6, b=[F(-3)] * 7, c=[F(5, 3)] * 8)
    alphas = AlphaSequence(values=(F(1),) * 30)
    got = _outcome(akv_sign_checks, t, alphas, 4, (F(0), F(1, 4)))
    assert got == _outcome(oracle_akv_sign_checks, t, alphas, 4, (F(0), F(1, 4)))
    assert got[0] == "violation" and got[5] is F
