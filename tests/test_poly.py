"""The fraction-free Poly against the tuple-of-Fractions polynomial it
replaced (oracle_poly.FractionPoly): every operation gives the same
coefficients, the same repr and the same errors, and every result is in
the canonical (num, den) form."""

from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_poly import FractionPoly
from tetrahess import InexactDivision, Poly, constant_poly
from tetrahess.scalars import format_ratio, format_scalar

# mixed denominators, signs, zeros (also trailing ones) and plain ints
scalars = st.one_of(
    st.just(0),
    st.integers(min_value=-40, max_value=40),
    st.fractions(min_value=F(-30), max_value=F(30), max_denominator=36),
)
coeff_lists = st.lists(scalars, max_size=7)


def canonical(p):
    """Assert the (num, den) invariants of a Poly."""
    assert type(p.den) is int and p.den > 0
    assert all(type(v) is int for v in p.num)
    if not p.num:
        assert p.den == 1  # one canonical zero
    else:
        assert p.num[-1] != 0  # no trailing zero
        assert gcd(p.den, *p.num) == 1


def same(new, old):
    """new (Poly) and old (FractionPoly) hold the same polynomial, and
    print the same."""
    canonical(new)
    assert new.coeffs == old.coeffs
    assert all(type(c) is F for c in new.coeffs)
    assert repr(new) == repr(old)
    assert new.degree == old.degree
    assert new.constant == old.constant and new.leading == old.leading
    assert new.is_zero() == old.is_zero()


def pair(coeffs):
    # the oracle's repr shows its inputs' types, so it is fed Fractions
    return Poly(coeffs), FractionPoly([F(c) for c in coeffs])


@settings(max_examples=300, deadline=None)
@given(coeff_lists, coeff_lists, scalars)
def test_ring_operations_match_the_fraction_oracle(p, q, s):
    a, a_old = pair(p)
    b, b_old = pair(q)
    same(a, a_old)
    same(a + b, a_old + b_old)
    same(a - b, a_old - b_old)
    same(-a, -a_old)
    same(a * b, a_old * b_old)
    for k in (s, F(s), 0, -1, 3, F(-2, 7)):
        same(a.scale(k), a_old.scale(F(k)))
        same(a * k, a_old * F(k))
        same(k * a, F(k) * a_old)
    same(a.times_x(), a_old.times_x())
    assert a(s) == a_old(F(s)) and type(a(s)) is F


@settings(max_examples=200, deadline=None)
@given(coeff_lists)
def test_exact_div_x_matches_the_fraction_oracle(p):
    a, a_old = pair(p)
    try:
        want = a_old.exact_div_x(context="ctx")
    except InexactDivision as e:
        with pytest.raises(InexactDivision) as got:
            a.exact_div_x(context="ctx")
        assert str(got.value) == str(e) and got.value.constant == e.constant
    else:
        same(a.exact_div_x(context="ctx"), want)
    same(a.times_x().exact_div_x(), a_old)


@settings(max_examples=300, deadline=None)
@given(coeff_lists, coeff_lists)
def test_equality_and_hash_follow_the_polynomial(p, q):
    (a, a_old), (b, b_old) = pair(p), pair(q)
    assert (a == b) == (a_old == b_old)
    # an int list and its Fraction spelling are one polynomial
    twin = Poly([F(c) for c in p])
    assert a == twin and hash(a) == hash(twin)
    assert a == (a + b) - b and hash(a) == hash((a + b) - b)


def test_canonical_form():
    p = Poly((F(1, 2), F(1, 3), 0, 0))
    assert (p.num, p.den) == ((3, 2), 6)
    # the content may exceed 1; only its gcd with den must be 1
    assert (Poly((F(2, 3), F(4, 3))).num, Poly((F(2, 3), F(4, 3))).den) == ((2, 4), 3)
    assert (Poly((F(6, 4), 3)).num, Poly((F(6, 4), 3)).den) == ((3, 6), 2)
    zeros = (Poly(), Poly((0, F(0))), Poly((F(1, 3),)) - Poly((F(1, 3),)), Poly((5,)).scale(0))
    for z in zeros:
        assert (z.num, z.den) == ((), 1) and z.degree == -1
    assert len({hash(z) for z in zeros}) == 1
    assert constant_poly(F(-7, 4)).coeffs == (F(-7, 4),)


def test_coefficients_are_read_only():
    p = Poly((1, 2))
    for name in ("num", "den", "coeffs"):
        with pytest.raises(AttributeError):
            setattr(p, name, ())


@pytest.mark.parametrize("bad", [0.5, 1e300, "1/2", None, 1j])
def test_inexact_coefficients_and_scalars_are_refused(bad):
    with pytest.raises(TypeError, match="int or Fraction"):
        Poly((1, bad))
    with pytest.raises(TypeError, match="int or Fraction"):
        constant_poly(bad)
    with pytest.raises(TypeError, match="int or Fraction"):
        Poly((1, 2)).scale(bad)
    with pytest.raises(TypeError, match="int or Fraction"):
        Poly((1, 2))(bad)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.integers(min_value=-10**12, max_value=10**12), st.integers(min_value=1, max_value=10**6))
def test_format_ratio_prints_as_the_fraction(num, den):
    assert format_ratio(num, den) == format_scalar(F(num, den))


def test_repr_shows_long_coefficients_in_full():
    """The repr reads as repr(list(coeffs)) also past the interpreter's
    4300-digit int/str limit, so an IdentityViolation can print it."""
    big = 10**5000 + 1
    p = Poly((F(big, 3), F(-2), F(1, big)))
    assert repr(p) == f"Poly([Fraction({'1' + '0' * 4999 + '1'}, 3), Fraction(-2, 1), Fraction(1, {'1' + '0' * 4999 + '1'})])"
    assert repr(Poly()) == "Poly([])"
