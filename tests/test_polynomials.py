"""Recursion polynomials of both types, second-kind solutions, and the
characteristic-polynomial oracles they must reproduce."""

import random
from fractions import Fraction as F
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetrahess import (
    AlphaSequence,
    IndexOutOfRange,
    Poly,
    TetraHessenberg,
    ZeroNu,
    char_poly_truncation,
    leading_principal,
    second_kind_sequences,
    sequence_values,
    tetra_from_alphas,
    trailing_truncation,
    type1_sequences,
    type2_sequence,
)

from conftest import matrix_corpus, pbf_corpus
from oracle_poly import FractionPoly


# Hand-expanded determinants of the all-ones truncations.
ONES_TYPE2 = {
    2: (F(1), F(-4), F(1)),
    3: (F(-1), F(10), F(-7), F(1)),
    4: (F(1), F(-20), F(28), F(-10), F(1)),
}


def test_type2_ones_anchors(t_ones):
    seq = type2_sequence(t_ones, 4)
    assert seq[0].coeffs == (F(1),)
    assert seq[1].coeffs == (F(-1), F(1))  # x - c_0
    for n, coeffs in ONES_TYPE2.items():
        assert seq[n].coeffs == coeffs


def test_type2_matches_char_poly_oracle(t_ones):
    seq = type2_sequence(t_ones, 6)
    for n in range(6):
        assert seq[n + 1] == leading_principal(t_ones, n).char_poly()


def test_type2_against_sympy(t_ones):
    """Third route: sympy's charpoly on the dense truncation."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    seq = type2_sequence(t_ones, 5)
    for n in (2, 4):
        m = leading_principal(t_ones, n)
        sm = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row]
                           for row in m.to_lists()])
        expected = sympy.Poly(sm.charpoly(x).as_expr(), x).all_coeffs()[::-1]
        got = [sympy.Rational(c.numerator, c.denominator) for c in seq[n + 1].coeffs]
        assert got == expected


def test_type1_ones_at_origin(t_ones):
    a1, a2 = type1_sequences(t_ones, 4, F(-1))
    assert [p(F(0)) for p in a1] == [F(1), F(-1), F(1), F(-1), F(1)]
    assert [p(F(0)) for p in a2] == [F(0), F(1), F(-2), F(3), F(-4)]


def test_type1_seeds(t_ones):
    a1, a2 = type1_sequences(t_ones, 2, F(2))
    assert a1[0].coeffs == (F(1),)
    assert a1[1].coeffs == (F(2),)  # A^(1)_1 = nu
    assert a2[0].coeffs == ()
    assert a2[1].coeffs == (F(1),)


def test_type1_rejects_zero_nu(t_ones):
    with pytest.raises(ZeroNu):
        type1_sequences(t_ones, 3, F(0))


ONES_SECOND_KIND_B1 = {
    # B^(1)_{n}: characteristic polynomials of the k=1 trailing truncations
    0: (),
    1: (F(1),),
    2: (F(-3), F(1)),
    3: (F(6), F(-6), F(1)),
    4: (F(-10), F(21), F(-9), F(1)),
    5: (F(15), F(-56), F(45), F(-12), F(1)),
}

ONES_SECOND_KIND_B2_NU_MINUS1 = {
    0: (),
    1: (F(1),),
    2: (F(-2), F(1)),
    3: (F(3), F(-5), F(1)),
    4: (F(-4), F(15), F(-8), F(1)),
}


def test_second_kind_ones_anchors(t_ones):
    b1, b2, small = second_kind_sequences(t_ones, 5, F(-1))
    for n, coeffs in ONES_SECOND_KIND_B1.items():
        assert b1[n].coeffs == coeffs
    for n, coeffs in ONES_SECOND_KIND_B2_NU_MINUS1.items():
        assert b2[n].coeffs == coeffs
    assert small[1].coeffs == ()
    assert small[2].coeffs == (F(1),)


def test_second_kind_char_oracles(t_ones):
    b1, _, small = second_kind_sequences(t_ones, 6, F(-1))
    for n in range(6):
        assert b1[n + 1] == char_poly_truncation(t_ones, n, 1)
        assert char_poly_truncation(t_ones, n, 1) == trailing_truncation(t_ones, n, 1).char_poly()
    # the k=2 identity needs a size-0 truncation, so it starts at n=1
    for n in range(1, 6):
        assert small[n + 1] == char_poly_truncation(t_ones, n, 2)


def test_second_kind_nu_decomposition(t_ones):
    # B^(2) = b^(1) - nu B^(1), coefficientwise, for every admissible nu
    for nu in (F(-1), F(2), F(-1, 3)):
        b1, b2, small = second_kind_sequences(t_ones, 5, nu)
        for n in range(6):
            assert b2[n].coeffs == (small[n] + b1[n].scale(-nu)).coeffs


@settings(max_examples=25, derandomize=True)
@given(st.integers(min_value=0, max_value=300))
def test_char_identity_random_matrices(seed):
    t, n = matrix_corpus(seed, 1, n_lo=2, n_hi=6)[0]
    seq = type2_sequence(t, n + 1)
    assert seq[n + 1] == leading_principal(t, n).char_poly()


@settings(max_examples=25, derandomize=True)
@given(st.integers(min_value=0, max_value=300), st.integers(min_value=1, max_value=5))
def test_trailing_char_identity_random(seed, n):
    t, _ = matrix_corpus(seed, 1, n_lo=6, n_hi=8)[0]
    nu = F(2)
    b1, _, small = second_kind_sequences(t, n + 1, nu)
    assert b1[n + 1] == trailing_truncation(t, n, 1).char_poly()
    # n = 1 exercises the empty-truncation boundary (char poly 1)
    assert small[n + 1] == trailing_truncation(t, n, 2).char_poly()


def test_char_poly_truncation_guards(t_ones):
    assert char_poly_truncation(t_ones, 1, 1).coeffs == (F(-3), F(1))  # x - 3
    assert char_poly_truncation(t_ones, 3, 4).coeffs == (F(1),)  # empty truncation
    with pytest.raises(IndexOutOfRange):
        char_poly_truncation(t_ones, 3, 5)
    with pytest.raises(IndexOutOfRange):
        char_poly_truncation(t_ones, 3, -1)


def test_char_poly_truncation_empty_reads_no_band_past_n():
    # the c band ends at N = 3, so finding the unit of the empty trailing
    # truncation must not read c_4
    t = TetraHessenberg(a=[F(1), F(2)], b=[F(2), F(3), F(1)], c=[F(1), F(3), F(2), F(5)])
    assert char_poly_truncation(t, 3, 4) == Poly((F(1),))
    assert char_poly_truncation(t, 3, 3) == Poly((F(-5), F(1)))


@pytest.mark.parametrize("seed", range(8))
def test_type1_left_null_vector_random(seed):
    """Against the dense matrix, not the recurrence: for every column
    j <= N-2 of T^[N], sum_i A_i (T - xI)_{ij} = 0 for both type I strands."""
    t, n = matrix_corpus(seed, 1, n_lo=3, n_hi=8)[0]
    m = leading_principal(t, n)
    for strand in type1_sequences(t, n, F(-2, 3) + seed):
        for j in range(n - 1):
            total = -strand[j].times_x()
            for i in range(n + 1):
                total = total + strand[i].scale(m.entry(i, j))
            assert total.is_zero(), (seed, j)


@settings(max_examples=20, derandomize=True)
@given(st.integers(min_value=0, max_value=200))
def test_type2_monic_with_degree_n(seed):
    alphas = pbf_corpus(seed, 1, count=19)[0]
    t = tetra_from_alphas(alphas)
    seq = type2_sequence(t, 6)
    for n, p in enumerate(seq):
        assert len(p.coeffs) == n + 1
        assert p.coeffs[-1] == 1


def test_poly_helpers():
    p = Poly((F(0), F(2), F(1)))  # x^2 + 2x
    assert p.exact_div_x().coeffs == (F(2), F(1))
    assert p.times_x().coeffs == (F(0), F(0), F(2), F(1))
    assert p(F(3)) == 15
    q = Poly((F(1),))
    assert (p + q).coeffs == (F(1), F(2), F(1))


RATIONAL = st.builds(F, st.integers(-12, 12), st.integers(1, 7))


@settings(max_examples=40, derandomize=True)
@given(
    st.lists(st.builds(F, st.integers(1, 9), st.integers(1, 9)), min_size=40, max_size=40),
    st.integers(0, 12),
    RATIONAL,
    RATIONAL.filter(bool),
)
def test_sequence_values_are_the_polynomials_at_x(alphas, n, x, nu):
    """The recurrence run over the scalars gives p(x) of every polynomial the
    builders return, entry by entry, and p(0) = constant term at the origin."""
    t = tetra_from_alphas(AlphaSequence(values=tuple(alphas)))
    built = {
        "type2": {"B": type2_sequence(t, n)},
        "type1": dict(zip(("A1", "A2"), type1_sequences(t, n, nu))),
        "second": dict(zip(("B1", "B2", "b1"), second_kind_sequences(t, n, nu))),
    }
    for kind, named in built.items():
        at_x = sequence_values(t, kind, n, x, nu)
        at_0 = sequence_values(t, kind, n, 0, nu)
        assert list(at_x) == list(named)
        for name, seq in named.items():
            assert at_x[name] == tuple(p(x) for p in seq), (kind, name)
            assert at_0[name] == tuple(p.constant for p in seq), (kind, name)
            assert all(type(v) is F for v in at_x[name] + at_0[name])


@pytest.mark.parametrize("x", [F(0), F(-3), F(-7, 9), F(5, 2)], ids=["0", "-3", "-7/9", "5/2"])
def test_b1_at_a_point_is_b2_plus_nu_b1(t_ones, x):
    """b1 runs from its own seeds (-1, 1, 0); at x = 0, at a negative x and
    at a non-integer x its values are B2 + nu B1 of the same call, on the
    ones matrix and on random explicit bands, at integer and rational nu."""
    cases = [(t_ones, 20)] + matrix_corpus(17, 6)
    for (t, n), nu in product(cases, (F(-1), F(-2, 3), F(5))):
        values = sequence_values(t, "second", n, x, nu)
        assert values["b1"] == tuple(q + nu * p for p, q in zip(values["B1"], values["B2"])), (n, nu)


def test_sequence_values_guards(t_ones):
    with pytest.raises(ValueError):
        sequence_values(t_ones, "type2", -1, F(1))
    with pytest.raises(ValueError):
        sequence_values(t_ones, "type3", 2, F(1))
    for kind in ("type1", "second"):
        with pytest.raises(ZeroNu):
            sequence_values(t_ones, kind, 2, F(1), F(0))


def _fraction_sequences(a, b, c, n, nu):
    """B, A1, A2, B1, B2 and b1 at indices 0..N by the four-term recurrence
    over FractionPoly, one Fraction per coefficient operation, from the
    band lists a = (a_2, ...), b = (b_1, ...) and c = (c_0, ...)."""
    x = FractionPoly((0, 1))

    def rows(seeds):  # seeds at indices -2, -1, 0
        y = [FractionPoly((s,)) for s in seeds]
        for m in range(n):
            bm, am = b[m - 1] if m >= 1 else -1, a[m - 2] if m >= 2 else -1
            y.append((x - FractionPoly((c[m],))) * y[-1] - y[-2].scale(bm) - y[-3].scale(am))
        return y[2:]

    def columns(seeds):  # seeds at indices -1, 0, 1
        y = [FractionPoly((s,)) for s in seeds]
        for m in range(1, n):
            y.append(((x - FractionPoly((c[m - 1],))) * y[-2] - y[-1].scale(b[m - 1]) - y[-3]).scale(1 / a[m - 1]))
        return y[1 : n + 2]

    b1, b2 = rows((1, 0, 0)), rows((-1 - nu, 1, 0))
    return {
        "B": rows((0, 0, 1)),
        "A1": columns((0, 1, nu)),
        "A2": columns((0, 0, 1)),
        "B1": b1,
        "B2": b2,
        "b1": [q + p.scale(nu) for p, q in zip(b1, b2)],
    }


def _canonical(p):
    return p.den > 0 and gcd(p.den, *p.num) == 1 and not (p.num and p.num[-1] == 0)


@settings(max_examples=40, derandomize=True)
@given(st.integers(0, 10**6), st.integers(1, 12), st.integers(0, 40))
def test_recurrence_matches_fraction_reference_and_is_canonical(seed, height, n):
    """Every polynomial the three builders return is the FractionPoly
    recurrence's, and is held canonical over its own denominator: den > 0,
    no factor shared by den and every coefficient, no trailing zero."""
    rng = random.Random(seed)

    def rational(lo):
        return F(rng.randint(lo, height), rng.randint(1, height))

    c = [rational(-height) for _ in range(n + 2)]
    b = [rational(-height) for _ in range(n + 2)]
    a = [rational(1) for _ in range(n + 2)]
    nu = rational(-height) or F(1)
    t = TetraHessenberg(a=a, b=b, c=c)
    built = {"B": type2_sequence(t, n)}
    built["A1"], built["A2"] = type1_sequences(t, n, nu)
    built["B1"], built["B2"], built["b1"] = second_kind_sequences(t, n, nu)
    for name, want in _fraction_sequences(a, b, c, n, nu).items():
        got = built[name]
        assert len(got) == n + 1, name
        assert [p.coeffs for p in got] == [r.coeffs for r in want], name
        assert all(_canonical(p) for p in got), name
