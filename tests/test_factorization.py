"""Gauss-Borel LU data and the bidiagonal refinement."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetrahess import (
    Classification,
    SingularLeadingMinor,
    ZeroAlpha3n,
    bidiagonal_factor,
    gauss_borel,
    leading_principal,
    lm_from_alphas,
    tetra_from_alphas,
    tetra_from_bands,
)

from conftest import pbf_corpus, random_band_matrix


def test_gauss_borel_symmetric_reference(t_sym):
    """delta = 2, 3, 5 and the L/U strands follow the minor ratios."""
    gb = gauss_borel(t_sym, 2)
    assert gb.delta == (F(2), F(3), F(5))
    assert gb.u_diag == (F(2), F(3, 2), F(5, 3))
    assert gb.m == (F(1, 2), F(1, 3))
    assert gb.ell == (F(1, 2),)


def test_gauss_borel_product(t_sym):
    gb = gauss_borel(t_sym, 2)
    assert gb.lower_matrix().mul(gb.upper_matrix()) == leading_principal(t_sym, 2)


def test_gauss_borel_ones(t_ones):
    # all-ones alphas have unit U diagonal, so every leading minor is 1
    gb = gauss_borel(t_ones, 3)
    assert gb.delta == (F(1), F(1), F(1), F(1))
    assert gb.u_diag == (F(1), F(1), F(1), F(1))


def test_gauss_borel_singular_minor():
    t = tetra_from_bands(a=[F(1)], b=[F(1), F(1)], c=[F(0), F(1), F(1)])
    with pytest.raises(SingularLeadingMinor):
        gauss_borel(t, 2)


@st.composite
def signed_band_matrix(draw):
    """T^[N] from signed bands with a_n > 0 and small entries, so that a
    vanishing leading minor is common."""
    n = draw(st.integers(0, 9))
    entry = st.builds(F, st.integers(-2, 2), st.integers(1, 3))
    c = draw(st.lists(entry, min_size=n + 1, max_size=n + 1))
    b = draw(st.lists(entry, min_size=n, max_size=n))
    a = draw(st.lists(st.builds(F, st.integers(1, 3), st.integers(1, 3)),
                      min_size=max(n - 1, 0), max_size=max(n - 1, 0)))
    return tetra_from_bands(a=a, b=b, c=c), n


@settings(max_examples=120, derandomize=True)
@given(signed_band_matrix())
def test_delta_is_the_dense_leading_minor(case):
    """delta^[k] against dense elimination, and SingularLeadingMinor at the
    first k whose determinant is 0."""
    t, n = case
    dets = [leading_principal(t, k).det() for k in range(n + 1)]
    if 0 in dets:
        with pytest.raises(SingularLeadingMinor) as info:
            gauss_borel(t, n)
        assert info.value.n == dets.index(0)
    else:
        assert gauss_borel(t, n).delta == tuple(dets)


def test_gauss_borel_order_vs_available_bands(t_sym):
    gb = gauss_borel(t_sym, 2)
    assert gb.order == 2
    assert len(gb.m) == 2 and len(gb.ell) == 1


# Frozen by running the refinement by hand on the symmetric reference:
# the free alpha_2 = 0 forces the sign flip at alpha_6.
SYM_ALPHAS_AT_ZERO = (F(2), F(0), F(1, 2), F(3, 2), F(1), F(-2, 3), F(5, 3))


def test_bidiagonal_factor_symmetric_reference(t_sym):
    alphas = bidiagonal_factor(t_sym, 2, F(0))
    assert alphas.prefix(7) == SYM_ALPHAS_AT_ZERO
    assert alphas.classify() is Classification.INDEFINITE


def test_bidiagonal_factor_zero_alpha3n(t_sym):
    # alpha_2 = 1/2 makes alpha_3 = m_1 - alpha_2 = 0, so alpha_5 would divide by zero
    with pytest.raises(ZeroAlpha3n) as exc:
        bidiagonal_factor(t_sym, 2, F(1, 2))
    assert exc.value.n == 1


def test_bidiagonal_factor_returns_3n_plus_1_entries(t_ones):
    alphas = bidiagonal_factor(t_ones, 4, F(1))
    assert alphas.length == 13
    assert alphas.prefix(13) == (F(1),) * 13


@settings(max_examples=30, derandomize=True)
@given(st.integers(min_value=0, max_value=400))
def test_round_trip_alphas_matrix_alphas(seed):
    """Factor of the matrix built from PBF alphas recovers them exactly."""
    alphas = pbf_corpus(seed, 1, count=22)[0]
    n = 7
    t = tetra_from_alphas(alphas)
    recovered = bidiagonal_factor(t, n, alphas.at(2))
    assert recovered.prefix(3 * n + 1) == alphas.prefix(3 * n + 1)


@settings(max_examples=25, derandomize=True)
@given(st.integers(min_value=0, max_value=400), st.integers(min_value=2, max_value=7))
def test_lu_product_reproduces_truncation(seed, n):
    rng = random.Random(seed)
    t = random_band_matrix(rng, n)
    try:
        gb = gauss_borel(t, n)
    except SingularLeadingMinor:
        return  # factorization legitimately absent
    assert gb.lower_matrix().mul(gb.upper_matrix()) == leading_principal(t, n)


def test_lm_from_alphas_matches_gauss_borel(t_ones, ones_alphas):
    """Dual route: m_k, l_k from alphas must equal the LU strands."""
    n = 5
    gb = gauss_borel(t_ones, n)
    m, ell = lm_from_alphas(ones_alphas, n)
    assert tuple(m) == gb.m
    assert tuple(ell) == gb.ell


@settings(max_examples=20, derandomize=True)
@given(st.integers(min_value=0, max_value=300))
def test_lm_from_alphas_matches_gauss_borel_random(seed):
    alphas = pbf_corpus(seed, 1, count=19)[0]
    t = tetra_from_alphas(alphas)
    n = 6
    gb = gauss_borel(t, n)
    m, ell = lm_from_alphas(alphas, n)
    assert tuple(m) == gb.m and tuple(ell) == gb.ell
