"""Darboux transformations: band formulas, transformed polynomial families,
the Christoffel identity battery, and the sign-definite determinant checks."""

from fractions import Fraction as F
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetrahess import (
    CHRISTOFFEL_IDENTITIES,
    AlphaSequence,
    IdentityViolation,
    Poly,
    SignViolation,
    TetraError,
    ZeroAtOrigin,
    akv_sign_checks,
    alpha_factor_matrices,
    alphas_from_polynomials,
    darboux_polynomials,
    darboux_transforms,
    leading_principal,
    second_kind_sequences,
    sequence_values,
    tetra_from_alphas,
    tetra_from_bands,
    transformed_char_polys,
    transformed_type1,
    transformed_type2,
    truncation_mismatch,
    type1_sequences,
    type2_sequence,
    verify_christoffel,
)
from tetrahess import darboux
from tetrahess.core import _split_alphas
from tetrahess.polynomials import _values
from tetrahess.scalars import over_common_denominator

import oracle_christoffel
from conftest import pbf_corpus


signed_rationals = st.fractions(min_value=F(-4), max_value=F(4), max_denominator=5)


def _dense_times(rows, v, zero):
    """Dense matrix (given by its rows) times the vector v."""
    return [sum((v_j * m_ij for m_ij, v_j in zip(row, v)), zero) for row in rows]


@settings(max_examples=60, derandomize=True)
@given(st.data(), st.integers(1, 12), st.booleans())
def test_factor_products_match_the_dense_factors(data, n, polys):
    """U v, L v and v L equal the dense products with the truncated factors
    of alpha_factor_matrices on every row the truncation does not cut: all
    rows of L v, rows 0..N-1 of U v and v L (row N would need v_{N+1})."""
    count = 3 * n + 1
    alphas = AlphaSequence(data.draw(st.lists(signed_rationals, min_size=count, max_size=count)))
    entries = st.lists(signed_rationals, min_size=1, max_size=4) if polys else signed_rationals
    v = [data.draw(entries) for _ in range(n + 2)]
    zero = Poly((0,)) if polys else 0
    if polys:
        v = [Poly(tuple(c)) for c in v]
    l1, l2, upper = alpha_factor_matrices(alphas, n)
    u, p, q = _split_alphas(alphas.values)
    assert darboux._u_times(u, v)[:n] == tuple(_dense_times(upper.rows, v, zero)[:n])
    for sub, lower in ((p, l1), (q, l2)):
        assert darboux._l_times(sub, v[: n + 1]) == tuple(_dense_times(lower.rows, v, zero))
        columns = tuple(zip(*lower.rows))
        assert darboux._times_l(v, sub)[:n] == tuple(_dense_times(columns, v, zero)[:n])


@settings(max_examples=60, derandomize=True)
@given(st.data(), st.integers(1, 12))
def test_factor_products_scale_with_one(data, n):
    """With Fraction factors scaled by K, the lcm of their denominators, and
    ``one`` = K, the products of int v are ints, K times the true ones."""
    u, sub = (data.draw(st.lists(signed_rationals, min_size=n + 1, max_size=n + 1)) for _ in range(2))
    v = data.draw(st.lists(st.integers(-99, 99), min_size=n + 2, max_size=n + 2))
    scaled, k = over_common_denominator(u + sub)
    got_u, got_l = darboux._u_times(scaled[: n + 1], v, k), darboux._l_times(scaled[n + 1 :], v, k)
    assert got_u == tuple(k * w for w in darboux._u_times(u, v))
    assert got_l == tuple(k * w for w in darboux._l_times(sub, v))
    assert all(type(w) is int for w in got_u + got_l)


def test_hat_bands_ones(ones_alphas):
    pair = darboux_transforms(ones_alphas)
    assert [pair.hat.c(n) for n in range(4)] == [F(2), F(3), F(3), F(3)]
    assert [pair.hat.b(n) for n in range(1, 4)] == [F(3), F(3), F(3)]
    assert [pair.hat.a(n) for n in range(2, 4)] == [F(1), F(1)]


def test_hathat_bands_ones(ones_alphas):
    pair = darboux_transforms(ones_alphas)
    assert [pair.hathat.c(n) for n in range(4)] == [F(3), F(3), F(3), F(3)]
    assert [pair.hathat.b(n) for n in range(1, 3)] == [F(3), F(3)]
    assert pair.hathat.a(2) == F(1)


def test_hat_band_formulas_distinguishable():
    # alpha_j = j separates every term of the shifted products
    alphas = AlphaSequence(values=range(1, 13))
    pair = darboux_transforms(alphas)
    assert pair.hat.c(1) == 5 + 4 + 3
    assert pair.hat.b(1) == 3 * 2 + 4 * 2 + 3 * 1
    assert pair.hat.a(2) == 6 * 4 * 2
    assert pair.hathat.c(1) == 6 + 5 + 4
    assert pair.hathat.a(2) == 7 * 5 * 3


def test_transformed_char_polys_k0_matches_tilde_b(t_ones, ones_alphas):
    pair = darboux_transforms(ones_alphas)
    main, first, second = transformed_char_polys(pair, 3, 0, F(-1))
    tilde, _ = transformed_type2(t_ones, ones_alphas, 4)
    assert main.coeffs == tilde[4].coeffs


def test_transformed_char_polys_last_index_is_linear(ones_alphas):
    pair = darboux_transforms(ones_alphas)
    main, _, _ = transformed_char_polys(pair, 3, 3, F(-1))
    assert main.coeffs == (-pair.hat.c(3), F(1))


def test_transformed_char_polys_k_guard(ones_alphas):
    from tetrahess import IndexOutOfRange

    pair = darboux_transforms(ones_alphas)
    with pytest.raises(IndexOutOfRange):
        transformed_char_polys(pair, 3, 5, F(-1))


def test_truncation_mismatch_hat(ones_alphas):
    """Only the bottom-right corner disagrees, by exactly alpha_{3N+2}."""
    for n in (2, 4, 6):
        diff = truncation_mismatch(ones_alphas, n, "hat")
        assert set(diff) == {(n, n)}
        band_value, product_value = diff[(n, n)]
        assert band_value - product_value == ones_alphas.at(3 * n + 2)


def test_truncation_mismatch_hathat(ones_alphas):
    for n in (2, 4):
        diff = truncation_mismatch(ones_alphas, n, "hathat")
        assert set(diff) == {(n, n), (n, n - 1)}
        band_value, product_value = diff[(n, n)]
        assert band_value - product_value == (
            ones_alphas.at(3 * n + 2) + ones_alphas.at(3 * n + 3)
        )
        band_value, product_value = diff[(n, n - 1)]
        assert band_value - product_value == (
            ones_alphas.at(3 * n + 2) * ones_alphas.at(3 * n)
        )


@settings(max_examples=15, derandomize=True)
@given(st.integers(min_value=0, max_value=200))
def test_truncation_mismatch_random_pbf(seed):
    alphas = pbf_corpus(seed, 1, count=25)[0]
    n = 6
    diff = truncation_mismatch(alphas, n, "hat")
    assert set(diff) == {(n, n)}
    band_value, product_value = diff[(n, n)]
    assert band_value - product_value == alphas.at(3 * n + 2)


def test_truncation_mismatch_rejects_unknown_which(ones_alphas):
    with pytest.raises(ValueError):
        truncation_mismatch(ones_alphas, 3, "source")


ONES_TILDE_B = {
    1: (F(-2), F(1)),
    2: (F(3), F(-5), F(1)),
    3: (F(-4), F(15), F(-8), F(1)),
}

ONES_TILDETILDE_B = {
    1: (F(-3), F(1)),
    2: (F(6), F(-6), F(1)),
}


def test_transformed_type2_ones(t_ones, ones_alphas):
    tilde, tildetilde = transformed_type2(t_ones, ones_alphas, 4)
    assert tilde[0].coeffs == (F(1),)
    for n, coeffs in ONES_TILDE_B.items():
        assert tilde[n].coeffs == coeffs
    for n, coeffs in ONES_TILDETILDE_B.items():
        assert tildetilde[n].coeffs == coeffs


def test_transformed_type2_are_type2_of_transforms(t_ones, ones_alphas):
    """Dual route: the x-divided combinations must coincide with the type II
    sequences generated directly by the transformed matrices."""
    n = 5
    tilde, tildetilde = transformed_type2(t_ones, ones_alphas, n)
    pair = darboux_transforms(ones_alphas)
    hat_seq = type2_sequence(pair.hat, n)
    hathat_seq = type2_sequence(pair.hathat, n)
    for k in range(n + 1):
        assert tilde[k].coeffs == hat_seq[k].coeffs
        assert tildetilde[k].coeffs == hathat_seq[k].coeffs


@settings(max_examples=15, derandomize=True)
@given(st.integers(min_value=0, max_value=200))
def test_transformed_type2_random_pbf(seed):
    alphas = pbf_corpus(seed, 1, count=25)[0]
    t = tetra_from_alphas(alphas)
    n = 5
    tilde, tildetilde = transformed_type2(t, alphas, n)
    pair = darboux_transforms(alphas)
    assert [p.coeffs for p in tilde] == [p.coeffs for p in type2_sequence(pair.hat, n)]
    assert [p.coeffs for p in tildetilde] == [
        p.coeffs for p in type2_sequence(pair.hathat, n)
    ]


def test_transformed_type2_divisibility(t_ones, ones_alphas):
    """The bracket combinations have zero constant term before x-division."""
    from tetrahess import type2_sequence as t2

    n = 4
    base = t2(t_ones, n + 1)
    at = ones_alphas.at
    for k in range(n + 1):
        hat_comb = base[k + 1] + base[k].scale(at(3 * k + 1) + at(3 * k))
        if k >= 1:
            hat_comb = hat_comb + base[k - 1].scale(at(3 * k) * at(3 * k - 2))
        assert hat_comb(F(0)) == 0
        hathat_comb = base[k + 1] + base[k].scale(at(3 * k + 1))
        assert hathat_comb(F(0)) == 0


def test_transformed_type1_ones(t_ones, ones_alphas):
    tp = transformed_type1(t_ones, ones_alphas, 3)
    assert tp.nu == F(-1)  # forced: nu = -1/alpha_2
    assert tp.hatA1[0].coeffs == (F(1),)  # constant alpha_2
    assert tp.hatA1[1].coeffs == (F(-1),)
    assert tp.tildetildeA1[1].coeffs == (F(-2),)
    assert tp.tildetildeA2[1].coeffs == (F(1),)
    assert tp.tildeA2[0].coeffs == ()
    assert tp.tildeA2[2].coeffs == (F(-3),)


def test_darboux_polynomials_bundles_everything(t_ones, ones_alphas):
    dp = darboux_polynomials(t_ones, ones_alphas, 3)
    for field in ("tildeB", "tildetildeB", "hatA1", "tildeA2",
                  "tildetildeA1", "tildetildeA2"):
        assert getattr(dp, field) is not None
    assert dp.nu == F(-1)


def test_alphas_from_polynomials_ones(t_ones):
    rec = alphas_from_polynomials(t_ones, 3, F(1))
    assert rec.prefix(10) == (F(1),) * 10


@settings(max_examples=15, derandomize=True)
@given(st.integers(min_value=0, max_value=200))
def test_alphas_from_polynomials_round_trip(seed):
    alphas = pbf_corpus(seed, 1, count=25)[0]
    t = tetra_from_alphas(alphas)
    n = 7
    rec = alphas_from_polynomials(t, n, alphas.at(2))
    assert rec.prefix(3 * n + 1) == alphas.prefix(3 * n + 1)


def test_alpha1_equals_c0_anchor(t_ones):
    rec = alphas_from_polynomials(t_ones, 2, F(1))
    assert rec.at(1) == t_ones.c(0)


def _constant_bands(a, b, c, length=8):
    return tetra_from_bands(a=[F(a)] * length, b=[F(b)] * length, c=[F(c)] * length)


def test_alphas_from_polynomials_refuses_a_zero_b_at_the_origin():
    """c, b, a = 1 gives B(0) = 1, -1, 0, 0, 1, ..., so the ratio u_2 is
    undefined."""
    t = _constant_bands(1, 1, 1)
    assert sequence_values(t, "type2", 3, 0)["B"] == (1, -1, 0, 0)
    with pytest.raises(ZeroAtOrigin) as err:
        alphas_from_polynomials(t, 2, F(1))
    assert (err.value.n, err.value.which) == (2, "B")


@pytest.mark.parametrize("alpha2", [F(1), F(2), F(1, 3)])
def test_alphas_from_polynomials_refuses_a_zero_a1_at_the_origin(alpha2):
    """a_2 A1_2(0) = -c_0 - nu b_1 = b_1 / alpha_2 - c_0 with
    nu = -1/alpha_2, so c_0 = b_1 / alpha_2 makes p_2 undefined while every
    B value stays nonzero."""
    c = [F(3) / alpha2, F(5), F(7), F(11), F(13), F(17), F(19), F(23)]
    t = tetra_from_bands(a=[F(2)] * 8, b=[F(3)] * 8, c=c)
    assert 0 not in sequence_values(t, "type2", 4, 0)["B"]
    with pytest.raises(ZeroAtOrigin) as err:
        alphas_from_polynomials(t, 3, alpha2)
    assert (err.value.n, err.value.which) == (2, "A1")


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.lists(signed_rationals, min_size=10, max_size=10),
       st.lists(signed_rationals, min_size=10, max_size=10),
       st.lists(st.fractions(min_value=F(1, 5), max_value=F(4), max_denominator=5), min_size=10, max_size=10),
       signed_rationals.filter(bool))
def test_origin_system_determinant_is_a_b_value(c, b, a, nu):
    """det M_k = (-1)^(k+1) B_{k+1}(0) / (a_2 ... a_{k+2}) for every nu,
    so the 2x2 origin system is singular exactly when B_{k+1}(0) = 0."""
    t = tetra_from_bands(a=a, b=b, c=c)
    n = 7
    b0 = sequence_values(t, "type2", n + 1, 0)["B"]
    origin = sequence_values(t, "type1", n + 2, 0, nu)
    a10, a20 = origin["A1"], origin["A2"]
    for k in range(n + 1):
        det = a10[k + 1] * a20[k + 2] - a20[k + 1] * a10[k + 2]
        assert det == (-1) ** (k + 1) * b0[k + 1] / prod(t.a(j) for j in range(2, k + 3))


def test_origin_system_is_singular_where_b_vanishes():
    """On c, b, a = 1, B_2(0) = 0 makes M_1 singular whatever nu is, and
    the system names that zero, as the reconstruction does on the same
    matrix."""
    t = _constant_bands(1, 1, 1)
    for nu in (F(-1), F(2, 3)):
        [((a1, a2), _)] = _values(t, 4, (0,), ("A1", "A2"), nu)
        with pytest.raises(ZeroAtOrigin) as err:
            darboux._origin_system(a1, a2, 1)
        assert (err.value.n, err.value.which) == (2, "B")


def test_verify_christoffel_ones(t_ones, ones_alphas):
    assert verify_christoffel(t_ones, ones_alphas, 4) is None
    assert CHRISTOFFEL_IDENTITIES == (
        "tilde_b", "tildetilde_b", "hat_a1", "tilde_a2",
        "tildetilde_a1", "tildetilde_a2",
    )


@settings(max_examples=10, derandomize=True)
@given(st.integers(min_value=0, max_value=150))
def test_verify_christoffel_random_pbf(seed):
    alphas = pbf_corpus(seed, 1, count=23)[0]
    t = tetra_from_alphas(alphas)
    assert verify_christoffel(t, alphas, 6) is None


def test_akv_sign_checks_ones(t_ones, ones_alphas):
    xs = (F(0), F(1, 2), F(1), F(10))
    report = akv_sign_checks(t_ones, ones_alphas, 5, xs)
    assert report.checked == 12 * 6 * 4
    assert report.max_value == 0
    assert report.zeros_at_origin >= 1


@settings(max_examples=8, derandomize=True)
@given(st.integers(min_value=0, max_value=100))
def test_akv_sign_checks_random_pbf(seed):
    alphas = pbf_corpus(seed, 1, count=28)[0]
    t = tetra_from_alphas(alphas)
    report = akv_sign_checks(t, alphas, 6, (F(0), F(1), F(7, 2)))
    assert report.max_value <= 0
    assert report.zeros_at_origin >= 1


def _akv_oracle(t, alphas, n, xs):
    """The AKV evaluation with polynomials: B, B^(1), B^(2) and their hat and
    hathat brackets built as polynomials, then evaluated by Horner at each x.
    Returns the AkvReport fields, or the fields of the first positive
    determinant."""
    nu = F(-1) / alphas.at(2)
    b1, b2, _ = second_kind_sequences(t, n + 2, nu)
    base = (tuple(type2_sequence(t, n + 2)), tuple(b1), tuple(b2))
    a = alphas.at

    def hat(v, k):
        out = v[k + 1] + v[k].scale(a(3 * k + 1) + a(3 * k))
        return out + v[k - 1].scale(a(3 * k) * a(3 * k - 2)) if k >= 1 else out

    families = (
        base,
        tuple(tuple(hat(v, k) for k in range(n + 2)) for v in base),
        tuple(tuple(v[k + 1] + v[k].scale(a(3 * k + 1)) for k in range(n + 2)) for v in base),
    )
    best, checked, zeros = None, 0, 0
    for x in xs:
        vals = [[[p(x) for p in strand] for strand in family] for family in families]
        for det_id, (top, shift, bottom, comp) in enumerate(darboux._AKV_DETS, start=1):
            for k in range(n + 1):
                value = (vals[top][0][k + shift] * vals[bottom][comp][k]
                         - vals[top][comp][k + shift] * vals[bottom][0][k])
                checked += 1
                if value > 0:
                    return ("violation", det_id, k, x, value)
                zeros += x == 0 and value == 0
                if best is None or value > best[0]:
                    best = (value, (det_id, k, x))
    return ("report", checked, best[0], best[1], zeros)


POSITIVE = st.builds(F, st.integers(1, 9), st.integers(1, 9))


@settings(max_examples=30, derandomize=True)
@given(
    st.lists(POSITIVE, min_size=32, max_size=32),
    st.one_of(st.none(), st.lists(POSITIVE, min_size=32, max_size=32)),
    st.integers(0, 7),
    st.lists(st.builds(F, st.integers(0, 20), st.integers(1, 6)), min_size=1, max_size=4),
)
def test_akv_sign_checks_match_polynomial_oracle(alpha_values, other, n, xs):
    """Values at x through the scalar recurrence give the same report as the
    polynomials evaluated at x; a matrix built from other alphas breaks the
    signs, and the first violation must agree too."""
    alphas = AlphaSequence(values=tuple(alpha_values))
    t = tetra_from_alphas(AlphaSequence(values=tuple(other or alpha_values)))
    want = _akv_oracle(t, alphas, n, xs)
    if want[0] == "violation":
        with pytest.raises(SignViolation) as exc:
            akv_sign_checks(t, alphas, n, xs)
        e = exc.value
        assert ("violation", e.det_id, e.n, e.x, e.value) == want
    else:
        r = akv_sign_checks(t, alphas, n, xs)
        assert ("report", r.checked, r.max_value, r.max_location, r.zeros_at_origin) == want


def test_akv_oracle_sees_a_violation(ones_alphas):
    # the mismatched-matrix branch of the test above is not vacuous
    alphas = pbf_corpus(3, 1, count=28)[0]
    want = _akv_oracle(tetra_from_alphas(alphas), ones_alphas, 4, (F(0), F(1)))
    assert want[0] == "violation"


def test_verify_christoffel_perturbed_band(ones_alphas):
    """Any band perturbation refutes the correspondence at the first
    (k, identity) it touches: b_1 enters A1_2, hence tildetilde_a1 at k = 0."""
    tbad = tetra_from_bands(
        a=[F(1)] * 4, b=[F(5, 2)] + [F(3)] * 4, c=[F(1)] + [F(3)] * 5
    )
    with pytest.raises(IdentityViolation) as exc:
        verify_christoffel(tbad, ones_alphas, 1)
    assert (exc.value.name, exc.value.n) == ("tildetilde_a1", 0)


def _first_christoffel_failure(t, alphas, n):
    """Reference search for the first failing (identity, k), k <= n, in
    (k, identity) order.  Each identity compares x times a transformed
    polynomial, written as its alpha bracket of B or (A1, A2), with the
    origin-value expression; a bracket with a nonzero constant term is not
    x times a polynomial."""
    at = alphas.at
    b = type2_sequence(t, n + 1)
    a1, a2 = type1_sequences(t, n + 2, -1 / at(2))

    def fails(over_x, lhs, rhs):
        return (over_x and lhs.constant != 0) or lhs != rhs

    for k in range(n + 1):
        u = [p.constant for p in a1[k : k + 3]]
        w = [p.constant for p in a2[k : k + 3]]
        lhs = b[k + 1] + b[k].scale(at(3 * k + 1) + at(3 * k))
        rhs = b[k + 1] + b[k].scale((a1[k - 1].constant if k else 0) / u[0] + t.c(k))
        if k:
            lhs = lhs + b[k - 1].scale(at(3 * k) * at(3 * k - 2))
            rhs = rhs - b[k - 1].scale(u[1] / u[0] * t.a(k + 1))
        if fails(True, lhs, rhs):
            return "tilde_b", k
        if fails(True, b[k + 1] + b[k].scale(at(3 * k + 1)),
                 b[k + 1] - b[k].scale(b[k + 1].constant / b[k].constant)):
            return "tildetilde_b", k
        if fails(False, a2[k] + a2[k + 1].scale(at(3 * k + 2)),
                 a2[k] - a2[k + 1].scale(u[0] / u[1])):
            return "hat_a1", k
        if fails(True, a1[k] + a1[k + 1].scale(at(3 * k + 2)),
                 a1[k] - a1[k + 1].scale(u[0] / u[1])):
            return "tilde_a2", k
        det = u[1] * w[2] - w[1] * u[2]
        s1, s2 = (u[0] * w[2] - w[0] * u[2]) / det, (u[1] * w[0] - w[1] * u[0]) / det
        for name, v in (("tildetilde_a1", a1), ("tildetilde_a2", a2)):
            lhs = (v[k] + v[k + 1].scale(at(3 * k + 2) + at(3 * k + 3))
                   + v[k + 2].scale(at(3 * k + 5) * at(3 * k + 3)))
            if fails(True, lhs, v[k] - v[k + 1].scale(s1) - v[k + 2].scale(s2)):
                return name, k
    return None


def _ones_bands_perturbed(t_ones, band, index):
    """Explicit all-ones bands with entry ``index`` of ``band`` raised by 1/2."""
    starts = {"a": 2, "b": 1, "c": 0}
    bands = {
        name: [getattr(t_ones, name)(j) for j in range(start, start + 12)]
        for name, start in starts.items()
    }
    bands[band][index - starts[band]] += F(1, 2)
    return tetra_from_bands(**bands)


@pytest.mark.parametrize(
    "band, index",
    [("a", j) for j in range(2, 7)] + [("b", j) for j in range(1, 6)] + [("c", j) for j in range(5)],
)
def test_verify_christoffel_reports_first_failure(t_ones, ones_alphas, band, index):
    """A refuted correspondence is reported under the failing identity's own
    name, at the first failure in (k, identity) order."""
    tbad = _ones_bands_perturbed(t_ones, band, index)
    with pytest.raises(IdentityViolation) as exc:
        verify_christoffel(tbad, ones_alphas, 4)
    found = (exc.value.name, exc.value.n)
    assert found == _first_christoffel_failure(tbad, ones_alphas, 4)
    assert found[0] in CHRISTOFFEL_IDENTITIES
    if band == "c":
        assert found == ("tilde_b", index)
    if (band, index) == ("a", 2):
        assert found == ("tildetilde_a1", 0)


#: A pair whose first Christoffel failure has a polynomial residual: the
#: matrix is not the one the alphas factor, and tildetilde_a1 fails at k = 0
#: with residual x (the CI entry-point step runs the same pair).
POLY_RESIDUAL_ALPHAS = AlphaSequence(tuple(map(F, ["1", "1", "2", "2/3", "2/3", "3", "1", "2/3"])))
POLY_RESIDUAL_MATRIX = tetra_from_bands(
    a=[F(2, 3), F(4, 3)], b=[F(2), F(28, 9), F(11, 3)], c=[F(1), F(8, 3), F(14, 3), F(8, 3)]
)


def test_verify_christoffel_builds_polynomials_only_for_a_failure(monkeypatch, t_ones, ones_alphas):
    """A passing run reads origin values alone; a failure with a polynomial
    residual builds each base family once, to form that residual."""
    calls = {"type2": 0, "type1": 0}

    def counting(key, build):
        def wrapper(*args):
            calls[key] += 1
            return build(*args)
        return wrapper

    monkeypatch.setattr(darboux, "type2_sequence", counting("type2", darboux.type2_sequence))
    monkeypatch.setattr(darboux, "type1_sequences", counting("type1", darboux.type1_sequences))
    verify_christoffel(t_ones, ones_alphas, 4)
    assert calls == {"type2": 0, "type1": 0}
    with pytest.raises(IdentityViolation) as exc:
        verify_christoffel(POLY_RESIDUAL_MATRIX, POLY_RESIDUAL_ALPHAS, 1)
    assert (exc.value.name, exc.value.n, exc.value.residual) == ("tildetilde_a1", 0, Poly([0, 1]))
    assert calls == {"type2": 1, "type1": 1}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_verify_christoffel_matches_the_polynomial_oracle(seed):
    """Consistent pairs, one alpha moved, unrelated and too short matrices,
    and perturbed bands: a pass (None), or the error's type, message, args,
    name, index, residual and residual type, equals the polynomial form's.
    The set holds failures with a constant and with a Poly residual."""
    residuals = set()
    for t, alphas, n in oracle_christoffel.comparison_cases(seed, 150):
        want = oracle_christoffel.outcome(oracle_christoffel.verify_christoffel, t, alphas, n)
        got = oracle_christoffel.outcome(verify_christoffel, t, alphas, n)
        assert got == want, (n, want)
        if isinstance(want, tuple) and want[0] is IdentityViolation:
            residuals.add(want[-1])
    assert residuals == {F, Poly}


def _identity_calls(monkeypatch, module, t, alphas, n):
    """The arguments of every _check_identity call ``module`` makes, none of
    them allowed to raise, up to the end or the first other error."""
    calls = []
    monkeypatch.setattr(module, "_check_identity", lambda *args, **kwargs: calls.append(args))
    try:
        module.verify_christoffel(t, alphas, n)
    except TetraError:
        pass
    return calls


def test_christoffel_scalars_are_the_polynomial_identities(monkeypatch):
    """At every (k, identity), not only at the first failure: lhs(0) is the
    constant term of the oracle's left side (None for hat_a1, which is no
    multiple of x), and the scalar terms sum to the oracle's lhs - rhs.
    Each lhs(0) and scalar is an (int numerator, positive int denominator)
    pair, read as the Fraction it stands for."""
    cases = oracle_christoffel.comparison_cases(4, 40)
    cases.append((POLY_RESIDUAL_MATRIX, POLY_RESIDUAL_ALPHAS, 1))
    checked = 0
    for t, alphas, n in cases:
        want = _identity_calls(monkeypatch, oracle_christoffel, t, alphas, n)
        got = _identity_calls(monkeypatch, darboux, t, alphas, n)
        assert len(got) == len(want)
        if not want:
            continue
        bases = {"B": type2_sequence(t, n + 1)}
        bases["A1"], bases["A2"] = type1_sequences(t, n + 2, F(-1) / alphas.at(2))
        for (name, k, lhs, rhs, *_), (got_name, got_k, constant, terms, _) in zip(want, got):
            assert (got_name, got_k) == (name, k)
            pairs = [s for s, _, _ in terms] + ([] if constant is None else [constant])
            assert all(type(num) is int and type(den) is int and den > 0 for num, den in pairs), (name, k)
            want_constant = None if name == "hat_a1" else lhs.constant
            assert (constant if constant is None else F(*constant)) == want_constant, (name, k)
            residual = sum((bases[family][index].scale(F(*s)) for s, family, index in terms), Poly())
            assert residual == lhs - rhs, (name, k)
            checked += 1
    assert checked > 1000, checked


def test_akv_rejects_negative_sample(t_ones, ones_alphas):
    with pytest.raises(ValueError):
        akv_sign_checks(t_ones, ones_alphas, 2, (F(-1),))


def test_akv_sign_checks_requires_pbf(t_ones):
    # a TN-but-not-PBF sequence (one zero entry) is rejected up front
    vals = [F(1)] * 28
    vals[4] = F(0)
    alphas = AlphaSequence(values=tuple(vals))
    with pytest.raises(TetraError):
        akv_sign_checks(t_ones, alphas, 3, (F(0),))


def test_explicit_scalars_must_be_exact():
    # floats are refused where explicit values enter, so no operation sees one
    with pytest.raises(TypeError):
        tetra_from_bands(a=[1.0], b=[F(1), F(1)], c=[F(2), F(2), F(2)])
    with pytest.raises(TypeError):
        tetra_from_bands(a=[F(1)], b=[F(1), F(1)], c=[F(2), 2.0, F(2)])
    with pytest.raises(TypeError):
        AlphaSequence(values=(F(1), 0.5))
    # ints are exact, and int inputs give exact results
    t = tetra_from_bands(a=[1], b=[1, 1], c=[2, 2, 2])
    alphas = AlphaSequence(values=(1,) * 10)
    a1, a2 = type1_sequences(t, 2, F(1))
    assert all(isinstance(c, (int, F)) for p in (*a1, *a2) for c in p.coeffs)
    assert isinstance(transformed_type1(tetra_from_alphas(alphas), alphas, 1).nu, F)
    assert isinstance(leading_principal(t, 2).det(), F)
