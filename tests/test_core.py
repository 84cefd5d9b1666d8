"""Band containers, alpha sequences, and the dense exact-arithmetic kernel."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetrahess import (
    AlphaSequence,
    BandExhausted,
    Classification,
    DenseMatrix,
    IndexOutOfRange,
    NonPositiveSubSubDiagonal,
    Poly,
    alpha_factor_matrices,
    bands_from_alphas,
    darboux_transforms,
    leading_principal,
    tetra_from_alphas,
    tetra_from_bands,
    trailing_truncation,
    type2_sequence,
)
from tetrahess.core import Band, _interleave, _split_alphas

import random

from conftest import pbf_corpus, random_band_matrix

rationals = st.fractions(min_value=F(-4), max_value=F(4), max_denominator=5)
positive_rationals = st.fractions(min_value=F(1, 5), max_value=F(4), max_denominator=5)


class TestBand:
    def test_explicit_values(self):
        band = Band("c", 0, values=(F(2), F(3)))
        assert band.get(0) == 2
        assert band.get(1) == 3
        assert band.last_index == 1
        with pytest.raises(BandExhausted):
            band.get(2)
        with pytest.raises(IndexOutOfRange):
            band.get(-1)

    def test_band_exhausted_names_band_index_and_count(self):
        band = Band("b", 1, (F(1), F(2), F(3)))
        assert band.get(3) == 3
        with pytest.raises(BandExhausted) as info:
            band.get(4)
        assert (info.value.band, info.value.index, info.value.length) == ("b", 4, 3)
        empty = Band("a", 2, ())
        assert empty.last_index == 1
        with pytest.raises(BandExhausted) as info:
            empty.get(2)
        assert (info.value.band, info.value.index, info.value.length) == ("a", 2, 0)

    def test_shifted_reindexes(self):
        band = Band("c", 0, values=(F(1), F(2), F(3)))
        assert band.shifted(2).get(0) == 3


class TestAlphaSequence:
    def test_nonpositive_indices_are_zero(self):
        alphas = AlphaSequence(values=(F(5),))
        assert alphas.at(0) == 0
        assert alphas.at(-7) == 0
        assert alphas.at(1) == 5

    def test_prefix_and_length(self):
        alphas = AlphaSequence(values=(F(1), F(2), F(3)))
        assert alphas.prefix(2) == (F(1), F(2))
        assert alphas.length == 3
        with pytest.raises(BandExhausted):
            alphas.at(4)

    def test_classify(self):
        assert AlphaSequence(values=(F(1), F(2))).classify() is Classification.PBF
        assert AlphaSequence(values=(F(1), F(0))).classify() is Classification.TN
        assert AlphaSequence(values=(F(1), F(-1))).classify() is Classification.INDEFINITE
        # a zero before a negative still reads as indefinite
        assert AlphaSequence(values=(F(0), F(-1))).classify() is Classification.INDEFINITE


ONES_BANDS = {
    # c_n = 1, 3, 3, ...   b_n = 2, 3, 3, ...   a_n = 1, 1, ...
    "c": (F(1), F(3), F(3), F(3)),
    "b": (F(2), F(3), F(3)),
    "a": (F(1), F(1)),
}


def test_bands_from_all_ones_alphas(ones_alphas):
    c, b, a = bands_from_alphas(ones_alphas)
    assert (c.name, c.start, b.name, b.start, a.name, a.start) == ("c", 0, "b", 1, "a", 2)
    assert c.values[:4] == ONES_BANDS["c"]
    assert b.values[:3] == ONES_BANDS["b"]
    assert a.values[:2] == ONES_BANDS["a"]


def test_band_formulas_at_low_indices():
    # alpha_j = j keeps every product distinguishable
    alphas = AlphaSequence(values=range(1, 13))
    c, b, _ = bands_from_alphas(alphas)
    assert c.get(0) == 1
    assert c.get(1) == 4 + 3 + 2
    assert b.get(1) == 3 * 1 + 2 * 1  # alpha_0 terms vanish
    assert b.get(2) == 6 * 4 + 5 * 4 + 5 * 3


def test_tetra_from_alphas_rejects_nonpositive_a():
    # a_2 = alpha_5 alpha_3 alpha_1 = 0 here
    alphas = AlphaSequence(values=(F(1), F(1), F(1), F(1), F(0), F(1), F(1)))
    with pytest.raises(NonPositiveSubSubDiagonal):
        tetra_from_alphas(alphas)


def test_entry_layout(t_ones):
    assert t_ones.entry(0, 1) == 1  # unit superdiagonal
    assert t_ones.entry(0, 2) == 0
    assert t_ones.entry(3, 0) == 0  # below the second subdiagonal
    assert t_ones.entry(2, 0) == t_ones.a(2)
    assert t_ones.entry(2, 1) == t_ones.b(2)
    assert t_ones.entry(2, 2) == t_ones.c(2)


def test_leading_principal_matches_entries(t_ones):
    m = leading_principal(t_ones, 2)
    assert m.to_lists() == [
        [F(1), F(1), F(0)],
        [F(2), F(3), F(1)],
        [F(1), F(3), F(3)],
    ]


def test_materializable_n_tracks_shortest_band():
    t = tetra_from_bands(a=[F(1)], b=[F(1), F(1)], c=[F(1), F(1), F(1)])
    assert t.materializable_n() == 2
    with pytest.raises(BandExhausted):
        leading_principal(t, 3)


def test_trailing_truncation_equals_shifted_leading(t_ones):
    # T^[N, k] is the leading truncation of the k-shifted operator
    for n, k in ((4, 1), (4, 2), (3, 0), (5, 3)):
        direct = trailing_truncation(t_ones, n, k)
        via_shift = leading_principal(t_ones.shifted(k), n - k)
        assert direct == via_shift


@settings(max_examples=40, derandomize=True)
@given(st.integers(min_value=0, max_value=200), st.integers(min_value=2, max_value=8))
def test_trailing_truncation_shift_property(seed, n):
    rng = random.Random(seed)
    t = random_band_matrix(rng, n)
    k = rng.randint(0, n)
    assert trailing_truncation(t, n, k) == leading_principal(t.shifted(k), n - k)


class TestDenseMatrix:
    def test_det_2x2(self):
        m = DenseMatrix([[F(1), F(2)], [F(3), F(4)]])
        assert m.det() == -2

    def test_det_singular(self):
        m = DenseMatrix([[F(1), F(2)], [F(2), F(4)]])
        assert m.det() == 0

    def test_char_poly_known(self):
        m = DenseMatrix([[F(2), F(1)], [F(1), F(2)]])
        # x^2 - 4x + 3
        assert m.char_poly().coeffs == (F(3), F(-4), F(1))

    def test_char_poly_empty_matrix_is_one(self):
        assert DenseMatrix([]).char_poly().coeffs == (F(1),)

    def test_minor_is_submatrix_det(self):
        m = DenseMatrix([[F(i * 3 + j) for j in range(3)] for i in range(3)])
        assert m.minor((0, 1), (1, 2)) == m.submatrix((0, 1), (1, 2)).det()

    def test_mul_identity(self):
        m = DenseMatrix([[F(1), F(2)], [F(3), F(4)]])
        assert m.mul(DenseMatrix.identity(2)) == m

    def test_inexact_entries_are_refused(self):
        # the entry is named by its row and value; ints and Fractions pass
        with pytest.raises(TypeError, match=r"DenseMatrix row 1 .* float 0\.25"):
            DenseMatrix([[F(1), 2], [0.25, F(1, 3)]])
        with pytest.raises(TypeError, match="DenseMatrix row 0"):
            DenseMatrix([["1", 0], [0, 1]])
        assert DenseMatrix([[1, F(1, 2)], [0, 1]]).det() == 1

    def test_det_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(7)
        for _ in range(5):
            rows = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)] for _ in range(4)]
            m = DenseMatrix(rows)
            sm = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in r] for r in rows])
            assert sympy.Rational(m.det().numerator, m.det().denominator) == sm.det()


def random_lower_hessenberg(rng, n):
    """Dense n x n lower Hessenberg Fraction matrix; about a third of the
    entries on and below the superdiagonal are zero, and the superdiagonal
    is not unit."""

    def entry():
        return F(0) if rng.random() < 0.3 else F(rng.randint(-5, 5), rng.randint(1, 3))

    return DenseMatrix([[entry() if j <= i + 1 else F(0) for j in range(n)] for i in range(n)])


class TestLeadingCharPolys:
    def test_every_leading_block_matches_faddeev_leverrier(self):
        rng = random.Random(11)
        for n in range(9):
            for _ in range(6):
                m = random_lower_hessenberg(rng, n)
                polys = m.leading_char_polys()
                assert len(polys) == n + 1
                for k, p in enumerate(polys):
                    block = m.submatrix(range(k), range(k))
                    assert p == block.char_poly(), (n, k, m)

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = random.Random(12)
        for n in range(9):
            m = random_lower_hessenberg(rng, n)
            sm = sympy.Matrix(n, n, [sympy.Rational(v.numerator, v.denominator) for r in m.rows for v in r])
            want = sympy.Poly(sm.charpoly(x).as_expr(), x).all_coeffs()[::-1]
            got = m.leading_char_polys()[-1].coeffs
            assert [sympy.Rational(v.numerator, v.denominator) for v in got] == want

    def test_reads_a_zero_and_a_non_unit_superdiagonal(self):
        # det(xI - M) = (x - 1)(x - 2) - 3 * 5 for the 2 x 2 block
        m = DenseMatrix([[F(1), F(3), F(0)], [F(5), F(2), F(0)], [F(7), F(1), F(4)]])
        polys = m.leading_char_polys()
        assert polys[2].coeffs == (F(-13), F(-3), F(1))
        # the zero superdiagonal entry cuts row 2 off from the block above it
        assert polys[3] == polys[2] * Poly((F(-4), F(1)))

    def test_tetradiagonal_truncations_give_type2(self, t_ones):
        polys = leading_principal(t_ones, 6).leading_char_polys()
        assert polys == list(type2_sequence(t_ones, 7))

    def test_rejects_entry_above_superdiagonal(self):
        m = DenseMatrix([[F(1), F(1), F(0)], [F(0), F(1), F(1)], [F(0), F(0), F(1)]])
        assert len(m.leading_char_polys()) == 4
        bad = DenseMatrix([[F(1), F(1), F(2)], [F(0), F(1), F(1)], [F(0), F(0), F(1)]])
        with pytest.raises(ValueError, match="above the superdiagonal"):
            bad.leading_char_polys()


@settings(max_examples=30, derandomize=True)
@given(st.integers(min_value=0, max_value=500))
def test_alpha_factor_product_reproduces_truncation(seed):
    """L1 L2 U multiplied out must equal the leading truncation exactly."""
    rng = random.Random(seed)
    alphas = pbf_corpus(seed, 1, count=19)[0]
    n = rng.randint(1, 6)
    t = tetra_from_alphas(alphas)
    l1, l2, u = alpha_factor_matrices(alphas, n)
    assert l1.mul(l2).mul(u) == leading_principal(t, n)


@pytest.mark.parametrize("k", range(14))
def test_interleave_inverts_the_split(k):
    """The split puts alpha_{3n+1}, alpha_{3n-1} and alpha_{3n} in row n of
    u, p and q (p_0 = q_0 = 0), and the interleave puts them back, for
    3k + 1 random signed alphas."""
    rng = random.Random(k)
    alphas = AlphaSequence(F(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(3 * k + 1))
    u, p, q = _split_alphas(alphas.values)
    n_rows = k + 1
    assert u == tuple(alphas.at(3 * n + 1) for n in range(n_rows))
    assert p == tuple(alphas.at(3 * n - 1) for n in range(n_rows))
    assert q == tuple(alphas.at(3 * n) for n in range(n_rows))
    assert _interleave(u, p, q).values == alphas.values


def test_tetra_from_bands_band_budget():
    t = tetra_from_bands(a=[F(1), F(2)], b=[F(1), F(1), F(1)], c=[F(1)] * 4)
    assert t.a(3) == 2
    assert t.c(0) == 1
    with pytest.raises(BandExhausted):
        t.a(4)


# -- the alpha product bands against their per-row closed forms --------------

alpha_values = st.one_of(st.integers(min_value=-3, max_value=3), rationals)


def closed_form_bands(alpha, shift=0):
    """Rows of (c, b, a) written out from the product formulas with every
    alpha index moved ``shift`` places up (1: hat, 2: hathat).  A row exists
    exactly when it reads no alpha past the last one given."""
    k = len(alpha)

    def at(j):
        j += shift
        return alpha[j - 1] if j >= 1 else 0

    def rows(first, reach):
        n = first
        while reach(n) + shift <= k:
            yield n
            n += 1

    c = [at(3 * n + 1) + at(3 * n) + at(3 * n - 1) for n in rows(0, lambda n: 3 * n + 1)]
    b = [at(3 * n) * at(3 * n - 2) + at(3 * n - 1) * at(3 * n - 2) + at(3 * n - 1) * at(3 * n - 3)
         for n in rows(1, lambda n: 3 * n)]
    a = [at(3 * n - 1) * at(3 * n - 3) * at(3 * n - 5) for n in rows(2, lambda n: 3 * n - 1)]
    return tuple(c), tuple(b), tuple(a)


def assert_bands(bands, want):
    for band, name, start, values in zip(bands, "cba", (0, 1, 2), want):
        assert (band.name, band.start, band.values) == (name, start, values)
        past = start + len(values)
        assert band.last_index == past - 1
        with pytest.raises(BandExhausted) as info:
            band.get(past)
        assert (info.value.band, info.value.index, info.value.length) == (name, past, len(values))


def assert_matrix(t, want):
    assert_bands((t.c_band, t.b_band, t.a_band), want)
    assert t.materializable_n() == len(want[0]) - 1
    for read, band, start in ((t.c, want[0], 0), (t.b, want[1], 1), (t.a, want[2], 2)):
        with pytest.raises(BandExhausted):
            read(start + len(band))


def first_nonpositive(a_values):
    return next(((n, v) for n, v in enumerate(a_values, start=2) if not v > 0), None)


@settings(max_examples=150, derandomize=True)
@given(st.lists(alpha_values, max_size=40))
def test_bands_from_alphas_are_the_closed_forms(alpha):
    assert_bands(bands_from_alphas(AlphaSequence(values=alpha)), closed_form_bands(alpha))


@settings(max_examples=100, derandomize=True)
@given(st.lists(positive_rationals, max_size=40))
def test_tetra_from_pbf_alphas_is_the_closed_forms(alpha):
    assert_matrix(tetra_from_alphas(AlphaSequence(values=alpha)), closed_form_bands(alpha))


@settings(max_examples=150, derandomize=True)
@given(st.lists(alpha_values, max_size=40))
def test_tetra_from_alphas_refuses_the_first_nonpositive_a(alpha):
    want = closed_form_bands(alpha)
    bad = first_nonpositive(want[2])
    if bad is None:
        assert_matrix(tetra_from_alphas(AlphaSequence(values=alpha)), want)
        return
    with pytest.raises(NonPositiveSubSubDiagonal) as info:
        tetra_from_alphas(AlphaSequence(values=alpha))
    assert (info.value.n, info.value.value) == bad


@settings(max_examples=150, derandomize=True)
@given(st.lists(alpha_values, max_size=40))
def test_darboux_transforms_are_the_shifted_closed_forms(alpha):
    hat, hathat = closed_form_bands(alpha, 1), closed_form_bands(alpha, 2)
    bad = first_nonpositive(hat[2]) or first_nonpositive(hathat[2])
    if bad is not None:
        with pytest.raises(NonPositiveSubSubDiagonal) as info:
            darboux_transforms(AlphaSequence(values=alpha))
        assert (info.value.n, info.value.value) == bad
        return
    pair = darboux_transforms(AlphaSequence(values=alpha))
    assert_matrix(pair.hat, hat)
    assert_matrix(pair.hathat, hathat)
