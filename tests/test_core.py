"""Band accessors, alpha sequences, and the dense exact-arithmetic kernel."""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tetrahess import (
    AlphaSequence,
    BandExhausted,
    Classification,
    DenseMatrix,
    IndexOutOfRange,
    JPParams,
    NonPositiveSubSubDiagonal,
    Poly,
    TetraHessenberg,
    Variant,
    alpha_factor_matrices,
    bands_from_alphas,
    darboux_transforms,
    jp_alphas,
    leading_principal,
    tetra_from_alphas,
    trailing_truncation,
    type2_sequence,
)
from tetrahess.core import _factor_bands, _interleave, _split_alphas
from tetrahess.scalars import format_scalar

import random

import oracle_bands
import oracle_charpoly
from conftest import pbf_corpus, random_band_matrix

rationals = st.fractions(min_value=F(-4), max_value=F(4), max_denominator=5)
positive_rationals = st.fractions(min_value=F(1, 5), max_value=F(4), max_denominator=5)


class TestBand:
    """The accessors c, b and a read the band tuples from rows 0, 1 and 2."""

    def test_explicit_values(self):
        t = TetraHessenberg(a=(F(7),), b=(F(5), F(6)), c=(F(2), F(3), F(4)))
        assert (t.c(0), t.c(1), t.c(2), t.b(1), t.b(2), t.a(2)) == (2, 3, 4, 5, 6, 7)
        assert t.c_band == (F(2), F(3), F(4)) and type(t.c_band) is tuple
        assert t.materializable_n() == 2
        with pytest.raises(BandExhausted):
            t.c(3)
        for read, start in ((t.c, 0), (t.b, 1), (t.a, 2)):
            with pytest.raises(IndexOutOfRange) as info:
                read(start - 1)
            assert str(info.value) == f"band {read.__name__!r} starts at {start}, got {start - 1}"

    def test_band_exhausted_names_band_index_and_count(self):
        t = TetraHessenberg(a=(), b=(F(1), F(2), F(3)), c=(F(1),) * 5)
        assert t.b(3) == 3
        with pytest.raises(BandExhausted) as info:
            t.b(4)
        assert (info.value.band, info.value.index, info.value.length) == ("b", 4, 3)
        assert t.materializable_n() == 1  # an empty a holds rows up to 1
        with pytest.raises(BandExhausted) as info:
            t.a(2)
        assert (info.value.band, info.value.index, info.value.length) == ("a", 2, 0)
        assert str(info.value) == "band 'a' holds 0 entries; index 2 is out of range"

    def test_shifted_reindexes(self):
        t = TetraHessenberg(a=(F(7), F(8), F(9)), b=(F(4), F(5), F(6)), c=(F(1), F(2), F(3)))
        shifted = t.shifted(1)
        assert (shifted.c(0), shifted.c(1), shifted.b(1), shifted.b(2), shifted.a(2)) == (2, 3, 5, 6, 8)
        assert (shifted.c_band, shifted.b_band, shifted.a_band) == ((F(2), F(3)), (F(5), F(6)), (F(8), F(9)))
        assert t.shifted(2).c(0) == 3


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

    @pytest.mark.parametrize("read", ["prefix", "classify"])
    def test_reading_past_the_end(self, read):
        alphas = AlphaSequence(values=(F(1), F(0), F(3)))
        with pytest.raises(BandExhausted) as info:
            getattr(alphas, read)(5)
        assert (info.value.band, info.value.index, info.value.length) == ("alpha", 4, 3)
        assert str(info.value) == "band 'alpha' holds 3 entries; index 4 is out of range"

    def test_short_sequence_with_a_negative_is_indefinite(self):
        # the negative entry decides before the end of the values is reached
        alphas = AlphaSequence(values=(F(1), F(-1), F(0)))
        assert alphas.classify(7) is Classification.INDEFINITE

    @pytest.mark.parametrize("count", [0, -2])
    def test_nonpositive_count_reads_nothing(self, count):
        alphas = AlphaSequence(values=(F(-1), F(0)))
        assert alphas.prefix(count) == ()
        assert alphas.classify(count) is Classification.PBF


ONES_BANDS = {
    # c_n = 1, 3, 3, ...   b_n = 2, 3, 3, ...   a_n = 1, 1, ...
    "c": (F(1), F(3), F(3), F(3)),
    "b": (F(2), F(3), F(3)),
    "a": (F(1), F(1)),
}


def test_bands_from_all_ones_alphas(ones_alphas):
    c, b, a = bands_from_alphas(ones_alphas)
    assert (type(c), type(b), type(a)) == (tuple, tuple, tuple)
    assert c[:4] == ONES_BANDS["c"]
    assert b[:3] == ONES_BANDS["b"]
    assert a[:2] == ONES_BANDS["a"]


def test_band_formulas_at_low_indices():
    # alpha_j = j keeps every product distinguishable
    alphas = AlphaSequence(values=range(1, 13))
    c, b, _ = bands_from_alphas(alphas)
    assert c[0] == 1
    assert c[1] == 4 + 3 + 2
    assert b[0] == 3 * 1 + 2 * 1  # b_1: alpha_0 terms vanish
    assert b[1] == 6 * 4 + 5 * 4 + 5 * 3  # b_2


def test_tetra_from_alphas_rejects_nonpositive_a():
    # a_2 = alpha_5 alpha_3 alpha_1 = 0 here
    alphas = AlphaSequence(values=(F(1), F(1), F(1), F(1), F(0), F(1), F(1)))
    with pytest.raises(NonPositiveSubSubDiagonal):
        tetra_from_alphas(alphas)


def test_leading_principal_matches_entries(t_ones):
    m = leading_principal(t_ones, 2)
    assert m.to_lists() == [
        [F(1), F(1), F(0)],
        [F(2), F(3), F(1)],
        [F(1), F(3), F(3)],
    ]


def test_materializable_n_tracks_shortest_band():
    t = TetraHessenberg(a=[F(1)], b=[F(1), F(1)], c=[F(1), F(1), F(1)])
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


def random_lower_hessenberg(rng, n, ints=False):
    """Dense n x n lower Hessenberg Fraction matrix; about a third of the
    entries on and below the superdiagonal are zero, and the superdiagonal
    is not unit.  With ``ints`` every entry is an int instead."""
    zero = 0 if ints else F(0)

    def entry():
        if rng.random() < 0.3:
            return zero
        value = rng.randint(-5, 5)
        return value if ints else F(value, rng.randint(1, 3))

    return DenseMatrix([[entry() if j <= i + 1 else zero for j in range(n)] for i in range(n)])


def _sympy_char_poly(m):
    """det(xI - m) by sympy, ascending, as Fractions."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    sm = sympy.Matrix(m.n, m.n, [sympy.Rational(F(v).numerator, F(v).denominator) for r in m.rows for v in r])
    return [F(int(c.p), int(c.q)) for c in sympy.Poly(sm.charpoly(x).as_expr(), x).all_coeffs()[::-1]]


class TestLeadingCharPolys:
    def assert_matches_oracles(self, m):
        """Every leading block against Faddeev-LeVerrier, the whole matrix
        against sympy."""
        polys = m.leading_char_polys()
        assert len(polys) == m.n + 1
        for k, p in enumerate(polys):
            block = m.submatrix(range(k), range(k))
            assert p == block.char_poly(), (k, m)
        assert list(polys[-1].coeffs) == _sympy_char_poly(m)

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
        rng = random.Random(12)
        for n in range(9):
            m = random_lower_hessenberg(rng, n)
            assert list(m.leading_char_polys()[-1].coeffs) == _sympy_char_poly(m)

    def test_int_entries(self):
        rng = random.Random(13)
        for n in range(1, 8):
            m = random_lower_hessenberg(rng, n, ints=True)
            assert all(type(v) is int for row in m.rows for v in row)
            self.assert_matches_oracles(m)

    def test_empty_matrix_gives_one(self):
        assert DenseMatrix(()).leading_char_polys() == [Poly((F(1),))]

    def test_large_coprime_denominators(self):
        """A different large prime in each row, so D is their product and no
        row's denominator is a multiple of another's."""
        primes = (10007, 65537, 999983, 1000003, 2147483647, 4294967291, 998244353)
        rng = random.Random(14)
        for n in range(1, 8):
            for _ in range(3):
                m = random_lower_hessenberg(rng, n)
                m = DenseMatrix([[F(v) / primes[i] for v in row] for i, row in enumerate(m.rows)])
                self.assert_matches_oracles(m)

    def test_zero_and_non_unit_superdiagonal(self):
        """Superdiagonals of 0, 1, -1 and 7/3 under a full lower triangle:
        each chain m_{j,j+1} ... m_{k-1,k} reaches row 0."""
        rng = random.Random(15)
        for n in range(2, 8):
            for supers in ((0,), (1,), (-1,), (F(7, 3),), (0, F(7, 3), -2)):
                m = DenseMatrix([
                    [F(rng.randint(1, 9), rng.choice((1, 2, 5))) if j <= i else F(rng.choice(supers)) if j == i + 1 else F(0)
                     for j in range(n)]
                    for i in range(n)
                ])
                self.assert_matches_oracles(m)

    def test_reads_a_zero_and_a_non_unit_superdiagonal(self):
        # det(xI - M) = (x - 1)(x - 2) - 3 * 5 for the 2 x 2 block
        m = DenseMatrix([[F(1), F(3), F(0)], [F(5), F(2), F(0)], [F(7), F(1), F(4)]])
        polys = m.leading_char_polys()
        assert polys[2].coeffs == (F(-13), F(-3), F(1))
        # the zero superdiagonal entry cuts row 2 off from the block above it
        assert polys[3] == polys[2] * Poly((F(-4), F(1)))

    def test_tetradiagonal_truncations_give_type2(self, t_ones):
        polys = leading_principal(t_ones, 6).leading_char_polys()
        assert polys == type2_sequence(t_ones, 7)

    @settings(max_examples=40, derandomize=True, deadline=None)  # the first call imports sympy
    @given(st.integers(0, 10**6), st.integers(0, 10), st.integers(1, 12))
    def test_against_the_global_lcm_form_and_sympy(self, seed, n, height):
        """Random banded lower Hessenberg matrices: rational entries of
        height up to 12, a random lower bandwidth, zeros, and superdiagonal
        entries that may be 0 or non-unit.  Every leading block's polynomial
        is the one the global-lcm form gives, canonical (Poly equality
        compares num and den), and the whole matrix's is sympy's.  Row
        scales that are not the least, as the band builders may hand over,
        give the same polynomials."""
        rng = random.Random(seed)
        width = rng.randint(0, n)

        def entry(i, j):
            if j > i + 1 or i - j > width or rng.random() < 0.2:
                return F(0)
            return F(rng.randint(-height, height), rng.randint(1, height))

        m = DenseMatrix([[entry(i, j) for j in range(n)] for i in range(n)])
        polys = m.leading_char_polys()
        assert polys == oracle_charpoly.leading_char_polys(m)
        ints, scales = m.scaled
        factors = [rng.randint(1, 6) for _ in scales]
        rescaled = DenseMatrix._from_scaled(
            tuple(tuple(v * f for v in row) for row, f in zip(ints, factors)),
            tuple(s * f for s, f in zip(scales, factors)),
        )
        assert rescaled.leading_char_polys() == polys
        assert list(polys[-1].coeffs) == _sympy_char_poly(m)

    @pytest.mark.parametrize("n", (0, 1, 5, 14, 20))
    def test_ones_and_jp_r3_truncations(self, t_ones, n):
        """The ones matrix and JP-R3 (the AKV alphas at (0, 1/2, 0)): T^[N]
        and its two trailing blocks, as the charpoly suite takes them, against
        the global-lcm form, and T^[N] against sympy up to N = 5."""
        jp = tetra_from_alphas(jp_alphas(JPParams(0, F(1, 2), 0), Variant.AKV, 3 * n + 6))
        for t in (t_ones, jp):
            m = leading_principal(t, n)
            ints, scales = m.scaled
            for k in (0, 1, 2):
                block = DenseMatrix._from_scaled(tuple(r[k:] for r in ints[k:]), scales[k:])
                assert block.leading_char_polys() == oracle_charpoly.leading_char_polys(block), (t, n, k)
            if n <= 5:
                assert list(m.leading_char_polys()[-1].coeffs) == _sympy_char_poly(m)

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


def test_tetrahessenberg_band_budget():
    t = TetraHessenberg(a=[F(1), F(2)], b=[F(1), F(1), F(1)], c=[F(1)] * 4)
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
    """The band tuples (c, b, a) are exactly the wanted tuples."""
    assert tuple(map(type, bands)) == (tuple, tuple, tuple)
    assert tuple(bands) == want


def assert_matrix(t, want):
    """The matrix holds the wanted bands, reads each from its fixed start
    and raises BandExhausted naming the band, the index and the count one
    row past its end."""
    assert_bands((t.c_band, t.b_band, t.a_band), want)
    assert t.materializable_n() == len(want[0]) - 1
    for read, name, values, start in zip((t.c, t.b, t.a), "cba", want, (0, 1, 2)):
        assert tuple(read(start + i) for i in range(len(values))) == values
        past = start + len(values)
        with pytest.raises(BandExhausted) as info:
            read(past)
        assert (info.value.band, info.value.index, info.value.length) == (name, past, len(values))


def first_nonpositive(a_values):
    return next(((n, v) for n, v in enumerate(a_values, start=2) if not v > 0), None)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.lists(alpha_values, max_size=40))
@example([F(1, 2), -3, 0, F(-4, 5), 2, F(7, 3)] * 5)
@example([F(1, 2), -3, 0, F(-4, 5), 2, F(7, 3)] * 5 + [F(5, 3)])
@example([F(1, 2), -3, 0, F(-4, 5), 2, F(7, 3)] * 5 + [F(5, 3), -1])
def test_bands_from_alphas_are_the_closed_forms(alpha):
    """Ints, Fractions, zeros and negative alphas (bands_from_alphas serves
    sign studies), with an example of each length residue mod 3; the bands
    of T and of both Darboux transforms are also the Fraction reference's."""
    assert_bands(bands_from_alphas(AlphaSequence(values=alpha)), closed_form_bands(alpha))
    assert_reference_bands(AlphaSequence(values=alpha))


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
    got_hat, got_hathat = darboux_transforms(AlphaSequence(values=alpha))
    assert_matrix(got_hat, hat)
    assert_matrix(got_hathat, hathat)


# -- the int-pair band builder against its Fraction reference ---------------

ROTATIONS = (None, "hat", "hathat")


def assert_reference_bands(alphas):
    """_factor_bands on the factors of T and of both Darboux transforms
    gives the bands that term-by-term Fraction arithmetic gives
    (oracle_bands), every entry a Fraction that prints as the reference
    entry does; bands_from_alphas is the unrotated one."""
    for which in ROTATIONS:
        got = _factor_bands(*oracle_bands.rotated(alphas, which))
        want = oracle_bands.bands(alphas, which)
        assert got == want, which
        assert all(type(v) is F for band in got for v in band)
        assert [list(map(format_scalar, band)) for band in got] == [[format_scalar(v) for v in band] for band in want]
    assert bands_from_alphas(alphas) == _factor_bands(*oracle_bands.rotated(alphas, None))


@pytest.mark.parametrize("j", range(1, 10))
def test_factor_bands_are_the_fraction_reference_at_5000_digits(j):
    """alpha_j of 5000 digits over 3^40 (negative at even j), among alphas
    with distinct small denominators, so that each band entry reading it
    carries a 5000-digit numerator or denominator."""
    alpha = [F(i + 2, 2 * i + 3) for i in range(9)]
    alpha[j - 1] = oracle_bands.BIG if j % 2 else -oracle_bands.BIG
    assert_reference_bands(AlphaSequence(values=alpha))


def test_int_alphas_give_fraction_bands_equal_to_the_int_products():
    """All-int alphas give Fraction band entries: equal to the int products
    by ==, and printed the same."""
    alphas = AlphaSequence(values=range(1, 14))
    c, b, a = bands_from_alphas(alphas)
    want = oracle_bands.bands(alphas)
    assert (c, b, a) == want and all(type(v) is int for band in want for v in band)
    assert all(type(v) is F and v.denominator == 1 for v in c + b + a)
    assert [str(v) for v in c + b + a] == [str(v) for band in want for v in band]
