"""Total nonnegativity scans and the two oscillation criteria."""

import random
from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetrahess import (
    JP_VERIFICATION_GRID,
    AlphaSequence,
    BandExhausted,
    DenseMatrix,
    DimensionCapExceeded,
    JPParams,
    TetraHessenberg,
    cli,
    core,
    is_oscillatory,
    is_oscillatory_power_oracle,
    is_totally_nonnegative,
    jp_dense_truncation,
    leading_principal,
    tetra_from_alphas,
    tncheck,
)
from tetrahess.core import _banded, bands_from_alphas
from tetrahess.tncheck import (
    POWER_ORACLE_CAP,
    _initial_minors_positive,
    _some_power_totally_positive,
)

import oracle_tn
from conftest import pbf_corpus


def dense(rows):
    return DenseMatrix([[F(v) for v in row] for row in rows])


def test_identity_is_tn_but_not_oscillatory():
    m = DenseMatrix.identity(3)
    assert is_totally_nonnegative(m).is_tn is True
    rep = is_oscillatory(m)
    # zero off-diagonal neighbors fail the neighbor-positivity test
    assert rep.is_oscillatory_gk is False


def test_inexact_matrix_is_refused_before_the_scan():
    # a float entry raises a TypeError naming it, never an AttributeError
    # from the integer minor table
    with pytest.raises(TypeError, match=r"DenseMatrix row 0 .* float 1\.5"):
        is_totally_nonnegative(DenseMatrix([[1.5, 0], [0, 1]]))


def test_negative_entry_is_order_one_witness():
    rep = is_totally_nonnegative(dense([[1, 2], [3, -1]]))
    assert rep.is_tn is False
    assert rep.witness == ((2,), (2,), F(-1))
    # a positive 3x3 matrix with its entry (i, j) made negative: that entry
    # is the first negative minor, the (i n + j + 1)-th of the enumeration;
    # made 0, it fails the total-positivity test at order 1
    for i in range(3):
        for j in range(3):
            cell, position = ((i + 1,), (j + 1,)), i * 3 + j + 1
            negative, zero = (
                dense([[v if (r, c) == (i, j) else r + 2 * c + 1 for c in range(3)] for r in range(3)])
                for v in (F(-2, 3), 0)
            )
            rep = is_totally_nonnegative(negative)
            assert (rep.is_tn, rep.witness, rep.minors_checked) == (False, (*cell, F(-2, 3)), position)
            assert oracle_tn.reference_scan(*zero.scaled, lambda v: v <= 0) == ((*cell, F(0)), position)
            assert _initial_minors_positive(zero.scaled[0]) is False


def test_symmetric_reference_witness(t_sym):
    """The classic 3x3 example: entrywise positive yet not TN."""
    rep = is_totally_nonnegative(leading_principal(t_sym, 2))
    assert rep.is_tn is False
    assert rep.witness == ((2, 3), (1, 2), F(-1))


def test_witness_is_the_unscaled_minor(t_sym):
    """Rows scaled by 1/2 and 1/3: the table scans the integer matrix, and
    the witness still carries the true minor of the input."""
    top, middle, bottom = leading_principal(t_sym, 2).rows
    m = DenseMatrix([top, [v / 2 for v in middle], [v / 3 for v in bottom]])
    rep = is_totally_nonnegative(m)
    assert rep.witness == ((2, 3), (1, 2), F(-1, 6))
    assert rep.witness[2] == m.minor((1, 2), (0, 1))
    # the nine entries, three column pairs each on rows (1, 2) and (1, 3), then
    # the first column pair on rows (2, 3)
    assert rep.minors_checked == 9 + 3 + 3 + 1


def test_dim8_pbf_truncation_is_certified():
    alphas = pbf_corpus(8, 1, count=25)[0]
    rep = is_totally_nonnegative(leading_principal(tetra_from_alphas(alphas), 7))
    assert rep.is_tn and rep.witness is None
    assert rep.minors_checked == 12869  # C(16, 8) - 1: every minor
    assert rep.is_nonsingular and rep.is_oscillatory_gk


def test_ones_truncations_are_oscillatory(t_ones):
    for n in (1, 2, 3, 4):
        m = leading_principal(t_ones, n)
        rep = is_oscillatory(m)
        assert rep.is_tn is True
        assert rep.is_nonsingular is True
        assert rep.is_oscillatory_gk is True


def test_power_oracle_agrees_with_gk(t_ones):
    for n in (1, 2, 3, 4):
        m = leading_principal(t_ones, n)
        assert is_oscillatory(m).is_oscillatory_gk == is_oscillatory_power_oracle(m)


def test_power_oracle_agrees_on_random_pbf():
    for seed in range(6):
        alphas = pbf_corpus(seed, 1, count=16)[0]
        m = leading_principal(tetra_from_alphas(alphas), 4)
        assert is_oscillatory(m).is_oscillatory_gk == is_oscillatory_power_oracle(m)


def test_power_oracle_false_for_non_tn(t_sym):
    m = leading_principal(t_sym, 2)
    assert is_oscillatory_power_oracle(m) is False


def test_minors_checked_counts_all_orders():
    rep = is_totally_nonnegative(dense([[1, 1], [1, 2]]))
    # 4 order-1 + 1 order-2
    assert rep.is_tn is True and rep.minors_checked == 5
    assert rep.conclusive


def test_mid_order_refutation_stops_inside_the_order():
    """alpha_16 = -1/10 on U's diagonal, every other alpha 1: no entry is
    negative, and the first negative minor is of order 4, the 1186th of
    the 1225 order-4 minors at dim 7, so the scan stops with that order
    partly filled."""
    alphas = [F(1)] * 19
    alphas[15] = F(-1, 10)
    m = _alpha_truncation(alphas)
    rep = is_totally_nonnegative(m)
    assert rep.witness == ((3, 5, 6, 7), (3, 4, 5, 6), F(-1, 5))
    assert rep.minors_checked == 49 + 441 + 1225 + 1186
    assert rep.is_nonsingular is True
    # alpha_1 = 0 as well: u_0 = 0, so det T = u_0 ... u_6 = 0, and the
    # same witness comes first
    alphas[0] = F(0)
    rep = is_totally_nonnegative(_alpha_truncation(alphas))
    assert rep.witness == ((3, 5, 6, 7), (3, 4, 5, 6), F(-1, 5))
    assert rep.minors_checked == 2901
    assert rep.is_nonsingular is False
    assert rep.is_oscillatory_gk is False


def test_dimension_cap():
    # the caps are fixed: the TN scan (and is_oscillatory) runs through
    # dimension 8, the power oracle through dimension 6
    assert is_totally_nonnegative(DenseMatrix.identity(8)).is_tn is True
    with pytest.raises(DimensionCapExceeded):
        is_totally_nonnegative(DenseMatrix.identity(9))
    with pytest.raises(DimensionCapExceeded):
        is_oscillatory(DenseMatrix.identity(9))
    assert is_oscillatory_power_oracle(DenseMatrix.identity(6)) is False
    with pytest.raises(DimensionCapExceeded):
        is_oscillatory_power_oracle(DenseMatrix.identity(7))


def test_singular_tn_is_not_oscillatory():
    m = dense([[1, 1], [1, 1]])
    rep = is_oscillatory(m)
    assert rep.is_tn is True
    assert rep.is_nonsingular is False
    assert rep.is_oscillatory_gk is False


# -- differential check of the integer minor table -------------------------

_KINDS = ("any", "nonnegative", "bidiagonal", "perturbed", "singular")


def _alpha_truncation(alphas):
    """The n x n leading truncation of the tetradiagonal matrix of 3n - 2
    alphas of any sign, from its raw bands (TetraHessenberg would refuse a
    negative a_n)."""
    n = (len(alphas) + 2) // 3
    c, b, a = bands_from_alphas(AlphaSequence(values=tuple(alphas)))
    return _banded(n, {0: lambda i: c[i], 1: lambda i: F(1), -1: lambda i: b[i - 1], -2: lambda i: a[i - 2]})


def _random_matrix(seed, dims=(1, 5), kinds=_KINDS):
    """A rational matrix of dim in ``dims`` with mixed denominators and
    zeros; the seed picks the kind: any signs, nonnegative, TN by
    construction (L1 L2 U with nonnegative bidiagonal factors, as in the
    paper's factorization), that product with one entry moved to make the
    determinant negative, singular (one row a multiple of another), or
    "signed": the tetradiagonal truncation of positive alphas but one
    alpha_{3j+1} (on U's diagonal) made small and negative."""
    rng = random.Random(seed)
    n = rng.randint(*dims)
    kind = kinds[seed % len(kinds)]

    def scalar(lo=-3):
        # lo = 1: a positive value, never zero
        zero = lo < 1 and rng.random() < 0.2
        return F(0) if zero else F(rng.randint(lo, 6), rng.choice((1, 2, 3, 5, 7)))

    def square(entry):
        return DenseMatrix([[entry(i, j) for j in range(n)] for i in range(n)])

    if kind in ("bidiagonal", "perturbed"):
        lower = [square(lambda i, j: F(1) if j == i else scalar(0) if j == i - 1 else F(0)) for _ in "12"]
        upper = square(lambda i, j: scalar(1) if j == i else scalar(0) if j == i + 1 else F(0))
        m = lower[0].mul(lower[1]).mul(upper)
        if kind == "perturbed":
            # move one entry so that the determinant becomes -det/8 (when its
            # cofactor is nonzero): often a first negative minor of high order
            i, j = rng.randrange(n), rng.randrange(n)
            cofactor = (-1) ** (i + j) * m.minor(
                tuple(k for k in range(n) if k != i), tuple(k for k in range(n) if k != j))
            if cofactor != 0:
                rows = [list(r) for r in m.rows]
                rows[i][j] -= F(9, 8) * m.det() / cofactor
                m = DenseMatrix(rows)
        return m
    if kind == "signed":
        alphas = [scalar(1) for _ in range(3 * n - 2)]
        alphas[3 * rng.randrange(n)] = F(-1, rng.randint(4, 40))
        return _alpha_truncation(alphas)
    m = square(lambda i, j: scalar(0 if kind == "nonnegative" else -3))
    if kind == "singular" and n > 1:
        i, j = rng.sample(range(n), 2)
        rows = list(m.rows)
        rows[j] = [scalar() * v for v in rows[i]]
        m = DenseMatrix(rows)
    return m


def _reference_some_power_tp(m):
    """_some_power_totally_positive, each power scanned by the reference."""
    power = m
    for _ in range(max(1, m.n - 1)):
        if oracle_tn.reference_scan(*power.scaled, violates=lambda value: value <= 0)[0] is None:
            return True
        power = power.mul(m)
    return False


def _assert_matches_oracle(m, scan=None):
    """The report against the per-minor reference (oracle_tn.reference_scan,
    or its result ``scan``): witness and count; the witness value against
    the minor of the Fraction rows (DenseMatrix.minor) and nonsingularity
    against their determinant, so the scaled form is held to the entries;
    and (dims <= 6) the power oracle."""
    rep = is_totally_nonnegative(m)
    witness, position = scan or oracle_tn.reference_scan(*m.scaled)
    assert (rep.witness, rep.minors_checked) == (witness, position)
    if witness is not None:
        rows, cols, value = rep.witness
        assert isinstance(value, F)
        assert value == m.minor(tuple(i - 1 for i in rows), tuple(j - 1 for j in cols))
    assert rep.is_tn == (witness is None)
    assert rep.is_nonsingular == (m.det() != 0)
    if m.n <= 6:
        assert _some_power_totally_positive(m) == _reference_some_power_tp(m)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_integer_scan_matches_the_bareiss_reference_scan(seed):
    _assert_matches_oracle(_random_matrix(seed))


# the same comparison against the Bareiss oracle_tn.reference_scan at dims
# 6-8, which put minors on mask bits 5-7; the 40 seeds give witnesses of
# orders 1 to 7 and certifications at dims 6, 7 and 8 (the reference
# costs about a tenth of a second per full dim-8 scan, so the seeds stay few)
@pytest.mark.parametrize("seed", range(40))
def test_integer_scan_matches_fraction_oracle_at_dims_6_to_8(seed):
    _assert_matches_oracle(_random_matrix(seed, dims=(6, 8), kinds=("signed", "perturbed")))


# -- the scan against the per-minor reference --------------------------------

_BAND_KINDS = ("pbf", "signed", "zero-alpha", "widened", "dense", "power")


def _band_matrix(seed, kind, n):
    """An n x n matrix of the given kind, from ``seed``: a tetradiagonal
    truncation of PBF alphas, of alphas with some made negative, or of PBF
    alphas with some made 0 (zeros inside the band); such a truncation with
    one entry set above the superdiagonal or below the second subdiagonal,
    which widens the band; a dense matrix (the _random_matrix kinds); or
    the square or cube of a PBF truncation (band (2, 4) or (3, 6), TN)."""
    rng = random.Random(seed)

    def alpha():
        return F(rng.randint(1, 9), rng.choice((1, 2, 3, 5, 7)))

    alphas = [alpha() for _ in range(max(3 * n - 2, 0))]
    if kind == "signed" and alphas:
        for _ in range(rng.randint(1, 2)):
            alphas[rng.randrange(len(alphas))] = -F(1, rng.randint(2, 40))
    if kind == "zero-alpha" and alphas:
        for _ in range(rng.randint(1, 2)):
            alphas[rng.randrange(len(alphas))] = F(0)
    if n == 0:
        return DenseMatrix(())
    if kind == "dense":
        return _random_matrix(seed, dims=(n, n))
    m = _alpha_truncation(alphas)
    if kind == "widened":
        outside = [(i, j) for i in range(n) for j in range(n) if j - i >= 2 or i - j >= 3]
        if outside:
            i, j = rng.choice(outside)
            rows = [list(r) for r in m.rows]
            rows[i][j] = F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
            m = DenseMatrix(rows)
    if kind == "power":
        base = m
        for _ in range(rng.randint(1, 2)):
            m = m.mul(base)
    return m


def _assert_matches_reference(m):
    """The comparisons of oracle_tn.compared (the scan, the total-positivity
    test, the Neville certificate and the rescaled report), then the report
    as _assert_matches_oracle holds it, against the reference scan that
    the first comparison wants."""
    results = oracle_tn.compared(m)
    for test, got, want in results:
        assert got == want, test
    _assert_matches_oracle(m, results[0][2])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.sampled_from(_BAND_KINDS),
       st.integers(min_value=0, max_value=8))
def test_the_scan_matches_the_reference(seed, kind, n):
    _assert_matches_reference(_band_matrix(seed, kind, n))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.sampled_from(oracle_tn.TP_KINDS),
       st.integers(min_value=0, max_value=6))
def test_initial_minors_decide_total_positivity(seed, kind, n):
    """_initial_minors_positive against the reference's scan of every minor
    for one <= 0, on TP matrices and on TP matrices with one initial minor
    moved to 0, to half its value or to its negative."""
    ints, scales = oracle_tn.tp_candidate(random.Random(seed), kind, n).scaled
    assert _initial_minors_positive(ints) == (oracle_tn.reference_scan(ints, scales, lambda v: v <= 0)[0] is None)


def test_an_entry_above_the_band_gives_the_first_negative_minor():
    """A PBF truncation at n = 6 with entry (1, 4) set to 1/2, above its
    superdiagonal: the first negative minor is on rows (1, 2) and columns
    (1, 4), the 39th, after the 36 entries and three minors on rows
    (1, 2)."""
    rows = [list(r) for r in _alpha_truncation([F(k % 4 + 1, k % 3 + 1) for k in range(16)]).rows]
    rows[0][3] = F(1, 2)
    wide = DenseMatrix(rows)
    _assert_matches_reference(wide)
    rep = is_totally_nonnegative(wide)
    assert rep.witness[:2] == ((1, 2), (1, 4))
    assert rep.minors_checked == 39


# -- the Neville certificate ---------------------------------------------------


@pytest.mark.parametrize("rows", [
    # certified without the transpose's pass: its rows eliminate cleanly,
    # yet rows (1, 2) and columns (2, 3) give -1
    [[1, 0, 1], [0, 1, 0], [0, 0, 1]],
    # certified if the 0 above the last 1 of column 1 is passed over, not
    # refused: rows (2, 3) and columns (1, 2) give -1
    [[1, 0, 0], [0, 1, 0], [1, 0, 1]],
    # certified if a zero pivot is accepted: TN, but singular
    [[1, 1, 0], [1, 1, 0], [0, 0, 1]],
], ids=["transpose-pass", "zero-above-nonzero", "zero-pivot"])
def test_neville_certificate_refuses_what_its_conditions_refuse(rows):
    _assert_matches_reference(dense(rows))


def test_certification_forms_no_minor(monkeypatch, t_ones):
    """Neville elimination certifies PBF truncations at dims 1-8, the dim-8
    JP truncation at (3/2, 1, 0) (R2, where the first parametrization is
    TN) and the README's 923-minor example, with the scan and the
    nonsingularity elimination both made to raise."""
    def untouchable(*args):
        raise AssertionError("a certified matrix reached the minor scan")

    t = tetra_from_alphas(pbf_corpus(8, 1, count=25)[0])
    certifiable = [leading_principal(t, d - 1) for d in range(1, 9)]
    certifiable += [jp_dense_truncation(JPParams(F(3, 2), 1, 0), 7), leading_principal(t_ones, 5)]
    for name in ("_full_scan", "_nonsingular"):
        monkeypatch.setattr(tncheck, name, untouchable)
    for m in certifiable:
        rep = is_totally_nonnegative(m)
        assert (rep.is_tn, rep.witness, rep.minors_checked) == (True, None, comb(2 * m.n, m.n) - 1)
        assert rep.is_nonsingular and rep.is_oscillatory_gk
    assert rep.minors_checked == 923


def test_the_scan_still_decides_refutations_and_singular_inputs():
    """An R1 refutation keeps its order-1 witness and position, and a
    singular TN matrix (alpha_1 = 0, so u_0 = 0 and det T = 0) keeps its
    full count with is_nonsingular False, at dim 7 and at the cap, where
    the per-minor reference agrees."""
    r1 = is_totally_nonnegative(jp_dense_truncation(JPParams(F(5, 2), 1, 0), 7))
    assert (r1.is_tn, r1.witness, r1.minors_checked, r1.is_nonsingular) == (False, ((4,), (2,), F(-3, 3250)), 26, True)
    for n, count in ((7, 3431), (8, 12869)):
        singular = _alpha_truncation([F(0)] + [F(1)] * (3 * n - 3))
        rep = is_totally_nonnegative(singular)
        assert (rep.is_tn, rep.witness, rep.minors_checked) == (True, None, count)
        assert rep.is_nonsingular is False and rep.is_oscillatory_gk is False
    assert oracle_tn.reference_scan(*singular.scaled) == (None, 12869)


# -- the scaled form the builders write --------------------------------------


def _assert_same_as_twin(m, least_scales=True):
    """m, built in its scaled form, against its Fraction-built twin
    DenseMatrix(m.rows): equal, of equal hash, every entry a reduced
    Fraction with every zero the one shared Fraction(0); the same TN report,
    witness included, the same leading characteristic polynomials and (dims
    <= POWER_ORACLE_CAP) the same power-oracle verdict.  With
    ``least_scales`` the builder's scales are the lcm of each row's
    denominators, the scales the twin computes."""
    report = is_totally_nonnegative(m)
    twin = DenseMatrix(m.rows)
    assert m == twin and hash(m) == hash(twin)
    assert all(type(v) is F for row in m.rows for v in row)
    assert all(v is core._ZERO for row in m.rows for v in row if not v)
    assert is_totally_nonnegative(twin) == report
    assert m.leading_char_polys() == twin.leading_char_polys()
    if m.n <= POWER_ORACLE_CAP:
        assert _some_power_totally_positive(m) == _some_power_totally_positive(twin)
    if least_scales:
        assert m.scaled == twin.scaled


def _signed_bands(rng, n, ints):
    """Bands down to row n: c and b of any sign, a > 0, as ints or as
    Fractions of mixed denominators."""
    def value(lo):
        return rng.randint(lo, 9) if ints else F(rng.randint(lo, 9), rng.choice((1, 2, 3, 5, 7)))

    return TetraHessenberg(
        [value(1) for _ in range(n - 1)], [value(-2) for _ in range(n)], [value(-2) for _ in range(n + 1)]
    )


@pytest.mark.parametrize("ints", [True, False], ids=["int-bands", "fraction-bands"])
def test_leading_principal_matches_its_fraction_twin(ints):
    """On int and Fraction bands, signed and PBF, at dims 1-8: the twin,
    and the entries of the banded layout read off the bands."""
    rng = random.Random(5)
    int_alphas = AlphaSequence([rng.randint(1, 9) for _ in range(25)])
    matrices = [tetra_from_alphas(int_alphas if ints else pbf_corpus(8, 1, count=25)[0])]
    matrices += [_signed_bands(rng, 7, ints) for _ in range(6)]
    for t in matrices:
        for n in range(8):
            m = leading_principal(t, n)
            assert m == _banded(n + 1, {0: t.c, 1: lambda i: F(1), -1: t.b, -2: t.a})
            _assert_same_as_twin(m)


@pytest.mark.parametrize("short", ["a", "b", "c", "ab", "ac", "bc", "abc"])
def test_leading_principal_reads_the_bands_in_the_banded_order(short):
    """Bands that each end one row short of T^[5] raise the BandExhausted
    of the banded layout, which reads row 5 as c, b, a."""
    bands = {name: [F(1)] * (4 + k - (name in short)) for k, name in enumerate("abc")}
    t = TetraHessenberg(**bands)
    with pytest.raises(BandExhausted) as got:
        leading_principal(t, 5)
    with pytest.raises(BandExhausted) as want:
        _banded(6, {0: t.c, 1: lambda i: F(1), -1: t.b, -2: t.a})
    assert (got.value.args, str(got.value)) == (want.value.args, str(want.value))


def test_jp_dense_truncation_matches_its_fraction_twin():
    for p in JP_VERIFICATION_GRID:
        for n in range(8):
            _assert_same_as_twin(jp_dense_truncation(p, n))


def test_the_suite_blocks_match_their_fraction_twins(monkeypatch, t_ones):
    """Every matrix the tn and charpoly suites build in scaled form: T^[N]
    and the blocks cut from it, which keep its row scales.  A charpoly
    block drops entries of its first rows, so its scales need not be the
    least."""
    built = []
    build = DenseMatrix._from_scaled.__func__

    def recording(cls, ints, scales):
        built.append(build(cls, ints, scales))
        return built[-1]

    monkeypatch.setattr(DenseMatrix, "_from_scaled", classmethod(recording))
    rng = random.Random(6)
    matrices = [t_ones, tetra_from_alphas(pbf_corpus(9, 1, count=25)[0])]
    for t in matrices + [_signed_bands(rng, 7, False) for _ in range(4)]:
        for check in (cli._suite_tn, cli._suite_charpoly):
            check(t, None, 6)
    assert len(built) == 6 * (6 + 3)
    assert any(m.scaled != DenseMatrix(m.rows).scaled for m in built)
    for m in built:
        _assert_same_as_twin(m, least_scales=False)


def test_builders_never_build_rows(monkeypatch, t_ones):
    """n, the TN check, the power oracle and the leading characteristic
    polynomials of a builder-made matrix, and the tn and charpoly suites,
    read its scaled form alone."""
    def unbuilt(self):
        raise AssertionError("the rows of a builder-made matrix were built")

    monkeypatch.setattr(DenseMatrix, "rows", property(unbuilt))
    t = tetra_from_alphas(pbf_corpus(8, 1, count=25)[0])
    matrices = [leading_principal(t, n) for n in range(8)]
    matrices += [jp_dense_truncation(p, n) for p in JP_VERIFICATION_GRID[::2] for n in (0, 4, 7)]
    for m in matrices:
        assert m.n == len(m.scaled[0])
        is_totally_nonnegative(m)
        if m.n <= POWER_ORACLE_CAP:
            _some_power_totally_positive(m)
        m.leading_char_polys()
    for check in (cli._suite_tn, cli._suite_charpoly):
        check(t_ones, None, 6)
