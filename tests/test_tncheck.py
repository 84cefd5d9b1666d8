"""Total nonnegativity scans and the two oscillation criteria."""

import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetrahess import (
    AlphaSequence,
    DenseMatrix,
    DimensionCapExceeded,
    is_oscillatory,
    is_oscillatory_power_oracle,
    is_totally_nonnegative,
    leading_principal,
    tetra_from_alphas,
)
from tetrahess.core import _banded, bands_from_alphas
from tetrahess.tncheck import _some_power_totally_positive

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
    return _banded(n, {0: c.get, 1: lambda i: F(1), -1: b.get, -2: a.get})


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


def _oracle_scan(m, violates):
    """First minor that ``violates`` and its 1-based position, each minor an
    elimination of its own submatrix (DenseMatrix.minor), in the documented
    order: order, then row subsets, then column subsets, lexicographic."""
    position = 0
    for order in range(1, m.n + 1):
        for rows in combinations(range(m.n), order):
            for cols in combinations(range(m.n), order):
                position += 1
                value = m.minor(rows, cols)
                if violates(value):
                    return (tuple(i + 1 for i in rows), tuple(j + 1 for j in cols), value), position
    return None, position


def _oracle_some_power_tp(m):
    power = m
    for _ in range(max(1, m.n - 1)):
        if _oracle_scan(power, lambda v: v <= 0)[0] is None:
            return True
        power = power.mul(m)
    return False


def _assert_matches_oracle(m):
    rep = is_totally_nonnegative(m)
    witness, position = _oracle_scan(m, lambda v: v < 0)
    assert rep.witness == witness
    assert rep.minors_checked == position
    if witness is not None:
        rows, cols, value = rep.witness
        assert isinstance(value, F)
        assert value == m.minor(tuple(i - 1 for i in rows), tuple(j - 1 for j in cols))
    assert rep.is_tn == (witness is None)
    assert rep.is_nonsingular == (m.det() != 0)
    if m.n <= 6:
        assert _some_power_totally_positive(m) == _oracle_some_power_tp(m)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_integer_scan_matches_fraction_oracle(seed):
    _assert_matches_oracle(_random_matrix(seed))


# dims 6-8 put minors on mask bits 5-7; the 40 seeds give witnesses of
# orders 1 to 7 and certifications at dims 6, 7 and 8 (the oracle costs
# about half a second per full dim-8 scan, so the seeds stay few)
@pytest.mark.parametrize("seed", range(40))
def test_integer_scan_matches_fraction_oracle_at_dims_6_to_8(seed):
    _assert_matches_oracle(_random_matrix(seed, dims=(6, 8), kinds=("signed", "perturbed")))
