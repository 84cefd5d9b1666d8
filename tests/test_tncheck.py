"""Total nonnegativity scans and the two oscillation criteria."""

from fractions import Fraction as F

import pytest

from tetrahess import (
    DenseMatrix,
    DimensionCapExceeded,
    is_oscillatory,
    is_oscillatory_power_oracle,
    is_totally_nonnegative,
    leading_principal,
    tetra_from_alphas,
)

from conftest import pbf_corpus


def dense(rows):
    return DenseMatrix([[F(v) for v in row] for row in rows])


def test_identity_is_tn_but_not_oscillatory():
    m = DenseMatrix.identity(3)
    assert is_totally_nonnegative(m).is_tn is True
    rep = is_oscillatory(m)
    # zero off-diagonal neighbors fail the neighbor-positivity test
    assert rep.is_oscillatory_gk is False


def test_negative_entry_is_order_one_witness():
    rep = is_totally_nonnegative(dense([[1, 2], [3, -1]]))
    assert rep.is_tn is False
    assert rep.witness == ((2,), (2,), F(-1))


def test_symmetric_reference_witness(t_sym):
    """The classic 3x3 example: entrywise positive yet not TN."""
    rep = is_totally_nonnegative(leading_principal(t_sym, 2))
    assert rep.is_tn is False
    assert rep.witness == ((2, 3), (1, 2), F(-1))


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
