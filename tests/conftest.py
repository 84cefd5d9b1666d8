"""Shared fixtures: reference matrices and reproducible random corpora.

Everything here is exact (Fraction entries).  The two corpus builders are
deterministic in the seed so failures replay byte-for-byte.
"""

import random
from fractions import Fraction as F

import pytest

from tetrahess import AlphaSequence, TetraHessenberg, tetra_from_alphas
from tetrahess.core import _banded


def rational_in(rng, lo, hi, max_den=4):
    """Uniform-ish rational in [lo, hi] with denominator <= max_den."""
    q = rng.randint(1, max_den)
    return F(rng.randint(lo * q, hi * q), q)


def random_band_matrix(rng, n):
    """Tetradiagonal matrix with entries in [1, 5] down to truncation N=n."""
    c = [rational_in(rng, 1, 5) for _ in range(n + 1)]
    b = [rational_in(rng, 1, 5) for _ in range(n)]
    a = [rational_in(rng, 1, 5) for _ in range(n - 1)]
    return TetraHessenberg(a=a, b=b, c=c)


def random_pbf_alphas(rng, count=31):
    """PBF alpha sequence with entries in (0, 3]."""
    vals = []
    for _ in range(count):
        q = rng.randint(1, 4)
        vals.append(F(rng.randint(1, 3 * q), q))
    return AlphaSequence(values=tuple(vals))


def lu_product(u, m, ell):
    """The dense product L U of a factor triple laid out as
    core._factor_triple lays it out: L unit lower triangular with m_i at
    (i, i-1) and l_i at (i, i-2), U with diagonal u and a unit
    superdiagonal.  Independent of core._lu_bands."""
    size = len(u)

    def one(i):
        return F(1)

    lower = _banded(size, {0: one, -1: m.__getitem__, -2: ell.__getitem__})
    upper = _banded(size, {0: u.__getitem__, 1: one})
    return lower.mul(upper)


def matrix_corpus(seed, size, n_lo=2, n_hi=10):
    rng = random.Random(seed)
    out = []
    for _ in range(size):
        n = rng.randint(n_lo, n_hi)
        out.append((random_band_matrix(rng, n), n))
    return out


def pbf_corpus(seed, size, count=31):
    rng = random.Random(seed)
    return [random_pbf_alphas(rng, count) for _ in range(size)]


#: Length of the all-ones fixture: alphas through index 64 carry every
#: matrix and transform below to row 21.
ONES_COUNT = 64


@pytest.fixture(scope="session")
def ones_alphas():
    return AlphaSequence(values=(F(1),) * ONES_COUNT)


@pytest.fixture(scope="session")
def t_ones(ones_alphas):
    return tetra_from_alphas(ones_alphas)


@pytest.fixture(scope="session")
def t_sym():
    # symmetric 3x3 reference: bands a=(1), b=(1,1), c=(2,2,2)
    return TetraHessenberg(a=[F(1)], b=[F(1), F(1)], c=[F(2), F(2), F(2)])
