"""The dense charpoly oracle as it ran before each polynomial got its own
denominator: the cofactor recurrence on the whole matrix scaled by D, the
lcm of all its row scales, kept unchanged (as ``DenseMatrix`` held it, with
``self`` the matrix) as the oracle of the differential test in
test_core.py.  Coefficient i of q_k carries D^(k-i), so its cost grows
superlinearly in the bit size of D; it is for small matrices only.

``compared`` runs the differential comparison without pytest, so it also
runs as a script, on an interpreter without it:

    PYTHONPATH=src python tests/oracle_charpoly.py
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from operator import mul

from tetrahess.poly import _make, _reduce


def leading_char_polys(self) -> list:
    """[det(xI - M_k) for k = 0..n], M_k the leading k x k block of this
    lower Hessenberg matrix, in one pass of the cofactor recurrence

        p_{k+1} = (x - m_kk) p_k - sum_{j<k} m_kj (m_{j,j+1} ... m_{k-1,k}) p_j

    (expansion of det(xI - M_{k+1}) along its last row; Wilkinson 1965,
    section 7.11).  It reads the dense entries only, superdiagonal
    included, and walks each row's chain down to its lowest nonzero
    entry, so a banded input costs one polynomial term per nonzero
    subdiagonal entry.  Raises ValueError if an entry above the
    superdiagonal is nonzero.

    The recurrence runs over the integers: with D the lcm of the row
    scales of ``scaled``, q_k = det(yI - D M_k) has int coefficients, and
    p_k(x) = D^-k q_k(D x), so coefficient i of p_k is q_ki D^i / D^k,
    reduced once per polynomial.  Row k is brought to D on its entries
    up to the superdiagonal only, the others being zero."""
    ints, scales = self.scaled
    for k, row in enumerate(ints):
        if any(row[k + 2 :]):
            raise ValueError(f"row {k} has a nonzero entry above the superdiagonal")
    d = lcm(*scales)
    m = [[v * f for v in row[: k + 2]] for k, (row, f) in enumerate(zip(ints, [d // s for s in scales]))]
    qs = [[1]]
    for k, row in enumerate(m):
        q, diagonal = qs[k], row[k]
        new = [u - diagonal * v for u, v in zip([0] + q, q + [0])]  # (y - m_kk) q_k
        lowest = next((j for j in range(k) if row[j]), k)
        chain = 1  # m_{j,j+1} ... m_{k-1,k}
        for j in range(k - 1, lowest - 1, -1):
            chain *= m[j][j + 1]
            if row[j]:
                scale = row[j] * chain
                for i, v in enumerate(qs[j]):
                    new[i] -= scale * v
        qs.append(new)
    polys, powers = [_make((1,), 1)], [1]  # powers of D: 1, D, ..., D^k
    for q in qs[1:]:
        powers.append(powers[-1] * d)
        polys.append(_make(*_reduce(list(map(mul, q, powers)), powers[-1])))
    return polys


def comparison_matrices(seed, count):
    """``count`` random n x n lower Hessenberg DenseMatrix inputs, n = 0..9,
    reproducible from ``seed``, drawn as test_core.py draws them: rational
    entries of height 3 or 12, a random lower bandwidth, zeros, and
    superdiagonal entries that may be 0 or non-unit.  Every other one is
    the same matrix over row scales that are not the least, as the band
    builders may hand over."""
    from tetrahess.core import DenseMatrix

    rng = random.Random(seed)
    out = []
    for i in range(count):
        n, height = rng.randint(0, 9), rng.choice((3, 12))
        width = rng.randint(0, n)

        def entry(i, j):
            if j > i + 1 or i - j > width or rng.random() < 0.2:
                return Fraction(0)
            return Fraction(rng.randint(-height, height), rng.randint(1, height))

        m = DenseMatrix([[entry(i, j) for j in range(n)] for i in range(n)])
        if i % 2:
            ints, scales = m.scaled
            factors = [rng.randint(1, 6) for _ in scales]
            m = DenseMatrix._from_scaled(tuple(tuple(v * f for v in row) for row, f in zip(ints, factors)),
                                         tuple(s * f for s, f in zip(scales, factors)))
        out.append(m)
    return out


if __name__ == "__main__":
    import sys

    matrices = [m for seed in (1, 2, 3) for m in comparison_matrices(seed, 150)]
    differ = sum(m.leading_char_polys() != leading_char_polys(m) for m in matrices)
    print(f"Python {sys.version.split()[0]}: {len(matrices)} matrices, "
          f"{sum(m.n + 1 for m in matrices)} polynomials, {differ} matrices differ")
    sys.exit(1 if differ else 0)
