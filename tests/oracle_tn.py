"""An independent reference for ``tetrahess.tncheck``, the oracle of the
differential tests in test_tncheck.py.

``reference_scan`` visits every minor in the enumeration order of
``tncheck._full_scan`` (minor order, then row subsets, then column subsets,
each lexicographic, by ``itertools.combinations``) and takes each as the
fraction-free determinant of its own int submatrix (Bareiss, Math. Comp.
1968), sharing no minor with any other.  Under its default test (value <
0) it is the oracle of ``tncheck._full_scan``: the same witness and the
same position or count.  Its total-positivity test (value <= 0) is the
oracle of ``tncheck._initial_minors_positive``, the power oracle's test on
initial minors; ``tp_candidate`` makes matrices on both sides of total
positivity.  Its TN verdict, with a nonzero determinant, is the oracle of
``tncheck._neville_certifies``, the Neville elimination certificate, which
must certify exactly the nonsingular TN matrices.  ``rescaled`` rebuilds a
matrix over row scales that are not the least, which must change neither
its TN report nor its power-oracle verdict.

``comparison_cases`` and ``compared`` are a seeded differential set and
the compared tests.  They need no pytest, so the comparison also runs as a
script, on an interpreter without it:

    PYTHONPATH=src python tests/oracle_tn.py
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import prod

from tetrahess import tncheck
from tetrahess.core import AlphaSequence, DenseMatrix, _banded, bands_from_alphas


def bareiss_det(work):
    """The determinant of the square int matrix ``work``, a list of lists it
    overwrites: fraction-free elimination (Bareiss, Math. Comp. 1968), a
    row exchange and a sign change wherever the pivot is 0.  After step k
    every entry below the pivot rows is a minor of order k + 2 of the
    row-permuted matrix, so each division is exact."""
    n = len(work)
    sign, previous = 1, 1
    for k in range(n):
        if not work[k][k]:
            for i in range(k + 1, n):
                if work[i][k]:
                    work[k], work[i] = work[i], work[k]
                    sign = -sign
                    break
            else:
                return 0
        top = work[k]
        pivot, rest = top[k], top[k + 1 :]
        for row in work[k + 1 :]:
            factor = row[k]
            if factor:
                row[k + 1 :] = [(v * pivot - factor * t) // previous for v, t in zip(row[k + 1 :], rest)]
            elif pivot != previous:
                # the same update with factor = 0
                row[k + 1 :] = [v * pivot // previous for v in row[k + 1 :]]
        previous = pivot
    return sign * previous


def reference_scan(ints, scales, violates=lambda value: value < 0):
    """(first witness of a minor that ``violates``, or None; minors checked)
    of the scaled form (ints, scales) of a matrix (DenseMatrix.scaled), each
    minor bareiss_det of its own submatrix of the int rows.  The default
    test finds negative minors; ``value <= 0`` tests total positivity.
    ``violates`` sees the scaled minor, which has the sign of the true one;
    the witness carries the true minor, the scaled one divided by the
    scales of its rows."""
    n = len(ints)
    checked = 0
    for order in range(1, n + 1):
        subsets = list(combinations(range(n), order))
        for rows in subsets:
            chosen = [ints[r] for r in rows]
            for cols in subsets:
                checked += 1
                value = bareiss_det([[row[c] for c in cols] for row in chosen])
                if violates(value):
                    true = Fraction(value, prod(scales[r] for r in rows))
                    return (tuple(i + 1 for i in rows), tuple(j + 1 for j in cols), true), checked
    return None, checked


#: Matrices on both sides of total positivity (see tp_candidate).
TP_KINDS = ("power", "exponential", "moved-power", "moved-exponential")

_KINDS = ("pbf", "signed", "zero-alpha", "negative-entry", "zero-entry", "dense") + TP_KINDS


def _scalar(rng, lo):
    return Fraction(rng.randint(lo, 9), rng.choice((1, 2, 3, 5, 7)))


def _truncation(alphas, n):
    """The n x n tetradiagonal truncation of 3n - 2 alphas of any sign."""
    c, b, a = bands_from_alphas(AlphaSequence(values=tuple(alphas)))
    return _banded(n, {0: lambda i: c[i], 1: lambda i: Fraction(1), -1: lambda i: b[i - 1], -2: lambda i: a[i - 2]})


def tp_candidate(rng, kind, n):
    """An n x n matrix of ``kind`` at the edge of total positivity.

    "power" is the (n-1)-th power of a PBF truncation, which is TP: the
    truncation is oscillatory.  "exponential" is x_i^(y_j) for increasing
    positive ints x and increasing ints y >= 0, TP as a generalized
    Vandermonde matrix.  A "moved-" kind takes one of these and moves one
    entry of a random initial minor, on consecutive rows and columns from
    row 1 or from column 1, so that the minor becomes 0, half its value or
    its negative (the entry stays if its cofactor in the minor is 0)."""
    if n == 0:
        return DenseMatrix(())
    if kind.endswith("power"):
        base = m = _truncation([_scalar(rng, 1) for _ in range(3 * n - 2)], n)
        for _ in range(n - 2):
            m = m.mul(base)
    else:
        xs = sorted(rng.sample(range(1, 10), n))
        ys = sorted(rng.sample(range(8), n))
        m = DenseMatrix([[Fraction(x**y) for y in ys] for x in xs])
    if not kind.startswith("moved"):
        return m
    k = rng.randint(1, n)
    shift = rng.randrange(n - k + 1)
    rows, cols = range(k), range(shift, shift + k)
    if rng.random() < 0.5:
        rows, cols = cols, rows
    p, q = rng.randrange(k), rng.randrange(k)
    minor = m.minor(rows, cols)
    cofactor = (-1) ** (p + q) * m.minor([r for r in rows if r != rows[p]], [c for c in cols if c != cols[q]])
    if cofactor:
        entries = [list(row) for row in m.rows]
        # the minor is linear in the entry: it moves by cofactor per unit
        entries[rows[p]][cols[q]] -= rng.choice((1, 1, Fraction(1, 2), 2)) * minor / cofactor
        m = DenseMatrix(entries)
    return m


def _matrix(rng, kind, n):
    """An n x n matrix of ``kind``: the tetradiagonal truncation of PBF
    alphas, of alphas with one or two made negative or 0, a positive
    matrix with one entry made negative or 0 (an order-1 refutation under
    one test or both), a dense matrix of any signs with zeros, or a
    tp_candidate of a TP_KINDS kind."""
    if kind in TP_KINDS:
        return tp_candidate(rng, kind, n)
    if kind in ("negative-entry", "zero-entry"):
        i, j = rng.randrange(n), rng.randrange(n)
        value = -_scalar(rng, 1) if kind == "negative-entry" else Fraction(0)
        return DenseMatrix([[value if (r, c) == (i, j) else _scalar(rng, 1) for c in range(n)] for r in range(n)])
    if kind == "dense":
        return DenseMatrix([[_scalar(rng, -4) if rng.random() < 0.8 else Fraction(0) for _ in range(n)] for _ in range(n)])
    alphas = [_scalar(rng, 1) for _ in range(3 * n - 2)]
    if kind != "pbf":
        for _ in range(rng.randint(1, 2)):
            alphas[rng.randrange(len(alphas))] = -_scalar(rng, 1) / 40 if kind == "signed" else Fraction(0)
    return _truncation(alphas, n)


def comparison_cases(seed, count, dims=(1, 7)):
    """``count`` seeded matrices of dims in ``dims``, the kinds in turn."""
    rng = random.Random(seed)
    return [_matrix(rng, _KINDS[k % len(_KINDS)], rng.randint(*dims)) for k in range(count)]


def rescaled(m, rng):
    """``m`` rebuilt from its scaled rows, each row and its scale multiplied
    by a random positive int: the same matrix, over scales that are not the
    least, as the suites' blocks may hold them."""
    ints, scales = m.scaled
    factors = [rng.randint(1, 1000) for _ in scales]
    return DenseMatrix._from_scaled(
        tuple(tuple(v * f for v in row) for row, f in zip(ints, factors)),
        tuple(d * f for d, f in zip(scales, factors)),
    )


def _power_oracle(m):
    """The power oracle's verdict past its TN gate, which the TNReport
    holds: is some power of ``m`` TP?  None past POWER_ORACLE_CAP."""
    return tncheck._some_power_totally_positive(m) if m.n <= tncheck.POWER_ORACLE_CAP else None


def compared(m, seed=0):
    """(test, got, want) on ``m``: under "< 0", tncheck._full_scan against
    reference_scan, each the witness and the position or the count; under
    "<= 0", tncheck._initial_minors_positive against reference_scan finding
    no minor <= 0; under "neville", tncheck._neville_certifies against
    reference_scan finding no minor < 0 on a matrix of nonzero determinant
    (DenseMatrix.det); under "rescaled", the TNReport and (dims <=
    POWER_ORACLE_CAP) the power oracle's verdict past its TN gate of
    rescaled(m) against those of ``m``, the multipliers drawn from
    ``seed``."""
    ints, scales = m.scaled
    scan = reference_scan(ints, scales)
    other = rescaled(m, random.Random(seed))
    return [
        ("< 0", tncheck._full_scan(ints, scales), scan),
        ("<= 0", tncheck._initial_minors_positive(ints), reference_scan(ints, scales, lambda v: v <= 0)[0] is None),
        ("neville", tncheck._neville_certifies(ints), scan[0] is None and m.det() != 0),
        ("rescaled", (tncheck.is_totally_nonnegative(other), _power_oracle(other)),
         (tncheck.is_totally_nonnegative(m), _power_oracle(m))),
    ]


if __name__ == "__main__":
    import sys

    cases = [m for seed in (1, 2, 3) for m in comparison_cases(seed, 200)]
    results = [row for k, m in enumerate(cases) for row in compared(m, k)]
    differ = sorted({name for name, got, want in results if got != want})
    order_one = sum(witness is not None and len(witness[0]) == 1 for name, (witness, _), _ in results[::4])
    positive = sum(want for _, _, want in results[1::4])
    certified = sum(want for _, _, want in results[2::4])
    refuted = sum(not report.is_tn for _, _, (report, _) in results[3::4])
    print(f"Python {sys.version.split()[0]}: {len(cases)} cases, {len(results)} comparisons "
          f"({order_one} order-1 refutations under < 0, {positive} totally positive under <= 0, "
          f"{certified} nonsingular TN under neville, {refuted} refuted under rescaled, of {len(cases)}), "
          f"{sum(got != want for _, got, want in results)} differ{': ' + ', '.join(differ) if differ else ''}")
    sys.exit(1 if differ else 0)
