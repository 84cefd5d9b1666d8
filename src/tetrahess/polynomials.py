"""Recursion polynomial sequences attached to a tetradiagonal lower
Hessenberg matrix.

* type II: monic B_n, deg B_n = n, characteristic polynomials of the
  leading principal truncations (B_{N+1} = det(xI - T^[N]));
* type I: the pair A^(1)_n, A^(2)_n spanning the left null space of
  (T - xI) restricted to n+1 rows, with one free initial value nu != 0;
* second kind: B^(1), B^(2) and the nu-free b^(1) = B^(2) + nu B^(1),
  which are characteristic polynomials of trailing truncations
  (B^(1)_{N+1} = det(xI - T^[N,1]), b^(1)_{N+1} = det(xI - T^[N,2])).

All sequences come from one four-term recurrence touching only the three
bands (type I from its transpose), so the cost is O(N) polynomial
operations.  The same recurrence also runs over the exact scalars:
``sequence_values`` gives the values at a point x in O(N) Fraction
operations without building any polynomial, and each value is exactly
p(x) of the polynomial it stands for.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from .core import TetraHessenberg
from .errors import IndexOutOfRange, ZeroNu
from .poly import Poly, constant_poly


@dataclass(frozen=True)
class PolySequence:
    """A finite run of polynomials indexed 0..N."""

    polys: tuple

    def __len__(self):
        return len(self.polys)

    def __getitem__(self, n) -> Poly:
        return self.polys[n]

    def __iter__(self):
        return iter(self.polys)


def _x_minus(c, p: Poly) -> Poly:
    """(x - c) p in O(deg p)."""
    return p.times_x() - p.scale(c)


def _recur(t: TetraHessenberg, seeds, start: int, stop: int, transpose=False, x=None):
    """The four-term recurrence, run from the window of constant seeds
    (y_{start-2}, y_{start-1}, y_start) up to y_stop; returns the whole list
    y_{start-2} .. y_stop.  Without ``x`` the y_m are polynomials; given a
    point ``x`` they are the exact values y_m(x), the same steps run over
    the scalars.

    Row form (type II and second kind), row m of (xI - T) y = 0:

        y_{m+1} = (x - c_m) y_m - b_m y_{m-1} - a_m y_{m-2}

    with the boundary coefficients b_0 = a_0 = a_1 = -1.  Column form
    (``transpose``, type I), column m-1 of y (T - xI) = 0:

        a_{m+1} y_{m+1} = (x - c_{m-1}) y_{m-1} - b_m y_m - y_{m-2}
    """
    if x is None:
        out = [constant_poly(s) for s in seeds]
        x_minus, scale = _x_minus, Poly.scale
    else:
        out = [Fraction(s) for s in seeds]
        x_minus, scale = (lambda c, w: (x - c) * w), operator.mul
    for m in range(start, stop):
        w0, w1, w2 = out[-3:]
        if transpose:
            inv_a = Fraction(1) / t.a(m + 1)  # exact for an int a_{m+1} too
            new = scale(x_minus(t.c(m - 1), w1) - scale(w2, t.b(m)) - w0, inv_a)
        else:
            new = x_minus(t.c(m), w2)
            new = new - scale(w1, t.b(m) if m >= 1 else -1)
            new = new - scale(w0, t.a(m) if m >= 2 else -1)
        out.append(new)
    return out


def _sequences(t: TetraHessenberg, kind: str, n: int, nu=None, x=None) -> dict:
    """The sequences of one kind, indices 0..N, by the names the CLI prints:
    polynomials, or their values at ``x`` when a point is given.  This is
    the one table of seeds:

        type2:  B  from (0, 0, 1) at index 0 (row form)
        type1:  A1 from (0, 1, nu), A2 from (0, 0, 1) at index 1 (column form)
        second: B1 from (1, 0, 0), B2 from (-1 - nu, 1, 0) at index 0
                (row form), and b1 = B2 + nu B1
    """
    if n < 0:
        raise ValueError("sequence length must be >= 0")
    one = Fraction(1)
    if kind == "type2":
        return {"B": _recur(t, (0, 0, one), 0, n, x=x)[2:]}
    if kind not in ("type1", "second"):
        raise ValueError(f"unknown sequence kind {kind!r}")
    if nu == 0:
        raise ZeroNu()
    if kind == "type1":
        return {
            "A1": _recur(t, (0, one, nu * one), 1, n, True, x)[1 : n + 2],
            "A2": _recur(t, (0, 0, one), 1, n, True, x)[1 : n + 2],
        }
    b1 = _recur(t, (one, 0, 0), 0, n, x=x)[2:]
    b2 = _recur(t, (-one - nu, one, 0), 0, n, x=x)[2:]
    return {"B1": b1, "B2": b2, "b1": [q + p * nu for p, q in zip(b1, b2)]}


def sequence_values(t: TetraHessenberg, kind: str, n: int, x, nu=None) -> dict:
    """Values at x of the sequences of ``kind``, indices 0..N, as tuples
    keyed by name: ``"type2"`` gives B, ``"type1"`` gives A1 and A2,
    ``"second"`` gives B1, B2 and b1 (the last two kinds need ``nu`` != 0).

    The four-term recurrence runs over the exact scalars, O(N) Fraction
    operations; no polynomial is built.  Every value equals p(x) for the
    polynomial p that type2_sequence, type1_sequences or
    second_kind_sequences returns at the same place.
    """
    return {name: tuple(v) for name, v in _sequences(t, kind, n, nu, x).items()}


def type2_sequence(t: TetraHessenberg, n: int) -> PolySequence:
    """Monic B_0 .. B_N via

        B_{k+1} = (x - c_k) B_k - b_k B_{k-1} - a_k B_{k-2}

    seeded by B_0 = 1, B_1 = x - c_0, B_2 = (x - c_1) B_1 - b_1."""
    return PolySequence(tuple(_sequences(t, "type2", n)["B"]))


def type1_sequences(t: TetraHessenberg, n: int, nu):
    """The type I pair (A^(1), A^(2)), indices 0..N.

    Seeds: A^(1)_0 = 1, A^(1)_1 = nu; A^(2)_0 = 0, A^(2)_1 = 1.  The next
    value is forced row by row by the left eigenvector relation,

        a_k A_k = -b_{k-1} A_{k-1} + (x - c_{k-2}) A_{k-2} - A_{k-3},

    (the A_{-1} term is absent for k = 2), which is why a_k > 0 matters.
    """
    seqs = _sequences(t, "type1", n, nu)
    return PolySequence(tuple(seqs["A1"])), PolySequence(tuple(seqs["A2"]))


def second_kind_sequences(t: TetraHessenberg, n: int, nu):
    """Second kind sequences (B^(1), B^(2), b^(1)), indices 0..N.

    All satisfy the type II recurrence extended to n >= 0 with the boundary
    coefficients b_0 = a_0 = a_1 = -1 and seeds at indices (-2, -1, 0):

        B^(1): (1, 0, 0)    B^(2): (-1 - nu, 1, 0)    b^(1): (-1, 1, 0)

    b^(1) = B^(2) + nu B^(1) is independent of nu.
    """
    seqs = _sequences(t, "second", n, nu)
    return tuple(PolySequence(tuple(seqs[name])) for name in ("B1", "B2", "b1"))


def char_poly_truncation(t: TetraHessenberg, n: int, k: int) -> Poly:
    """det(xI - T^[N,k]) by banded expansion along the last row: O(N)
    polynomial operations, never materializing the dense truncation.

    This is B_{N-k+1} of the matrix with its first k rows and columns
    deleted.  k = N gives x - c_N; k = N+1 (the empty truncation) gives the
    constant 1, honouring det(empty) = 1 without reading past row N.
    """
    if not 0 <= k <= n + 1:
        raise IndexOutOfRange(f"char poly truncation index {k} not in [0, {n + 1}]")
    return _sequences(t.shifted(k), "type2", n - k + 1)["B"][-1]
