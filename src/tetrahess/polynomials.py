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
operations.  The same recurrence also runs at a point: ``sequence_values``
gives the values at x = p/q in O(N) integer steps without building any
polynomial.  The window of three values is held as int numerators over one
common denominator, the band entries and x enter as (numerator,
denominator) pairs, and one gcd per step reduces the window, as Poly
reduces its coefficients; no Fraction is built until the values are
returned, and each one is exactly p(x) of the polynomial it stands for.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .core import TetraHessenberg
from .errors import IndexOutOfRange, ZeroNu
from .poly import Poly, _ratio, constant_poly


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
    point ``x`` they are the exact values y_m(x) (see _recur_at).

    Row form (type II and second kind), row m of (xI - T) y = 0:

        y_{m+1} = (x - c_m) y_m - b_m y_{m-1} - a_m y_{m-2}

    with the boundary coefficients b_0 = a_0 = a_1 = -1.  Column form
    (``transpose``, type I), column m-1 of y (T - xI) = 0:

        a_{m+1} y_{m+1} = (x - c_{m-1}) y_{m-1} - b_m y_m - y_{m-2}
    """
    if x is not None:
        return _recur_at(t, seeds, start, stop, transpose, x)
    out = [constant_poly(s) for s in seeds]
    for m in range(start, stop):
        w0, w1, w2 = out[-3:]
        if transpose:
            inv_a = Fraction(1) / t.a(m + 1)  # exact for an int a_{m+1} too
            new = (_x_minus(t.c(m - 1), w1) - w2.scale(t.b(m)) - w0).scale(inv_a)
        else:
            new = _x_minus(t.c(m), w2)
            new = new - w1.scale(t.b(m) if m >= 1 else -1)
            new = new - w0.scale(t.a(m) if m >= 2 else -1)
        out.append(new)
    return out


def _recur_at(t: TetraHessenberg, seeds, start: int, stop: int, transpose, x):
    """_recur at the point x = xp/xq, over the integers.  The window
    (y_{m-2}, y_{m-1}, y_m) is held as three int numerators (w0, w1, w2)
    over one common denominator d > 0.  A step multiplies by x - c, b and a
    as (numerator, denominator) pairs: the new numerator goes over d times
    the step's denominators, w1 and w2 are brought to that denominator, and
    the window is reduced by one gcd(d, new, w1, w2), as Poly reduces its
    coefficients.  The bands are read in the order the polynomial steps read
    them (a_{m+1} first in the column form), so a short matrix fails on the
    same entry.  Each y_m is returned as the reduced Fraction it equals."""
    xp, xq = _ratio(x)
    seeds = [_ratio(s) for s in seeds]
    d = lcm(*(sd for _, sd in seeds))
    w0, w1, w2 = (sn * (d // sd) for sn, sd in seeds)
    out = [(w0, d), (w1, d), (w2, d)]
    for m in range(start, stop):
        if transpose:
            a = t.a(m + 1)
            c, b = t.c(m - 1), t.b(m)
            cn, cd, bn, bd = c.numerator, c.denominator, b.numerator, b.denominator
            # a_{m+1} = an/ad > 0, so an xq cd bd > 0 is the step's denominator
            xc = xq * cd
            new = ((xp * cd - cn * xq) * bd * w1 - bn * xc * w2 - xc * bd * w0) * a.denominator
            step = xc * bd * a.numerator
        else:
            c = t.c(m)
            b = t.b(m) if m >= 1 else -1
            a = t.a(m) if m >= 2 else -1
            cn, cd, bn, bd = c.numerator, c.denominator, b.numerator, b.denominator
            an, ad = a.numerator, a.denominator
            xc = xq * cd
            new = (xp * cd - cn * xq) * bd * ad * w2 - bn * xc * ad * w1 - an * xc * bd * w0
            step = xc * bd * ad
        w0, w1, d = w1 * step, w2 * step, d * step
        g = gcd(d, new, w0, w1)
        w0, w1, w2, d = w0 // g, w1 // g, new // g, d // g
        out.append((w2, d))
    return [Fraction(v, e) for v, e in out]


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

    The four-term recurrence runs at x over the integers, O(N) steps on
    int numerators over one common denominator, reduced by one gcd per
    step; no polynomial is built.  Every value is returned as a reduced
    Fraction equal to p(x) for the polynomial p that type2_sequence,
    type1_sequences or second_kind_sequences returns at the same place.
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
