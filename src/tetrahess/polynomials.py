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
bands (type I from its transpose).  ``_steps`` alone reads the bands and
knows the boundary coefficients: it writes each step as int coefficients
over a positive int denominator.  ``_recur`` runs a table of steps on a
window of three values.  Without x they are canonical Polys, each over its
own denominator, and a step reduces only the polynomial it makes, by one
gcd; at x = p/q they are three int numerators over one common denominator,
reduced by one gcd per step, and no polynomial is built.  Either way the
cost is O(N) steps.

At a point the values stay ints up to their readers.  ``_values`` builds
each step table once per call, whatever the points and names, and gives
per point the int numerators of every sequence asked for over one
positive denominator.
``sequence_values`` is the public edge: it turns each value into one
reduced Fraction over the denominator the recurrence held it at.  It and
the CLI's ``polys --at``, which prints each value from its int pair with
no Fraction, are the entries keyed by kind (_KINDS); every other entry
asks ``_runs`` for its sequences by name.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm

from .core import TetraHessenberg
from .errors import IndexOutOfRange, ZeroNu
from .poly import Poly, _make, _ratio, _reduce, constant_poly
from .scalars import over_common_denominator


def _steps(t: TetraHessenberg, start: int, stop: int, transpose=False) -> list:
    """Steps start .. stop-1 of the four-term recurrence as ints: step m is
    (slot, kx, k0, k1, k2, den) with den > 0 and

        den * y_{m+1} = kx x w_slot + k0 w0 + k1 w1 + k2 w2

    on the window (w0, w1, w2) = (y_{m-2}, y_{m-1}, y_m).

    Row form (type II and second kind), row m of (xI - T) y = 0, slot 2:

        y_{m+1} = (x - c_m) y_m - b_m y_{m-1} - a_m y_{m-2}

    with the boundary coefficients b_0 = a_0 = a_1 = -1.  Column form
    (``transpose``, type I), column m-1 of y (T - xI) = 0, slot 1:

        a_{m+1} y_{m+1} = (x - c_{m-1}) y_{m-1} - b_m y_m - y_{m-2}

    This is the only code that reads the bands for the recurrence, a_{m+1}
    first in the column form, so a short matrix fails on the same entry
    whatever the window holds."""
    table = []
    for m in range(start, stop):
        if transpose:
            a, c, b = t.a(m + 1), t.c(m - 1), t.b(m)
        else:
            c, b, a = t.c(m), t.b(m) if m >= 1 else -1, t.a(m) if m >= 2 else -1
        cn, cd, bn, bd, an, ad = c.numerator, c.denominator, b.numerator, b.denominator, a.numerator, a.denominator
        k, ka, kb, kc = cd * bd * ad, an * cd * bd, -bn * cd * ad, -cn * bd * ad
        # the column form divides by a_{m+1} > 0, so its denominator ka is > 0
        table.append((1, k, -k, kc, kb, ka) if transpose else (2, k, -ka, kb, kc, k))
    return table


def _recur(steps, seeds, point=None):
    """The recurrence run through the table ``steps`` (see _steps) from the
    window of constant seeds (y_{start-2}, y_{start-1}, y_start), up to
    y_stop.  Without ``point`` it returns the list of polynomials
    y_{start-2} .. y_stop; at point = (xp, xq) it returns the exact values
    y_m(xp/xq) of that list as two lists (nums, dens), y_m = nums[m] /
    dens[m] with dens[m] > 0, so a reduced Fraction costs one gcd.

    At a point the window is three ints over one common denominator d > 0,
    and x w_slot enters as xp w_slot over xq: a step puts the new numerator
    over d den xq, brings the other two to that denominator and divides the
    window by one gcd, and each value keeps the d of the step that made it.
    Without a point each polynomial is held canonical, over its own
    denominator: a step brings the three window polynomials to the lcm L of
    their denominators by folding L / d_i into the step's coefficients, so
    no window list is rescaled, forms the new numerator over L den and
    reduces that one list by one gcd (Bareiss, Math. Comp. 1968)."""
    if point is not None:
        window, d = over_common_denominator(seeds)
        xp, xq = point
        w0, w1, w2 = window
        nums, dens = list(window), [d] * 3
        for slot, kx, k0, k1, k2, den in steps:
            new = xq * (k0 * w0 + k1 * w1 + k2 * w2) + xp * kx * (w2 if slot == 2 else w1)
            den *= xq
            w0, w1, d = w1 * den, w2 * den, d * den
            g = gcd(d, new, w0, w1)
            w0, w1, w2, d = w0 // g, w1 // g, new // g, d // g
            nums.append(w2)
            dens.append(d)
        return nums, dens
    out = [constant_poly(v) for v in seeds]
    for slot, kx, k0, k1, k2, den in steps:
        p0, p1, p2 = out[-3:]
        px = p2 if slot == 2 else p1
        big = lcm(p0.den, p1.den, p2.den)
        c0, c1, c2, cx = k0 * (big // p0.den), k1 * (big // p1.den), k2 * (big // p2.den), kx * (big // px.den)
        terms = zip_longest(p0.num, p1.num, p2.num, (0, *px.num), fillvalue=0)
        out.append(_make(*_reduce([c0 * u + c1 * v + c2 * w + cx * z for u, v, w, z in terms], big * den)))
    return out


#: The one table of seeds, by the names the CLI prints: whether the
#: sequence runs in the column form (type I) or the row form, and its
#: window for nu, at index 0 in the row form and index 1 in the column form:
#:
#:     type2:  B  from (0, 0, 1)
#:     type1:  A1 from (0, 1, nu), A2 from (0, 0, 1)
#:     second: B1 from (1, 0, 0), B2 from (-1 - nu, 1, 0), and b1 = B2 + nu B1
#:             from (-1 - nu, 1, 0) + nu (1, 0, 0) = (-1, 1, 0), by linearity
_SEEDS = {
    "B": (False, lambda nu: (0, 0, 1)),
    "A1": (True, lambda nu: (0, 1, nu)),
    "A2": (True, lambda nu: (0, 0, 1)),
    "B1": (False, lambda nu: (1, 0, 0)),
    "B2": (False, lambda nu: (-1 - nu, 1, 0)),
    "b1": (False, lambda nu: (-1, 1, 0)),
}
#: The names of each kind, in the order sequence_values and polys give them.
_KINDS = {"type2": ("B",), "type1": ("A1", "A2"), "second": ("B1", "B2", "b1")}


def _runs(t: TetraHessenberg, n: int, names, nu, points) -> list:
    """For each of ``points`` (None stands for the polynomials themselves)
    a dict: name -> indices 0..N of that sequence, as Polys, or at a point
    as (nums, dens) of _recur.  The step table of each form is built once,
    on first use, however many points and names read it.  nu and the
    points are checked before the first band is read."""
    if n < 0:
        raise ValueError("sequence length must be >= 0")
    reads_nu = set(names) != {"B"}
    if reads_nu and nu == 0:
        raise ZeroNu()
    points = [None if x is None else _ratio(x) for x in points]
    if reads_nu:
        _ratio(nu)
    tables, out = {}, []
    for point in points:
        runs = {}
        for name in names:
            column, seeds = _SEEDS[name]
            if column not in tables:
                tables[column] = _steps(t, 1, n, True) if column else _steps(t, 0, n)
            run = _recur(tables[column], seeds(nu), point)
            keep = slice(1, n + 2) if column else slice(2, n + 3)
            runs[name] = run[keep] if point is None else (run[0][keep], run[1][keep])
        out.append(runs)
    return out


def _values(t: TetraHessenberg, n: int, points, names, nu=None) -> list:
    """For each of ``points``, the values of the sequences ``names`` at
    indices 0..N as int numerators over one common denominator: a pair
    (lists, d) with one list per name, in order, and d > 0 the lcm of the
    values' denominators.  No Fraction is formed; the readers at a point
    (akv_sign_checks, verify_christoffel, alphas_from_polynomials,
    gauss_borel) decide signs and zeros on the numerators."""
    out = []
    for runs in _runs(t, n, names, nu, points):
        d = lcm(*(e for _, dens in runs.values() for e in dens))
        out.append(([[w * (d // e) for w, e in zip(*runs[name])] for name in names], d))
    return out


def sequence_values(t: TetraHessenberg, kind: str, n: int, x, nu=None) -> dict:
    """Values at x of the sequences of ``kind``, indices 0..N, as tuples
    keyed by name: ``"type2"`` gives B, ``"type1"`` gives A1 and A2,
    ``"second"`` gives B1, B2 and b1 (the last two kinds need ``nu`` != 0).

    The recurrence runs at x over the integers; no polynomial is built.
    Every value is returned as a reduced Fraction equal to p(x) for the
    polynomial p that type2_sequence, type1_sequences or
    second_kind_sequences returns at the same place: one Fraction per value,
    over the denominator the recurrence held it at.  x = None gives those
    polynomials.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown sequence kind {kind!r}")
    [runs] = _runs(t, n, _KINDS[kind], nu, (x,))
    return {name: tuple(run if x is None else map(Fraction, *run)) for name, run in runs.items()}


def type2_sequence(t: TetraHessenberg, n: int) -> list:
    """The list of monic B_0 .. B_N via

        B_{k+1} = (x - c_k) B_k - b_k B_{k-1} - a_k B_{k-2}

    seeded by B_0 = 1, B_1 = x - c_0, B_2 = (x - c_1) B_1 - b_1."""
    return _runs(t, n, ("B",), None, (None,))[0]["B"]


def type1_sequences(t: TetraHessenberg, n: int, nu) -> tuple:
    """The type I pair (A^(1), A^(2)), two lists, indices 0..N.

    Seeds: A^(1)_0 = 1, A^(1)_1 = nu; A^(2)_0 = 0, A^(2)_1 = 1.  The next
    value is forced row by row by the left eigenvector relation,

        a_k A_k = -b_{k-1} A_{k-1} + (x - c_{k-2}) A_{k-2} - A_{k-3},

    (the A_{-1} term is absent for k = 2), which is why a_k > 0 matters.
    """
    [runs] = _runs(t, n, ("A1", "A2"), nu, (None,))
    return runs["A1"], runs["A2"]


def second_kind_sequences(t: TetraHessenberg, n: int, nu) -> tuple:
    """Second kind sequences (B^(1), B^(2), b^(1)), three lists, indices 0..N.

    All satisfy the type II recurrence extended to n >= 0 with the boundary
    coefficients b_0 = a_0 = a_1 = -1 and seeds at indices (-2, -1, 0):

        B^(1): (1, 0, 0)    B^(2): (-1 - nu, 1, 0)    b^(1): (-1, 1, 0)

    b^(1) = B^(2) + nu B^(1) is independent of nu.
    """
    [runs] = _runs(t, n, ("B1", "B2", "b1"), nu, (None,))
    return tuple(runs.values())


def char_poly_truncation(t: TetraHessenberg, n: int, k: int) -> Poly:
    """det(xI - T^[N,k]) by banded expansion along the last row: O(N)
    polynomial operations, never materializing the dense truncation.

    This is B_{N-k+1} of the matrix with its first k rows and columns
    deleted.  k = N gives x - c_N; k = N+1 (the empty truncation) gives the
    constant 1, honouring det(empty) = 1 without reading past row N.
    """
    if not 0 <= k <= n + 1:
        raise IndexOutOfRange(f"char poly truncation index {k} not in [0, {n + 1}]")
    return _runs(t.shifted(k), n - k + 1, ("B",), None, (None,))[0]["B"][-1]
