"""The recurrence as Poly and Fraction operations, and the Fraction AKV
determinant loop, that the integer forms of
``tetrahess.polynomials._recur`` (with and without x) and
``tetrahess.darboux.akv_sign_checks`` replaced, kept unchanged as the
oracles of the differential tests in test_point.py.

Every polynomial step is Poly arithmetic (``_x_minus``, ``Poly.scale``),
every value at the point is a Fraction, one gcd per operation, and every
determinant, comparison and maximum is a Fraction operation.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from tetrahess.core import TetraHessenberg
from tetrahess.darboux import _AKV_DETS, AkvReport, _check_pbf, _forced_nu, _l_times, _u_times
from tetrahess.errors import SignViolation, ZeroNu
from tetrahess.poly import Poly, constant_poly


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
    keyed by name, by the Fraction recurrence."""
    return {name: tuple(v) for name, v in _sequences(t, kind, n, nu, x).items()}


def akv_sign_checks(t, alphas, n: int, xs) -> AkvReport:
    """The twelve AKV determinants at each sample x, as Fractions, with the
    sampled values from the Fraction recurrence above."""
    xs = tuple(xs)
    if not xs:
        raise ValueError("at least one sample point is required")
    for x in xs:
        if x < 0:
            raise ValueError(f"sample x = {x} violates x >= 0")
    u, _, q = _check_pbf(alphas, 3 * n + 4, "akv_sign_checks")
    nu = _forced_nu(alphas.at(2))

    max_value = None
    max_location = None
    zeros_at_origin = 0
    checked = 0
    for x in xs:
        second = sequence_values(t, "second", n + 2, x, nu)
        base = (sequence_values(t, "type2", n + 2, x)["B"], second["B1"], second["B2"])
        hathat = tuple(_u_times(u, v) for v in base)
        vals = (base, tuple(_l_times(q, uv) for uv in hathat), hathat)
        for det_id, (top, shift, bottom, comp) in enumerate(_AKV_DETS, start=1):
            for k in range(n + 1):
                t_main = vals[top][0][k + shift]
                t_comp = vals[top][comp][k + shift]
                b_main = vals[bottom][0][k]
                b_comp = vals[bottom][comp][k]
                value = t_main * b_comp - t_comp * b_main
                checked += 1
                if value > 0:
                    raise SignViolation(det_id, k, x, value)
                if x == 0 and value == 0:
                    zeros_at_origin += 1
                if max_value is None or value > max_value:
                    max_value = value
                    max_location = (det_id, k, x)
    return AkvReport(
        n_max=n,
        xs=xs,
        checked=checked,
        max_value=max_value,
        max_location=max_location,
        zeros_at_origin=zeros_at_origin,
    )
