"""The recurrence as Poly and Fraction operations, the Fraction AKV
determinant loop, and the Fraction readers of the origin values
(``_origin_system``, ``alphas_from_polynomials`` and ``gauss_borel``),
that the integer forms in ``tetrahess.polynomials``, ``tetrahess.darboux``
and ``tetrahess.factorization`` replaced, kept unchanged as the oracles of
the differential tests in test_point.py.

Every polynomial step is Poly arithmetic (``_x_minus``, ``Poly.scale``),
every value at the point is a Fraction, one gcd per operation, and every
determinant, ratio, comparison and maximum is a Fraction operation.

``comparison_cases`` and ``compared`` are a differential set and the
compared results of the integer forms and these oracles.  They need no
pytest, so the comparison also runs as a script, on an interpreter
without it:

    PYTHONPATH=src python tests/oracle_point.py
"""

from __future__ import annotations

import operator
import random
from fractions import Fraction

from tetrahess import darboux, factorization, polynomials
from tetrahess.cli import AKV_XS
from tetrahess.core import AlphaSequence, TetraHessenberg, _interleave, tetra_from_alphas
from tetrahess.darboux import _AKV_DETS, AkvReport, _check_pbf, _forced_nu, _l_times, _u_times
from tetrahess.errors import SignViolation, SingularLeadingMinor, TetraError, ZeroAtOrigin, ZeroNu
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
        checked=checked,
        max_value=max_value,
        max_location=max_location,
        zeros_at_origin=zeros_at_origin,
    )


def _origin_system(a10, a20, k):
    """[s1, s2] = [A1_k(0), A2_k(0)] M_k^{-1}, with M_k the 2x2 matrix whose
    rows are the origin values (A1(0), A2(0)) at indices k+1 and k+2.

    Whatever nu is, det M_k = (-1)^{k+1} B_{k+1}(0) / (a_2 ... a_{k+2}), so
    M_k is singular exactly when B_{k+1}(0) = 0, and that is the error
    raised."""
    det = a10[k + 1] * a20[k + 2] - a20[k + 1] * a10[k + 2]
    if det == 0:
        raise ZeroAtOrigin(k + 1, "B")
    s1 = (a10[k] * a20[k + 2] - a20[k] * a10[k + 2]) / det
    s2 = (a20[k] * a10[k + 1] - a10[k] * a20[k + 1]) / det
    return s1, s2


def alphas_from_polynomials(t: TetraHessenberg, n: int, alpha2) -> AlphaSequence:
    """Reconstruct alpha_1 .. alpha_{3N+1} from polynomial values at the
    origin, given the free parameter alpha_2 != 0, as the factors (u, p, q)
    of T (core._split_alphas) put back in order:

        u_k     = -B_{k+1}(0) / B_k(0)
        p_{k+1} = -A1_k(0) / A1_{k+1}(0)                (nu = -1/alpha_2)
        [p_{k+1} + q_{k+1}, p_{k+2} q_{k+1}] = -[A1_k(0), A2_k(0)] M_k^{-1}

    with M_k the 2x2 matrix of (A1, A2) values at 0 at indices k+1, k+2;
    q_{k+1} is the first component less p_{k+1}.
    The values at 0 come from the recurrences run at x = 0, O(N) scalar
    steps; no polynomial is built.  Needs the matrix bands up to a_{N+1}.
    """
    nu = _forced_nu(alpha2)
    b0 = sequence_values(t, "type2", n + 1, 0)["B"]
    origin = sequence_values(t, "type1", n + 1, 0, nu)
    a10, a20 = origin["A1"], origin["A2"]
    u = []
    for k in range(n + 1):
        if b0[k] == 0:
            raise ZeroAtOrigin(k, "B")
        u.append(-b0[k + 1] / b0[k])
    p = [0]
    for k in range(n):
        if a10[k + 1] == 0:
            raise ZeroAtOrigin(k + 1, "A1")
        p.append(-a10[k] / a10[k + 1])
    q = [0]
    for k in range(n):
        s1, _ = _origin_system(a10, a20, k)
        q.append(-s1 - p[k + 1])
    return _interleave(u, p, q)


def gauss_borel(t: TetraHessenberg, n: int) -> tuple:
    """LU data of T^[N] as the factor triple (u, m, l), with
    m_0 = l_0 = l_1 = 0; raises SingularLeadingMinor at the first vanishing
    delta^[n].  Rows 0..N are read before any delta is tested, so a matrix
    with fewer rows raises BandExhausted even when an earlier delta
    vanishes."""
    if n < 0:
        raise ValueError("truncation order must be >= 0")
    b0 = sequence_values(t, "type2", n + 1, 0)["B"]
    delta = tuple(v if k % 2 else -v for k, v in enumerate(b0[1:]))
    if 0 in delta:
        raise SingularLeadingMinor(delta.index(0))
    u = tuple(-b0[k + 1] / b0[k] for k in range(n + 1))
    m = (Fraction(0), *(t.c(k) - u[k] for k in range(1, n + 1)))
    ell = (Fraction(0), Fraction(0), *(-t.a(k) * b0[k - 2] / b0[k - 1] for k in range(2, n + 1)))
    return u, m, ell[: n + 1]


#: Sample points: 0, negative and positive p/q, and a large denominator.
POINTS = (Fraction(0), Fraction(-7, 9), Fraction(1, 3), Fraction(-5), Fraction(10**30 + 7, 3**40))


def _alphas(rng, count, height):
    """``count`` PBF alphas p/q with 1 <= p, q <= height."""
    return AlphaSequence(tuple(Fraction(rng.randint(1, height), rng.randint(1, height)) for _ in range(count)))


def comparison_cases(seed, count):
    """``count`` inputs (t, alphas, n), N = 0..16, reproducible from
    ``seed``.  In turn: the matrix of PBF alphas of height 3 or 12, with
    those alphas; a matrix of signed int bands (c, b in -1..1, a in 1..2),
    whose origin values often vanish, with unrelated alphas; and a matrix
    of alphas too short for N or just long enough."""
    rng = random.Random(seed)
    cases = []
    for i in range(count):
        n, height = rng.randint(0, 16), rng.choice((3, 12))
        alphas = _alphas(rng, 3 * n + 10, height)
        if i % 3 == 0:
            t = tetra_from_alphas(alphas)
        elif i % 3 == 1:
            c, b = ([rng.randint(-1, 1) for _ in range(n + 4)] for _ in "cb")
            t = TetraHessenberg(a=[rng.randint(1, 2) for _ in range(n + 4)], b=b, c=c)
        else:
            t = tetra_from_alphas(_alphas(rng, 3 * n + rng.choice((-2, 1, 4, 7)), height))
        cases.append((t, alphas, n))
    return cases


def _typed(value):
    """``value`` with the type of every scalar in it, so that int 1 and
    Fraction(1) compare unequal."""
    if isinstance(value, (int, Fraction)):
        return type(value).__name__, value
    if isinstance(value, (tuple, list)):
        return tuple(map(_typed, value))
    if isinstance(value, dict):
        return tuple((key, _typed(v)) for key, v in value.items())
    if isinstance(value, AlphaSequence):
        return "alphas", _typed(value.values)
    if isinstance(value, AkvReport):
        return "akv", _typed((value.checked, value.max_value, value.max_location, value.zeros_at_origin))
    return value


def outcome(check, *args):
    """The result of ``check`` with every scalar's type, or its error as
    (type, args, the types of the args, str)."""
    try:
        return _typed(check(*args))
    except (TetraError, ValueError) as error:
        return type(error), error.args, tuple(map(type, error.args)), str(error)


def _int_values(t, kind, n, nu):
    """polynomials._values at every point of POINTS in one call, read back
    as sequence_values' Fractions once each denominator is checked to be a
    positive int."""
    names = polynomials._KINDS[kind]
    out = []
    for lists, d in polynomials._values(t, n, POINTS, names, nu):
        if type(d) is not int or d <= 0 or any(type(v) is not int for vals in lists for v in vals):
            raise TypeError(f"_values gave denominator {d!r} or a numerator that is no int")
        out.append({name: tuple(Fraction(v, d) for v in vals) for name, vals in zip(names, lists)})
    return out


def _int_origin_system(t, n, nu):
    """darboux._origin_system on the int origin values, for k = 0..N, its
    (S1, S2, D) read back as (S1 / D, S2 / D) once D is checked > 0."""
    [((a1, a2), _)] = polynomials._values(t, n + 2, (0,), ("A1", "A2"), nu)
    out = []
    for k in range(n + 1):
        s1, s2, det = darboux._origin_system(a1, a2, k)
        if det <= 0:
            raise TypeError(f"_origin_system gave the denominator {det}")
        out.append((Fraction(s1, det), Fraction(s2, det)))
    return out


def _fraction_origin_system(t, n, nu):
    origin = sequence_values(t, "type1", n + 2, 0, nu)
    return [_origin_system(origin["A1"], origin["A2"], k) for k in range(n + 1)]


def compared(case):
    """(what, got, want) for each integer form and its oracle on one case:
    the values at every point of each kind, the origin system, gauss_borel,
    alphas_from_polynomials at the case's alpha_2 and at -1/2, and the AKV
    determinants.  got == want is the differential check."""
    t, alphas, n = case
    nu = Fraction(-1) / alphas.at(2)
    out = []
    for kind in ("type2", "type1", "second"):
        want = outcome(lambda: [sequence_values(t, kind, n, x, nu) for x in POINTS])
        out.append((f"values {kind}", outcome(_int_values, t, kind, n, nu), want))
    out.append(("_origin_system", outcome(_int_origin_system, t, n, nu), outcome(_fraction_origin_system, t, n, nu)))
    out.append(("gauss_borel", outcome(factorization.gauss_borel, t, n), outcome(gauss_borel, t, n)))
    for alpha2 in (alphas.at(2), Fraction(-1, 2)):
        out.append((f"alphas_from_polynomials at {alpha2}", outcome(darboux.alphas_from_polynomials, t, n, alpha2),
                    outcome(alphas_from_polynomials, t, n, alpha2)))
    out.append(("akv_sign_checks", outcome(darboux.akv_sign_checks, t, alphas, n, AKV_XS),
                outcome(akv_sign_checks, t, alphas, n, AKV_XS)))
    return out


if __name__ == "__main__":
    import sys

    cases = [case for seed in (1, 2, 3) for case in comparison_cases(seed, 100)]
    results = [(what, got == want) for case in cases for what, got, want in compared(case)]
    differ = sorted({what for what, same in results if not same})
    print(f"Python {sys.version.split()[0]}: {len(cases)} cases, {len(results)} comparisons, "
          f"{sum(not same for _, same in results)} differ{': ' + ', '.join(differ) if differ else ''}")
    sys.exit(1 if differ else 0)
