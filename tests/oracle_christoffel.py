"""The polynomial form of the Christoffel-correspondence check that the
origin-value form of ``tetrahess.darboux.verify_christoffel`` replaced,
kept unchanged as the oracle of the differential tests in
test_darboux.py.

B, A1 and A2 are built as polynomials up to N, every left side is a factor
product of them (``_u_times``, ``_l_times``, ``_times_l``), and each of the
six identities is compared as ``Poly`` arithmetic at every k: O(N^2)
coefficient work, with a gcd per operation.

``comparison_cases`` and ``outcome`` are the differential set and the
compared result.  They need no pytest, so the comparison also runs as a
script, on an interpreter without it:

    PYTHONPATH=src python tests/oracle_christoffel.py
"""

from __future__ import annotations

import random
from fractions import Fraction

from oracle_point import _origin_system
from tetrahess import AlphaSequence, tetra_from_alphas, tetra_from_bands
from tetrahess.darboux import _check_pbf, _forced_nu, _l_times, _times_l, _u_times
from tetrahess.errors import IdentityViolation, TetraError, ZeroAtOrigin
from tetrahess.polynomials import type1_sequences, type2_sequence


def _check_identity(name, k, lhs, rhs, over_x=True):
    """Check lhs = rhs.  With ``over_x``, lhs is a bracket of the base
    sequences standing for x times a transformed polynomial, so it must
    also be divisible by x."""
    if over_x and lhs.constant != 0:
        raise IdentityViolation(name, k, lhs.constant)
    residual = lhs - rhs
    if not residual.is_zero():
        raise IdentityViolation(name, k, residual)


def verify_christoffel(t, alphas, n: int) -> None:
    """Check the Christoffel-correspondence identities, exactly, for all
    k <= N.  The transformed sequences computed from the alphas must equal
    their expressions in terms of values at the origin:

      tilde_b:       x tildeB_k = B_{k+1}
                       + (A1_{k-1}(0)/A1_k(0) + c_k) B_k
                       - (A1_{k+1}(0)/A1_k(0)) a_{k+1} B_{k-1}
      tildetilde_b:  x tildetildeB_k = B_{k+1} - (B_{k+1}(0)/B_k(0)) B_k
      hat_a1:        hatA1_k = A2_k - (A1_k(0)/A1_{k+1}(0)) A2_{k+1}
      tilde_a2:      x tildeA2_k = A1_k - (A1_k(0)/A1_{k+1}(0)) A1_{k+1}
      tildetilde_a1 / tildetilde_a2:
                     x tildetildeA{a}_k = A{a}_k - s1 A{a}_{k+1} - s2 A{a}_{k+2}
                     with [s1, s2] = [A1_k(0), A2_k(0)] M_k^{-1}.

    Each left side is formed from one build of B and of (A1, A2) by the
    factor products of transformed_type2 and transformed_type1; a left side
    that is not divisible by x fails its identity with the constant term as
    residual.  The right sides stay written out from the origin values, so
    a fault in a product cannot cancel.  Raises IdentityViolation at the
    first failure, in (k, identity) order.
    """
    u, p, q = _check_pbf(alphas, 3 * n + 5, "verify_christoffel")
    if n < 1:
        raise ValueError("transformed sequences need N >= 1")
    b = type2_sequence(t, n + 1)
    a1, a2 = type1_sequences(t, n + 2, _forced_nu(alphas.at(2)))
    ub = _u_times(u, b)
    l2ub = _l_times(q, ub)
    a1l1, a2l1 = _times_l(a1, p), _times_l(a2, p)
    a1l1l2, a2l1l2 = _times_l(a1l1, q), _times_l(a2l1, q)
    b0 = [v.constant for v in b]
    a10 = [v.constant for v in a1]
    a20 = [v.constant for v in a2]
    for k in range(n + 1):
        if a10[k] == 0 or a10[k + 1] == 0:
            raise ZeroAtOrigin(k if a10[k] == 0 else k + 1, "A1")
        if b0[k] == 0:
            raise ZeroAtOrigin(k, "B")
        rhs = b[k + 1] + b[k].scale((a10[k - 1] if k >= 1 else 0) / a10[k] + t.c(k))
        if k >= 1:
            rhs = rhs - b[k - 1].scale(a10[k + 1] / a10[k] * t.a(k + 1))
        _check_identity("tilde_b", k, l2ub[k], rhs)
        # the ratio multiplies B_k (monicity forces this orientation -- the
        # two readings coincide only when the ratio is -1)
        rhs = b[k + 1] - b[k].scale(b0[k + 1] / b0[k])
        _check_identity("tildetilde_b", k, ub[k], rhs)
        ratio = a10[k] / a10[k + 1]
        rhs = a2[k] - a2[k + 1].scale(ratio)
        _check_identity("hat_a1", k, a2l1[k], rhs, over_x=False)
        rhs = a1[k] - a1[k + 1].scale(ratio)
        _check_identity("tilde_a2", k, a1l1[k], rhs)
        s1, s2 = _origin_system(a10, a20, k)
        for name, v, lhs in (("tildetilde_a1", a1, a1l1l2), ("tildetilde_a2", a2, a2l1l2)):
            rhs = v[k] - v[k + 1].scale(s1) - v[k + 2].scale(s2)
            _check_identity(name, k, lhs[k], rhs)


def _alphas(rng, count, height):
    """``count`` PBF alphas p/q with 1 <= p, q <= height."""
    return AlphaSequence(tuple(Fraction(rng.randint(1, height), rng.randint(1, height)) for _ in range(count)))


def comparison_cases(seed, count):
    """``count`` inputs (t, alphas, n), N = 1..20, alphas of height 3 or 12,
    reproducible from ``seed``.  In turn: a matrix the alphas factor; the
    same with one alpha moved, in the alphas checked or in those the matrix
    is built from; and a matrix of unrelated alphas, a few of them too short
    for N.  Then, in 15 % of cases, one band entry of the matrix is raised
    or lowered (a_n only raised, so it stays positive)."""
    rng = random.Random(seed)
    cases = []
    for i in range(count):
        n, height = rng.randint(1, 20), rng.choice((3, 12))
        alphas = _alphas(rng, 3 * n + 5, height)
        values = list(alphas.values)
        if i % 4 in (1, 2):
            j = rng.randrange(len(values))
            values[j] += Fraction(rng.choice((-1, 1)), rng.randint(2, 2 * height)) * values[j]
        if i % 4 == 3:
            t = tetra_from_alphas(_alphas(rng, 3 * n + rng.choice((2, 5, 5, 5)), height))
        else:
            t = tetra_from_alphas(AlphaSequence(tuple(values)) if i % 4 == 2 else alphas)
        if i % 4 == 1:
            alphas = AlphaSequence(tuple(values))
        if rng.random() < 0.15:
            bands = {name: list(getattr(t, f"{name}_band").values) for name in "abc"}
            name = rng.choice("abc")
            j = rng.randrange(len(bands[name]))
            step = Fraction(rng.randint(1, 4), rng.randint(1, 3))
            bands[name][j] += step if name == "a" else rng.choice((-1, 1)) * step
            t = tetra_from_bands(**bands)
        cases.append((t, alphas, n))
    return cases


def outcome(verify, t, alphas, n):
    """What ``verify`` returns (None), or its error as (type, str, args,
    name, n, residual, type of the residual), the name, n and residual None
    where the error has no such field."""
    try:
        return verify(t, alphas, n)
    except TetraError as error:
        name, k, residual = (getattr(error, attr, None) for attr in ("name", "n", "residual"))
        return (type(error), str(error), error.args, name, k, residual, type(residual))


if __name__ == "__main__":
    import sys

    from tetrahess.darboux import verify_christoffel as origin_value_form

    cases = [case for seed in (1, 2, 3) for case in comparison_cases(seed, 300)]
    differ = [case for case in cases if outcome(origin_value_form, *case) != outcome(verify_christoffel, *case)]
    print(f"Python {sys.version.split()[0]}: {len(cases)} cases, {len(differ)} differ")
    sys.exit(1 if differ else 0)
