"""The band builder and the LU refinement in term-by-term Fraction
arithmetic, as ``tetrahess.core`` and ``tetrahess.factorization`` ran them
before each entry was formed from int numerator and denominator pairs,
kept unchanged as the oracles of the differential tests in test_core.py
and test_factorization.py.

``factor_triple`` and ``lu_bands`` are generic: any ring serves, and int
alphas give int bands.  ``bidiagonal_factor`` splits L = L1 L2 one
Fraction operation at a time, on the LU data of ``oracle_point.gauss_borel``.

``comparison_cases`` and ``compared`` are the differential set and the
compared results.  They need no pytest, so the comparison also runs as a
script, on an interpreter without it:

    PYTHONPATH=src python tests/oracle_bands.py
"""

from __future__ import annotations

import random
from fractions import Fraction

from oracle_point import gauss_borel
from tetrahess import darboux, factorization
from tetrahess.core import AlphaSequence, TetraHessenberg, _interleave, _split_alphas, bands_from_alphas
from tetrahess.errors import TetraError, ZeroAlpha3n
from tetrahess.scalars import format_scalar


def factor_triple(u, p, q):
    """The factors (u, m, l) of T = L U from the bidiagonal factors (u, p, q)
    of _split_alphas: L = L1 L2 has subdiagonals m_n = p_n + q_n and
    l_n = p_n q_{n-1} (l_0 = 0), each down to the last row p and q fix."""
    m = tuple(p_n + q_n for p_n, q_n in zip(p, q))
    ell = tuple(p_n * q_n1 for p_n, q_n1 in zip(p, (0,) + q))
    return u, m, ell


def lu_bands(u, m, ell):
    """Bands (c, b, a) of L U, as tuples starting at rows 0, 1 and 2, for a
    factor triple indexed as factor_triple returns it,

        c_n = u_n + m_n,  b_n = l_n + m_n u_{n-1},  a_n = l_n u_{n-2},

    each down to the last row the three tuples determine (u_n1 is u_{n-1},
    u_n2 is u_{n-2})."""
    c = tuple(u_n + m_n for u_n, m_n in zip(u, m))
    b = tuple(l_n + m_n * u_n1 for l_n, m_n, u_n1 in zip(ell[1:], m[1:], u))
    a = tuple(l_n * u_n2 for l_n, u_n2 in zip(ell[2:], u))
    return c, b, a


def rotated(alphas: AlphaSequence, which: str):
    """The bidiagonal factors of T (which = None) or of its Darboux
    transform "hat" or "hathat", as darboux_transform rotates them."""
    u, p, q = _split_alphas(alphas.values)
    return {None: (u, p, q), "hat": (p[1:], q, u), "hathat": (q[1:], u, p[1:])}[which]


def bands(alphas: AlphaSequence, which=None):
    """The bands of T, or of one of its Darboux transforms, in Fraction
    arithmetic (no positivity test)."""
    return lu_bands(*factor_triple(*rotated(alphas, which)))


def bidiagonal_factor(t: TetraHessenberg, n: int, alpha2) -> AlphaSequence:
    """Refine the LU data of T^[N] into alpha_1 .. alpha_{3N+1} given the
    free parameter alpha_2:

        p_1 = alpha_2,  p_k = l_k / q_{k-1} (k >= 2),  q_k = m_k - p_k.

    Raises ZeroAlpha3n(k) when q_k = 0 makes the division for p_{k+1}
    impossible."""
    u, m, ell = gauss_borel(t, n)
    p, q = [0], [0]
    for k in range(1, n + 1):
        if k > 1 and q[-1] == 0:
            raise ZeroAlpha3n(k - 1)
        p_k = alpha2 if k == 1 else ell[k] / q[-1]
        p.append(p_k)
        q.append(m[k] - p_k)
    return _interleave(u, p, q)


#: A 5000-digit alpha, past the interpreter's 4300-digit int/str limit.
BIG = Fraction(10**4999 + 7, 3**40)


def _alpha(rng, signed):
    """A random int or Fraction alpha; with ``signed``, zeros and negative
    values too."""
    kind = rng.randrange(4 if signed else 2)
    if kind == 0:
        return rng.randint(1, 9)
    if kind == 1:
        return Fraction(rng.randint(1, 40), rng.randint(1, 40))
    if kind == 2:
        return 0
    return rng.choice((-1, Fraction(-rng.randint(1, 40), rng.randint(1, 40))))


def comparison_cases(seed, count):
    """``count`` inputs (alphas, t, n, alpha2), reproducible from
    ``seed``: alphas of every length residue mod 3 (3k, 3k + 1, 3k + 2 in
    turn, k <= 20), all positive or with zeros and negative values, as
    ints, Fractions or both, and one case in eight carrying BIG; t the
    matrix of the first positive ones, or a random signed band matrix,
    with N below their rows and alpha2 their alpha_2 or another value."""
    rng = random.Random(seed)
    cases = []
    for i in range(count):
        signed = i % 2 == 1
        values = [_alpha(rng, signed) for _ in range(3 * rng.randint(0, 20) + i % 3)]
        if i % 8 == 7 and values:
            values[rng.randrange(len(values))] = BIG
        alphas = AlphaSequence(values)
        n = rng.randint(0, 10)
        if i % 4 < 2:
            pbf = AlphaSequence([_alpha(rng, False) for _ in range(3 * n + 4)])
            t, alpha2 = TetraHessenberg(*reversed(bands(pbf))), pbf.at(2)
        else:
            c, b = ([rng.randint(-2, 2) for _ in range(n + 3)] for _ in "cb")
            t = TetraHessenberg(a=[rng.randint(1, 3) for _ in range(n + 3)], b=b, c=c)
            alpha2 = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        if rng.random() < 0.3:
            alpha2 = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        cases.append((alphas, t, n, alpha2))
    return cases


def outcome(call, *args):
    """The result of ``call``, or its error as (type, args)."""
    try:
        return call(*args)
    except (TetraError, ValueError) as error:
        return type(error), error.args


def typed_alphas(seq):
    """An alpha sequence as its values with their types, or an error as it
    was."""
    return [(v, type(v)) for v in seq.values] if isinstance(seq, AlphaSequence) else seq


def _printed(bands):
    """Bands (c, b, a) as lists of their printed entries."""
    return tuple([format_scalar(v) for v in band] for band in bands)


def _matrix(t):
    """A matrix as its printed bands, or an error as it was."""
    return _printed((t.c_band, t.b_band, t.a_band)) if isinstance(t, TetraHessenberg) else t


def compared(case):
    """(what, got, want) for each int-pair form and its Fraction oracle on
    one case: the printed bands of T (each entry a Fraction) and of both
    Darboux transforms, or their refusal, gauss_borel and
    bidiagonal_factor.  got == want is the differential check."""
    alphas, t, n, alpha2 = case
    got = bands_from_alphas(alphas)
    out = [("bands_from_alphas", _printed(got), _printed(bands(alphas))),
           ("bands_from_alphas types", {type(v) for band in got for v in band} <= {Fraction}, True)]
    for which in ("hat", "hathat"):
        out.append((f"darboux {which}", _matrix(outcome(darboux.darboux_transform, alphas, which)),
                    _matrix(outcome(lambda: TetraHessenberg(*reversed(bands(alphas, which)))))))
    out.append(("gauss_borel", outcome(factorization.gauss_borel, t, n), outcome(gauss_borel, t, n)))
    out.append(("bidiagonal_factor", typed_alphas(outcome(factorization.bidiagonal_factor, t, n, alpha2)),
                typed_alphas(outcome(bidiagonal_factor, t, n, alpha2))))
    return out


if __name__ == "__main__":
    import sys

    cases = [case for seed in (1, 2, 3) for case in comparison_cases(seed, 200)]
    results = [row for case in cases for row in compared(case)]
    differ = sorted({what for what, got, want in results if got != want})
    refused = sum(what == "bidiagonal_factor" and want[0] is ZeroAlpha3n for what, _, want in results)
    print(f"Python {sys.version.split()[0]}: {len(cases)} cases, {len(results)} comparisons "
          f"({refused} factorizations refused at a zero alpha_3n), "
          f"{sum(got != want for _, got, want in results)} differ{': ' + ', '.join(differ) if differ else ''}")
    sys.exit(1 if differ else 0)
