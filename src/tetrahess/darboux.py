"""Darboux transformations of a factored matrix and everything built on
them: transformed polynomial families, reconstruction of the alphas from
polynomial values at the origin, the Christoffel-correspondence identity
checks, and the vector-convergent sign inequalities.

With T = L1 L2 U, the two Darboux transforms are the cyclic reorderings

    hat T = L2 U L1        hathat T = U L1 L2

which are again tetradiagonal lower Hessenberg with unit superdiagonal.
Throughout this module the free type I constant is forced to nu = -1/alpha_2
(the divisibility results underlying every transformed type I family need
1 + nu alpha_2 = 0).  Every check is exact: they hinge on polynomials
being exactly divisible by x.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    AlphaSequence,
    Classification,
    TetraHessenberg,
    _factor_triple,
    _interleave,
    _lu_bands,
    _split_alphas,
    alpha_factor_matrices,
    leading_principal,
)
from .errors import (
    IdentityViolation,
    SignViolation,
    TetraError,
    ZeroAlphaTwo,
    ZeroAtOrigin,
    ZeroNu,
)
from .polynomials import (
    PolySequence,
    char_poly_truncation,
    sequence_values,
    type1_sequences,
    type2_sequence,
)
from .scalars import over_common_denominator


@dataclass(frozen=True)
class DarbouxPair:
    """The two transformed matrices."""

    hat: TetraHessenberg
    hathat: TetraHessenberg


@dataclass(frozen=True)
class TransformedPolys:
    """Transformed polynomial families; type II parts may be absent when only
    the type I transform was requested."""

    nu: object
    tildeB: PolySequence = None
    tildetildeB: PolySequence = None
    hatA1: PolySequence = None
    tildeA2: PolySequence = None
    tildetildeA1: PolySequence = None
    tildetildeA2: PolySequence = None


@dataclass(frozen=True)
class ChristoffelReport:
    n_max: int
    identities: tuple
    checked: int


@dataclass(frozen=True)
class AkvReport:
    n_max: int
    xs: tuple
    checked: int
    max_value: object
    max_location: tuple  # (det_id, n, x)
    zeros_at_origin: int


def _forced_nu(alpha2):
    """nu = -1/alpha_2, exact for an int alpha_2 too."""
    if alpha2 == 0:
        raise ZeroAlphaTwo()
    return Fraction(-1) / alpha2


def darboux_transform(alphas: AlphaSequence, which: str) -> TetraHessenberg:
    """One Darboux transform, ``which`` = "hat" or "hathat": the L U bands
    of the rotated factors.  With (u, p, q) the factors of T = L1 L2 U
    (core._split_alphas), hat T = L2 U L1 has the factors (p shifted up one
    row, q, u) and hathat T = U L1 L2 the factors (q shifted up one row, u,
    p shifted up one row).  The transform holds every row its alphas
    determine, and a_n > 0 is enforced as for any other TetraHessenberg
    (guaranteed when the alphas are PBF).
    """
    if which not in ("hat", "hathat"):
        raise ValueError(f"unknown transform {which!r}")
    u, p, q = _split_alphas(alphas.values)
    rotated = (p[1:], q, u) if which == "hat" else (q[1:], u, p[1:])
    c, b, a = _lu_bands(*_factor_triple(*rotated))
    return TetraHessenberg(a, b, c)


def darboux_transforms(alphas: AlphaSequence) -> DarbouxPair:
    """Both Darboux transforms (see darboux_transform)."""
    return DarbouxPair(darboux_transform(alphas, "hat"), darboux_transform(alphas, "hathat"))


def truncation_mismatch(alphas: AlphaSequence, n: int, which: str) -> dict:
    """Diagnostic comparing leading_principal of a Darboux transform with
    the dense product of truncated factors in the corresponding order.

    Returns {(i, j): (band_value, product_value)} for differing entries.
    A truncated product loses boundary terms: the hat case differs exactly
    at (N, N) by alpha_{3N+2}; the hathat case at (N, N) by
    alpha_{3N+2} + alpha_{3N+3} and at (N, N-1) by alpha_{3N+2} alpha_{3N}.
    """
    t = darboux_transform(alphas, which)
    l1, l2, u = alpha_factor_matrices(alphas, n)
    product = l2.mul(u).mul(l1) if which == "hat" else u.mul(l1).mul(l2)
    truncated = leading_principal(t, n)
    out = {}
    for i in range(n + 1):
        for j in range(n + 1):
            bv = truncated.entry(i, j)
            pv = product.entry(i, j)
            if bv != pv:
                out[(i, j)] = (bv, pv)
    return out


# The factor products take v = (v_0, v_1, ...), polynomials or their values
# at one point (evaluation commutes with each), and hold every row the factor
# and v determine; L is unit lower bidiagonal with subdiagonal ``sub``.
# ``one`` stands for 1: with factors scaled by an int K and ``one`` = K, the
# products of int v are K times the true ones, with no Fraction formed.


def _u_times(u, v, one=1):
    """U v: (U v)_k = v_{k+1} + u_k v_k."""
    return tuple(v_k1 * one + v_k * u_k for u_k, v_k, v_k1 in zip(u, v, v[1:]))


def _l_times(sub, v, one=1):
    """L v: (L v)_0 = v_0 and (L v)_k = v_k + sub_k v_{k-1}."""
    return (v[0] * one, *(v_k * one + v_k1 * s_k for s_k, v_k, v_k1 in zip(sub[1:], v[1:], v)))


def _times_l(v, sub):
    """v L, v a row: (v L)_k = v_k + sub_{k+1} v_{k+1}."""
    return tuple(v_k + v_k1 * s_k1 for s_k1, v_k, v_k1 in zip(sub[1:], v, v[1:]))


def _over_x(polys, name):
    """Each polynomial divided by x, exactly (InexactDivision names
    ``name``_k at the first nonzero constant term)."""
    return PolySequence(tuple(p.exact_div_x(context=f"{name}_{k}") for k, p in enumerate(polys)))


def transformed_type2(t: TetraHessenberg, alphas: AlphaSequence, n: int):
    """The transformed type II sequences (tildeB, tildetildeB), indices 0..N,
    with B = (B_0, B_1, ...) a column and (u, p, q) the factors of T:

        x tildetildeB = U B,    x tildeB = L2 U B.

    The division by x is asserted by checking the constant term vanishes,
    which fails (InexactDivision) whenever alphas do not factor T.  Reads
    alpha_1 .. alpha_{3N+1}.
    """
    if n < 1:
        raise ValueError("transformed sequences need N >= 1")
    b = type2_sequence(t, n + 1)
    u, _, q = _split_alphas(alphas.prefix(3 * n + 1))
    ub = _u_times(u, b)
    return _over_x(_l_times(q, ub), "tildeB"), _over_x(ub, "tildetildeB")


def transformed_char_polys(pair: DarbouxPair, n: int, k: int, nu):
    """Characteristic polynomials of trailing truncations of the hat matrix:
    (tildeB^[k]_{N+1}, tildeB^(1)_{N+1}, tildeB^(2)_{N+1}) where

        tildeB^(1)_{N+1} = tildeB^[1]_{N+1}
        tildeB^(2)_{N+1} = tildeB^[2]_{N+1} - nu tildeB^[1]_{N+1}.
    """
    if nu == 0:
        raise ZeroNu()
    main = char_poly_truncation(pair.hat, n, k)
    first = char_poly_truncation(pair.hat, n, 1)
    second = char_poly_truncation(pair.hat, n, 2) - first.scale(nu)
    return main, first, second


def transformed_type1(t: TetraHessenberg, alphas: AlphaSequence, n: int) -> TransformedPolys:
    """Transformed type I sequences, indices 0..N, with nu forced to
    -1/alpha_2.  With A1 = (A1_0, A1_1, ...) and A2 rows and (u, p, q) the
    factors of T:

        hatA1 = A2 L1  (no division),    x tildeA2 = A1 L1,
        x tildetildeA1 = A1 L1 L2,       x tildetildeA2 = A2 L1 L2.

    Requires alphas materializable to index 3N+5 and the matrix bands to
    a_{N+2} (the A sequences run to index N+2).
    """
    nu = _forced_nu(alphas.at(2))
    a1, a2 = type1_sequences(t, n + 2, nu)
    _, p, q = _split_alphas(alphas.prefix(3 * n + 5))
    a1l1, a2l1 = _times_l(a1, p), _times_l(a2, p)
    return TransformedPolys(
        nu=nu,
        hatA1=PolySequence(a2l1[: n + 1]),
        tildeA2=_over_x(a1l1[: n + 1], "tildeA2"),
        tildetildeA1=_over_x(_times_l(a1l1, q), "tildetildeA1"),
        tildetildeA2=_over_x(_times_l(a2l1, q), "tildetildeA2"),
    )


def darboux_polynomials(t: TetraHessenberg, alphas: AlphaSequence, n: int) -> TransformedPolys:
    """All six transformed sequences in one TransformedPolys."""
    tilde_b, tildetilde_b = transformed_type2(t, alphas, n)
    tp = transformed_type1(t, alphas, n)
    return TransformedPolys(
        nu=tp.nu,
        tildeB=tilde_b,
        tildetildeB=tildetilde_b,
        hatA1=tp.hatA1,
        tildeA2=tp.tildeA2,
        tildetildeA1=tp.tildetildeA1,
        tildetildeA2=tp.tildetildeA2,
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


def _check_pbf(alphas: AlphaSequence, count: int, op: str):
    """The factors (u, p, q) of alpha_1 .. alpha_count, once every one of
    those alphas is checked positive."""
    if alphas.classify(count=count) is not Classification.PBF:
        raise TetraError(f"{op} requires a PBF alpha sequence (positive entries)")
    return _split_alphas(alphas.values[:count])


def _check_identity(name, k, constant, terms, base):
    """Check one identity at k: ``constant`` is lhs(0), None where lhs is
    not x times a polynomial, and ``terms`` write lhs - rhs as (scalar,
    family, index); only a nonzero scalar reads ``base(family, index)``."""
    if constant:
        raise IdentityViolation(name, k, constant)
    polys = [base(family, index).scale(s) for s, family, index in terms if s]
    if polys and not (residual := sum(polys[1:], polys[0])).is_zero():
        raise IdentityViolation(name, k, residual)


def verify_christoffel(t: TetraHessenberg, alphas: AlphaSequence, n: int) -> ChristoffelReport:
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

    Each left side is a factor product of the base sequences (L2 U B at k
    is B_{k+1} + (u_k + q_k) B_k + q_k u_{k-1} B_{k-1}), so lhs(0) and the
    scalars of lhs - rhs, a sum of at most two base polynomials, need only
    the origin values, O(N) recurrence steps at x = 0.  A nonzero lhs(0) is
    the residual; B, A1 and A2 are built, once, only for a nonzero scalar.
    The first failure in (k, identity) order raises IdentityViolation.
    """
    u, p, q = _check_pbf(alphas, 3 * n + 5, "verify_christoffel")
    if n < 1:
        raise ValueError("transformed sequences need N >= 1")
    b0 = sequence_values(t, "type2", n + 1, 0)["B"]
    nu = _forced_nu(alphas.at(2))
    origin = sequence_values(t, "type1", n + 2, 0, nu)
    a10, a20 = origin["A1"], origin["A2"]
    bases = {}

    def base(family, index):
        if not bases:
            bases["B"], (bases["A1"], bases["A2"]) = type2_sequence(t, n + 1), type1_sequences(t, n + 2, nu)
        return bases[family][index]

    names = ("tilde_b", "tildetilde_b", "hat_a1", "tilde_a2", "tildetilde_a1", "tildetilde_a2")
    for k in range(n + 1):
        if a10[k] == 0 or a10[k + 1] == 0:
            raise ZeroAtOrigin(k if a10[k] == 0 else k + 1, "A1")
        if b0[k] == 0:
            raise ZeroAtOrigin(k, "B")
        constant = b0[k + 1] + (u[k] + q[k]) * b0[k]
        terms = [(u[k] + q[k] - (a10[k - 1] / a10[k] if k >= 1 else 0) - t.c(k), "B", k)]
        if k >= 1:
            constant += q[k] * u[k - 1] * b0[k - 1]
            terms.append((q[k] * u[k - 1] + a10[k + 1] / a10[k] * t.a(k + 1), "B", k - 1))
        _check_identity("tilde_b", k, constant, terms, base)
        _check_identity("tildetilde_b", k, b0[k + 1] + u[k] * b0[k], [(u[k] + b0[k + 1] / b0[k], "B", k)], base)
        coeff = p[k + 1] + a10[k] / a10[k + 1]
        _check_identity("hat_a1", k, None, [(coeff, "A2", k + 1)], base)
        _check_identity("tilde_a2", k, a10[k] + p[k + 1] * a10[k + 1], [(coeff, "A1", k + 1)], base)
        s1, s2 = _origin_system(a10, a20, k)
        pq, qp = p[k + 1] + q[k + 1], q[k + 1] * p[k + 2]
        for name, family, v in (("tildetilde_a1", "A1", a10), ("tildetilde_a2", "A2", a20)):
            terms = [(pq + s1, family, k + 1), (qp + s2, family, k + 2)]
            _check_identity(name, k, v[k] + pq * v[k + 1] + qp * v[k + 2], terms, base)
    return ChristoffelReport(n_max=n, identities=names, checked=len(names) * (n + 1))


#: The twelve sign-definite 2x2 pairings: (top family, top index shift,
#: bottom family, companion selector).  Families: 0 = B, 1 = hat, 2 = hathat.
_AKV_DETS = (
    (1, 0, 0, 1),
    (1, 0, 0, 2),
    (2, 0, 0, 1),
    (2, 0, 0, 2),
    (2, 0, 1, 1),
    (2, 0, 1, 2),
    (0, 1, 1, 1),
    (0, 1, 1, 2),
    (0, 1, 2, 1),
    (0, 1, 2, 2),
    (1, 1, 2, 1),
    (1, 1, 2, 2),
)


def akv_sign_checks(t: TetraHessenberg, alphas: AlphaSequence, n: int, xs) -> AkvReport:
    """Evaluate the twelve vector-convergent 2x2 determinants for all
    0 <= k <= N at each sample x >= 0 and assert every value <= 0.

    The three strands per family are (B_n, B^(1)_n, B^(2)_n) with
    nu = -1/alpha_2 fixed.  The hatted families multiply each strand v, a
    column, by the same factors that send B to x tildeB and x tildetildeB:

        hat:    L2 U v        hathat: U v

    For the main strand these are divisible by x (eigen-relation); for the
    second-kind strands they are not, and the undivided products are the
    ones entering the determinants.

    Nothing here is a polynomial: at each sample x the recurrences run over
    the integers (sequence_values, O(N) steps), so the cost is O(N) per
    sample point.  Every strand is then a list of ints over one positive
    denominator per family: u and q are brought to one K once per call, the
    three sampled strands to one d at each x, and the factor products run
    on those ints with ``one`` = K, so B, hat and hathat sit over d, d K^2
    and d K.  A determinant's int numerator, over the product of its two
    families' denominators, decides its sign, and the running maximum is
    compared by cross-multiplication.  Only the reported max_value, and the
    value a SignViolation carries, become Fractions, each equal to the
    determinant it stands for.
    """
    xs = tuple(xs)
    if not xs:
        raise ValueError("at least one sample point is required")
    for x in xs:
        if x < 0:
            raise ValueError(f"sample x = {x} violates x >= 0")
    u, _, q = _check_pbf(alphas, 3 * n + 4, "akv_sign_checks")
    nu = _forced_nu(alphas.at(2))
    factors, big_k = over_common_denominator(u + q)
    u, q = factors[: len(u)], factors[len(u) :]

    mnum = mden = max_location = None
    zeros_at_origin = 0
    checked = 0
    for x in xs:
        second = sequence_values(t, "second", n + 2, x, nu)
        b = sequence_values(t, "type2", n + 2, x)["B"]
        strands, d = over_common_denominator(b + second["B1"] + second["B2"])
        m = len(b)
        base = strands[:m], strands[m : 2 * m], strands[2 * m :]
        hathat = tuple(_u_times(u, v, big_k) for v in base)
        vals = (base, tuple(_l_times(q, uv, big_k) for uv in hathat), hathat)
        dens = (d, d * big_k * big_k, d * big_k)
        for det_id, (top, shift, bottom, comp) in enumerate(_AKV_DETS, start=1):
            tm, tc, bm, bc = vals[top][0][shift:], vals[top][comp][shift:], vals[bottom][0], vals[bottom][comp]
            den = dens[top] * dens[bottom]
            for k in range(n + 1):
                num = tm[k] * bc[k] - tc[k] * bm[k]
                checked += 1
                if num > 0:
                    raise SignViolation(det_id, k, x, Fraction(num, den))
                if num == 0 and x == 0:
                    zeros_at_origin += 1
                if mnum is None or num * mden > mnum * den:
                    mnum, mden, max_location = num, den, (det_id, k, x)
    return AkvReport(
        n_max=n,
        xs=xs,
        checked=checked,
        max_value=Fraction(mnum, mden),
        max_location=max_location,
        zeros_at_origin=zeros_at_origin,
    )
