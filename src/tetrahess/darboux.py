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

from dataclasses import dataclass, replace
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
    _values,
    char_poly_truncation,
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


#: The Christoffel-correspondence identities verify_christoffel checks at
#: every k, in the order it checks them.
CHRISTOFFEL_IDENTITIES = ("tilde_b", "tildetilde_b", "hat_a1", "tilde_a2", "tildetilde_a1", "tildetilde_a2")


@dataclass(frozen=True)
class AkvReport:
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
    return replace(transformed_type1(t, alphas, n), tildeB=tilde_b, tildetildeB=tildetilde_b)


def _origin_system(a1, a2, k):
    """[s1, s2] = [A1_k(0), A2_k(0)] M_k^{-1}, with M_k the 2x2 matrix whose
    rows are the origin values (A1(0), A2(0)) at indices k+1 and k+2, as
    (S1, S2, D) with s1 = S1 / D, s2 = S2 / D and D > 0.  ``a1`` and
    ``a2`` are the int numerators of the values over one common
    denominator, which cancels, so every entry is an int 2x2 determinant.

    Whatever nu is, det M_k = (-1)^{k+1} B_{k+1}(0) / (a_2 ... a_{k+2}), so
    M_k is singular exactly when B_{k+1}(0) = 0, and that is the error
    raised."""
    det = a1[k + 1] * a2[k + 2] - a2[k + 1] * a1[k + 2]
    if det == 0:
        raise ZeroAtOrigin(k + 1, "B")
    s1 = a1[k] * a2[k + 2] - a2[k] * a1[k + 2]
    s2 = a2[k] * a1[k + 1] - a1[k] * a2[k + 1]
    return (s1, s2, det) if det > 0 else (-s1, -s2, -det)


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
    steps over the integers, B, A1 and A2 over one denominator, which every
    ratio cancels; no polynomial is built, and each u_k, p_k and q_k is one
    Fraction of two ints.  Needs the matrix bands up to a_{N+1}.
    """
    [((b, a1, a2), _)] = _values(t, n + 1, (0,), ("B", "A1", "A2"), _forced_nu(alpha2))
    u = []
    for k in range(n + 1):
        if b[k] == 0:
            raise ZeroAtOrigin(k, "B")
        u.append(Fraction(-b[k + 1], b[k]))
    p = [0]
    for k in range(n):
        if a1[k + 1] == 0:
            raise ZeroAtOrigin(k + 1, "A1")
        p.append(Fraction(-a1[k], a1[k + 1]))
    q = [0]
    for k in range(n):
        s1, _, det = _origin_system(a1, a2, k)
        # q_{k+1} = -s1 - p_{k+1} = A1_k(0) / A1_{k+1}(0) - s1
        q.append(Fraction(a1[k] * det - s1 * a1[k + 1], a1[k + 1] * det))
    return _interleave(u, p, q)


def _check_pbf(alphas: AlphaSequence, count: int, op: str):
    """The factors (u, p, q) of alpha_1 .. alpha_count, once every one of
    those alphas is checked positive."""
    if alphas.classify(count=count) is not Classification.PBF:
        raise TetraError(f"{op} requires a PBF alpha sequence (positive entries)")
    return _split_alphas(alphas.values[:count])


def _positive(num, den):
    """The ratio num / den as (numerator, denominator > 0)."""
    return (num, den) if den > 0 else (-num, -den)


def _check_identity(name, k, constant, terms, base):
    """Check one identity at k: ``constant`` is lhs(0), None where lhs is
    not x times a polynomial, and ``terms`` write lhs - rhs as (scalar,
    family, index); each scalar is a pair (int numerator, int denominator
    > 0), tested by its numerator, and only a nonzero scalar reads
    ``base(family, index)``."""
    if constant is not None and constant[0]:
        raise IdentityViolation(name, k, Fraction(*constant))
    polys = [base(family, index).scale(Fraction(*s)) for s, family, index in terms if s[0]]
    if polys and not (residual := sum(polys[1:], polys[0])).is_zero():
        raise IdentityViolation(name, k, residual)


def verify_christoffel(t: TetraHessenberg, alphas: AlphaSequence, n: int) -> None:
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
    the origin values, O(N) recurrence steps at x = 0.  They run over the
    integers: the values of B over one denominator d_B, those of A1 and A2
    over one d_A, u, p and q as ints over one K, and every lhs(0) and
    scalar is an int numerator over a positive int denominator, tested
    against 0.  A nonzero lhs(0) is the residual, as a Fraction; B, A1 and
    A2 are built, once, only for a nonzero scalar.  The first failure in
    (k, identity) order raises IdentityViolation, so a return means all
    len(CHRISTOFFEL_IDENTITIES) (N + 1) checks held.
    """
    u, p, q = _check_pbf(alphas, 3 * n + 5, "verify_christoffel")
    if n < 1:
        raise ValueError("transformed sequences need N >= 1")
    [((b,), d_b)] = _values(t, n + 1, (0,), ("B",))
    nu = _forced_nu(alphas.at(2))
    [((a1, a2), d_a)] = _values(t, n + 2, (0,), ("A1", "A2"), nu)
    factors, kk = over_common_denominator(u + p + q)
    u, p, q = factors[: len(u)], factors[len(u) : -len(q)], factors[-len(q) :]
    k2 = kk * kk
    bases = {}

    def base(family, index):
        if not bases:
            bases["B"], (bases["A1"], bases["A2"]) = type2_sequence(t, n + 1), type1_sequences(t, n + 2, nu)
        return bases[family][index]

    for k in range(n + 1):
        if a1[k] == 0 or a1[k + 1] == 0:
            raise ZeroAtOrigin(k if a1[k] == 0 else k + 1, "A1")
        if b[k] == 0:
            raise ZeroAtOrigin(k, "B")
        c, uq = t.c(k), u[k] + q[k]
        constant = k2 * b[k + 1] + kk * uq * b[k]
        previous = kk * a1[k - 1] if k >= 1 else 0
        num = (uq * a1[k] - previous) * c.denominator - kk * a1[k] * c.numerator
        terms = [(_positive(num, kk * a1[k] * c.denominator), "B", k)]
        if k >= 1:
            a = t.a(k + 1)
            constant += q[k] * u[k - 1] * b[k - 1]
            num = q[k] * u[k - 1] * a1[k] * a.denominator + k2 * a1[k + 1] * a.numerator
            terms.append((_positive(num, k2 * a1[k] * a.denominator), "B", k - 1))
        _check_identity("tilde_b", k, (constant, k2 * d_b), terms, base)
        num = kk * b[k + 1] + u[k] * b[k]
        _check_identity("tildetilde_b", k, (num, kk * d_b), [(_positive(num, kk * b[k]), "B", k)], base)
        num = kk * a1[k] + p[k + 1] * a1[k + 1]
        coeff = _positive(num, kk * a1[k + 1])
        _check_identity("hat_a1", k, None, [(coeff, "A2", k + 1)], base)
        _check_identity("tilde_a2", k, (num, kk * d_a), [(coeff, "A1", k + 1)], base)
        s1, s2, det = _origin_system(a1, a2, k)
        pq, qp = p[k + 1] + q[k + 1], q[k + 1] * p[k + 2]
        first, second = (pq * det + kk * s1, kk * det), (qp * det + k2 * s2, k2 * det)
        for name, family, v in (("tildetilde_a1", "A1", a1), ("tildetilde_a2", "A2", a2)):
            constant = (k2 * v[k] + kk * pq * v[k + 1] + qp * v[k + 2], k2 * d_a)
            _check_identity(name, k, constant, [(first, family, k + 1), (second, family, k + 2)], base)


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
    the integers (polynomials._values, O(N) steps, on one row-form step
    table built once per call), so the cost is O(N) per sample point.
    Every strand is a list of ints over one positive denominator per
    family: u and q are brought to one K once per call, the three sampled
    strands come over one d at each x, and the factor products run
    on those ints with ``one`` = K, so B, hat and hathat sit over d, d K^2
    and d K.  A determinant's int numerator, over the product of its two
    families' denominators, decides its sign, and the running maximum is
    compared by cross-multiplication.  Only the reported max_value, and the
    value a SignViolation carries, become Fractions, each equal to the
    determinant it stands for.  A positive value raises, so a report has
    checked all of them: 12 (N + 1) per sample point.
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
    for x, (base, d) in zip(xs, _values(t, n + 2, xs, ("B", "B1", "B2"), nu)):
        hathat = tuple(_u_times(u, v, big_k) for v in base)
        vals = (base, tuple(_l_times(q, uv, big_k) for uv in hathat), hathat)
        dens = (d, d * big_k * big_k, d * big_k)
        for det_id, (top, shift, bottom, comp) in enumerate(_AKV_DETS, start=1):
            tm, tc, bm, bc = vals[top][0][shift:], vals[top][comp][shift:], vals[bottom][0], vals[bottom][comp]
            den = dens[top] * dens[bottom]
            for k in range(n + 1):
                num = tm[k] * bc[k] - tc[k] * bm[k]
                if num > 0:
                    raise SignViolation(det_id, k, x, Fraction(num, den))
                if num == 0 and x == 0:
                    zeros_at_origin += 1
                if mnum is None or num * mden > mnum * den:
                    mnum, mden, max_location = num, den, (det_id, k, x)
    return AkvReport(
        checked=len(_AKV_DETS) * len(xs) * (n + 1),
        max_value=Fraction(mnum, mden),
        max_location=max_location,
        zeros_at_origin=zeros_at_origin,
    )
