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
    _lu_bands,
    alpha_factor_matrices,
    leading_principal,
)
from .errors import (
    IdentityViolation,
    SignViolation,
    SingularQuasiDetSystem,
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
    of tetra_from_alphas read one (hat) or two (hathat) alphas further up.
    Writing a for alpha, hat is

        c_n = a_{3n+2}+a_{3n+1}+a_{3n}
        b_n = a_{3n}a_{3n-2}+(a_{3n}+a_{3n+1})a_{3n-1}
        a_n = a_{3n}a_{3n-2}a_{3n-4}

    and hathat the same pattern shifted one more alpha up.  The shifted
    accessor j -> alpha_{j+1} (alpha_{j+2}) is deliberately not an
    AlphaSequence: at j = 0 it must read alpha_1 (alpha_2), not zero.  The
    transform holds every row its alphas determine, and a_n > 0 is enforced
    as for any other TetraHessenberg (guaranteed when the alphas are PBF).
    """
    if which not in ("hat", "hathat"):
        raise ValueError(f"unknown transform {which!r}")
    shift = 1 if which == "hat" else 2
    triple = _factor_triple(lambda j: alphas.at(j + shift), alphas.length - shift)
    c, b, a = _lu_bands(*triple)
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


def _hat_bracket(v, at, k):
    """v_{k+1} + (a_{3k+1}+a_{3k}) v_k + a_{3k} a_{3k-2} v_{k-1}, the bracket
    sending B_k to x tildeB_k (a = alpha, read through ``at``).  Here and in
    the three brackets below, v holds polynomials or their values at one
    point: evaluation at x commutes with every bracket."""
    out = v[k + 1] + v[k] * (at(3 * k + 1) + at(3 * k))
    if k >= 1:
        out = out + v[k - 1] * (at(3 * k) * at(3 * k - 2))
    return out


def _hathat_bracket(v, at, k):
    """v_{k+1} + a_{3k+1} v_k, the bracket sending B_k to x tildetildeB_k."""
    return v[k + 1] + v[k] * at(3 * k + 1)


def transformed_type2(t: TetraHessenberg, alphas: AlphaSequence, n: int):
    """The transformed type II sequences (tildeB, tildetildeB), indices 0..N:

        x tildeB_k     = B_{k+1} + (a_{3k+1}+a_{3k}) B_k + a_{3k} a_{3k-2} B_{k-1}
        x tildetildeB_k = B_{k+1} + a_{3k+1} B_k

    The division by x is asserted by checking the constant term vanishes,
    which fails (InexactDivision) whenever alphas do not factor T.
    """
    if n < 1:
        raise ValueError("transformed sequences need N >= 1")
    b = type2_sequence(t, n + 1)
    at = alphas.at
    tilde = []
    tildetilde = []
    for k in range(n + 1):
        tilde.append(_hat_bracket(b, at, k).exact_div_x(context=f"tildeB_{k}"))
        tildetilde.append(_hathat_bracket(b, at, k).exact_div_x(context=f"tildetildeB_{k}"))
    return (
        PolySequence(tuple(tilde)),
        PolySequence(tuple(tildetilde)),
    )


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


def _hat_a_bracket(v, at, k):
    """v_k + a_{3k+2} v_{k+1}, the bracket sending A2 to hatA1 and A1 to
    x tildeA2 (a = alpha, read through ``at``)."""
    return v[k] + v[k + 1] * at(3 * k + 2)


def _hathat_a_bracket(v, at, k):
    """v_k + (a_{3k+2}+a_{3k+3}) v_{k+1} + a_{3k+5} a_{3k+3} v_{k+2}, the
    bracket sending A1 (A2) to x tildetildeA1 (x tildetildeA2)."""
    s = at(3 * k + 2) + at(3 * k + 3)
    return v[k] + v[k + 1] * s + v[k + 2] * (at(3 * k + 5) * at(3 * k + 3))


def transformed_type1(t: TetraHessenberg, alphas: AlphaSequence, n: int) -> TransformedPolys:
    """Transformed type I sequences, indices 0..N, with nu forced to
    -1/alpha_2.  Writing a for alpha:

        hatA1_k        = A2_k + a_{3k+2} A2_{k+1}            (no division)
        x tildeA2_k    = A1_k + a_{3k+2} A1_{k+1}
        x tildetildeA1_k = A1_k + (a_{3k+2}+a_{3k+3}) A1_{k+1}
                                + a_{3k+5} a_{3k+3} A1_{k+2}
        tildetildeA2_k   = the same combination of A2.

    Requires alphas materializable to index 3N+5 and the matrix bands to
    a_{N+2} (the A sequences run to index N+2).
    """
    nu = _forced_nu(alphas.at(2))
    a1, a2 = type1_sequences(t, n + 2, nu)
    at = alphas.at
    hat_a1 = []
    tilde_a2 = []
    tt_a1 = []
    tt_a2 = []
    for k in range(n + 1):
        hat_a1.append(_hat_a_bracket(a2, at, k))
        tilde_a2.append(_hat_a_bracket(a1, at, k).exact_div_x(context=f"tildeA2_{k}"))
        tt_a1.append(_hathat_a_bracket(a1, at, k).exact_div_x(context=f"tildetildeA1_{k}"))
        tt_a2.append(_hathat_a_bracket(a2, at, k).exact_div_x(context=f"tildetildeA2_{k}"))
    return TransformedPolys(
        nu=nu,
        hatA1=PolySequence(tuple(hat_a1)),
        tildeA2=PolySequence(tuple(tilde_a2)),
        tildetildeA1=PolySequence(tuple(tt_a1)),
        tildetildeA2=PolySequence(tuple(tt_a2)),
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
    rows are the origin values (A1(0), A2(0)) at indices k+1 and k+2."""
    det = a10[k + 1] * a20[k + 2] - a20[k + 1] * a10[k + 2]
    if det == 0:
        raise SingularQuasiDetSystem(k)
    s1 = (a10[k] * a20[k + 2] - a20[k] * a10[k + 2]) / det
    s2 = (a20[k] * a10[k + 1] - a10[k] * a20[k + 1]) / det
    return s1, s2


def alphas_from_polynomials(t: TetraHessenberg, n: int, alpha2) -> AlphaSequence:
    """Reconstruct alpha_1 .. alpha_{3N+1} from polynomial values at the
    origin, given the free parameter alpha_2 != 0:

        alpha_{3k+1} = -B_{k+1}(0) / B_k(0)
        alpha_{3k+2} = -A1_k(0) / A1_{k+1}(0)        (nu = -1/alpha_2)
        [alpha_{3k+2}+alpha_{3k+3}, alpha_{3k+5} alpha_{3k+3}]
                     = -[A1_k(0), A2_k(0)] M_k^{-1}

    with M_k the 2x2 matrix of (A1, A2) values at 0 at indices k+1, k+2;
    the third strand is alpha_{3k+3} = (first component) - alpha_{3k+2}.
    The values at 0 come from the recurrences run at x = 0, O(N) scalar
    steps; no polynomial is built.  Needs the matrix bands up to a_{N+1}.
    """
    nu = _forced_nu(alpha2)
    b0 = sequence_values(t, "type2", n + 1, 0)["B"]
    origin = sequence_values(t, "type1", n + 1, 0, nu)
    a10, a20 = origin["A1"], origin["A2"]
    alpha = [None] * (3 * n + 2)  # 1-based
    for k in range(n + 1):
        if b0[k] == 0:
            raise ZeroAtOrigin(k, "B")
        alpha[3 * k + 1] = -b0[k + 1] / b0[k]
    for k in range(n):
        if a10[k + 1] == 0:
            raise ZeroAtOrigin(k + 1, "A1")
        alpha[3 * k + 2] = -a10[k] / a10[k + 1]
    for k in range(n):
        s1, _ = _origin_system(a10, a20, k)
        alpha[3 * k + 3] = -s1 - alpha[3 * k + 2]
    return AlphaSequence(values=alpha[1:])


def _check_pbf(alphas: AlphaSequence, count: int, op: str):
    if alphas.classify(count=count) is not Classification.PBF:
        raise TetraError(f"{op} requires a PBF alpha sequence (positive entries)")


def _check_identity(name, k, lhs, rhs, over_x=True):
    """Check lhs = rhs.  With ``over_x``, lhs is a bracket of the base
    sequences standing for x times a transformed polynomial, so it must
    also be divisible by x."""
    if over_x and lhs.constant != 0:
        raise IdentityViolation(name, k, lhs.constant)
    residual = lhs - rhs
    if not residual.is_zero():
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

    Each left side is formed from one build of B and of (A1, A2) by the
    brackets of transformed_type2 and transformed_type1; a left side that
    is not divisible by x fails its identity with the constant term as
    residual.  Raises IdentityViolation at the first failure, in
    (k, identity) order.
    """
    _check_pbf(alphas, 3 * n + 5, "verify_christoffel")
    if n < 1:
        raise ValueError("transformed sequences need N >= 1")
    b = type2_sequence(t, n + 1)
    a1, a2 = type1_sequences(t, n + 2, _forced_nu(alphas.at(2)))
    at = alphas.at
    b0 = [p.constant for p in b]
    a10 = [p.constant for p in a1]
    a20 = [p.constant for p in a2]
    names = ("tilde_b", "tildetilde_b", "hat_a1", "tilde_a2", "tildetilde_a1", "tildetilde_a2")
    for k in range(n + 1):
        if a10[k] == 0 or a10[k + 1] == 0:
            raise ZeroAtOrigin(k if a10[k] == 0 else k + 1, "A1")
        if b0[k] == 0:
            raise ZeroAtOrigin(k, "B")
        rhs = b[k + 1] + b[k].scale((a10[k - 1] if k >= 1 else 0) / a10[k] + t.c(k))
        if k >= 1:
            rhs = rhs - b[k - 1].scale(a10[k + 1] / a10[k] * t.a(k + 1))
        _check_identity("tilde_b", k, _hat_bracket(b, at, k), rhs)
        # the ratio multiplies B_k (monicity forces this orientation -- the
        # two readings coincide only when the ratio is -1)
        rhs = b[k + 1] - b[k].scale(b0[k + 1] / b0[k])
        _check_identity("tildetilde_b", k, _hathat_bracket(b, at, k), rhs)
        ratio = a10[k] / a10[k + 1]
        rhs = a2[k] - a2[k + 1].scale(ratio)
        _check_identity("hat_a1", k, _hat_a_bracket(a2, at, k), rhs, over_x=False)
        rhs = a1[k] - a1[k + 1].scale(ratio)
        _check_identity("tilde_a2", k, _hat_a_bracket(a1, at, k), rhs)
        s1, s2 = _origin_system(a10, a20, k)
        for name, v in (("tildetilde_a1", a1), ("tildetilde_a2", a2)):
            rhs = v[k] - v[k + 1].scale(s1) - v[k + 2].scale(s2)
            _check_identity(name, k, _hathat_a_bracket(v, at, k), rhs)
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
    nu = -1/alpha_2 fixed.  The hatted families apply, entrywise, the same
    brackets that send B_n to x tildeB_n and x tildetildeB_n:

        hat:    v_{n+1} + (a_{3n+1}+a_{3n}) v_n + a_{3n} a_{3n-2} v_{n-1}
        hathat: v_{n+1} + a_{3n+1} v_n

    For the main strand these are divisible by x (eigen-relation); for the
    second-kind strands they are not, and the undivided brackets are the
    ones entering the determinants.

    Nothing here is a polynomial: at each sample x the recurrences run over
    the exact scalars (sequence_values, O(N) steps) and the brackets act on
    those values, so the cost is O(N) per sample point.  Each value equals
    the polynomial bracket evaluated at x.
    """
    xs = tuple(xs)
    if not xs:
        raise ValueError("at least one sample point is required")
    for x in xs:
        if x < 0:
            raise ValueError(f"sample x = {x} violates x >= 0")
    _check_pbf(alphas, 3 * n + 4, "akv_sign_checks")
    nu = _forced_nu(alphas.at(2))
    # alpha_0 .. alpha_{3N+4}, read once for every sample point
    at = ((Fraction(0),) + alphas.prefix(3 * n + 4)).__getitem__

    max_value = None
    max_location = None
    zeros_at_origin = 0
    checked = 0
    for x in xs:
        second = sequence_values(t, "second", n + 2, x, nu)
        base = (sequence_values(t, "type2", n + 2, x)["B"], second["B1"], second["B2"])
        vals = (
            base,
            tuple(tuple(_hat_bracket(v, at, k) for k in range(n + 2)) for v in base),
            tuple(tuple(_hathat_bracket(v, at, k) for k in range(n + 2)) for v in base),
        )
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
