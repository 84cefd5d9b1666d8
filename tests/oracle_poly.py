"""The tuple-of-Fractions polynomial that ``tetrahess.poly.Poly`` replaced,
kept unchanged as the oracle of the differential tests in test_poly.py.
``compared`` runs the same comparison without pytest, so it also runs as
a script, on an interpreter without it:

    PYTHONPATH=src python tests/oracle_poly.py

Minimal dense polynomials in the monomial basis.

Coefficients are stored ascending (index = power) in a tuple with no
trailing zeros, so the zero polynomial is the empty tuple and ``degree``
is -1 for it.  Coefficients are exact: ints or Fractions.
"""

from __future__ import annotations

import random
from fractions import Fraction

from tetrahess.errors import InexactDivision


def _strip(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


class FractionPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs", _strip(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("FractionPoly is immutable")

    # -- inspection ------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def constant(self):
        return self.coeffs[0] if self.coeffs else 0

    @property
    def leading(self):
        return self.coeffs[-1] if self.coeffs else 0

    def is_zero(self) -> bool:
        return not self.coeffs

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, FractionPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] = out[i] + v
        return FractionPoly(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return FractionPoly(tuple(-v for v in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, FractionPoly):
            if not self.coeffs or not other.coeffs:
                return FractionPoly()
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, u in enumerate(self.coeffs):
                for j, v in enumerate(other.coeffs):
                    out[i + j] += u * v
            return FractionPoly(out)
        return FractionPoly(tuple(v * other for v in self.coeffs))

    def __rmul__(self, scalar):
        return FractionPoly(tuple(scalar * v for v in self.coeffs))

    def scale(self, scalar):
        return FractionPoly(tuple(v * scalar for v in self.coeffs))

    def __call__(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def times_x(self):
        if not self.coeffs:
            return self
        return FractionPoly((Fraction(0),) + self.coeffs)

    def exact_div_x(self, context=""):
        """Divide by x, insisting on a zero constant term."""
        if not self.coeffs:
            return self
        if self.coeffs[0] != 0:
            raise InexactDivision(self.coeffs[0], context)
        return FractionPoly(self.coeffs[1:])

    # -- comparison ------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, FractionPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"



def _shown(p):
    """What must agree between a Poly and a FractionPoly: coefficients (as
    Fractions), repr, degree, constant, leading term and zero test."""
    return (tuple(map(Fraction, p.coeffs)), repr(p), p.degree, p.constant, p.leading, p.is_zero())


def _divided(p):
    """p.exact_div_x() as _shown, or the InexactDivision it raises."""
    try:
        return _shown(p.exact_div_x(context="ctx"))
    except InexactDivision as e:
        return str(e), e.constant


def compared(seed, count):
    """(what, got, want) for ``count`` random pairs of polynomials of
    degree < 7, reproducible from ``seed``: mixed denominators, signs,
    zeros (trailing ones too) and plain ints, as test_poly.py draws them.
    Every ring operation, scaling, evaluation and division by x of
    tetrahess.poly.Poly against FractionPoly; got == want is the check."""
    from tetrahess.poly import Poly

    rng = random.Random(seed)

    def scalar():
        kind = rng.randrange(3)
        if kind == 0:
            return 0
        if kind == 1:
            return rng.randint(-40, 40)
        return Fraction(rng.randint(-30 * 36, 30 * 36), rng.randint(1, 36))

    out = []
    for _ in range(count):
        p, q = ([scalar() for _ in range(rng.randrange(8))] for _ in "pq")
        s = scalar()
        (a, b), (a_old, b_old) = (Poly(c) for c in (p, q)), (FractionPoly([Fraction(v) for v in c]) for c in (p, q))
        pairs = [("poly", a, a_old), ("+", a + b, a_old + b_old), ("-", a - b, a_old - b_old), ("neg", -a, -a_old),
                 ("*", a * b, a_old * b_old), ("times_x", a.times_x(), a_old.times_x())]
        for k in (s, 0, -1, 3, Fraction(-2, 7)):
            pairs += [(f"scale {k}", a.scale(k), a_old.scale(Fraction(k))), (f"* {k}", a * k, a_old * Fraction(k)),
                      (f"{k} *", k * a, Fraction(k) * a_old)]
        out += [(what, _shown(new), _shown(old)) for what, new, old in pairs]
        out.append(("call", (a(s), type(a(s))), (a_old(Fraction(s)), Fraction)))
        out.append(("exact_div_x", _divided(a), _divided(a_old)))
        out.append(("==", a == b, a_old == b_old))
    return out


if __name__ == "__main__":
    import sys

    results = [row for seed in (1, 2, 3) for row in compared(seed, 200)]
    differ = sorted({what for what, got, want in results if got != want})
    print(f"Python {sys.version.split()[0]}: {len(results)} comparisons, "
          f"{sum(got != want for _, got, want in results)} differ{': ' + ', '.join(differ) if differ else ''}")
    sys.exit(1 if differ else 0)
