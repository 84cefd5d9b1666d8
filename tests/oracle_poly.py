"""The tuple-of-Fractions polynomial that ``tetrahess.poly.Poly`` replaced,
kept unchanged as the oracle of the differential tests in test_poly.py.

Minimal dense polynomials in the monomial basis.

Coefficients are stored ascending (index = power) in a tuple with no
trailing zeros, so the zero polynomial is the empty tuple and ``degree``
is -1 for it.  Coefficients are exact: ints or Fractions.
"""

from __future__ import annotations

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

