"""Dense polynomials in the monomial basis, held fraction-free.

A Poly is a tuple of integer numerators over one common denominator:
``num`` lists the numerators ascending (index = power) with no trailing
zero, and ``den`` > 0 is an int with gcd(content(num), den) = 1, where the
content is the gcd of the numerators.  That form is canonical, so ``==``
and ``hash`` compare (num, den), and the zero polynomial is num = (),
den = 1, with degree -1.

Arithmetic runs over the integers (fraction-free, as in Bareiss, Math.
Comp. 1968): a sum brings both operands to the lcm of their denominators,
a scaling multiplies numerators and denominator, and each result is
reduced by one gcd pass, where Fraction arithmetic pays a gcd for every
coefficient of every + and *.  ``coeffs``, ``constant`` and ``leading``
are the reduced Fractions num_i / den, the values and the type a tuple of
Fraction coefficients holds, so everything printed from a Poly (its
coefficients, its repr) is byte for byte what that tuple prints.
Coefficients and scalars are exact: an int or a Fraction, anything else
raises TypeError.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import InexactDivision
from .scalars import exact_tuple, format_scalar, over_common_denominator


def _ratio(scalar):
    """(numerator, denominator) of an exact scalar."""
    if isinstance(scalar, (int, Fraction)):
        return scalar.numerator, scalar.denominator
    raise TypeError(f"Poly scalars must be int or Fraction, got {type(scalar).__name__} {scalar!r}")


class Poly:
    __slots__ = ("num", "den")

    def __init__(self, coeffs=()):
        num, den = _reduce(*over_common_denominator(exact_tuple(coeffs, "Poly")))
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- inspection ------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        den = self.den
        if den == 1:
            return tuple(map(Fraction, self.num))
        return tuple(Fraction(v, den) for v in self.num)

    @property
    def degree(self) -> int:
        return len(self.num) - 1

    @property
    def constant(self):
        return Fraction(self.num[0], self.den) if self.num else Fraction(0)

    @property
    def leading(self):
        return Fraction(self.num[-1], self.den) if self.num else Fraction(0)

    def is_zero(self) -> bool:
        return not self.num

    # -- arithmetic ------------------------------------------------------

    def _combine(self, other, sign):
        """self + sign * other, at the lcm of the two denominators."""
        a, b = self.num, other.num
        da, db = self.den, other.den
        if da == db:
            fa, fb = 1, sign
        else:
            g = gcd(da, db)
            fa, fb = db // g, sign * (da // g)
            da *= fa
        if len(a) < len(b):
            a, fa, b, fb = b, fb, a, fa
        out = [u * fa + v * fb for u, v in zip(a, b)]
        out.extend(u * fa for u in a[len(b) :])
        return _make(*_reduce(out, da))

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self):
        return _make(tuple(-v for v in self.num), self.den)

    def __mul__(self, other):
        if isinstance(other, Poly):
            a, b = self.num, other.num
            if not a or not b:
                return _ZERO
            out = [0] * (len(a) + len(b) - 1)
            for i, u in enumerate(a):
                for j, v in enumerate(b):
                    out[i + j] += u * v
            return _make(*_reduce(out, self.den * other.den))
        return self.scale(other)

    def scale(self, scalar):
        """self * scalar.  With gcd(content, den) = 1 and gcd(p, q) = 1 for
        scalar = p/q, the product reduces by exactly gcd(p, den) and
        gcd(q, content), so no pass over the result is needed."""
        p, q = _ratio(scalar)
        num, den = self.num, self.den
        if not p or not num:
            return _ZERO
        if q == 1 and p == 1:
            return self
        g = gcd(p, den)
        h = gcd(q, *num)
        p, q = p // g, q // h
        return _make(tuple(v // h * p for v in num), den // g * q)

    __rmul__ = scale

    def __call__(self, x):
        """The value at an exact x = p/q, by Horner's rule over the integers:
        sum(num_i p^i q^(deg-i)) / (den q^deg)."""
        p, q = _ratio(x)
        acc, qk = 0, 1
        for v in reversed(self.num):
            acc = acc * p + v * qk
            qk *= q
        return Fraction(acc, self.den * (qk // q)) if self.num else Fraction(0)

    def times_x(self):
        if not self.num:
            return self
        return _make((0,) + self.num, self.den)

    def exact_div_x(self, context=""):
        """Divide by x, insisting on a zero constant term."""
        if not self.num:
            return self
        if self.num[0] != 0:
            raise InexactDivision(self.constant, context)
        return _make(self.num[1:], self.den)

    # -- comparison ------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        """What repr(list(self.coeffs)) shows, at any length."""
        terms = (f"Fraction({format_scalar(c.numerator)}, {format_scalar(c.denominator)})" for c in self.coeffs)
        return f"Poly([{', '.join(terms)}])"


def _make(num, den) -> Poly:
    """Poly from a canonical (num, den), without the constructor's checks."""
    p = object.__new__(Poly)
    object.__setattr__(p, "num", num)
    object.__setattr__(p, "den", den)
    return p


def _reduce(num, den):
    """Canonical (num, den) of the int list ``num`` over ``den`` > 0: strip
    trailing zeros, then divide out gcd(content, den) in one pass."""
    while num and not num[-1]:
        num.pop()
    if not num:
        return (), 1
    g = gcd(den, *num)
    if g == 1:
        return tuple(num), den
    return tuple(v // g for v in num), den // g


_ZERO = _make((), 1)


def constant_poly(value) -> Poly:
    return Poly((value,))
