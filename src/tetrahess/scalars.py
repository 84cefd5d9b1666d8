"""Scalar parsing, exactness checks and formatting shared by the whole
package.

Every scalar is exact: an ``int`` or a ``fractions.Fraction``, and every
identity in this package is checked with ``==``.  Decimal literals parse to
the rational they spell ("0.1" is 1/10), never to a float.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def parse_scalar(text: str) -> Fraction:
    """Parse "p/q", "p" or a decimal literal into a Fraction."""
    return Fraction(text.strip())


def format_scalar(value) -> str:
    """Inverse of parse_scalar: "p/q", or "p" when the denominator is 1."""
    return str(value)


def format_ratio(num: int, den: int) -> str:
    """format_scalar(Fraction(num, den)) for ints num and den > 0, with one
    gcd and no Fraction built (the coefficients of a Poly are printed so)."""
    g = gcd(num, den)
    if g == den:
        return str(num // den)
    return f"{num // g}/{den // g}"


def exact_tuple(values, what):
    """``values`` as a tuple (None stays None), refusing any entry that is
    not an int or a Fraction: every scalar in the package is exact."""
    if values is None:
        return None
    values = tuple(values)
    for v in values:
        if not isinstance(v, (int, Fraction)):
            raise TypeError(f"{what} entries must be int or Fraction, got {type(v).__name__} {v!r}")
    return values
