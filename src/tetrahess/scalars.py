"""Scalar parsing and formatting shared by the whole package.

Every scalar is exact: an ``int`` or a ``fractions.Fraction``, and every
identity in this package is checked with ``==``.  Decimal literals parse to
the rational they spell ("0.1" is 1/10), never to a float.
"""

from __future__ import annotations

from fractions import Fraction


def parse_scalar(text: str) -> Fraction:
    """Parse "p/q", "p" or a decimal literal into a Fraction."""
    return Fraction(text.strip())


def format_scalar(value) -> str:
    """Inverse of parse_scalar: "p/q", or "p" when the denominator is 1."""
    return str(value)
