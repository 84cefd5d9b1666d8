"""Scalar helpers shared by the whole package.

Two scalar regimes are supported.  The default is exact arithmetic over
``fractions.Fraction`` (ints are absorbed transparently); every identity in
this package is then checked with ``==``.  Floating point is an explicit
opt-in for throughput: zero tests then use ``ZERO_TOLERANCE`` scaled by the
magnitude of the quantities that produced the value.  Exact mode never
consults the tolerance.
"""

from __future__ import annotations

from fractions import Fraction

#: |v| <= ZERO_TOLERANCE * |scale| is treated as zero in float mode.
ZERO_TOLERANCE = 1e-12

EXACT_TYPES = (Fraction, int)


def is_exact(value) -> bool:
    return isinstance(value, EXACT_TYPES)


def parse_scalar(text: str, mode: str = "exact"):
    """Parse "p/q", "p" or a decimal literal into a Fraction (or float)."""
    value = Fraction(text.strip())
    if mode == "float":
        return float(value)
    return value


def format_scalar(value) -> str:
    """Inverse of parse_scalar; Fractions render as "p/q" (or "p")."""
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return str(value)  # "p/q", or "p" when the denominator is 1
    return repr(float(value))


def zero_like(value):
    return Fraction(0) if is_exact(value) else 0.0


def one_like(value):
    return Fraction(1) if is_exact(value) else 1.0


def is_zero(value, scale=1) -> bool:
    """Zero test; ``scale`` conveys the magnitude of the computation that
    produced ``value`` so the float tolerance is relative, not absolute
    (an exact 0.0 at scale 0 still counts as zero)."""
    if is_exact(value):
        return value == 0
    return abs(value) <= ZERO_TOLERANCE * abs(float(scale))
