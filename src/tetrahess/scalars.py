"""Scalar parsing, exactness checks and formatting shared by the whole
package.

Every scalar is exact: an ``int`` or a ``fractions.Fraction``, and every
identity in this package is checked with ``==``.  Decimal literals parse to
the rational they spell ("0.1" is 1/10), never to a float.

Scalars are parsed and printed at any length, with a decimal exponent of
at most 10 000 in magnitude.  The interpreter limits a single int/str
conversion to 4300 digits by default (Python 3.11, and 3.10 from 3.10.7),
so longer digit runs are converted in pieces of at most _CHUNK digits,
split in halves, and the process-wide limit is never changed.

The literal pattern is compiled once, on the first parse, and kept in a
module global, so importing the package compiles nothing and no later
parse pays the re module's cache lookup.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

#: The most digits one int() or str() call converts, under the default
#: limit of 4300.  _CHUNK_BITS bits hold fewer than _CHUNK digits.
_CHUNK = 4000
_CHUNK_BITS = 13000

#: The largest decimal exponent magnitude parse_scalar accepts, so that the
#: length of a literal bounds the work of reading it ("1e99999999" would
#: otherwise ask for a number of 10^8 digits).
_MAX_EXPONENT = 10_000


class ExponentOutOfRange(ValueError):
    """A decimal literal whose exponent is beyond ±_MAX_EXPONENT."""


#: The literals Fraction reads: "p/q", "p" or a decimal "p.d" with an
#: optional exponent, each digit run with single underscores allowed, and
#: optional surrounding whitespace.  parse_scalar compiles it into
#: _rational on its first call.
_RATIONAL = r"""(?xi)
    \A\s*(?P<sign>[-+]?)(?=\d|\.\d)
    (?P<num>(?:\d+(?:_\d+)*)?)
    (?:/(?P<den>\d+(?:_\d+)*)
      |(?:\.(?P<decimal>(?:\d+(?:_\d+)*)?))?(?:E(?P<exp>[-+]?\d+(?:_\d+)*))?)
    \s*\Z
"""
_rational = None


def _int(digits: str) -> int:
    """int(digits) for an unsigned run of decimal digits, at any length."""
    if len(digits) <= _CHUNK:
        return int(digits)
    cut = len(digits) // 2
    return _int(digits[:cut]) * 10 ** (len(digits) - cut) + _int(digits[cut:])


def _str(n: int) -> str:
    """str(n) for an int n, at any length."""
    if n.bit_length() <= _CHUNK_BITS:
        return str(n)
    if n < 0:
        return "-" + _str(-n)
    # 10^k < 2^(bits - 1) <= n, so the high part has no leading zero
    k = n.bit_length() * 3 // 20
    high, low = divmod(n, 10**k)
    return _str(high) + _str(low).zfill(k)


def parse_int(text: str) -> int:
    """int(text) for a run of decimal digits with an optional minus sign, at
    any length (a JSON integer)."""
    return -_int(text[1:]) if text[:1] == "-" else _int(text)


def parse_scalar(text: str) -> Fraction:
    """Parse "p/q", "p" or a decimal literal into a Fraction, at any
    length.  ValueError for anything else, ExponentOutOfRange (a
    ValueError) for a decimal exponent beyond ±_MAX_EXPONENT, and
    ZeroDivisionError for q = 0."""
    global _rational
    if _rational is None:
        _rational = re.compile(_RATIONAL)
    m = _rational.match(text)
    if m is None:
        raise ValueError(f"invalid literal for a rational: {text!r}")
    sign, num, den, decimal, exp = m.groups()
    if "_" in text:
        num, den, decimal, exp = (g and g.replace("_", "") for g in (num, den, decimal, exp))
    num = _int(num) if num else 0
    if den is not None:
        den = _int(den)
        if den == 0:
            raise ZeroDivisionError(f"{text!r} has denominator 0")
    else:
        den = 1
        if decimal:
            den = 10 ** len(decimal)
            num = num * den + _int(decimal)
        if exp:
            power = _int(exp.lstrip("+-"))
            if power > _MAX_EXPONENT:
                raise ExponentOutOfRange(f"exponent of {text!r} is outside ±{_MAX_EXPONENT}")
            if exp[0] == "-":
                den *= 10**power
            else:
                num *= 10**power
    return Fraction(-num if sign == "-" else num, den)


def format_scalar(value) -> str:
    """Inverse of parse_scalar: "p/q", or "p" when the denominator is 1,
    as str() of the Fraction prints it, at any length."""
    num, den = value.numerator, value.denominator
    return _str(num) if den == 1 else f"{_str(num)}/{_str(den)}"


def format_ratio(num: int, den: int) -> str:
    """format_scalar(Fraction(num, den)) for ints num and den > 0, with one
    gcd and no Fraction built.  ``polys`` prints through it every
    coefficient (num over its Poly's den) and every ``--at`` value (num
    over the denominator the recurrence held it at)."""
    g = gcd(num, den)
    if g == den:
        return _str(num // den)
    return f"{_str(num // g)}/{_str(den // g)}"


def over_common_denominator(values):
    """(ints, d): the exact scalars ``values`` as int numerators over d > 0,
    the lcm of their denominators, so values[i] == ints[i] / d."""
    d = lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def exact_tuple(values, what):
    """``values`` as a tuple, refusing any entry that is not an int or a
    Fraction: every scalar in the package is exact."""
    values = tuple(values)
    for v in values:
        if not isinstance(v, (int, Fraction)):
            raise TypeError(f"{what} entries must be int or Fraction, got {type(v).__name__} {v!r}")
    return values
