"""Exception hierarchy for the tetrahess library.

Every error raised on a violated mathematical precondition derives from
TetraError, so callers (and the CLI) can distinguish "the input data does
not admit this operation" from programming mistakes, which surface as the
usual ValueError / TypeError.  Exact values in a message are printed by
scalars.format_scalar (a polynomial by its repr), so a message holds them in
full at any length.
"""

from fractions import Fraction

from .scalars import format_scalar


class TetraError(Exception):
    """Base class for all domain errors raised by this package."""


class NonPositiveSubSubDiagonal(TetraError):
    """An entry a_n of the lowest band is <= 0 (the matrices handled here
    require a_n > 0 for every materialized n >= 2)."""

    def __init__(self, n, value):
        self.n = n
        self.value = value
        super().__init__(f"a_{n} = {format_scalar(value)} must be positive")


class BandExhausted(TetraError):
    """A finite band (or alpha array) was asked for an index past its end."""

    def __init__(self, band, index, length):
        self.band = band
        self.index = index
        self.length = length
        super().__init__(
            f"band {band!r} holds {length} entries; index {index} is out of range"
        )


class IndexOutOfRange(TetraError):
    """A truncation index violates its allowed range."""


class SingularLeadingMinor(TetraError):
    """delta^[n] = 0: the Gauss-Borel (LU) factorization of the truncation
    does not exist."""

    def __init__(self, n):
        self.n = n
        super().__init__(f"leading principal minor delta^[{n}] vanishes; no LU factorization")


class ZeroAlpha3n(TetraError):
    """alpha_{3n} = 0 where the bidiagonal refinement needs to divide by it."""

    def __init__(self, n):
        self.n = n
        super().__init__(
            f"alpha_{3 * n} = 0: cannot continue the bidiagonal refinement at n = {n}"
        )


class ZeroNu(TetraError):
    """The free initial value nu of the type I sequences must be nonzero."""

    def __init__(self):
        super().__init__("nu = 0 is not an admissible type I initial value")


class ZeroAlphaTwo(TetraError):
    """alpha_2 = 0, so nu = -1/alpha_2 cannot be formed."""

    def __init__(self):
        super().__init__("alpha_2 = 0: the transformed type I sequences need nu = -1/alpha_2")


class InexactDivision(TetraError):
    """A polynomial that must be divisible by x has a nonzero constant term.

    This signals a mismatch between the alpha sequence and the matrix it is
    supposed to factor."""

    def __init__(self, constant, context=""):
        self.constant = constant
        self.context = context
        where = f" ({context})" if context else ""
        super().__init__(
            f"polynomial has nonzero constant term {format_scalar(constant)}{where}; not divisible by x"
        )


class ZeroAtOrigin(TetraError):
    """A polynomial value at the origin that must be nonzero vanishes."""

    def __init__(self, n, which):
        self.n = n
        self.which = which
        super().__init__(f"{which}_{n}(0) = 0: reconstruction ratio undefined")


class IdentityViolation(TetraError):
    """An identity that must hold exactly failed at some index."""

    def __init__(self, name, n, residual):
        self.name = name
        self.n = n
        self.residual = residual
        shown = format_scalar(residual) if isinstance(residual, (int, Fraction)) else residual
        super().__init__(f"identity {name!r} fails at n = {n}: residual {shown}")


class SignViolation(TetraError):
    """A determinant that must be <= 0 came out positive."""

    def __init__(self, det_id, n, x, value):
        self.det_id = det_id
        self.n = n
        self.x = x
        self.value = value
        super().__init__(
            f"determinant #{det_id} at n = {n}, x = {format_scalar(x)} is {format_scalar(value)} > 0"
        )


class DimensionCapExceeded(TetraError):
    """Full minor enumeration was requested past its fixed dimension cap."""

    def __init__(self, dim, cap):
        self.dim = dim
        self.cap = cap
        super().__init__(
            f"matrix dimension {dim} exceeds the enumeration cap {cap}; "
            f"no total-nonnegativity certificate is available past it"
        )


class OutsideNaturalRegion(TetraError):
    """Jacobi-Pineiro parameters outside alpha, beta, gamma > -1 or with
    integer alpha - beta."""

    def __init__(self, reason):
        super().__init__(f"parameters outside the natural region: {reason}")


class PredictionMismatch(TetraError):
    """A sign predicted by the region classification disagrees with the
    computed alpha entry."""

    def __init__(self, j, variant, predicted, value):
        self.j = j
        self.variant = variant
        self.predicted = predicted
        self.value = value
        super().__init__(
            f"{variant} alpha_{j} = {format_scalar(value)} does not match predicted sign {predicted!r}"
        )


class ConsistencyViolation(TetraError):
    """The two alpha parameter families induce different Hessenberg bands."""

    def __init__(self, n, band, first_value, second_value):
        self.n = n
        self.band = band
        super().__init__(
            f"band {band}_{n} differs between parameter families: "
            f"{format_scalar(first_value)} vs {format_scalar(second_value)}"
        )
