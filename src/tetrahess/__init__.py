"""Bidiagonal factorizations, recursion polynomials and Darboux transforms
of tetradiagonal lower Hessenberg matrices, in exact rational arithmetic."""

from .core import (
    AlphaSequence,
    Classification,
    DenseMatrix,
    TetraHessenberg,
    alpha_factor_matrices,
    bands_from_alphas,
    leading_principal,
    tetra_from_alphas,
    trailing_truncation,
)
from .darboux import (
    CHRISTOFFEL_IDENTITIES,
    akv_sign_checks,
    alphas_from_polynomials,
    darboux_polynomials,
    darboux_transforms,
    transformed_char_polys,
    transformed_type1,
    transformed_type2,
    truncation_mismatch,
    verify_christoffel,
)
from .errors import (
    BandExhausted,
    ConsistencyViolation,
    DimensionCapExceeded,
    IdentityViolation,
    IndexOutOfRange,
    InexactDivision,
    NonPositiveSubSubDiagonal,
    OutsideNaturalRegion,
    PredictionMismatch,
    SignViolation,
    SingularLeadingMinor,
    TetraError,
    ZeroAlpha3n,
    ZeroAlphaTwo,
    ZeroAtOrigin,
    ZeroNu,
)
from .factorization import bidiagonal_factor, gauss_borel
from .families import (
    JP_VERIFICATION_GRID,
    JPParams,
    Region,
    Variant,
    jp_alphas,
    jp_certificate,
    jp_cross_consistency,
    jp_dense_truncation,
    jp_matrix,
    jp_region,
    jp_sign_report,
)
from .poly import Poly, constant_poly
from .polynomials import (
    char_poly_truncation,
    second_kind_sequences,
    sequence_values,
    type1_sequences,
    type2_sequence,
)
from .serialize import dump_alphas, dump_matrix, load_alphas, load_matrix

__version__ = "0.1.0"

#: Served from tncheck on first use (PEP 562), so importing the package, or
#: a command that runs no TN check, does not load the TN checker.
_TNCHECK_NAMES = ("TNReport", "is_oscillatory", "is_oscillatory_power_oracle", "is_totally_nonnegative")


def __getattr__(name):
    if name in _TNCHECK_NAMES:
        from . import tncheck
        return getattr(tncheck, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AlphaSequence",
    "BandExhausted",
    "CHRISTOFFEL_IDENTITIES",
    "Classification",
    "ConsistencyViolation",
    "DenseMatrix",
    "DimensionCapExceeded",
    "IdentityViolation",
    "IndexOutOfRange",
    "InexactDivision",
    "JPParams",
    "JP_VERIFICATION_GRID",
    "NonPositiveSubSubDiagonal",
    "OutsideNaturalRegion",
    "Poly",
    "PredictionMismatch",
    "Region",
    "SignViolation",
    "SingularLeadingMinor",
    "TNReport",
    "TetraError",
    "TetraHessenberg",
    "Variant",
    "ZeroAlpha3n",
    "ZeroAlphaTwo",
    "ZeroAtOrigin",
    "ZeroNu",
    "akv_sign_checks",
    "alpha_factor_matrices",
    "alphas_from_polynomials",
    "bands_from_alphas",
    "bidiagonal_factor",
    "char_poly_truncation",
    "constant_poly",
    "darboux_polynomials",
    "darboux_transforms",
    "dump_alphas",
    "dump_matrix",
    "gauss_borel",
    "is_oscillatory",
    "is_oscillatory_power_oracle",
    "is_totally_nonnegative",
    "jp_alphas",
    "jp_certificate",
    "jp_cross_consistency",
    "jp_dense_truncation",
    "jp_matrix",
    "jp_region",
    "jp_sign_report",
    "leading_principal",
    "load_alphas",
    "load_matrix",
    "second_kind_sequences",
    "sequence_values",
    "tetra_from_alphas",
    "trailing_truncation",
    "transformed_char_polys",
    "transformed_type1",
    "transformed_type2",
    "truncation_mismatch",
    "type1_sequences",
    "type2_sequence",
    "verify_christoffel",
]
