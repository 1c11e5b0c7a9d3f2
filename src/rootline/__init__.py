"""rootline: certified max-root approximation from top polynomial coefficients.

The package works over exact rationals throughout.  Floating point appears
only in non-authoritative cross-checks; every reported bound is backed by an
exact rational comparison or a certified interval.
"""

from rootline.poly import ExactPolynomial, char_poly
from rootline.symfuncs import (
    PowerSumProfile,
    SymmetricProfile,
    power_sums_from_elementary,
    profile_from_coefficients,
)
from rootline.maxroot import ApproxResult, alpha_factor, approx_max_root

__all__ = [
    "ExactPolynomial",
    "char_poly",
    "SymmetricProfile",
    "PowerSumProfile",
    "power_sums_from_elementary",
    "profile_from_coefficients",
    "ApproxResult",
    "alpha_factor",
    "approx_max_root",
]

__version__ = "0.1.0"
