"""Shifted Popov minimal interpolation bases over prime fields.

Computes the canonical shifted-Popov basis of the module of interpolants
for (E, J) with J a Jordan matrix: vector M-Pade approximation,
Hermite-Pade / order bases, and the interpolation step of algebraic list
decoding, for arbitrary degree shifts.  Every solver output can be
cross-checked against an independent brute-force kernel oracle.
"""

from .ff_poly import Modulus
from .jordan_module import JordanSpec, residual, standardize
from .mib_engine import (
    InterpInstance,
    interpolant_check,
    iterative_mib,
    iterative_weak_popov,
    kernel_oracle,
    minimal_interpolation_basis,
)
from .polymat import (
    PolyMat,
    is_popov,
    is_weak_popov,
    matmul,
    shifted_row_degree,
    weak_popov_to_popov,
)
from .popov_mib import ExpansionPlan, build_expansion, known_mindeg_mib, popov_mib

__version__ = "0.1.0"

__all__ = [
    "ExpansionPlan",
    "InterpInstance",
    "JordanSpec",
    "Modulus",
    "PolyMat",
    "build_expansion",
    "interpolant_check",
    "is_popov",
    "is_weak_popov",
    "iterative_mib",
    "iterative_weak_popov",
    "kernel_oracle",
    "known_mindeg_mib",
    "matmul",
    "minimal_interpolation_basis",
    "popov_mib",
    "residual",
    "shifted_row_degree",
    "standardize",
    "weak_popov_to_popov",
]
