"""Exact E6 state sum invariants of lens spaces.

Computes Z(L(p, q)) two independent ways -- through the 10-dimensional
SL(2,Z) representation and through the closed-form case table -- in exact
arithmetic over Q(zeta_12) = Q(i, sqrt3), and machine-verifies the
representation relations, the level-12 congruence kernel, mod-12
periodicity and homotopy invariance.
"""

from .cyclotomic import (
    GLOBAL_INDEX,
    IMAG,
    ONE,
    SQRT3,
    ZERO,
    Cyclotomic,
    quantum_integer,
    zeta_pow,
)
from .invariant import (
    LensSpace,
    closed_form,
    homotopy_equivalent,
    state_sum,
    sweep_table,
    verify_closed_form,
    verify_corollary,
    verify_periodicity,
    verify_well_defined,
)
from .modular import (
    IDENTITY,
    S,
    SL2Z,
    T,
    Word,
    cofactors,
    decompose,
    gamma12_generators,
    in_gamma12,
    lens_matrix,
)
from .rep import (
    CycloMatrix,
    rho_s,
    rho_t,
    rho_word,
    verify_kernel_generators,
    verify_relations,
    verify_unitary,
)
from .report import Check, Report

__version__ = "0.1.0"

__all__ = [
    "GLOBAL_INDEX", "IMAG", "ONE", "SQRT3", "ZERO",
    "Cyclotomic", "quantum_integer", "zeta_pow",
    "LensSpace", "closed_form", "homotopy_equivalent",
    "state_sum", "sweep_table", "verify_closed_form", "verify_corollary",
    "verify_periodicity", "verify_well_defined",
    "IDENTITY", "S", "SL2Z", "T", "Word", "cofactors", "decompose",
    "gamma12_generators", "in_gamma12", "lens_matrix",
    "CycloMatrix", "rho_s", "rho_t", "rho_word",
    "verify_kernel_generators", "verify_relations", "verify_unitary",
    "Check", "Report",
]
