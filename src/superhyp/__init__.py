"""Clock-and-shift matrix algebra, sectioned exponential series, modified
Bessel sums, and truncated shift lattices, with verification suites and a CLI.
"""

import gc as _gc

# Importing numpy and the modules below makes about 22,000 objects, nearly
# all of which live as long as the process, so collector passes during the
# import find next to nothing: it is paused while they are made, then left
# as the caller had it.
_collecting = _gc.isenabled()
_gc.disable()
try:
    from .algebra import (
        clock_matrix,
        determinant,
        dft_matrix,
        diagonalize_shift_residual,
        mat_exp,
        pauli_residuals,
        primitive_root,
        shift_matrix,
        shift_power,
    )
    from .bessel import (
        BesselTable,
        ClassicResiduals,
        bessel_i,
        bessel_table,
        classic_identity_residuals,
        generating_function_residual,
        miller_start_order,
    )
    from .circle import (
        CommutatorReport,
        ConvergencePoint,
        LatticeOperators,
        build_lattice,
        commutator_check,
        convergence_study,
        generating_operator,
        generating_operator_element,
    )
    from .errors import DomainError, ValidationError
    from .genmatrix import (
        GeneratingMatrixEval,
        bessel_comb_column,
        bessel_comb_series,
        default_comb_truncation,
        exponential_sum,
        generating_column,
        generating_matrix,
        trace_projection,
        unit_scale,
    )
    from .hyperbolic import (
        POLY_IDENTITY_MONOMIALS,
        SuperHypValues,
        addition_residual,
        c_all,
        c_filter_complex,
        c_series,
        exp_circulant,
        fundamental_identity_residual,
        mixed_product_residual,
        polynomial_identity,
        polynomial_identity_residual,
        series_column,
    )
    from .verify import CaseResult, SUITE_NAMES, VerificationReport, run_suite
finally:
    if _collecting:
        _gc.enable()
    del _collecting

__version__ = "0.1.0"

__all__ = [
    "BesselTable",
    "CaseResult",
    "ClassicResiduals",
    "CommutatorReport",
    "ConvergencePoint",
    "DomainError",
    "GeneratingMatrixEval",
    "LatticeOperators",
    "POLY_IDENTITY_MONOMIALS",
    "SUITE_NAMES",
    "SuperHypValues",
    "ValidationError",
    "VerificationReport",
    "addition_residual",
    "bessel_comb_column",
    "bessel_comb_series",
    "bessel_i",
    "bessel_table",
    "build_lattice",
    "c_all",
    "c_filter_complex",
    "c_series",
    "classic_identity_residuals",
    "clock_matrix",
    "commutator_check",
    "convergence_study",
    "default_comb_truncation",
    "determinant",
    "dft_matrix",
    "diagonalize_shift_residual",
    "exp_circulant",
    "exponential_sum",
    "fundamental_identity_residual",
    "generating_column",
    "generating_function_residual",
    "generating_matrix",
    "generating_operator",
    "generating_operator_element",
    "mat_exp",
    "miller_start_order",
    "mixed_product_residual",
    "pauli_residuals",
    "polynomial_identity",
    "polynomial_identity_residual",
    "primitive_root",
    "run_suite",
    "series_column",
    "shift_matrix",
    "shift_power",
    "trace_projection",
    "unit_scale",
]
