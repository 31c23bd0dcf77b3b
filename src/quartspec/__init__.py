"""Numerical spectral objects of the fourth-order operator
y'''' - (p y')' + q y with separated boundary conditions."""

from .problem import (
    BoundaryParams,
    CoefficientField,
    ProblemSpec,
    ProblemError,
    Tolerances,
    beam_problem,
    boundary_form_matrix,
    lagrange_bracket,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    save_problem,
    validate_problem,
)
from .propagator import FundamentalMatrix, fundamental_C, fundamental_S, propagate
from .weyl import (
    CharacteristicValue,
    PoleError,
    WeylSample,
    all_deltas,
    characteristic_delta,
    deltas_at,
    weyl_inverse,
    weyl_matrix,
)
from .spectra import (
    BarcilonData,
    Zero,
    find_complex_zeros,
    find_first_zeros,
    find_real_zeros,
    find_zero_near,
    simplicity_check,
    three_spectra,
)
from .mclaughlin import SpectralPoint, eigenfunction, weight_numbers
from .weights import (
    WeightMatrix,
    classify_eigenvalue,
    classify_on_problem,
    entry_residue,
    laurent_coefficients,
    verify_weight_structure,
    weight_matrix,
    weight_matrix_near,
)
from .bridge import (
    barcilon_equiv_data,
    case2_alpha,
    mclaughlin_to_barcilon_values,
    reconstruct_delta_hadamard,
    reconstruct_m32,
    twin_comparison,
)

__version__ = "0.1.0"
