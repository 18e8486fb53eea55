"""gaplab: potential theory, Jacobi operators and sum rules on gap sets."""

__version__ = "0.1.0"

from .errors import NumericalError, ValidationError
from .realset import (
    GapSet,
    Location,
    fat_cantor,
    homogeneity_margin,
    intersection_length,
    lebesgue_measure,
    locate,
    make_gapset,
    scale_shift,
)
from .potential import (
    EquilibriumQuadrature,
    GreenModel,
    critical_points,
    equilibrium_density,
    equilibrium_quadrature,
    gap_derivative_l1,
    green_value,
    interval_stieltjes,
    model_from_json,
    model_to_json,
    period_residuals,
    pw_sum,
    solve_green,
)
from .jacobi import (
    InterlacingProfile,
    JacobiCoeffs,
    MeasureModel,
    WeightSpec,
    coefficient_stability,
    coefficients_from_measure,
    coeffs_from_json,
    coeffs_to_csv,
    coeffs_to_json,
    eigenvalue_green_sum,
    gap_eigenvalues,
    glue_head,
    interlacing_profile,
    m_function,
    make_measure,
    measure_m_boundary,
    measure_to_json,
    stable_gap_eigenvalues,
    strip,
    stripped_boundary_density,
    sturm_count,
    truncation_eigenvalues,
)
from .sumrule import (
    BoundCheckReport,
    SumRuleReport,
    TheoremReport,
    eigenvalue_bound_check,
    equilibrium_coefficients,
    n_step_sum_rule,
    relative_entropy,
    step_sum_rule,
    szego_integral,
    szego_product,
    theorem_upper_bound,
    trailing_window,
)
