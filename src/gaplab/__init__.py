"""gaplab: potential theory, Jacobi operators and sum rules on gap sets."""

__version__ = "0.1.0"

from .errors import NumericalError, ValidationError
from .realset import (
    GapSet,
    Location,
    fat_cantor,
    homogeneity_margin,
    lebesgue_measure,
    locate,
    make_gapset,
    scale_shift,
)
from .potential import (
    EquilibriumQuadrature,
    GreenModel,
    equilibrium_density,
    equilibrium_quadrature,
    gap_derivative_l1,
    green_value,
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
    coefficients_from_measure,
    eigenvalue_green_sum,
    gap_eigenvalues,
    glue_head,
    glued_eigenvalues,
    interlacing_profile,
    m_function,
    make_measure,
    measure_m_boundary,
    measure_to_json,
    stable_gap_eigenvalues,
    strip,
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
