"""hardy_lab: optimal Hardy weights on radial graph models, verified numerically.

The package builds weakly spherically symmetric graph models from radial
data (trees, anti-trees, custom profiles), constructs the optimal Hardy
weight of the ground profile through the square-root ratio construction,
and then checks everything it claims: superharmonicity windows for the
origin mass, positivity of the weighted form at radial and vertex level,
criticality by two independent routes, divergence of the null-criticality
sum, domination over the Green weight, and the matching closed forms on
the continuum model spaces.
"""

from .continuum import (
    BUILTIN_CURVES,
    CurveSpec,
    RadialDensity,
    check_closed_form_agreement,
    check_harmonic_condition,
    check_harmonicity,
    damek_ricci_space,
    density_weight,
    harmonic_manifold,
    hyperbolic_space,
    load_density,
    riemannian_model,
    weight_damek_ricci,
    weight_hyperbolic,
    weight_model,
)
from .errors import (
    DimensionTooSmallError,
    HardyLabError,
    InconclusiveTransienceError,
    InconsistentModelError,
    InvalidDensityError,
    InvalidParameterError,
    NeedsTailError,
    NoCanonicalRealizationError,
    NoGreenFunctionError,
    NotPositiveError,
    OriginSingularityError,
    SeriesDivergenceRiskError,
    SizeLimitExceededError,
    UndefinedAtOriginError,
)
from .greens import (
    GreenComparison,
    GreenProfile,
    compare_to_green,
    green_function_exact,
    green_weight,
    transience_test,
)
from .hardy_weights import (
    GammaIntervals,
    WeightProfile,
    check_superharmonic_ground,
    check_superharmonic_sqrt_ground,
    closed_form_weight,
    fitzsimmons_weight,
    gamma_intervals,
    general_closed_form,
    series_expansion,
    sqrt_pair_defect,
    series_remainder_bound,
    tree_bottom_of_spectrum,
    tree_weight,
)
from .optimality import (
    CriticalityResult,
    check_bounded_oscillation,
    check_criticality_agreement,
    check_cutoff_decay,
    check_ground_state_identity,
    check_ground_state_transform,
    check_lambda0_bound,
    check_null_criticality,
    check_properness,
    criticality_energy,
    default_probe_bases,
    ground_weight_mass_terms,
    helper_sum,
    inflation_refutation,
    optimality_probe,
)
from .radial_model import (
    RadialModel,
    Tail,
    VertexGraph,
    expand_vertex_graph,
    load_model,
    make_antitree,
    make_custom,
    make_tree,
    save_model,
)
from .reporting import VerificationReport
from .spectral_ops import (
    TridiagonalForm,
    ball_form_matrix,
    count_eigenvalues_below,
    eigenvalue_bounds,
    hardy_form_matrix,
    radial_laplacian,
    smallest_eigenvalue,
    tree_ball_bottom_eigenvalue,
    tree_ball_is_positive,
    tree_ball_pivots,
    vertex_laplacian,
)

__version__ = "0.1.0"
