"""tubelab: desk-scale numerical verification of tube-incidence geometry.

Geometric primitives for lines and delta-tubes in R^n, a direction-spread
dichotomy with exhaustive verification oracles, grid evaluation of
multilinear tube functionals, non-concentration checks and random thinning
on line space, extremal tube-family generators, box-counting dimension
estimation, and a CLI experiment runner with golden-value regression.
"""

__version__ = "0.1.0"

from .linegeom import (
    CapCover,
    Direction,
    GeometryError,
    Line,
    Subspace,
    Tube,
    build_cap_cover,
    line_metric,
    line_of_tube,
    point_in_tube,
    subspace_wedge,
    unit_ball_volume,
    wedge_volume,
)

from .concentration import (
    BallNet,
    ThinningError,
    ball_condition_worst_ratio,
    random_thin,
    random_thin_trials,
)
from .dichotomy import (
    DichotomyResult,
    DirectionMultiset,
    control_card_ratio,
    count_spread_tuples,
    decide_dichotomy,
    verify_option_a,
    verify_option_b,
)
from .dimension import (
    ExponentFit,
    Region,
    box_counting_dim,
    exponent_fit_norms,
    holder_comparison,
)
from .functionals import (
    Grid,
    RhoCoarsening,
    TubeFamily,
    UnderResolvedGridError,
    calculation_chain,
    coarsen_to_rho_tubes,
    decompose_lp,
    induction_step_terms,
    lp_norm_tube_sum,
    multilinear_kakeya_lhs,
    multilinear_kakeya_rhs,
)
from .generators import (
    gen_axes,
    gen_bush,
    gen_lines_in_planes,
    gen_random_nonconcentrated,
)

__all__ = [
    "BallNet",
    "CapCover",
    "DichotomyResult",
    "Direction",
    "DirectionMultiset",
    "ExponentFit",
    "GeometryError",
    "Grid",
    "Line",
    "Region",
    "RhoCoarsening",
    "Subspace",
    "ThinningError",
    "Tube",
    "TubeFamily",
    "UnderResolvedGridError",
    "ball_condition_worst_ratio",
    "box_counting_dim",
    "build_cap_cover",
    "calculation_chain",
    "coarsen_to_rho_tubes",
    "control_card_ratio",
    "count_spread_tuples",
    "decide_dichotomy",
    "decompose_lp",
    "exponent_fit_norms",
    "gen_axes",
    "gen_bush",
    "gen_lines_in_planes",
    "gen_random_nonconcentrated",
    "holder_comparison",
    "induction_step_terms",
    "line_metric",
    "line_of_tube",
    "lp_norm_tube_sum",
    "multilinear_kakeya_lhs",
    "multilinear_kakeya_rhs",
    "point_in_tube",
    "random_thin",
    "random_thin_trials",
    "subspace_wedge",
    "unit_ball_volume",
    "verify_option_a",
    "verify_option_b",
    "wedge_volume",
    "__version__",
]
