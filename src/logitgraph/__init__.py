"""Logit (quantal response) equilibria of finite normal-form games.

The library computes logit equilibria and their continuation paths, splits
payoff space into mean and zero-mean coordinates, maps Nash and logit graph
points to payoff coordinates and back, and runs reproducible numerical
certificates for the smoothness and uniform-approximation properties of the
logit graph.
"""

from .errors import (
    ConvergenceError,
    InvalidInputError,
    NotOnGraphError,
    ParseError,
    PathFailureError,
)
from .games import (
    Game,
    GraphPoint,
    KMRepresentation,
    MixedProfile,
    StrategicGameForm,
    TargetPoint,
    deviation_payoff,
    deviation_payoffs,
    evaluate_mixed,
    km_decompose,
    km_recompose,
    logit_residual,
    nash_residual,
)
from .graph_maps import (
    approximation_gap,
    graph_point_gap,
    phi,
    phi_inv,
    phi_n,
    phi_n_inv,
    z_logit,
    z_nash,
)
from .io import (
    game_to_json,
    parse_game,
    parse_target_point,
    target_point_to_json,
    trace_to_csv,
    trace_to_json,
)
from .maps import (
    ConvergenceBound,
    SimplexProjection,
    alpha_star,
    epsilon_bound,
    g_jacobian,
    g_map,
    h_exact,
    h_numeric,
    is_cl_matrix,
    softmax,
)
from .solver import (
    PathEntry,
    PathTrace,
    approximate_nash,
    logit_response,
    solve_newton,
    trace_logit_path,
)
from .studies import (
    ConvergenceReport,
    RankReport,
    ReportRow,
    convergence_study,
    immersion_rank_check,
    sample_target_points,
)
from .verification import CheckResult, run_property_suite

__version__ = "0.1.0"

__all__ = [
    "ConvergenceBound",
    "ConvergenceError",
    "ConvergenceReport",
    "CheckResult",
    "Game",
    "GraphPoint",
    "InvalidInputError",
    "KMRepresentation",
    "MixedProfile",
    "NotOnGraphError",
    "ParseError",
    "PathEntry",
    "PathFailureError",
    "PathTrace",
    "RankReport",
    "ReportRow",
    "SimplexProjection",
    "StrategicGameForm",
    "TargetPoint",
    "alpha_star",
    "approximate_nash",
    "approximation_gap",
    "convergence_study",
    "deviation_payoff",
    "deviation_payoffs",
    "epsilon_bound",
    "evaluate_mixed",
    "g_jacobian",
    "g_map",
    "game_to_json",
    "graph_point_gap",
    "h_exact",
    "h_numeric",
    "immersion_rank_check",
    "is_cl_matrix",
    "km_decompose",
    "km_recompose",
    "logit_residual",
    "logit_response",
    "nash_residual",
    "parse_game",
    "parse_target_point",
    "phi",
    "phi_inv",
    "phi_n",
    "phi_n_inv",
    "run_property_suite",
    "sample_target_points",
    "softmax",
    "solve_newton",
    "target_point_to_json",
    "trace_logit_path",
    "trace_to_csv",
    "trace_to_json",
    "z_logit",
    "z_nash",
]
