"""Logit (quantal response) equilibria of finite normal-form games.

The library computes logit equilibria and their continuation paths, splits
payoff space into mean and zero-mean coordinates, maps Nash and logit graph
points to payoff coordinates and back, and runs reproducible numerical
certificates for the smoothness and uniform-approximation properties of the
logit graph.

Every name below is imported from its home module on first use (PEP 562), so
``import logitgraph`` loads no layer until one is needed.
"""

import importlib

__version__ = "0.1.0"

# home module -> the public names it exports
_EXPORTS = {
    "errors": (
        "ConvergenceError", "InvalidInputError", "NotOnGraphError", "ParseError",
        "PathFailureError",
    ),
    "games": (
        "Game", "KMRepresentation", "MixedProfile", "StrategicGameForm", "deviation_payoffs",
        "evaluate_mixed", "km_decompose", "km_recompose", "logit_residual", "nash_residual",
        "softmax",
    ),
    "graph_maps": (
        "GraphPoint", "TargetPoint", "approximation_gap", "graph_point_gap", "phi", "phi_inv",
        "phi_n_inv", "z_logit", "z_nash",
    ),
    "io": (
        "game_to_json", "parse_game", "parse_target_point", "target_point_to_json",
    ),
    "maps": (
        "SimplexProjection", "alpha_star", "epsilon_bound", "g_jacobian", "g_map", "h_exact",
        "h_numeric", "is_cl_matrix",
    ),
    "solver": ("PathEntry", "PathTrace", "logit_response", "solve_newton", "trace_logit_path"),
    "studies": (
        "ConvergenceReport", "RankReport", "ReportRow", "convergence_study", "immersion_rank_check",
        "sample_target_points",
    ),
    "verification": ("CheckResult", "run_property_suite"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | _SUBMODULES | set(__all__))
