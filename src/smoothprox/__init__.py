"""Structured sparse regression via the smoothing proximal gradient method.

Solves ``min_beta g(beta) + Omega(beta) + lam * ||beta||_1`` where ``Omega``
is an overlapping group lasso or graph-guided fusion penalty, by smoothing
the structured term and running accelerated proximal gradient with an l1
prox.  Includes a subgradient (forward-backward) baseline, a multi-output
extension, synthetic experiment generators, and a CLI.

Submodules load on first use of one of their names (PEP 562), so importing
the package, or ``smoothprox.cli``, does not load numpy: the CLI's
``--threads`` must set the BLAS thread variables before numpy loads.
"""

import importlib

_EXPORTS = {
    "fobos": ("FobosConfig", "solve_fobos"),
    "losses": ("LogisticLoss", "SquaredLoss"),
    "multivariate": ("MultiProblem", "solve_multivariate"),
    "penalties": (
        "CouplingMatrix",
        "GraphPenaltySpec",
        "GroupPenaltySpec",
        "StructureError",
        "penalty_from_json",
        "penalty_to_json",
    ),
    "simulate": (
        "GraphSimSpec",
        "OverlapSimSpec",
        "gen_graph_instance",
        "gen_overlap_instance",
        "overlap_groups",
        "overlap_true_beta",
        "threshold_correlation_graph",
    ),
    "smoothing": (
        "select_mu",
        "spectral_norm_power_iteration",
    ),
    "solver": (
        "Problem",
        "SolverConfig",
        "SolverError",
        "Trace",
        "iteration_bound",
        "regularization_path",
        "soft_threshold",
        "solve",
        "total_lipschitz",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = set(_EXPORTS) | {"cli"}

__all__ = sorted(_ORIGIN)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
