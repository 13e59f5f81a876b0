"""Bayesian Wardrop equilibria for a two-route network with an incident-prone
route and heterogeneously informed travelers: belief construction, regime
classification, closed-form equilibria, equilibrium/baseline/optimum costs,
the value of information, and independent numerical oracles.

Importing the package loads none of its modules, nor numpy: each public name
is imported from its module on first use and then kept here (PEP 562), so a
program pays at start-up only for the modules it reads.
"""

import importlib

#: Each public name -> the module that defines it, in ``__all__`` order.
_ORIGIN = {
    "EQUILIBRIUM_TYPES": "model",
    "BeliefTable": "beliefs",
    "CostReport": "costs",
    "DerivedConstants": "model",
    "GridScanResult": "oracle",
    "InfoEnvironment": "model",
    "MarginalTypeDist": "model",
    "NetworkParams": "model",
    "OracleConfig": "oracle",
    "OracleConvergenceError": "model",
    "PlayerType": "model",
    "ProfileVerdict": "oracle",
    "Regime": "equilibrium",
    "SocOptSolution": "costs",
    "State": "model",
    "StrategyProfile": "model",
    "Theorem1Report": "value",
    "Theorem2Report": "value",
    "ValidationError": "model",
    "ValueReport": "value",
    "belief_conditional_ck": "beliefs",
    "belief_marginal_ck": "beliefs",
    "belief_uninformative": "beliefs",
    "best_response": "oracle",
    "classify": "equilibrium",
    "cost_report": "costs",
    "derived_constants": "model",
    "enumerate_profiles": "oracle",
    "expected_route_cost": "beliefs",
    "grid_scan": "oracle",
    "lambda_min": "value",
    "lambda_tilde": "value",
    "latency": "model",
    "marginal_type_dist": "model",
    "posterior_state": "beliefs",
    "realized_population_state_cost": "costs",
    "regime_boundaries": "equilibrium",
    "route_slope": "model",
    "social_optimum": "costs",
    "solve_bwe": "equilibrium",
    "solve_fixed_point": "oracle",
    "theorem2_grid": "value",
    "validate": "model",
    "value_report": "value",
    "verify_theorem1": "value",
    "verify_theorem2": "value",
    "wardrop_residual": "oracle",
}

__all__ = list(_ORIGIN)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _ORIGIN:
        value = getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _ORIGIN.values():
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *__all__})
