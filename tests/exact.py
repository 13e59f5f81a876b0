"""Helpers that the tests of the 27-pattern table share.

``oracle.enumerate_profiles`` decides the table exactly; these helpers only
name what the tests expect of it and the loads they compare.
"""

from __future__ import annotations

from routeinfo import InfoEnvironment, NetworkParams, StrategyProfile
from routeinfo.model import _population_demands, _route_load

#: The pattern of each regime's closed form.
EXPECTED_PATTERN = {
    "R1": ("int", "1", "0"),
    "R2": ("int", "1", "int"),
    "R3": ("0", "1", "int"),
    "R4": ("0", "int", "int"),
}


def route1_loads(params: NetworkParams, env: InfoEnvironment, profile: StrategyProfile) -> tuple:
    """Route 1's load under each informed type's signal (Hn, Ha): these two
    loads set every route's load in every state."""
    demands = _population_demands(params, env)
    return tuple(
        _route_load(demands, profile.rho_L, rho_h, 1) for rho_h in (profile.rho_Hn, profile.rho_Ha)
    )
