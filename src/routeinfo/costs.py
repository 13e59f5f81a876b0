"""Equilibrium costs, baselines, and the social optimum.

All cost numbers here are computed from the definition level — realized
latencies averaged over type realizations per state, applied to an
equilibrium profile — never by transcribing regime-wise closed forms. The
tests hold the paper's printed closed forms of these costs against them.

This module is the only place equilibrium costs are derived, and
``cost_report`` the only place they are assembled: equilibrium, social,
baseline and expected costs all come from one call (``value`` reads its
costs from it). In each state the route loads depend only on the informed
type's signal, so one ``model._route_load`` and one latency per (informed
type, route) serve both populations' realized costs; the same load rule
gives the belief layer's interim costs and the oracle's cost gaps, and this
module reads only ``model`` and ``equilibrium``. ``cost_report`` broadcasts
over array-valued environment fields; an empty population's terms are
masked per point (NaN in the report, dropped from the social cost), so a
sweep across lambda = 0 or 1 is one call. What reads no lambda is kept by
the rules of ``model._Kept`` (see ``equilibrium``), so a sweep computes it
once: ``cost_report`` keeps the last lambda = 0 baseline under its network
and the environment's p_incident and accuracies, which a lambda sweep
shares, and ``social_optimum`` the last network's two per-state optima,
which every sweep on one network shares.
``realized_population_state_cost`` is the definition-level cost of one
population at any profile; it raises ``empty_population`` if asked for an
empty population.
"""

from __future__ import annotations

import math

from .equilibrium import solve_bwe
from .model import (
    InfoEnvironment,
    NetworkParams,
    PlayerType,
    State,
    StrategyProfile,
    _as_results,
    _Kept,
    _lambda_free_key,
    _population_demands,
    _Record,
    _require_nonempty,
    _require_uninformative,
    _route_load,
    _type_given_state,
    _where,
    latency,
    route_slope,
)


def realized_population_state_cost(
    params: NetworkParams,
    env: InfoEnvironment,
    profile: StrategyProfile,
    population,
    state: State,
):
    """Average realized latency for one population in one state.

    Averages over both populations' type realizations given the state (each
    population draws one common signal), weighting each route by the owner
    type's split fraction:
    sum_r sum_types rho_r(t) * latency_r(state, combined load) * P(t|s) * P(t_opp|s).
    Raises ``empty_population`` if the population is empty at any point; a
    NaN split gives NaN.
    """
    _require_uninformative(env)
    _require_nonempty(env, population)
    if population not in ("L", "H"):
        raise ValueError(f"population must be 'L' or 'H', got {population!r}")
    c_l, c_h = _state_costs(params, env, profile, state)
    return c_l if population == "L" else c_h


def _state_costs(params, env, profile, state: State) -> tuple:
    """(c_L, c_H) of ``realized_population_state_cost``, without its checks.

    In ``state`` the route loads depend only on the informed type t, so one
    ``_route_load`` and one latency per (t, route) serve both populations,
    each weighting it by P(t | state) and its own share of that route. Where
    a population is empty its demand is zero and its cost is the one its
    placeholder split would face; callers mask those points.
    """
    rho_l = profile.rho_L
    demands = _population_demands(params, env)
    c_l = c_h = 0
    for t in (PlayerType.HN, PlayerType.HA):
        prob = _type_given_state(env, t, state)
        rho_t = profile.split(t)
        for route in (1, 2):
            share_l = rho_l if route == 1 else 1 - rho_l
            share_t = rho_t if route == 1 else 1 - rho_t
            load = _route_load(demands, rho_l, rho_t, route)
            lat = latency(params, route, state, load)
            c_l = c_l + prob * share_l * lat
            c_h = c_h + prob * share_t * lat
    return c_l, c_h


# ---------------------------------------------------------------------------
# Social optimum
# ---------------------------------------------------------------------------


class SocOptSolution(_Record):
    """Socially optimal loads and average costs per state."""

    loads_normal: tuple
    loads_incident: tuple
    cost_normal: float
    cost_incident: float
    cost_exp: float


def _state_optimum(params: NetworkParams, state: State) -> tuple:
    """(q1, q2, average cost) minimizing state social cost, closed form.

    No clamp: intercept2 >= intercept1 puts q1 >= 0, and validation's
    intercept2 - intercept1 < slope1_normal * d puts q1 <= d. Each term is
    formed at the scale of a load or a latency, never of twice a load or of
    a load times a latency, so the optimum is finite wherever the
    equilibrium costs are, up to a demand near the largest float."""
    a1 = route_slope(params, 1, state)
    a2, b1, b2, d = params.slope2, params.intercept1, params.intercept2, params.demand
    q1 = (a2 * d - b1 / 2 + b2 / 2) / (a1 + a2)
    q2 = d - q1
    cost = q1 / d * latency(params, 1, state, q1) + q2 / d * latency(params, 2, state, q2)
    return q1, q2, cost


def _state_optima(params: NetworkParams) -> tuple:
    """``_state_optimum`` in the normal state, then in the incident state."""
    return _state_optimum(params, State.NORMAL), _state_optimum(params, State.INCIDENT)


#: The last network's two per-state optima.
_OPTIMA = _Kept()


def social_optimum(params: NetworkParams, env: InfoEnvironment) -> SocOptSolution:
    """Per-state optimal loads and costs, in closed form (fields broadcast).

    The per-state optima read only the network, so those of the last
    network in plain Python are kept (see ``model._Kept``) and reused."""
    (qn1, qn2, cost_n), (qa1, qa2, cost_a) = _OPTIMA.get(params, (), _state_optima, params)
    p = env.p_incident
    qn1, qn2, qa1, qa2, cost_n, cost_a, cost_exp = _as_results(
        qn1, qn2, qa1, qa2, cost_n, cost_a, (1 - p) * cost_n + p * cost_a
    )
    return SocOptSolution(
        loads_normal=(qn1, qn2),
        loads_incident=(qa1, qa2),
        cost_normal=cost_n,
        cost_incident=cost_a,
        cost_exp=cost_exp,
    )


# ---------------------------------------------------------------------------
# Assembled report
# ---------------------------------------------------------------------------


class CostReport(_Record):
    """Every cost quantity for one environment; NaN marks an empty population."""

    c_L_n: float
    c_L_a: float
    c_H_n: float
    c_H_a: float
    c_L_exp: float
    c_H_exp: float
    c_soc_n: float
    c_soc_a: float
    c_soc_exp: float
    baseline_n: float
    baseline_a: float
    baseline_exp: float
    socopt_n: float
    socopt_a: float
    socopt_exp: float


def _baseline(params: NetworkParams, env: InfoEnvironment) -> tuple:
    """The uninformed population's (normal, incident) cost at the equilibrium
    of lambda = 0 with ``env``'s p_incident and accuracy_high."""
    # An int 0 keeps Fraction fields' baseline exact.
    at = InfoEnvironment(env.p_incident, 0, env.accuracy_high)
    profile = solve_bwe(params, at)
    return tuple(_state_costs(params, at, profile, s)[0] for s in State)


#: The last baseline made in plain Python, kept under its network and the
#: lambda-free fields of its environment.
_BASELINES = _Kept()


def cost_report(params: NetworkParams, env: InfoEnvironment) -> CostReport:
    """Solve the equilibrium and assemble all cost quantities for ``env``.

    The only place equilibrium, social, baseline and expected costs are
    assembled. The social cost per state is lam * c_H + (1 - lam) * c_L with
    an empty population's term dropped; the baseline is the uninformed cost
    at the equilibrium of lam = 0, where only p_incident matters. Array-valued
    environment fields give arrays of their common shape, with NaN at the
    points where a population is empty. The baseline does not read lambda,
    so it is kept, as ``equilibrium`` keeps its evaluation (see
    ``model._Kept``), and the points of a lambda sweep share one.
    """
    lam, p = env.frac_informed, env.p_incident

    def expected(c_n, c_a):
        return (1 - p) * c_n + p * c_a

    profile = solve_bwe(params, env)
    (c_l_n, c_h_n), (c_l_a, c_h_a) = (_state_costs(params, env, profile, s) for s in State)
    base_n, base_a = _BASELINES.get(params, _lambda_free_key(env), _baseline, params, env)
    # An empty population's placeholder cost is finite: its term is +0.0.
    soc_n, soc_a = (
        lam * c_h + (1 - lam) * c_l for c_l, c_h in ((c_l_n, c_h_n), (c_l_a, c_h_a))
    )
    # NaN marks an empty population's costs, and so its expected cost.
    c_l_n, c_l_a = (_where(lam == 1, math.nan, c) for c in (c_l_n, c_l_a))
    c_h_n, c_h_a = (_where(lam == 0, math.nan, c) for c in (c_h_n, c_h_a))
    opt = social_optimum(params, env)
    return CostReport(
        *_as_results(
            c_l_n, c_l_a, c_h_n, c_h_a,
            expected(c_l_n, c_l_a), expected(c_h_n, c_h_a),
            soc_n, soc_a, expected(soc_n, soc_a),
            base_n, base_a, expected(base_n, base_a),
            opt.cost_normal, opt.cost_incident, opt.cost_exp,
        )
    )
