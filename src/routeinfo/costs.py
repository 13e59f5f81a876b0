"""Equilibrium costs, baselines, and the social optimum.

All cost numbers here are computed from the definition level — realized
latencies averaged over type realizations per state, applied to an
equilibrium profile — never by transcribing regime-wise closed forms. The
closed forms are kept only as cross-check rows in
``analytic_cost_crosscheck``, because several printed branches carry defects
(an undefined symbol, a garbled additive term, and one wrong slope
subscript); the crosscheck reports each branch's status explicitly instead
of silently trusting it.

This module is the only place equilibrium costs are derived, and
``cost_report`` the only place they are assembled: equilibrium, social,
baseline and expected costs all come from one call (``value`` reads its
costs from it). In each state the route loads depend only on the informed
type's signal, so one ``beliefs._route_load`` and one latency per (informed
type, route) serve both populations' realized costs; the same load rule
gives the interim costs of ``beliefs.expected_route_cost``. ``cost_report``
broadcasts over array-valued environment fields; an empty population's
terms are masked per point (NaN in the report, dropped from the social
cost), so a sweep across lambda = 0 or 1 is one call.
``realized_population_state_cost`` is the definition-level cost of one
population at any profile; it raises ``empty_population`` if asked for an
empty population.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beliefs import _route_load, _type_given_state
from .equilibrium import StrategyProfile, classify, solve_bwe
from .model import (
    InfoEnvironment,
    NetworkParams,
    PlayerType,
    State,
    _as_results,
    _cost_tol,
    _require_nonempty,
    _require_perfect_accuracy,
    _require_scalar,
    _require_uninformative,
    derived_constants,
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
    Raises ``empty_population`` if the population is empty at any point.
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
    c_l = c_h = 0
    for t in (PlayerType.HN, PlayerType.HA):
        prob = _type_given_state(env, t, state)
        rho_t = profile.split(t)
        for route in (1, 2):
            share_l = rho_l if route == 1 else 1 - rho_l
            share_t = rho_t if route == 1 else 1 - rho_t
            load = _route_load(params, env, profile, route, t)
            lat = latency(params, route, state, load)
            c_l = c_l + prob * share_l * lat
            c_h = c_h + prob * share_t * lat
    return c_l, c_h


# ---------------------------------------------------------------------------
# Social optimum
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SocOptSolution:
    """Socially optimal loads, split fractions, and average costs per state."""

    loads_normal: tuple
    loads_incident: tuple
    rho_normal: float
    rho_incident: float
    cost_normal: float
    cost_incident: float
    cost_exp: float


def _state_optimum(params: NetworkParams, state: State) -> tuple:
    """(q1, q2, average cost) minimizing state social cost, closed form."""
    a1 = route_slope(params, 1, state)
    a2, b1, b2, d = params.slope2, params.intercept1, params.intercept2, params.demand
    q1 = (2 * a2 * d - b1 + b2) / (2 * (a1 + a2))
    q1 = np.clip(q1, 0.0, d)
    q2 = d - q1
    total = q1 * latency(params, 1, state, q1) + q2 * latency(params, 2, state, q2)
    return q1, q2, total / d


def social_optimum(params: NetworkParams, env: InfoEnvironment) -> SocOptSolution:
    """Per-state optimal loads and costs, in closed form (fields broadcast)."""
    d = params.demand
    qn1, qn2, cost_n = _state_optimum(params, State.NORMAL)
    qa1, qa2, cost_a = _state_optimum(params, State.INCIDENT)
    p = env.p_incident
    qn1, qn2, qa1, qa2, rho_n, rho_a, cost_n, cost_a, cost_exp = _as_results(
        qn1, qn2, qa1, qa2, qn1 / d, qa1 / d, cost_n, cost_a,
        (1 - p) * cost_n + p * cost_a,
    )
    return SocOptSolution(
        loads_normal=(qn1, qn2),
        loads_incident=(qa1, qa2),
        rho_normal=rho_n,
        rho_incident=rho_a,
        cost_normal=cost_n,
        cost_incident=cost_a,
        cost_exp=cost_exp,
    )


# ---------------------------------------------------------------------------
# Closed-form cross-checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrosscheckRow:
    """One printed closed-form branch compared against first principles.

    ``status`` is "match" (|deviation| within 1e-11 of the cost scale
    intercept2 + slope1_incident * demand), "deviates", or "excluded"
    (branch not evaluated; see ``note`` for the defect).
    """

    quantity: str
    regime: str
    printed: float | None
    computed: float
    deviation: float | None
    status: str
    note: str = ""


#: Printed branches that are not evaluated, with the defect in each.
_EXCLUDED = {
    ("c_L_n", "R1"): "undefined_symbol: R1 branch references K_L^1",
    ("c_soc_exp", "R1"): "garbled_expression: R1 branch drops a factor",
}

#: Printed branches evaluated verbatim and known to be wrong, with the defect.
_DEVIATES = {
    ("c_soc_exp", "R3"): (
        "printed incident term uses the normal-state slope; "
        "expected shortfall (slope1_incident - slope1_normal) * K2 * p"
    ),
}


def _printed_branches(params: NetworkParams, env: InfoEnvironment) -> dict:
    """The paper's closed form of each (quantity, regime) but the
    ``_EXCLUDED`` ones, as printed, all at ``env``. Every denominator is
    positive for 0 < frac_informed < 1 and accuracy_high = 1."""
    k = derived_constants(params, env)
    lam, p, d = env.frac_informed, env.p_incident, params.demand
    a1n, a1a, a2 = params.slope1_normal, params.slope1_incident, params.slope2
    b1, b2 = params.intercept1, params.intercept2
    # Uninformed splits and route costs that several branches share.
    rho_l_r1 = k.k1 / ((1 - lam) * d) - (1 - p) * lam / (1 - lam)
    rho_l_r2 = k.k4 / ((1 - lam) * d) - lam / (1 - lam)
    q1_r1 = k.k1 - (1 - p) * lam * d
    route1_r1, route2_r1 = a1a * q1_r1 + b1, a2 * (d - q1_r1) + b2
    route1_k4, route2_k4 = a1n * k.k4 + b1, a2 * (d - k.k4) + b2
    incident_route1 = a1a * k.k2 + b1
    incident_route2 = a2 * (d - k.k0 / (a1a + a2)) + b2
    return {
        ("c_L_n", "R2"): rho_l_r2 * route1_k4 + (1 - rho_l_r2) * route2_k4,
        ("c_L_n", "R3"): a2 * (1 - lam) * d + b2,
        ("c_L_n", "R4"): a2 * (d - k.k3) + b2,
        ("c_L_a", "R1"): rho_l_r1 * route1_r1 + (1 - rho_l_r1) * route2_r1,
        ("c_H_n", "R1"): a1n * (k.k1 + p * lam * d) + b1,
        ("c_H_n", "R2"): route1_k4,
        ("c_H_n", "R3"): a1n * lam * d + b1,
        ("c_H_n", "R4"): a1n * k.k3 + b1,
        ("c_H_a", "R1"): route2_r1,
        **{
            (quantity, regime): incident_route1
            for quantity in ("c_L_a", "c_H_a")
            for regime in ("R2", "R3", "R4")
        },
        ("c_soc_exp", "R2"): p * incident_route2 + (1 - p) * (
            (k.k4 / d) * route1_k4 + (1 - k.k4 / d) * route2_k4
        ),
        ("c_soc_exp", "R3"): p * (a1n * k.k2 + b1) + (1 - p) * (
            lam**2 * a1n * d + lam * b1 + (1 - lam) ** 2 * a2 * d + (1 - lam) * b2
        ),
        ("c_soc_exp", "R4"): p * incident_route2 + (1 - p) * (
            a2 * (d - k.k0 / (a1n + a2)) + b2
        ),
    }


def analytic_cost_crosscheck(params: NetworkParams, env: InfoEnvironment) -> list:
    """Compare the classified regime's printed cost branches with first principles.

    One row per quantity. Scalar fields only (the branch is chosen by one
    regime label), accuracy_high = 1, and both populations present. The
    ``_EXCLUDED`` branches carry typos and are not guessed at; the
    ``_DEVIATES`` one is evaluated verbatim and reported as deviating.
    """
    _require_scalar("the crosscheck", params, env)
    _require_uninformative(env)
    _require_perfect_accuracy(env)
    _require_nonempty(env, "L", "H")

    regime = classify(params, env).label
    report = cost_report(params, env)
    branches = _printed_branches(params, env)
    rows = []
    for quantity in ("c_L_n", "c_L_a", "c_H_n", "c_H_a", "c_soc_exp"):
        value = getattr(report, quantity)
        key = (quantity, regime)
        printed = deviation = None
        status = "excluded"
        if key not in _EXCLUDED:
            printed = float(branches[key])
            deviation = float(abs(branches[key] - value))
            matches = key not in _DEVIATES and deviation <= _cost_tol(params)
            status = "match" if matches else "deviates"
        note = _EXCLUDED.get(key, _DEVIATES.get(key, ""))
        rows.append(
            CrosscheckRow(
                quantity, regime, printed, float(value), deviation, status, note
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Assembled report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CostReport:
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


def cost_report(params: NetworkParams, env: InfoEnvironment) -> CostReport:
    """Solve the equilibrium and assemble all cost quantities for ``env``.

    The only place equilibrium, social, baseline and expected costs are
    assembled. The social cost per state is lam * c_H + (1 - lam) * c_L with
    an empty population's term dropped; the baseline is the uninformed cost
    at the equilibrium of lam = 0, where only p_incident matters. Array-valued
    environment fields give arrays of their common shape, with NaN at the
    points where a population is empty.
    """
    lam, p = env.frac_informed, env.p_incident

    def state_costs(at: InfoEnvironment) -> list:
        profile = solve_bwe(params, at)
        return [_state_costs(params, at, profile, s) for s in State]

    def expected(c_n, c_a):
        return (1 - p) * c_n + p * c_a

    (c_l_n, c_h_n), (c_l_a, c_h_a) = state_costs(env)
    (base_n, _), (base_a, _) = state_costs(InfoEnvironment(p, 0.0, env.accuracy_high))
    soc_n, soc_a = (
        np.where(lam == 0, c_l, np.where(lam == 1, c_h, lam * c_h + (1 - lam) * c_l))
        for c_l, c_h in ((c_l_n, c_h_n), (c_l_a, c_h_a))
    )
    # NaN marks an empty population's costs, and so its expected cost.
    c_l_n, c_l_a = (np.where(lam == 1, np.nan, c) for c in (c_l_n, c_l_a))
    c_h_n, c_h_a = (np.where(lam == 0, np.nan, c) for c in (c_h_n, c_h_a))
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
