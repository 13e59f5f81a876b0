"""Equilibrium costs, baselines, and the social optimum.

All cost numbers here are computed from the definition level — realized
latencies averaged over type realizations per state, applied to an
equilibrium profile — never by transcribing regime-wise closed forms. The
closed forms are kept only as cross-check rows in
``analytic_cost_crosscheck``, because several printed branches carry defects
(an undefined symbol, a garbled additive term, and one wrong slope
subscript); the crosscheck reports each branch's status explicitly instead
of silently trusting it.

This module is the only place equilibrium costs are derived. In each state
the route loads depend only on the informed type's signal, so one latency
per (informed type, route) serves both populations' realized costs; the
social cost is built from those (``value`` reads its costs from
``cost_report``).
``social_costs``, ``baseline_costs`` and ``cost_report`` broadcast over
array-valued environment fields; an empty population's terms are masked
per point (NaN in the report, dropped from the social cost), so a sweep
across lambda = 0 or 1 is one call. ``realized_population_state_cost``
still raises ``empty_population`` if asked for an empty population.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .beliefs import _require_uninformative, _type_given_state
from .equilibrium import StrategyProfile, classify, solve_bwe
from .model import (
    InfoEnvironment,
    NetworkParams,
    PlayerType,
    State,
    ValidationError,
    _as_results,
    derived_constants,
    latency,
)


def _check_nonempty(env: InfoEnvironment, population) -> None:
    lam = env.frac_informed
    if population in ("L", PlayerType.L) and np.any(lam == 1):
        raise ValidationError(
            "empty_population", "population L is empty at frac_informed = 1"
        )
    if population == "H" and np.any(lam == 0):
        raise ValidationError(
            "empty_population", "population H is empty at frac_informed = 0"
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
    _check_nonempty(env, population)
    if population not in ("L", "H"):
        raise ValueError(f"population must be 'L' or 'H', got {population!r}")
    c_l, c_h = _state_costs(params, env, profile, state)
    return c_l if population == "L" else c_h


def _state_costs(params, env, profile, state: State) -> tuple:
    """(c_L, c_H) of ``realized_population_state_cost``, without its checks.

    Each population's demand moves as one type realization, so in ``state``
    the route loads depend only on the informed type t: one latency per
    (t, route) serves both populations, each weighting it by P(t | state)
    and its own share of that route. Where a population is empty its demand
    is zero and its cost is the one its placeholder split would face;
    callers mask those points.
    """
    lam, d, rho_l = env.frac_informed, params.demand, profile.rho_L
    demand_l, demand_h = (1 - lam) * d, lam * d
    c_l = c_h = 0
    for t in (PlayerType.HN, PlayerType.HA):
        prob = _type_given_state(env, t, state)
        rho_t = profile.split(t)
        for route in (1, 2):
            share_l = rho_l if route == 1 else 1 - rho_l
            share_t = rho_t if route == 1 else 1 - rho_t
            load = share_l * demand_l + share_t * demand_h
            lat = latency(params, route, state, load)
            c_l = c_l + prob * share_l * lat
            c_h = c_h + prob * share_t * lat
    return c_l, c_h


def expected_population_cost(
    params: NetworkParams,
    env: InfoEnvironment,
    profile: StrategyProfile,
    population,
):
    """Incident-probability-weighted average of the two state costs."""
    c_n = realized_population_state_cost(params, env, profile, population, State.NORMAL)
    c_a = realized_population_state_cost(
        params, env, profile, population, State.INCIDENT
    )
    p = env.p_incident
    return (1 - p) * c_n + p * c_a


def _population_state_costs(params, env, profile) -> tuple:
    """(c_L_n, c_L_a, c_H_n, c_H_a), unmasked: one ``_state_costs`` per state."""
    (c_l_n, c_h_n), (c_l_a, c_h_a) = (
        _state_costs(params, env, profile, state)
        for state in (State.NORMAL, State.INCIDENT)
    )
    return c_l_n, c_l_a, c_h_n, c_h_a


def _social_state_costs(env: InfoEnvironment, c_l_n, c_l_a, c_h_n, c_h_a) -> tuple:
    """(c_soc_n, c_soc_a, c_soc_exp): lam * c_H + (1 - lam) * c_L per state,
    dropping an empty population's term, and its expectation."""
    lam = env.frac_informed
    c_n, c_a = (
        np.where(lam == 0, c_l, np.where(lam == 1, c_h, lam * c_h + (1 - lam) * c_l))
        for c_l, c_h in ((c_l_n, c_h_n), (c_l_a, c_h_a))
    )
    p = env.p_incident
    return c_n, c_a, (1 - p) * c_n + p * c_a


def social_costs(params: NetworkParams, env: InfoEnvironment, profile) -> tuple:
    """Population-weighted state costs and their expectation.

    c_soc_s = lam * c_H_s + (1 - lam) * c_L_s, with an empty population's
    term dropped rather than evaluated.
    """
    _require_uninformative(env)
    costs = _population_state_costs(params, env, profile)
    return tuple(_as_results(*_social_state_costs(env, *costs)))


def baseline_costs(params: NetworkParams, env: InfoEnvironment) -> tuple:
    """Equilibrium costs of the zero-information environment (lam = 0).

    Only env.p_incident matters; the returned triple is what every value
    calculation is measured against.
    """
    env0 = InfoEnvironment(
        p_incident=env.p_incident,
        frac_informed=0.0,
        accuracy_high=env.accuracy_high,
        accuracy_low=0.5,
    )
    profile0 = solve_bwe(params, env0)
    c_n, _ = _state_costs(params, env0, profile0, State.NORMAL)
    c_a, _ = _state_costs(params, env0, profile0, State.INCIDENT)
    p = env.p_incident
    return tuple(_as_results(c_n, c_a, (1 - p) * c_n + p * c_a))


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
    a1 = params.slope1_incident if state == State.INCIDENT else params.slope1_normal
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

    ``status`` is "match" (|deviation| <= 1e-9), "deviates", or "excluded"
    (branch not evaluated; see ``note`` for the defect).
    """

    quantity: str
    regime: str
    printed: float | None
    computed: float
    deviation: float | None
    status: str
    note: str = ""


_MATCH_TOL = 1e-9


def analytic_cost_crosscheck(params: NetworkParams, env: InfoEnvironment) -> list:
    """Evaluate every printed per-regime cost branch against first principles.

    Scalar fields only: the printed branch is chosen by one regime label, so
    an array-valued field raises ``scalar_only``. Requires the
    perfectly-informed specialization (accuracy_high = 1) and an
    interior informed fraction so both populations exist. Branches with known
    typographical defects are excluded with a reason instead of guessed at:
    the uninformed normal-state cost in the first regime references an
    undefined load symbol, and the expected-social-cost expression for that
    regime has a garbled additive term. The third-regime expected social cost
    is evaluated verbatim and reported as deviating: its printed incident
    term uses the normal-state slope where the incident slope belongs.
    """
    arrays = [
        f.name for obj in (params, env) for f in fields(obj)
        if np.ndim(getattr(obj, f.name))
    ]
    if arrays:
        raise ValidationError(
            "scalar_only",
            f"the crosscheck takes scalar fields only, {arrays[0]} is an array",
        )
    _require_uninformative(env)
    if np.any(np.asarray(env.accuracy_high) != 1):
        raise ValidationError(
            "not_analyzed",
            "closed-form cost branches are only stated for accuracy_high = 1",
        )
    lam = env.frac_informed
    if not 0 < lam < 1:
        raise ValidationError(
            "empty_population",
            "crosscheck needs both populations present (0 < frac_informed < 1)",
        )

    profile = solve_bwe(params, env)
    regime = classify(params, env).label
    k = derived_constants(params, env)
    p, d = env.p_incident, params.demand
    a1n, a1a, a2 = params.slope1_normal, params.slope1_incident, params.slope2
    b1, b2 = params.intercept1, params.intercept2

    population_costs = _population_state_costs(params, env, profile)
    computed = dict(
        zip(("c_L_n", "c_L_a", "c_H_n", "c_H_a"), population_costs),
        c_soc_exp=_social_state_costs(env, *population_costs)[2],
    )

    def printed_c_L_n():
        if regime == "R1":
            return None, "excluded", "undefined_symbol: R1 branch references K_L^1"
        if regime == "R2":
            rho = k.k4 / ((1 - lam) * d) - lam / (1 - lam)
            val = rho * (a1n * k.k4 + b1) + (1 - rho) * (a2 * (d - k.k4) + b2)
        elif regime == "R3":
            val = a2 * (1 - lam) * d + b2
        else:
            val = a2 * (d - k.k3) + b2
        return val, None, ""

    def printed_c_L_a():
        if regime == "R1":
            rho = k.k1 / ((1 - lam) * d) - (1 - p) * lam / (1 - lam)
            q1 = k.k1 - (1 - p) * lam * d
            val = rho * (a1a * q1 + b1) + (1 - rho) * (a2 * (d - q1) + b2)
        else:
            val = a1a * k.k2 + b1
        return val, None, ""

    def printed_c_H_n():
        val = {
            "R1": a1n * (k.k1 + p * lam * d) + b1,
            "R2": a1n * k.k4 + b1,
            "R3": a1n * lam * d + b1,
            "R4": a1n * k.k3 + b1,
        }[regime]
        return val, None, ""

    def printed_c_H_a():
        if regime == "R1":
            val = a2 * (d - (k.k1 - (1 - p) * lam * d)) + b2
        else:
            val = a1a * k.k2 + b1
        return val, None, ""

    def printed_c_soc_exp():
        if regime == "R1":
            return None, "excluded", "garbled_expression: R1 branch drops a factor"
        if regime == "R2":
            val = p * (a2 * (d - k.k0 / (a1a + a2)) + b2) + (1 - p) * (
                (k.k4 / d) * (a1n * k.k4 + b1)
                + (1 - k.k4 / d) * (a2 * (d - k.k4) + b2)
            )
            return val, None, ""
        if regime == "R3":
            val = p * (a1n * k.k2 + b1) + (1 - p) * (
                lam**2 * a1n * d
                + lam * b1
                + (1 - lam) ** 2 * a2 * d
                + (1 - lam) * b2
            )
            return (
                val,
                "deviates",
                "printed incident term uses the normal-state slope; "
                "expected shortfall (slope1_incident - slope1_normal) * K2 * p",
            )
        val = p * (a2 * (d - k.k0 / (a1a + a2)) + b2) + (1 - p) * (
            a2 * (d - k.k0 / (a1n + a2)) + b2
        )
        return val, None, ""

    builders = {
        "c_L_n": printed_c_L_n,
        "c_L_a": printed_c_L_a,
        "c_H_n": printed_c_H_n,
        "c_H_a": printed_c_H_a,
        "c_soc_exp": printed_c_soc_exp,
    }

    rows = []
    for quantity, build in builders.items():
        printed, forced_status, note = build()
        if printed is None:
            rows.append(
                CrosscheckRow(
                    quantity=quantity,
                    regime=regime,
                    printed=None,
                    computed=float(computed[quantity]),
                    deviation=None,
                    status="excluded",
                    note=note,
                )
            )
            continue
        deviation = abs(printed - computed[quantity])
        status = forced_status or (
            "match" if deviation <= _MATCH_TOL else "deviates"
        )
        rows.append(
            CrosscheckRow(
                quantity=quantity,
                regime=regime,
                printed=float(printed),
                computed=float(computed[quantity]),
                deviation=float(deviation),
                status=status,
                note=note,
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

    Array-valued environment fields give arrays of their common shape, with
    NaN at the points where a population is empty.
    """
    profile = solve_bwe(params, env)
    lam = env.frac_informed
    p = env.p_incident
    c_l_n, c_l_a, c_h_n, c_h_a = _population_state_costs(params, env, profile)
    soc_n, soc_a, soc_exp = _social_state_costs(env, c_l_n, c_l_a, c_h_n, c_h_a)

    def masked(c_n, c_a, empty):
        c_exp = (1 - p) * c_n + p * c_a
        return [np.where(empty, np.nan, c) for c in (c_n, c_a, c_exp)]

    c_l_n, c_l_a, c_l_exp = masked(c_l_n, c_l_a, lam == 1)
    c_h_n, c_h_a, c_h_exp = masked(c_h_n, c_h_a, lam == 0)
    base_n, base_a, base_exp = baseline_costs(params, env)
    opt = social_optimum(params, env)
    return CostReport(
        *_as_results(
            c_l_n, c_l_a, c_h_n, c_h_a, c_l_exp, c_h_exp,
            soc_n, soc_a, soc_exp,
            base_n, base_a, base_exp,
            opt.cost_normal, opt.cost_incident, opt.cost_exp,
        )
    )
