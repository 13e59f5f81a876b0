"""Equilibrium costs, baselines, the social optimum, and the closed-form audit."""

import itertools
import math
import sys
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from routeinfo import (
    InfoEnvironment,
    NetworkParams,
    PlayerType,
    State,
    StrategyProfile,
    ValidationError,
    belief_uninformative,
    classify,
    cost_report,
    derived_constants,
    expected_route_cost,
    latency,
    realized_population_state_cost,
    regime_boundaries,
    route_slope,
    social_optimum,
    solve_bwe,
    value_report,
)
import routeinfo.model
from strategies import rational_networks, rescaled_networks

PARAMS = NetworkParams(1.0, 3.0, 2.0, 19.0, 21.0, 5.0)


def _env(p=0.2, lam=0.5, eta_h=1.0):
    return InfoEnvironment(p_incident=p, frac_informed=lam, accuracy_high=eta_h)


# ---------------------------------------------------------------------------
# Baselines and pinned equilibrium costs
# ---------------------------------------------------------------------------


def _baseline(report):
    return report.baseline_n, report.baseline_a, report.baseline_exp


def test_baseline_costs_pinned():
    c_n, c_a, c_exp = _baseline(cost_report(PARAMS, _env()))
    assert abs(c_n - 6631 / 289) < 1e-12
    assert abs(c_a - 8071 / 289) < 1e-12
    assert abs(c_exp - 407 / 17) < 1e-12


def test_baseline_ignores_informed_fraction():
    a = _baseline(cost_report(PARAMS, _env(lam=0.5)))
    b = _baseline(cost_report(PARAMS, _env(lam=0.9)))
    assert a == b


def test_informed_incident_cost_constant_past_first_regime():
    """Once the incident-signal type splits, its incident cost pins at the
    equalized value 26.2 regardless of how large the informed share grows."""
    for lam in (0.5, 0.77, 0.9):
        env = _env(lam=lam)
        profile = solve_bwe(PARAMS, env)
        c = realized_population_state_cost(PARAMS, env, profile, "H", State.INCIDENT)
        assert abs(c - 26.2) < 1e-9, f"lambda={lam}: {c}"


def test_informed_normal_cost_in_final_regime():
    env = _env(lam=0.9)
    profile = solve_bwe(PARAMS, env)
    c = realized_population_state_cost(PARAMS, env, profile, "H", State.NORMAL)
    assert abs(c - 23.0) < 1e-9


def test_social_cost_plateau_in_second_regime():
    values = [cost_report(PARAMS, _env(lam=lam)).c_soc_exp for lam in (0.3, 0.5, 0.7)]
    assert abs(values[0] - 23.5967723183391) < 1e-9
    assert max(values) - min(values) < 1e-12, f"plateau broken: {values}"


# ---------------------------------------------------------------------------
# Definitional identities
# ---------------------------------------------------------------------------


def _state_cost_from_loads(params, env, profile, state):
    """Independent recomputation: average total cost over the informed
    population's signal realization, straight from route loads."""
    lam, d, eta = env.frac_informed, params.demand, env.accuracy_high
    signal_probs = (
        (profile.rho_Hn, 1 - eta if state == State.INCIDENT else eta),
        (profile.rho_Ha, eta if state == State.INCIDENT else 1 - eta),
    )
    total = 0.0
    for rho_h, prob in signal_probs:
        q1 = (1 - lam) * d * profile.rho_L + lam * d * rho_h
        q2 = d - q1
        cost = q1 * latency(params, 1, state, q1) + q2 * latency(params, 2, state, q2)
        total += prob * cost / d
    return total


@pytest.mark.parametrize("eta_h", [0.75, 1.0])
@pytest.mark.parametrize("p", [0.2, 0.6])
def test_social_cost_matches_load_accounting(p, eta_h):
    env = _env(p=p, lam=0.3, eta_h=eta_h)
    profile = solve_bwe(PARAMS, env)
    report = cost_report(PARAMS, env)
    c_n, c_a, c_exp = report.c_soc_n, report.c_soc_a, report.c_soc_exp
    want_n = _state_cost_from_loads(PARAMS, env, profile, State.NORMAL)
    want_a = _state_cost_from_loads(PARAMS, env, profile, State.INCIDENT)
    assert abs(c_n - want_n) < 1e-12
    assert abs(c_a - want_a) < 1e-12
    assert abs(c_exp - ((1 - p) * c_n + p * c_a)) < 1e-12


@pytest.mark.parametrize("lam", [0.1, 0.5, 0.77, 0.9])
def test_social_cost_is_population_mix(lam):
    env = _env(lam=lam)
    profile = solve_bwe(PARAMS, env)
    report = cost_report(PARAMS, env)
    for state in (State.NORMAL, State.INCIDENT):
        c_l = realized_population_state_cost(PARAMS, env, profile, "L", state)
        c_h = realized_population_state_cost(PARAMS, env, profile, "H", state)
        c_soc = getattr(report, f"c_soc_{state.value}")
        assert abs(c_soc - ((1 - lam) * c_l + lam * c_h)) < 1e-12


def test_exact_inputs_give_exact_population_costs():
    """Rational fields give each population's state costs as exact fractions."""
    params = NetworkParams(*map(Fraction, (1, 3, 2, 19, 21, 5)))
    env = InfoEnvironment(Fraction(1, 5), Fraction(1, 2), Fraction(1), Fraction(1, 2))
    profile = StrategyProfile(Fraction(1, 2), Fraction(1), Fraction(1, 3))
    want = {
        "L": [Fraction(185, 8), Fraction(625, 24)],
        "H": [Fraction(91, 4), Fraction(947, 36)],
    }
    for population, costs in want.items():
        got = [
            realized_population_state_cost(params, env, profile, population, state)
            for state in (State.NORMAL, State.INCIDENT)
        ]
        assert all(isinstance(c, Fraction) for c in got), got
        assert got == costs, population


_UNIT = st.floats(min_value=0.0, max_value=1.0)


@given(
    params=rescaled_networks(),
    p=st.floats(min_value=0.01, max_value=0.99),
    lam=st.floats(min_value=0.001, max_value=0.999),
    rho=st.tuples(_UNIT, _UNIT, _UNIT),
)
@settings(max_examples=200, deadline=None)
def test_realized_cost_of_a_certain_type_is_its_interim_cost(params, p, lam, rho):
    """At accuracy_high = 1 each informed type knows the state, so the informed
    population's realized cost in that state is the type's interim cost
    rho_t * E[c1 | t] + (1 - rho_t) * E[c2 | t]: Ha in the incident state, Hn
    in the normal one. The realized and interim paths meet at any profile."""
    env = _env(p=p, lam=lam)
    profile = StrategyProfile(*rho)
    tol = routeinfo.model._cost_tol(params)
    for t, state in ((PlayerType.HA, State.INCIDENT), (PlayerType.HN, State.NORMAL)):
        table = belief_uninformative(env, t)
        c1, c2 = (
            expected_route_cost(params, env, table, route, profile) for route in (1, 2)
        )
        interim = profile.split(t) * c1 + (1 - profile.split(t)) * c2
        realized = realized_population_state_cost(params, env, profile, "H", state)
        assert abs(realized - interim) <= tol, (t, realized, interim)


@pytest.mark.parametrize("lam", [Fraction(1, 10), Fraction(1, 2), Fraction(77, 100)])
def test_reports_accept_rational_fields(lam):
    """Fraction fields give the float network's report and branch statuses,
    and every cost and value is an exact fraction: the closed forms, the
    lambda = 0 baseline included, divide by zero in no branch they keep."""
    params = NetworkParams(*map(Fraction, (1, 3, 2, 19, 21, 5)))
    env = InfoEnvironment(Fraction(1, 5), lam, Fraction(1), Fraction(1, 2))
    float_env = _env(lam=float(lam))
    report = vars(cost_report(params, env))
    assert report == pytest.approx(vars(cost_report(PARAMS, float_env)), rel=1e-12)
    values = vars(value_report(params, env))
    for name, value in (*report.items(), *values.items()):
        assert isinstance(value, Fraction), (name, value)
    assert _statuses(params, env) == _statuses(PARAMS, float_env)


def test_expected_population_cost_weights_states():
    env = _env(lam=0.5)
    profile = solve_bwe(PARAMS, env)
    report = cost_report(PARAMS, env)
    for population in ("L", "H"):
        c_n, c_a = (
            realized_population_state_cost(PARAMS, env, profile, population, state)
            for state in (State.NORMAL, State.INCIDENT)
        )
        want = 0.8 * c_n + 0.2 * c_a
        assert abs(getattr(report, f"c_{population}_exp") - want) < 1e-12


# ---------------------------------------------------------------------------
# Informed-vs-uninformed orderings
# ---------------------------------------------------------------------------


def test_informed_never_pay_more_per_state():
    for p in (0.2, 0.6):
        for lam in np.linspace(0.02, 0.98, 25):
            env = _env(p=p, lam=float(lam))
            profile = solve_bwe(PARAMS, env)
            for state in (State.NORMAL, State.INCIDENT):
                c_l = realized_population_state_cost(PARAMS, env, profile, "L", state)
                c_h = realized_population_state_cost(PARAMS, env, profile, "H", state)
                assert c_l >= c_h - 1e-12, (
                    f"p={p}, lambda={lam}, state={state.value}: {c_l} < {c_h}"
                )


def test_costs_equalize_in_final_regime():
    for lam in (0.85, 0.9, 0.95):
        env = _env(lam=lam)
        profile = solve_bwe(PARAMS, env)
        for state in (State.NORMAL, State.INCIDENT):
            c_l = realized_population_state_cost(PARAMS, env, profile, "L", state)
            c_h = realized_population_state_cost(PARAMS, env, profile, "H", state)
            assert abs(c_l - c_h) < 1e-9, f"lambda={lam}, state={state.value}"


# ---------------------------------------------------------------------------
# Social optimum
# ---------------------------------------------------------------------------


def test_social_optimum_pinned():
    opt = social_optimum(PARAMS, _env())
    assert abs(opt.loads_normal[0] - 11 / 3) < 1e-9
    assert abs(opt.loads_normal[1] - 4 / 3) < 1e-9
    assert abs(opt.loads_incident[0] - 2.2) < 1e-9
    assert abs(opt.loads_incident[1] - 2.8) < 1e-9
    assert abs(opt.loads_normal[0] / PARAMS.demand - 11 / 15) < 1e-9
    assert abs(opt.cost_normal - 344 / 15) < 1e-9
    assert abs(opt.cost_incident - 26.16) < 1e-9
    assert abs(opt.cost_exp - (0.8 * 344 / 15 + 0.2 * 26.16)) < 1e-12


def test_social_optimum_at_a_large_intercept_to_slope_ratio():
    # Intercepts ~1e5 times the slopes: an iterative optimizer stopping on
    # an absolute step fails here; the closed form needs no iteration.
    params = NetworkParams(0.0093, 0.0497, 0.0446, 955.41, 956.46, 725.2)
    opt = social_optimum(params, _env())
    q1, q2 = opt.loads_normal
    assert q1 == pytest.approx(609.8130, abs=1e-4)
    gap = (2 * params.slope1_normal * q1 + params.intercept1) - (
        2 * params.slope2 * q2 + params.intercept2
    )
    assert abs(gap) <= 1e-12 * params.intercept2


@given(params=rescaled_networks())
@settings(max_examples=200, deadline=None)
def test_social_optimum_equalizes_marginal_costs(params):
    opt = social_optimum(params, _env())
    d, a2 = params.demand, params.slope2
    b1, b2 = params.intercept1, params.intercept2
    scale = b2 + 2 * max(params.slope1_incident, a2) * d
    for state, a1, (q1, q2) in (
        (State.NORMAL, params.slope1_normal, opt.loads_normal),
        (State.INCIDENT, params.slope1_incident, opt.loads_incident),
    ):
        gap = (2 * a1 * q1 + b1) - (2 * a2 * q2 + b2)
        assert abs(gap) <= 1e-12 * scale, f"{state.value}: marginal cost gap {gap}"


def _state_total(params, state, q1):
    """Total travel cost in ``state`` with ``q1`` of the demand on route 1,
    from the latencies alone."""
    q2 = params.demand - q1
    return q1 * latency(params, 1, state, q1) + q2 * latency(params, 2, state, q2)


@given(params=rational_networks())
@settings(max_examples=100, deadline=None)
def test_social_optimum_is_exact_on_rational_networks(params):
    """With ``Fraction`` fields each state's optimal loads are exact: they
    meet the equal-marginal-cost condition (Beckmann, McGuire & Winsten
    1956) with ``==``, split the demand strictly, and every feasible load
    near them, or a third of a unit away, costs strictly more."""
    d, a2 = params.demand, params.slope2
    b1, b2 = params.intercept1, params.intercept2
    opt = social_optimum(params, _env())
    for state, (q1, q2) in (
        (State.NORMAL, opt.loads_normal),
        (State.INCIDENT, opt.loads_incident),
    ):
        assert isinstance(q1, Fraction) and isinstance(q2, Fraction), (q1, q2)
        assert 2 * route_slope(params, 1, state) * q1 + b1 == 2 * a2 * q2 + b2
        assert q1 + q2 == d
        assert 0 < q1 < d
        least = _state_total(params, state, q1)
        for delta in (Fraction(1, 10**6), Fraction(1, 3)):
            for moved in (q1 - delta, q1 + delta):
                if 0 <= moved <= d:
                    assert _state_total(params, state, moved) > least, (state, moved)


@given(params=rescaled_networks(), frac=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=300, deadline=None)
def test_no_feasible_split_beats_the_optimum(params, frac):
    opt = social_optimum(params, _env())
    d = params.demand
    tol = routeinfo.model._cost_tol(params)
    for state, cost in ((State.NORMAL, opt.cost_normal), (State.INCIDENT, opt.cost_incident)):
        assert _state_total(params, state, frac * d) / d >= cost - tol, state.value


# ---------------------------------------------------------------------------
# The paper's printed closed forms, audited
# ---------------------------------------------------------------------------

#: The cost quantities the paper prints a closed form of, per regime.
QUANTITIES = ("c_L_n", "c_L_a", "c_H_n", "c_H_a", "c_soc_exp")

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


def _printed_branches(params, env):
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


def _statuses(params, env):
    """Each quantity's printed branch in the regime of ``env``: "excluded"
    (``_EXCLUDED``), "match" (within ``model._cost_tol`` of ``cost_report``
    and not in ``_DEVIATES``) or "deviates". Both populations must be
    present and accuracy_high = 1."""
    regime = classify(params, env).label
    report, branches = cost_report(params, env), _printed_branches(params, env)
    tol = routeinfo.model._cost_tol(params)
    statuses = {}
    for quantity in QUANTITIES:
        key = (quantity, regime)
        if key in _EXCLUDED:
            statuses[quantity] = "excluded"
        elif key not in _DEVIATES and abs(branches[key] - getattr(report, quantity)) <= tol:
            statuses[quantity] = "match"
        else:
            statuses[quantity] = "deviates"
    return statuses


def _slope_shortfall(params, env):
    """What the printed R3 expected social cost misses by: its incident term
    reads slope1_normal where slope1_incident belongs."""
    slopes = params.slope1_incident - params.slope1_normal
    return env.p_incident * slopes * derived_constants(params, env).k2


def test_crosscheck_first_regime_exclusions():
    env = _env(lam=0.1)
    assert classify(PARAMS, env).label == "R1"
    assert _statuses(PARAMS, env) == {
        "c_L_n": "excluded", "c_L_a": "match", "c_H_n": "match",
        "c_H_a": "match", "c_soc_exp": "excluded",
    }


@pytest.mark.parametrize("lam", [0.5, 0.9])
def test_crosscheck_clean_regimes_all_match(lam):
    assert _statuses(PARAMS, _env(lam=lam)) == {q: "match" for q in QUANTITIES}


def test_crosscheck_third_regime_reports_slope_defect():
    env = _env(lam=0.77)
    assert _statuses(PARAMS, env) == {
        **{q: "match" for q in QUANTITIES}, "c_soc_exp": "deviates"
    }
    printed = _printed_branches(PARAMS, env)["c_soc_exp", "R3"]
    # Defect size is exactly p * (slope1_incident - slope1_normal) * K2.
    assert abs(cost_report(PARAMS, env).c_soc_exp - printed - 0.96) < 1e-9
    assert _slope_shortfall(PARAMS, env) == pytest.approx(0.96, abs=1e-12)


@pytest.mark.parametrize("scale", [1e-9, 1e-6, 1e-3, 1e3, 1e6, 1e9])
def test_crosscheck_statuses_do_not_depend_on_the_time_unit(scale):
    """Scaling every slope and intercept (a change of time unit) scales every
    cost, and leaves each branch's status as it is."""
    scaled = NetworkParams(
        1.0 * scale, 3.0 * scale, 2.0 * scale, 19.0 * scale, 21.0 * scale, 5.0
    )
    for p in (0.2, 0.395, 0.6):
        for lam in np.linspace(0.05, 0.95, 19).tolist():
            env = _env(p=p, lam=lam)
            assert _statuses(scaled, env) == _statuses(PARAMS, env), (p, lam)


@given(
    params=rescaled_networks(),
    p=st.floats(min_value=0.01, max_value=0.99),
    lam=st.floats(min_value=0.001, max_value=0.999),
)
@settings(max_examples=300, deadline=None)
def test_crosscheck_on_random_networks(params, p, lam):
    """Every evaluated branch matches first principles on any network, except
    the third-regime expected social cost, which misses by its slope defect
    p * (slope1_incident - slope1_normal) * K2, within the cost tolerance."""
    env = _env(p=p, lam=lam)
    regime = classify(params, env).label
    want = {q: "excluded" if (q, regime) in _EXCLUDED else "match" for q in QUANTITIES}
    if regime == "R3":
        want["c_soc_exp"] = "deviates"
        printed = _printed_branches(params, env)["c_soc_exp", "R3"]
        miss = cost_report(params, env).c_soc_exp - printed
        tol = routeinfo.model._cost_tol(params)
        assert abs(miss - _slope_shortfall(params, env)) <= tol, (miss, params, env)
    assert _statuses(params, env) == want


_HUNDREDTHS = st.integers(min_value=1, max_value=99).map(lambda n: Fraction(n, 100))
_THOUSANDTHS = st.integers(min_value=1, max_value=999).map(lambda n: Fraction(n, 1000))


def _regime_middles(params, env):
    """The thousandth nearest the middle of each regime's part of [0, 1],
    where it lies strictly inside (0, 1)."""
    edges = [0, *(min(max(b, 0), 1) for b in regime_boundaries(params, env)), 1]
    middles = {Fraction(round(500 * (a + b)), 1000) for a, b in zip(edges, edges[1:])}
    return {lam for lam in middles if 0 < lam < 1}


@given(params=rational_networks(), p=_HUNDREDTHS, lam=_THOUSANDTHS)
@settings(max_examples=100, deadline=None)
def test_printed_branches_are_exact_on_rational_networks(params, p, lam):
    """With ``Fraction`` fields every evaluated printed branch equals
    ``cost_report``'s value with ``==``, and the third-regime expected social
    cost misses it by exactly p * (slope1_incident - slope1_normal) * K2:
    the audit's verdicts hold without a tolerance. Each draw is checked at
    its own lambda and in the middle of each regime."""

    def env_at(lam):
        return InfoEnvironment(p, lam, Fraction(1), Fraction(1, 2))

    for env in map(env_at, sorted({lam, *_regime_middles(params, env_at(lam))})):
        regime = classify(params, env).label
        report, branches = cost_report(params, env), _printed_branches(params, env)
        for quantity in QUANTITIES:
            key = (quantity, regime)
            if key in _EXCLUDED:
                continue
            computed = getattr(report, quantity)
            assert isinstance(computed, Fraction), (key, computed)
            miss = _slope_shortfall(params, env) if key in _DEVIATES else 0
            assert computed - branches[key] == miss, (key, params, env)


def test_printed_branches_and_exclusions_cover_each_row_once():
    printed = set(_printed_branches(PARAMS, _env()))
    every = set(itertools.product(QUANTITIES, ("R1", "R2", "R3", "R4")))
    assert not printed & set(_EXCLUDED)
    assert printed | set(_EXCLUDED) == every
    assert set(_DEVIATES) <= printed


# ---------------------------------------------------------------------------
# Empty populations and the assembled report
# ---------------------------------------------------------------------------


def test_empty_population_errors():
    profile = solve_bwe(PARAMS, _env(lam=0.0))
    with pytest.raises(ValidationError) as exc:
        realized_population_state_cost(
            PARAMS, _env(lam=0.0), profile, "H", State.NORMAL
        )
    assert exc.value.code == "empty_population"
    profile = solve_bwe(PARAMS, _env(lam=1.0))
    with pytest.raises(ValidationError) as exc:
        realized_population_state_cost(
            PARAMS, _env(lam=1.0), profile, "L", State.INCIDENT
        )
    assert exc.value.code == "empty_population"


def test_realized_cost_names_a_population_outside_l_and_h():
    profile = solve_bwe(PARAMS, _env())
    with pytest.raises(ValueError, match="population must be 'L' or 'H', got 'X'"):
        realized_population_state_cost(PARAMS, _env(), profile, "X", State.NORMAL)


def test_cost_report_everyone_informed():
    report = cost_report(PARAMS, _env(lam=1.0))
    assert math.isnan(report.c_L_n)
    assert math.isnan(report.c_L_a)
    assert math.isnan(report.c_L_exp)
    assert abs(report.c_H_n - 23.0) < 1e-9
    assert abs(report.c_H_a - 26.2) < 1e-9
    assert abs(report.c_soc_exp - 23.64) < 1e-9


def test_cost_report_nobody_informed():
    report = cost_report(PARAMS, _env(lam=0.0))
    assert math.isnan(report.c_H_n)
    assert math.isnan(report.c_H_exp)
    assert abs(report.c_L_n - 6631 / 289) < 1e-12
    assert abs(report.c_soc_exp - report.baseline_exp) < 1e-12


def test_cost_report_consistent_with_parts():
    env = _env(lam=0.5)
    report = cost_report(PARAMS, env)
    profile = solve_bwe(PARAMS, env)
    assert report.c_H_a == pytest.approx(
        realized_population_state_cost(PARAMS, env, profile, "H", State.INCIDENT),
        abs=1e-12,
    )
    assert report.baseline_exp == pytest.approx(407 / 17, abs=1e-12)
    assert report.socopt_exp == pytest.approx(23.578666666666667, abs=1e-9)
    assert classify(PARAMS, env).label == "R2"


@pytest.mark.parametrize("report", [cost_report, value_report])
@pytest.mark.parametrize(
    "lam", [0.5, np.linspace(0.0, 1.0, 9)], ids=["scalar", "sweep_through_0_and_1"]
)
def test_reports_evaluate_each_population_state_cost_once(monkeypatch, report, lam):
    """Twenty latencies: a report derives each cost from one shared table.

    The two equilibrium states and the two baseline states take one latency
    per informed type and route each (4 x 4), which both populations' costs
    read, and the social optimum takes one per state and route (4). The
    counter replaces ``latency`` in every module that holds it, so a call
    through another module's import counts too. The report runs on a new
    copy of the network, on which nothing is kept; a second report on it
    reuses the kept baseline and optimum and takes only the equilibrium's 8.
    """
    calls = []
    latency_fn = routeinfo.model.latency

    def counted(*args):
        calls.append(args)
        return latency_fn(*args)

    for name, module in list(sys.modules.items()):
        holds = vars(module).get("latency") is latency_fn
        if name.startswith("routeinfo") and holds:
            monkeypatch.setattr(module, "latency", counted)
    params = NetworkParams(**vars(PARAMS))
    report(params, _env(lam=lam))
    assert len(calls) == 20
    report(params, _env(lam=lam))
    assert len(calls) == 28
