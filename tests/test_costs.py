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
    OracleConfig,
    PlayerType,
    State,
    StrategyProfile,
    ValidationError,
    analytic_cost_crosscheck,
    belief_uninformative,
    brute_force_socopt,
    classify,
    cost_report,
    derived_constants,
    expected_route_cost,
    latency,
    realized_population_state_cost,
    social_optimum,
    solve_bwe,
    value_report,
)
import routeinfo.model
from routeinfo.costs import _DEVIATES, _EXCLUDED, _printed_branches
from strategies import rescaled_networks

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
    """Fraction fields give the float network's report and crosscheck rows:
    the closed-form splits are floats, and solving the lambda = 0 baseline
    divides by zero only in branches it discards."""
    params = NetworkParams(*map(Fraction, (1, 3, 2, 19, 21, 5)))
    env = InfoEnvironment(Fraction(1, 5), lam, Fraction(1), Fraction(1, 2))
    float_env = _env(lam=float(lam))
    assert vars(cost_report(params, env)) == pytest.approx(
        vars(cost_report(PARAMS, float_env)), rel=1e-12
    )
    rows = analytic_cost_crosscheck(params, env)
    assert _statuses(rows) == _statuses(analytic_cost_crosscheck(PARAMS, float_env))


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
    assert abs(opt.rho_normal - 11 / 15) < 1e-9
    assert abs(opt.cost_normal - 344 / 15) < 1e-9
    assert abs(opt.cost_incident - 26.16) < 1e-9
    assert abs(opt.cost_exp - (0.8 * 344 / 15 + 0.2 * 26.16)) < 1e-12


def test_social_optimum_at_a_large_intercept_to_slope_ratio():
    # Intercepts ~1e5 times the slopes: an iterative optimizer stopping on
    # an absolute step fails here; the closed form needs no iteration.
    params = NetworkParams(0.0093, 0.0497, 0.0446, 955.41, 956.46, 725.2)
    opt = social_optimum(params, _env())
    assert opt.loads_normal[0] == pytest.approx(609.8130, abs=1e-4)
    config = OracleConfig()
    scanned = brute_force_socopt(params, State.NORMAL, config)
    cell = params.demand / (config.grid_resolution - 1)
    assert abs(scanned[0] - opt.loads_normal[0]) <= cell


@given(params=rescaled_networks())
@settings(max_examples=200, deadline=None)
def test_social_optimum_equalizes_marginal_costs(params):
    opt = social_optimum(params, _env())
    d, a2 = params.demand, params.slope2
    b1, b2 = params.intercept1, params.intercept2
    scale = b2 + 2 * max(params.slope1_incident, a2) * d
    config = OracleConfig()
    cell = d / (config.grid_resolution - 1)
    for state, a1, (q1, q2) in (
        (State.NORMAL, params.slope1_normal, opt.loads_normal),
        (State.INCIDENT, params.slope1_incident, opt.loads_incident),
    ):
        gap = (2 * a1 * q1 + b1) - (2 * a2 * q2 + b2)
        assert abs(gap) <= 1e-12 * scale, f"{state.value}: marginal cost gap {gap}"
        scanned = brute_force_socopt(params, state, config)
        assert abs(scanned[0] - q1) <= cell, f"{state.value}: scan {scanned} vs {q1}"


@given(frac=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=300)
def test_no_feasible_split_beats_the_optimum(frac):
    d = PARAMS.demand
    q1 = frac * d
    cost = q1 * latency(PARAMS, 1, State.NORMAL, q1) + (d - q1) * latency(
        PARAMS, 2, State.NORMAL, d - q1
    )
    opt = social_optimum(PARAMS, _env())
    assert cost / d >= opt.cost_normal - 1e-9


# ---------------------------------------------------------------------------
# Closed-form audit rows
# ---------------------------------------------------------------------------


def _statuses(rows):
    return {row.quantity: row.status for row in rows}


def test_crosscheck_first_regime_exclusions():
    rows = analytic_cost_crosscheck(PARAMS, _env(lam=0.1))
    assert all(row.regime == "R1" for row in rows)
    statuses = _statuses(rows)
    assert statuses["c_L_n"] == "excluded"
    assert statuses["c_soc_exp"] == "excluded"
    assert statuses["c_L_a"] == "match"
    assert statuses["c_H_n"] == "match"
    assert statuses["c_H_a"] == "match"
    by_name = {row.quantity: row for row in rows}
    assert by_name["c_L_n"].note.startswith("undefined_symbol")
    assert by_name["c_L_n"].printed is None
    assert by_name["c_soc_exp"].note.startswith("garbled_expression")


@pytest.mark.parametrize("lam", [0.5, 0.9])
def test_crosscheck_clean_regimes_all_match(lam):
    rows = analytic_cost_crosscheck(PARAMS, _env(lam=lam))
    assert _statuses(rows) == {q: "match" for q in _statuses(rows)}
    for row in rows:
        assert row.deviation <= 1e-9


def test_crosscheck_third_regime_reports_slope_defect():
    rows = analytic_cost_crosscheck(PARAMS, _env(lam=0.77))
    statuses = _statuses(rows)
    assert statuses["c_soc_exp"] == "deviates"
    assert all(
        status == "match" for q, status in statuses.items() if q != "c_soc_exp"
    )
    row = next(r for r in rows if r.quantity == "c_soc_exp")
    # Defect size is exactly p * (slope1_incident - slope1_normal) * K2.
    assert abs(row.deviation - 0.96) < 1e-9
    assert "slope" in row.note


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
            assert _statuses(analytic_cost_crosscheck(scaled, env)) == _statuses(
                analytic_cost_crosscheck(PARAMS, env)
            ), (p, lam)


@given(
    params=rescaled_networks(),
    p=st.floats(min_value=0.01, max_value=0.99),
    lam=st.floats(min_value=0.001, max_value=0.999),
)
@settings(max_examples=300, deadline=None)
def test_crosscheck_on_random_networks(params, p, lam):
    """Every evaluated branch matches first principles on any network, except
    the third-regime expected social cost, which misses by exactly its slope
    defect p * (slope1_incident - slope1_normal) * K2."""
    env = _env(p=p, lam=lam)
    tol = routeinfo.model._cost_tol(params)
    for row in analytic_cost_crosscheck(params, env):
        key = (row.quantity, row.regime)
        if key in (("c_L_n", "R1"), ("c_soc_exp", "R1")):
            assert row.status == "excluded", row
        elif key == ("c_soc_exp", "R3"):
            assert row.status == "deviates", row
            shortfall = (
                p
                * (params.slope1_incident - params.slope1_normal)
                * derived_constants(params, env).k2
            )
            assert abs(row.deviation - shortfall) <= tol, row
        else:
            assert row.status == "match", row


def test_printed_branches_and_exclusions_cover_each_row_once():
    printed = set(_printed_branches(PARAMS, _env()))
    quantities = ("c_L_n", "c_L_a", "c_H_n", "c_H_a", "c_soc_exp")
    every = set(itertools.product(quantities, ("R1", "R2", "R3", "R4")))
    assert not printed & set(_EXCLUDED)
    assert printed | set(_EXCLUDED) == every
    assert set(_DEVIATES) <= printed


def test_crosscheck_guards():
    """The crosscheck states its scope in the words of the value analysis
    and of the population-cost check."""
    with pytest.raises(ValidationError) as exc:
        analytic_cost_crosscheck(PARAMS, _env(eta_h=0.75))
    assert exc.value.code == "not_analyzed"
    assert "value analysis covers accuracy_high = 1 only, got 0.75" in str(exc.value)
    for lam, empty in ((0.0, "H"), (1.0, "L")):
        with pytest.raises(ValidationError) as exc:
            analytic_cost_crosscheck(PARAMS, _env(lam=lam))
        assert exc.value.code == "empty_population"
        assert f"population {empty} is empty" in str(exc.value)


def test_crosscheck_rejects_array_fields():
    """The branch is picked by one regime label, so a sweep is refused
    up front instead of failing inside numpy's truth-value test."""
    with pytest.raises(ValidationError) as exc:
        analytic_cost_crosscheck(PARAMS, _env(lam=np.array([0.1, 0.5])))
    assert exc.value.code == "scalar_only"
    assert "frac_informed" in str(exc.value)


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
    through another module's import counts too.
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
    report(PARAMS, _env(lam=lam))
    assert len(calls) == 20
