"""Interim belief tables: normalization, worked entries, and collapses."""

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
    belief_conditional_ck,
    belief_marginal_ck,
    belief_uninformative,
    expected_route_cost,
    marginal_type_dist,
    posterior_state,
)

PARAMS = NetworkParams(1.0, 3.0, 2.0, 19.0, 21.0, 5.0)

SIGNAL_TYPES = (PlayerType.LN, PlayerType.LA, PlayerType.HN, PlayerType.HA)


def _env(p=0.2, lam=0.5, eta_h=1.0, eta_l=0.5):
    return InfoEnvironment(
        p_incident=p, frac_informed=lam, accuracy_high=eta_h, accuracy_low=eta_l
    )


valid_envs = st.builds(
    _env,
    p=st.floats(min_value=0.02, max_value=0.98),
    lam=st.floats(min_value=0.0, max_value=1.0),
    eta_h=st.floats(min_value=0.55, max_value=1.0),
)


# ---------------------------------------------------------------------------
# Marginals and posteriors
# ---------------------------------------------------------------------------


def test_marginal_type_dist_worked_point():
    dist = marginal_type_dist(_env(eta_h=0.75, eta_l=0.6))
    assert abs(dist.p_Ha - 0.35) < 1e-12
    assert abs(dist.p_Hn - 0.65) < 1e-12
    assert abs(dist.p_La - 0.44) < 1e-12
    assert abs(dist.p_Ln - 0.56) < 1e-12


def test_posterior_state_worked_points():
    env = _env(eta_h=0.75, eta_l=0.6)
    assert abs(posterior_state(env, "H", State.INCIDENT) - 3 / 7) < 1e-12
    assert abs(posterior_state(env, "L", State.INCIDENT) - 3 / 11) < 1e-12


def test_posterior_state_coin_flip_returns_prior():
    env = _env(eta_h=1.0, eta_l=0.5)
    assert abs(posterior_state(env, "L", State.INCIDENT) - 0.2) < 1e-15
    assert abs(posterior_state(env, "L", State.NORMAL) - 0.2) < 1e-15


@given(valid_envs, st.sampled_from(["H", "L"]))
@settings(max_examples=300)
def test_posterior_brackets_prior(env, service):
    """An incident signal raises the incident posterior, a normal one lowers it."""
    p = env.p_incident
    assert posterior_state(env, service, State.INCIDENT) >= p - 1e-12
    assert posterior_state(env, service, State.NORMAL) <= p + 1e-12


# ---------------------------------------------------------------------------
# Worked table entries
# ---------------------------------------------------------------------------


def test_conditional_entry_worked_point():
    table = belief_conditional_ck(_env(eta_h=0.75, eta_l=0.6), PlayerType.LA)
    assert abs(table.entries[(State.INCIDENT, PlayerType.HA)] - 9 / 44) < 1e-12


def test_marginal_entry_worked_point():
    table = belief_marginal_ck(_env(eta_h=1.0, eta_l=0.5), PlayerType.HA)
    assert abs(table.entries[(State.INCIDENT, PlayerType.LA)] - 0.5) < 1e-12


def test_uninformative_l_table_is_independent_product():
    table = belief_uninformative(_env(eta_h=1.0), PlayerType.L)
    assert table.owner == PlayerType.L
    want = {
        (State.INCIDENT, PlayerType.HA): 0.04,
        (State.INCIDENT, PlayerType.HN): 0.16,
        (State.NORMAL, PlayerType.HA): 0.16,
        (State.NORMAL, PlayerType.HN): 0.64,
    }
    assert set(table.entries) == set(want)
    for key, prob in want.items():
        assert abs(table.entries[key] - prob) < 1e-12, f"entry {key}"


def test_uninformative_h_table_is_state_posterior():
    table = belief_uninformative(_env(eta_h=0.75), PlayerType.HA)
    assert abs(table.entries[(State.INCIDENT, PlayerType.L)] - 3 / 7) < 1e-12
    assert abs(table.entries[(State.NORMAL, PlayerType.L)] - 4 / 7) < 1e-12


# ---------------------------------------------------------------------------
# Owner and treatment guards
# ---------------------------------------------------------------------------


def test_uninformative_requires_coin_flip_accuracy():
    with pytest.raises(ValidationError) as exc:
        belief_uninformative(_env(eta_h=0.75, eta_l=0.6), PlayerType.L)
    assert exc.value.code == "unsupported_treatment"


def test_coin_flip_rule_names_the_first_offending_accuracy():
    """An array field is reported by its first bad element, not printed whole."""
    with pytest.raises(ValidationError) as exc:
        belief_uninformative(_env(eta_l=np.array([0.5, 0.6, 0.7])), PlayerType.L)
    assert exc.value.code == "unsupported_treatment"
    assert str(exc.value).endswith("got 0.6")


def test_invalid_environment_never_reaches_the_belief_layer():
    # Construction rejects it; the tables would otherwise hold p_Hn = -0.5.
    with pytest.raises(ValidationError) as exc:
        marginal_type_dist(
            InfoEnvironment(p_incident=1.5, frac_informed=0.5, accuracy_high=1.0)
        )
    assert exc.value.code == "probability_out_of_range"


def test_owner_rules_per_treatment():
    env = _env()
    with pytest.raises(ValueError):
        belief_conditional_ck(env, PlayerType.L)  # collapsed type has no signal
    with pytest.raises(ValueError):
        belief_marginal_ck(env, PlayerType.L)
    with pytest.raises(ValueError):
        belief_uninformative(env, PlayerType.LN)  # signal types collapse to L


# ---------------------------------------------------------------------------
# Normalization and collapses
# ---------------------------------------------------------------------------


@given(
    valid_envs,
    st.floats(min_value=0.0, max_value=0.49),
    st.sampled_from(SIGNAL_TYPES),
)
@settings(max_examples=300)
def test_tables_are_normalized(env, eta_l_frac, owner):
    env = _env(
        p=env.p_incident,
        lam=env.frac_informed,
        eta_h=env.accuracy_high,
        eta_l=0.5 + eta_l_frac * (env.accuracy_high - 0.5),
    )
    for build in (belief_conditional_ck, belief_marginal_ck):
        table = build(env, owner)
        total = sum(table.entries.values())
        assert abs(total - 1.0) < 1e-12, f"{build.__name__}/{owner}: sum {total}"
        assert all(v >= -1e-15 for v in table.entries.values())


@given(valid_envs)
@settings(max_examples=200)
def test_uninformative_tables_are_normalized(env):
    for owner in (PlayerType.L, PlayerType.HN, PlayerType.HA):
        table = belief_uninformative(env, owner)
        assert abs(sum(table.entries.values()) - 1.0) < 1e-12


@given(valid_envs, st.sampled_from((PlayerType.LN, PlayerType.LA)))
@settings(max_examples=200)
def test_marginal_l_table_collapses_at_coin_flip(env, owner):
    """With an uninformative own signal and only marginal knowledge of the
    informed side, an uninformed subscriber's belief is exactly the
    independent product table."""
    collapsed = belief_uninformative(env, PlayerType.L)
    table = belief_marginal_ck(env, owner)
    for key, prob in collapsed.entries.items():
        assert abs(table.entries[key] - prob) < 1e-12, f"entry {key}"


@given(valid_envs, st.sampled_from((PlayerType.HN, PlayerType.HA)))
@settings(max_examples=200)
def test_h_tables_collapse_at_coin_flip(env, owner):
    conditional = belief_conditional_ck(env, owner)
    marginal = belief_marginal_ck(env, owner)
    for key, prob in conditional.entries.items():
        assert abs(marginal.entries[key] - prob) < 1e-12, f"entry {key}"

    # Summing out the (uninformative) opponent signal recovers the collapsed table.
    collapsed = belief_uninformative(env, owner)
    for state in (State.NORMAL, State.INCIDENT):
        summed = sum(
            conditional.entries[(state, t)] for t in (PlayerType.LN, PlayerType.LA)
        )
        assert abs(summed - collapsed.entries[(state, PlayerType.L)]) < 1e-12


# ---------------------------------------------------------------------------
# Expected route costs
# ---------------------------------------------------------------------------


def test_expected_route_cost_equalized_at_uninformed_split():
    """With nobody informed, the split 12/17 equalizes both routes at 407/17."""
    env = _env(lam=0.0)
    profile = StrategyProfile(12 / 17, 1.0, 0.0)
    table = belief_uninformative(env, PlayerType.L)
    c1 = expected_route_cost(PARAMS, env, table, 1, profile)
    c2 = expected_route_cost(PARAMS, env, table, 2, profile)
    assert abs(c1 - 407 / 17) < 1e-12
    assert abs(c2 - 407 / 17) < 1e-12


def test_expected_route_cost_mixes_states():
    """An informed incident type pays the incident-slope latency on route 1."""
    env = _env(lam=0.5, eta_h=1.0)
    profile = StrategyProfile(0.0, 0.0, 1.0)  # only the Ha demand is on route 1
    table = belief_uninformative(env, PlayerType.HA)
    c1 = expected_route_cost(PARAMS, env, table, 1, profile)
    # Own load 2.5, opponent load 0; certain of the incident at eta_h = 1.
    assert abs(c1 - (3.0 * 2.5 + 19.0)) < 1e-12
