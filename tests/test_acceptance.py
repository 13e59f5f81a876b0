"""Acceptance suite: the numerical contracts the package promises, end to end.

Everything here drives public API only. The running example network (slopes
1/3/2, intercepts 19/21, demand 5) anchors the pinned values; randomized
sections draw fresh valid instances from fixed seeds so failures reproduce.
"""

import functools
from fractions import Fraction

import numpy as np
import pytest

from exact import EXPECTED_PATTERN
from routeinfo import (
    InfoEnvironment,
    NetworkParams,
    PlayerType,
    State,
    belief_conditional_ck,
    belief_marginal_ck,
    belief_uninformative,
    cost_report,
    enumerate_profiles,
    lambda_min,
    realized_population_state_cost,
    regime_boundaries,
    social_optimum,
    solve_bwe,
    solve_fixed_point,
    theorem2_grid,
    verify_theorem1,
    verify_theorem2,
    wardrop_residual,
)

PARAMS = NetworkParams(1.0, 3.0, 2.0, 19.0, 21.0, 5.0)


def _env(p=0.2, lam=0.5, eta_h=1.0):
    return InfoEnvironment(p_incident=p, frac_informed=lam, accuracy_high=eta_h)


@functools.lru_cache(maxsize=None)
def _verification(p):
    """Shared theorem-check grid and reports for one incident probability."""
    grid = theorem2_grid(PARAMS, _env(p=p), points_per_regime=501)
    t1 = verify_theorem1(PARAMS, grid)
    t2 = verify_theorem2(PARAMS, grid)
    return grid, t1, t2


# ---------------------------------------------------------------------------
# 1. Regime boundaries
# ---------------------------------------------------------------------------


def test_boundaries_match_pinned_values():
    lb1, lb2, lb3 = regime_boundaries(PARAMS, _env())
    assert abs(lb1 - 0.282353) < 1e-6
    assert abs(lb2 - 0.762353) < 1e-6
    assert abs(lb3 - 0.8) < 1e-6


def test_third_boundary_constant_in_p_under_perfect_signal():
    for p in np.linspace(0.1, 0.9, 9):
        _, _, lb3 = regime_boundaries(PARAMS, _env(p=float(p)))
        assert abs(lb3 - 0.8) <= 1e-12, f"p={p}: {lb3}"


# ---------------------------------------------------------------------------
# 2. Limiting penetrations
# ---------------------------------------------------------------------------


def test_vanishing_informed_fraction_recovers_pooled_split():
    profile = solve_bwe(PARAMS, _env(lam=1e-9))
    assert abs(profile.rho_L - 0.705882) <= 1e-4


def test_fully_informed_population_plays_per_state_equilibria():
    profile = solve_bwe(PARAMS, _env(lam=1.0))
    assert profile.l_population_empty
    assert abs(profile.rho_Hn - 0.8) <= 1e-9
    assert abs(profile.rho_Ha - 0.48) <= 1e-9


# ---------------------------------------------------------------------------
# 3. Closed form vs. fixed-point solver on a dense grid
# ---------------------------------------------------------------------------


def _dense_grid():
    """50 x 50 x 5 instances over (p, lambda, eta_h) as one environment."""
    p_grid = np.linspace(0.02, 0.98, 50)
    lam_grid = np.linspace(0.005, 0.995, 50)
    eta_grid = np.array([0.6, 0.7, 0.8, 0.9, 1.0])
    return InfoEnvironment(
        p_incident=p_grid[:, None, None],
        frac_informed=lam_grid[None, :, None],
        accuracy_high=eta_grid[None, None, :],
    )


def test_closed_form_agrees_with_fixed_point_on_dense_grid():
    env = _dense_grid()
    numeric = solve_fixed_point(PARAMS, env)

    closed = solve_bwe(PARAMS, env)

    for c, n in (
        (closed.rho_L, numeric.rho_L),
        (closed.rho_Hn, numeric.rho_Hn),
        (closed.rho_Ha, numeric.rho_Ha),
    ):
        worst = np.max(np.abs(c - n))
        assert worst <= 1e-6, f"closed form vs oracle deviate by {worst}"

    residual = wardrop_residual(PARAMS, env, closed)
    assert np.max(residual) <= 1e-9, f"closed-form residual {np.max(residual)}"


def test_pattern_table_agrees_with_closed_form_on_dense_grid():
    """One array call of the pattern table over every fifth p and lambda of
    the dense grid, 500 instances (the exact table solves one point at a
    time): every instance accepts a pattern, and every accepted split is
    the closed form's."""
    dense = _dense_grid()
    env = InfoEnvironment(
        p_incident=dense.p_incident[::5],
        frac_informed=dense.frac_informed[:, ::5],
        accuracy_high=dense.accuracy_high,
    )
    verdicts = enumerate_profiles(PARAMS, env)
    closed = solve_bwe(PARAMS, env)
    accepted = sum(v.is_equilibrium.astype(int) for v in verdicts)
    assert accepted.min() >= 1, f"{np.sum(accepted == 0)} instances accept no pattern"
    for v in verdicts:
        for name in ("rho_L", "rho_Hn", "rho_Ha"):
            got, want = getattr(v.profile, name), getattr(closed, name)
            worst = np.max(np.abs(got - want), where=v.is_equilibrium, initial=0.0)
            assert worst <= 1e-9, f"{v.pattern} {name} deviates by {worst}"


# ---------------------------------------------------------------------------
# 4. Cost orderings and the two verification routines
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [0.2, 0.6])
def test_informed_cost_ordering_by_state(p):
    """Informed beat uninformed strictly where they concentrate, tie where
    they split (a split equalizes the realized route costs in that state)."""
    for lam in np.linspace(0.01, 0.99, 50):
        env = _env(p=p, lam=float(lam))
        profile = solve_bwe(PARAMS, env)
        for state, rho_h in (
            (State.NORMAL, profile.rho_Hn),
            (State.INCIDENT, profile.rho_Ha),
        ):
            c_l = realized_population_state_cost(PARAMS, env, profile, "L", state)
            c_h = realized_population_state_cost(PARAMS, env, profile, "H", state)
            if 1e-8 < rho_h < 1 - 1e-8:
                assert abs(c_l - c_h) <= 1e-9, f"lam={lam} {state}: {c_l} vs {c_h}"
            else:
                assert c_l - c_h > 0, f"lam={lam} {state}: no strict gap"


@pytest.mark.parametrize("p", [0.2, 0.6])
def test_verification_routines_pass(p):
    _, t1, t2 = _verification(p)
    assert t1.passed, t1.failures
    assert t2.passed, t2.failures
    want_case = "decreasing" if p == 0.2 else "peaked"
    assert t2.regime_cases["R3"] == want_case
    if p == 0.6:
        assert t2.peak_lambda is not None
        assert abs(t2.peak_lambda - 22 / 30) <= 1e-9


# ---------------------------------------------------------------------------
# 5. Optimal information penetration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "p,pinned",
    [(0.2, 0.282353), (0.6, 0.733333)],
)
def test_optimal_penetration_value(p, pinned):
    assert abs(lambda_min(PARAMS, _env(p=p)) - pinned) <= 1e-6


@pytest.mark.parametrize("p", [0.2, 0.6])
def test_optimal_penetration_matches_social_cost_argmin(p):
    lams = np.linspace(0.002, 0.998, 499)
    soc = np.array(
        [cost_report(PARAMS, _env(p=p, lam=float(lam))).c_soc_exp for lam in lams]
    )
    # Earliest grid point achieving the minimum (the cost floor is a plateau
    # when the minimizer is a regime boundary, so break float-dust ties left).
    at_floor = np.flatnonzero(soc <= soc.min() + 1e-9)
    argmin_lam = lams[at_floor[0]]
    step = lams[1] - lams[0]
    assert abs(argmin_lam - lambda_min(PARAMS, _env(p=p))) <= step + 1e-9


# ---------------------------------------------------------------------------
# 6. Social optimum three ways
# ---------------------------------------------------------------------------


def test_social_optimum_loads_three_ways():
    sol = social_optimum(PARAMS, _env())
    assert abs(sol.loads_normal[0] - 3.666667) <= 1e-6
    assert abs(sol.loads_incident[0] - 2.2) <= 1e-6

    # First-order condition: equal marginal costs 2 a_i q_i + b_i on both routes.
    a2, b1, b2 = PARAMS.slope2, PARAMS.intercept1, PARAMS.intercept2
    for a1, (q1, q2) in (
        (PARAMS.slope1_normal, sol.loads_normal),
        (PARAMS.slope1_incident, sol.loads_incident),
    ):
        assert abs((2 * a1 * q1 + b1) - (2 * a2 * q2 + b2)) <= 1e-12

    # The same network in exact rationals gives the loads exactly.
    exact = social_optimum(NetworkParams(*map(Fraction, (1, 3, 2, 19, 21, 5))), _env())
    assert exact.loads_normal == (Fraction(11, 3), Fraction(4, 3))
    assert exact.loads_incident == (Fraction(11, 5), Fraction(14, 5))


def test_equilibrium_never_beats_social_optimum():
    for lam in np.linspace(0.0, 1.0, 21):
        report = cost_report(PARAMS, _env(lam=float(lam)))
        ratio = report.c_soc_exp / report.socopt_exp
        assert ratio >= 1.0 - 1e-12, f"lam={lam}: ratio {ratio}"


# ---------------------------------------------------------------------------
# 7. Belief normalization and reduction on random environments
# ---------------------------------------------------------------------------


def test_belief_tables_normalize_and_reduce_on_random_environments():
    rng = np.random.default_rng(0)
    ck_owners = (PlayerType.LN, PlayerType.LA, PlayerType.HN, PlayerType.HA)
    for trial in range(1000):
        coin_flip_low = trial % 2 == 0
        eta_h = rng.uniform(0.501, 1.0)
        env = InfoEnvironment(
            p_incident=rng.uniform(0.01, 0.99),
            frac_informed=rng.uniform(0.0, 1.0),
            accuracy_high=eta_h,
            accuracy_low=0.5 if coin_flip_low else rng.uniform(0.5, eta_h),
        )
        for build in (belief_conditional_ck, belief_marginal_ck):
            for owner in ck_owners:
                total = sum(build(env, owner).entries.values())
                assert abs(total - 1.0) <= 1e-12, f"{build.__name__}/{owner}"
        if not coin_flip_low:
            continue
        for owner in (PlayerType.L, PlayerType.HN, PlayerType.HA):
            total = sum(belief_uninformative(env, owner).entries.values())
            assert abs(total - 1.0) <= 1e-12

        # With a coin-flip low signal the common-knowledge marginal table
        # collapses entrywise to the uninformative one.
        plain_l = belief_uninformative(env, PlayerType.L).entries
        for owner in (PlayerType.LN, PlayerType.LA):
            reduced = belief_marginal_ck(env, owner).entries
            assert reduced.keys() == plain_l.keys()
            for key, prob in reduced.items():
                assert abs(prob - plain_l[key]) <= 1e-12
        for owner in (PlayerType.HN, PlayerType.HA):
            reduced = belief_marginal_ck(env, owner).entries
            plain_h = belief_uninformative(env, owner).entries
            for (state, _), want in plain_h.items():
                got = sum(
                    prob for (s, _), prob in reduced.items() if s == state
                )
                assert abs(got - want) <= 1e-12


# ---------------------------------------------------------------------------
# 8. Qualitative pattern table on random instances
# ---------------------------------------------------------------------------

ALL_INTERIOR = ("int", "int", "int")


def test_pattern_table_on_random_instances():
    rng = np.random.default_rng(1)
    for trial in range(100):
        slope1_normal = rng.uniform(0.5, 2.0)
        slope2 = slope1_normal + rng.uniform(0.0, 1.5)
        slope1_incident = slope2 + rng.uniform(0.1, 3.0)
        intercept1 = rng.uniform(0.0, 25.0)
        intercept2 = intercept1 + rng.uniform(0.0, 4.0)
        demand = (intercept2 - intercept1) / slope1_normal + rng.uniform(0.5, 8.0)
        params = NetworkParams(
            slope1_normal, slope1_incident, slope2, intercept1, intercept2, demand
        )
        env = _env(p=rng.uniform(0.05, 0.95), eta_h=rng.uniform(0.6, 1.0))

        lb1, lb2, lb3 = regime_boundaries(params, env)
        segments = [
            ("R1", 0.0, lb1), ("R2", lb1, lb2), ("R3", lb2, lb3), ("R4", lb3, 1.0),
        ]
        eligible = [s for s in segments if s[2] - s[1] >= 1e-3]
        label, lo, hi = eligible[trial % len(eligible)]
        env = InfoEnvironment(
            p_incident=env.p_incident,
            frac_informed=(lo + hi) / 2,
            accuracy_high=env.accuracy_high,
        )

        verdicts = enumerate_profiles(params, env)
        marked = [v for v in verdicts if v.is_equilibrium]
        assert len(marked) == 1, f"trial {trial}: {[v.pattern for v in marked]}"
        assert marked[0].pattern == EXPECTED_PATTERN[label], f"trial {trial}"

        interior = next(v for v in verdicts if v.pattern == ALL_INTERIOR)
        assert not interior.is_equilibrium

        closed = solve_bwe(params, env)
        found = marked[0].profile
        assert abs(found.rho_L - closed.rho_L) <= 1e-9
        assert abs(found.rho_Hn - closed.rho_Hn) <= 1e-9
        assert abs(found.rho_Ha - closed.rho_Ha) <= 1e-9


# ---------------------------------------------------------------------------
# 9. Continuity across boundaries; flat stretches of social cost
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [0.2, 0.6])
def test_continuity_across_regime_boundaries(p):
    for lb in regime_boundaries(PARAMS, _env(p=p)):
        below_env = _env(p=p, lam=lb - 1e-9)
        above_env = _env(p=p, lam=lb + 1e-9)
        below = solve_bwe(PARAMS, below_env)
        above = solve_bwe(PARAMS, above_env)
        for lo, hi in (
            (below.rho_L, above.rho_L),
            (below.rho_Hn, above.rho_Hn),
            (below.rho_Ha, above.rho_Ha),
        ):
            assert abs(hi - lo) <= 1e-6, f"split jump at {lb}"
        soc_lo = cost_report(PARAMS, below_env).c_soc_exp
        soc_hi = cost_report(PARAMS, above_env).c_soc_exp
        assert abs(soc_hi - soc_lo) <= 1e-6, f"social-cost jump at {lb}"


@pytest.mark.parametrize("p", [0.2, 0.6])
def test_social_cost_flat_in_second_and_fourth_regimes(p):
    lb1, lb2, lb3 = regime_boundaries(PARAMS, _env(p=p))
    for lo, hi in ((lb1, lb2), (lb3, 1.0)):
        values = [
            cost_report(PARAMS, _env(p=p, lam=float(lam))).c_soc_exp
            for lam in np.linspace(lo + 1e-3, hi - 1e-3, 5)
        ]
        assert max(values) - min(values) <= 1e-9, f"not flat on ({lo}, {hi})"
