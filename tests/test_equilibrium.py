"""Regime boundaries, the closed-form equilibrium, and the pattern table."""

import itertools
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from routeinfo import (
    EQUILIBRIUM_TYPES,
    InfoEnvironment,
    NetworkParams,
    StrategyProfile,
    ValidationError,
    belief_uninformative,
    classify,
    enumerate_profiles,
    expected_route_cost,
    marginal_type_dist,
    regime_boundaries,
    solve_bwe,
    wardrop_residual,
)
from routeinfo.equilibrium import UTILIZED_SHARE_EPS, _type_gap
from strategies import rescaled_networks

PARAMS = NetworkParams(1.0, 3.0, 2.0, 19.0, 21.0, 5.0)

# Boundaries at p = 0.2 / 0.6, perfectly accurate service.
LB_02 = (24 / 85, 324 / 425, 4 / 5)
LB_06 = (0.22857142857142862, 0.7085714285714289, 4 / 5)


def _env(p=0.2, lam=0.5, eta_h=1.0):
    return InfoEnvironment(p_incident=p, frac_informed=lam, accuracy_high=eta_h)


# ---------------------------------------------------------------------------
# Boundaries and classification
# ---------------------------------------------------------------------------


def test_boundaries_pinned_values():
    for p, want in ((0.2, LB_02), (0.6, LB_06)):
        got = regime_boundaries(PARAMS, _env(p=p))
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-12, f"p={p}: {got} vs {want}"


@pytest.mark.parametrize(
    "lam,label",
    [
        (0.0, "R1"),
        (0.1, "R1"),
        (24 / 85 - 1e-6, "R1"),
        (24 / 85, "R2"),  # closed left end of the second regime
        (24 / 85 - 1e-13, "R2"),  # boundary tie resolves to the closed side
        (0.5, "R2"),
        (324 / 425, "R2"),  # closed right end
        (324 / 425 + 1e-13, "R2"),
        (324 / 425 + 1e-6, "R3"),
        (0.77, "R3"),
        (0.8 - 1e-6, "R3"),
        (0.8 - 1e-13, "R4"),  # tie at the third boundary goes to the closed side
        (0.8, "R4"),
        (0.9, "R4"),
        (1.0, "R4"),
    ],
)
def test_classify_membership(lam, label):
    regime = classify(PARAMS, _env(lam=lam))
    assert regime.label == label, f"lambda={lam!r}"
    assert regime.bounds == regime_boundaries(PARAMS, _env(lam=lam))


@pytest.mark.parametrize(
    "lam", [0.0, -0.0, np.array([0.0, 0.5])], ids=["zero", "negative_zero", "array"]
)
def test_lambda_zero_is_the_first_regime_next_to_a_vanishing_boundary(lam):
    # lambda_bar_1 is 5.3e-13 here, within BOUNDARY_TOL of 0, so the tie
    # rule alone would put lambda = 0 in the second regime, where no closed
    # form is defined.
    env = _env(lam=lam, eta_h=0.500000000001)
    assert regime_boundaries(PARAMS, env)[0] < 1e-12
    label = np.ravel(classify(PARAMS, env).label)
    assert label[0] == "R1"
    rho_l = np.ravel(solve_bwe(PARAMS, env).rho_L)[0]
    assert rho_l == pytest.approx(12 / 17, abs=1e-12)


def test_rejects_informative_low_accuracy_signal():
    env = InfoEnvironment(0.2, 0.5, accuracy_high=1.0, accuracy_low=0.6)
    for op in (regime_boundaries, classify, solve_bwe):
        with pytest.raises(ValidationError) as exc:
            op(PARAMS, env)
        assert exc.value.code == "unsupported_treatment"


# ---------------------------------------------------------------------------
# Closed-form profiles
# ---------------------------------------------------------------------------


def test_solve_bwe_pinned_profiles():
    cases = {
        0.1: (0.695424836601307, 1.0, 0.0),
        0.5: (0.5247058823529409, 1.0, 0.4352941176470593),
        0.77: (0.0, 1.0, 2.4 / 3.85),
        0.9: (0.0, 4 / 4.5, 2.4 / 4.5),
    }
    for lam, want in cases.items():
        got = solve_bwe(PARAMS, _env(lam=lam))
        for g, w in zip((got.rho_L, got.rho_Hn, got.rho_Ha), want):
            assert abs(g - w) < 1e-12, f"lambda={lam}: {got} vs {want}"
        assert not got.l_population_empty


def test_solve_bwe_everyone_informed():
    got = solve_bwe(PARAMS, _env(lam=1.0))
    assert got.l_population_empty
    assert got.rho_L == 0.0
    assert abs(got.rho_Hn - 0.8) < 1e-12
    assert abs(got.rho_Ha - 0.48) < 1e-12


def test_solve_bwe_nobody_informed():
    got = solve_bwe(PARAMS, _env(lam=0.0))
    assert abs(got.rho_L - 12 / 17) < 1e-12
    assert (got.rho_Hn, got.rho_Ha) == (1.0, 0.0)
    assert not got.l_population_empty


def test_closed_form_satisfies_equilibrium_definition():
    for lam in (0.0, 0.1, 24 / 85, 0.5, 324 / 425, 0.77, 0.8, 0.9, 1.0):
        for p in (0.2, 0.6):
            env = _env(p=p, lam=lam)
            residual = wardrop_residual(PARAMS, env, solve_bwe(PARAMS, env))
            assert residual <= 1e-9, f"p={p}, lambda={lam}: residual {residual}"


def test_residual_flags_a_wrong_profile():
    env = _env(lam=0.5)
    residual = wardrop_residual(PARAMS, env, StrategyProfile(1.0, 1.0, 1.0))
    assert residual > 1.0, f"everyone on route 1 should violate badly, got {residual}"


def test_exact_inputs_give_exact_gaps():
    """Rational fields flow through beliefs and route costs without rounding."""
    params = NetworkParams(*map(Fraction, (1, 3, 2, 19, 21, 5)))
    env = InfoEnvironment(Fraction(1, 5), Fraction(1, 2), Fraction(1), Fraction(1, 2))
    origin = StrategyProfile(Fraction(0), Fraction(0), Fraction(0))
    for t in EQUILIBRIUM_TYPES:
        gap = _type_gap(params, env, belief_uninformative(env, t), origin)
        assert isinstance(gap, Fraction), f"{t}: {gap!r}"
        assert gap == -12, f"{t}: {gap!r}"


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
def test_residual_is_the_definition(lam):
    """Per positive-mass type, the excess of each utilized route's expected
    cost over the cheaper route; shares within UTILIZED_SHARE_EPS of a corner
    leave the other route unutilized."""
    eps = UTILIZED_SHARE_EPS
    splits = (0.0, eps / 2, 2 * eps, 0.3, 0.77, 1 - 2 * eps, 1 - eps / 2, 1.0)
    rho = np.array(list(itertools.product(splits, repeat=3))).T
    profile = StrategyProfile(*rho)
    env = _env(p=0.6, lam=lam, eta_h=0.8)
    dist = marginal_type_dist(env)
    masses = (1 - lam, lam * dist.p_Hn, lam * dist.p_Ha)
    want = np.zeros(rho.shape[1])
    for t, rho_t, mass in zip(EQUILIBRIUM_TYPES, rho, masses):
        table = belief_uninformative(env, t)
        c1 = expected_route_cost(PARAMS, env, table, 1, profile)
        c2 = expected_route_cost(PARAMS, env, table, 2, profile)
        cheapest = np.minimum(c1, c2)
        gap1 = np.where(rho_t > eps, c1 - cheapest, 0.0)
        gap2 = np.where(1 - rho_t > eps, c2 - cheapest, 0.0)
        if mass > 0:
            want = np.maximum(want, np.maximum(gap1, gap2))
    got = wardrop_residual(PARAMS, env, profile)
    assert np.all(got == want)


def test_profiles_continuous_across_boundaries():
    for p in (0.2, 0.6):
        for lb in regime_boundaries(PARAMS, _env(p=p)):
            below = solve_bwe(PARAMS, _env(p=p, lam=lb - 1e-9))
            above = solve_bwe(PARAMS, _env(p=p, lam=lb + 1e-9))
            for lo, hi in zip(
                (below.rho_L, below.rho_Hn, below.rho_Ha),
                (above.rho_L, above.rho_Hn, above.rho_Ha),
            ):
                assert abs(hi - lo) < 1e-6, f"jump at {lb} (p={p}): {lo} vs {hi}"


@given(
    p=st.floats(min_value=0.02, max_value=0.98),
    lam=st.floats(min_value=0.0, max_value=1.0),
    eta=st.floats(min_value=0.55, max_value=1.0),
)
@settings(max_examples=200, deadline=None)
def test_solve_bwe_properties(p, lam, eta):
    env = _env(p=p, lam=lam, eta_h=eta)
    lb1, lb2, lb3 = regime_boundaries(PARAMS, env)
    assert 0.0 < lb1 and lb3 < 1.0, f"boundary escapes (0, 1): {(lb1, lb3)}"
    assert lb1 <= lb2 + 1e-12 and lb2 <= lb3 + 1e-12, f"bad ordering {(lb1, lb2, lb3)}"
    profile = solve_bwe(PARAMS, env)
    for rho in (profile.rho_L, profile.rho_Hn, profile.rho_Ha):
        assert 0.0 <= rho <= 1.0
    residual = wardrop_residual(PARAMS, env, profile)
    assert residual <= 1e-9, f"(p, lam, eta)={(p, lam, eta)}: residual {residual}"


def _route1_loads(params, env, profile):
    """Expected route-1 load in the normal and the incident state."""
    lam, d, eta = env.frac_informed, params.demand, env.accuracy_high
    uninformed = (1 - lam) * d * profile.rho_L
    return [
        uninformed + lam * d * ((1 - p_ha) * profile.rho_Hn + p_ha * profile.rho_Ha)
        for p_ha in (1 - eta, eta)
    ]


@given(
    params=rescaled_networks(),
    p=st.floats(min_value=0.02, max_value=0.98),
    lam=st.floats(min_value=0.0, max_value=1.0),
    eta=st.floats(min_value=0.55, max_value=1.0),
)
@settings(max_examples=200, deadline=None)
# Cost scale 0.00266 minutes: an absolute 1e-9 gap bound in the pattern table
# accepted ('int', 'int', '0'), whose loads differ from the closed form's.
@example(
    params=NetworkParams(0.01, 0.010625, 0.01, 0.0, 0.0, 0.25),
    p=0.0234375,
    lam=0.5,
    eta=0.625,
)
def test_closed_form_on_random_networks(params, p, lam, eta):
    """The closed form is an equilibrium in any units, and every pattern the
    enumeration accepts routes the same expected loads in each state."""
    env = _env(p=p, lam=lam, eta_h=eta)
    closed = solve_bwe(params, env)
    scale = params.intercept2 + params.slope1_incident * params.demand
    residual = wardrop_residual(params, env, closed)
    assert residual <= 1e-12 * scale, f"residual {residual}, cost scale {scale}"
    _assert_table_routes_the_closed_form(params, env, closed)


def _assert_table_routes_the_closed_form(params, env, closed):
    """At least one pattern is accepted, and each accepted one routes the
    closed form's expected route-1 load in each state."""
    want = _route1_loads(params, env, closed)
    accepted = [v for v in enumerate_profiles(params, env) if v.is_equilibrium]
    assert accepted, "the pattern table accepts no pattern"
    for verdict in accepted:
        got = _route1_loads(params, env, verdict.profile)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-9 * params.demand, (verdict.pattern, got, want)


@pytest.mark.parametrize("offset", [-1e-9, -1e-10, 0.0, 1e-10, 1e-9])
@pytest.mark.parametrize("boundary", [0, 1, 2])
def test_pattern_table_next_to_each_boundary(boundary, offset):
    """Next to a regime boundary an interior split sits next to 0 or 1; the
    table still accepts the pattern that routes the closed form's loads
    (exactly on a boundary, both neighbouring patterns may)."""
    lam = regime_boundaries(PARAMS, _env())[boundary] + offset
    env = _env(lam=lam)
    _assert_table_routes_the_closed_form(PARAMS, env, solve_bwe(PARAMS, env))


# ---------------------------------------------------------------------------
# Pattern enumeration
# ---------------------------------------------------------------------------

EXPECTED_PATTERN = {
    "R1": ("int", "1", "0"),
    "R2": ("int", "1", "int"),
    "R3": ("0", "1", "int"),
    "R4": ("0", "int", "int"),
}


@pytest.mark.parametrize("lam", [0.1, 0.5, 0.77, 0.9])
def test_enumerate_profiles_marks_exactly_the_closed_form(lam):
    env = _env(lam=lam)
    label = classify(PARAMS, env).label
    verdicts = enumerate_profiles(PARAMS, env)
    assert len(verdicts) == 27

    marked = [v for v in verdicts if v.is_equilibrium]
    assert [v.pattern for v in marked] == [EXPECTED_PATTERN[label]], (
        f"lambda={lam} ({label}): marked {[v.pattern for v in marked]}"
    )

    want = solve_bwe(PARAMS, env)
    got = marked[0].profile
    for g, w in zip(
        (got.rho_L, got.rho_Hn, got.rho_Ha), (want.rho_L, want.rho_Hn, want.rho_Ha)
    ):
        assert abs(g - w) < 1e-9


def test_all_interior_pattern_is_degenerate():
    """Each type's cost gap is a mix of the same two per-state gaps, so three
    equalization equations can never be independent."""
    for lam in (0.1, 0.5, 0.77, 0.9):
        verdicts = enumerate_profiles(PARAMS, _env(lam=lam))
        row = next(v for v in verdicts if v.pattern == ("int", "int", "int"))
        assert not row.is_equilibrium
        assert row.note == "degenerate equalization system"


def test_rejected_patterns_name_the_deviator():
    verdicts = enumerate_profiles(PARAMS, _env(lam=0.1))
    # In the first regime the incident-signal type strictly prefers route 2,
    # so forcing it to route 1 must be called out.
    row = next(v for v in verdicts if v.pattern == ("int", "1", "1"))
    assert not row.is_equilibrium
    assert "Ha" in row.note
