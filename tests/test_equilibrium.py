"""Regime boundaries, the closed-form equilibrium, and the pattern table."""

import itertools
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, example, given, settings

import exact
from exact import EXPECTED_PATTERN
from routeinfo import (
    EQUILIBRIUM_TYPES,
    InfoEnvironment,
    NetworkParams,
    PlayerType,
    State,
    StrategyProfile,
    ValidationError,
    belief_uninformative,
    best_response,
    classify,
    enumerate_profiles,
    expected_route_cost,
    lambda_min,
    marginal_type_dist,
    realized_population_state_cost,
    regime_boundaries,
    solve_bwe,
    wardrop_residual,
)
from routeinfo.equilibrium import BOUNDARY_TOL
from routeinfo.model import _population_demands
from routeinfo.oracle import (
    _PATTERNS,
    UTILIZED_SHARE_EPS,
    _eliminate,
    _exact_gaps,
    _gap_weights,
    _lowest,
    _type_gaps,
    _verdict,
)
from strategies import rational_networks, rescaled_networks

PARAMS = NetworkParams(1.0, 3.0, 2.0, 19.0, 21.0, 5.0)
RATIONAL_PARAMS = NetworkParams(*map(Fraction, (1, 3, 2, 19, 21, 5)))

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


def test_split_names_a_type_without_one():
    with pytest.raises(ValueError, match="no split fraction for type X"):
        StrategyProfile(0.5, 0.5, 0.5).split("X")


def test_rejects_informative_low_accuracy_signal():
    env = InfoEnvironment(0.2, 0.5, accuracy_high=1.0, accuracy_low=0.6)
    for op in (regime_boundaries, classify, solve_bwe, enumerate_profiles):
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
    weights = _gap_weights(env, 0)
    gaps = _type_gaps(params, _population_demands(params, env), weights, origin)
    assert len(gaps) == len(EQUILIBRIUM_TYPES)
    for t, gap in zip(EQUILIBRIUM_TYPES, gaps):
        assert isinstance(gap, Fraction), f"{t}: {gap!r}"
        assert gap == -12, f"{t}: {gap!r}"


def test_readme_example_is_exact_on_rational_fields():
    """The README point with Fraction fields takes the code path of floats
    and arrays, and gives exact fractions."""
    env = InfoEnvironment(Fraction(1, 5), Fraction(1, 2), Fraction(1), Fraction(1, 2))
    bounds = regime_boundaries(RATIONAL_PARAMS, env)
    assert bounds == (Fraction(24, 85), Fraction(324, 425), Fraction(4, 5))
    got = solve_bwe(RATIONAL_PARAMS, env)
    want = (Fraction(223, 425), 1, Fraction(37, 85))
    assert (got.rho_L, got.rho_Hn, got.rho_Ha) == want
    assert isinstance(got.rho_L, Fraction) and isinstance(got.rho_Ha, Fraction)
    assert lambda_min(RATIONAL_PARAMS, env) == Fraction(24, 85)
    assert all(isinstance(b, Fraction) for b in bounds)


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


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
def test_a_nan_split_gives_a_nan_residual(lam):
    """A NaN split fails both utilization tests, yet it is no equilibrium:
    the residual is NaN, in a scalar call and at its element of an array
    call, whichever split it is and whatever its type's mass."""
    env = _env(lam=lam)
    splits = (0.3, 0.9, 0.1)
    want = wardrop_residual(PARAMS, env, StrategyProfile(*splits))
    nan = wardrop_residual(PARAMS, env, StrategyProfile(np.nan, np.nan, np.nan))
    assert type(nan) is float and np.isnan(nan)
    got = wardrop_residual(PARAMS, env, StrategyProfile(*(np.array([s, np.nan]) for s in splits)))
    assert got[0] == want and np.isnan(got[1])
    for j in range(len(splits)):
        spoilt = list(splits)
        spoilt[j] = np.nan
        got = wardrop_residual(PARAMS, env, StrategyProfile(*spoilt))
        assert type(got) is float and np.isnan(got), j
        spoilt[j] = np.array([splits[j], np.nan])
        got = wardrop_residual(PARAMS, env, StrategyProfile(*spoilt))
        assert got[0] == want and np.isnan(got[1]), j


@pytest.mark.parametrize(
    "splits, bad",
    [
        ((1.5, 0.5, 0.5), "1.5"),
        ((-0.2, 0.5, 0.5), "-0.2"),
        ((3.0, 0.5, 0.5), "3.0"),
        ((np.inf, 0.5, 0.5), "inf"),
        ((0.5, np.array([0.3, 1.2, 1.3]), np.array([0.5, 0.5, 2.0])), "1.2"),
        ((0.5, 0.5, Fraction(-1, 3)), "-1/3"),
    ],
)
def test_a_split_outside_the_unit_interval_is_rejected(splits, bad):
    """A split is a share of its type's demand: outside [0, 1] the residual
    raises split_out_of_range and names the first such value, not a score
    (13.0 at (1.5, 0.5, 0.5)) or a negative load (at (3.0, 0.5, 0.5))."""
    with pytest.raises(ValidationError) as info:
        wardrop_residual(PARAMS, _env(), StrategyProfile(*splits))
    assert info.value.code == "split_out_of_range"
    assert str(info.value).endswith(f"got {bad}")


#: Every reader of a profile's splits, as a function of the profile. The
#: best response is Ha's, which reads the L and Hn splits only.
_PROFILE_READERS = {
    "wardrop_residual": lambda profile: wardrop_residual(PARAMS, _env(), profile),
    "best_response": lambda profile: best_response(PARAMS, _env(), profile, PlayerType.HA),
    "expected_route_cost": lambda profile: expected_route_cost(
        PARAMS, _env(), belief_uninformative(_env(), PlayerType.L), 1, profile
    ),
    "realized_population_state_cost": lambda profile: realized_population_state_cost(
        PARAMS, _env(), profile, "L", State.NORMAL
    ),
}


@pytest.mark.parametrize(
    "bad, named",
    [(1.2, "1.2"), (-0.1, "-0.1"), (np.inf, "inf"), (np.array([0.5, 1.2]), "1.2")],
    ids=["above", "below", "inf", "array"],
)
@pytest.mark.parametrize("reader", list(_PROFILE_READERS))
def test_every_profile_reader_rejects_a_split_outside_the_unit_interval(reader, bad, named):
    """Each reader raises split_out_of_range naming the first bad value, in
    (L, Hn, Ha) order (the Hn split of 2.0 is bad too), not a cost or a
    negative load; a NaN split still gives NaN."""
    with pytest.raises(ValidationError) as info:
        _PROFILE_READERS[reader](StrategyProfile(bad, 2.0, 0.5))
    assert info.value.code == "split_out_of_range"
    assert str(info.value).endswith(f"got {named}")
    assert np.isnan(_PROFILE_READERS[reader](StrategyProfile(0.5, np.nan, 0.5)))


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
# Intercepts 8000 times slope x demand: Ha's exact gap in ('int', 'int', '0')
# is -1.0e-11 cost units, inside a slack of _cost_tol (1.008e-11), and that
# pattern's loads miss the closed form's by 1.8e-8 of the demand.
@example(
    params=NetworkParams(0.125, 0.13125000000000003, 0.125, 129.0, 129.0, 0.125),
    p=0.03125,
    lam=0.5,
    eta=0.5625,
)
@example(
    params=NetworkParams(0.125, 0.1318359375, 0.125, 128.0, 128.0, 0.125),
    p=0.0234375,
    lam=0.03125,
    eta=0.5625,
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
# The exact pattern table on rational fields
# ---------------------------------------------------------------------------

_RATIONAL_P = st.one_of(
    st.sampled_from([Fraction(1, 10**12), 1 - Fraction(1, 10**12)]),
    st.fractions(Fraction(1, 100), Fraction(99, 100), max_denominator=1000),
)
_RATIONAL_ETA = st.one_of(
    st.sampled_from([Fraction(1), Fraction(1, 2) + Fraction(1, 10**7)]),
    st.fractions(Fraction(51, 100), Fraction(1), max_denominator=100),
)

#: How far inside its regime a drawn lambda lies: ``classify`` hands points
#: up to BOUNDARY_TOL past lambda_bar_2 to R2's closed form.
_INSIDE = Fraction(1, 10**9)

ALL_INTERIOR = ("int", "int", "int")


def _regime_span(params, p, eta_h, regime):
    """The lambdas drawn in ``regime`` (0..3): its interval, _INSIDE in
    from each end."""
    bounds = regime_boundaries(params, InfoEnvironment(p, 0, eta_h))
    lo, hi = [0, *bounds, 1][regime : regime + 2]
    return max(lo, 0) + _INSIDE, min(hi, 1) - _INSIDE


#: A network and p, and the ``at`` that draws a point in R2 with it (in the
#: other regimes this ``at`` leaves [0, 1]): R2's interior block has
#: condition number about 4 / (1 - p) there, and Hn prefers route 1 by only
#: 7.4e-5 cost units. Rounded solves rejected (int, 1, int) at that point
#: and accepted (int, 1, 1) and (1, int, int).
_NEAR_ONE = NetworkParams(*map(Fraction, ("4/3125", "21/15625", "4/3125", "10", "21/2", "3133/8")))
_NEAR_ONE_P = 1 - Fraction(1, 10**12)
_lo, _hi = _regime_span(_NEAR_ONE, _NEAR_ONE_P, Fraction(1), 1)
_NEAR_ONE_AT = (
    Fraction(1029879060647764886339984200281, 2633286499999935773500000000000) - _lo
) / (_hi - _lo)


def _assert_one_set_of_loads(params, env, verdicts):
    """Every accepted pattern's profile routes the same loads."""
    loads = {exact.route1_loads(params, env, v.profile) for v in verdicts if v.is_equilibrium}
    assert len(loads) == 1, loads


def test_exact_elimination_on_singular_systems():
    """A consistent singular system gives a particular solution and its null
    space; an inconsistent one gives none."""
    one, two, three, four, five, six, seven = map(Fraction, range(1, 8))
    x, null = _eliminate([[one, two], [two, four]], [three, six])
    assert x == [3, 0] and null == [[-2, 1]]
    assert _eliminate([[one, two], [two, four]], [three, seven]) == (None, [[-2, 1]])
    assert _eliminate([[0, one], [one, 0]], [two, five]) == ([5, 2], [])


def test_lowest_solution_by_fourier_motzkin():
    """The lowest point of a polygon, first coordinate first, including a
    lower bound on s[0] that only eliminating s[1] reveals; None for an
    empty polygon."""
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    box = [(0, [1, 0]), (0, [0, 1]), (1, [-1, 0]), (1, [0, -1])]
    assert _lowest(box, 2) == [0, 0]
    # s0 + s1 >= 1 with s1 <= 1/4.
    assert _lowest([*box, (-1, [1, 1]), (quarter, [0, -1])], 2) == [3 * quarter, quarter]
    # s0 - s1 >= 1/2: s1 stays at its lowest.
    assert _lowest([*box, (-half, [1, -1])], 2) == [half, 0]
    assert _lowest([*box, (-3, [1, 1])], 2) is None
    # Unbounded below: s0 takes its highest value, s1 its only bound.
    assert _lowest([(1, [-1, 0]), (-half, [0, 1])], 2) == [1, half]
    assert _lowest([(half, []), (0, [])], 0) == []
    assert _lowest([(-half, [])], 0) is None


def test_pattern_with_a_plane_of_solutions():
    """Gaps that, like those at lambda = 0, ignore the Hn and Ha splits: the
    all-interior system has a two-dimensional null space. Where Hn and Ha
    are indifferent at L's equalizing split it is accepted, at that split
    with the free splits at their lowest, 0; otherwise it has no solution."""
    coef = [[Fraction(3), 0, 0], [Fraction(2), 0, 0], [Fraction(5), 0, 0]]
    g0 = [Fraction(-1), Fraction(-2, 3), Fraction(-5, 3)]
    assert _verdict(g0, coef, ALL_INTERIOR) == ("", [Fraction(1, 3), 0, 0])
    g0[2] += 1
    assert _verdict(g0, coef, ALL_INTERIOR) == ("degenerate equalization system", None)
    # Ha fixed at 0 must weakly prefer route 2: its gap is now 1 > 0.
    assert _verdict(g0, coef, ("int", "int", "0")) == ("", [Fraction(1, 3), 0, 0])
    assert _verdict(g0, coef, ("int", "int", "1")) == ("Ha strictly prefers route 2", None)


def test_pattern_with_a_segment_of_solutions():
    """Gaps whose all-interior system has a line of solutions, along
    (1, 1, 0), with its particular solution (rho_Hn at 0) outside the box:
    the segment inside the box is accepted at its end with the lowest free
    split, rho_Hn = 1/2. A fixed owner is judged along it too."""
    two, half = Fraction(2), Fraction(1, 2)
    coef = [[two, -two, 0], [two, -two, 0], [0, 0, Fraction(1)]]
    g0 = [Fraction(1), Fraction(1), -half]
    assert _verdict(g0, coef, ALL_INTERIOR) == ("", [0, half, half])
    assert _verdict(g0, coef, ("int", "int", "1")) == ("Ha strictly prefers route 2", None)
    # rho_L = rho_Hn - 3/2: L's split lies in [0, 1] only where Hn's does
    # not, so the note names Hn, the first owner no solution satisfies
    # together with the owners before it.
    g0[:2] = [Fraction(3), Fraction(3)]
    assert _verdict(g0, coef, ALL_INTERIOR) == ("Hn split leaves [0, 1]", None)


@pytest.mark.parametrize("regime", [0, 1, 2, 3])
@given(
    params=rational_networks(),
    p=_RATIONAL_P,
    eta_h=_RATIONAL_ETA,
    at=st.fractions(0, 1, max_denominator=1000),
)
@settings(max_examples=25, deadline=None)
# R2's interior block has condition number about 4 / (1 - p) here.
@example(
    params=RATIONAL_PARAMS, p=1 - Fraction(1, 10**12), eta_h=Fraction(1), at=Fraction(1, 2)
)
@example(params=_NEAR_ONE, p=_NEAR_ONE_P, eta_h=Fraction(1), at=_NEAR_ONE_AT)
def test_closed_form_is_the_exact_tables_one_equilibrium(regime, params, p, eta_h, at):
    """Inside each regime the table accepts exactly one pattern, the
    regime's, at solve_bwe's profile with no tolerance (==)."""
    assume(0 <= at <= 1)
    lo, hi = _regime_span(params, p, eta_h, regime)
    assume(lo < hi)
    env = InfoEnvironment(p, lo + at * (hi - lo), eta_h)
    label = classify(params, env).label
    assert label == f"R{regime + 1}"
    verdicts = enumerate_profiles(params, env)
    accepted = [v for v in verdicts if v.is_equilibrium]
    assert [v.pattern for v in accepted] == [EXPECTED_PATTERN[label]]
    assert accepted[0].profile == solve_bwe(params, env)


@given(params=rational_networks(), p=_RATIONAL_P, eta_h=_RATIONAL_ETA)
@settings(max_examples=40, deadline=None)
# lambda_bar_3 - lambda_bar_2 is 2.1e-13 here: R2's closed form at
# lambda_bar_3 = 4/5 put rho_Ha 2.7e-13 above the exact 3/5.
@example(params=RATIONAL_PARAMS, p=Fraction(1, 10**12), eta_h=Fraction(1))
def test_both_neighbouring_patterns_hold_on_each_boundary(params, p, eta_h):
    """On each boundary in (0, 1), also within BOUNDARY_TOL of another, the
    table accepts both neighbouring regimes' patterns at solve_bwe's profile
    (==), and every accepted pattern routes the same loads."""
    bounds = regime_boundaries(params, InfoEnvironment(p, 0, eta_h))
    for i, lam in enumerate(bounds):
        if not 0 < lam < 1:
            continue
        env = InfoEnvironment(p, lam, eta_h)
        closed = solve_bwe(params, env)
        verdicts = enumerate_profiles(params, env)
        for label in (f"R{i + 1}", f"R{i + 2}"):
            verdict = verdicts[_PATTERNS.index(EXPECTED_PATTERN[label])]
            assert verdict.profile == closed, (lam, label, verdict.note)
        _assert_one_set_of_loads(params, env, verdicts)


@given(
    params=rational_networks(),
    p=_RATIONAL_P,
    lam=st.one_of(
        st.sampled_from([Fraction(1, 10**9), 1 - Fraction(1, 10**9)]),
        st.fractions(0, 1, max_denominator=1000).filter(lambda v: 0 < v < 1),
    ),
    eta_h=_RATIONAL_ETA,
)
@settings(max_examples=100, deadline=None)
@example(params=RATIONAL_PARAMS, p=Fraction(1, 10**12), lam=Fraction(1, 2), eta_h=Fraction(1))
@example(
    params=RATIONAL_PARAMS,
    p=1 - Fraction(1, 10**12),
    lam=Fraction(1, 2),
    eta_h=Fraction(1, 2) + Fraction(1, 10**7),
)
def test_gap_matrix_certifies_unique_loads(params, p, lam, eta_h):
    """For 0 < lambda < 1 the exact gap matrix C (types and splits in L,
    Hn, Ha order) is a weighted potential game's: D = diag(1, C[L,Hn] /
    C[Hn,L], C[L,Ha] / C[Ha,L]) is positive and D C is symmetric, with
    positive diagonal and 2 x 2 principal minors and determinant 0, so it is
    positive semidefinite. C maps (lambda, -(1 - lambda), -(1 - lambda)),
    which moves no load, to 0, and the informed types' gaps ignore each
    other's splits. So any two equilibria differ only along that direction
    and route the same loads. Every check is exact (==)."""
    env = InfoEnvironment(p, lam, eta_h)
    pairs = list(itertools.combinations(range(3), 2))
    _, c = _exact_gaps(params, env)
    assert c[1][2] == c[2][1] == 0
    d = (1, c[0][1] / c[1][0], c[0][2] / c[2][0])
    assert all(v > 0 for v in d)
    dc = [[d[i] * c[i][j] for j in range(3)] for i in range(3)]
    assert all(dc[i][j] == dc[j][i] for i, j in pairs)
    assert all(dc[i][i] > 0 for i in range(3))
    assert all(dc[i][i] * dc[j][j] - dc[i][j] * dc[j][i] > 0 for i, j in pairs)
    # The determinant by the first row, with cyclically indexed cofactors.
    det = sum(
        dc[0][j] * (dc[1][(j + 1) % 3] * dc[2][(j + 2) % 3] - dc[1][(j + 2) % 3] * dc[2][(j + 1) % 3])
        for j in range(3)
    )
    assert det == 0
    null = (lam, -(1 - lam), -(1 - lam))
    assert all(sum(cij * v for cij, v in zip(row, null)) == 0 for row in c)


# ---------------------------------------------------------------------------
# Pattern enumeration
# ---------------------------------------------------------------------------


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


@pytest.mark.parametrize(
    "lam", [Fraction(n, 100) for n in (0, 10, 50, 77, 90, 100)], ids=str
)
def test_enumerate_profiles_on_rational_fields(lam):
    """Fraction fields give the float network's verdicts, and its accepted
    profiles to 1e-12."""
    env = InfoEnvironment(Fraction(1, 5), lam, Fraction(1), Fraction(1, 2))
    rational = enumerate_profiles(RATIONAL_PARAMS, env)
    floats = enumerate_profiles(PARAMS, _env(lam=float(lam)))
    assert [v.is_equilibrium for v in rational] == [v.is_equilibrium for v in floats]
    for got, want in zip(rational, floats):
        if want.is_equilibrium:
            for field in ("rho_L", "rho_Hn", "rho_Ha"):
                deviation = getattr(got.profile, field) - getattr(want.profile, field)
                assert abs(deviation) <= 1e-12, (got.pattern, field)


def test_all_interior_pattern_is_degenerate():
    """Each type's cost gap is a mix of the same two per-state gaps, so three
    equalization equations can never be independent."""
    for lam in (0.1, 0.5, 0.77, 0.9):
        verdicts = enumerate_profiles(PARAMS, _env(lam=lam))
        row = next(v for v in verdicts if v.pattern == ("int", "int", "int"))
        assert not row.is_equilibrium
        assert row.note == "degenerate equalization system"


@pytest.mark.parametrize("lam", [0.0, 5e-324, 1e-300, 1 - 2**-53, 1.0])
@pytest.mark.parametrize("p", [1e-12, 0.2, 1 - 1e-12])
def test_pattern_table_at_the_ends_of_lambda(p, lam):
    """At lambda exactly 0 or 1 one population is empty and its splits move
    no gap: exactly the systems that equalize one of its owners are
    degenerate, the all-interior one among them. At the tiny shares next to
    those ends every population has mass, so only the all-interior system
    is. Everywhere one pattern is accepted, and it routes solve_bwe's
    loads."""
    env = _env(p=p, lam=lam)
    empty = {0.0: (1, 2), 1.0: (0,)}.get(lam, ())
    verdicts = enumerate_profiles(PARAMS, env)
    for verdict in verdicts:
        interior = [j for j, s in enumerate(verdict.pattern) if s == "int"]
        degenerate = len(interior) == 3 or any(j in empty for j in interior)
        assert (verdict.note == "degenerate equalization system") == degenerate, verdict
    assert sum(v.is_equilibrium for v in verdicts) == 1
    _assert_table_routes_the_closed_form(PARAMS, env, solve_bwe(PARAMS, env))


@pytest.mark.parametrize("eta_h", [1.0, 0.5000001])
@pytest.mark.parametrize("p", [0.2, 1e-12, 0.999999, 1 - 1e-12])
def test_pattern_table_accepts_one_pattern_on_the_running_example(p, eta_h):
    """At lambda = 0.5 the table accepts exactly one pattern, the closed
    form's, and it routes solve_bwe's loads at the exact value of the float
    fields within 1e-9 of the demand. (As p -> 1 the float closed form loses
    O(1 - p) to cancellation: at p = 1 - 1e-12, eta_H = 1 it misses those
    loads by up to 4.4e-5 of the demand.)"""
    env = _env(p=p, lam=0.5, eta_h=eta_h)
    accepted = [v for v in enumerate_profiles(PARAMS, env) if v.is_equilibrium]
    exact_env = InfoEnvironment(*map(Fraction, (p, 0.5, eta_h)))
    label = classify(RATIONAL_PARAMS, exact_env).label
    assert [v.pattern for v in accepted] == [EXPECTED_PATTERN[label]]
    closed = solve_bwe(RATIONAL_PARAMS, exact_env)
    want = exact.route1_loads(RATIONAL_PARAMS, exact_env, closed)
    got = exact.route1_loads(PARAMS, env, accepted[0].profile)
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-9 * PARAMS.demand


def test_rejected_patterns_name_the_deviator():
    verdicts = enumerate_profiles(PARAMS, _env(lam=0.1))
    # In the first regime the incident-signal type strictly prefers route 2,
    # so forcing it to route 1 must be called out.
    row = next(v for v in verdicts if v.pattern == ("int", "1", "1"))
    assert not row.is_equilibrium
    assert "Ha" in row.note


def test_pattern_table_at_a_large_cost_scale_does_not_overflow():
    """With demand 1e155 nothing overflows (pytest turns the warning into
    an error): the table accepts the closed form's pattern alone, and it
    routes the closed form's loads."""
    params = NetworkParams(1.0, 3.0, 2.0, 19.0, 21.0, 1e155)
    env = _env(p=0.9, lam=0.5)
    marked = [v.pattern for v in enumerate_profiles(params, env) if v.is_equilibrium]
    assert marked == [EXPECTED_PATTERN[classify(params, env).label]]
    _assert_table_routes_the_closed_form(params, env, solve_bwe(params, env))


def test_pattern_table_and_best_responses_near_the_float_maximum():
    """With demand 5e307 the largest latency, 1.5e308, is finite, and the
    exact gaps of the table and of the best responses round nothing to
    infinity (pytest turns a warning into an error): the table accepts the
    closed form's pattern alone, and each type's best response to the
    closed form is its own split."""
    params = NetworkParams(1.0, 3.0, 2.0, 19.0, 21.0, 5e307)
    env = _env(p=0.9, lam=0.0)
    closed = solve_bwe(params, env)
    assert abs(closed.rho_L - 5 / 12) < 1e-12
    marked = [v for v in enumerate_profiles(params, env) if v.is_equilibrium]
    assert [v.pattern for v in marked] == [("int", "1", "0")]
    assert abs(marked[0].profile.rho_L - closed.rho_L) <= 1e-9
    for t in EQUILIBRIUM_TYPES:
        assert abs(best_response(params, env, closed, t) - closed.split(t)) <= 1e-9, t


@pytest.mark.parametrize("lam", [0.0, 0.3, 0.8, 1.0])
def test_pattern_table_and_best_responses_at_a_subnormal_demand(lam):
    """With demand 1e-310 and slopes near 1e300, slope times demand is
    about 1e-10 while either factor alone is far from it; in the exact gaps
    nothing underflows or overflows (pytest turns a warning into an error).
    The table accepts the closed form's pattern alone, at its splits, and
    each type's best response to the closed form is its own split."""
    params = NetworkParams(1e300, 3e300, 2e300, 0.0, 0.0, 1e-310)
    env = _env(p=0.5, lam=lam)
    closed = solve_bwe(params, env)
    marked = [v for v in enumerate_profiles(params, env) if v.is_equilibrium]
    assert [v.pattern for v in marked] == [EXPECTED_PATTERN[classify(params, env).label]]
    for t in EQUILIBRIUM_TYPES:
        assert abs(marked[0].profile.split(t) - closed.split(t)) <= 1e-9, t
        assert abs(best_response(params, env, closed, t) - closed.split(t)) <= 1e-9, t
