"""The definition-level numerical solvers and their agreement with closed forms."""

import itertools
import math
import sys
import tracemalloc
from fractions import Fraction

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from routeinfo import (
    EQUILIBRIUM_TYPES,
    GridScanResult,
    InfoEnvironment,
    NetworkParams,
    OracleConfig,
    OracleConvergenceError,
    PlayerType,
    StrategyProfile,
    ValidationError,
    belief_uninformative,
    best_response,
    expected_route_cost,
    grid_scan,
    solve_bwe,
    solve_fixed_point,
    wardrop_residual,
)
import routeinfo.beliefs
import routeinfo.model
import routeinfo.oracle
from routeinfo.beliefs import _informed_weights
from routeinfo.model import _population_demands
from routeinfo.oracle import (
    DAMPING,
    _count_clusters,
    _gap_lines,
    _gap_weights,
    _probe_splits,
    _type_gaps,
)
from strategies import rational_networks, rescaled_networks

PARAMS = NetworkParams(1.0, 3.0, 2.0, 19.0, 21.0, 5.0)


def _env(p=0.2, lam=0.5, eta_h=1.0):
    return InfoEnvironment(p_incident=p, frac_informed=lam, accuracy_high=eta_h)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def test_config_defaults_construct():
    config = OracleConfig()
    assert config.grid_resolution == 101
    assert DAMPING == 0.5
    assert config.max_iters == 10_000
    assert config.tolerance == 1e-10


@pytest.mark.parametrize(
    "bad",
    [
        dict(grid_resolution=2),
        dict(grid_resolution=0),
        dict(tolerance=float("nan")),
        dict(max_iters=0),
        dict(tolerance=0.0),
        dict(tolerance=-1e-9),
        dict(grid_resolution=101.0),
        dict(max_iters=2.5),
    ],
)
def test_config_rejects_out_of_range(bad):
    with pytest.raises(ValidationError) as exc:
        OracleConfig(**bad)
    assert exc.value.code == "config_out_of_range"


# ---------------------------------------------------------------------------
# Best responses
# ---------------------------------------------------------------------------


def test_best_response_fixes_the_equilibrium():
    """At the equilibrium profile every type's best response is its own split."""
    for lam in (0.0, 0.1, 0.5, 0.77, 0.9):
        env = _env(lam=lam)
        profile = solve_bwe(PARAMS, env)
        splits = {
            PlayerType.L: profile.rho_L,
            PlayerType.HN: profile.rho_Hn,
            PlayerType.HA: profile.rho_Ha,
        }
        for t, rho in splits.items():
            br = best_response(PARAMS, env, profile, t)
            if 1e-8 < rho < 1 - 1e-8:
                assert abs(br - rho) < 1e-9, f"lambda={lam}, {t}: {br} vs {rho}"
            else:
                assert abs(br - rho) < 1e-8


def test_best_response_worked_points():
    env = _env(lam=0.0)
    br = best_response(PARAMS, env, StrategyProfile(0.5, 1.0, 0.0), PlayerType.L)
    assert abs(br - 12 / 17) < 1e-12  # equalizing split of the whole demand

    env = _env(lam=0.9)
    br = best_response(PARAMS, env, solve_bwe(PARAMS, env), PlayerType.HA)
    assert abs(br - 2.4 / 4.5) < 1e-9


def test_best_response_corners_in_first_regime():
    env = _env(lam=0.1)
    profile = solve_bwe(PARAMS, env)
    assert best_response(PARAMS, env, profile, PlayerType.HN) == 1.0
    assert best_response(PARAMS, env, profile, PlayerType.HA) == 0.0


def test_best_response_monotone_in_opponent_load():
    """More opposing demand on route 1 can only push the responder off it."""
    env = _env(lam=0.5)
    low = best_response(
        PARAMS, env, StrategyProfile(0.5, 0.2, 0.2), PlayerType.L
    )
    high = best_response(
        PARAMS, env, StrategyProfile(0.5, 0.8, 0.8), PlayerType.L
    )
    assert high <= low + 1e-12


def test_best_response_for_empty_population_uses_sign_convention():
    env = _env(lam=1.0)
    # All informed demand on route 2: route 1 is free and clearly cheaper.
    assert best_response(PARAMS, env, StrategyProfile(0.0, 0.0, 0.0), PlayerType.L) == 1.0
    # All informed demand on route 1: route 2 is clearly cheaper.
    assert best_response(PARAMS, env, StrategyProfile(0.0, 1.0, 1.0), PlayerType.L) == 0.0


@pytest.mark.parametrize("scale", [1.0, 1e-14, 1e-16, 1e-20])
def test_best_response_does_not_depend_on_the_time_unit(scale):
    """Only an empty population's zero slope takes the fallback: at any
    time unit, L's best response on the running example is 31/34."""
    params = NetworkParams(*(scale * v for v in (1.0, 3.0, 2.0, 19.0, 21.0)), 5.0)
    br = best_response(params, _env(), StrategyProfile(0.5, 0.5, 0.5), PlayerType.L)
    assert br == pytest.approx(31 / 34, rel=1e-12, abs=0)


def test_best_response_rejects_types_outside_the_treatment():
    profile = StrategyProfile(0.5, 0.5, 0.5)
    with pytest.raises(ValueError, match="owner must be L, Hn, or Ha"):
        best_response(PARAMS, _env(), profile, PlayerType.LN)


@pytest.mark.parametrize("responder", [PlayerType.L, PlayerType.LN])
def test_best_response_rejects_an_informative_low_service(responder):
    """The treatment is checked before the responder's type."""
    env = InfoEnvironment(0.2, 0.5, 1.0, accuracy_low=0.6)
    with pytest.raises(ValidationError) as exc:
        best_response(PARAMS, env, StrategyProfile(0.5, 0.5, 0.5), responder)
    assert exc.value.code == "unsupported_treatment"


def test_best_response_stays_in_unit_interval():
    rng = np.random.default_rng(7)
    for _ in range(50):
        env = _env(
            p=rng.uniform(0.05, 0.95),
            lam=rng.uniform(0.0, 1.0),
            eta_h=rng.uniform(0.55, 1.0),
        )
        profile = StrategyProfile(*rng.uniform(0.0, 1.0, size=3))
        for t in (PlayerType.L, PlayerType.HN, PlayerType.HA):
            br = best_response(PARAMS, env, profile, t)
            assert 0.0 <= br <= 1.0


_UNIT = st.floats(min_value=0.0, max_value=1.0)
_RATIONAL_UNIT = st.fractions(0, 1, max_denominator=1000)


def _clamped_equalizer(params, env, profile, responder):
    """The clamped root of the responder's gap line, the line through its
    gaps at own split 0 and 1, each expected_route_cost at route 1 minus
    route 2; the preferred corner where the line is flat. Exact on
    ``Fraction`` inputs."""
    table = belief_uninformative(env, responder)

    def gap_at(own):
        at = StrategyProfile(
            *(own if u == responder else profile.split(u) for u in EQUILIBRIUM_TYPES)
        )
        c1 = expected_route_cost(params, env, table, 1, at)
        return c1 - expected_route_cost(params, env, table, 2, at)

    g0 = gap_at(0)
    slope = gap_at(1) - g0
    if slope == 0:
        return 0 if g0 > 0 else 1 if g0 < 0 else Fraction(1, 2)
    return min(max(-g0 / slope, 0), 1)


@given(
    params=rescaled_networks(),
    p=st.floats(min_value=0.02, max_value=0.98),
    lam=st.sampled_from([0.0, 1.0]) | _UNIT,
    eta=st.just(1.0) | st.floats(min_value=0.55, max_value=1.0),
    splits=st.tuples(_UNIT, _UNIT, _UNIT),
    responder=st.sampled_from(EQUILIBRIUM_TYPES),
)
@settings(max_examples=200, deadline=None)
@example(
    params=PARAMS,
    p=0.2,
    lam=0.5,
    eta=1.0,
    splits=(0.5247058823529409, 1.0, 0.4352941176470593),
    responder=PlayerType.L,
)
def test_best_response_is_the_clamped_equalizer_of_the_route_costs(
    params, p, lam, eta, splits, responder
):
    """On float inputs best_response is the float nearest to the clamped
    equalizer of the responder's route costs at the exact values of those
    floats (==). Against the float closed form at lambda = 1/2 (the
    example), L's is 0.5247058823529411; float gap coefficients gave
    0.5247058823529412."""
    exact = _clamped_equalizer(
        NetworkParams(*map(Fraction, vars(params).values())),
        InfoEnvironment(*map(Fraction, (p, lam, eta))),
        StrategyProfile(*map(Fraction, splits)),
        responder,
    )
    br = best_response(params, _env(p=p, lam=lam, eta_h=eta), StrategyProfile(*splits), responder)
    assert type(br) is float and br == float(exact)


@given(
    params=rational_networks(),
    p=st.fractions(Fraction(1, 100), Fraction(99, 100), max_denominator=1000),
    lam=_RATIONAL_UNIT,
    eta=st.fractions(Fraction(51, 100), Fraction(1), max_denominator=100),
    splits=st.tuples(_RATIONAL_UNIT, _RATIONAL_UNIT, _RATIONAL_UNIT),
    responder=st.sampled_from(EQUILIBRIUM_TYPES),
)
@settings(max_examples=100, deadline=None)
def test_best_response_is_exact_on_rational_fields(params, p, lam, eta, splits, responder):
    """On Fraction fields and splits best_response answers in Fractions,
    the clamped equalizer of the responder's route costs (==)."""
    env = InfoEnvironment(p, lam, eta)
    profile = StrategyProfile(*splits)
    br = best_response(params, env, profile, responder)
    assert type(br) is Fraction
    assert br == _clamped_equalizer(params, env, profile, responder)


@pytest.mark.parametrize("bad", [math.nan])
@pytest.mark.parametrize("responder", EQUILIBRIUM_TYPES)
def test_a_non_finite_split_of_another_type_gives_nan(bad, responder):
    """A NaN split of any other type gives NaN, in a scalar call and at its
    element of an array call; the responder's own split is not read, so a
    NaN one changes nothing."""
    splits = (0.3, 0.6, 0.2)
    want = best_response(PARAMS, _env(), StrategyProfile(*splits), responder)
    for j, u in enumerate(EQUILIBRIUM_TYPES):
        spoilt = list(splits)
        spoilt[j] = bad
        br = best_response(PARAMS, _env(), StrategyProfile(*spoilt), responder)
        if u == responder:
            assert br == want, u
            continue
        assert type(br) is float and math.isnan(br), u
        spoilt[j] = np.array([splits[j], bad])
        got = best_response(PARAMS, _env(), StrategyProfile(*spoilt), responder)
        assert got[0] == want and math.isnan(got[1]), u


@pytest.mark.parametrize("bad", [1.5, 3.0, -0.2, math.inf, -math.inf])
@pytest.mark.parametrize("responder", EQUILIBRIUM_TYPES)
def test_best_response_rejects_another_split_outside_the_unit_interval(bad, responder):
    """Another type's split outside [0, 1], infinite ones included, raises
    split_out_of_range naming it, in a scalar call and at its element of an
    array call; the responder's own split is not read, so such a split of
    its own changes nothing."""
    splits = (0.3, 0.6, 0.2)
    want = best_response(PARAMS, _env(), StrategyProfile(*splits), responder)
    for j, u in enumerate(EQUILIBRIUM_TYPES):
        spoilt = list(splits)
        spoilt[j] = bad
        if u == responder:
            assert best_response(PARAMS, _env(), StrategyProfile(*spoilt), responder) == want
            continue
        for rho in (bad, np.array([splits[j], bad])):
            spoilt[j] = rho
            with pytest.raises(ValidationError) as exc:
                best_response(PARAMS, _env(), StrategyProfile(*spoilt), responder)
            assert exc.value.code == "split_out_of_range", u
            assert str(exc.value).endswith(f"got {bad}"), u


@given(
    params=rescaled_networks(),
    p=st.floats(min_value=0.02, max_value=0.98),
    lam=st.sampled_from([0.0, 1.0]) | _UNIT | st.lists(_UNIT, min_size=1, max_size=4),
    eta=st.just(1.0) | st.floats(min_value=0.55, max_value=1.0),
    probes=st.lists(st.tuples(_UNIT, _UNIT, _UNIT), min_size=1, max_size=4),
    array_probe=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_gap_line_equals_two_scalar_split_evaluations(
    params, p, lam, eta, probes, array_probe
):
    """The fixed point's one stacked evaluation of every type's gap line
    returns exactly (==) each type's gap at own split 0 and its gap at own
    split 1 minus it, each gap computed as expected_route_cost at route 1
    minus route 2 with the type's own split a plain float. The weights,
    demands, probes and stacked splits are built as the fixed point builds
    them, over the broadcast shape of lambda and the probe; an array probe
    is a column, so with an array lambda that shape is two-dimensional."""
    env = _env(p=p, lam=np.array(lam) if isinstance(lam, list) else lam, eta_h=eta)
    splits = np.array(probes).T[..., None] if array_probe else probes[0]
    probe = StrategyProfile(*splits)
    shape = np.broadcast(env.frac_informed, *splits).shape
    rho = np.stack([np.broadcast_to(probe.split(t), shape) for t in EQUILIBRIUM_TYPES])
    g0, slope = _gap_lines(
        params,
        _population_demands(params, env),
        _gap_weights(env, len(shape) + 1),  # (own end, ...)
        _probe_splits(shape),
        rho,
    )
    assert len(g0) == len(slope) == len(EQUILIBRIUM_TYPES)
    for row, t in enumerate(EQUILIBRIUM_TYPES):
        table = belief_uninformative(env, t)

        def gap_at(own):
            at = StrategyProfile(
                *(own if u == t else probe.split(u) for u in EQUILIBRIUM_TYPES)
            )
            c1 = expected_route_cost(params, env, table, 1, at)
            return c1 - expected_route_cost(params, env, table, 2, at)

        want = gap_at(0.0)
        shape = np.broadcast(want, *splits).shape
        assert np.shape(g0[row]) == np.shape(slope[row]) == shape
        assert np.array_equal(g0[row], want), t
        assert np.array_equal(slope[row], gap_at(1.0) - want), t


def _owner_rows(params, env, profile) -> list:
    """Each type's gap under its own belief weights, as the residual reads it."""
    demands = _population_demands(params, env)
    return [
        _type_gaps(params, demands, _informed_weights(belief_uninformative(env, t)), profile)
        for t in EQUILIBRIUM_TYPES
    ]


@given(
    params=rescaled_networks(),
    p=st.floats(min_value=0.02, max_value=0.98),
    lam=st.sampled_from([0.0, 1.0]) | _UNIT | st.lists(_UNIT, min_size=1, max_size=4),
    eta=st.just(1.0) | st.floats(min_value=0.55, max_value=1.0),
    probes=st.lists(st.tuples(_UNIT, _UNIT, _UNIT), min_size=1, max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_stacked_gaps_equal_each_owners_gaps(params, p, lam, eta, probes):
    """The fixed point's owner-stacked ``_type_gaps`` over ``_gap_weights``
    gives, row by row, each type's gap under its own belief weights, the
    gaps that ``wardrop_residual`` judges (np.array_equal): an entry outside
    an owner's belief adds +0.0. The profile is a column of probes, so with
    an array lambda the gaps are two-dimensional."""
    env = _env(p=p, lam=np.array(lam) if isinstance(lam, list) else lam, eta_h=eta)
    splits = np.array(probes).T[..., None]
    profile = StrategyProfile(*splits)
    ndim = np.broadcast(env.p_incident, env.frac_informed, env.accuracy_high, *splits).ndim
    demands = _population_demands(params, env)
    stacked = _type_gaps(params, demands, _gap_weights(env, ndim), profile)
    assert len(stacked) == len(EQUILIBRIUM_TYPES)
    for t, row, own in zip(EQUILIBRIUM_TYPES, stacked, _owner_rows(params, env, profile)):
        assert np.array_equal(row, own), t


@given(
    params=rational_networks(),
    p=st.fractions(Fraction(1, 100), Fraction(99, 100), max_denominator=1000),
    lam=_RATIONAL_UNIT,
    eta=st.fractions(Fraction(51, 100), Fraction(1), max_denominator=100),
    splits=st.tuples(_RATIONAL_UNIT, _RATIONAL_UNIT, _RATIONAL_UNIT),
)
@settings(max_examples=100, deadline=None)
def test_stacked_gaps_equal_each_owners_gaps_on_rational_fields(params, p, lam, eta, splits):
    """On Fraction fields the stacked rows and each owner's gap are the same
    Fractions (==)."""
    env = InfoEnvironment(p, lam, eta)
    profile = StrategyProfile(*splits)
    stacked = _type_gaps(params, _population_demands(params, env), _gap_weights(env, 0), profile)
    for t, row, own in zip(EQUILIBRIUM_TYPES, stacked, _owner_rows(params, env, profile)):
        assert type(row) is type(own) is Fraction and row == own, t


# ---------------------------------------------------------------------------
# Fixed-point iteration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("eta_h", [0.75, 1.0])
@pytest.mark.parametrize("p", [0.2, 0.6])
def test_fixed_point_matches_closed_form(p, eta_h):
    for lam in (0.1, 0.5, 0.77, 0.9):
        env = _env(p=p, lam=lam, eta_h=eta_h)
        closed = solve_bwe(PARAMS, env)
        numeric = solve_fixed_point(PARAMS, env)
        for c, n in (
            (closed.rho_L, numeric.rho_L),
            (closed.rho_Hn, numeric.rho_Hn),
            (closed.rho_Ha, numeric.rho_Ha),
        ):
            assert abs(c - n) < 1e-6, f"(p, lam, eta)={(p, lam, eta_h)}"
        residual = wardrop_residual(PARAMS, env, numeric)
        assert residual <= 1e-9, f"oracle iterate residual {residual}"


def test_fixed_point_handles_empty_populations():
    numeric = solve_fixed_point(PARAMS, _env(lam=1.0))
    assert numeric.l_population_empty
    assert abs(numeric.rho_Hn - 0.8) < 1e-6
    assert abs(numeric.rho_Ha - 0.48) < 1e-6

    numeric = solve_fixed_point(PARAMS, _env(lam=0.0))
    assert not numeric.l_population_empty
    assert abs(numeric.rho_L - 12 / 17) < 1e-6


def test_fixed_point_lockstep_matches_scalar_runs():
    """Every element of an array call is the scalar call at that point, bit
    for bit, on a grid whose instances converge at different sweeps."""
    ps, etas = np.array([0.2, 0.95]), np.array([1.0, 0.75])
    lams = np.array([0.0, 0.1, 0.5, 0.9, 1.0])
    env = InfoEnvironment(
        p_incident=ps[:, None], frac_informed=lams, accuracy_high=etas[:, None]
    )
    batch = solve_fixed_point(PARAMS, env)
    assert batch.rho_L.shape == batch.l_population_empty.shape == (2, 5)
    for i, j in itertools.product(range(2), range(5)):
        single = solve_fixed_point(
            PARAMS, _env(p=float(ps[i]), lam=float(lams[j]), eta_h=float(etas[i]))
        )
        got = (batch.rho_L[i, j], batch.rho_Hn[i, j], batch.rho_Ha[i, j])
        assert got == (single.rho_L, single.rho_Hn, single.rho_Ha), (i, j)
        assert batch.l_population_empty[i, j] == single.l_population_empty, (i, j)
        assert type(single.l_population_empty) is bool


def test_fixed_point_raises_and_reports_when_starved():
    with pytest.raises(OracleConvergenceError) as exc:
        solve_fixed_point(PARAMS, _env(), OracleConfig(max_iters=2))
    err = exc.value
    assert isinstance(err.last_profile, StrategyProfile)
    assert err.residual >= 0.0
    assert str(err).startswith("no fixed point within 2 iterations (worst residual ")


def _splits(profile):
    return np.array([profile.rho_L, profile.rho_Hn, profile.rho_Ha])


def test_starved_array_call_reports_every_instance():
    """At 40 sweeps lambda = 0.1 has converged and 0.5 and 0.9 have not: the
    error keeps the input's shape, holds the scalar calls' iterates, and
    names the worst unconverged defect."""
    env = _env(lam=np.array([0.1, 0.5, 0.9]))
    config = OracleConfig(max_iters=40)
    with pytest.raises(OracleConvergenceError) as exc:
        solve_fixed_point(PARAMS, env, config)
    err = exc.value
    got = _splits(err.last_profile)
    assert got.shape == (3, 3)
    assert np.array_equal(err.residual, wardrop_residual(PARAMS, env, err.last_profile))

    single = solve_fixed_point(PARAMS, _env(lam=0.1), config)
    assert np.array_equal(got[:, 0], _splits(single))
    messages = []
    for i, lam in ((1, 0.5), (2, 0.9)):
        with pytest.raises(OracleConvergenceError) as point:
            solve_fixed_point(PARAMS, _env(lam=lam), config)
        assert np.array_equal(got[:, i], _splits(point.value.last_profile))
        messages.append(str(point.value))
    # lambda = 0.5 has the larger of the two unconverged defects.
    assert str(err) == messages[0] != messages[1]


def _count_calls(monkeypatch, module, name):
    """Record each call of ``module.name``; for a definition-layer function,
    through every routeinfo module that holds it."""
    fn = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    holders = [module] + [
        m
        for key, m in list(sys.modules.items())
        if key.startswith("routeinfo") and vars(m).get(name) is fn
    ]
    for holder in holders:
        monkeypatch.setattr(holder, name, counted)
    return calls


#: Instances of (p, lambda, eta_h) that stop at different sweeps.
_STAGGERED = dict(
    p=np.array([0.2, 0.95])[:, None],
    lam=np.array([0.0, 0.1, 0.5, 0.9, 1.0]),
    eta_h=np.array([1.0, 0.75])[:, None],
)


@pytest.mark.parametrize("env", [_env(), _env(**_STAGGERED)], ids=["scalar", "array"])
def test_fixed_point_sweep_evaluates_eight_latencies(monkeypatch, env):
    """One latency per (route, state, informed type) a sweep, however many
    types and instances share it; each sweep tests its defects once."""
    latencies = _count_calls(monkeypatch, routeinfo.model, "latency")
    sweeps = _count_calls(monkeypatch, routeinfo.oracle, "_type_defect")
    solve_fixed_point(PARAMS, env)
    assert len(sweeps) > 1
    assert len(latencies) == 8 * len(sweeps)


@pytest.mark.parametrize("lam", [0.0, 0.5, np.array([0.0, 0.3, 1.0])])
def test_residual_evaluates_each_owners_latencies(monkeypatch, lam):
    """Each owner's gap evaluates each (state, informed type) entry of that
    owner's own belief once per route: 8 latencies for L, 4 for Hn and 4
    for Ha."""
    latencies = _count_calls(monkeypatch, routeinfo.model, "latency")
    tables = _count_calls(monkeypatch, routeinfo.beliefs, "belief_uninformative")
    type_gaps = routeinfo.oracle._type_gaps
    per_owner = []

    def counted(*args):
        before = len(latencies)
        gaps = type_gaps(*args)
        per_owner.append((tables[-1][1], len(latencies) - before))
        return gaps

    monkeypatch.setattr(routeinfo.oracle, "_type_gaps", counted)
    wardrop_residual(PARAMS, _env(lam=lam), StrategyProfile(0.3, 0.9, 0.1))
    assert per_owner == [(PlayerType.L, 8), (PlayerType.HN, 4), (PlayerType.HA, 4)]
    assert len(latencies) == 16


def test_fixed_point_builds_belief_weights_once_per_working_set(monkeypatch):
    """The working set shrinks after each sweep at which some, but not all,
    live instances converge, so it takes as many forms as there are distinct
    stopping sweeps; each form builds the three belief tables once."""
    stops = []
    for p, lam, eta in zip(*(v.ravel() for v in np.broadcast_arrays(*_STAGGERED.values()))):
        with monkeypatch.context() as patch:
            sweeps = _count_calls(patch, routeinfo.oracle, "_type_defect")
            solve_fixed_point(PARAMS, _env(p=p, lam=lam, eta_h=eta))
        stops.append(len(sweeps))
    assert len(set(stops)) > 2

    builds = _count_calls(monkeypatch, routeinfo.oracle, "_gap_weights")
    tables = _count_calls(monkeypatch, routeinfo.beliefs, "belief_uninformative")
    solve_fixed_point(PARAMS, _env(**_STAGGERED))
    assert len(builds) == len(set(stops))
    assert len(tables) == 3 * len(builds)


# ---------------------------------------------------------------------------
# Grid scan
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def running_example_scan():
    # The default config scans at resolution 101.
    return grid_scan(PARAMS, _env(lam=0.5), OracleConfig())


def test_grid_scan_single_cluster_around_equilibrium(running_example_scan):
    env = _env(lam=0.5)
    result = running_example_scan
    assert isinstance(result, GridScanResult)
    assert result.resolution == 101
    assert abs(result.cell_width - 0.01) < 1e-15
    want_eps = 10.0 * (0.01 * np.sqrt(3.0)) * 3.0 * 5.0
    assert abs(result.epsilon - want_eps) < 1e-12
    assert result.n_clusters == 1
    assert result.contains(solve_bwe(PARAMS, env))
    # The equilibrium falls off-node, so the best cell is not exact — but it
    # should sit an order of magnitude inside the acceptance threshold.
    assert result.cell_residuals.min() <= result.epsilon / 10.0


def test_grid_scan_accepts_everything_when_coarse():
    result = grid_scan(PARAMS, _env(lam=0.5), OracleConfig(grid_resolution=3))
    assert len(result.cell_indices) == 27
    assert result.n_clusters == 1


def test_grid_scan_final_regime_pins_uninformed_off_route_one():
    """In the final regime the best cell keeps the uninformed split in the
    first two planes of the scanned cube (its demand vanishes from route 1)."""
    env = _env(lam=0.9)
    result = grid_scan(PARAMS, env, OracleConfig(grid_resolution=101))
    assert result.n_clusters == 1
    assert result.contains(solve_bwe(PARAMS, env))
    best = result.cell_indices[int(np.argmin(result.cell_residuals))]
    assert best[0] in (0, 1), f"argmin cell {best}"


@pytest.mark.parametrize("row", [-1, 0], ids=["last_accepted", "first_accepted"])
def test_grid_scan_contains_an_accepted_row(running_example_scan, row):
    result = running_example_scan
    cell = result.cell_indices[row]
    assert result.contains(StrategyProfile(*result.axis_values[cell])) is True


def test_grid_scan_does_not_contain_a_rejected_cell(running_example_scan):
    result = running_example_scan
    # Rows come in C order, so a cell whose first index is below the first
    # row's is rejected; this one differs from the first row there alone.
    cell = result.cell_indices[0].copy()
    assert cell[0] > 0
    cell[0] = 0
    assert result.contains(StrategyProfile(*result.axis_values[cell])) is False


def _reference_scan(params, env, res):
    """grid_scan by its definition: one wardrop_residual call on the whole
    cube, then np.argwhere and a flood fill."""
    axis = np.linspace(0.0, 1.0, res)
    residuals = wardrop_residual(
        params, env, StrategyProfile(*np.meshgrid(axis, axis, axis, indexing="ij"))
    )
    max_slope = max(params.slope1_incident, params.slope1_normal, params.slope2)
    epsilon = 10.0 * (1.0 / (res - 1) * np.sqrt(3.0)) * max_slope * params.demand
    accepted = residuals <= epsilon
    return np.argwhere(accepted), residuals[accepted], _flood_fill_clusters(accepted), epsilon


def _assert_scan_equals_reference(params, env, res):
    result = grid_scan(params, env, OracleConfig(grid_resolution=res))
    cells, residuals, n_clusters, epsilon = _reference_scan(params, env, res)
    assert np.array_equal(result.cell_indices, cells)
    assert np.array_equal(result.cell_residuals, residuals)
    assert result.n_clusters == n_clusters
    assert result.epsilon == epsilon
    return result


#: A drawn network whose resolution-101 scan accepts two clusters: the one
#: around its one equilibrium, and a lone cell whose residual falls just
#: under epsilon.
_TWO_CLUSTERS = (
    NetworkParams(3735.13, 19101.9, 10686.1, 1291.48, 1444.63, 1.6404),
    _env(p=0.0611, lam=0.2114),
)


@pytest.mark.parametrize(
    "params,env,n_clusters",
    [(PARAMS, _env(lam=0.5), 1), (*_TWO_CLUSTERS, 2)],
    ids=["running_example", "two_clusters"],
)
def test_grid_scan_equals_the_whole_cube_reference(params, env, n_clusters):
    """Slab by slab, the scan keeps the reference's rows, residual bits,
    cluster count and epsilon exactly."""
    assert _assert_scan_equals_reference(params, env, 101).n_clusters == n_clusters


@given(
    params=rescaled_networks(),
    p=st.floats(min_value=0.02, max_value=0.98),
    lam=st.sampled_from([0.0, 1.0]) | _UNIT,
    eta=st.just(1.0) | st.floats(min_value=0.55, max_value=1.0),
    res=st.sampled_from([3, 11, 31]),
)
@settings(max_examples=40, deadline=None)
def test_grid_scan_equals_the_whole_cube_reference_on_drawn_networks(
    params, p, lam, eta, res
):
    _assert_scan_equals_reference(params, _env(p=p, lam=lam, eta_h=eta), res)


def test_grid_scan_holds_no_cube_of_cells():
    """A resolution-101 scan at the running example keeps 95,389 accepted
    cells and one slab at a time. Held whole, the cube's float64 residuals
    alone would take 8.2 MB, and its padded int32 cell numbers 4.4 MB."""
    tracemalloc.start()
    try:
        grid_scan(PARAMS, _env(lam=0.5), OracleConfig(grid_resolution=101))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


def test_grid_scan_rejects_huge_resolutions():
    with pytest.raises(ValidationError) as exc:
        grid_scan(PARAMS, _env(), OracleConfig(grid_resolution=401))
    assert exc.value.code == "config_out_of_range"


@pytest.mark.parametrize(
    "params,env,field",
    [
        (PARAMS, _env(p=np.array([0.2, 0.3])), "p_incident"),
        (NetworkParams(np.array([1.0, 1.5]), 3.0, 2.0, 19.0, 21.0, 5.0), _env(),
         "slope1_normal"),
    ],
)
def test_grid_scan_rejects_array_fields(params, env, field):
    with pytest.raises(ValidationError) as exc:
        grid_scan(params, env, OracleConfig(grid_resolution=11))
    assert exc.value.code == "scalar_only"
    assert f"{field} is an array" in str(exc.value)


def _flood_fill_clusters(volume):
    """26-connected clusters of True cells by a plain depth-first search."""
    cells = {tuple(c) for c in np.argwhere(volume).tolist()}
    steps = [d for d in itertools.product((-1, 0, 1), repeat=3) if d != (0, 0, 0)]
    clusters = 0
    while cells:
        clusters += 1
        frontier = [cells.pop()]
        while frontier:
            i, j, k = frontier.pop()
            for di, dj, dk in steps:
                cell = (i + di, j + dj, k + dk)
                if cell in cells:
                    cells.remove(cell)
                    frontier.append(cell)
    return clusters


@given(
    volume=hnp.arrays(
        bool, hnp.array_shapes(min_dims=3, max_dims=3, min_side=1, max_side=9)
    )
)
@settings(max_examples=300, deadline=None)
def test_cluster_count_matches_a_flood_fill(volume):
    """Driven, as grid_scan drives it, by a one-pass iterator of slabs."""
    assert _count_clusters(iter(volume)) == _flood_fill_clusters(volume)


def _volume(shape, *cells):
    volume = np.zeros(shape, dtype=bool)
    for cell in cells:
        volume[cell] = True
    return volume


@pytest.mark.parametrize(
    "volume,want",
    [
        (_volume((2, 2, 2), (0, 0, 0), (1, 1, 1)), 1),
        (_volume((2, 2, 2), (0, 1, 1), (1, 0, 0)), 1),
        (_volume((1, 1, 3), (0, 0, 0), (0, 0, 2)), 2),
        (_volume((3, 3, 3), (0, 0, 0), (2, 2, 2)), 2),
        (_volume((4, 4, 4)), 0),
    ],
    ids=["corner", "corner_reversed", "one_apart", "one_apart_diagonal", "empty"],
)
def test_cluster_count_by_hand(volume, want):
    assert _count_clusters(volume) == want
