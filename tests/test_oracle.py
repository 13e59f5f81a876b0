"""The definition-level numerical solvers and their agreement with closed forms."""

import itertools

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from routeinfo import (
    EQUILIBRIUM_TYPES,
    GridScanResult,
    InfoEnvironment,
    NetworkParams,
    OracleConfig,
    OracleConvergenceError,
    PlayerType,
    State,
    StrategyProfile,
    ValidationError,
    belief_uninformative,
    best_response,
    brute_force_socopt,
    grid_scan,
    solve_bwe,
    solve_fixed_point,
    wardrop_residual,
)
from routeinfo.equilibrium import _type_gap
from routeinfo.oracle import DAMPING, _count_clusters, _gap_line
from strategies import rescaled_networks

PARAMS = NetworkParams(1.0, 3.0, 2.0, 19.0, 21.0, 5.0)


def _env(p=0.2, lam=0.5, eta_h=1.0):
    return InfoEnvironment(p_incident=p, frac_informed=lam, accuracy_high=eta_h)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def test_config_defaults_construct():
    config = OracleConfig()
    assert config.grid_resolution == 2001
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
    """The one stacked evaluation in _gap_line returns exactly (==) the gap at
    own split 0 and the gap at own split 1 minus it, each computed by its own
    _type_gap call with the responder's split a plain float. An array probe
    is a column, so with an array lambda the call broadcasts two ways."""
    env = _env(p=p, lam=np.array(lam) if isinstance(lam, list) else lam, eta_h=eta)
    splits = np.array(probes).T[..., None] if array_probe else probes[0]
    probe = StrategyProfile(*splits)
    for t in EQUILIBRIUM_TYPES:
        table = belief_uninformative(env, t)

        def gap_at(own):
            at = [own if u == t else probe.split(u) for u in EQUILIBRIUM_TYPES]
            return _type_gap(params, env, table, StrategyProfile(*at))

        g0, slope = _gap_line(params, env, table, probe)
        want = gap_at(0.0)
        assert np.shape(g0) == np.shape(slope) == np.broadcast(want, *splits).shape
        assert np.array_equal(g0, want), t
        assert np.array_equal(slope, gap_at(1.0) - want), t


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
    assert "2 iterations" in str(err)


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


# ---------------------------------------------------------------------------
# Grid scan
# ---------------------------------------------------------------------------


def test_grid_scan_single_cluster_around_equilibrium():
    env = _env(lam=0.5)
    result = grid_scan(PARAMS, env, OracleConfig(grid_resolution=101))
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
    assert _count_clusters(volume) == _flood_fill_clusters(volume)


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


# ---------------------------------------------------------------------------
# Social-optimum scan
# ---------------------------------------------------------------------------


def test_brute_force_socopt_near_closed_form():
    loads = brute_force_socopt(PARAMS, State.NORMAL, OracleConfig())
    assert abs(loads[0] - 11 / 3) < 2.5e-4
    assert abs(loads.sum() - 5.0) < 1e-12
    loads = brute_force_socopt(PARAMS, State.INCIDENT, OracleConfig())
    assert abs(loads[0] - 2.2) < 2.5e-4


def test_brute_force_socopt_symmetric_network():
    params = NetworkParams(1.0, 3.0, 1.0, 19.0, 19.0, 4.0)
    loads = brute_force_socopt(params, State.NORMAL, OracleConfig())
    assert abs(loads[0] - 2.0) < 2.5e-4
    assert abs(loads[1] - 2.0) < 2.5e-4


def test_brute_force_socopt_rejects_array_fields():
    params = NetworkParams(np.array([1.0, 1.5]), 3.0, 2.0, 19.0, 21.0, 5.0)
    with pytest.raises(ValidationError) as exc:
        brute_force_socopt(params, State.NORMAL, OracleConfig())
    assert exc.value.code == "scalar_only"
    assert "slope1_normal is an array" in str(exc.value)
