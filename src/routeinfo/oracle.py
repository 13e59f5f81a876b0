"""Independent numerical solvers used to validate the closed forms.

Nothing in this module knows about regimes, boundary formulas, or the derived
K constants. Everything is built from the definition layer only — interim
beliefs and latency functions — so agreement between these solvers and the
closed-form equilibrium is genuine two-sided evidence:

- ``solve_fixed_point``: damped simultaneous best-response iteration over the
  three split fractions.
- ``grid_scan``: exhaustive epsilon-equilibrium scan of the unit cube of
  profiles, with a count of the accepted cells' 26-connected clusters as
  uniqueness evidence (a numpy union-find).
- ``brute_force_socopt``: direct scan of the one-dimensional social-cost
  objective per state.

The equilibrium condition itself comes from ``equilibrium``: each type's
route-cost gap, its defect and the type masses are defined there once and
shared with ``wardrop_residual``. The gap is affine in the type's own split
fraction, which the fixed point exploits: one stacked evaluation, at own split
0 and 1, pins down the whole best-response line.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass

import numpy as np

from .beliefs import belief_uninformative
from .equilibrium import (
    StrategyProfile,
    _probe_axis,
    _type_defect,
    _type_gap,
    _type_masses,
    wardrop_residual,
)
from .model import (
    EQUILIBRIUM_TYPES,
    InfoEnvironment,
    NetworkParams,
    PlayerType,
    State,
    ValidationError,
    _as_results,
    _require_scalar,
    _require_uninformative,
    latency,
)

#: Below this own-split sensitivity the responder's costs do not depend on its
#: own choice (an empty population); the best response falls back to the sign
#: convention documented on ``best_response``.
DEGENERATE_SLOPE_EPS = 1e-15

#: Step fraction of the fixed-point iteration toward the best response.
DAMPING = 0.5

#: Grid scans allocate resolution**3 volumes of residuals (8 bytes a cell)
#: and of cell numbers for the cluster count (4 bytes); this cap keeps a
#: single scan under ~1 GB and a few minutes of residual evaluations.
MAX_SCAN_RESOLUTION = 400


@dataclass(frozen=True)
class OracleConfig:
    """Knobs shared by the numerical solvers.

    ``grid_resolution`` is points per scanned axis, ``tolerance`` the
    residual (minutes) at which the fixed-point iteration stops.
    """

    grid_resolution: int = 2001
    max_iters: int = 10_000
    tolerance: float = 1e-10

    def __post_init__(self):
        if self.grid_resolution < 3:
            raise ValidationError(
                "config_out_of_range",
                f"grid_resolution must be >= 3, got {self.grid_resolution}",
            )
        if self.max_iters < 1:
            raise ValidationError(
                "config_out_of_range",
                f"max_iters must be >= 1, got {self.max_iters}",
            )
        if not self.tolerance > 0:
            raise ValidationError(
                "config_out_of_range",
                f"tolerance must be positive, got {self.tolerance}",
            )


class OracleConvergenceError(RuntimeError):
    """Fixed-point iteration hit max_iters; carries the last iterate."""

    def __init__(self, message: str, last_profile: StrategyProfile, residual):
        super().__init__(message)
        self.last_profile = last_profile
        self.residual = residual


#: The responder's own splits at which ``_gap_line`` evaluates its gap.
_OWN_ENDS = np.array([0.0, 1.0])


def _gap_line(params, env, table, profile):
    """Route-1-minus-route-2 expected cost as a line in the own split.

    Returns (gap at own split 0, slope), exact because the gap is affine in
    the responder's (``table.owner``'s) split fraction with the opponent
    profile held fixed. One ``_type_gap`` evaluation gives both ends: the
    responder's split is (0, 1) on a new leading axis, and the result's two
    rows are the gaps at own split 0 and 1, each element computed as a
    separate call would.
    """
    splits = [profile.split(t) for t in EQUILIBRIUM_TYPES]
    fields = (*splits, *vars(params).values(), *vars(env).values())
    splits[EQUILIBRIUM_TYPES.index(table.owner)] = _probe_axis(_OWN_ENDS, fields)
    g0, g1 = _type_gap(params, env, table, StrategyProfile(*splits))
    return g0, g1 - g0


def _br_from_line(g0, slope):
    """Clamped equalizer of an affine cost gap, with the degenerate fallback."""
    g0 = np.asarray(g0, dtype=float)
    slope = np.asarray(slope, dtype=float)
    degenerate = np.abs(slope) < DEGENERATE_SLOPE_EPS
    interior = -g0 / np.where(degenerate, 1.0, slope)
    br = np.clip(interior, 0.0, 1.0)
    preferred = np.where(g0 > 0, 0.0, np.where(g0 < 0, 1.0, 0.5))
    return np.where(degenerate, preferred, br)


#: Relative tolerance for recognizing the translation-mode update pattern.
_DRIFT_PATTERN_RTOL = 1e-2


def _drift_multiplier(lam, rho, delta):
    """Fast-forward factor for the simultaneous map's translation mode.

    While all three components sit strictly inside (0, 1), shifting the
    profile along (-lam, 1-lam, 1-lam) leaves every realized route load —
    hence every cost gap — unchanged, so each type's equalizer moves with
    its own coordinate and the damped sweep translates the iterate by a
    constant vector instead of contracting it. No equilibrium keeps all
    three components interior, so the crawl always ends at a box face;
    when an update matches the translation pattern, the largest
    box-feasible multiple of it covers that distance in one sweep. The
    stopping rule is untouched: a jump changes how fast the iteration
    travels, never what it accepts.

    ``rho`` and ``delta`` stack the types' iterates and updates along a
    leading axis in EQUILIBRIUM_TYPES order.
    """
    d_l, d_n, d_a = delta
    scale = np.abs(delta).max(axis=0)
    aligned = (
        (scale > 0)
        & (np.abs(d_n - d_a) <= _DRIFT_PATTERN_RTOL * scale)
        & (np.abs((1 - lam) * d_l + lam * d_n) <= _DRIFT_PATTERN_RTOL * scale)
    )
    wall = np.where(delta > 0, 1.0 - rho, rho)
    step = np.where(delta == 0, np.inf, wall / np.abs(np.where(delta == 0, 1.0, delta)))
    return np.where(aligned, np.maximum(step.min(axis=0), 1.0), 1.0)


def best_response(
    params: NetworkParams,
    env: InfoEnvironment,
    profile: StrategyProfile,
    responder: PlayerType,
):
    """Cost-minimizing split for ``responder`` against a fixed profile.

    Solves expected_cost_route1(rho) = expected_cost_route2(rho) for the
    responder's own split and clamps to [0, 1]. If the responder's population
    is empty its costs do not depend on rho at all; by convention the
    preferred corner is returned (0 when route 1 is dearer, 1 when cheaper,
    0.5 at exact indifference).
    """
    table = belief_uninformative(env, responder)
    g0, slope = _gap_line(params, env, table, profile)
    br = _br_from_line(g0, slope)
    if np.ndim(br) == 0:
        return float(br)
    return br


def _map_array_fields(obj, fn):
    """``obj`` with ``fn`` applied to each array-valued field; scalars stay."""
    changes = {
        f.name: fn(value)
        for f in dataclasses.fields(obj)
        if np.ndim(value := getattr(obj, f.name))
    }
    return dataclasses.replace(obj, **changes) if changes else obj


def solve_fixed_point(
    params: NetworkParams,
    env: InfoEnvironment,
    config: OracleConfig = OracleConfig(),
) -> StrategyProfile:
    """Damped simultaneous best-response iteration from (0.5, 0.5, 0.5).

    Stops once no positive-mass type can gain more than ``config.tolerance``
    minutes by rerouting utilized demand and returns that iterate. Each
    sweep evaluates every type's gap line once; the stopping test applies
    wardrop_residual's per-type defect to the gap read off that line, which
    equals the residual up to rounding, so converged output satisfies
    wardrop_residual <= 10 * tolerance with room to spare. Sweeps that match
    the all-interior translation mode (see _drift_multiplier) are
    fast-forwarded to the nearest box face; they would otherwise crawl
    there over thousands of iterations.

    Fields may be arrays that broadcast against each other. Each instance
    then stops at its own first converged sweep and leaves the working set,
    so every element equals the scalar call at that point bit for bit; the
    profile comes back in the broadcast shape, ``l_population_empty`` too
    (True where lambda = 1, as in solve_bwe).

    Raises OracleConvergenceError after ``config.max_iters`` sweeps. Its
    ``last_profile`` has the input's shape, holding each converged
    instance's stopping iterate and each other instance's last iterate; its
    message names the largest defect among the unconverged instances.
    """
    _require_uninformative(env)
    shape = np.broadcast_shapes(
        *(
            np.shape(getattr(x, f.name))
            for x in (params, env)
            for f in dataclasses.fields(x)
        )
    )

    def flatten(v):
        return np.broadcast_to(v, shape).ravel()

    live_params = _map_array_fields(params, flatten)
    live_env = _map_array_fields(env, flatten)
    # Flat positions of the instances still iterating (a scalar call has
    # one); the iterate, masses, gap lines and updates stack one row per type
    # in EQUILIBRIUM_TYPES order.
    live = np.arange(int(np.prod(shape)))

    def type_masses(env):
        masses = _type_masses(env)
        return np.stack([np.broadcast_to(masses[t], live.shape) for t in EQUILIBRIUM_TYPES])

    rho = np.full((len(EQUILIBRIUM_TYPES),) + live.shape, 0.5)
    final = np.empty_like(rho)
    tables = [belief_uninformative(live_env, t) for t in EQUILIBRIUM_TYPES]
    masses = type_masses(live_env)

    for _ in range(config.max_iters):
        probe = StrategyProfile(*rho)
        lines = [_gap_line(live_params, live_env, table, probe) for table in tables]
        g0, slope = (np.stack(v) for v in zip(*lines))
        defect = _type_defect(g0 + slope * rho, rho, masses).max(axis=0)
        done = defect < config.tolerance
        if done.all():
            break
        delta = DAMPING * (_br_from_line(g0, slope) - rho)
        if done.any():
            keep = ~done
            final[:, live[done]] = rho[:, done]
            rho, delta = rho[:, keep], delta[:, keep]
            live, defect = live[keep], defect[keep]
            live_params = _map_array_fields(live_params, lambda v: v[keep])
            live_env = _map_array_fields(live_env, lambda v: v[keep])
            tables = [belief_uninformative(live_env, t) for t in EQUILIBRIUM_TYPES]
            masses = type_masses(live_env)
        boost = _drift_multiplier(live_env.frac_informed, rho, delta)
        rho = np.clip(rho + boost * delta, 0.0, 1.0)

    final[:, live] = rho
    profile = StrategyProfile(
        *_as_results(*final.reshape((-1,) + shape), env.frac_informed == 1)
    )
    if done.all():  # the loop ended on the break, not on max_iters
        return profile
    raise OracleConvergenceError(
        f"no fixed point within {config.max_iters} iterations "
        f"(worst residual {np.max(defect):.3e})",
        last_profile=profile,
        residual=wardrop_residual(params, env, profile),
    )


@dataclass(frozen=True)
class GridScanResult:
    """Cells of the profile cube whose Wardrop residual is below epsilon.

    ``cell_indices`` holds one (i, j, k) row per accepted cell, indexing
    ``axis_values`` along (rho_L, rho_Hn, rho_Ha); ``cell_residuals`` aligns
    with the rows. ``n_clusters`` counts 26-connected components of the
    accepted set.
    """

    resolution: int
    epsilon: float
    axis_values: np.ndarray
    cell_indices: np.ndarray
    cell_residuals: np.ndarray
    n_clusters: int

    @property
    def cell_width(self) -> float:
        return 1.0 / (self.resolution - 1)

    def nearest_cell(self, profile: StrategyProfile) -> tuple:
        scale = self.resolution - 1
        return tuple(
            int(np.rint(np.clip(v, 0.0, 1.0) * scale))
            for v in (profile.rho_L, profile.rho_Hn, profile.rho_Ha)
        )

    def contains(self, profile: StrategyProfile) -> bool:
        """Whether the accepted set covers the cell nearest to ``profile``."""
        target = self.nearest_cell(profile)
        return any(tuple(row) == target for row in self.cell_indices)


def grid_scan(
    params: NetworkParams,
    env: InfoEnvironment,
    config: OracleConfig,
) -> GridScanResult:
    """Exhaustive epsilon-equilibrium scan of the (rho_L, rho_Hn, rho_Ha) cube.

    epsilon = 10 * (cell diagonal) * (max latency slope) * demand, so the
    accepted set scales with the grid and always covers the cells around a
    true equilibrium. Scalar parameters and environment only: an
    array-valued field raises ``scalar_only``.
    """
    _require_scalar("grid_scan", params, env)
    _require_uninformative(env)
    res = config.grid_resolution
    if res > MAX_SCAN_RESOLUTION:
        raise ValidationError(
            "config_out_of_range",
            f"grid_scan allocates resolution**3 cells; keep grid_resolution "
            f"<= {MAX_SCAN_RESOLUTION}, got {res}",
        )
    axis = np.linspace(0.0, 1.0, res)
    h = 1.0 / (res - 1)
    max_slope = max(params.slope1_incident, params.slope1_normal, params.slope2)
    epsilon = 10.0 * (h * np.sqrt(3.0)) * max_slope * params.demand

    accepted = np.empty((res, res, res), dtype=bool)
    residuals = np.empty((res, res, res))
    grid_hn, grid_ha = np.meshgrid(axis, axis, indexing="ij")
    for i, rho_l in enumerate(axis):
        slab = StrategyProfile(rho_l, grid_hn, grid_ha)
        r = wardrop_residual(params, env, slab)
        residuals[i] = r
        accepted[i] = r <= epsilon

    idx = np.argwhere(accepted)
    return GridScanResult(
        resolution=res,
        epsilon=float(epsilon),
        axis_values=axis,
        cell_indices=idx,
        cell_residuals=residuals[accepted],
        n_clusters=_count_clusters(accepted),
    )


#: The 13 neighbour offsets that follow a cell in C order; with their
#: negatives they make up its 26 neighbours.
_FORWARD_OFFSETS = [d for d in itertools.product((-1, 0, 1), repeat=3) if d > (0, 0, 0)]


def _forward_edges(accepted: np.ndarray, n: int) -> list:
    """(cell, neighbour) number arrays of the accepted pairs, one per offset.

    A function of its own so that the index volume is freed before the
    union-find rounds run.
    """
    shape = accepted.shape
    index = np.full(tuple(s + 2 for s in shape), -1, dtype=np.int32)
    core = index[1:-1, 1:-1, 1:-1]
    core[accepted] = np.arange(n, dtype=np.int32)
    edges = []
    for offset in _FORWARD_OFFSETS:
        neighbour = index[tuple(slice(1 + o, 1 + o + s) for o, s in zip(offset, shape))]
        both = accepted & (neighbour >= 0)
        edges.append((core[both], neighbour[both]))
    return edges


def _count_clusters(accepted: np.ndarray) -> int:
    """Number of 26-connected clusters of True cells in a 3-D volume.

    Vectorized union-find (Hoshen & Kopelman 1976): cells are numbered in an
    int32 volume padded by one cell (-1 outside the set), and each of the
    13 forward offsets keeps its own pair of edge arrays. Every round hooks
    the larger root of each edge that joins two roots onto the smaller one
    (roots as they stood when the round began, so a hook cannot cut a link
    made earlier in the round), then pointer-jumps until every cell points
    at its root; it ends when no edge joins two roots.
    """
    n = int(np.count_nonzero(accepted))
    if n == 0:
        return 0
    edges = _forward_edges(accepted, n)
    parent = np.arange(n, dtype=np.int32)
    while True:
        root = parent.copy()
        hooked = False
        for a, b in edges:
            ra, rb = root[a], root[b]
            apart = ra != rb
            if apart.any():
                hooked = True
                ra, rb = ra[apart], rb[apart]
                np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        if not hooked:
            return int(np.count_nonzero(parent == np.arange(n, dtype=np.int32)))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped


def brute_force_socopt(
    params: NetworkParams,
    state: State,
    config: OracleConfig,
) -> np.ndarray:
    """Load vector minimizing total travel cost in ``state`` by direct scan.

    Scans route-1 load over [0, D] at ``grid_resolution`` points, then
    refines once at 10x resolution inside the winning cell's neighborhood.
    Scalar parameters only: an array-valued field raises ``scalar_only``.
    """
    _require_scalar("brute_force_socopt", params)
    d = params.demand

    def total_cost(q1):
        q2 = d - q1
        return q1 * latency(params, 1, state, q1) + q2 * latency(params, 2, state, q2)

    coarse = np.linspace(0.0, d, config.grid_resolution)
    best = int(np.argmin(total_cost(coarse)))
    step = d / (config.grid_resolution - 1)
    lo = max(0.0, coarse[best] - step)
    hi = min(d, coarse[best] + step)
    fine = np.linspace(lo, hi, 21)
    q1 = float(fine[int(np.argmin(total_cost(fine)))])
    return np.array([q1, d - q1])
