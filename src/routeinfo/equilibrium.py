"""Regime classification and the closed-form equilibrium.

With the low-accuracy service fixed at a coin flip, the game has three
positive-mass types (L, Hn, Ha) and its equilibria fall into four regimes of
the informed fraction lambda, separated by boundaries lambda_bar_1 <=
lambda_bar_2 <= lambda_bar_3. Qualitatively:

- R1 (lambda < lb1): informed players track their signal exactly (route 1 on
  the normal signal, route 2 on the incident signal); the uninformed split.
- R2 (lb1 <= lambda <= lb2): the informed population is too large to fit on
  route 2 after an incident signal, so it splits there ("concentration").
- R3 (lb2 < lambda < lb3): the uninformed abandon route 1 entirely.
- R4 (lb3 <= lambda): the informed split on both signals; route loads hit the
  per-state equalizing values and everyone faces the same costs.

``classify`` and ``solve_bwe`` broadcast over array-valued fields: the
regime is an index computed from the three boundaries, and ``solve_bwe``
evaluates every regime's closed form and keeps the classified one, so a
sweep is one call and each element equals the scalar call at that point.
``solve_bwe`` returns the closed form for the classified regime;
``wardrop_residual`` checks any profile against the equilibrium definition
(equal costs across co-utilized routes, no cheaper unused route, each type
judged under its own belief); ``enumerate_profiles`` rebuilds the full
27-pattern feasibility table from scratch as structural evidence that only
the four closed-form patterns survive. Each type's route-cost gap is affine
in the profile, and ``_affine_gaps`` is the one home of that model's
``(g0, C)``; the table solves each pattern as a box-constrained linear
system in it and broadcasts like the closed forms, one element per point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .beliefs import (
    belief_uninformative,
    expected_route_cost,
    marginal_type_dist,
)
from .model import (
    EQUILIBRIUM_TYPES,
    InfoEnvironment,
    NetworkParams,
    PlayerType,
    _as_results,
    _cost_tol,
    _require_uninformative,
    derived_constants,
)

#: Ties against a regime boundary within this tolerance resolve to the
#: lower-indexed closed regime (R2 at both of its ends, R4 at lambda_bar_3).
BOUNDARY_TOL = 1e-12

#: A route carrying less than this share of a type's demand is treated as
#: unutilized by the residual check. Numerically converged iterates approach
#: corners geometrically and may hold ~1e-9 of residual mass on a route whose
#: cost is far from minimal; that mass is an artifact, not a utilization.
UTILIZED_SHARE_EPS = 1e-8


@dataclass(frozen=True)
class StrategyProfile:
    """Split fractions of each type's demand routed onto route 1.

    ``l_population_empty`` marks profiles produced for lambda = 1, where no
    uninformed players exist and ``rho_L`` is a 0.0 placeholder rather than
    an equilibrium quantity.
    """

    rho_L: float
    rho_Hn: float
    rho_Ha: float
    l_population_empty: bool = False

    def split(self, t: PlayerType):
        if t == PlayerType.HN:
            return self.rho_Hn
        if t == PlayerType.HA:
            return self.rho_Ha
        if t in (PlayerType.L, PlayerType.LN, PlayerType.LA):
            return self.rho_L
        raise ValueError(f"no split fraction for type {t}")


@dataclass(frozen=True)
class Regime:
    """Regime label (R1..R4) with the boundaries it was classified against."""

    label: str
    lambda_bar_1: float
    lambda_bar_2: float
    lambda_bar_3: float

    @property
    def bounds(self) -> tuple:
        return (self.lambda_bar_1, self.lambda_bar_2, self.lambda_bar_3)


@dataclass(frozen=True)
class ProfileVerdict:
    """One qualitative pattern from the 27-cell table with its verdict.

    ``pattern`` gives each component of (rho_L, rho_Hn, rho_Ha) as one of
    "0", "int", "1". For equilibrium patterns ``profile`` carries the solved
    split fractions; array-valued fields make every other field an array.
    """

    pattern: tuple
    is_equilibrium: bool
    profile: StrategyProfile | None = None
    note: str = ""


def _boundaries(params: NetworkParams, k, dist) -> tuple:
    """lambda_bar_1..3 from the derived constants and the type marginals."""
    d, a2 = params.demand, params.slope2
    lb1 = (
        k.k1
        * (k.a1_hat - k.a1_bar * dist.p_Ha)
        / (d * dist.p_Hn * (k.a1_hat + a2 * dist.p_Ha))
    )
    lb2 = (k.k1 - dist.p_Ha * k.k2) / (d * dist.p_Hn)
    lb3 = k.k3 / d
    return (lb1, lb2, lb3)


def regime_boundaries(params: NetworkParams, env: InfoEnvironment) -> tuple:
    """The three lambda thresholds separating the four regimes."""
    _require_uninformative(env)
    return _boundaries(params, derived_constants(params, env), marginal_type_dist(env))


_LABELS = np.array(["R1", "R2", "R3", "R4"])


def _regime_index(lam, bounds):
    """0..3 for R1..R4 at each lambda, by the membership rules of ``classify``.

    Each flag marks lambda below the closed start of the next regime; the
    cumulative ``|`` reads the flags in order, as an ``if``/``elif`` chain
    over the three boundaries would. lambda = 0 is R1 even when
    lambda_bar_1 lies within BOUNDARY_TOL of 0: no other closed form is
    defined there.
    """
    lb1, lb2, lb3 = bounds
    below_r2 = (lam < lb1 - BOUNDARY_TOL) | (lam == 0)
    below_r3 = below_r2 | (lam <= lb2 + BOUNDARY_TOL)
    below_r4 = below_r3 | (lam < lb3 - BOUNDARY_TOL)
    return 3 - below_r2 - below_r3 - below_r4


def classify(params: NetworkParams, env: InfoEnvironment) -> Regime:
    """The regime containing ``env.frac_informed``.

    Membership follows the half-open set definitions (R2 closed on both
    ends, R3 open, R4 closed at lambda_bar_3); ties within BOUNDARY_TOL go
    to the lower-indexed closed regime so the choice is deterministic. The
    split fractions are continuous across the boundaries, so the tie rule is
    cost-free, and lambda = 0 is always R1. Array-valued fields give arrays
    of labels and boundaries.
    """
    bounds = regime_boundaries(params, env)
    label = _LABELS[_regime_index(env.frac_informed, bounds)]
    return Regime(*_as_results(label, *bounds))


def solve_bwe(params: NetworkParams, env: InfoEnvironment) -> StrategyProfile:
    """Closed-form Bayesian Wardrop equilibrium for the classified regime.

    Each regime's closed form is evaluated at every point and the classified
    one is kept, so array-valued fields solve a whole sweep in one call. At
    lambda = 1 the uninformed population is empty; rho_L is reported as 0.0
    with ``l_population_empty`` set, so downstream cost formulas never
    silently multiply an undefined fraction by zero demand.
    """
    _require_uninformative(env)
    k = derived_constants(params, env)
    dist = marginal_type_dist(env)
    # Numpy floats, also for Fraction fields, so that the divisions below
    # follow np.errstate.
    lam, d, p_hn, p_ha, k1, k2, k3 = (
        np.asarray(v, dtype=float)[()]
        for v in (env.frac_informed, params.demand, dist.p_Hn, dist.p_Ha, k.k1, k.k2, k.k3)
    )
    regime = _regime_index(lam, _boundaries(params, k, dist))

    # Every regime's closed form at every point, as a regime x (rho_L,
    # rho_Hn, rho_Ha) table. Branches not taken at a point may divide by
    # zero or overflow there; they are discarded.
    with np.errstate(all="ignore"):
        r34_rho_ha = k2 / (lam * d)
        zero = np.zeros_like(r34_rho_ha)
        one = zero + 1.0
        table = np.array(
            [
                [k1 / ((1 - lam) * d) - p_hn * lam / (1 - lam), one, zero],
                [
                    (k1 - lam * d * p_hn - p_ha * k2) / ((1 - lam) * d * p_hn),
                    one,
                    (lam * d * p_hn + k2 - k1) / (lam * d * p_hn),
                ],
                [zero, one, r34_rho_ha],
                [zero, k3 / (lam * d), r34_rho_ha],
            ]
        )
    rho_l, rho_hn, rho_ha = np.clip(np.choose(regime, table), 0.0, 1.0)
    empty = (regime == 3) & (lam == 1)
    return StrategyProfile(*_as_results(rho_l, rho_hn, rho_ha, empty))


def _type_masses(env: InfoEnvironment) -> dict:
    """Demand share of each equilibrium type: 1-lam, lam*P(Hn), lam*P(Ha)."""
    lam = env.frac_informed
    dist = marginal_type_dist(env)
    return {
        PlayerType.L: 1 - lam,
        PlayerType.HN: lam * dist.p_Hn,
        PlayerType.HA: lam * dist.p_Ha,
    }


def _type_gap(params, env, table, profile):
    """``table.owner``'s route-1 minus route-2 expected cost under its belief."""
    c1 = expected_route_cost(params, env, table, 1, profile)
    c2 = expected_route_cost(params, env, table, 2, profile)
    return c1 - c2


def _type_defect(gap, rho, mass):
    """One type's equilibrium violation, given its route cost gap.

    A route counts as utilized only when it carries more than
    UTILIZED_SHARE_EPS of the type's demand; the defect is the excess cost
    of a utilized route over the cheaper one, and zero-mass types contribute
    nothing.
    """
    gap1 = np.where(rho > UTILIZED_SHARE_EPS, np.maximum(gap, 0.0), 0.0)
    gap2 = np.where(1 - rho > UTILIZED_SHARE_EPS, np.maximum(-gap, 0.0), 0.0)
    return np.where(mass > 0, np.maximum(gap1, gap2), 0.0)


def wardrop_residual(params: NetworkParams, env: InfoEnvironment, profile):
    """Worst equilibrium violation of a profile, in cost units (minutes).

    For each positive-mass type: the gap between the costliest route it
    actually uses (share above UTILIZED_SHARE_EPS) and the cheapest route
    available, with costs taken in expectation under that type's belief. A
    profile is an epsilon-equilibrium exactly when the residual is <=
    epsilon.
    """
    _require_uninformative(env)
    masses = _type_masses(env)
    residual = 0.0
    for t in EQUILIBRIUM_TYPES:
        gap = _type_gap(params, env, belief_uninformative(env, t), profile)
        defect = _type_defect(gap, profile.split(t), masses[t])
        residual = np.maximum(residual, defect)
    if np.ndim(residual) == 0:
        return float(residual)
    return residual


#: The 27 qualitative patterns {0, int, 1}^3 over the components (rho_L,
#: rho_Hn, rho_Ha) of EQUILIBRIUM_TYPES, and for each component of each
#: the note that names its failure.
_PATTERNS = tuple(itertools.product(("0", "int", "1"), repeat=3))
_FAILURES = {
    "0": "strictly prefers route 1",
    "int": "split leaves [0, 1]",
    "1": "strictly prefers route 2",
}
_FAILURE_NOTES = np.array(
    [
        [f"{t.value} {_FAILURES[s]}" for t, s in zip(EQUILIBRIUM_TYPES, p)]
        for p in _PATTERNS
    ]
)


def _pattern_group(k: int) -> tuple:
    """The patterns with ``k`` interior components, as index arrays.

    Returns the pattern numbers (g,), their interior components (g, k), their
    fixed components (g, 3 - k) in ascending order, and the fixed values.
    """
    numbers = [n for n, p in enumerate(_PATTERNS) if p.count("int") == k]
    interior = [[j for j, s in enumerate(_PATTERNS[n]) if s == "int"] for n in numbers]
    fixed = [[j for j, s in enumerate(_PATTERNS[n]) if s != "int"] for n in numbers]
    value = [[float(_PATTERNS[n][j] == "1") for j in row] for n, row in zip(numbers, fixed)]
    return tuple(map(np.array, (numbers, interior, fixed, value)))


#: The patterns with interior components grouped by their number (12 with
#: one, 6 with two, 1 with three), so that each group solves in one call.
_PATTERN_GROUPS = tuple(_pattern_group(k) for k in (1, 2, 3))

#: Condition-number ceiling above which a pattern's equalization system is
#: treated as degenerate rather than solved. Genuine systems stay many orders
#: of magnitude below this; rank-deficient ones sit at 1e15 or worse.
_MAX_SYSTEM_COND = 1e12


def _probe_axis(probes, fields):
    """``probes`` on a new leading axis, ahead of the dimensions of ``fields``.

    A gap evaluated at a profile holding these splits gives one row per
    probe, each element computed as a separate call at that probe would be.
    """
    ndim = max(getattr(v, "ndim", 0) for v in fields)
    return probes.reshape((len(probes),) + (1,) * ndim)


#: Splits of the four probe profiles (origin, e_L, e_Hn, e_Ha), one row per
#: component of (rho_L, rho_Hn, rho_Ha).
_GAP_PROBES = np.eye(4)[1:]


def _affine_gaps(params: NetworkParams, env: InfoEnvironment) -> tuple:
    """``(g0, C)`` with ``gap[..., t] = g0[..., t] + C[..., t, :] . rho``.

    With the other types' splits held fixed, each type's route-cost gap
    (types L, Hn, Ha) is affine in the profile rho = (rho_L, rho_Hn,
    rho_Ha), so its values at the origin and at the three unit profiles fix
    it exactly. One ``_type_gap`` call per type evaluates all four, stacked
    on a leading probe axis.
    """
    fields = (*vars(params).values(), *vars(env).values())
    probes = StrategyProfile(*(_probe_axis(row, fields) for row in _GAP_PROBES))
    gaps = [
        _type_gap(params, env, belief_uninformative(env, t), probes)
        for t in EQUILIBRIUM_TYPES
    ]
    # (..., profile, type)
    at = np.moveaxis(np.stack(np.broadcast_arrays(*gaps), axis=-1), 0, -2)
    return at[..., 0, :], np.swapaxes(at[..., 1:, :] - at[..., :1, :], -1, -2)


def enumerate_profiles(params: NetworkParams, env: InfoEnvironment) -> list:
    """Feasibility verdicts for all 27 qualitative patterns {0, int, 1}^3.

    In the affine gaps of ``_affine_gaps`` a pattern is a linear system:
    interior components must equalize their owner's two routes, components
    fixed at 0 (resp. 1) must make route 2 (resp. 1) weakly cheapest for
    their owner. The pattern is an equilibrium only if the system solves
    with every interior component in [0, 1] and every fixed component's
    inequality holds within the cost slack of ``model._cost_tol``.

    Array-valued fields give each element the scalar call's verdict:
    ``is_equilibrium`` and ``note`` are arrays, and ``profile`` holds the
    solved splits, NaN where the pattern is rejected (None in a scalar call).
    """
    _require_uninformative(env)
    g0, coef = _affine_gaps(params, env)
    # (..., 1, 1), against gaps of shape (..., pattern, component).
    gap_tol = np.asarray(_cost_tol(params))[..., None, None]
    shape = g0.shape[:-1]

    # Splits as (..., pattern, component), solvability as (..., pattern).
    symbols = np.array(_PATTERNS)
    rho = np.where(symbols == "1", 1.0, np.zeros(shape + (1, 1)))
    solvable = np.ones(shape + (len(_PATTERNS),), dtype=bool)
    for n, unknowns, fixed, value in _PATTERN_GROUPS:
        # Each group's systems are (..., pattern, k, k): the interior rows
        # and columns of C, with the fixed components moved to b.
        a = coef[..., unknowns[:, :, None], unknowns[:, None, :]]
        b = -g0[..., unknowns] - sum(
            coef[..., unknowns, fixed[:, i, None]] * value[:, i, None]
            for i in range(fixed.shape[1])
        )
        # np.linalg.solve returns rounding noise, not an error, for a system
        # that is singular up to float dust (the all-interior pattern always
        # is), so screen conditioning first. Screened-out systems become the
        # identity, and one stacked call solves the rest; LAPACK solves each
        # matrix of the stack on its own. b is (..., pattern, k, 1) because
        # NumPy 2 broadcasts a (..., k) right-hand side differently.
        eye = np.eye(unknowns.shape[1])
        ok = np.isfinite(a).all(axis=(-2, -1))
        a = np.where(ok[..., None, None], a, eye)
        ok &= ~(np.linalg.cond(a) > _MAX_SYSTEM_COND)
        x = np.linalg.solve(np.where(ok[..., None, None], a, eye), b[..., None])
        solvable[..., n] = ok & np.isfinite(x).all(axis=(-2, -1))
        rho[..., n[:, None], unknowns] = x[..., 0]

    # All components of all patterns at once; the sums run in a fixed order,
    # so each element equals the scalar call's.
    gap = g0[..., None, :] + sum(
        coef[..., None, :, i] * rho[..., i, None] for i in range(3)
    )
    bad = np.where(
        symbols == "int",
        ~((rho >= 0.0) & (rho <= 1.0)),
        np.where(symbols == "0", gap < -gap_tol, gap > gap_tol),
    )
    rejected = bad.any(axis=-1)
    first_failure = _FAILURE_NOTES[np.arange(len(_PATTERNS)), bad.argmax(axis=-1)]
    note = np.where(rejected, first_failure, "")
    note = np.where(solvable, note, "degenerate equalization system")
    is_equilibrium = solvable & ~rejected
    rho = np.where(is_equilibrium[..., None], rho, np.nan)

    verdicts = []
    for n, pattern in enumerate(_PATTERNS):
        ok, text, *split = _as_results(
            is_equilibrium[..., n], note[..., n], *(rho[..., n, j] for j in range(3))
        )
        profile = None if ok is False else StrategyProfile(*split)
        verdicts.append(ProfileVerdict(pattern, ok, profile=profile, note=text))
    return verdicts
