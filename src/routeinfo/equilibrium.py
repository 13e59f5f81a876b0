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
The same code takes ``Fraction`` fields: ``regime_boundaries``, ``classify``
and ``solve_bwe`` then answer in exact fractions, while ``enumerate_profiles``
and ``oracle.best_response``, which solve in float cost units, answer in
floats. ``solve_bwe`` returns the closed form for the classified regime;
``wardrop_residual`` checks any profile against the equilibrium definition
(equal costs across co-utilized routes, no cheaper unused route, each type
judged under its own belief); ``enumerate_profiles`` rebuilds the full
27-pattern feasibility table from scratch as structural evidence that only
the four closed-form patterns survive. ``_type_gaps`` evaluates all three
types' route-cost gaps in one pass, owner axis first, from four loads and
eight latencies; the residual, ``_affine_gaps`` and the fixed-point oracle
each call it once per evaluation. Each type's gap is affine in the profile,
and ``_affine_gaps`` is the one home of that model's ``(g0, C)``, sized like
the residual by the fields the gaps read and free of the time and flow units
(``model._cost_unit``). The table poses every pattern as one 3 x 3 linear
system in it, and ``oracle.best_response`` reads the responder's line from
it; both broadcast like the closed forms, one element per point. The
fixed-point iteration builds its own lines.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .beliefs import (
    _informed_weights,
    _population_demands,
    _route_load,
    belief_uninformative,
    marginal_type_dist,
)
from .model import (
    EQUILIBRIUM_TYPES,
    InfoEnvironment,
    NetworkParams,
    PlayerType,
    State,
    _as_results,
    _cost_tol,
    _cost_unit,
    _require_uninformative,
    derived_constants,
    latency,
)

#: Ties against a regime boundary within this tolerance resolve to the
#: closed regime there: R2 at both of its ends, R4 at lambda_bar_3, also
#: where lambda_bar_2 lies within this tolerance of it.
BOUNDARY_TOL = 1e-12

#: A route carrying less than this share of a type's demand is treated as
#: unutilized by the residual check. Numerically converged iterates approach
#: corners geometrically and may hold ~1e-9 of residual mass on a route whose
#: cost is far from minimal; that mass is an artifact, not a utilization.
UTILIZED_SHARE_EPS = 1e-8

#: The ``StrategyProfile`` field of each type's split; the uninformed signal
#: types LN and LA play the uninformed split.
_SPLIT_FIELDS = {
    PlayerType.L: "rho_L",
    PlayerType.LN: "rho_L",
    PlayerType.LA: "rho_L",
    PlayerType.HN: "rho_Hn",
    PlayerType.HA: "rho_Ha",
}


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
        try:
            field = _SPLIT_FIELDS[t]
        except KeyError:
            raise ValueError(f"no split fraction for type {t}") from None
        return getattr(self, field)


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
    defined there. Where lambda_bar_2 and lambda_bar_3 lie within
    BOUNDARY_TOL of each other, R4's closed start wins over R2's tolerance:
    R2's closed form is exact only up to lambda_bar_2.
    """
    lb1, lb2, lb3 = bounds
    below_r2 = (lam < lb1 - BOUNDARY_TOL) | (lam == 0)
    below_r3 = below_r2 | ((lam <= lb2 + BOUNDARY_TOL) & (lam < lb3 - BOUNDARY_TOL))
    below_r4 = below_r3 | (lam < lb3 - BOUNDARY_TOL)
    return 3 - below_r2 - below_r3 - below_r4


def classify(params: NetworkParams, env: InfoEnvironment) -> Regime:
    """The regime containing ``env.frac_informed``.

    Membership follows the half-open set definitions (R2 closed on both
    ends, R3 open, R4 closed at lambda_bar_3); ties within BOUNDARY_TOL go
    to the closed regime there (R2 at lambda_bar_1 and lambda_bar_2, R4 at
    lambda_bar_3, which wins where lambda_bar_2 lies within BOUNDARY_TOL of
    it), so the choice is deterministic. The split fractions are continuous
    across the boundaries, so the tie rule is cost-free, and lambda = 0 is
    always R1. Array-valued fields give arrays of labels and boundaries.
    """
    bounds = regime_boundaries(params, env)
    label = _LABELS[_regime_index(env.frac_informed, bounds)]
    return Regime(*_as_results(label, *bounds))


def solve_bwe(params: NetworkParams, env: InfoEnvironment) -> StrategyProfile:
    """Closed-form Bayesian Wardrop equilibrium for the classified regime.

    Each regime's closed form is evaluated at every point and the classified
    one is kept, so array-valued fields solve a whole sweep in one call, and
    ``Fraction`` fields give exact fractions through the same code. At
    lambda = 1 the uninformed population is empty; rho_L is reported as 0
    with ``l_population_empty`` set, so downstream cost formulas never
    silently multiply an undefined fraction by zero demand.
    """
    _require_uninformative(env)
    k = derived_constants(params, env)
    dist = marginal_type_dist(env)
    lam, d, p_hn, p_ha = env.frac_informed, params.demand, dist.p_Hn, dist.p_Ha
    regime = _regime_index(lam, _boundaries(params, k, dist))
    # Every regime's closed form at every point, as a regime x (rho_L,
    # rho_Hn, rho_Ha) table. The denominator bases 1 - lambda (read in R1 and
    # R2) and lambda (from R2 on) are 1 where unread, so no kept branch
    # divides by zero; one may still overflow at extreme floats.
    uninformed = np.where(regime <= 1, 1 - lam, 1)[()]
    informed = np.where(regime >= 1, lam, 1)[()]
    with np.errstate(all="ignore"):
        r34_rho_ha = k.k2 / (informed * d)
        zero = np.zeros_like(r34_rho_ha)
        one = zero + 1
        table = np.array(
            [
                [k.k1 / (uninformed * d) - p_hn * lam / uninformed, one, zero],
                [
                    (k.k1 - lam * d * p_hn - p_ha * k.k2) / (uninformed * d * p_hn),
                    one,
                    (lam * d * p_hn + k.k2 - k.k1) / (informed * d * p_hn),
                ],
                [zero, one, r34_rho_ha],
                [zero, k.k3 / (informed * d), r34_rho_ha],
            ]
        )
    rho_l, rho_hn, rho_ha = np.clip(np.choose(regime, table), 0, 1)
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


#: The (state, informed type) entries of a type's expected route cost, in
#: the order of the L belief's entries. The informed population's type sets
#: the loads, so four loads and eight latencies serve every owner.
_GAP_ENTRIES = tuple(
    itertools.product((State.INCIDENT, State.NORMAL), (PlayerType.HA, PlayerType.HN))
)


def _gap_ndim(params: NetworkParams, env: InfoEnvironment, profile=None) -> int:
    """Dimensions of the gaps at ``profile`` (or of their coefficients, with
    no profile): the most of any field they read."""
    env_read = (env.p_incident, env.frac_informed, env.accuracy_high)
    splits = () if profile is None else (profile.rho_L, profile.rho_Hn, profile.rho_Ha)
    return max(getattr(v, "ndim", 0) for v in (*vars(params).values(), *env_read, *splits))


def _gap_weights(env: InfoEnvironment, ndim: int) -> np.ndarray:
    """Each type's belief weight on each entry of ``_GAP_ENTRIES``.

    Indexed (entry, owner in EQUILIBRIUM_TYPES order), then ``ndim``
    dimensions that broadcast against the gaps: the weights' common
    dimensions come last. An entry the owner's belief lacks weighs the int
    0, so ``Fraction`` fields stay exact. Scalar weights skip the broadcast,
    which costs more than the rest of a scalar residual's weights.
    """
    tables = [_informed_weights(belief_uninformative(env, t)) for t in EQUILIBRIUM_TYPES]
    weights = [table.get(entry, 0) for entry in _GAP_ENTRIES for table in tables]
    if any(getattr(w, "ndim", 0) for w in weights):
        stacked = np.stack(np.broadcast_arrays(*weights))
    else:
        stacked = np.array(weights)
    pad = (1,) * (ndim + 1 - stacked.ndim)
    return stacked.reshape((len(_GAP_ENTRIES), len(tables)) + pad + stacked.shape[1:])


def _type_gaps(params: NetworkParams, demands: tuple, weights: np.ndarray, profile):
    """Every type's route-1 minus route-2 expected cost, owner axis first.

    ``demands`` come from ``beliefs._population_demands`` and ``weights``
    from ``_gap_weights``. The profile's fields may carry the owner axis
    too, so that each type is evaluated at a profile of its own. Each of the
    four loads (route x informed type) and eight latencies is computed once,
    and each owner's route cost is the left-to-right sum of its weighted
    latencies over ``_GAP_ENTRIES``. An entry outside the owner's belief
    adds +0.0, so each gap keeps the bits of ``expected_route_cost`` at
    route 1 minus route 2 under that owner's belief.
    """
    rho_l = profile.rho_L
    costs = []
    for route in (1, 2):
        loads = {
            t: _route_load(demands, rho_l, profile.split(t), route)
            for t in (PlayerType.HA, PlayerType.HN)
        }
        total = 0
        for w, (state, t) in zip(weights, _GAP_ENTRIES):
            total = total + w * latency(params, route, state, loads[t])
        costs.append(total)
    return costs[0] - costs[1]


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
    weights = _gap_weights(env, _gap_ndim(params, env, profile))
    gaps = _type_gaps(params, _population_demands(params, env), weights, profile)
    masses = _type_masses(env)
    residual = 0.0
    for t, gap in zip(EQUILIBRIUM_TYPES, gaps):
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


#: Splits of the four probe profiles (origin, e_L, e_Hn, e_Ha), one row per
#: component of (rho_L, rho_Hn, rho_Ha).
_GAP_PROBES = np.eye(4)[1:]


def _affine_gaps(params: NetworkParams, env: InfoEnvironment) -> tuple:
    """``(g0, C)`` with ``gap[..., t] = g0[..., t] + C[..., t, :] . rho``.

    With the other types' splits held fixed, each type's route-cost gap
    (types L, Hn, Ha) is affine in the profile rho = (rho_L, rho_Hn,
    rho_Ha), so its values at the origin and at the three unit profiles fix
    it exactly. One ``_type_gaps`` call evaluates all three types at all
    four, stacked on a probe axis ahead of the fields' dimensions; each
    element equals a separate call at that probe. Both are the network's own
    divided by ``model._cost_unit``, bit for bit, with every entry below 4.
    """
    unit = _cost_unit(params)
    # Exact steps to cost units: intercepts over the unit, demand over its
    # own power of two, slopes over their ratio, so no factor exceeds 4. Not
    # a NetworkParams, whose validation rejects a slope rounded to 0 here.
    demand, exponent = np.frexp(np.asarray(params.demand, dtype=float))
    exponent = exponent + 1 - np.frexp(unit)[1]
    slopes = ("slope1_normal", "slope1_incident", "slope2")
    in_units = SimpleNamespace(
        **{k: np.ldexp(np.asarray(getattr(params, k), dtype=float), exponent) for k in slopes},
        intercept1=params.intercept1 / unit,
        intercept2=params.intercept2 / unit,
        demand=demand,
    )
    ndim = 1 + _gap_ndim(params, env)
    probes = StrategyProfile(*_GAP_PROBES.reshape(_GAP_PROBES.shape + (1,) * (ndim - 1)))
    weights = _gap_weights(env, ndim)
    gaps = _type_gaps(in_units, _population_demands(in_units, env), weights, probes)
    # (..., profile, type); Fraction weights leave the float gaps in an
    # object array, which np.linalg does not take.
    at = np.moveaxis(np.asarray(gaps, dtype=float), (0, 1), (-1, -2))
    return at[..., 0, :], np.swapaxes(at[..., 1:, :] - at[..., :1, :], -1, -2)


def enumerate_profiles(params: NetworkParams, env: InfoEnvironment) -> list:
    """Feasibility verdicts for all 27 qualitative patterns {0, int, 1}^3.

    In the affine gaps of ``_affine_gaps`` a pattern is a 3 x 3 linear
    system: an interior component equalizes its owner's two routes, a fixed
    one takes its value. Which systems solve follows from the structure of
    C. The gaps read the profile only through route 1's loads under the two
    signals, which do not move along (lambda, -(1 - lambda), -(1 - lambda)):
    C maps that direction to 0, so the all-interior system is singular.
    Each informed type's gap reads only its own signal's load, so C's (Hn,
    Ha) and (Ha, Hn) entries are exactly 0, and each 1 x 1 and 2 x 2
    principal minor is a product of positive factors (population masses,
    type probabilities, latency slopes): C is a P0 matrix (Cottle, Pang &
    Stone 1992). So a smaller interior block is singular only where one of
    those factors is 0, as for the splits of an empty population, and there
    its determinant is exactly 0 (in floats often also where a factor is
    too small to move the gaps). ``det`` factors each system by the LU with
    partial pivoting that ``solve`` uses, so no zero pivot reaches
    ``solve``. That LU is backward stable (Higham 2002): a solved split is
    within about cond * eps of the exact one, where cond grows like
    4 / (1 - p) for R2's block as p -> 1.

    The solved splits are clipped to [0, 1], and every component is judged
    by its owner's gap at the clipped profile with the one cost slack of
    ``model._cost_tol``: an interior split's owner must be indifferent, a
    fixed one's weakly prefer its route (route 2 at 0, route 1 at 1). A
    split that leaves [0, 1] by more than rounding moves its owners' gaps
    past that slack.

    Array-valued fields give each element the scalar call's verdict:
    ``is_equilibrium`` and ``note`` are arrays, and ``profile`` holds the
    solved splits, NaN where the pattern is rejected (None in a scalar call).
    """
    g0, coef = _affine_gaps(params, env)
    # (..., 1, 1), against gaps of shape (..., pattern, component).
    gap_tol = np.asarray(_cost_tol(params) / _cost_unit(params))[..., None, None]
    symbols = np.array(_PATTERNS)
    interior = symbols == "int"
    # Each pattern's profile with its interior components at 0.
    corner = (symbols == "1").astype(float)

    # Every pattern's gaps at its splits, both (..., pattern, component). The
    # sums run in a fixed order, so each element equals the scalar call's.
    def gaps(rho):
        terms = (coef[..., None, :, i] * rho[..., i, None] for i in range(3))
        return g0[..., None, :] + sum(terms)

    # One system per pattern, (..., pattern, 3, 3): an interior component's
    # row is its owner's row of C over the interior columns, equal to minus
    # the gap at the corner; a fixed component's is the identity's, equal to
    # its value. In cost units both kinds of row are on one scale.
    eye = np.eye(3)
    coupled = interior[:, :, None] & interior[:, None, :]
    a = np.where(coupled, coef[..., None, :, :], eye)
    b = np.where(interior, -gaps(corner), corner)
    # Unsolvable systems become the identity. b is (..., pattern, 3, 1):
    # NumPy 2 broadcasts a (..., 3) one differently.
    solvable = (interior.sum(-1) < 3) & (np.linalg.det(a) != 0)
    rho = np.linalg.solve(np.where(solvable[..., None, None], a, eye), b[..., None])[..., 0]
    rho = np.clip(rho, 0, 1)
    gap = gaps(rho)
    # Written as "not holds", so a NaN split or gap holds no inequality.
    bad = np.where(
        interior,
        ~(np.abs(gap) <= gap_tol),
        ~np.where(symbols == "0", gap >= -gap_tol, gap <= gap_tol),
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
