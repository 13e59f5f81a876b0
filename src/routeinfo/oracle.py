"""Definition-level checks of the closed forms.

Nothing in this module knows about regimes, boundary formulas, or the derived
K constants: it imports only ``model`` and ``beliefs``, the definitions of
latencies, loads and interim beliefs, so agreement between these checks and the
closed-form equilibrium is genuine two-sided evidence:

- ``wardrop_residual``: the worst equilibrium violation of any profile (equal
  costs across co-utilized routes, no cheaper unused route, each type judged
  under its own belief).
- ``enumerate_profiles``: the full 27-pattern feasibility table, rebuilt from
  scratch and decided exactly, in ``Fraction``s, as structural evidence that
  only the four closed-form patterns survive.
- ``best_response``: one type's clamped equalizer against a fixed profile.
- ``solve_fixed_point``: damped simultaneous best-response iteration over the
  three split fractions.
- ``grid_scan``: exhaustive epsilon-equilibrium scan of the unit cube of
  profiles, one rho_L slab at a time, with a count of the accepted cells'
  26-connected clusters as uniqueness evidence (a raster-order numpy
  union-find that holds two slabs of cell numbers). It keeps only the
  accepted cells, never a volume of the cube.

The equilibrium condition is written once here: ``_type_gaps`` evaluates a
type's route-cost gap as the belief layer's one interim-cost sum
(``beliefs._interim_cost``, the sum of ``expected_route_cost``) over that
type's own belief weights, and the residual adds each type's defect
(``_type_defect``) weighed by its mass (``model._type_masses``). Each gap
is affine in the profile, so its values at four integer probe profiles give
its coefficients ``(g0, C)``. Their one reader, ``_owner_gaps``, gives an
owner's row exactly, in ``Fraction``s, one element at a time
(``_exact_points``): the pattern table solves every pattern in the three
rows by exact elimination, and ``best_response`` clamps the responder's
line; both answer in ``Fraction``s where no input is a float, else in the
nearest floats. Only the fixed point stacks the types' weights by owner
(``_gap_weights``; each row keeps its type's bits): one evaluation of all
three types, each at its own split 0 and 1 with the other splits at the
iterate, pins down every best-response line of a sweep, and what does not
depend on the iterate is built once per working set.
"""

from __future__ import annotations

import functools
import itertools
import operator

import numpy as np

from .beliefs import _informed_weights, _interim_cost, belief_uninformative
from .model import (
    EQUILIBRIUM_TYPES,
    InfoEnvironment,
    NetworkParams,
    OracleConvergenceError,
    PlayerType,
    StrategyProfile,
    ValidationError,
    _as_results,
    _population_demands,
    _Record,
    _require_equilibrium_type,
    _require_scalar,
    _require_splits,
    _require_uninformative,
    _type_masses,
    fields,
    replace,
)

#: Step fraction of the fixed-point iteration toward the best response.
DAMPING = 0.5

#: A grid scan holds one resolution**2 slab of residuals at a time, and
#: keeps 36 bytes per accepted cell: its int64 (i, j, k) row, its float64
#: residual and its int32 union-find parent. At the end the rows and
#: residuals are joined, and the copy briefly takes another 32 bytes per
#: cell. The cap bounds a scan to a few minutes of residual evaluations
#: (400**3 cells) and to about 4.6 GB should it accept every cell.
MAX_SCAN_RESOLUTION = 400


class OracleConfig(_Record):
    """Knobs of the numerical solvers.

    ``grid_resolution`` is ``grid_scan``'s points per scanned axis.
    ``max_iters`` and ``tolerance`` belong to the fixed point: its sweep
    budget, and the residual (minutes) at which it stops. Both counts must
    be integers (``int`` or a numpy integer).
    """

    grid_resolution: int = 101
    max_iters: int = 10_000
    tolerance: float = 1e-10

    def _validate(self) -> None:
        for name, least in (("grid_resolution", 3), ("max_iters", 1)):
            count = getattr(self, name)
            try:
                operator.index(count)
            except TypeError:
                raise ValidationError(
                    "config_out_of_range", f"{name} must be an integer, got {count!r}"
                ) from None
            if count < least:
                raise ValidationError(
                    "config_out_of_range", f"{name} must be >= {least}, got {count}"
                )
        if not self.tolerance > 0:
            raise ValidationError(
                "config_out_of_range",
                f"tolerance must be positive, got {self.tolerance}",
            )


#: A route carrying less than this share of a type's demand is treated as
#: unutilized by the residual check. Numerically converged iterates approach
#: corners geometrically and may hold ~1e-9 of residual mass on a route whose
#: cost is far from minimal; that mass is an artifact, not a utilization.
UTILIZED_SHARE_EPS = 1e-8


def _gap_weights(env: InfoEnvironment, ndim: int) -> dict:
    """Every type's belief weight on each (state, informed type) entry, for
    the fixed point's one evaluation of all three types' gaps.

    Maps each entry, in the order of L's table (L comes first, and its table
    has every entry), to the weights stacked by owner in EQUILIBRIUM_TYPES
    order, then ``ndim`` dimensions that broadcast against the gaps: the
    weights' common dimensions come last. An entry the owner's belief lacks
    weighs the int 0: ``Fraction`` fields stay exact, and a finite float
    cost gains +0.0, so each row keeps the bits of its owner's own gap.
    Scalar weights skip the broadcast.
    """
    tables = [_informed_weights(belief_uninformative(env, t)) for t in EQUILIBRIUM_TYPES]
    entries = tables[0]
    weights = [table.get(entry, 0) for entry in entries for table in tables]
    if any(getattr(w, "ndim", 0) for w in weights):
        stacked = np.stack(np.broadcast_arrays(*weights))
    else:
        stacked = np.array(weights)
    pad = (1,) * (ndim + 1 - stacked.ndim)
    shape = (len(entries), len(tables)) + pad + stacked.shape[1:]
    return dict(zip(entries, stacked.reshape(shape)))


def _type_gaps(params: NetworkParams, demands: tuple, weights: dict, profile):
    """A type's route-1 minus route-2 expected cost under ``weights``.

    ``demands`` come from ``model._population_demands`` and ``weights``
    from one owner's ``_informed_weights``, so each route cost is
    ``beliefs._interim_cost``, the sum of ``expected_route_cost`` under that
    owner's belief. The fixed point passes ``_gap_weights`` instead and gets
    every type's gap, owner axis first; its profile's fields may carry the
    owner axis too, so that each type is evaluated at a profile of its own.
    """
    cost1 = _interim_cost(params, demands, weights, profile, 1)
    return cost1 - _interim_cost(params, demands, weights, profile, 2)


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
    available, with costs taken in expectation under that type's own belief
    weights (``_type_gaps``). A profile is an epsilon-equilibrium exactly
    when the residual is <= epsilon; the residual is NaN where a split is.
    Every split must lie in [0, 1] or be NaN; otherwise ``split_out_of_range``
    names the first value that breaks it, in (L, Hn, Ha) order.
    """
    _require_splits(profile.rho_L, profile.rho_Hn, profile.rho_Ha)
    demands = _population_demands(params, env)
    masses = _type_masses(env)
    defects = []
    for t in EQUILIBRIUM_TYPES:
        weights = _informed_weights(belief_uninformative(env, t))
        gap = _type_gaps(params, demands, weights, profile)
        defects.append(_type_defect(gap, profile.split(t), masses[t]))
    residual = functools.reduce(np.maximum, defects)
    # A NaN split fails both utilization tests, which would pass it as 0.
    for rho in (profile.rho_L, profile.rho_Hn, profile.rho_Ha):
        if np.isnan(np.add.reduce(rho, axis=None, dtype=float)):
            residual = np.where(np.isnan(np.asarray(rho, dtype=float)), np.nan, residual)
    if np.ndim(residual) == 0:
        return float(residual)
    return residual


class ProfileVerdict(_Record):
    """One qualitative pattern from the 27-cell table with its verdict.

    ``pattern`` gives each component of (rho_L, rho_Hn, rho_Ha) as one of
    "0", "int", "1". For equilibrium patterns ``profile`` carries the solved
    split fractions; array-valued fields make every other field an array.
    """

    pattern: tuple
    is_equilibrium: bool
    profile: StrategyProfile | None = None
    note: str = ""


#: The 27 qualitative patterns {0, int, 1}^3 over the components (rho_L,
#: rho_Hn, rho_Ha) of EQUILIBRIUM_TYPES, and for each kind of component the
#: note that names its owner's failure.
_PATTERNS = tuple(itertools.product(("0", "int", "1"), repeat=3))
_FAILURES = {
    "0": "strictly prefers route 1",
    "int": "split leaves [0, 1]",
    "1": "strictly prefers route 2",
}

#: The four probe profiles (origin, e_L, e_Hn, e_Ha) as (rho_L, rho_Hn,
#: rho_Ha). Integers, so that ``Fraction`` gaps stay exact.
_GAP_PROBES = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))


def _owner_gaps(params: NetworkParams, env: InfoEnvironment, owner: PlayerType) -> tuple:
    """``(g0, row)`` with ``owner``'s gap ``g0 + sum_j row[j] * rho_j``,
    splits in (L, Hn, Ha) order: ``_type_gaps`` in plain Python at each
    probe profile, under the owner's belief weights. On scalar ``Fraction``
    fields every coefficient is exact: no unit, no rounding."""
    demands = _population_demands(params, env)
    weights = _informed_weights(belief_uninformative(env, owner))
    g0, *ends = [_type_gaps(params, demands, weights, StrategyProfile(*p)) for p in _GAP_PROBES]
    return g0, [g - g0 for g in ends]


def _exact_gaps(params: NetworkParams, env: InfoEnvironment) -> tuple:
    """``(g0, C)``: the ``_owner_gaps`` rows of the types (L, Hn, Ha)."""
    return tuple(zip(*(_owner_gaps(params, env, t) for t in EQUILIBRIUM_TYPES)))


def _exact_points(params: NetworkParams, env: InfoEnvironment, splits=()) -> tuple:
    """``(shape, number, points)``: the fields the gaps read and ``splits``,
    broadcast together, one point per element in C order.

    A point is ``(network, environment, splits)`` with each value read as
    its exact ``Fraction`` (a float ``x`` as ``Fraction(x)``), or None
    where a split is NaN. ``number`` is the answers' type:
    ``Fraction`` where no input is a float, else ``float``.
    """
    from fractions import Fraction

    read = (*vars(params).values(), env.p_incident, env.frac_informed, env.accuracy_high, *splits)
    shape = np.broadcast_shapes(*map(np.shape, read))
    elements = list(zip(*(np.broadcast_to(v, shape).ravel().tolist() for v in read)))
    number = float if any(isinstance(v, float) for e in elements for v in e) else Fraction
    exact = ([Fraction(v) for v in e] if all(v == v for v in e) else None for e in elements)
    points = [f and (NetworkParams(*f[:6]), InfoEnvironment(*f[6:9]), f[9:]) for f in exact]
    return shape, number, points


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _eliminate(a: list, b: list) -> tuple:
    """``(x, null)`` for ``a x = b`` by Gauss-Jordan elimination.

    Exact on ``Fraction`` entries, and ``x`` and ``null`` hold
    ``Fraction``s. ``x`` is a particular solution, 0 at each free column,
    and None if the system is inconsistent. ``null`` is a basis of the null
    space of ``a``: one vector per free column (a column that depends on the
    columns before it), 1 there and 0 at the other free columns.
    """
    from fractions import Fraction

    n = len(a)
    rows = [[*row, rhs] for row, rhs in zip(a, b)]
    pivots = []
    for col in range(n):
        r = len(pivots)
        pivot = next((i for i in range(r, n) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        head = rows[r][col]
        rows[r] = [v / head for v in rows[r]]
        for i in range(n):
            if i != r and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [v - factor * w for v, w in zip(rows[i], rows[r])]
        pivots.append(col)
    null = []
    for free in (col for col in range(n) if col not in pivots):
        v = [Fraction(col == free) for col in range(n)]
        for i, col in enumerate(pivots):
            v[col] = -rows[i][free]
        null.append(v)
    if any(row[n] != 0 for row in rows[len(pivots) :]):
        return None, null
    x = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        x[col] = rows[i][n]
    return x, null


def _lowest(needs: list, k: int):
    """The lowest ``s`` in Q^k, first component first, with ``c0 + c . s >=
    0`` for every ``(c0, c)`` of ``needs``; None if there is none.

    Fourier-Motzkin elimination of the last component: the needs that raise
    it bound it below, those that lower it bound it above, and each such
    pair holds for some value of it exactly when their combination free of
    it holds. A component that no need bounds below takes the highest value
    its upper bounds allow, 0 if none does.
    """
    if k == 0:
        return [] if all(c0 >= 0 for c0, _ in needs) else None
    lower = [(c0, c) for c0, c in needs if c[-1] > 0]
    upper = [(c0, c) for c0, c in needs if c[-1] < 0]
    rest = [(c0, c[:-1]) for c0, c in needs if c[-1] == 0]
    for c0, c in lower:
        for d0, d in upper:
            u, v = -d[-1], c[-1]
            rest.append((u * c0 + v * d0, [u * ci + v * di for ci, di in zip(c, d[:-1])]))
    head = _lowest(rest, k - 1)
    if head is None:
        return None
    lows = [-(c0 + _dot(c, head)) / c[-1] for c0, c in lower]
    highs = [-(c0 + _dot(c, head)) / c[-1] for c0, c in upper]
    return head + [max(lows, default=min(highs, default=0))]


def _verdict(g0: list, coef: list, pattern: tuple) -> tuple:
    """``(note, splits)`` of ``pattern`` in the exact gaps ``(g0, coef)``:
    the note is empty and the splits a list where it is accepted, the note
    names the failure and the splits are None where it is rejected."""
    interior = [j for j, s in enumerate(pattern) if s == "int"]
    ones = [j for j, s in enumerate(pattern) if s == "1"]
    # Each owner's gap at the pattern's corner: its interior splits at 0.
    gap = [sum((row[j] for j in ones), g) for g, row in zip(g0, coef)]
    block = [[coef[i][j] for j in interior] for i in interior]
    x, null = _eliminate(block, [-gap[i] for i in interior])
    if x is None:
        return "degenerate equalization system", None
    rho = [int(s == "1") for s in pattern]
    for j, v in zip(interior, x):
        rho[j] = v
    # The solutions are rho + sum over k of s[k] * steps[k].
    steps = [[0] * 3 for _ in null]
    for step, v in zip(steps, null):
        for j, vj in zip(interior, v):
            step[j] = vj
    # Each owner's requirements as needs c0 + c . s >= 0, in owner order.
    needs = []
    for t, s in enumerate(pattern):
        if s == "int":
            needs.append((rho[t], [step[t] for step in steps]))
            needs.append((1 - rho[t], [-step[t] for step in steps]))
        else:
            sign = 1 if s == "0" else -1
            at = gap[t] + sum(coef[t][j] * rho[j] for j in interior)
            moves = [sum(coef[t][j] * step[j] for j in interior) for step in steps]
            needs.append((sign * at, [sign * m for m in moves]))
        low = _lowest(needs, len(steps))
        if low is None:
            return f"{EQUILIBRIUM_TYPES[t].value} {_FAILURES[s]}", None
    return "", [r + _dot(low, [step[j] for step in steps]) for j, r in enumerate(rho)]


def enumerate_profiles(params: NetworkParams, env: InfoEnvironment) -> list:
    """Feasibility verdicts for all 27 qualitative patterns {0, int, 1}^3.

    The table is exact. Each field is read as its exact value, a float
    ``x`` as ``Fraction(x)``, and ``_exact_gaps`` gives the affine gaps
    ``(g0, C)`` in ``Fraction``s. In them a pattern is a linear system: an
    interior component equalizes its owner's two routes, with the fixed
    components' terms on the right. Gauss-Jordan elimination solves it in
    ``Fraction``s. A singular system with no solution is a "degenerate
    equalization system"; a consistent one has a particular solution plus
    the null space of its interior block. A pattern is accepted by exact
    inequalities, with no tolerance: every interior split in [0, 1], each
    split fixed at 0 with its owner weakly preferring route 2 (gap >= 0),
    each fixed at 1 with its owner weakly preferring route 1 (gap <= 0).
    Along the null space, Fourier-Motzkin elimination decides whether some
    solution meets them. A rejected pattern's note names the first owner,
    in (L, Hn, Ha) order, whose requirements no solution meets together
    with those of the owners before it; for a non-singular pattern, the
    first that fails at its one solution.

    Which systems are singular follows from the structure of C. The gaps
    read the profile only through route 1's loads under the two signals,
    which do not move along (lambda, -(1 - lambda), -(1 - lambda)): C maps
    that direction to 0, so the all-interior system is singular. Each
    informed type's gap reads only its own signal's load, so C's (Hn, Ha)
    and (Ha, Hn) entries are 0, and each 1 x 1 and 2 x 2 principal minor is
    a product of positive factors (population masses, type probabilities,
    latency slopes): C is a P0 matrix (Cottle, Pang & Stone 1992). So a
    smaller interior block is singular only where one of those factors is
    0: at lambda exactly 0 or 1, where an empty population's splits move no
    load and C's column for each of them is 0. A system that equalizes an
    empty population's owner then has a solution only if that owner is
    indifferent at the other splits' solution, and its null space holds the
    empty population's splits, two of them for the informed one at lambda
    = 0. Every null direction moves no gap, so only the box bounds the
    split along it.

    More than one pattern may be accepted, but all give the same route
    loads. For 0 < lambda < 1, D = diag(1, C[L,Hn] / C[Hn,L], C[L,Ha] /
    C[Ha,L]) is positive and D C is symmetric PSD, so two equilibria x and
    y satisfy (x - y)' D C (x - y) <= 0: they differ along null(D C) =
    span(lambda, -(1 - lambda), -(1 - lambda)), which moves no load.
    ``tests/test_equilibrium.py::test_gap_matrix_certifies_unique_loads``
    checks this certificate exactly. So an accepted singular pattern, whose
    solutions form a segment or a square, reports one of them: the one at
    which its free splits are lowest, the first free split first. That is
    the end with the lowest rho_Ha on the all-interior segment, and 0 for
    an empty population's splits.

    The splits are the exact ones: ``Fraction``s where no field the gaps
    read is a float, else the floats nearest to them. Array-valued fields
    are solved one element at a time and give each element the scalar
    call's verdict: ``is_equilibrium`` and ``note`` are arrays, and
    ``profile`` holds the splits, NaN where the pattern is rejected (None
    in a scalar call). A field the gaps do not read (``accuracy_low``)
    leaves the results scalar.
    """
    _require_uninformative(env)
    shape, number, points = _exact_points(params, env)
    gaps = (_exact_gaps(network, environment) for network, environment, _ in points)
    tables = [[_verdict(g0, coef, pattern) for pattern in _PATTERNS] for g0, coef in gaps]

    verdicts = []
    for pattern, column in zip(_PATTERNS, zip(*tables)):
        notes, splits = zip(*column)
        if shape == ():
            profile = StrategyProfile(*map(number, splits[0])) if splits[0] else None
            verdicts.append(ProfileVerdict(pattern, not notes[0], profile, notes[0]))
            continue
        rows = np.array(
            [list(map(number, split)) if split else [np.nan] * 3 for split in splits],
            dtype=float if number is float else object,
        )
        profile = StrategyProfile(*(rows[:, j].reshape(shape) for j in range(3)))
        ok = np.array([not note for note in notes]).reshape(shape)
        verdicts.append(ProfileVerdict(pattern, ok, profile, np.array(notes).reshape(shape)))
    return verdicts


#: The own splits at which ``_gap_lines`` evaluates each type's gap.
_OWN_ENDS = np.array([0.0, 1.0])

#: (split field, owner) pairs a type's probe takes from the profile: all
#: but the owner's own split.
_OTHER_SPLITS = ~np.eye(len(EQUILIBRIUM_TYPES), dtype=bool)


def _probe_splits(shape: tuple) -> np.ndarray:
    """Probe splits indexed (field, owner, own end) + ``shape``.

    Each owner's own split is set here, to 0 and 1 along the end axis;
    ``_gap_lines`` writes the other splits of each sweep around it.
    """
    owners = np.arange(len(EQUILIBRIUM_TYPES))
    probes = np.empty((len(owners), len(owners), len(_OWN_ENDS)) + shape)
    probes[owners, owners] = _OWN_ENDS.reshape(_OWN_ENDS.shape + (1,) * len(shape))
    return probes


def _gap_lines(params, demands, weights, probes, rho):
    """Every type's route-1-minus-route-2 cost as a line in its own split.

    Returns (gap at own split 0, slope), owner axis first, exact because
    each gap is affine in its owner's split with the other splits held at
    ``rho`` (stacked in EQUILIBRIUM_TYPES order). ``rho`` is written into
    ``probes`` from ``_probe_splits``, and one ``_type_gaps`` call evaluates
    each type at its own probes; each element equals a separate call at that
    type's own split 0 or 1.
    """
    where = _OTHER_SPLITS.reshape(_OTHER_SPLITS.shape + (1,) * (probes.ndim - 2))
    np.copyto(probes, rho[:, None, None], where=where)
    gaps = _type_gaps(params, demands, weights, StrategyProfile(*probes))
    return gaps[:, 0], gaps[:, 1] - gaps[:, 0]


def _br_from_line(g0, slope):
    """Clamped equalizer of an affine cost gap; the preferred corner at a
    slope of exactly 0, an empty responder population whose split moves no
    load. Any other slope is at least about an ulp of the gaps, so ``-g0 /
    slope`` cannot overflow, whatever the time unit."""
    degenerate = slope == 0
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
    responder's own split, exactly, on its row of ``_owner_gaps``:
    intercept ``g0 + sum over j != t of row[j] * rho_j``, slope ``row[t]``,
    clamped to [0, 1]. If the responder's population is empty its costs do
    not depend on rho (slope exactly 0); by convention the preferred corner
    is returned (0 when route 1 is dearer, 1 when cheaper, 1/2 at exact
    indifference). Inputs broadcast and are solved an element at a time, as
    the pattern table is, at a few hundred microseconds each: a ``Fraction``
    where no input is a float, else the nearest float; NaN where another
    type's split is NaN. Another type's split outside [0, 1], infinite ones
    included, raises ``split_out_of_range``, as in ``wardrop_residual``. The
    responder's own split is not read.
    """
    from fractions import Fraction

    _require_uninformative(env)
    _require_equilibrium_type(responder)
    t = EQUILIBRIUM_TYPES.index(responder)
    others = [profile.split(u) for u in EQUILIBRIUM_TYPES if u != responder]
    _require_splits(*others)
    shape, number, points = _exact_points(params, env, others)

    def solve(network, environment, rho):
        g0, row = _owner_gaps(network, environment, responder)
        slope = row.pop(t)
        intercept = g0 + _dot(row, rho)
        corner = 0 if intercept > 0 else 1 if intercept < 0 else Fraction(1, 2)
        return number(min(max(-intercept / slope, 0), 1) if slope else corner)

    answers = [np.nan if point is None else solve(*point) for point in points]
    if shape == ():
        return answers[0]
    return np.array(answers, dtype=float if number is float else object).reshape(shape)


def _map_array_fields(obj, fn):
    """``obj`` with ``fn`` applied to each array-valued field; scalars stay."""
    changes = {
        name: fn(value) for name in fields(obj) if np.ndim(value := getattr(obj, name))
    }
    return replace(obj, **changes) if changes else obj


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
            np.shape(getattr(x, name))
            for x in (params, env)
            for name in fields(x)
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

    def working_set():
        """What the sweeps read but do not change, for the live instances."""
        masses = _type_masses(live_env)
        return (
            _population_demands(live_params, live_env),
            _gap_weights(live_env, 2),  # (own end, instance)
            np.stack([np.broadcast_to(masses[t], live.shape) for t in EQUILIBRIUM_TYPES]),
            _probe_splits(live.shape),
        )

    rho = np.full((len(EQUILIBRIUM_TYPES),) + live.shape, 0.5)
    final = np.empty_like(rho)
    demands, weights, masses, probes = working_set()

    for _ in range(config.max_iters):
        g0, slope = _gap_lines(live_params, demands, weights, probes, rho)
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
            demands, weights, masses, probes = working_set()
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


class GridScanResult(_Record):
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
        return bool((self.cell_indices == self.nearest_cell(profile)).all(axis=1).any())


def grid_scan(
    params: NetworkParams,
    env: InfoEnvironment,
    config: OracleConfig,
) -> GridScanResult:
    """Exhaustive epsilon-equilibrium scan of the (rho_L, rho_Hn, rho_Ha) cube.

    epsilon = 10 * (cell diagonal) * (max latency slope) * demand, so the
    accepted set scales with the grid and always covers the cells around a
    true equilibrium. The cube is scanned one rho_L slab at a time: each
    slab's residuals come from one ``wardrop_residual`` call, and only its
    accepted rows and their residuals are kept, while ``_count_clusters``
    labels the slab. Scalar parameters and environment only: an
    array-valued field raises ``scalar_only``.
    """
    _require_scalar("grid_scan", params, env)
    _require_uninformative(env)
    res = config.grid_resolution
    if res > MAX_SCAN_RESOLUTION:
        raise ValidationError(
            "config_out_of_range",
            f"grid_scan keeps up to resolution**3 accepted cells; keep "
            f"grid_resolution <= {MAX_SCAN_RESOLUTION}, got {res}",
        )
    axis = np.linspace(0.0, 1.0, res)
    h = 1.0 / (res - 1)
    max_slope = max(params.slope1_incident, params.slope1_normal, params.slope2)
    epsilon = 10.0 * (h * np.sqrt(3.0)) * max_slope * params.demand

    grid_hn, grid_ha = np.meshgrid(axis, axis, indexing="ij")
    cells, residuals = [], []

    def accepted_slabs():
        for i, rho_l in enumerate(axis):
            r = wardrop_residual(params, env, StrategyProfile(rho_l, grid_hn, grid_ha))
            accepted = r <= epsilon
            cells.append(np.insert(np.argwhere(accepted), 0, i, axis=1))
            residuals.append(r[accepted])
            yield accepted

    n_clusters = _count_clusters(accepted_slabs())
    return GridScanResult(
        resolution=res,
        epsilon=float(epsilon),
        axis_values=axis,
        cell_indices=np.concatenate(cells),
        cell_residuals=np.concatenate(residuals),
        n_clusters=n_clusters,
    )


#: Neighbour offsets (slab, row, column) of a cell that precede it in C
#: order: the 4 inside its slab and the 9 in the slab before. They are the
#: negatives of the 13 that follow it; together they make up its 26
#: neighbours.
_BACKWARD_OFFSETS = [d for d in itertools.product((-1, 0, 1), repeat=3) if d < (0, 0, 0)]


def _count_clusters(slabs) -> int:
    """Number of 26-connected clusters of True cells in a 3-D volume, given
    slab by slab (an iterable of 2-D bool arrays; a 3-D array is one).

    Raster-order union-find (Hoshen & Kopelman 1976) over one ``parent``
    array: cells are numbered in C order, and only the numbers of the
    current and the previous slab are held, in two int32 windows padded by
    one cell (-1 outside the set). Each slab joins its cells to the cells
    before them in rounds. Every round hooks the larger root of each edge
    onto the smaller one (roots as they stood when the round began), then
    pointer-jumps until every cell of the two windows points at its root;
    the slab is done when no edge joins two roots. Union-find never splits
    a root, so hooking the edges a slab at a time gives the components that
    hooking them all at once gives.
    """
    parent = np.empty(0, dtype=np.int32)
    first = n = 0  # the previous slab's first cell; cells numbered so far
    windows = None
    for slab in slabs:
        if windows is None:
            windows = np.full((2, slab.shape[0] + 2, slab.shape[1] + 2), -1, dtype=np.int32)
            flat = windows.reshape(-1)
            # The offsets as steps between flat positions of ``windows``.
            steps = np.array(_BACKWARD_OFFSETS) @ (np.array(windows.strides) // windows.itemsize)
        m = int(np.count_nonzero(slab))
        end = n + m
        ids = np.arange(n, end)
        windows[0] = windows[1]
        windows[1] = -1
        windows[1, 1:-1, 1:-1][slab] = ids
        if end > parent.size:
            parent = np.concatenate([parent[:n], np.empty(max(n, m), dtype=np.int32)])
        parent[n:end] = ids
        cells = windows[1].size + np.flatnonzero(windows[1] >= 0)  # flat positions
        neighbours = flat[cells[:, None] + steps]
        linked = neighbours >= 0
        a = np.broadcast_to(ids[:, None], linked.shape)[linked]
        b = neighbours[linked].astype(np.intp)  # numpy gathers fastest at intp
        while True:
            ra, rb = parent[a], parent[b]
            if np.array_equal(ra, rb):
                break
            np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
            while True:
                jumped = parent[parent[first:end]]
                if np.array_equal(jumped, parent[first:end]):
                    break
                parent[first:end] = jumped
        first, n = n, end
    return int(np.count_nonzero(parent[:n] == np.arange(n)))
