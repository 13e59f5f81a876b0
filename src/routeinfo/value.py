"""Individual, relative, and social value of information.

Every value is a cost reduction against the zero-information baseline:
v_sigma_s = baseline_s - c_sigma_s per population and state, the relative
value v_rel = v_H - v_L (equivalently c_L - c_H, the premium for being
informed), and the social value w_s = baseline_s - c_soc_s. The analysis
scope is the perfectly-informed service (accuracy_high = 1); for any other
accuracy these operations raise a not_analyzed error rather than emit
unvalidated numbers.

``lambda_min`` gives the smallest informed fraction at which expected social
cost is minimized, by the three-way case split on lambda_tilde — the vertex
of the quadratic that expected social cost follows in the third regime.
``verify_theorem1``/``verify_theorem2`` check the monotonicity and
positivity claims numerically over a grid of lambda values: a tuple of
scalar environments, one per lambda (``theorem2_grid`` builds one, by
default of 501 points per regime, the grid that ``verify`` checks). Each
point is evaluated once, in plain Python, and the two checks of one grid
share that evaluation. ``lambda_min`` and ``value_report`` also broadcast
over array-valued environment fields, but nothing here imports numpy: the
grid, the checks and the reports on scalar fields never load it.
"""

from __future__ import annotations

from .costs import cost_report
from .equilibrium import classify, regime_boundaries
from .model import (
    InfoEnvironment,
    NetworkParams,
    ValidationError,
    _as_results,
    _choose,
    _cost_tol,
    _Kept,
    _lambda_free_key,
    _linspace,
    _Record,
    _require_perfect_accuracy,
    _require_uninformative,
    _where,
    replace,
)

#: Slack for comparing informed fractions, which carry no time unit. Costs
#: and values compare within ``model._cost_tol`` instead.
_LAMBDA_TOL = 1e-9


class ValueReport(_Record):
    """Per-state and expected values of information for one environment."""

    v_L_n: float
    v_L_a: float
    v_H_n: float
    v_H_a: float
    v_L_exp: float
    v_H_exp: float
    v_rel_n: float
    v_rel_a: float
    v_rel_exp: float
    w_n: float
    w_a: float
    w_exp: float
    lambda_min: float


def lambda_tilde(params: NetworkParams) -> float:
    """Informed fraction minimizing the third-regime expected social cost."""
    return (2 * params.slope2 * params.demand + params.intercept2 - params.intercept1) / (
        2 * params.demand * (params.slope1_normal + params.slope2)
    )


#: The third regime's social-value shape, by the ``_tilde_case`` index.
_R3_SHAPES = ("decreasing", "peaked", "increasing")


def _tilde_case(params: NetworkParams, env: InfoEnvironment) -> tuple:
    """(case, lambda_tilde, boundaries): case 0 when lambda_tilde <=
    lambda_bar_2, else 1 when lambda_tilde < lambda_bar_3, else 2."""
    bounds = regime_boundaries(params, env)
    tilde = lambda_tilde(params)
    case = _where(tilde <= bounds[1], 0, _where(tilde < bounds[2], 1, 2))
    return case, tilde, bounds


def lambda_min(params: NetworkParams, env: InfoEnvironment) -> float:
    """Smallest informed fraction achieving minimal expected social cost.

    Social value rises through the first regime, is flat through the second,
    and in the third regime follows a quadratic with vertex lambda_tilde,
    so the global cost minimum lands at:
    - lambda_bar_1 when lambda_tilde <= lambda_bar_2 (flat plateau is the max),
    - lambda_tilde when it falls strictly inside the third regime,
    - lambda_bar_3 otherwise (social value still rising when the regime ends).
    """
    _require_uninformative(env)
    _require_perfect_accuracy(env)
    case, tilde, (lb1, _, lb3) = _tilde_case(params, env)
    (lam_min,) = _as_results(_choose(case, (lb1, tilde, lb3)))
    return lam_min


#: The last ``lambda_min`` made in plain Python, kept under its network and
#: the lambda-free fields of its environment.
_LAMBDA_MINS = _Kept()


def value_report(params: NetworkParams, env: InfoEnvironment) -> ValueReport:
    """All value-of-information quantities for one environment.

    Conventions at the edges: with nobody informed every value is zero by
    definition; with everybody informed the uninformed population is empty
    and its value is reported as the informed population's (all players face
    the same equalized costs there), making the relative value zero.
    Array-valued environment fields give arrays of their common shape.
    Every cost comes from one ``cost_report`` call; ``lambda_min`` runs the
    environment checks first, and its evaluation of ``env`` (see
    ``equilibrium``) serves the equilibrium of ``cost_report`` too. It does
    not read lambda, so it is kept, as that evaluation is (see
    ``model._Kept``), and the points of a lambda sweep share one.
    """
    lam_min = _LAMBDA_MINS.get(params, _lambda_free_key(env), lambda_min, params, env)
    r = cost_report(params, env)
    lam = env.frac_informed
    p = env.p_incident

    c_l_n = _where(lam == 1, r.c_H_n, r.c_L_n)
    c_l_a = _where(lam == 1, r.c_H_a, r.c_L_a)
    v_l_n, v_l_a = r.baseline_n - c_l_n, r.baseline_a - c_l_a
    v_h_n, v_h_a = r.baseline_n - r.c_H_n, r.baseline_a - r.c_H_a
    v_l_exp = (1 - p) * v_l_n + p * v_l_a
    v_h_exp = (1 - p) * v_h_n + p * v_h_a
    values = (
        v_l_n, v_l_a, v_h_n, v_h_a, v_l_exp, v_h_exp,
        v_h_n - v_l_n, v_h_a - v_l_a, v_h_exp - v_l_exp,
        r.baseline_n - r.c_soc_n, r.baseline_a - r.c_soc_a,
        r.baseline_exp - r.c_soc_exp,
    )
    return ValueReport(
        *_as_results(*(_where(lam == 0, 0.0, v) for v in values), lam_min)
    )


# ---------------------------------------------------------------------------
# Theorem verification
# ---------------------------------------------------------------------------


def _evaluate(params: NetworkParams, grid: tuple) -> tuple:
    """(value reports, regime labels) at each environment of ``grid``."""
    return (
        [value_report(params, env) for env in grid],
        [classify(params, env).label for env in grid],
    )


#: The last grid's evaluation, kept under its network and the grid, so the
#: two theorem checks of one grid share one evaluation of each point.
_GRID_EVALUATIONS = _Kept()


class Theorem1Report(_Record):
    """Positivity of the relative expected value below the third boundary."""

    passed: bool
    n_checked: int
    failures: list


def verify_theorem1(params: NetworkParams, grid: tuple) -> Theorem1Report:
    """Check: v_rel_exp > 0 strictly below lambda_bar_3, ~0 at or above it.

    ``grid`` holds one scalar environment per informed fraction to check
    (accuracy_high = 1). Boundary membership follows ``classify``: points
    landing in the fourth regime must show |v_rel_exp| within 1e-11 of the
    cost scale intercept2 + slope1_incident * demand, all others a strictly
    positive value. Points with frac_informed = 0 are skipped —
    the relative value compares two populations, and the informed one does
    not exist there. Failures carry (frac_informed, v_rel_exp, expectation).
    """
    reports, labels = _GRID_EVALUATIONS.get(params, (grid,), _evaluate, params, grid)
    tol = _cost_tol(params)
    n_checked = 0
    failures = []
    for env, report, regime in zip(grid, reports, labels):
        lam, v = env.frac_informed, report.v_rel_exp
        if lam == 0:
            continue
        n_checked += 1
        if regime == "R4":
            if abs(v) > tol:
                failures.append((lam, v, "expected ~0 in R4"))
        elif not v > 0:
            failures.append((lam, v, f"expected > 0 in {regime}"))
    return Theorem1Report(passed=not failures, n_checked=n_checked, failures=failures)


class Theorem2Report(_Record):
    """Per-regime shape of expected social value over a lambda grid."""

    passed: bool
    regime_cases: dict
    grid_argmax_lambda: float
    lambda_min: float
    peak_lambda: float | None
    failures: list


def _steps(xs: list) -> list:
    """``np.diff(xs)``."""
    return [b - a for a, b in zip(xs, xs[1:])]


def _check_shape(ws: list, expected: str, regime: str, failures: list, tol: float) -> None:
    """Assert a regime slice is increasing, decreasing or flat in shape.

    Steps within ``tol`` count as flat.
    """
    steps = _steps(ws)
    rises, falls = any(s > tol for s in steps), any(s < -tol for s in steps)
    if expected == "increasing":
        broken = falls or not ws[-1] - ws[0] > tol
    elif expected == "decreasing":
        broken = rises or not ws[0] - ws[-1] > tol
    else:
        broken = rises or falls
    if broken:
        failures.append(f"{regime}: expected {expected} social value")


def verify_theorem2(params: NetworkParams, grid: tuple) -> Theorem2Report:
    """Check the regime-wise shape of w_exp and the location of its maximum.

    ``grid`` holds one scalar environment per informed fraction, in
    increasing order, all with the same p_incident and accuracies
    (``theorem2_grid`` builds a suitable grid). Expected shapes: rising in
    the first regime, flat in the second, the three-way case in the third
    (decreasing / rise-then-fall peaked at lambda_tilde / increasing), flat
    in the fourth. A peaked third regime is checked as rising through the
    grid points at or below lambda_tilde and falling through those at or
    above it. Social value at ``lambda_min`` must reach the grid maximum
    within tolerance, and some grid point within tolerance of that maximum
    must sit within one grid step of ``lambda_min``. The maximum may be attained
    far from ``lambda_min`` as well (the second-regime plateau can tie a
    third-regime peak), so its smallest achiever, reported as
    ``grid_argmax_lambda``, is not checked by location.
    """
    lams = [env.frac_informed for env in grid]
    if len(lams) < 2:
        raise ValueError("need at least two informed fractions to difference")
    if not all(step > 0 for step in _steps(lams)):
        raise ValueError("frac_informed must be sorted")
    reports, labels = _GRID_EVALUATIONS.get(params, (grid,), _evaluate, params, grid)
    ws = [report.w_exp for report in reports]
    tol = _cost_tol(params)
    env = grid[0]

    case, tilde, _ = _tilde_case(params, env)
    r3_case = _R3_SHAPES[case]
    cases = {"R1": "increasing", "R2": "constant", "R3": r3_case, "R4": "constant"}

    failures = []
    for regime, expected in cases.items():
        idx = [i for i, lab in enumerate(labels) if lab == regime]
        if len(idx) < 2:
            continue
        if expected != "peaked":
            _check_shape([ws[i] for i in idx], expected, regime, failures, tol)
            continue
        # Rising up to lambda_tilde and falling after it. The grid step that
        # straddles lambda_tilde may go either way, and a side with fewer
        # than two grid points (lambda_tilde next to an end of the open
        # regime) has no shape to check.
        below = [ws[i] for i in idx if lams[i] <= tilde]
        above = [ws[i] for i in idx if lams[i] >= tilde]
        for side, shape in ((below, "increasing"), (above, "decreasing")):
            if len(side) >= 2:
                _check_shape(side, shape, regime, failures, tol)

    if r3_case == "peaked":
        idx = [i for i, lab in enumerate(labels) if lab == "R3"]
        if idx:
            peak_lam = lams[max(idx, key=ws.__getitem__)]
            r3_step = max(_steps([lams[i] for i in idx]), default=0.0)
            if abs(peak_lam - tilde) > r3_step + _LAMBDA_TOL:
                failures.append(
                    f"R3: peak at {peak_lam:.6f}, expected near {tilde:.6f}"
                )

    w_max = max(ws)
    achievers = [lam for lam, w in zip(lams, ws) if w >= w_max - tol]
    argmax_lam = float(achievers[0])
    lam_min = lambda_min(params, env)
    grid_step = max(_steps(lams))
    if not any(abs(lam - lam_min) <= grid_step + _LAMBDA_TOL for lam in achievers):
        failures.append(
            f"grid argmax of social value at {argmax_lam:.6f}, "
            f"lambda_min predicts {lam_min:.6f}"
        )
    w_at_min = value_report(params, replace(env, frac_informed=lam_min)).w_exp
    if not w_at_min >= w_max - tol:
        failures.append(
            f"social value {w_at_min:.9g} at lambda_min {lam_min:.6f} "
            f"below the grid maximum {w_max:.9g}"
        )

    return Theorem2Report(
        passed=not failures,
        regime_cases=cases,
        grid_argmax_lambda=argmax_lam,
        lambda_min=float(lam_min),
        peak_lambda=float(tilde) if r3_case == "peaked" else None,
        failures=failures,
    )


def theorem2_grid(
    params: NetworkParams, env: InfoEnvironment, points_per_regime: int = 501
) -> tuple:
    """``env`` at each informed fraction of a sorted grid covering all four
    regimes: a tuple of scalar environments, one per lambda, increasing.

    Each regime has ``points_per_regime`` points, by default the 501 of the
    ``verify`` subcommand's grid. Endpoints land exactly on the boundaries
    (classified into the closed regimes); the third regime, open on both
    sides, contributes strictly interior points. Each regime's points are
    those of ``np.linspace`` (``model._linspace``). The result feeds
    verify_theorem1 and verify_theorem2. Raises ``degenerate_grid`` where
    the boundaries leave no strictly increasing grid, as where they
    collapse at a subnormal demand.
    """
    _require_uninformative(env)
    _require_perfect_accuracy(env)
    lb1, lb2, lb3 = regime_boundaries(params, env)
    n = points_per_regime
    lams = [
        *_linspace(0.0, lb1, n, endpoint=False),
        *_linspace(lb1, lb2, n),
        *_linspace(lb2, lb3, n + 2)[1:-1],
        *_linspace(lb3, 1.0, n),
    ]
    if not all(step > 0 for step in _steps(lams)):
        raise ValidationError(
            "degenerate_grid",
            f"regime boundaries {lb1}, {lb2}, {lb3} leave no strictly increasing "
            f"grid of {n} points per regime",
        )
    return tuple(replace(env, frac_informed=lam) for lam in lams)
