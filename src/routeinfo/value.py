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
positivity claims numerically over caller-supplied environment grids.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .costs import baseline_costs, realized_population_state_cost, social_costs
from .equilibrium import _require_uninformative, classify, regime_boundaries, solve_bwe
from .model import (
    InfoEnvironment,
    NetworkParams,
    State,
    ValidationError,
)

#: Slack for sign classification of finite differences and for "equals zero"
#: assertions on plateaus.
_FLAT_TOL = 1e-9


def _require_perfect_accuracy(env: InfoEnvironment) -> None:
    if np.any(np.asarray(env.accuracy_high) != 1):
        raise ValidationError(
            "not_analyzed",
            f"value analysis covers accuracy_high = 1 only, "
            f"got {env.accuracy_high}",
        )


@dataclass(frozen=True)
class ValueReport:
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
    lb1, lb2, lb3 = regime_boundaries(params, env)
    tilde = lambda_tilde(params)
    if tilde <= lb2:
        return lb1
    if tilde < lb3:
        return tilde
    return lb3


def value_report(params: NetworkParams, env: InfoEnvironment) -> ValueReport:
    """All value-of-information quantities for one environment.

    Conventions at the edges: with nobody informed every value is zero by
    definition; with everybody informed the uninformed population is empty
    and its value is reported as the informed population's (all players face
    the same equalized costs there), making the relative value zero.
    """
    _require_uninformative(env)
    _require_perfect_accuracy(env)
    lam = env.frac_informed
    base_n, base_a, base_exp = baseline_costs(params, env)
    lam_min = lambda_min(params, env)
    p = env.p_incident

    if lam == 0:
        zero = 0.0
        return ValueReport(
            v_L_n=zero, v_L_a=zero, v_H_n=zero, v_H_a=zero,
            v_L_exp=zero, v_H_exp=zero,
            v_rel_n=zero, v_rel_a=zero, v_rel_exp=zero,
            w_n=zero, w_a=zero, w_exp=zero,
            lambda_min=lam_min,
        )

    profile = solve_bwe(params, env)
    c_h_n = realized_population_state_cost(params, env, profile, "H", State.NORMAL)
    c_h_a = realized_population_state_cost(params, env, profile, "H", State.INCIDENT)
    if lam == 1:
        c_l_n, c_l_a = c_h_n, c_h_a
    else:
        c_l_n = realized_population_state_cost(params, env, profile, "L", State.NORMAL)
        c_l_a = realized_population_state_cost(
            params, env, profile, "L", State.INCIDENT
        )
    soc_n, soc_a, soc_exp = social_costs(params, env, profile)

    v_l_n, v_l_a = base_n - c_l_n, base_a - c_l_a
    v_h_n, v_h_a = base_n - c_h_n, base_a - c_h_a
    v_l_exp = (1 - p) * v_l_n + p * v_l_a
    v_h_exp = (1 - p) * v_h_n + p * v_h_a
    return ValueReport(
        v_L_n=float(v_l_n),
        v_L_a=float(v_l_a),
        v_H_n=float(v_h_n),
        v_H_a=float(v_h_a),
        v_L_exp=float(v_l_exp),
        v_H_exp=float(v_h_exp),
        v_rel_n=float(v_h_n - v_l_n),
        v_rel_a=float(v_h_a - v_l_a),
        v_rel_exp=float(v_h_exp - v_l_exp),
        w_n=float(base_n - soc_n),
        w_a=float(base_a - soc_a),
        w_exp=float(base_exp - soc_exp),
        lambda_min=float(lam_min),
    )


# ---------------------------------------------------------------------------
# Theorem verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Theorem1Report:
    """Positivity of the relative expected value below the third boundary."""

    passed: bool
    n_checked: int
    failures: list = field(default_factory=list)


def verify_theorem1(params: NetworkParams, envs) -> Theorem1Report:
    """Check: v_rel_exp > 0 strictly below lambda_bar_3, ~0 at or above it.

    ``envs`` is any iterable of environments (accuracy_high = 1). Boundary
    membership follows ``classify``: environments landing in the fourth
    regime must show |v_rel_exp| <= 1e-9, all others a strictly positive
    value. Environments with frac_informed = 0 are skipped — the relative
    value compares two populations, and the informed one does not exist
    there. Failures carry (frac_informed, v_rel_exp, expectation).
    """
    failures = []
    count = 0
    for env in envs:
        if env.frac_informed == 0:
            continue
        count += 1
        report = value_report(params, env)
        regime = classify(params, env).label
        if regime == "R4":
            if abs(report.v_rel_exp) > _FLAT_TOL:
                failures.append(
                    (env.frac_informed, report.v_rel_exp, "expected ~0 in R4")
                )
        elif not report.v_rel_exp > 0:
            failures.append(
                (env.frac_informed, report.v_rel_exp, f"expected > 0 in {regime}")
            )
    return Theorem1Report(passed=not failures, n_checked=count, failures=failures)


@dataclass(frozen=True)
class Theorem2Report:
    """Per-regime shape of expected social value over a lambda grid."""

    passed: bool
    regime_cases: dict
    grid_argmax_lambda: float
    lambda_min: float
    peak_lambda: float | None
    failures: list = field(default_factory=list)


def _sign(delta: float) -> int:
    if delta > _FLAT_TOL:
        return 1
    if delta < -_FLAT_TOL:
        return -1
    return 0


def _check_shape(ws, expected: str, regime: str, failures: list) -> None:
    """Assert a regime slice is increasing, decreasing or flat in shape."""
    signs = [_sign(ws[i + 1] - ws[i]) for i in range(len(ws) - 1)]
    if expected == "increasing":
        if any(s < 0 for s in signs) or not ws[-1] - ws[0] > _FLAT_TOL:
            failures.append(f"{regime}: expected increasing social value")
    elif expected == "decreasing":
        if any(s > 0 for s in signs) or not ws[0] - ws[-1] > _FLAT_TOL:
            failures.append(f"{regime}: expected decreasing social value")
    elif any(s != 0 for s in signs):
        failures.append(f"{regime}: expected constant social value")


def verify_theorem2(params: NetworkParams, envs) -> Theorem2Report:
    """Check the regime-wise shape of w_exp and the location of its argmax.

    ``envs`` must share p_incident and accuracies and be sorted by
    frac_informed (``theorem2_grid`` builds a suitable grid). Expected
    shapes: rising in the first regime, flat in the second, the three-way
    case in the third (decreasing / rise-then-fall peaked at lambda_tilde /
    increasing), flat in the fourth. A peaked third regime is checked as
    rising through the grid points at or below lambda_tilde and falling
    through those at or above it. The smallest grid lambda attaining the
    maximal w_exp must also sit within one grid step of ``lambda_min``.
    """
    envs = list(envs)
    if len(envs) < 2:
        raise ValueError("need at least two environments to difference")
    lams = np.array([e.frac_informed for e in envs])
    if np.any(np.diff(lams) <= 0):
        raise ValueError("environments must be sorted by frac_informed")
    ws = np.array([value_report(params, e).w_exp for e in envs])
    labels = [classify(params, e).label for e in envs]

    lb1, lb2, lb3 = regime_boundaries(params, envs[0])
    tilde = lambda_tilde(params)
    if tilde <= lb2:
        r3_case = "decreasing"
    elif tilde < lb3:
        r3_case = "peaked"
    else:
        r3_case = "increasing"
    cases = {"R1": "increasing", "R2": "constant", "R3": r3_case, "R4": "constant"}

    failures = []
    for regime, expected in cases.items():
        idx = [i for i, lab in enumerate(labels) if lab == regime]
        if len(idx) < 2:
            continue
        if expected != "peaked":
            _check_shape(ws[idx], expected, regime, failures)
            continue
        # Rising up to lambda_tilde and falling after it. The grid step that
        # straddles lambda_tilde may go either way, and a side with fewer
        # than two grid points (lambda_tilde next to an end of the open
        # regime) has no shape to check.
        below = [i for i in idx if lams[i] <= tilde]
        above = [i for i in idx if lams[i] >= tilde]
        for side, shape in ((below, "increasing"), (above, "decreasing")):
            if len(side) >= 2:
                _check_shape(ws[side], shape, regime, failures)

    if r3_case == "peaked":
        idx = [i for i, lab in enumerate(labels) if lab == "R3"]
        if idx:
            peak_lam = lams[idx][int(np.argmax(ws[idx]))]
            r3_step = float(np.max(np.diff(lams[idx]))) if len(idx) > 1 else 0.0
            if abs(peak_lam - tilde) > r3_step + _FLAT_TOL:
                failures.append(
                    f"R3: peak at {peak_lam:.6f}, expected near {tilde:.6f}"
                )

    # Smallest lambda achieving the maximum within tolerance (plateau-safe).
    achievers = np.flatnonzero(ws >= np.max(ws) - _FLAT_TOL)
    argmax_lam = float(lams[achievers[0]])
    lam_min = lambda_min(params, envs[0])
    grid_step = float(np.max(np.diff(lams)))
    if abs(argmax_lam - lam_min) > grid_step + _FLAT_TOL:
        failures.append(
            f"grid argmax of social value at {argmax_lam:.6f}, "
            f"lambda_min predicts {lam_min:.6f}"
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
    params: NetworkParams, env: InfoEnvironment, points_per_regime: int = 2001
) -> list:
    """Sorted environments covering all four regimes for verify_theorem2.

    Endpoints land exactly on the boundaries (classified into the closed
    regimes); the third regime, open on both sides, contributes strictly
    interior points.
    """
    _require_uninformative(env)
    _require_perfect_accuracy(env)
    lb1, lb2, lb3 = regime_boundaries(params, env)
    n = points_per_regime
    lams = np.concatenate(
        [
            np.linspace(0.0, lb1, n, endpoint=False),
            np.linspace(lb1, lb2, n),
            np.linspace(lb2, lb3, n + 2)[1:-1],
            np.linspace(lb3, 1.0, n),
        ]
    )
    return [
        InfoEnvironment(
            p_incident=env.p_incident,
            frac_informed=float(lam),
            accuracy_high=env.accuracy_high,
            accuracy_low=env.accuracy_low,
        )
        for lam in lams
    ]
