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
positivity claims numerically over one environment whose ``frac_informed``
is a grid of lambda values (``theorem2_grid`` builds one), in one array
call each: ``lambda_min`` and ``value_report`` broadcast over array-valued
environment fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .beliefs import _require_uninformative
from .costs import cost_report
from .equilibrium import classify, regime_boundaries
from .model import InfoEnvironment, NetworkParams, _as_results, _cost_tol, _enforce

#: Slack for comparing informed fractions, which carry no time unit. Costs
#: and values compare within ``model._cost_tol`` instead.
_LAMBDA_TOL = 1e-9


_PERFECT_ACCURACY_RULE = (
    (
        "not_analyzed",
        lambda eta_h: eta_h == 1,
        lambda eta_h: f"value analysis covers accuracy_high = 1 only, got {eta_h}",
    ),
)


def _require_perfect_accuracy(env: InfoEnvironment) -> None:
    _enforce(_PERFECT_ACCURACY_RULE, eta_h=env.accuracy_high)


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
    (lam_min,) = _as_results(
        np.where(tilde <= lb2, lb1, np.where(tilde < lb3, tilde, lb3))
    )
    return lam_min


def value_report(params: NetworkParams, env: InfoEnvironment) -> ValueReport:
    """All value-of-information quantities for one environment.

    Conventions at the edges: with nobody informed every value is zero by
    definition; with everybody informed the uninformed population is empty
    and its value is reported as the informed population's (all players face
    the same equalized costs there), making the relative value zero.
    Array-valued environment fields give arrays of their common shape.
    Every cost comes from one ``cost_report`` call; ``lambda_min`` runs the
    environment checks first.
    """
    lam_min = lambda_min(params, env)
    r = cost_report(params, env)
    lam = env.frac_informed
    p = env.p_incident

    c_l_n = np.where(lam == 1, r.c_H_n, r.c_L_n)
    c_l_a = np.where(lam == 1, r.c_H_a, r.c_L_a)
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
        *_as_results(*(np.where(lam == 0, 0.0, v) for v in values), lam_min)
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


def verify_theorem1(params: NetworkParams, env: InfoEnvironment) -> Theorem1Report:
    """Check: v_rel_exp > 0 strictly below lambda_bar_3, ~0 at or above it.

    ``env`` holds the informed fractions to check in ``frac_informed``
    (accuracy_high = 1). Boundary membership follows ``classify``: points
    landing in the fourth regime must show |v_rel_exp| within 1e-11 of the
    cost scale intercept2 + slope1_incident * demand, all others a strictly
    positive value. Points with frac_informed = 0 are skipped —
    the relative value compares two populations, and the informed one does
    not exist there. The rest are evaluated in one array call. Failures
    carry (frac_informed, v_rel_exp, expectation).
    """
    lams = np.ravel(env.frac_informed)
    lams = lams[lams != 0]
    env = replace(env, frac_informed=lams)
    v_rel = value_report(params, env).v_rel_exp
    labels = classify(params, env).label
    tol = _cost_tol(params)
    failures = []
    for lam, v, regime in zip(lams.tolist(), v_rel.tolist(), labels.tolist()):
        if regime == "R4":
            if abs(v) > tol:
                failures.append((lam, v, "expected ~0 in R4"))
        elif not v > 0:
            failures.append((lam, v, f"expected > 0 in {regime}"))
    return Theorem1Report(passed=not failures, n_checked=lams.size, failures=failures)


@dataclass(frozen=True)
class Theorem2Report:
    """Per-regime shape of expected social value over a lambda grid."""

    passed: bool
    regime_cases: dict
    grid_argmax_lambda: float
    lambda_min: float
    peak_lambda: float | None
    failures: list = field(default_factory=list)


def _sign(delta: float, tol: float) -> int:
    if delta > tol:
        return 1
    if delta < -tol:
        return -1
    return 0


def _check_shape(ws, expected: str, regime: str, failures: list, tol: float) -> None:
    """Assert a regime slice is increasing, decreasing or flat in shape.

    Steps within ``tol`` count as flat.
    """
    signs = [_sign(ws[i + 1] - ws[i], tol) for i in range(len(ws) - 1)]
    if expected == "increasing":
        if any(s < 0 for s in signs) or not ws[-1] - ws[0] > tol:
            failures.append(f"{regime}: expected increasing social value")
    elif expected == "decreasing":
        if any(s > 0 for s in signs) or not ws[0] - ws[-1] > tol:
            failures.append(f"{regime}: expected decreasing social value")
    elif any(s != 0 for s in signs):
        failures.append(f"{regime}: expected constant social value")


def verify_theorem2(params: NetworkParams, env: InfoEnvironment) -> Theorem2Report:
    """Check the regime-wise shape of w_exp and the location of its maximum.

    ``env`` holds a sorted 1-D array of informed fractions in
    ``frac_informed`` and scalar p_incident and accuracies (``theorem2_grid``
    builds a suitable grid); it is evaluated in one array call. Expected
    shapes: rising in the first regime, flat in the second, the three-way
    case in the third (decreasing / rise-then-fall peaked at lambda_tilde /
    increasing), flat in the fourth. A peaked third regime is checked as
    rising through the grid points at or below lambda_tilde and falling
    through those at or above it. Social value at ``lambda_min`` must reach the grid maximum within
    tolerance, and some grid point within tolerance of that maximum must
    sit within one grid step of ``lambda_min``. The maximum may be attained
    far from ``lambda_min`` as well (the second-regime plateau can tie a
    third-regime peak), so its smallest achiever, reported as
    ``grid_argmax_lambda``, is not checked by location.
    """
    lams = np.asarray(env.frac_informed, dtype=float)
    if lams.ndim != 1 or lams.size < 2:
        raise ValueError("need at least two informed fractions to difference")
    if np.any(np.diff(lams) <= 0):
        raise ValueError("frac_informed must be sorted")
    ws = value_report(params, env).w_exp
    labels = classify(params, env).label.tolist()
    tol = _cost_tol(params)

    lb1, lb2, lb3 = regime_boundaries(params, env)
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
            _check_shape(ws[idx], expected, regime, failures, tol)
            continue
        # Rising up to lambda_tilde and falling after it. The grid step that
        # straddles lambda_tilde may go either way, and a side with fewer
        # than two grid points (lambda_tilde next to an end of the open
        # regime) has no shape to check.
        below = [i for i in idx if lams[i] <= tilde]
        above = [i for i in idx if lams[i] >= tilde]
        for side, shape in ((below, "increasing"), (above, "decreasing")):
            if len(side) >= 2:
                _check_shape(ws[side], shape, regime, failures, tol)

    if r3_case == "peaked":
        idx = [i for i, lab in enumerate(labels) if lab == "R3"]
        if idx:
            peak_lam = lams[idx][int(np.argmax(ws[idx]))]
            r3_step = float(np.max(np.diff(lams[idx]))) if len(idx) > 1 else 0.0
            if abs(peak_lam - tilde) > r3_step + _LAMBDA_TOL:
                failures.append(
                    f"R3: peak at {peak_lam:.6f}, expected near {tilde:.6f}"
                )

    w_max = float(np.max(ws))
    achievers = np.flatnonzero(ws >= w_max - tol)
    argmax_lam = float(lams[achievers[0]])
    lam_min = lambda_min(params, env)
    grid_step = float(np.max(np.diff(lams)))
    if not np.any(np.abs(lams[achievers] - lam_min) <= grid_step + _LAMBDA_TOL):
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
    params: NetworkParams, env: InfoEnvironment, points_per_regime: int = 2001
) -> InfoEnvironment:
    """``env`` with ``frac_informed`` a sorted grid covering all four regimes.

    Endpoints land exactly on the boundaries (classified into the closed
    regimes); the third regime, open on both sides, contributes strictly
    interior points. The result feeds verify_theorem1 and verify_theorem2.
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
    return replace(env, frac_informed=lams)
