"""Value of information: definitions, pinned points, and the two theorem checks."""

from collections import Counter
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

import routeinfo.value as value_module
from routeinfo import (
    InfoEnvironment,
    NetworkParams,
    ValidationError,
    cost_report,
    lambda_min,
    lambda_tilde,
    regime_boundaries,
    theorem2_grid,
    value_report,
    verify_theorem1,
    verify_theorem2,
)
from routeinfo.model import _Kept, replace
from strategies import rational_networks, rescaled_networks

PARAMS = NetworkParams(1.0, 3.0, 2.0, 19.0, 21.0, 5.0)


def _env(p=0.2, lam=0.5, eta_h=1.0):
    return InfoEnvironment(p_incident=p, frac_informed=lam, accuracy_high=eta_h)


def _grid(p, points=151):
    return theorem2_grid(PARAMS, _env(p=p), points_per_regime=points)


def _lams(grid):
    """The informed fractions of a theorem grid, in order."""
    return [env.frac_informed for env in grid]


def _nearest(lams, lam):
    """The index of the first of ``lams`` nearest to ``lam``."""
    return min(range(len(lams)), key=lambda i: abs(lams[i] - lam))


# ---------------------------------------------------------------------------
# Report values and identities
# ---------------------------------------------------------------------------


def test_all_values_zero_with_nobody_informed():
    report = value_report(PARAMS, _env(lam=0.0))
    for name in (
        "v_L_n", "v_L_a", "v_H_n", "v_H_a", "v_L_exp", "v_H_exp",
        "v_rel_n", "v_rel_a", "v_rel_exp", "w_n", "w_a", "w_exp",
    ):
        assert getattr(report, name) == 0.0, name
    assert abs(report.lambda_min - 24 / 85) < 1e-12


def test_pinned_values_at_default_point():
    report = value_report(PARAMS, _env(lam=0.5))
    assert abs(report.v_rel_exp - 0.21472110726643623) < 1e-12
    assert abs(report.w_exp - 0.3444041522491297) < 1e-12


@pytest.mark.parametrize("p", [0.2, 0.6])
@pytest.mark.parametrize("lam", [0.1, 0.5, 0.77, 0.9])
def test_values_are_baseline_cost_reductions(p, lam):
    env = _env(p=p, lam=lam)
    v = value_report(PARAMS, env)
    c = cost_report(PARAMS, env)
    assert abs(v.v_L_n - (c.baseline_n - c.c_L_n)) < 1e-12
    assert abs(v.v_H_a - (c.baseline_a - c.c_H_a)) < 1e-12
    assert abs(v.w_n - (c.baseline_n - c.c_soc_n)) < 1e-12
    assert abs(v.w_exp - (c.baseline_exp - c.c_soc_exp)) < 1e-12
    # The relative value is the informed premium, i.e. the cost gap.
    assert abs(v.v_rel_n - (c.c_L_n - c.c_H_n)) < 1e-12
    assert abs(v.v_rel_exp - (v.v_H_exp - v.v_L_exp)) < 1e-12
    # Expectations recombine the per-state pieces with the incident prior.
    assert abs(v.v_L_exp - ((1 - p) * v.v_L_n + p * v.v_L_a)) < 1e-12
    assert abs(v.w_exp - ((1 - p) * v.w_n + p * v.w_a)) < 1e-12


def test_everyone_informed_has_zero_relative_value():
    report = value_report(PARAMS, _env(lam=1.0))
    assert report.v_rel_n == 0.0
    assert report.v_rel_a == 0.0
    assert report.v_rel_exp == 0.0
    assert report.v_L_exp == report.v_H_exp


def test_requires_perfect_accuracy():
    for op in (value_report, lambda_min):
        with pytest.raises(ValidationError) as exc:
            op(PARAMS, _env(eta_h=0.75))
        assert exc.value.code == "not_analyzed"
    with pytest.raises(ValidationError) as exc:
        theorem2_grid(PARAMS, _env(eta_h=0.75))
    assert exc.value.code == "not_analyzed"


def test_rejects_informative_low_accuracy_signal():
    env = InfoEnvironment(0.2, 0.5, accuracy_high=1.0, accuracy_low=0.6)
    with pytest.raises(ValidationError) as exc:
        value_report(PARAMS, env)
    assert exc.value.code == "unsupported_treatment"


# ---------------------------------------------------------------------------
# The social-value minimizer
# ---------------------------------------------------------------------------


def test_lambda_tilde_pinned():
    assert abs(lambda_tilde(PARAMS) - 22 / 30) < 1e-15


def test_lambda_min_case_split():
    # Vertex below the plateau: the first boundary is already optimal.
    assert abs(lambda_min(PARAMS, _env(p=0.2)) - 24 / 85) < 1e-12
    # Vertex strictly inside the third regime: it is the optimum.
    assert abs(lambda_min(PARAMS, _env(p=0.6)) - 22 / 30) < 1e-12


def test_lambda_min_never_past_third_boundary():
    for p in np.linspace(0.05, 0.95, 19):
        env = _env(p=float(p))
        lb3 = regime_boundaries(PARAMS, env)[2]
        assert lambda_min(PARAMS, env) <= lb3 + 1e-12


def _smallest_exact_argmin(params: NetworkParams, p: Fraction) -> Fraction:
    """The smallest argmin over [0, 1] of ``cost_report``'s ``c_soc_exp`` at
    eta_h = 1, from the definition alone: on each regime piece, clipped to
    [0, 1], the cost is the quadratic through three interior points (a
    fourth must lie on it exactly), so its minimum is at a piece end or at
    the vertex of a convex piece."""

    def cost(lam):
        return cost_report(params, InfoEnvironment(p, lam, Fraction(1))).c_soc_exp

    bounds = regime_boundaries(params, InfoEnvironment(p, Fraction(0), Fraction(1)))
    ends = sorted({Fraction(0), Fraction(1), *(min(max(b, 0), 1) for b in bounds)})
    candidates = set(ends)
    for lo, hi in zip(ends, ends[1:]):
        (x1, x2, x3, x4) = (lo + (hi - lo) * Fraction(k, 7) for k in (1, 2, 4, 6))
        y1, y2, y3 = cost(x1), cost(x2), cost(x3)
        f12, f23 = (y2 - y1) / (x2 - x1), (y3 - y2) / (x3 - x2)
        a = (f23 - f12) / (x3 - x1)
        b = f12 - a * (x1 + x2)
        c = y1 - (a * x1 + b) * x1
        assert (a * x4 + b) * x4 + c == cost(x4), f"c_soc_exp is not quadratic on [{lo}, {hi}]"
        if a > 0 and lo < -b / (2 * a) < hi:
            candidates.add(-b / (2 * a))
    costs = {lam: cost(lam) for lam in candidates}
    least = min(costs.values())
    return min(lam for lam, value in costs.items() if value == least)


_HUNDREDTHS_P = st.integers(min_value=1, max_value=99).map(lambda k: Fraction(k, 100))


@given(params=rational_networks(), p=_HUNDREDTHS_P)
@settings(max_examples=40, deadline=None)
# The running example: the first boundary (24/85) at p = 0.2, and the third
# regime's vertex (22/30) at p = 0.6.
@example(params=NetworkParams(*map(Fraction, (1, 3, 2, 19, 21, 5))), p=Fraction(1, 5))
@example(params=NetworkParams(*map(Fraction, (1, 3, 2, 19, 21, 5))), p=Fraction(3, 5))
def test_lambda_min_is_the_smallest_exact_argmin(params, p):
    """``lambda_min`` equals, with ==, the smallest informed fraction that
    minimises the expected social cost, found from ``cost_report`` alone."""
    env = InfoEnvironment(p, Fraction(1, 2), Fraction(1))
    assert lambda_min(params, env) == _smallest_exact_argmin(params, p)


@given(params=rescaled_networks(), p=_HUNDREDTHS_P)
@settings(max_examples=40, deadline=None)
def test_lambda_min_is_the_smallest_exact_argmin_on_exact_float_images(params, p):
    """The same on the exact value of float networks: each field read as
    ``Fraction(x)``, as the pattern table reads a float point."""
    exact = NetworkParams(*(Fraction(v) for v in vars(params).values()))
    env = InfoEnvironment(p, Fraction(1, 2), Fraction(1))
    assert lambda_min(exact, env) == _smallest_exact_argmin(exact, p)


# ---------------------------------------------------------------------------
# Theorem checks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [0.2, 0.6])
def test_informed_premium_positive_below_third_boundary(p):
    grid = _grid(p)
    report = verify_theorem1(PARAMS, grid)
    assert report.passed, report.failures[:5]
    # Every grid point except the empty-population origin is checked.
    assert report.n_checked == len(grid) - 1


def test_social_value_shapes():
    r_02 = verify_theorem2(PARAMS, _grid(0.2))
    assert r_02.passed, r_02.failures
    assert r_02.regime_cases == {
        "R1": "increasing",
        "R2": "constant",
        "R3": "decreasing",
        "R4": "constant",
    }
    assert r_02.peak_lambda is None
    assert abs(r_02.lambda_min - 24 / 85) < 1e-12

    r_06 = verify_theorem2(PARAMS, _grid(0.6))
    assert r_06.passed, r_06.failures
    assert r_06.regime_cases["R3"] == "peaked"
    assert abs(r_06.peak_lambda - 22 / 30) < 1e-12
    assert abs(r_06.lambda_min - 22 / 30) < 1e-12


def test_social_value_rising_case_with_equal_intercepts():
    """With equal free-flow times the third-regime vertex lands on the final
    boundary, so social value rises through the whole regime."""
    params = NetworkParams(1.0, 3.0, 2.0, 19.0, 19.0, 5.0)
    env = InfoEnvironment(0.2, 0.5, 1.0)
    lb3 = regime_boundaries(params, env)[2]
    assert abs(lambda_tilde(params) - lb3) < 1e-12
    assert abs(lambda_min(params, env) - lb3) < 1e-12
    report = verify_theorem2(params, theorem2_grid(params, env, points_per_regime=151))
    assert report.regime_cases["R3"] == "increasing"
    assert report.passed, report.failures


@pytest.mark.parametrize(
    "params,p",
    [
        # lambda_tilde lies between the last third-regime grid point and
        # lambda_bar_3, so the sampled slice only rises.
        (
            NetworkParams(
                1.6900101256424944, 9.262922269419196, 4.46823143430873,
                15.232429658893158, 15.234688233318513, 5.641066366750383,
            ),
            0.3,
        ),
        # lambda_tilde lies between the first two third-regime grid points,
        # and the first is the sampled maximum, so the sampled slice only
        # falls.
        (PARAMS, 0.396),
    ],
    ids=["past_the_last_point", "between_the_first_points"],
)
def test_social_value_peak_next_to_a_third_regime_boundary(params, p):
    env = _env(p=p)
    grid = theorem2_grid(params, env, points_per_regime=501)
    _, lb2, lb3 = regime_boundaries(params, env)
    r3 = [lam for lam in _lams(grid) if lb2 < lam < lb3]
    tilde = lambda_tilde(params)
    assert r3[0] < tilde < r3[1] or r3[-1] < tilde < lb3
    report = verify_theorem2(params, grid)
    assert report.regime_cases["R3"] == "peaked"
    assert report.passed, report.failures


@pytest.mark.parametrize(
    "params,p,points",
    [
        # lambda_tilde sits 3.5e-5 above lambda_bar_2 with no grid point
        # between them, so the sampled third-regime peak ties the
        # second-regime plateau and the plateau's start is the smallest
        # grid maximizer.
        (PARAMS, 0.395, 501),
        # The same tie on a drawn network.
        (
            NetworkParams(
                1.967532287556495, 5.468715626149539, 2.1820824558292524,
                19.67723486648885, 24.385851092320884, 6.241139718150279,
            ),
            0.46365934731902003,
            151,
        ),
    ],
    ids=["running_example", "drawn_network"],
)
def test_social_value_plateau_tying_the_third_regime_peak(params, p, points):
    env = _env(p=p)
    report = verify_theorem2(params, theorem2_grid(params, env, points))
    assert report.passed, report.failures
    lb1, lb2, _ = regime_boundaries(params, env)
    assert report.regime_cases["R3"] == "peaked"
    assert lb2 < lambda_tilde(params) < lb2 + 1e-3
    # The smallest grid maximizer is still reported, far from lambda_min.
    assert report.grid_argmax_lambda == pytest.approx(lb1, abs=1e-12)
    assert report.lambda_min == pytest.approx(lambda_tilde(params), abs=1e-12)
    w_at = value_report(params, _env(p=p, lam=report.lambda_min)).w_exp
    w_plateau = value_report(params, _env(p=p, lam=lb1)).w_exp
    assert w_at >= w_plateau


def test_both_theorem_checks_share_one_evaluation_of_the_grid(monkeypatch):
    """On one grid, ``verify_theorem1`` and then ``verify_theorem2`` make one
    ``value_report`` and one ``classify`` call per point, and one more
    ``value_report`` at ``lambda_min``."""
    calls = Counter()

    def counting(name):
        true = getattr(value_module, name)

        def counted(*args):
            calls[name] += 1
            return true(*args)

        return counted

    for name in ("value_report", "classify"):
        monkeypatch.setattr(value_module, name, counting(name))
    monkeypatch.setattr(value_module, "_GRID_EVALUATIONS", _Kept())
    grid = _grid(0.2, points=20)
    verify_theorem1(PARAMS, grid)
    verify_theorem2(PARAMS, grid)
    assert calls == {"value_report": len(grid) + 1, "classify": len(grid)}


def test_theorem2_catches_a_misplaced_lambda_min(monkeypatch):
    """Both maximum checks fail when lambda_min points into the rising regime."""
    monkeypatch.setattr(value_module, "lambda_min", lambda params, env: 0.1)
    report = verify_theorem2(PARAMS, _grid(0.2))
    assert not report.passed
    assert any(f.startswith("grid argmax of social value") for f in report.failures)
    assert any("below the grid maximum" in f for f in report.failures)


def test_theorem2_rejects_unsorted_grid():
    grid = _grid(0.2, points=5)
    with pytest.raises(ValueError, match="frac_informed must be sorted"):
        verify_theorem2(PARAMS, grid[::-1])


@pytest.mark.parametrize("lams", [(), (0.5,)], ids=["no_point", "one_point"])
def test_theorem2_needs_two_informed_fractions(lams):
    with pytest.raises(ValueError, match="need at least two informed fractions"):
        verify_theorem2(PARAMS, tuple(_env(lam=lam) for lam in lams))


def _doctor(monkeypatch, grid, field, edit):
    """Make ``value_report`` return ``field`` at the points of ``grid``
    through ``edit(lams, values)``, which edits the list of their true
    values in place; every other point stays true. The kept grid
    evaluation is dropped, so the theorem checks read the doctored values."""
    true_report = value_module.value_report
    values = [getattr(true_report(PARAMS, env), field) for env in grid]
    edit(_lams(grid), values)
    edited = dict(zip(grid, values))

    def doctored(params, env):
        report = true_report(params, env)
        if env not in edited:
            return report
        return replace(report, **{field: edited[env]})

    monkeypatch.setattr(value_module, "value_report", doctored)
    monkeypatch.setattr(value_module, "_GRID_EVALUATIONS", _Kept())


def test_theorem1_reports_each_failing_point(monkeypatch):
    """A non-positive value in R1 and a value beyond the tolerance in R4
    fail; a positive R1 value and an R4 value within it pass."""
    doctored = {0.1: 0.0, 0.9: 1e-6, 0.95: 1e-12}

    def edit(lams, values):
        for i, lam in enumerate(lams):
            values[i] = doctored.get(lam, values[i])

    grid = tuple(_env(lam=lam) for lam in (0.0, 0.1, 0.2, 0.9, 0.95))
    _doctor(monkeypatch, grid, "v_rel_exp", edit)
    report = verify_theorem1(PARAMS, grid)
    assert report.passed is False
    assert report.n_checked == 4
    assert report.failures == [
        (0.1, 0.0, "expected > 0 in R1"),
        (0.9, 1e-6, "expected ~0 in R4"),
    ]


def _lower(*lams_to_lower):
    """An edit lowering the social value at the grid points nearest to each
    of ``lams_to_lower`` by 1."""

    def edit(lams, values):
        for lam in lams_to_lower:
            values[_nearest(lams, lam)] -= 1.0

    return edit


def test_theorem2_names_each_broken_shape(monkeypatch):
    """At p = 0.2: R1 falls, R2 is not flat and the decreasing R3 rises."""
    grid = _grid(0.2)
    _doctor(monkeypatch, grid, "w_exp", _lower(0.1, 0.5, 0.78))
    report = verify_theorem2(PARAMS, grid)
    assert report.passed is False
    assert report.failures == [
        "R1: expected increasing social value",
        "R2: expected constant social value",
        "R3: expected decreasing social value",
    ]


def test_theorem2_checks_both_sides_of_a_peak(monkeypatch):
    """At p = 0.6 the third regime peaks at lambda_tilde = 11/15: a dip on
    each side breaks that side's shape, not the peak."""
    grid = _grid(0.6)
    _doctor(monkeypatch, grid, "w_exp", _lower(0.72, 0.78))
    report = verify_theorem2(PARAMS, grid)
    assert report.passed is False
    assert report.failures == [
        "R3: expected increasing social value",
        "R3: expected decreasing social value",
    ]


def test_theorem2_places_the_third_regime_peak(monkeypatch):
    """A peak raised far from lambda_tilde is reported by location, and
    then lambda_min no longer reaches the grid maximum."""
    grid = _grid(0.6)
    lams = _lams(grid)
    at = _nearest(lams, 0.78)

    def raise_one(lams, values):
        values[at] += 1.0

    _doctor(monkeypatch, grid, "w_exp", raise_one)
    report = verify_theorem2(PARAMS, grid)
    w_max = value_report(PARAMS, grid[at]).w_exp + 1.0
    w_min = value_report(PARAMS, _env(p=0.6, lam=22 / 30)).w_exp
    assert report.failures == [
        "R3: expected decreasing social value",
        f"R3: peak at {lams[at]:.6f}, expected near {22 / 30:.6f}",
        f"grid argmax of social value at {lams[at]:.6f}, "
        f"lambda_min predicts {22 / 30:.6f}",
        f"social value {w_min:.9g} at lambda_min {22 / 30:.6f} "
        f"below the grid maximum {w_max:.9g}",
    ]


def test_theorem2_skips_a_regime_with_one_grid_point():
    """A one-point regime has no shape to check (here R1 holds only 0)."""
    grid = _grid(0.2)
    lb1 = regime_boundaries(PARAMS, grid[0])[0]
    report = verify_theorem2(
        PARAMS, tuple(env for env in grid if env.frac_informed == 0 or env.frac_informed >= lb1)
    )
    assert report.passed, report.failures


def test_theorem2_peaked_case_with_no_third_regime_point():
    """Without a third-regime grid point the peak has no place to check."""
    grid = _grid(0.6)
    _, lb2, lb3 = regime_boundaries(PARAMS, grid[0])
    report = verify_theorem2(
        PARAMS, tuple(env for env in grid if env.frac_informed <= lb2 or env.frac_informed >= lb3)
    )
    assert report.regime_cases["R3"] == "peaked"
    assert report.peak_lambda == pytest.approx(22 / 30, abs=1e-12)
    assert report.passed, report.failures


def _concatenated_linspaces(params, env, n):
    """The reference grid: four ``np.linspace`` calls, concatenated."""
    lb1, lb2, lb3 = regime_boundaries(params, env)
    return np.concatenate(
        [
            np.linspace(0.0, lb1, n, endpoint=False),
            np.linspace(lb1, lb2, n),
            np.linspace(lb2, lb3, n + 2)[1:-1],
            np.linspace(lb3, 1.0, n),
        ]
    )


@given(
    params=rescaled_networks(),
    p=st.floats(min_value=1e-13, max_value=1 - 1e-9),
    points=st.integers(min_value=1, max_value=60) | st.just(501),
)
@settings(max_examples=60, deadline=None)
# p = 1e-13 on the running example leaves no increasing grid of 501 points.
@example(params=PARAMS, p=1e-13, points=501)
def test_grid_is_the_bits_of_four_linspaces(params, p, points):
    """``theorem2_grid`` gives one scalar environment per lambda of the four
    concatenated ``np.linspace`` calls, bit for bit and in order, or raises
    ``degenerate_grid`` exactly where those are not strictly increasing."""
    env = _env(p=p)
    want = _concatenated_linspaces(params, env, points)
    if not np.all(np.diff(want) > 0):
        with pytest.raises(ValidationError) as exc:
            theorem2_grid(params, env, points)
        assert exc.value.code == "degenerate_grid"
        return
    grid = theorem2_grid(params, env, points)
    assert type(grid) is tuple
    assert all(replace(g, frac_informed=0.5) == env for g in grid)
    assert [repr(lam) for lam in _lams(grid)] == [repr(lam) for lam in want.tolist()]


# ---------------------------------------------------------------------------
# Grid-level shape facts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [0.2, 0.6])
def test_informed_value_never_negative_and_never_rises(p):
    grid = _grid(p, points=120)
    v_h = [value_report(PARAMS, env).v_H_exp for env in grid if env.frac_informed > 0]
    assert min(v_h) > -1e-9
    assert all(b - a <= 1e-9 for a, b in zip(v_h, v_h[1:])), (
        "being informed should only get less valuable as it gets common"
    )


@pytest.mark.parametrize("p", [0.2, 0.6])
def test_social_value_never_negative(p):
    assert min(value_report(PARAMS, env).w_exp for env in _grid(p, points=120)) > -1e-9
