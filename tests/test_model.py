"""Parameter validation, latencies, and the derived load constants."""

from types import SimpleNamespace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from routeinfo import (
    InfoEnvironment,
    NetworkParams,
    State,
    ValidationError,
    derived_constants,
    latency,
    route_slope,
    validate,
)

PARAMS = NetworkParams(
    slope1_normal=1.0,
    slope1_incident=3.0,
    slope2=2.0,
    intercept1=19.0,
    intercept2=21.0,
    demand=5.0,
)
ENV = InfoEnvironment(p_incident=0.2, frac_informed=0.5, accuracy_high=1.0)


def _env(**kwargs):
    base = dict(p_incident=0.2, frac_informed=0.5, accuracy_high=1.0, accuracy_low=0.5)
    base.update(kwargs)
    return InfoEnvironment(**base)


def _params(**kwargs):
    base = dict(
        slope1_normal=1.0,
        slope1_incident=3.0,
        slope2=2.0,
        intercept1=19.0,
        intercept2=21.0,
        demand=5.0,
    )
    base.update(kwargs)
    return NetworkParams(**base)


def _unchecked(obj, **changes):
    """The fields of ``obj`` with ``changes`` applied, built without validation."""
    return SimpleNamespace(**{**vars(obj), **changes})


def _code(build, *args, **kwargs):
    """Code of the ValidationError that ``build(*args, **kwargs)`` raises."""
    with pytest.raises(ValidationError) as exc:
        build(*args, **kwargs)
    return exc.value.code


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def test_validate_accepts_default_point():
    assert validate(PARAMS, ENV) == (PARAMS, ENV)


@pytest.mark.parametrize(
    "bad",
    [
        dict(slope1_incident=1.5),  # incident slope not above route 2
        dict(slope1_incident=2.0),  # must be strictly above
        dict(slope2=0.5),  # route 2 below the normal slope
        dict(slope1_normal=0.0),  # slopes must be positive
        dict(slope1_normal=-1.0),
    ],
)
def test_slope_ordering_rejected(bad):
    assert _code(_params, **bad) == "slope_ordering"
    assert _code(validate, _unchecked(PARAMS, **bad), ENV) == "slope_ordering"


@pytest.mark.parametrize(
    "bad",
    [dict(intercept1=22.0), dict(intercept1=-1.0, intercept2=0.0)],
)
def test_intercept_ordering_rejected(bad):
    assert _code(_params, **bad) == "intercept_ordering"
    assert _code(validate, _unchecked(PARAMS, **bad), ENV) == "intercept_ordering"


@pytest.mark.parametrize(
    "bad",
    [
        dict(slope1_incident=np.inf),
        dict(slope2=np.nan),
        dict(intercept1=-np.inf),
        dict(intercept2=np.inf),
        dict(demand=np.inf),
        dict(demand=np.nan),
    ],
)
def test_non_finite_fields_rejected(bad):
    assert _code(_params, **bad) == "not_finite"
    assert _code(validate, _unchecked(PARAMS, **bad), ENV) == "not_finite"


def test_non_finite_array_field_names_its_first_bad_element():
    message = _error(_params, demand=np.array([5.0, np.inf, np.nan]))
    assert message == _error(_params, demand=np.inf)
    assert message.endswith("got (1.0, 3.0, 2.0, 19.0, 21.0, inf)")


def test_demand_floor_is_strict():
    # (intercept2 - intercept1) / slope1_normal = 2: route 2 must ever be used.
    assert _code(_params, demand=2.0) == "demand_too_small"
    assert _code(validate, _unchecked(PARAMS, demand=2.0), ENV) == "demand_too_small"
    validate(_params(demand=2.0 + 1e-9), ENV)


@pytest.mark.parametrize(
    "bad",
    [
        dict(p_incident=0.0),
        dict(p_incident=1.0),
        dict(frac_informed=-0.01),
        dict(frac_informed=1.01),
    ],
)
def test_probability_bounds(bad):
    assert _code(_env, **bad) == "probability_out_of_range"
    assert _code(validate, PARAMS, _unchecked(ENV, **bad)) == "probability_out_of_range"


@pytest.mark.parametrize(
    "bad",
    [
        dict(accuracy_high=0.5),
        dict(accuracy_high=1.01),
        dict(accuracy_low=0.49),
        dict(accuracy_high=0.9, accuracy_low=0.9),
        dict(accuracy_high=0.9, accuracy_low=0.95),
    ],
)
def test_accuracy_bounds(bad):
    assert _code(_env, **bad) == "accuracy_out_of_range"
    assert _code(validate, PARAMS, _unchecked(ENV, **bad)) == "accuracy_out_of_range"


def test_error_message_carries_code():
    with pytest.raises(ValidationError) as exc:
        validate(_params(slope1_normal=0.0), ENV)
    assert str(exc.value).startswith("slope_ordering:")


def test_frac_informed_endpoints_allowed():
    validate(PARAMS, _env(frac_informed=0.0))
    validate(PARAMS, _env(frac_informed=1.0))


def test_validate_skips_a_missing_half():
    assert validate(PARAMS, None) == (PARAMS, None)
    assert validate(None, ENV) == (None, ENV)
    bad_env = _unchecked(ENV, p_incident=1.5)
    assert _code(validate, None, bad_env) == "probability_out_of_range"


def test_construction_checks_every_array_element():
    env = _env(p_incident=np.array([0.1, 0.5]), frac_informed=np.array([0.0, 1.0]))
    assert env.p_incident.shape == (2,)
    assert _code(_env, p_incident=np.array([0.2, 1.5])) == "probability_out_of_range"
    assert _code(_params, slope2=np.array([2.0, 0.5])) == "slope_ordering"


def _error(build, **fields):
    with pytest.raises(ValidationError) as exc:
        build(**fields)
    return str(exc.value)


@pytest.mark.parametrize(
    "build,fields",
    [
        # Element 0 breaks the last environment rule, element 1 the first.
        (
            _env,
            dict(
                p_incident=np.array([0.2, 1.5]),
                accuracy_high=np.array([0.6, 1.0]),
                accuracy_low=np.array([0.7, 0.5]),
            ),
        ),
        # Element 0 breaks the demand rule, element 1 the slope ordering.
        (
            _params,
            dict(slope2=np.array([2.0, 0.5]), demand=np.array([1.0, 5.0])),
        ),
    ],
    ids=["environment", "network"],
)
def test_array_construction_fails_as_a_loop_over_its_elements(build, fields):
    """The error names the first bad element and its first broken rule."""
    first = {k: v[0].item() for k, v in fields.items()}
    second = {k: v[1].item() for k, v in fields.items()}
    assert _error(build, **fields) == _error(build, **first)
    assert _error(build, **first) != _error(build, **second)


# ---------------------------------------------------------------------------
# Latency
# ---------------------------------------------------------------------------


def test_latency_examples():
    assert latency(PARAMS, 1, State.NORMAL, 0.0) == 19.0
    assert abs(latency(PARAMS, 1, State.INCIDENT, 2.4) - 26.2) < 1e-12
    assert latency(PARAMS, 2, State.NORMAL, 2.0) == 25.0
    assert latency(PARAMS, 2, State.INCIDENT, 2.0) == 25.0  # route 2 ignores state


def test_latency_rejects_negative_load():
    with pytest.raises(ValidationError) as exc:
        latency(PARAMS, 1, State.NORMAL, -0.1)
    assert exc.value.code == "negative_load"
    with pytest.raises(ValidationError) as exc:
        latency(PARAMS, 2, State.NORMAL, np.array([0.1, -0.1]))
    assert exc.value.code == "negative_load"


def test_route_slope():
    assert route_slope(PARAMS, 1, State.NORMAL) == 1.0
    assert route_slope(PARAMS, 1, State.INCIDENT) == 3.0
    assert route_slope(PARAMS, 2, State.NORMAL) == 2.0
    assert route_slope(PARAMS, 2, State.INCIDENT) == 2.0


# ---------------------------------------------------------------------------
# Derived constants
# ---------------------------------------------------------------------------


def test_derived_constants_perfect_accuracy():
    k = derived_constants(PARAMS, ENV)
    assert abs(k.k0 - 12.0) < 1e-12
    assert abs(k.a1_bar - 1.4) < 1e-12
    assert abs(k.a1_hat - 0.6) < 1e-12  # (1-p)(1-eta)a1n + p eta a1a
    assert abs(k.a1_tilde - 0.8) < 1e-12
    assert abs(k.k1 - 60 / 17) < 1e-12
    assert abs(k.k2 - 2.4) < 1e-12
    assert abs(k.k3 - 4.0) < 1e-12
    assert abs(k.k4 - 324 / 85) < 1e-12


def test_derived_constants_imperfect_accuracy():
    k = derived_constants(PARAMS, _env(accuracy_high=0.75))
    assert abs(k.a1_hat - 0.65) < 1e-12
    assert abs(k.a1_tilde - 0.75) < 1e-12
    assert abs(k.k2 - 28 / 9) < 1e-12  # 12 * 0.35 / (0.65 + 0.35 * 2)
    assert abs(k.k3 - 156 / 41) < 1e-12  # 12 * 0.65 / (0.75 + 0.65 * 2)


@given(
    p=st.floats(min_value=0.02, max_value=0.98),
    eta=st.floats(min_value=0.51, max_value=1.0),
)
@settings(max_examples=300)
def test_equalizing_loads_ordered(p, eta):
    """The incident-signal load sits below the uninformed one, the normal-signal
    load above it: k2 < k1 < k3 strictly whenever the signal is informative."""
    k = derived_constants(PARAMS, _env(p_incident=p, accuracy_high=eta))
    assert k.k2 < k.k1 < k.k3, f"expected k2 < k1 < k3, got {(k.k2, k.k1, k.k3)}"


@given(
    scale=st.floats(min_value=0.1, max_value=10.0),
    p=st.floats(min_value=0.05, max_value=0.95),
)
@settings(max_examples=200)
def test_derived_constants_scale_with_network(scale, p):
    """Scaling demand and intercepts together scales every load constant."""
    env = _env(p_incident=p)
    base = derived_constants(PARAMS, env)
    scaled = derived_constants(
        _params(
            demand=PARAMS.demand * scale,
            intercept1=PARAMS.intercept1 * scale,
            intercept2=PARAMS.intercept2 * scale,
        ),
        env,
    )
    for name in ("k0", "k1", "k2", "k3", "k4"):
        got = getattr(scaled, name)
        want = getattr(base, name) * scale
        assert abs(got - want) < 1e-9 * max(1.0, abs(want)), (
            f"{name}: {got} != {want} after scaling by {scale}"
        )
