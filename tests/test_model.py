"""Parameter validation, latencies, the derived load constants, and the
record base of the value types."""

import ast
import dataclasses
import inspect
import math
import textwrap
from fractions import Fraction
from types import SimpleNamespace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import routeinfo
from routeinfo import (
    InfoEnvironment,
    NetworkParams,
    OracleConfig,
    State,
    StrategyProfile,
    ValidationError,
    derived_constants,
    grid_scan,
    lambda_min,
    latency,
    realized_population_state_cost,
    route_slope,
    solve_bwe,
    theorem2_grid,
    validate,
)
from routeinfo.model import _Record, _trusted, fields, replace
from strategies import rescaled_networks

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


#: Finite fields whose largest latency, intercept2 + slope1_incident * demand,
#: overflows: every latency and cost gap of the network would be inf or NaN.
_OVERFLOWING = dict(slope1_normal=1e200, slope1_incident=3e200, slope2=2e200, demand=1e200)


@pytest.mark.parametrize("as_array", [False, True], ids=["float", "numpy"])
def test_an_overflowing_largest_latency_is_not_finite(as_array):
    """numpy fields overflow with a warning, which pytest turns into an
    error: validation must reject them without one."""
    fields = {k: np.float64(v) if as_array else v for k, v in _OVERFLOWING.items()}
    assert _error(_params, **fields) == (
        "not_finite: need a finite largest latency intercept2 + "
        "slope1_incident * demand, got 21.0 + 3e+200 * 1e+200"
    )
    assert _code(validate, _unchecked(PARAMS, **fields), ENV) == "not_finite"


def test_the_largest_finite_latency_is_valid():
    """The rule rejects only overflow: a largest latency of three quarters
    of the float maximum is valid, and an array names its first overflowing
    element."""
    top = np.finfo(float).max
    assert _params(demand=top / 4).demand == top / 4
    message = _error(_params, demand=np.array([5.0, top, 1e308]))
    assert message.endswith("got 21.0 + 3.0 * 1.7976931348623157e+308")


def test_fraction_fields_that_break_a_rule_raise_validation_error():
    """Fraction fields become object arrays on the error path; the error
    names their values instead of failing to read them."""
    with pytest.raises(ValidationError) as exc:
        NetworkParams(*map(Fraction, (1, 3, 2, 22, 21, 5)))
    assert str(exc.value) == (
        "intercept_ordering: need intercept2 >= intercept1 >= 0, got (21, 22)"
    )
    with pytest.raises(ValidationError) as exc:
        InfoEnvironment(Fraction(0), Fraction(1, 2), Fraction(1))
    assert str(exc.value) == (
        "probability_out_of_range: p_incident must lie in (0, 1), got 0"
    )


@pytest.mark.parametrize("as_array", [False, True], ids=["float", "numpy"])
def test_demand_floor_is_strict(as_array):
    # (intercept2 - intercept1) / slope1_normal = 2: route 2 must ever be used.
    num = np.float64 if as_array else float
    assert _code(_params, demand=num(2.0)) == "demand_too_small"
    unchecked = _unchecked(PARAMS, demand=num(2.0))
    assert _code(validate, unchecked, ENV) == "demand_too_small"
    validate(_params(demand=num(2.0 + 1e-9)), ENV)
    # On the smallest slope the floor overflows to inf, which numpy fields
    # would warn about; validation rejects it without a warning.
    tiny = num(5e-324)
    assert _error(_params, slope1_normal=tiny) == (
        "demand_too_small: demand 5.0 must exceed "
        "(intercept2 - intercept1)/slope1_normal = inf"
    )
    assert _code(validate, _unchecked(PARAMS, slope1_normal=tiny), ENV) == (
        "demand_too_small"
    )


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


def _scalar_errors(build, fields) -> list:
    """The error of ``build`` on scalar fields (None where it succeeds) at
    each element of the broadcast ``fields``, in C order."""
    arrays = np.broadcast_arrays(*fields.values())
    errors = []
    for index in np.ndindex(arrays[0].shape):
        try:
            build(**{name: a.item(index) for name, a in zip(fields, arrays)})
            errors.append(None)
        except ValidationError as exc:
            errors.append(str(exc))
    return errors


def _fractions(values, shape=(-1,)):
    return np.array([Fraction(v) for v in values], dtype=object).reshape(shape)


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
        # The same, on ``Fraction`` object arrays and scalars.
        (
            _params,
            dict(
                slope1_normal=Fraction(1), slope1_incident=Fraction(3),
                intercept1=Fraction(19), intercept2=Fraction(21),
                slope2=_fractions([2, Fraction(1, 2)]), demand=_fractions([1, 5]),
            ),
        ),
        # A column against a row: element (0, 1) breaks the accuracy rule,
        # (1, 0) the probability rule and (1, 1) both.
        (
            _env,
            dict(p_incident=np.array([[0.2], [1.5]]), accuracy_high=np.array([1.0, 0.4])),
        ),
        # Element (0, 0) breaks the probability rule and the accuracy rule.
        (
            _env,
            dict(
                p_incident=_fractions([Fraction(3, 2), Fraction(1, 5)], (2, 1)),
                accuracy_high=_fractions([Fraction(2, 5), 1]),
            ),
        ),
        # Element (1, 0) is the first whose K2 denominator underflows to 0.
        (
            lambda **env: derived_constants(_params(**_TINY_SLOPES), _env(**env)),
            dict(p_incident=np.array([[0.2], [5e-324]]), accuracy_high=np.array([1.0, 0.75])),
        ),
        # The demand rule divides by slope1_normal, so it is not evaluated
        # where the slope ordering fails: at element 1 of an object array,
        # or at every element of a Python float 0.
        (_params, dict(slope1_normal=_fractions([1, 0]))),
        (_params, dict(slope1_normal=0.0, slope1_incident=np.array([3.0, np.inf]))),
    ],
    ids=[
        "environment", "network", "fraction", "broadcast", "two_rules", "denominator",
        "zero_slope_element", "zero_slope_scalar",
    ],
)
def test_array_construction_fails_as_a_loop_over_its_elements(build, fields):
    """The error names the first bad element in C order and its first
    broken rule, in the text of that element's scalar construction; the
    elements' outcomes differ, so another element's would not do."""
    errors = _scalar_errors(build, fields)
    assert len(set(errors)) > 1
    assert _error(build, **fields) == next(e for e in errors if e is not None)


@pytest.mark.parametrize(
    "build,fields,shapes",
    [
        (
            _env,
            dict(p_incident=np.array([0.2, 0.3]), frac_informed=np.array([0.1, 0.2, 0.3])),
            "[(2,), (3,), (), ()]",
        ),
        (
            _params,
            dict(slope2=np.array([2.0, 2.5]), demand=np.array([5.0, 6.0, 7.0])),
            "[(), (), (2,), (), (), (3,)]",
        ),
        (
            lambda **splits: StrategyProfile(**{"rho_Ha": 0.0, **splits}),
            dict(rho_L=np.array([0.1, 0.2]), rho_Hn=np.array([0.1, 0.2, 0.3])),
            "[(2,), (3,), ()]",
        ),
        (
            lambda **splits: replace(StrategyProfile(0.1, 0.2, 0.0), **splits),
            dict(rho_Hn=np.array([0.1, 0.2]), rho_Ha=np.array([0.1, 0.2, 0.3])),
            "[(), (2,), (3,)]",
        ),
    ],
    ids=["environment", "network", "profile", "replaced-profile"],
)
def test_fields_that_do_not_broadcast_are_a_shape_mismatch(build, fields, shapes):
    """Array fields whose shapes do not broadcast together are rejected at
    construction with ``shape_mismatch``, which names the fields' shapes in
    order (a profile's splits), not with numpy's broadcast error, then or at
    the first solver or reader."""
    assert _error(build, **fields) == (
        f"shape_mismatch: fields must broadcast to one shape, got shapes {shapes}"
    )


def test_fields_of_an_empty_shape_break_no_rule():
    """Fields that broadcast to an empty shape have no element, so, as a
    loop over their elements would, they break no rule, whatever the scalar
    fields beside them; the closed forms then answer empty arrays."""
    env = InfoEnvironment(np.array([]), 0.5, 0.4)
    assert env.p_incident.shape == (0,) and env.accuracy_high == 0.4
    params = _params(slope2=0.5, demand=np.empty((2, 0)))
    assert params.demand.shape == (2, 0)
    profile = solve_bwe(PARAMS, InfoEnvironment(np.array([]), 0.5, 1.0))
    assert [np.shape(v) for v in vars(profile).values()] == [(0,)] * 4


@pytest.mark.parametrize("slope", [np.float32(3e30), 3e30], ids=["float32", "python_float"])
def test_an_array_element_is_checked_in_its_arrays_type(slope):
    """A float32 demand whose largest latency overflows to inf at element 0
    in float32, though not in Python floats, with a float32 or Python float
    incident slope: the array's verdict stands, and the message prints the
    element's values as Python floats."""
    f32 = np.float32
    fields = dict(
        slope1_normal=f32(1), slope1_incident=slope, slope2=f32(2),
        intercept1=f32(19), intercept2=f32(21), demand=np.array([3e8, 5], dtype=f32),
    )
    assert _error(NetworkParams, **fields) == (
        "not_finite: need a finite largest latency intercept2 + slope1_incident * demand, "
        f"got 21.0 + {float(slope)!r} * 300000000.0"
    )
    NetworkParams(**{k: np.ravel(v)[0].item() for k, v in fields.items()})


#: Factors of a valid network's field: 1 keeps it; the others can break
#: its orderings, its finiteness, or several rules at once.
_FACTORS = (1.0, 0.5, 2.0, 0.0, -1.0, math.inf, math.nan)


@given(params=rescaled_networks(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_array_network_fails_as_a_loop_over_its_elements(params, data):
    """Two fields of a valid network become a column and a row of factors
    times their values, broadcast in 2-D. Construction raises exactly where
    some element's scalar construction does, with the text of the first
    such element in C order."""
    column, row = data.draw(
        st.lists(st.sampled_from(fields(NetworkParams)), min_size=2, max_size=2, unique=True)
    )
    factors = st.lists(st.sampled_from(_FACTORS), min_size=1, max_size=3)
    with np.errstate(invalid="ignore"):  # inf * 0 is NaN
        changed = {
            column: np.array(data.draw(factors))[:, None] * getattr(params, column),
            row: np.array(data.draw(factors)) * getattr(params, row),
        }
    grid = {**vars(params), **changed}
    errors = [e for e in _scalar_errors(NetworkParams, grid) if e is not None]
    if errors:
        assert _error(NetworkParams, **grid) == errors[0]
    else:
        NetworkParams(**grid)


# ---------------------------------------------------------------------------
# Latency
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "call",
    [
        lambda env: lambda_min(PARAMS, env),
        lambda env: theorem2_grid(PARAMS, env),
        lambda env: realized_population_state_cost(
            PARAMS, env, StrategyProfile(0.5, 0.5, 0.5), "L", State.NORMAL
        ),
        lambda env: grid_scan(PARAMS, env, OracleConfig(grid_resolution=401)),
    ],
    ids=[
        "lambda_min",
        "theorem2_grid",
        "realized_population_state_cost",
        "grid_scan",
    ],
)
def test_the_coin_flip_rule_comes_first(call):
    """An informative uninformed service is named before the value
    analysis's accuracy_high = 1 and the grid scan's resolution cap, which
    this environment and resolution 401 break too."""
    env = InfoEnvironment(0.2, 0.5, accuracy_high=0.9, accuracy_low=0.6)
    with pytest.raises(ValidationError) as exc:
        call(env)
    assert exc.value.code == "unsupported_treatment"


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
    with pytest.raises(ValueError, match="route must be 1 or 2, got 3"):
        route_slope(PARAMS, 3, State.NORMAL)


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


#: Valid slopes near 1e-9 at which, with p_incident 5e-324 and a perfect
#: service, a1_hat + P(Ha) * slope2 underflows to 0.
_TINY_SLOPES = dict(
    slope1_normal=1e-9, slope1_incident=3e-9, slope2=2e-9, intercept1=0.0, intercept2=0.0
)


def test_a_vanishing_denominator_of_k2_is_not_finite():
    """A point that validation accepts but whose K2 would divide by 0 raises
    ``not_finite``, not ZeroDivisionError; an array names its first such
    point."""
    params = _params(**_TINY_SLOPES)
    message = _error(derived_constants, params=params, env=_env(p_incident=5e-324))
    assert message == (
        "not_finite: need nonzero a1_hat + P(Ha) * slope2 and a1_tilde + P(Hn) * slope2, "
        "the denominators of K2 and K3, got 0.0 and 3.0000000000000004e-09 at "
        "p_incident 5e-324, accuracy_high 1.0"
    )
    sweep = _env(p_incident=np.array([0.2, 5e-324, 5e-324]))
    assert _error(derived_constants, params=params, env=sweep) == message
    assert derived_constants(params, _env(p_incident=1e-300)).k2 > 0


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


# ---------------------------------------------------------------------------
# Records: the semantics of a frozen dataclass
# ---------------------------------------------------------------------------

#: The public value types, every one a ``model._Record``.
RECORDS = sorted(
    name
    for name in routeinfo.__all__
    if isinstance(obj := getattr(routeinfo, name), type) and issubclass(obj, _Record)
)


def test_every_value_type_is_a_record():
    assert RECORDS == [
        "BeliefTable", "CostReport", "DerivedConstants",
        "GridScanResult", "InfoEnvironment", "MarginalTypeDist", "NetworkParams",
        "OracleConfig", "ProfileVerdict", "Regime", "SocOptSolution",
        "StrategyProfile", "Theorem1Report", "Theorem2Report", "ValueReport",
    ]


def _twin(cls):
    """The ``@dataclass(frozen=True)`` that ``cls``'s own declaration makes:
    its annotated fields, in order, with their literal defaults."""
    body = ast.parse(textwrap.dedent(inspect.getsource(cls))).body[0].body
    spec = []
    for node in body:
        if not isinstance(node, ast.AnnAssign):
            continue
        name = node.target.id
        if node.value is None:
            spec.append((name, object))
        else:
            spec.append((name, object, ast.literal_eval(node.value)))
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


#: Valid values of each validated record's required fields, as floats.
#: Each stays valid with its first value halved.
_VALID = {
    "NetworkParams": (1.0, 3.0, 2.0, 19.0, 21.0, 5.0),
    "InfoEnvironment": (0.2, 0.5, 1.0),
    "OracleConfig": (),
    "StrategyProfile": (0.25, 0.5, 0.75),
}


def _values(name: str, kind: str) -> tuple:
    """Values for the required fields of record ``name``: floats, Fractions,
    or arrays, a two-element one per field."""
    n = len([f for f in fields(getattr(routeinfo, name)) if f not in _defaults(name)])
    floats = _VALID.get(name, tuple(1.5 + i for i in range(n)))
    if kind == "float":
        return floats
    if kind == "fraction":
        return tuple(Fraction(v) for v in floats)
    return tuple(np.array([v, v]) for v in floats)


def _defaults(name: str) -> dict:
    return {
        f.name: f
        for f in dataclasses.fields(_twin(getattr(routeinfo, name)))
        if f.default is not dataclasses.MISSING
    }


def _outcome(fn):
    """``fn()``'s result, or the type and message of what it raised; a
    dataclass's ``FrozenInstanceError`` counts as the ``AttributeError`` it
    subclasses."""
    try:
        return ("ok", fn())
    except dataclasses.FrozenInstanceError as exc:
        return ("err", AttributeError, str(exc))
    except Exception as exc:  # an error is an outcome too
        return ("err", type(exc), str(exc))


@pytest.mark.parametrize("name", RECORDS)
def test_record_fields_and_defaults_match_the_dataclass(name):
    cls, twin = getattr(routeinfo, name), _twin(getattr(routeinfo, name))
    # Built from the required fields alone, the defaults fill the rest.
    args = _values(name, "float")
    record, copy = cls(*args), twin(*args)
    assert fields(cls) == fields(record) == tuple(f.name for f in dataclasses.fields(twin))
    assert list(vars(record).items()) == list(vars(copy).items())
    assert list(vars(cls(**dict(zip(fields(cls), args))))) == list(fields(cls))
    # The unchecked build stores the same fields, defaults filled, in order.
    trusted = _trusted(cls, *args)
    assert type(trusted) is cls and list(vars(trusted).items()) == list(vars(record).items())
    for field in fields(cls):
        # A default is a class attribute.
        assert hasattr(cls, field) == hasattr(twin, field), field


def test_a_required_field_after_a_default_is_rejected():
    with pytest.raises(TypeError, match="non-default argument 'b' follows default"):

        class Bad(_Record):
            a: int = 1
            b: int


@pytest.mark.parametrize("kind", ["float", "fraction", "array"])
@pytest.mark.parametrize("name", RECORDS)
def test_record_repr_eq_and_hash_match_the_dataclass(name, kind):
    cls, twin = getattr(routeinfo, name), _twin(getattr(routeinfo, name))
    args = _values(name, kind)
    # Equal values in distinct objects, as two computations return them.
    again = tuple(np.copy(v) if kind == "array" else v for v in args)
    record, copy = cls(*args), twin(*args)
    assert repr(record) == repr(copy)
    assert _outcome(lambda: record == cls(*again)) == _outcome(lambda: copy == twin(*again))
    assert _outcome(lambda: record != cls(*again)) == _outcome(lambda: copy != twin(*again))
    assert _outcome(lambda: hash(record)) == _outcome(lambda: hash(copy))
    assert record != copy and copy != record
    if args:
        other = (args[0] / 2, *args[1:])
        assert _outcome(lambda: record == cls(*other)) == _outcome(lambda: copy == twin(*other))


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_frozen_as_the_dataclass(name):
    cls, twin = getattr(routeinfo, name), _twin(getattr(routeinfo, name))
    args = _values(name, "float")
    record, copy = cls(*args), twin(*args)
    for attr in (*fields(cls), "extra"):
        for change in (
            lambda obj: setattr(obj, attr, 0.25),
            lambda obj: delattr(obj, attr),
        ):
            got, want = _outcome(lambda: change(record)), _outcome(lambda: change(copy))
            assert got[0] == "err" and issubclass(got[1], AttributeError)
            assert got == want
    assert list(vars(record).items()) == list(vars(copy).items())


@pytest.mark.parametrize("name", RECORDS)
def test_record_rejects_bad_arguments_as_the_dataclass(name):
    cls, twin = getattr(routeinfo, name), _twin(getattr(routeinfo, name))
    args = _values(name, "float")
    first = fields(cls)[0]
    calls = [
        ((*args, *(0.5 for _ in range(len(fields(cls)) + 1 - len(args)))), {}),
        (args, {"no_such_field": 1}),
        (args, {first: 1}) if args else ((0.5,), {first: 1}),
        ((), {}),
        (args[:-2], {}),
        (args[1:], {}),
    ]
    for call_args, kwargs in calls:
        got = _outcome(lambda: cls(*call_args, **kwargs))
        want = _outcome(lambda: twin(*call_args, **kwargs))
        if want[0] == "ok":
            assert got[0] == "ok" and vars(got[1]) == vars(want[1])
        else:
            assert got == want, (call_args, kwargs)


def test_replace_builds_anew_and_validates_again():
    env = replace(ENV, frac_informed=0.25)
    assert vars(env) == {**vars(ENV), "frac_informed": 0.25}
    assert replace(ENV) == ENV and replace(ENV) is not ENV
    bad = dict(slope1_incident=1.5)
    assert _code(replace, PARAMS, **bad) == _code(_params, **bad) == "slope_ordering"
    with pytest.raises(TypeError, match="unexpected keyword argument 'slope'"):
        replace(PARAMS, slope=1.0)
    with pytest.raises(TypeError, match="takes a record or record class, not dict"):
        fields({})
