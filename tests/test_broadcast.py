"""One array call over a sweep equals one scalar call per point, bit for bit."""

import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from routeinfo import (
    CostReport,
    InfoEnvironment,
    NetworkParams,
    ValidationError,
    ValueReport,
    classify,
    cost_report,
    enumerate_profiles,
    lambda_min,
    regime_boundaries,
    social_optimum,
    solve_bwe,
    value_report,
)
from strategies import rescaled_networks

PARAMS = NetworkParams(1.0, 3.0, 2.0, 19.0, 21.0, 5.0)

#: The field names each broadcasting call is compared on.
CALLS = {
    "regimes": (classify, ("label", "lambda_bar_1", "lambda_bar_2", "lambda_bar_3")),
    "equilibrium": (solve_bwe, ("rho_L", "rho_Hn", "rho_Ha", "l_population_empty")),
    "costs": (cost_report, tuple(CostReport.__dataclass_fields__)),
    "value": (value_report, tuple(ValueReport.__dataclass_fields__)),
}

_FIELD = {"lambda": "frac_informed", "p": "p_incident", "eta_h": "accuracy_high"}

_AXIS_VALUES = {
    # The lambda edges 0 and 1, where a population is empty, in every sweep.
    "lambda": st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8).map(
        lambda xs: [0.0, *xs, 1.0]
    ),
    "p": st.lists(st.floats(1e-6, 1 - 1e-6), min_size=2, max_size=10),
    "eta_h": st.lists(
        st.floats(0.5, 1.0, exclude_min=True), min_size=1, max_size=9
    ).map(lambda xs: [*xs, 1.0]),
}


@st.composite
def sweeps(draw, subcommand):
    """A network, a fixed point and one swept axis as an array field."""
    params = draw(rescaled_networks())
    axes = ("lambda", "p") if subcommand == "value" else ("lambda", "p", "eta_h")
    axis = draw(st.sampled_from(axes))
    fields = {
        "frac_informed": draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
        "p_incident": draw(st.floats(0.01, 0.99)),
        "accuracy_high": (
            1.0
            if subcommand == "value"
            else draw(st.just(1.0) | st.floats(0.5, 1.0, exclude_min=True))
        ),
    }
    fields[_FIELD[axis]] = np.array(draw(_AXIS_VALUES[axis]))
    return params, fields


def _same(a, b) -> bool:
    return a == b or (isinstance(a, float) and math.isnan(a) and math.isnan(b))


def _scalar_calls(call, params, fields: dict, n: int):
    """The call at each point in turn, or the first error it raises."""
    results = []
    for i in range(n):
        point = {
            k: v[i].item() if isinstance(v, np.ndarray) else v
            for k, v in fields.items()
        }
        try:
            results.append(call(params, InfoEnvironment(**point)))
        except ValidationError as exc:
            return str(exc)
    return results


@pytest.mark.parametrize("subcommand", list(CALLS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_array_call_equals_scalar_calls(subcommand, data):
    """Every element matches (NaN for NaN); an error is the first point's."""
    params, fields = data.draw(sweeps(subcommand))
    call, names = CALLS[subcommand]
    n = next(v.size for v in fields.values() if isinstance(v, np.ndarray))
    scalars = _scalar_calls(call, params, fields, n)
    if isinstance(scalars, str):
        with pytest.raises(ValidationError) as exc:
            call(params, InfoEnvironment(**fields))
        assert str(exc.value) == scalars
        return
    result = call(params, InfoEnvironment(**fields))
    for i, scalar in enumerate(scalars):
        for name in names:
            got, want = getattr(result, name)[i].item(), getattr(scalar, name)
            assert _same(got, want), (name, i, got, want)


@pytest.mark.parametrize("lam", [0.0, 0.3, 0.5, 0.77, 0.9, 1.0])
def test_scalar_inputs_give_python_scalars(lam):
    env = InfoEnvironment(0.2, lam, 1.0)
    regime = classify(PARAMS, env)
    assert type(regime.label) is str
    assert all(type(b) is float for b in regime.bounds)
    profile = solve_bwe(PARAMS, env)
    assert all(type(r) is float for r in (profile.rho_L, profile.rho_Hn, profile.rho_Ha))
    assert type(profile.l_population_empty) is bool
    for report in (cost_report(PARAMS, env), value_report(PARAMS, env)):
        for name in type(report).__dataclass_fields__:
            assert type(getattr(report, name)) is float, name
    assert type(lambda_min(PARAMS, env)) is float
    opt = social_optimum(PARAMS, env)
    assert all(type(q) is float for q in (*opt.loads_normal, *opt.loads_incident))
    assert type(opt.rho_normal) is float and type(opt.cost_exp) is float


def test_array_inputs_give_arrays_of_the_common_shape():
    lam = np.linspace(0.0, 1.0, 7)
    report = cost_report(PARAMS, InfoEnvironment(0.2, lam, 1.0))
    for name in CostReport.__dataclass_fields__:
        assert getattr(report, name).shape == lam.shape, name
    assert np.isnan(report.c_L_n[-1]) and np.isnan(report.c_H_n[0])


def test_pattern_table_over_a_network_field_equals_scalar_calls():
    """An array network field gives each element the scalar call's verdicts,
    each judged at the cost scale of its own network."""
    demands = np.array([3.0, 5.0, 9.0, 40.0])
    env = InfoEnvironment(0.2, 0.5, 1.0)
    table = enumerate_profiles(NetworkParams(1.0, 3.0, 2.0, 19.0, 21.0, demands), env)
    for i, d in enumerate(demands.tolist()):
        scalar = enumerate_profiles(NetworkParams(1.0, 3.0, 2.0, 19.0, 21.0, d), env)
        for got, want in zip(table, scalar, strict=True):
            assert got.is_equilibrium[i].item() is want.is_equilibrium, (d, got.pattern)
            assert got.note[i].item() == want.note, (d, got.pattern)


@pytest.mark.parametrize("p,eta_h", [(0.2, 1.0), (0.6, 1.0), (0.3, 0.8)])
def test_pattern_table_array_call_equals_scalar_calls(p, eta_h):
    """One array call over a lambda sweep gives, verdict by verdict, the
    scalar call's verdict, note and splits (NaN where a pattern is rejected).
    The sweep holds both lambda edges and points within 1e-9 of each regime
    boundary, where interior splits sit next to 0 or 1."""
    bounds = regime_boundaries(PARAMS, InfoEnvironment(p, 0.5, eta_h))
    near = [b + d for b in bounds for d in (-1e-9, -1e-10, 0.0, 1e-10, 1e-9)]
    lams = np.clip([0.0, 1.0, *np.linspace(0.0, 1.0, 21), *near], 0.0, 1.0)
    table = enumerate_profiles(PARAMS, InfoEnvironment(p, lams, eta_h))
    names = ("rho_L", "rho_Hn", "rho_Ha")
    for i, lam in enumerate(lams):
        scalar = enumerate_profiles(PARAMS, InfoEnvironment(p, lam.item(), eta_h))
        for got, want in zip(table, scalar, strict=True):
            where = (lam, got.pattern)
            assert got.pattern == want.pattern
            assert type(want.is_equilibrium) is bool and type(want.note) is str
            assert got.is_equilibrium[i].item() is want.is_equilibrium, where
            assert got.note[i].item() == want.note, where
            splits = [getattr(got.profile, name)[i].item() for name in names]
            if want.profile is None:
                assert all(math.isnan(r) for r in splits), where
            else:
                assert splits == [getattr(want.profile, name) for name in names], where
