"""One array call over a sweep equals one scalar call per point, bit for bit."""

import math
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from routeinfo import (
    EQUILIBRIUM_TYPES,
    CostReport,
    InfoEnvironment,
    NetworkParams,
    ValidationError,
    ValueReport,
    best_response,
    classify,
    cost_report,
    enumerate_profiles,
    lambda_min,
    regime_boundaries,
    social_optimum,
    solve_bwe,
    value_report,
    wardrop_residual,
)
from routeinfo.model import fields
from strategies import rescaled_networks

PARAMS = NetworkParams(1.0, 3.0, 2.0, 19.0, 21.0, 5.0)

#: The field names each broadcasting call is compared on.
CALLS = {
    "regimes": (classify, ("label", "lambda_bar_1", "lambda_bar_2", "lambda_bar_3")),
    "equilibrium": (solve_bwe, ("rho_L", "rho_Hn", "rho_Ha", "l_population_empty")),
    "costs": (cost_report, fields(CostReport)),
    "value": (value_report, fields(ValueReport)),
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
        for name in fields(report):
            assert type(getattr(report, name)) is float, name
    assert type(lambda_min(PARAMS, env)) is float
    opt = social_optimum(PARAMS, env)
    assert all(type(q) is float for q in (*opt.loads_normal, *opt.loads_incident))
    assert type(opt.cost_exp) is float


@pytest.mark.parametrize("lam", ["0", "3/10", "1/2", "77/100", "9/10", "1"])
def test_fraction_inputs_give_exact_python_results(lam):
    """``Fraction`` fields answer in plain Python, never in a numpy scalar or
    a 0-d array: exact fractions, the exact integers 0 and 1 where a split
    is fixed by its regime, bools and strings. Floats appear only where a
    convention replaces a number: NaN for an empty population's costs and
    0.0 for every value at lambda = 0."""
    params = NetworkParams(*(Fraction(x) for x in (1, 3, 2, 19, 21, 5)))
    env = InfoEnvironment(Fraction(1, 5), Fraction(lam), Fraction(1))
    regime = classify(params, env)
    profile = solve_bwe(params, env)
    opt = social_optimum(params, env)
    results = [
        regime.label, *regime.bounds, *vars(profile).values(),
        *vars(cost_report(params, env)).values(),
        *vars(value_report(params, env)).values(),
        lambda_min(params, env), *regime_boundaries(params, env),
        *opt.loads_normal, *opt.loads_incident, opt.cost_exp,
    ]
    for v in results:
        assert type(v) in (Fraction, int, bool, str, float), (type(v), v)
        if type(v) is float:
            assert math.isnan(v) or (v == 0.0 and env.frac_informed == 0), v
    assert type(regime.label) is str and type(profile.l_population_empty) is bool
    assert all(type(b) is Fraction for b in regime.bounds)
    assert type(lambda_min(params, env)) is Fraction


@pytest.mark.parametrize("lam", [5e-324, 1e-310, 0.5])
def test_a_division_by_an_underflowed_zero_gives_the_array_calls_split(lam):
    """At demand 5e-324, (1 - lambda) * demand underflows to 0 and the first
    regime's rho_L divides by it: numpy gives inf, clamped to 1. A scalar
    call computes in Python, where that division raises; it still answers
    with the array call's splits."""
    params = NetworkParams(1.0, 3.0, 2.0, 0.0, 0.0, 5e-324)
    scalar = solve_bwe(params, InfoEnvironment(0.2, lam, 1.0))
    array = solve_bwe(params, InfoEnvironment(0.2, np.array([lam]), 1.0))
    assert vars(scalar) == {name: v[0].item() for name, v in vars(array).items()}
    assert (scalar.rho_L, scalar.rho_Hn, scalar.rho_Ha) == (1.0, 1.0, 0.0)


def test_a_float_field_among_fractions_gives_float_splits():
    """One float field (lambda) among ``Fraction`` fields makes every split
    a float, the fixed 0 and 1 included, as numpy promotes them."""
    params = NetworkParams(*(Fraction(x) for x in (1, 3, 2, 19, 21, 5)))
    profile = solve_bwe(params, InfoEnvironment(Fraction(1, 5), 0.2, 1))
    splits = (profile.rho_L, profile.rho_Hn, profile.rho_Ha)
    assert [type(r) for r in splits] == [float] * 3


@pytest.mark.parametrize("offset", [-5e-13, 5e-13])
@pytest.mark.parametrize("boundary", [0, 1, 2])
def test_a_split_clamped_at_a_tie_is_the_array_calls_float(boundary, offset):
    """Within BOUNDARY_TOL of a boundary lambda goes to the closed regime,
    whose closed form may step just outside [0, 1] there and is clamped. A
    scalar call clamps to the float the array call gives."""
    env = InfoEnvironment(0.2, 0.5, 1.0)
    lam = regime_boundaries(PARAMS, env)[boundary] + offset
    scalar = solve_bwe(PARAMS, InfoEnvironment(0.2, lam, 1.0))
    array = solve_bwe(PARAMS, InfoEnvironment(0.2, np.array([lam]), 1.0))
    for name, column in vars(array).items():
        got, want = getattr(scalar, name), column[0].item()
        assert (type(got), got) == (type(want), want), name


def test_a_field_the_gaps_do_not_read_leaves_results_scalar():
    """An array accuracy_low (all 0.5) with every other field scalar: the
    gaps never read it, so the pattern table and best responses answer in
    Python scalars, as wardrop_residual and solve_bwe do."""
    env = InfoEnvironment(0.2, 0.5, 1.0, np.full(3, 0.5))
    profile = solve_bwe(PARAMS, env)
    splits = (profile.rho_L, profile.rho_Hn, profile.rho_Ha)
    assert all(type(r) is float for r in splits)
    assert type(wardrop_residual(PARAMS, env, profile)) is float
    for verdict in enumerate_profiles(PARAMS, env):
        assert type(verdict.is_equilibrium) is bool and type(verdict.note) is str
        if verdict.profile is not None:
            assert type(verdict.profile.rho_Ha) is float, verdict.pattern
    for t in EQUILIBRIUM_TYPES:
        assert type(best_response(PARAMS, env, profile, t)) is float, t


def test_array_inputs_give_arrays_of_the_common_shape():
    lam = np.linspace(0.0, 1.0, 7)
    report = cost_report(PARAMS, InfoEnvironment(0.2, lam, 1.0))
    for name in fields(CostReport):
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
