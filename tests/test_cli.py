"""End-to-end checks of the command-line interface.

Each test drives ``routeinfo.cli.main`` with an argv list and inspects the
exit code plus captured stdout/stderr, the same surface a shell user sees.
"""

import csv
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import routeinfo.cli
import routeinfo.costs
import routeinfo.equilibrium
import routeinfo.oracle
import routeinfo.value
from routeinfo import (
    InfoEnvironment,
    NetworkParams,
    OracleConvergenceError,
    StrategyProfile,
    classify,
    cost_report,
    social_optimum,
    solve_bwe,
)
from routeinfo.cli import _BLOCK_ROWS, _POINTWISE_MAX, DEFAULTS, _builder, main, parse_sweep
from routeinfo.model import _linspace, replace

# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _rows(text):
    """Parse CSV output into a list of dicts keyed by header."""
    reader = csv.DictReader(io.StringIO(text))
    return list(reader)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_by(capsys, monkeypatch, driver, argv):
    """``_run(capsys, argv)`` with its sweep evaluated by ``driver``, whatever
    its length: "point" one point at a time, "array" in one array call. Both
    get the values ``parse_sweep`` makes, as a list or as an array."""
    parse = routeinfo.cli.parse_sweep

    def parse_for(text):
        axis, values = parse(text)
        values = np.asarray(values)
        return axis, values.tolist() if driver == "point" else values

    with monkeypatch.context() as patch:
        patch.setattr(routeinfo.cli, "parse_sweep", parse_for)
        if driver == "point":
            patch.setitem(routeinfo.cli._POINTWISE_MAX, argv[0], math.inf)
        return _run(capsys, argv)


def _point_runs(capsys, base, flag, values, fmt):
    """What a sweep of ``base`` along ``flag`` must print, from one run per
    value: (stdout of the rows in value order, the runs' stderr)."""
    header, rows, errs = None, [], []
    for value in values:
        argv = [*base, "--format", fmt, flag, repr(float(value))]
        code, out, err = _run(capsys, argv)
        assert code == 0
        if fmt == "csv":
            header, *point_rows = out.splitlines()
            rows.extend(point_rows)
        else:
            rows.append(out[len("[\n"):-len("\n]\n")])
        errs.append(err)
    if fmt == "csv":
        return "\n".join([header, *rows]) + "\n", errs
    return "[\n" + ",\n".join(rows) + "\n]\n", errs


# ---------------------------------------------------------------------------
# Single-point outputs
# ---------------------------------------------------------------------------


def test_regimes_default_point(capsys):
    code, out, _ = _run(capsys, ["regimes"])
    assert code == 0
    rows = _rows(out)
    assert len(rows) == 1
    row = rows[0]
    assert list(row) == [
        "p", "lambda", "eta_h", "eta_l",
        "lambda_bar_1", "lambda_bar_2", "lambda_bar_3", "regime",
    ]
    assert row["p"] == "0.2"
    assert row["lambda"] == "0.5"
    assert row["lambda_bar_1"] == "0.282352941"
    assert row["lambda_bar_2"] == "0.762352941"
    assert row["lambda_bar_3"] == "0.8"
    assert row["regime"] == "R2"


def test_output_is_deterministic(capsys):
    _, first, _ = _run(capsys, ["regimes", "--sweep", "lambda:0.1:0.9:7"])
    _, second, _ = _run(capsys, ["regimes", "--sweep", "lambda:0.1:0.9:7"])
    assert first == second


def test_equilibrium_default_point(capsys):
    code, out, _ = _run(capsys, ["equilibrium"])
    assert code == 0
    row = _rows(out)[0]
    assert row["regime"] == "R2"
    assert row["rho_L"] == "0.524705882"
    assert row["rho_Hn"] == "1"
    assert row["rho_Ha"] == "0.435294118"
    assert row["l_population_empty"] == "false"


def test_equilibrium_all_informed_flags_empty_population(capsys):
    code, out, _ = _run(capsys, ["equilibrium", "--lambda", "1"])
    assert code == 0
    row = _rows(out)[0]
    assert row["l_population_empty"] == "true"
    assert row["rho_L"] == "0"
    assert row["rho_Hn"] == "0.8"
    assert row["rho_Ha"] == "0.48"


def test_lambda_zero_with_a_nearly_uninformative_service(capsys):
    code, out, err = _run(
        capsys, ["equilibrium", "--lambda", "0", "--eta-h", "0.500000000001"]
    )
    assert code == 0, err
    row = _rows(out)[0]
    assert row["regime"] == "R1"
    assert row["rho_L"] == "0.705882353"


def test_costs_with_a_nearly_uninformative_service(capsys):
    # Every cost row compares with the lambda = 0 baseline environment.
    code, out, err = _run(capsys, ["costs", "--eta-h", "0.500000000001"])
    assert code == 0, err
    assert len(_rows(out)) == 1


def test_value_default_point(capsys):
    code, out, _ = _run(capsys, ["value"])
    assert code == 0
    row = _rows(out)[0]
    assert row["v_rel_exp"] == "0.214721107"
    assert row["w_exp"] == "0.344404152"
    assert row["lambda_min"] == "0.282352941"


def test_costs_columns_and_normalization(capsys):
    code, out, _ = _run(capsys, ["costs"])
    assert code == 0
    row = _rows(out)[0]
    assert len(row) == 4 + 15 + 9
    assert float(row["c_soc_exp_norm"]) >= 1.0 - 1e-12
    assert float(row["c_L_exp_norm"]) >= 1.0 - 1e-12
    # Normalized columns are the plain ones divided by the optimum.
    want = float(row["c_soc_exp"]) / float(row["socopt_exp"])
    assert abs(float(row["c_soc_exp_norm"]) - want) < 1e-8


def test_costs_empty_population_rendering(capsys):
    code, out, _ = _run(capsys, ["costs", "--lambda", "1"])
    assert code == 0
    row = _rows(out)[0]
    assert row["c_L_n"] == "nan"
    assert row["c_L_exp_norm"] == "nan"
    assert row["c_H_n"] == "23"

    code, out, _ = _run(capsys, ["costs", "--lambda", "1", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["c_L_n"] is None
    assert payload[0]["c_H_n"] == pytest.approx(23.0)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def test_lambda_sweep_rows(capsys):
    code, out, _ = _run(capsys, ["equilibrium", "--sweep", "lambda:0.001:0.999:5"])
    assert code == 0
    rows = _rows(out)
    assert len(rows) == 5
    assert [r["lambda"] for r in rows] == [
        "0.001", "0.2505", "0.5", "0.7495", "0.999",
    ]
    assert 0.70 < float(rows[0]["rho_L"]) < 0.71
    assert [r["regime"] for r in rows] == ["R1", "R1", "R2", "R2", "R4"]


def test_p_sweep_boundary_columns(capsys):
    code, out, _ = _run(capsys, ["regimes", "--sweep", "p:0.1:0.9:5"])
    assert code == 0
    rows = _rows(out)
    # With a fully accurate service the third boundary is the same for all p.
    assert {r["lambda_bar_3"] for r in rows} == {"0.8"}

    code, out, _ = _run(
        capsys, ["regimes", "--eta-h", "0.75", "--sweep", "p:0.1:0.9:5"]
    )
    assert code == 0
    rows = _rows(out)
    assert len({r["lambda_bar_3"] for r in rows}) == 5


# ---------------------------------------------------------------------------
# Beliefs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "treatment,n_rows",
    [("uninformative", 8), ("conditional", 16), ("marginal", 16)],
)
def test_beliefs_table_sizes(capsys, treatment, n_rows):
    code, out, _ = _run(
        capsys,
        ["beliefs", "--treatment", treatment, "--eta-h", "0.75", "--eta-l", "0.6"]
        if treatment != "uninformative"
        else ["beliefs", "--treatment", treatment, "--eta-h", "0.75"],
    )
    assert code == 0
    rows = _rows(out)
    assert len(rows) == n_rows
    sums = {}
    for row in rows:
        sums[row["owner"]] = sums.get(row["owner"], 0.0) + float(row["probability"])
    for owner, total in sums.items():
        assert abs(total - 1.0) < 1e-7, f"{treatment}/{owner} sums to {total}"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "axis,start,stop",
    [("lambda", 0.0, 1.0), ("p", 0.05, 0.95), ("eta_h", 0.6, 1.0)],
)
@pytest.mark.parametrize(
    "treatment,extra",
    [
        ("uninformative", []),
        ("conditional", ["--eta-l", "0.55"]),
        ("marginal", ["--eta-l", "0.55"]),
    ],
)
def test_beliefs_sweep_prints_the_rows_of_single_points(
    capsys, treatment, extra, axis, start, stop, fmt
):
    """Entries that do not depend on the swept axis are repeated per point
    of a beliefs sweep, as a run per point prints them."""
    base = ["beliefs", "--treatment", treatment, *extra]
    code, out, _ = _run(
        capsys, [*base, "--format", fmt, "--sweep", f"{axis}:{start}:{stop}:4"]
    )
    assert code == 0
    flag = {"lambda": "--lambda", "p": "--p", "eta_h": "--eta-h"}[axis]
    assert out == _point_runs(capsys, base, flag, np.linspace(start, stop, 4), fmt)[0]


@pytest.mark.parametrize("treatment", ["uninformative", "conditional", "marginal"])
def test_beliefs_sweep_keeps_constant_columns_as_views(treatment):
    """Along a lambda sweep the treatment and every echo column but lambda
    are the same at each point, so they cost no memory per row."""
    eta_l = 0.5 if treatment == "uninformative" else 0.55
    env = InfoEnvironment(0.2, np.linspace(0.0, 1.0, 5), 1.0, eta_l)
    params = NetworkParams(1.0, 3.0, 2.0, 19.0, 21.0, 5.0)
    table = _builder("beliefs", treatment)(params, env)
    assert [name for name, c in table.items() if c.strides == (0,)] == [
        "p", "eta_h", "eta_l", "treatment"
    ]


def test_beliefs_uninformative_needs_coin_flip_low_type(capsys):
    code, _, err = _run(
        capsys, ["beliefs", "--treatment", "uninformative", "--eta-l", "0.6"]
    )
    assert code == 1
    assert "error: unsupported_treatment" in err


# ---------------------------------------------------------------------------
# Config files and precedence
# ---------------------------------------------------------------------------


def test_config_file_and_flag_precedence(capsys, tmp_path):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("lambda = 0.9\ndemand = 6  # heavier day\n\n# comment line\n")
    code, out, _ = _run(capsys, ["equilibrium", "--config", str(cfg)])
    assert code == 0
    row = _rows(out)[0]
    assert row["lambda"] == "0.9"  # file overrides default

    code, out, _ = _run(
        capsys, ["equilibrium", "--config", str(cfg), "--lambda", "0.1"]
    )
    assert code == 0
    row = _rows(out)[0]
    assert row["lambda"] == "0.1"  # flag overrides file
    assert row["p"] == "0.2"  # untouched default survives


def test_config_file_rejects_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("demund = 6\n")
    code, _, err = _run(capsys, ["regimes", "--config", str(cfg)])
    assert code == 1
    assert "error: malformed_config" in err
    assert "demund" in err


def test_config_file_missing(capsys, tmp_path):
    code, _, err = _run(capsys, ["regimes", "--config", str(tmp_path / "nope.cfg")])
    assert code == 1
    assert "error: malformed_config" in err


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "rows.csv"
    code, out, _ = _run(capsys, ["regimes", "--out", str(target)])
    assert code == 0
    assert out == ""  # nothing on stdout when writing a file
    _, stdout_text, _ = _run(capsys, ["regimes"])
    assert target.read_text() == stdout_text


# ---------------------------------------------------------------------------
# verify and oracle subcommands
# ---------------------------------------------------------------------------


def test_verify_passes_on_default_instance(capsys):
    code, out, _ = _run(capsys, ["verify"])
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["theorem1"]["passed"] is True
    assert payload["theorem1"]["failures"] == []
    assert payload["theorem2"]["regime_cases"]["R3"] == "decreasing"
    assert payload["theorem2"]["lambda_min"] == pytest.approx(24 / 85)


def test_verify_prints_json_with_or_without_the_flag(capsys):
    """``verify`` prints its JSON summary, and ``--format json`` asks for
    that same output byte for byte."""
    plain = _run(capsys, ["verify"])
    assert plain[0] == 0 and plain[1].startswith("{")
    assert _run(capsys, ["verify", "--format", "json"]) == plain


def test_oracle_reports_deviation(capsys):
    code, out, err = _run(capsys, ["oracle", "--sweep", "lambda:0.1:0.9:5"])
    assert code == 0
    assert "max |closed-form - fixed-point| deviation" in err
    rows = _rows(out)
    assert len(rows) == 5
    assert all(float(r["deviation"]) <= 1e-6 for r in rows)


def _oracle_shifting(monkeypatch, field, delta):
    """Make ``routeinfo oracle``'s solver return the closed form with
    ``field`` lowered by ``delta``."""

    def shifted(params, env, config):
        closed = solve_bwe(params, env)
        return replace(closed, **{field: getattr(closed, field) - delta})

    monkeypatch.setattr(routeinfo.oracle, "solve_fixed_point", shifted)


@pytest.mark.parametrize("delta,code", [(2.0**-20, 0), (2.0**-19, 2)])
def test_oracle_deviation_is_the_largest_split_shift(capsys, monkeypatch, delta, code):
    """rho_Hn is 1 at the running example, so lowering it by a power of two
    deviates by exactly that; above ORACLE_DEVIATION_LIMIT (1e-6) it fails."""
    _oracle_shifting(monkeypatch, "rho_Hn", delta)
    got, out, err = _run(capsys, ["oracle", "--format", "json"])
    assert got == code
    assert json.loads(out)[0]["deviation"] == delta
    assert err == f"max |closed-form - fixed-point| deviation: {delta:.3e}\n"


def test_oracle_ignores_a_zero_mass_type(capsys, monkeypatch):
    """At lambda = 1 the uninformed population is empty: its split is free."""
    _oracle_shifting(monkeypatch, "rho_L", 0.5)
    code, out, err = _run(capsys, ["oracle", "--lambda", "1", "--format", "json"])
    assert code == 0
    assert json.loads(out)[0]["deviation"] == 0.0
    assert err == "max |closed-form - fixed-point| deviation: 0.000e+00\n"


def test_oracle_without_a_fixed_point_exits_two(capsys, monkeypatch):
    message = "no fixed point within 3 iterations (worst residual 1.000e+00)"

    def stuck(params, env, config):
        raise OracleConvergenceError(message, StrategyProfile(0.5, 0.5, 0.5), 1.0)

    monkeypatch.setattr(routeinfo.oracle, "solve_fixed_point", stuck)
    code, out, err = _run(capsys, ["oracle"])
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_oracle_sweep_prints_the_rows_of_single_points(capsys, monkeypatch, fmt):
    """A sweep is one array call; its rows and its stderr summary are those of
    a run per point, byte for byte. So are the rows of an equilibrium sweep,
    made in one array call, whose lambda = 1 row, the one with
    l_population_empty true, falls in the second block of CSV rows."""
    code, out, err = _run(
        capsys, ["oracle", "--sweep", "lambda:0:1:11", "--format", fmt]
    )
    assert code == 0
    rows, summaries = _point_runs(
        capsys, ["oracle"], "--lambda", np.linspace(0.0, 1.0, 11), fmt
    )
    assert out == rows
    assert err == max(summaries, key=lambda line: float(line.rsplit(" ", 1)[1]))

    points = _BLOCK_ROWS + 2
    argv = ["equilibrium", "--sweep", f"lambda:0:1:{points}", "--format", fmt]
    code, out, err = _run_by(capsys, monkeypatch, "array", argv)
    assert (code, err) == (0, "")
    rows, _ = _point_runs(
        capsys, ["equilibrium"], "--lambda", np.linspace(0.0, 1.0, points), fmt
    )
    assert out == rows
    # Only the last row, lambda = 1, has an empty L population.
    assert out.count("true") == 1 and out.rstrip("\n ]}").endswith("true")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "sub,axis,start,stop",
    [
        ("regimes", "lambda", 0.0, 1.0),
        ("regimes", "p", 0.05, 0.95),
        ("costs", "lambda", 0.0, 1.0),
        ("costs", "eta_h", 0.55, 1.0),
        ("value", "lambda", 0.0, 1.0),
        ("value", "p", 0.05, 0.95),
    ],
)
def test_closed_form_sweep_prints_the_rows_of_single_points(
    capsys, monkeypatch, sub, axis, start, stop, fmt
):
    """A single point is computed, tabulated and printed in plain Python and
    a sweep in one array call in numpy; their rows are the same bytes. The
    lambda sweeps hold the lambda = 0 and lambda = 1 rows, where a population
    is empty and its costs print as nan in CSV and null in JSON."""
    argv = [sub, "--format", fmt, "--sweep", f"{axis}:{start}:{stop}:11"]
    code, out, err = _run_by(capsys, monkeypatch, "array", argv)
    assert (code, err) == (0, "")
    flag = {"lambda": "--lambda", "p": "--p", "eta_h": "--eta-h"}[axis]
    values = np.linspace(start, stop, 11)
    assert out == _point_runs(capsys, [sub], flag, values, fmt)[0]
    if sub == "costs" and axis == "lambda":
        assert {"csv": ",nan,", "json": ": null,"}[fmt] in out


#: A network at which the social optimum's costs underflow to 0.
_UNDERFLOW = ["--intercept1", "0", "--intercept2", "0", "--demand", "5e-324"]

_TREATMENTS = [
    ["beliefs"],
    ["beliefs", "--treatment", "conditional", "--eta-l", "0.55"],
    ["beliefs", "--treatment", "marginal", "--eta-l", "0.55"],
]


def _drawn_network(seed: int) -> list:
    """The flags of a network and p drawn from ``seed``: every ordering the
    model requires holds, with some slack."""
    rng = random.Random(seed)
    a1n = rng.uniform(0.5, 2.0)
    a2 = a1n * rng.uniform(1.0, 2.0)
    a1a = a2 * rng.uniform(1.2, 3.0)
    b1 = rng.uniform(5.0, 30.0)
    b2 = b1 + rng.uniform(0.0, 10.0)
    demand = (b2 - b1) / a1n + rng.uniform(0.5, 5.0)
    flags = {
        "--slope1-normal": a1n, "--slope2": a2, "--slope1-incident": a1a,
        "--intercept1": b1, "--intercept2": b2, "--demand": demand,
        "--p": rng.uniform(0.05, 0.5),
    }
    return [text for flag, value in flags.items() for text in (flag, repr(value))]


#: (sweep, network, format) cases of the driver comparison: three short
#: sweeps in both formats, and in CSV a lambda sweep of the subcommand's
#: ``_POINTWISE_MAX`` points ("{}") and of one more ("{}+1"); then, on three
#: drawn networks, lambda sweeps through 0 and 1 at eta_h below 1 and at 1,
#: and a p sweep.
_DRIVER_CASES = {
    **{
        f"{sweep_id}-{network_id}-{fmt}": (sweep, network, fmt)
        for sweep_id, sweep, formats in [
            ("lambda", "lambda:0:1:6", ("csv", "json")),
            ("p", "p:0.05:0.95:6", ("csv", "json")),
            ("eta_h", "eta_h:0.6:1:6", ("csv", "json")),
            ("limit", "lambda:0:1:{}", ("csv",)),
            ("limit+1", "lambda:0:1:{}+1", ("csv",)),
        ]
        for network_id, network in [("example", []), ("underflow", _UNDERFLOW)]
        for fmt in formats
    },
    **{
        f"{sweep_id}-drawn{seed}-{fmt}": (sweep, [*_drawn_network(seed), *eta_h], fmt)
        for seed in range(3)
        for sweep_id, sweep, eta_h in [
            ("lambda-eta_h0.8", "lambda:0:1:6", ["--eta-h", "0.8"]),
            ("lambda", "lambda:0:1:6", []),
            ("p", "p:0.05:0.5:6", []),
        ]
        for fmt in ("csv", "json")
    },
}


@pytest.mark.parametrize(
    "sweep,network,fmt", list(_DRIVER_CASES.values()), ids=list(_DRIVER_CASES)
)
@pytest.mark.parametrize(
    "base",
    [["regimes"], ["equilibrium"], ["costs"], ["value"], *_TREATMENTS],
    ids=["regimes", "equilibrium", "costs", "value", "uninformative", "conditional", "marginal"],
)
def test_point_and_array_drivers_print_the_same(capsys, monkeypatch, base, sweep, network, fmt):
    """A sweep run one point at a time prints the bytes, the stderr and the
    exit code of the one array call, and so does the driver that ``run``
    picks, also at the subcommand's ``_POINTWISE_MAX`` points and one more.
    At the underflow network ``_ieee`` gives numpy scalars at single points,
    which print as the array's floats, and a regime boundary's denominator
    underflows to 0 at the low p of a p sweep (not_finite); a value sweep
    along eta_h, or along lambda at eta_h below 1, fails with not_analyzed."""
    limit = _POINTWISE_MAX[base[0]]
    sweep = sweep.replace("{}+1", str(limit + 1)).replace("{}", str(limit))
    argv = [*base, *network, "--format", fmt, "--sweep", sweep]
    point = _run_by(capsys, monkeypatch, "point", argv)
    assert point == _run_by(capsys, monkeypatch, "array", argv)
    assert point == _run(capsys, argv)
    axis = sweep[: sweep.index(":")]
    fails = (base == ["value"] and (axis == "eta_h" or "--eta-h" in network)) or (
        network == _UNDERFLOW and axis == "p" and base[0] != "beliefs"
    )
    assert point[0] == int(fails)


def _first_above_one(points: int) -> str:
    """The first value above 1 of ``--sweep eta_h:0.7:1.3:points``."""
    return repr(next(v for v in np.linspace(0.7, 1.3, points).tolist() if v > 1))


@pytest.mark.parametrize(
    "argv,value",
    [
        (["value", "--sweep", "eta_h:0.6:1.2:5"], "1.0499999999999998"),
        (["equilibrium", "--eta-l", "0.6", "--sweep", "eta_h:0.7:1.3:4"], "1.1"),
        *(
            ([sub, "--eta-l", "0.6", "--sweep", f"eta_h:0.7:1.3:{n}"], _first_above_one(n))
            for sub, limit in _POINTWISE_MAX.items()
            for n in (limit, limit + 1)
        ),
    ],
    ids=[
        "value",
        "equilibrium",
        *(f"{sub}-{tag}" for sub in _POINTWISE_MAX for tag in ("limit", "limit+1")),
    ],
)
def test_point_and_array_drivers_raise_the_same_error(capsys, monkeypatch, argv, value):
    """The per-point driver builds every point's environment before any row,
    so it raises the array call's error, the first out-of-range value, and
    not the scope error (not_analyzed, unsupported_treatment) that the rows
    of the valid first point would raise; so does the driver that ``run``
    picks, at the subcommand's ``_POINTWISE_MAX`` points and one more."""
    point = _run_by(capsys, monkeypatch, "point", argv)
    assert point == _run_by(capsys, monkeypatch, "array", argv)
    assert point == _run(capsys, argv)
    message = f"error: accuracy_out_of_range: accuracy_high must lie in (0.5, 1], got {value}\n"
    assert point == (1, "", message)


@pytest.mark.parametrize(
    "build,evaluations",
    [
        ("_rows_regimes", 1),
        ("_rows_equilibrium", 1),
        ("_rows_oracle", 1),
        ("_rows_costs", 1),
        ("_rows_value", 1),
    ],
)
def test_each_row_evaluates_the_closed_forms_once_per_environment(
    monkeypatch, build, evaluations
):
    """A row at a point runs ``equilibrium._evaluate``, which computes the
    derived constants, type marginals and boundaries, once for its
    environment: the label and the profile of an ``equilibrium`` or
    ``oracle`` row share it, and so do a ``value`` row's ``lambda_min`` and
    costs. The lambda = 0 baseline of ``costs`` and ``value`` shares it too,
    since it differs from the environment in lambda alone."""
    calls = _count_calls(monkeypatch, routeinfo.equilibrium, "_evaluate")
    params, env = routeinfo.cli._network(DEFAULTS), routeinfo.cli._environment(DEFAULTS)
    _builder(build.removeprefix("_rows_"), "uninformative")(params, env)
    assert calls[0][1] is env and len(calls) == evaluations


def _count_calls(monkeypatch, module, name: str) -> list:
    """The arguments of each call of ``module``'s function ``name`` from now."""
    fn, calls = getattr(module, name), []

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("sub", ["regimes", "equilibrium", "costs", "value"])
def test_a_lambda_sweep_evaluates_once_and_a_p_sweep_at_every_point(
    capsys, monkeypatch, sub
):
    """A point-by-point sweep of lambda shares one evaluation of the network,
    p and the accuracies, which every point and baseline reuse; a sweep of p
    or eta_h changes them at every point, so each point evaluates its own.
    So it goes for the two state costs of the lambda = 0 baseline and for
    ``lambda_min``, which read no lambda either, while each point computes
    its own two equilibrium state costs. The social optimum reads only the
    network, so every sweep computes its two state optima once."""
    counts = {
        name: _count_calls(monkeypatch, module, name)
        for module, name in [
            (routeinfo.equilibrium, "_evaluate"),
            (routeinfo.costs, "_state_costs"),
            (routeinfo.costs, "_state_optimum"),
            (routeinfo.value, "lambda_min"),
        ]
    }
    for axis, field, span in [
        ("lambda", "frac_informed", "0:1"),
        ("p", "p_incident", "0.1:0.9"),
        ("eta_h", "accuracy_high", "0.6:1"),
    ]:
        if sub == "value" and axis == "eta_h":
            continue  # the value analysis covers eta_h = 1 only
        for calls in counts.values():
            del calls[:]
        sweep = f"{axis}:{span}:40"
        assert _run(capsys, [sub, "--sweep", sweep])[0] == 0
        values = parse_sweep(sweep)[1]
        evaluated = [getattr(env, field) for _, env in counts["_evaluate"]]
        assert evaluated == (values[:1] if axis == "lambda" else values), axis
        once_or_each = len(evaluated)
        if sub in ("costs", "value"):
            assert len(counts["_state_costs"]) == 2 * 40 + 2 * once_or_each, axis
            assert len(counts["_state_optimum"]) == 2, axis
        if sub == "value":
            assert len(counts["lambda_min"]) == once_or_each, axis


def test_an_evaluation_is_reused_only_by_fields_of_its_types(monkeypatch):
    """The kept evaluation serves every environment that shares its network,
    p_incident and accuracies, whatever its lambda; a ``Fraction`` or int
    field never reuses a float evaluation of equal value, nor the reverse,
    so the answer's type follows the fields'. Each step: (p, eta_H, eta_L),
    lambda, whether it evaluates anew, the type of its boundaries."""
    half = Fraction(1, 2)
    steps = [
        ((half, 1, half), Fraction(1, 10), True, Fraction),
        ((half, 1, half), Fraction(9, 10), False, Fraction),
        ((0.5, 1.0, 0.5), 0.1, True, float),
        ((0.5, 1.0, 0.5), 0.9, False, float),
        ((half, 1, half), Fraction(1, 10), True, Fraction),
        ((half, 1.0, half), Fraction(1, 10), True, float),
        ((0.5, 1, 0.5), 0.1, True, float),
        ((0.5, 1.0, 0.5), 0.1, True, float),
    ]
    envs = [InfoEnvironment(p, lam, eta_h, eta_l) for (p, eta_h, eta_l), lam, _, _ in steps]
    # Each answer alone, on its own copy of the network.
    alone = [classify(NetworkParams(*map(Fraction, (1, 3, 2, 19, 21, 5))), env) for env in envs]
    params = NetworkParams(*map(Fraction, (1, 3, 2, 19, 21, 5)))
    calls = _count_calls(monkeypatch, routeinfo.equilibrium, "_evaluate")
    for env, expected, (_, _, anew, kind) in zip(envs, alone, steps):
        before = len(calls)
        regime = classify(params, env)
        assert len(calls) - before == anew, env
        assert regime == expected and {type(b) for b in regime.bounds} == {kind}, env
    assert [regime.label for regime in alone] == ["R1", "R4"] * 2 + ["R1"] * 4


def test_an_array_evaluation_is_never_kept(monkeypatch):
    """An environment with an array lambda reuses the kept evaluation of its
    scalar fields, but an evaluation with array fields is never kept: an
    array could change in place, and a sweep's arrays would stay alive."""
    # Each p's first boundary alone, on its own copy of the network.
    lb1 = {
        p: classify(routeinfo.cli._network(DEFAULTS), InfoEnvironment(p, 0.5, 1.0)).lambda_bar_1
        for p in (0.2, 0.6)
    }
    params = routeinfo.cli._network(DEFAULTS)
    calls = _count_calls(monkeypatch, routeinfo.equilibrium, "_evaluate")
    lam = np.linspace(0.0, 1.0, 5)
    labels = [classify(params, InfoEnvironment(0.2, x, 1.0)).label for x in lam.tolist()]
    assert classify(params, InfoEnvironment(0.2, lam, 1.0)).label.tolist() == labels
    assert len(calls) == 1
    p = np.array([0.2, 0.6])
    env = InfoEnvironment(p, 0.5, 1.0)
    assert classify(params, env).lambda_bar_1.tolist() == [lb1[0.2], lb1[0.6]]
    p[0] = 0.6
    assert classify(params, env).lambda_bar_1.tolist() == [lb1[0.6], lb1[0.6]]
    assert len(calls) == 3
    assert classify(params, InfoEnvironment(0.2, 0.9, 1.0)).label == "R4"
    assert len(calls) == 3


def test_a_baseline_is_reused_only_by_fields_of_its_types(monkeypatch):
    """The kept lambda = 0 baseline of a cost report serves every environment
    that shares its network, p_incident and accuracies, whatever its lambda;
    a ``Fraction`` or int field never reuses a float baseline of equal
    value, nor the reverse. Each step: (p, eta_H, eta_L), lambda, whether
    it computes the baseline anew, the type of the baseline's costs."""
    half = Fraction(1, 2)
    steps = [
        ((half, 1, half), Fraction(1, 10), True, Fraction),
        ((half, 1, half), Fraction(9, 10), False, Fraction),
        ((0.5, 1.0, 0.5), 0.1, True, float),
        ((0.5, 1.0, 0.5), 0.9, False, float),
        ((half, 1, half), Fraction(1, 10), True, Fraction),
        ((half, 1.0, half), Fraction(1, 10), True, float),
        ((0.5, 1, 0.5), 0.1, True, float),
        ((0.5, 1.0, 0.5), 0.1, True, float),
    ]
    envs = [InfoEnvironment(p, lam, eta_h, eta_l) for (p, eta_h, eta_l), lam, _, _ in steps]
    exact = (1, 3, 2, 19, 21, 5)
    # Each report alone, on its own copy of the network.
    alone = [cost_report(NetworkParams(*map(Fraction, exact)), env) for env in envs]
    params = NetworkParams(*map(Fraction, exact))
    calls = _count_calls(monkeypatch, routeinfo.costs, "_baseline")
    for env, expected, (_, _, anew, kind) in zip(envs, alone, steps):
        before = len(calls)
        report = cost_report(params, env)
        assert len(calls) - before == anew, env
        baseline = (report.baseline_n, report.baseline_a)
        assert baseline == (expected.baseline_n, expected.baseline_a), env
        assert {type(cost) for cost in baseline} == {kind}, env


def test_an_array_baseline_is_never_kept(monkeypatch):
    """An environment with an array lambda reuses the kept baseline of its
    scalar fields, but a baseline of array fields is never kept: an array
    could change in place, and a sweep's arrays would stay alive."""
    # Each p's baseline alone, on its own copy of the network.
    alone = {
        p: cost_report(routeinfo.cli._network(DEFAULTS), InfoEnvironment(p, 0.5, 1.0)).baseline_n
        for p in (0.2, 0.6)
    }
    params = routeinfo.cli._network(DEFAULTS)
    calls = _count_calls(monkeypatch, routeinfo.costs, "_baseline")
    assert cost_report(params, InfoEnvironment(0.2, 0.5, 1.0)).baseline_n == alone[0.2]
    lam = np.linspace(0.0, 1.0, 5)
    report = cost_report(params, InfoEnvironment(0.2, lam, 1.0))
    assert report.baseline_n.tolist() == [alone[0.2]] * 5
    assert len(calls) == 1
    p = np.array([0.2, 0.6])
    env = InfoEnvironment(p, 0.5, 1.0)
    assert cost_report(params, env).baseline_n.tolist() == [alone[0.2], alone[0.6]]
    p[0] = 0.6
    assert cost_report(params, env).baseline_n.tolist() == [alone[0.6], alone[0.6]]
    assert len(calls) == 3
    assert cost_report(params, InfoEnvironment(0.2, 0.9, 1.0)).baseline_n == alone[0.2]
    assert len(calls) == 3


def test_an_optimum_is_reused_only_by_its_network(monkeypatch):
    """The social optimum's two state optima read only the network, so the
    kept ones serve every environment on the same network object; a network
    of equal value but other field types, or of other values, computes its
    own. Each step: the network, whether it computes anew, the type of the
    state optima's costs."""
    fields = (1, 3, 2, 19, 21, 5)
    networks = {
        "exact": lambda: NetworkParams(*map(Fraction, fields)),
        "float": lambda: NetworkParams(*map(float, fields)),
        "changed": lambda: NetworkParams(*map(float, fields[:-1]), 6.0),
    }
    steps = [
        ("exact", True, Fraction),
        ("exact", False, Fraction),
        ("float", True, float),
        ("float", False, float),
        ("exact", True, Fraction),
        ("changed", True, float),
        ("float", True, float),
    ]
    envs = [InfoEnvironment(p, 0.5, 1.0) for p in (0.2, 0.4, 0.6, 0.8, 0.2, 0.4, 0.6)]
    # Each optimum alone, on its own copy of the network.
    alone = [social_optimum(networks[name](), env) for (name, _, _), env in zip(steps, envs)]
    made = {name: make() for name, make in networks.items()}
    calls = _count_calls(monkeypatch, routeinfo.costs, "_state_optima")
    for (name, anew, kind), env, expected in zip(steps, envs, alone):
        before = len(calls)
        optimum = social_optimum(made[name], env)
        assert len(calls) - before == anew, name
        assert optimum == expected, name
        costs = (optimum.cost_normal, optimum.cost_incident)
        assert {type(cost) for cost in costs} == {kind}, name


def test_an_array_optimum_is_never_kept(monkeypatch):
    """A network with an array field computes its state optima at every
    call and never keeps them: an array could change in place, and a
    sweep's arrays would stay alive. The kept optima of a scalar network
    stay kept meanwhile."""
    env = InfoEnvironment(0.2, 0.5, 1.0)
    # Each demand's optimum alone, on its own network.
    alone = {
        d: social_optimum(NetworkParams(1.0, 3.0, 2.0, 19.0, 21.0, d), env).cost_normal
        for d in (5.0, 6.0)
    }
    params = NetworkParams(1.0, 3.0, 2.0, 19.0, 21.0, 5.0)
    demand = np.array([5.0, 6.0])
    swept = NetworkParams(1.0, 3.0, 2.0, 19.0, 21.0, demand)
    calls = _count_calls(monkeypatch, routeinfo.costs, "_state_optima")
    assert social_optimum(params, env).cost_normal == alone[5.0]
    assert social_optimum(swept, env).cost_normal.tolist() == [alone[5.0], alone[6.0]]
    demand[0] = 6.0
    assert social_optimum(swept, env).cost_normal.tolist() == [alone[6.0], alone[6.0]]
    assert len(calls) == 3
    assert social_optimum(params, env).cost_normal == alone[5.0]
    assert len(calls) == 3


def _bits(values):
    """Each float's repr: two floats have the same repr only if they have
    the same bits, or are both NaN."""
    return [repr(v) for v in values]


def test_sweep_values_are_the_bits_of_linspace():
    """A sweep of at most the largest ``_POINTWISE_MAX`` points gets its
    values as Python floats, bit for bit those of ``np.linspace``, which a
    longer sweep gets: at drawn bounds for every length up to 400 and for
    drawn lengths up to the largest limit, and where the step underflows
    to 0. ``model._linspace``, which makes them, also matches
    ``np.linspace(..., endpoint=False)`` there."""
    rng = random.Random(32)
    longest = max(_POINTWISE_MAX.values())
    for n in [*range(2, 401), *sorted(rng.sample(range(401, longest), 40)), longest]:
        scale = 10.0 ** rng.randint(-320, 300)
        start = rng.uniform(-1.0, 1.0) * scale
        stop = max(start + rng.uniform(0.0, 2.0) * scale, math.nextafter(start, math.inf))
        axis, values = parse_sweep(f"p:{start!r}:{stop!r}:{n}")
        assert (axis, type(values)) == ("p", list)
        assert _bits(values) == _bits(np.linspace(start, stop, n).tolist()), (start, stop, n)
        open_end = np.linspace(start, stop, n, endpoint=False).tolist()
        assert _bits(_linspace(start, stop, n, endpoint=False)) == _bits(open_end), (start, stop, n)
    axis, values = parse_sweep(f"lambda:0:1:{longest + 1}")
    assert isinstance(values, np.ndarray) and len(values) == longest + 1
    for text in ("lambda:0:5e-324:3", "lambda:0:1e-323:6"):
        _, start, stop, n = text.split(":")
        linspace = np.linspace(float(start), float(stop), int(n)).tolist()
        assert _bits(parse_sweep(text)[1]) == _bits(linspace), text
        open_end = np.linspace(float(start), float(stop), int(n), endpoint=False).tolist()
        assert _bits(_linspace(float(start), float(stop), int(n), endpoint=False)) == _bits(
            open_end
        ), text
    # Where the step underflows to 0, numpy scales i / div by the span.
    assert _bits(parse_sweep("lambda:0:1e-323:6")[1]) == _bits(
        [0.0, 0.0, 5e-324, 5e-324, 1e-323, 1e-323]
    )
    assert _bits(_linspace(0.0, 1e-323, 6, endpoint=False)) == _bits(
        [0.0, 0.0, 5e-324, 5e-324, 5e-324, 1e-323]
    )


@pytest.mark.parametrize("points", [5, max(_POINTWISE_MAX.values()) + 1])
def test_a_sweep_whose_span_overflows_exits_one(capsys, points):
    """Finite bounds whose difference overflows (which ``np.linspace`` would
    turn into NaN values and warnings about) are a malformed sweep, for
    either driver and also under ``-W error``."""
    argv = ["regimes", "--sweep", f"p:-1e308:1e308:{points}"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, argv)
    message = "malformed_sweep: sweep needs a finite stop - start, got -1e+308..1e+308"
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_a_sweep_too_long_for_memory_exits_one(capsys, monkeypatch):
    """A sweep whose values ``np.linspace`` cannot allocate is a malformed
    sweep that names its point count, not a traceback. The allocation
    failure is simulated: no test allocates a large array."""
    points = max(_POINTWISE_MAX.values()) + 1
    asked = []

    def linspace(start, stop, num):
        asked.append(num)
        raise MemoryError(f"cannot allocate {num} values")

    monkeypatch.setattr(np, "linspace", linspace)
    code, out, err = _run(capsys, ["regimes", "--sweep", f"lambda:0:1:{points}"])
    message = f"malformed_sweep: sweep of {points} points does not fit in memory"
    assert (code, out, err, asked) == (1, "", f"error: {message}\n", [points])


#: Slopes 0.3, 3 and 0.6, intercepts 0 and demand 5e-324: the social
#: optimum's normal and expected costs underflow to 0.
_UNDERFLOWING_OPTIMUM = [
    "--slope1-normal", "0.3", "--slope1-incident", "3", "--slope2", "0.6",
    "--intercept1", "0", "--intercept2", "0", "--demand", "5e-324",
]


def test_costs_over_an_optimum_that_underflows_to_zero(capsys):
    """Where the social optimum's costs underflow to 0, a single point
    divides by them as a sweep does: it prints the sweep's row, inf and nan
    included, and writes nothing to stderr."""
    network = _UNDERFLOWING_OPTIMUM
    code, out, err = _run(capsys, ["costs", *network, "--sweep", "lambda:0:1:2"])
    assert (code, err) == (0, "")
    assert ",inf," in out and ",nan," in out
    points, errs = _point_runs(capsys, ["costs", *network], "--lambda", [0.0, 1.0], "csv")
    assert (points, errs) == (out, ["", ""])


@pytest.mark.parametrize("demand", ["1e200", "1e308"])
def test_costs_at_a_huge_demand_match_the_exact_report(capsys, demand):
    """Near the largest float the social optimum stays finite: every cost
    and norm cell is the %.9g of the same quantity from ``cost_report`` on
    ``Fraction`` fields, where nothing overflows."""
    changes = {"demand": demand, "slope1_incident": "1.5", "slope2": "1.2"}
    argv = ["costs"]
    for key, value in changes.items():
        argv += ["--" + key.replace("_", "-"), value]
    code, out, err = _run(capsys, argv)
    assert (code, err) == (0, "")
    (row,) = _rows(out)
    exact = {key: Fraction(value) for key, value in {**DEFAULTS, **changes}.items()}
    report = vars(cost_report(routeinfo.cli._network(exact), routeinfo.cli._environment(exact)))
    norms = {norm: report[c] / report[opt] for norm, (c, opt) in routeinfo.cli._COST_NORMS.items()}
    expected = {name: f"{float(value):.9g}" for name, value in {**report, **norms}.items()}
    assert {name: row[name] for name in expected} == expected


@pytest.mark.parametrize("where", [["--lambda", "0"], ["--sweep", "lambda:0:1:3"]])
def test_json_prints_non_finite_costs_as_null(capsys, where):
    """JSON has no inf: where CSV prints inf or nan, JSON prints null."""
    argv = ["costs", *_UNDERFLOWING_OPTIMUM, *where]
    code, out, err = _run(capsys, argv)
    assert (code, err) == (0, "")
    csv_rows = _rows(out)
    assert any(v == "inf" for row in csv_rows for v in row.values())
    code, out, err = _run(capsys, [*argv, "--format", "json"])
    assert (code, err) == (0, "")
    json_rows = json.loads(out)
    assert [list(r) for r in json_rows] == [list(r) for r in csv_rows]
    for csv_row, json_row in zip(csv_rows, json_rows):
        for name, text in csv_row.items():
            if text in ("inf", "-inf", "nan"):
                assert json_row[name] is None, name
            else:
                assert json_row[name] is not None, name


@pytest.mark.parametrize("where", [["--eta-h", "0.6"], ["--sweep", "eta_h:0.6:1:3"]])
def test_oracle_fails_on_a_nan_deviation(capsys, where):
    """At intercepts 0 and demand 5e-324 the closed form has NaN splits at
    eta_h 0.6 and 0.8. A NaN deviation fails the check, wherever it falls
    in the sweep, and the summary names it."""
    argv = ["oracle", "--intercept1", "0", "--intercept2", "0", "--demand", "5e-324", *where]
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert _rows(out)[0]["deviation"] == "nan"
    assert err == "max |closed-form - fixed-point| deviation: nan\n"


def test_csv_is_written_a_block_of_rows_at_a_time(monkeypatch):
    """No single write to the output carries more than _BLOCK_ROWS rows, in
    CSV or in JSON, so the formatted text held at once stays bounded however
    long the sweep. The JSON is the bytes of one indented dump of all rows."""
    writes = []
    stdout = SimpleNamespace(write=writes.append, flush=lambda: None)
    monkeypatch.setattr("sys.stdout", stdout)
    points = 2 * _BLOCK_ROWS + 5
    sweep = ["regimes", "--sweep", f"lambda:0:1:{points}"]
    assert main(sweep) == 0
    assert max(text.count("\n") for text in writes) <= _BLOCK_ROWS
    assert len(_rows("".join(writes))) == points

    writes.clear()
    assert main([*sweep, "--format", "json"]) == 0
    assert max(text.count("{") for text in writes) <= _BLOCK_ROWS
    text = "".join(writes)
    rows = json.loads(text)
    assert len(rows) == points
    assert text == json.dumps(rows, indent=2, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# JSON format
# ---------------------------------------------------------------------------


def test_json_output_parses(capsys):
    code, out, _ = _run(capsys, ["equilibrium", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert isinstance(payload, list) and len(payload) == 1
    assert payload[0]["l_population_empty"] is False
    assert payload[0]["rho_L"] == pytest.approx(0.5247058823529409)


# ---------------------------------------------------------------------------
# Error handling
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["regimes", "--p", "1.5"],
        ["regimes", "--p", "0"],
        ["equilibrium", "--eta-h", "0.4"],
        ["equilibrium", "--sweep", "lambda:0:2:5"],
        ["equilibrium", "--sweep", "eta_h:0.5:1:3"],
        ["equilibrium", "--sweep", "p:0:0.9:3"],
        ["equilibrium", "--sweep", "p:0.1:1:3"],
        ["equilibrium", "--sweep", "lambda:0.9:0.1:3"],
        ["equilibrium", "--sweep", "lambda:0.1:0.9"],
        ["equilibrium", "--sweep", "demand:1:2:3"],
    ],
)
def test_invalid_inputs_exit_one(capsys, argv):
    code, _, err = _run(capsys, argv)
    assert code == 1
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "command", ["regimes", "equilibrium", "costs", "value", "oracle", "verify", "beliefs"]
)
def test_a_vanishing_denominator_of_k2_exits_one(capsys, command):
    """At p 5e-324 with slopes near 1e-9, a1_hat + P(Ha) * slope2 underflows
    to 0: every subcommand that reads K2 exits 1 with ``not_finite``, and
    ``beliefs``, which does not, answers."""
    argv = [command, "--p", "5e-324", "--slope1-normal", "1e-9", "--slope1-incident"]
    argv += ["3e-9", "--slope2", "2e-9", "--intercept1", "0", "--intercept2", "0"]
    code, _, err = _run(capsys, argv)
    if command == "beliefs":
        assert (code, err) == (0, "")
    else:
        assert code == 1 and err.startswith("error: not_finite: need nonzero a1_hat"), err


#: Valid networks at which a denominator of lambda_bar_1 underflows to 0.
_UNDERFLOWING_BOUNDARIES = [
    ["--slope1-normal", "1e-9", "--slope2", "2e-9", "--slope1-incident", "3e-9",
     "--intercept1", "0", "--intercept2", "0", "--demand", "5e-324"],
    ["--slope1-normal", "1e-30", "--slope2", "2e-30", "--slope1-incident", "3e-30",
     "--intercept1", "0", "--intercept2", "0", "--demand", "1e-300"],
]

#: The subcommands that take a sweep and read the regime boundaries.
_READ_BOUNDARIES = ("regimes", "equilibrium", "costs", "value", "oracle")


@pytest.mark.parametrize("network", _UNDERFLOWING_BOUNDARIES, ids=["5e-324", "1e-300"])
@pytest.mark.parametrize(
    "argv",
    [
        *([command] for command in _READ_BOUNDARIES),
        *([command, "--sweep", "lambda:0:1:3"] for command in _READ_BOUNDARIES),
        ["verify"],
    ],
    ids=" ".join,
)
def test_a_vanishing_denominator_of_a_boundary_exits_one(capsys, argv, network):
    """Where demand * P(Hn) * (a1_hat + slope2 * P(Ha)) underflows to 0, every
    subcommand that reads the regime boundaries exits 1 with ``not_finite``
    and no traceback, at a point and in a sweep."""
    code, _, err = _run(capsys, [*argv, *network])
    expected = "error: not_finite: need nonzero demand * P(Hn) * (a1_hat"
    assert code == 1 and err.startswith(expected), err


def test_verify_on_collapsed_boundaries_exits_one(capsys):
    """At intercepts 0 and demand 5e-324 the boundaries collapse to (0, 1, 1),
    which leave no sorted lambda grid: ``verify`` exits 1 with
    ``degenerate_grid``."""
    argv = ["verify", "--intercept1", "0", "--intercept2", "0", "--demand", "5e-324"]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: degenerate_grid: regime boundaries 0.0, 1.0, 1.0"), err


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            ["value", "--sweep", "eta_h:0.55:1:10"],
            "not_analyzed: value analysis covers accuracy_high = 1 only, got 0.55",
        ),
        (
            ["regimes", "--eta-l", "0.7", "--sweep", "eta_h:0.55:1:10"],
            "accuracy_out_of_range: accuracy_low must lie in [0.5, accuracy_high), "
            "got 0.7",
        ),
        (
            ["costs", "--lambda", "1.2"],
            "probability_out_of_range: frac_informed must lie in [0, 1], got 1.2",
        ),
        (
            ["equilibrium", "--sweep", "eta_h:0.5:1:3"],
            "accuracy_out_of_range: accuracy_high must lie in (0.5, 1], got 0.5",
        ),
        (
            ["verify", "--sweep", "lambda:0:1:5"],
            "malformed_sweep: verify checks one point and takes no --sweep",
        ),
        (
            ["verify", "--format", "csv"],
            "unsupported_format: verify prints JSON only, got --format csv",
        ),
        (
            ["equilibrium", "--slope1-incident", "inf"],
            "not_finite: need finite slope1_normal, slope1_incident, slope2, "
            "intercept1, intercept2 and demand, got (1.0, inf, 2.0, 19.0, 21.0, 5.0)",
        ),
        (
            ["costs", "--demand", "inf"],
            "not_finite: need finite slope1_normal, slope1_incident, slope2, "
            "intercept1, intercept2 and demand, got (1.0, 3.0, 2.0, 19.0, 21.0, inf)",
        ),
        (
            ["regimes", "--slope1-incident", "3e200", "--demand", "1e200"],
            "not_finite: need a finite largest latency intercept2 + "
            "slope1_incident * demand, got 21.0 + 3e+200 * 1e+200",
        ),
        (
            ["equilibrium", "--sweep", "lambda:0:inf:3"],
            "malformed_sweep: sweep needs finite bounds, got 0.0..inf",
        ),
        (
            ["equilibrium", "--sweep", "lambda:nan:1:3"],
            "malformed_sweep: sweep needs finite bounds, got nan..1.0",
        ),
        (
            ["equilibrium", "--sweep", "lambda:low:1:3"],
            "malformed_sweep: bad sweep 'lambda:low:1:3': "
            "could not convert string to float: 'low'",
        ),
        (
            ["equilibrium", "--sweep", "lambda:0.1:0.9:1"],
            "malformed_sweep: sweep needs >= 2 points, got 1",
        ),
        (
            ["equilibrium", "--sweep", "demand:6:7:3"],
            "malformed_sweep: sweep axis must be one of ('lambda', 'p', 'eta_h'), "
            "got 'demand'",
        ),
        (
            ["regimes", "--config", "p = 0.3\nlambda 0.4\n"],
            "malformed_config: {config}:2: expected key = value",
        ),
        (
            ["regimes", "--config", "# running example\np = high\n"],
            "malformed_config: {config}:2: 'high' is not a number",
        ),
    ],
    ids=[
        "value_eta_h_sweep",
        "regimes_eta_l_above_sweep_start",
        "single_point",
        "sweep_range",
        "verify_sweep",
        "verify_csv",
        "infinite_slope",
        "infinite_demand",
        "overflowing_latency",
        "infinite_sweep_stop",
        "nan_sweep_start",
        "non_numeric_sweep_bound",
        "one_sweep_point",
        "unknown_sweep_axis",
        "config_line_without_equals",
        "non_numeric_config_value",
    ],
)
def test_invalid_input_names_the_first_offending_value(
    capsys, tmp_path, argv, message
):
    """A sweep fails with the message of its first bad point, not the array.
    A ``--config`` argument here is the file's text: it is written to a file,
    whose path replaces it and ``{config}`` in the message."""
    if "--config" in argv:
        at = argv.index("--config") + 1
        config = tmp_path / "bad.cfg"
        config.write_text(argv[at], encoding="utf-8")
        argv = [*argv[:at], str(config), *argv[at + 1 :]]
        message = message.format(config=config)
    code, out, err = _run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_valid_eta_sweep_passes(capsys):
    code, out, _ = _run(capsys, ["regimes", "--sweep", "eta_h:0.6:1.0:3"])
    assert code == 0
    assert len(_rows(out)) == 3


def test_unknown_subcommand_exits_one(capsys):
    assert main(["nonsense"]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "equilibrium" in out


def _console(argv, stdout):
    """``python -m routeinfo.cli argv`` in a new interpreter that imports
    from ``src``, writing to ``stdout`` through Python's default buffer,
    with its stderr piped."""
    src = str(Path(routeinfo.cli.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-m", "routeinfo.cli", *argv],
        env=env, stdout=stdout, stderr=subprocess.PIPE,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["regimes", "--sweep", "lambda:0:1:3000"],
        ["costs", "--sweep", "lambda:0:1:601"],
        ["equilibrium", "--sweep", "lambda:0:1:20000", "--format", "json"],
    ],
    ids=["regimes", "costs_array", "equilibrium_json"],
)
def test_a_reader_that_leaves_early_gets_exit_one_and_no_error_line(argv):
    """As ``| head -1``: the reader takes one line and closes the pipe while
    the run still writes (each output is larger than a pipe's buffer). The
    run exits 1 and prints nothing to stderr."""
    with _console(argv, subprocess.PIPE) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
    assert first.startswith((b"p,", b"[")), first
    assert (proc.returncode, err) == (1, b"")


def test_a_stdout_closed_before_the_run_gets_exit_one_and_no_error_line():
    """A short output stays in stdout's buffer until the last flush, which
    ``main`` makes instead of the interpreter's exit (that would print
    "Exception ignored" and exit 120), so it exits as a long one does."""
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _console(["regimes"], write)
    finally:
        os.close(write)
    _, err = proc.communicate()
    assert (proc.returncode, err) == (1, b"")


def _whole_parser():
    """The command's parser as built before each run built only its own
    subcommand's options: every subcommand with every option, from the same
    tables."""
    import argparse

    from routeinfo.cli import _PARAMS, _SUBCOMMANDS

    parser = argparse.ArgumentParser(
        prog="routeinfo",
        description=(
            "Bayesian Wardrop equilibria and the value of information for a "
            "two-route congestion game with an incident-prone route."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value parameter file")
    for key, (_, param_help) in _PARAMS.items():
        common.add_argument("--" + key.replace("_", "-"), dest=key, type=float, help=param_help)
    common.add_argument("--sweep", help="axis:start:stop:points with axis in {lambda, p, eta_h}")
    common.add_argument("--format", choices=("csv", "json"))
    common.add_argument("--out", help="output path (default: stdout)")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, columns) in _SUBCOMMANDS.items():
        sp = sub.add_parser(
            name,
            help=help_text,
            description=f"{help_text}. Output columns: {columns}.",
            parents=[common],
        )
        if name == "beliefs":
            sp.add_argument(
                "--treatment",
                choices=("conditional", "marginal", "uninformative"),
                default="uninformative",
                help="which interim-belief construction to tabulate",
            )
    return parser


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        *([sub, "--help"] for sub in routeinfo.cli._SUBCOMMANDS),
        [],
        ["nonsense"],
        ["regimes", "--nonsense", "1"],
        ["costs", "--p", "x"],
        ["--p", "0.3", "regimes"],
        ["beliefs", "--treatment", "nonsense"],
        ["regimes", "--treatment", "marginal"],
        ["regimes", "beliefs"],
    ],
    ids=lambda argv: " ".join(argv) or "none",
)
def test_help_and_usage_errors_print_the_whole_parsers_bytes(capsys, argv):
    """``--help``, each subcommand's ``--help`` and every usage error print
    the bytes, and exit with the code, of the parser with every subcommand's
    options built."""
    try:
        _whole_parser().parse_args(argv)
    except SystemExit as exc:
        expected = (0 if exc.code in (0, None) else 1, *capsys.readouterr())
    assert expected[1] or expected[2]
    assert _run(capsys, argv) == expected


@pytest.mark.parametrize(
    "argv,chosen",
    [(["regimes", "--p", "0.3"], "regimes"), (["--p", "0.3", "beliefs"], None), ([], None)],
    ids=["subcommand-first", "option-first", "none"],
)
def test_a_run_builds_only_its_subcommands_options(argv, chosen):
    """Only the subcommand that ``argv`` hands its arguments to, its first
    argument not starting with "-", gets the shared options; the others
    keep only ``-h``, which lists them in the top-level help."""
    parser = routeinfo.cli._parser(argv)
    (subparsers,) = [a for a in parser._actions if isinstance(a.choices, dict)]
    for name, sub in subparsers.choices.items():
        usage = sub.format_usage()
        assert ("--sweep" in usage) == (name == chosen), usage
        if name != chosen:
            assert usage == f"usage: routeinfo {name} [-h]\n"


def test_main_without_arguments_parses_the_command_line(capsys, monkeypatch):
    """``main()``, as the console script calls it, parses ``sys.argv[1:]``."""
    argv = ["regimes", "--p", "0.3"]
    monkeypatch.setattr(sys, "argv", ["routeinfo", *argv])
    assert _run(capsys, None) == _run(capsys, argv)


def _help_columns(sub: str, out: str) -> str:
    """What ``sub``'s help must name, whitespace removed, given its output."""
    if sub == "verify":
        return "/".join(key for key in json.loads(out) if key.startswith("theorem"))
    header = out.splitlines()[0].split(",")
    if sub == "costs":
        # The help lists every printed cost and names the *_norm ones.
        reported = [c for c in header[4:] if not c.endswith("_norm")]
        norms = [c for c in header[4:] if c.endswith("_norm")]
        assert norms == [f"{c}_norm" for c in reported if c.startswith("c_")]
        return f"{','.join(header[:4])}followedby{','.join(reported)}and*_normvariants"
    if sub == "oracle":
        # One rho_*_closed and one rho_*_oracle stand for the three types.
        header = list(dict.fromkeys(re.sub(r"^rho_[^_]+_", "rho_*_", c) for c in header))
    return ",".join(header)


@pytest.mark.parametrize(
    "sub", ["regimes", "equilibrium", "beliefs", "costs", "value", "verify", "oracle"]
)
def test_help_lists_the_parameters_and_printed_columns(capsys, sub):
    """Each subcommand's help names the ten parameter flags in DEFAULTS order
    and what the subcommand prints: its CSV header, or for ``verify`` the
    JSON summary's theorem keys. The help's column lists are written out, so
    this test is what keeps them in step with the output."""
    assert main([sub, "--help"]) == 0
    text = capsys.readouterr().out
    assert len(DEFAULTS) == 10
    positions = [text.index(f"  --{key.replace('_', '-')} ") for key in DEFAULTS]
    assert positions == sorted(positions)
    code, out, _ = _run(capsys, [sub])
    assert code == 0
    # argparse wraps the description at spaces.
    assert _help_columns(sub, out) in "".join(text.split())


#: The running example's slopes and intercepts, each scaled by a change of
#: time unit.
_TIME_FLAGS = {
    "--slope1-normal": 1.0,
    "--slope1-incident": 3.0,
    "--slope2": 2.0,
    "--intercept1": 19.0,
    "--intercept2": 21.0,
}


@pytest.mark.parametrize("p", [0.2, 0.395, 0.6])
@pytest.mark.parametrize("scale", [1e-9, 1e-6, 1e-3, 1e3, 1e6, 1e9])
def test_verify_does_not_depend_on_the_time_unit(capsys, scale, p):
    argv = ["verify", "--p", str(p)]
    for flag, value in _TIME_FLAGS.items():
        argv += [flag, repr(value * scale)]
    code, out, _ = _run(capsys, argv)
    payload = json.loads(out)
    assert code == 0, (payload["theorem1"]["failures"], payload["theorem2"]["failures"])
