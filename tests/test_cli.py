"""End-to-end checks of the command-line interface.

Each test drives ``routeinfo.cli.main`` with an argv list and inspects the
exit code plus captured stdout/stderr, the same surface a shell user sees.
"""

import csv
import io
import json

import numpy as np
import pytest

from routeinfo.cli import DEFAULTS, main

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
    """A beliefs sweep is one array call; entries that do not depend on the
    swept axis are repeated per point, as a run per point prints them."""
    base = ["beliefs", "--treatment", treatment, *extra, "--format", fmt]
    code, out, _ = _run(capsys, [*base, "--sweep", f"{axis}:{start}:{stop}:4"])
    assert code == 0
    flag = {"lambda": "--lambda", "p": "--p", "eta_h": "--eta-h"}[axis]
    header, rows = None, []
    for value in np.linspace(start, stop, 4):
        point_code, point_out, _ = _run(capsys, [*base, flag, repr(float(value))])
        assert point_code == 0
        if fmt == "csv":
            header, *point_rows = point_out.splitlines()
            rows.extend(point_rows)
        else:
            rows.append(point_out[len("[\n"):-len("\n]\n")])
    if fmt == "csv":
        assert out == "\n".join([header, *rows]) + "\n"
    else:
        assert out == "[\n" + ",\n".join(rows) + "\n]\n"


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


def test_oracle_reports_deviation(capsys):
    code, out, err = _run(capsys, ["oracle", "--sweep", "lambda:0.1:0.9:5"])
    assert code == 0
    assert "max |closed-form - fixed-point| deviation" in err
    rows = _rows(out)
    assert len(rows) == 5
    assert all(float(r["deviation"]) <= 1e-6 for r in rows)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_oracle_sweep_prints_the_rows_of_single_points(capsys, fmt):
    """A sweep is one array call; its rows and its stderr summary are those of
    a run per point, byte for byte."""
    code, out, err = _run(
        capsys, ["oracle", "--sweep", "lambda:0:1:11", "--format", fmt]
    )
    assert code == 0
    rows, summaries = [], []
    for lam in np.linspace(0.0, 1.0, 11):
        point_code, point_out, point_err = _run(
            capsys, ["oracle", "--lambda", repr(float(lam)), "--format", fmt]
        )
        assert point_code == 0
        if fmt == "csv":
            header, row = point_out.splitlines()
        else:
            row = point_out[len("[\n"):-len("\n]\n")]
        rows.append(row)
        summaries.append(point_err)
    if fmt == "csv":
        assert out == "\n".join([header, *rows]) + "\n"
    else:
        assert out == "[\n" + ",\n".join(rows) + "\n]\n"
    assert err == max(summaries, key=lambda line: float(line.rsplit(" ", 1)[1]))


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
            ["equilibrium", "--slope1-incident", "inf"],
            "not_finite: need finite slope1_normal, slope1_incident, slope2, "
            "intercept1, intercept2 and demand, got (1.0, inf, 2.0, 19.0, 21.0, 5.0)",
        ),
        (
            ["costs", "--demand", "inf"],
            "not_finite: need finite slope1_normal, slope1_incident, slope2, "
            "intercept1, intercept2 and demand, got (1.0, 3.0, 2.0, 19.0, 21.0, inf)",
        ),
    ],
    ids=[
        "value_eta_h_sweep",
        "regimes_eta_l_above_sweep_start",
        "single_point",
        "sweep_range",
        "verify_sweep",
        "infinite_slope",
        "infinite_demand",
    ],
)
def test_invalid_input_names_the_first_offending_value(capsys, argv, message):
    """A sweep fails with the message of its first bad point, not the array."""
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


@pytest.mark.parametrize(
    "sub", ["regimes", "equilibrium", "beliefs", "costs", "value", "verify", "oracle"]
)
def test_help_lists_the_parameters_and_printed_columns(capsys, sub):
    """Each subcommand's help names the ten parameter flags in DEFAULTS order
    and, for the fully listed ones, the CSV header the subcommand prints."""
    assert main([sub, "--help"]) == 0
    text = capsys.readouterr().out
    assert len(DEFAULTS) == 10
    positions = [text.index(f"  --{key.replace('_', '-')} ") for key in DEFAULTS]
    assert positions == sorted(positions)
    if sub in ("regimes", "equilibrium", "beliefs", "value"):
        code, out, _ = _run(capsys, [sub])
        assert code == 0
        header = out.splitlines()[0]
        assert header in "".join(text.split())


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
