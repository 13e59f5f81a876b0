"""Command-line front end.

Subcommands emit one CSV/JSON row per parameter point (single point by
default, a grid with --sweep), always echoing the full environment tuple
(p, lambda, eta_h, eta_l) so every dataset is self-describing. Output is
deterministic: identical inputs produce byte-identical files.

Exit codes: 0 success; 1 validation or input problems; 2 verification
failure (the verify and oracle subcommands).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .beliefs import belief_conditional_ck, belief_marginal_ck, belief_uninformative
from .costs import CostReport, cost_report
from .equilibrium import _type_masses, classify, solve_bwe
from .model import (
    EQUILIBRIUM_TYPES,
    InfoEnvironment,
    NetworkParams,
    PlayerType,
    ValidationError,
)
from .oracle import OracleConfig, OracleConvergenceError, solve_fixed_point
from .value import theorem2_grid, value_report, verify_theorem1, verify_theorem2

#: Default network: the running two-route example (slopes 1/3/2, intercepts
#: 19/21, demand 5) with a fifth of traffic incident-prone and a perfectly
#: accurate subscription service for half the population.
DEFAULTS = {
    "p": 0.2,
    "lambda": 0.5,
    "eta_h": 1.0,
    "eta_l": 0.5,
    "demand": 5.0,
    "slope1_normal": 1.0,
    "slope1_incident": 3.0,
    "slope2": 2.0,
    "intercept1": 19.0,
    "intercept2": 21.0,
}

_PARAM_KEYS = tuple(DEFAULTS)
_SWEEP_AXES = ("lambda", "p", "eta_h")

#: Deviation above which the oracle subcommand reports failure (exit 2).
ORACLE_DEVIATION_LIMIT = 1e-6

#: Points per regime for the verify subcommand's lambda grid.
_VERIFY_POINTS = 501


@dataclass(frozen=True)
class SweepSpec:
    """One swept axis; the other parameters stay at their config values.

    The axis's valid range is not checked here: the environment built from
    the sweep checks every value and names the first one out of range.
    """

    axis: str
    start: float
    stop: float
    points: int

    def __post_init__(self):
        if self.axis not in _SWEEP_AXES:
            raise ValidationError(
                "malformed_sweep",
                f"sweep axis must be one of {_SWEEP_AXES}, got {self.axis!r}",
            )
        if not self.start < self.stop:
            raise ValidationError(
                "malformed_sweep",
                f"sweep needs start < stop, got {self.start}..{self.stop}",
            )
        if self.points < 2:
            raise ValidationError(
                "malformed_sweep", f"sweep needs >= 2 points, got {self.points}"
            )

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)


def parse_sweep(text: str) -> SweepSpec:
    """Parse 'axis:start:stop:points'."""
    parts = text.split(":")
    if len(parts) != 4:
        raise ValidationError(
            "malformed_sweep", f"expected axis:start:stop:points, got {text!r}"
        )
    axis, start, stop, points = parts
    try:
        start, stop, points = float(start), float(stop), int(points)
    except ValueError as exc:
        raise ValidationError("malformed_sweep", f"bad sweep {text!r}: {exc}") from exc
    return SweepSpec(axis, start, stop, points)


def parse_config_file(path: str) -> dict:
    """Flat key=value file; blank lines and # comments ignored."""
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValidationError("malformed_config", f"cannot read {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(
                "malformed_config", f"{path}:{lineno}: expected key = value"
            )
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _PARAM_KEYS:
            raise ValidationError(
                "malformed_config",
                f"{path}:{lineno}: unknown key {key!r} "
                f"(valid: {', '.join(_PARAM_KEYS)})",
            )
        try:
            values[key] = float(value.strip())
        except ValueError as exc:
            raise ValidationError(
                "malformed_config", f"{path}:{lineno}: {value.strip()!r} is not a number"
            ) from exc
    return values


def _build_instance(config: dict, sweep: SweepSpec | None = None) -> tuple:
    """(params, env) at ``config``; a sweep makes its axis an array field."""
    if sweep is not None:
        config = {**config, sweep.axis: sweep.values()}
    params = NetworkParams(
        slope1_normal=config["slope1_normal"],
        slope1_incident=config["slope1_incident"],
        slope2=config["slope2"],
        intercept1=config["intercept1"],
        intercept2=config["intercept2"],
        demand=config["demand"],
    )
    env = InfoEnvironment(
        p_incident=config["p"],
        frac_informed=config["lambda"],
        accuracy_high=config["eta_h"],
        accuracy_low=config["eta_l"],
    )
    return params, env


def _echo(env: InfoEnvironment) -> dict:
    return {
        "p": env.p_incident,
        "lambda": env.frac_informed,
        "eta_h": env.accuracy_high,
        "eta_l": env.accuracy_low,
    }


def _table(columns: dict) -> list:
    """One row per point from columns of scalars and equal-length arrays."""
    cells = [np.atleast_1d(c).tolist() for c in np.broadcast_arrays(*columns.values())]
    return [dict(zip(columns, row)) for row in zip(*cells)]


# ---------------------------------------------------------------------------
# Row builders
# ---------------------------------------------------------------------------
#
# Every builder takes an environment whose swept field is an array and makes
# one library call for all points.


def _rows_regimes(params, env) -> list:
    regime = classify(params, env)
    return _table(
        {
            **_echo(env),
            "lambda_bar_1": regime.lambda_bar_1,
            "lambda_bar_2": regime.lambda_bar_2,
            "lambda_bar_3": regime.lambda_bar_3,
            "regime": regime.label,
        }
    )


def _rows_equilibrium(params, env) -> list:
    regime = classify(params, env)
    profile = solve_bwe(params, env)
    return _table(
        {
            **_echo(env),
            "regime": regime.label,
            "rho_L": profile.rho_L,
            "rho_Hn": profile.rho_Hn,
            "rho_Ha": profile.rho_Ha,
            "l_population_empty": profile.l_population_empty,
        }
    )


def _rows_costs(params, env) -> list:
    report = cost_report(params, env)
    columns = {**_echo(env)}
    for name in CostReport.__dataclass_fields__:
        columns[name] = getattr(report, name)
    columns["c_L_n_norm"] = report.c_L_n / report.socopt_n
    columns["c_L_a_norm"] = report.c_L_a / report.socopt_a
    columns["c_H_n_norm"] = report.c_H_n / report.socopt_n
    columns["c_H_a_norm"] = report.c_H_a / report.socopt_a
    columns["c_L_exp_norm"] = report.c_L_exp / report.socopt_exp
    columns["c_H_exp_norm"] = report.c_H_exp / report.socopt_exp
    columns["c_soc_n_norm"] = report.c_soc_n / report.socopt_n
    columns["c_soc_a_norm"] = report.c_soc_a / report.socopt_a
    columns["c_soc_exp_norm"] = report.c_soc_exp / report.socopt_exp
    return _table(columns)


def _rows_value(params, env) -> list:
    report = value_report(params, env)
    columns = {**_echo(env)}
    for name in (
        "v_L_n", "v_L_a", "v_H_n", "v_H_a", "v_L_exp", "v_H_exp",
        "v_rel_n", "v_rel_a", "v_rel_exp", "w_n", "w_a", "w_exp", "lambda_min",
    ):
        columns[name] = getattr(report, name)
    return _table(columns)


def _rows_beliefs(params, env, treatment: str) -> list:
    build, owners = {
        "uninformative": (
            belief_uninformative,
            (PlayerType.L, PlayerType.HN, PlayerType.HA),
        ),
        "conditional": (
            belief_conditional_ck,
            (PlayerType.LN, PlayerType.LA, PlayerType.HN, PlayerType.HA),
        ),
        "marginal": (
            belief_marginal_ck,
            (PlayerType.LN, PlayerType.LA, PlayerType.HN, PlayerType.HA),
        ),
    }[treatment]
    entries = []
    for owner in owners:
        table = build(env, owner)
        for (state, opponent), prob in table.entries.items():
            entries.append(
                _table(
                    {
                        **_echo(env),
                        "treatment": treatment,
                        "owner": owner.value,
                        "state": state.value,
                        "opponent": opponent.value,
                        "probability": prob,
                    }
                )
            )
    # One row per point and entry, point-major as a run per point prints them.
    return [row for point in zip(*entries) for row in point]


def _rows_oracle(params, env) -> list:
    closed = solve_bwe(params, env)
    numeric = solve_fixed_point(params, env, OracleConfig())
    masses = _type_masses(env)
    deviation = 0.0
    for t in EQUILIBRIUM_TYPES:
        gap = np.abs(closed.split(t) - numeric.split(t))
        deviation = np.maximum(deviation, np.where(masses[t] > 0, gap, 0.0))
    return _table(
        {
            **_echo(env),
            "regime": classify(params, env).label,
            "rho_L_closed": closed.rho_L,
            "rho_Hn_closed": closed.rho_Hn,
            "rho_Ha_closed": closed.rho_Ha,
            "rho_L_oracle": numeric.rho_L,
            "rho_Hn_oracle": numeric.rho_Hn,
            "rho_Ha_oracle": numeric.rho_Ha,
            "deviation": deviation,
        }
    )


# ---------------------------------------------------------------------------
# Output formatting
# ---------------------------------------------------------------------------


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(value)
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.9g}"
    return str(value)


def _emit_csv(rows: list) -> str:
    columns = list(rows[0].keys())
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_cell(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def _jsonable(value):
    if isinstance(value, (bool, str)) or value is None:
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return None if math.isnan(v) else v
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


def _emit_json(payload) -> str:
    return json.dumps(_jsonable(payload), indent=2, allow_nan=False) + "\n"


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def _run_verify(config: dict) -> tuple:
    params, env = _build_instance(config)
    grid = theorem2_grid(params, env, points_per_regime=_VERIFY_POINTS)
    t1 = verify_theorem1(params, grid)
    t2 = verify_theorem2(params, grid)
    payload = {
        "params": {k: config[k] for k in _PARAM_KEYS},
        "theorem1": {
            "passed": t1.passed,
            "n_checked": t1.n_checked,
            "failures": t1.failures,
        },
        "theorem2": {
            "passed": t2.passed,
            "regime_cases": t2.regime_cases,
            "grid_argmax_lambda": t2.grid_argmax_lambda,
            "lambda_min": t2.lambda_min,
            "peak_lambda": t2.peak_lambda,
            "failures": t2.failures,
        },
        "passed": t1.passed and t2.passed,
    }
    return payload, (0 if payload["passed"] else 2)


def run(subcommand: str, config: dict, sweep: SweepSpec | None = None) -> int:
    """Execute one subcommand; returns the process exit code.

    ``config`` holds the ten parameter keys plus optional ``format``
    (csv|json, default csv), ``out`` (path, default stdout), and
    ``treatment`` (beliefs subcommand only).
    """
    fmt = config.get("format", "csv")
    out = config.get("out")

    if subcommand == "verify":
        if sweep is not None:
            raise ValidationError(
                "malformed_sweep", "verify checks one point and takes no --sweep"
            )
        payload, code = _run_verify(config)
        _write(_emit_json(payload), out)
        return code

    treatment = config.get("treatment", "uninformative")
    builders = {
        "regimes": _rows_regimes,
        "equilibrium": _rows_equilibrium,
        "beliefs": lambda params, env: _rows_beliefs(params, env, treatment),
        "costs": _rows_costs,
        "value": _rows_value,
        "oracle": _rows_oracle,
    }
    if subcommand not in builders:
        raise ValidationError("unknown_subcommand", f"no subcommand {subcommand!r}")
    rows = builders[subcommand](*_build_instance(config, sweep))

    _write(_emit_csv(rows) if fmt == "csv" else _emit_json(rows), out)

    if subcommand == "oracle":
        worst = max(row["deviation"] for row in rows)
        print(
            f"max |closed-form - fixed-point| deviation: {worst:.3e}",
            file=sys.stderr,
        )
        if worst > ORACLE_DEVIATION_LIMIT:
            return 2
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

_COLUMN_DOCS = {
    "beliefs": "p,lambda,eta_h,eta_l,treatment,owner,state,opponent,probability",
    "regimes": "p,lambda,eta_h,eta_l,lambda_bar_1,lambda_bar_2,lambda_bar_3,regime",
    "equilibrium": (
        "p,lambda,eta_h,eta_l,regime,rho_L,rho_Hn,rho_Ha,l_population_empty"
    ),
    "costs": (
        "p,lambda,eta_h,eta_l followed by c_L_n,c_L_a,c_H_n,c_H_a,c_L_exp,"
        "c_H_exp,c_soc_n,c_soc_a,c_soc_exp,baseline_n,baseline_a,baseline_exp,"
        "socopt_n,socopt_a,socopt_exp and *_norm variants (each cost divided "
        "by its social-optimum counterpart)"
    ),
    "value": (
        "p,lambda,eta_h,eta_l,v_L_n,v_L_a,v_H_n,v_H_a,v_L_exp,v_H_exp,"
        "v_rel_n,v_rel_a,v_rel_exp,w_n,w_a,w_exp,lambda_min"
    ),
    "verify": "JSON summary: theorem1/theorem2 pass flags, cases, failures",
    "oracle": (
        "p,lambda,eta_h,eta_l,regime,rho_*_closed,rho_*_oracle,deviation; "
        "prints the max deviation to stderr and exits 2 above 1e-6"
    ),
}

_SUBCOMMAND_HELP = {
    "beliefs": "interim belief tables (one row per table entry)",
    "regimes": "regime boundaries and membership",
    "equilibrium": "equilibrium split fractions",
    "costs": "equilibrium, baseline, and social-optimum costs",
    "value": "individual and social value of information",
    "verify": "run the theorem checks and emit a pass/fail summary",
    "oracle": "compare closed-form equilibria against the numerical solver",
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="routeinfo",
        description=(
            "Bayesian Wardrop equilibria and the value of information for a "
            "two-route congestion game with an incident-prone route."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_text in _SUBCOMMAND_HELP.items():
        sp = sub.add_parser(
            name,
            help=help_text,
            description=f"{help_text}. Output columns: {_COLUMN_DOCS[name]}.",
        )
        sp.add_argument("--config", help="flat key=value parameter file")
        sp.add_argument("--p", type=float, help="incident probability (0,1)")
        sp.add_argument(
            "--lambda", dest="lambda", type=float, help="informed fraction [0,1]"
        )
        sp.add_argument(
            "--eta-h", type=float, help="informed-service accuracy (0.5,1]"
        )
        sp.add_argument(
            "--eta-l", type=float, help="uninformed-service accuracy [0.5,eta_h)"
        )
        sp.add_argument("--demand", type=float, help="total demand")
        sp.add_argument("--slope1-normal", type=float, help="route 1 slope, normal")
        sp.add_argument(
            "--slope1-incident", type=float, help="route 1 slope, incident"
        )
        sp.add_argument("--slope2", type=float, help="route 2 slope")
        sp.add_argument("--intercept1", type=float, help="route 1 free-flow time")
        sp.add_argument("--intercept2", type=float, help="route 2 free-flow time")
        sp.add_argument(
            "--sweep",
            help="axis:start:stop:points with axis in {lambda, p, eta_h}",
        )
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", help="output path (default: stdout)")
        if name == "beliefs":
            sp.add_argument(
                "--treatment",
                choices=("conditional", "marginal", "uninformative"),
                default="uninformative",
                help="which interim-belief construction to tabulate",
            )
    return parser


def _assemble(args: argparse.Namespace) -> tuple:
    """Defaults, then config file, then explicit flags."""
    config = dict(DEFAULTS)
    if args.config:
        config.update(parse_config_file(args.config))
    for key in _PARAM_KEYS:
        value = vars(args)[key]
        if value is not None:
            config[key] = value
    config["format"] = args.format
    config["out"] = args.out
    if getattr(args, "treatment", None):
        config["treatment"] = args.treatment
    sweep = parse_sweep(args.sweep) if args.sweep else None
    return config, sweep


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        config, sweep = _assemble(args)
        return run(args.subcommand, config, sweep)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OracleConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
