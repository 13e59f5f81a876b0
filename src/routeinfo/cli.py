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
from dataclasses import fields

import numpy as np

from .beliefs import belief_conditional_ck, belief_marginal_ck, belief_uninformative
from .costs import CostReport, cost_report
from .equilibrium import StrategyProfile, _type_masses, classify, solve_bwe
from .model import (
    EQUILIBRIUM_TYPES,
    InfoEnvironment,
    NetworkParams,
    PlayerType,
    ValidationError,
)
from .oracle import OracleConfig, OracleConvergenceError, solve_fixed_point
from .value import (
    ValueReport,
    theorem2_grid,
    value_report,
    verify_theorem1,
    verify_theorem2,
)

#: The ten parameters in flag order: key -> (default, help). The defaults are
#: the running two-route example (slopes 1/3/2, intercepts 19/21, demand 5)
#: with a fifth of traffic incident-prone and a perfectly accurate
#: subscription service for half the population.
_PARAMS = {
    "p": (0.2, "incident probability (0,1)"),
    "lambda": (0.5, "informed fraction [0,1]"),
    "eta_h": (1.0, "informed-service accuracy (0.5,1]"),
    "eta_l": (0.5, "uninformed-service accuracy [0.5,eta_h)"),
    "demand": (5.0, "total demand"),
    "slope1_normal": (1.0, "route 1 slope, normal"),
    "slope1_incident": (3.0, "route 1 slope, incident"),
    "slope2": (2.0, "route 2 slope"),
    "intercept1": (19.0, "route 1 free-flow time"),
    "intercept2": (21.0, "route 2 free-flow time"),
}

DEFAULTS = {key: default for key, (default, _) in _PARAMS.items()}

#: Parameter key -> InfoEnvironment field; the other keys name NetworkParams
#: fields. Every row echoes these four keys first.
_ENV_FIELDS = {
    "p": "p_incident",
    "lambda": "frac_informed",
    "eta_h": "accuracy_high",
    "eta_l": "accuracy_low",
}

_SWEEP_AXES = ("lambda", "p", "eta_h")

#: Deviation above which the oracle subcommand reports failure (exit 2).
ORACLE_DEVIATION_LIMIT = 1e-6

#: Points per regime for the verify subcommand's lambda grid.
_VERIFY_POINTS = 501


def parse_sweep(text: str) -> tuple:
    """Parse 'axis:start:stop:points' into (axis, evenly spaced values).

    The axis's valid range is not checked here: the environment built from
    the sweep checks every value and names the first one out of range.
    """
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
    if axis not in _SWEEP_AXES:
        raise ValidationError(
            "malformed_sweep", f"sweep axis must be one of {_SWEEP_AXES}, got {axis!r}"
        )
    if not start < stop:
        raise ValidationError(
            "malformed_sweep", f"sweep needs start < stop, got {start}..{stop}"
        )
    if points < 2:
        raise ValidationError(
            "malformed_sweep", f"sweep needs >= 2 points, got {points}"
        )
    return axis, np.linspace(start, stop, points)


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
        if key not in _PARAMS:
            raise ValidationError(
                "malformed_config",
                f"{path}:{lineno}: unknown key {key!r} "
                f"(valid: {', '.join(_PARAMS)})",
            )
        try:
            values[key] = float(value.strip())
        except ValueError as exc:
            raise ValidationError(
                "malformed_config", f"{path}:{lineno}: {value.strip()!r} is not a number"
            ) from exc
    return values


def _build_instance(config: dict, sweep: tuple | None = None) -> tuple:
    """(params, env) at ``config``; a sweep makes its axis an array field."""
    if sweep is not None:
        axis, values = sweep
        config = {**config, axis: values}
    params = NetworkParams(**{f.name: config[f.name] for f in fields(NetworkParams)})
    env = InfoEnvironment(**{name: config[key] for key, name in _ENV_FIELDS.items()})
    return params, env


def _echo(env: InfoEnvironment) -> dict:
    return {key: getattr(env, name) for key, name in _ENV_FIELDS.items()}


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
    bounds = {k: v for k, v in vars(regime).items() if k != "label"}
    return _table({**_echo(env), **bounds, "regime": regime.label})


def _rows_equilibrium(params, env) -> list:
    regime = classify(params, env)
    return _table(
        {**_echo(env), "regime": regime.label, **vars(solve_bwe(params, env))}
    )


def _rows_costs(params, env) -> list:
    report = vars(cost_report(params, env))
    # Each equilibrium cost c_* over the social optimum of its state (the
    # suffix _n, _a or _exp).
    norms = {
        f"{name}_norm": cost / report["socopt_" + name.rsplit("_", 1)[1]]
        for name, cost in report.items()
        if name.startswith("c_")
    }
    return _table({**_echo(env), **report, **norms})


def _rows_value(params, env) -> list:
    return _table({**_echo(env), **vars(value_report(params, env))})


#: Owners of the two general belief tables, which split the uninformed signal.
_GENERAL_OWNERS = (PlayerType.LN, PlayerType.LA, PlayerType.HN, PlayerType.HA)


def _rows_beliefs(params, env, treatment: str) -> list:
    build, owners = {
        "uninformative": (belief_uninformative, EQUILIBRIUM_TYPES),
        "conditional": (belief_conditional_ck, _GENERAL_OWNERS),
        "marginal": (belief_marginal_ck, _GENERAL_OWNERS),
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
    splits = {
        f"rho_{t.value}_{side}": profile.split(t)
        for side, profile in (("closed", closed), ("oracle", numeric))
        for t in EQUILIBRIUM_TYPES
    }
    regime = classify(params, env).label
    return _table({**_echo(env), "regime": regime, **splits, "deviation": deviation})


# ---------------------------------------------------------------------------
# Output formatting
# ---------------------------------------------------------------------------


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def _emit_csv(rows: list) -> str:
    columns = list(rows[0].keys())
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_cell(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def _jsonable(value):
    if isinstance(value, float):
        return None if math.isnan(value) else value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


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
        "params": {k: config[k] for k in _PARAMS},
        "theorem1": vars(t1),
        "theorem2": vars(t2),
        "passed": t1.passed and t2.passed,
    }
    return payload, (0 if payload["passed"] else 2)


def run(subcommand: str, config: dict, sweep: tuple | None = None) -> int:
    """Execute one subcommand; returns the process exit code.

    ``config`` holds the ten parameter keys plus optional ``format``
    (csv|json, default csv), ``out`` (path, default stdout), and
    ``treatment`` (beliefs subcommand only). ``sweep`` is an (axis, values)
    pair from ``parse_sweep``.
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


def _fields(cls) -> str:
    return ",".join(f.name for f in fields(cls))


_ECHO = ",".join(_ENV_FIELDS)

#: Subcommand -> (help, output columns), in the order ``--help`` lists them.
_SUBCOMMANDS = {
    "beliefs": (
        "interim belief tables (one row per table entry)",
        f"{_ECHO},treatment,owner,state,opponent,probability",
    ),
    "regimes": (
        "regime boundaries and membership",
        f"{_ECHO},lambda_bar_1,lambda_bar_2,lambda_bar_3,regime",
    ),
    "equilibrium": (
        "equilibrium split fractions",
        f"{_ECHO},regime,{_fields(StrategyProfile)}",
    ),
    "costs": (
        "equilibrium, baseline, and social-optimum costs",
        f"{_ECHO} followed by {_fields(CostReport)} and *_norm variants (each "
        "cost divided by its social-optimum counterpart)",
    ),
    "value": (
        "individual and social value of information",
        f"{_ECHO},{_fields(ValueReport)}",
    ),
    "verify": (
        "run the theorem checks and emit a pass/fail summary",
        "JSON summary: theorem1/theorem2 pass flags, cases, failures",
    ),
    "oracle": (
        "compare closed-form equilibria against the numerical solver",
        f"{_ECHO},regime,rho_*_closed,rho_*_oracle,deviation; "
        "prints the max deviation to stderr and exits 2 above 1e-6",
    ),
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
    for name, (help_text, columns) in _SUBCOMMANDS.items():
        sp = sub.add_parser(
            name,
            help=help_text,
            description=f"{help_text}. Output columns: {columns}.",
        )
        sp.add_argument("--config", help="flat key=value parameter file")
        for key, (_, param_help) in _PARAMS.items():
            sp.add_argument(
                "--" + key.replace("_", "-"), dest=key, type=float, help=param_help
            )
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
    for key in _PARAMS:
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
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OracleConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
