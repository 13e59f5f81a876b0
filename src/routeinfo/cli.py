"""Command-line front end.

Subcommands emit one CSV/JSON row per parameter point (single point by
default, a grid with --sweep), always echoing the full environment tuple
(p, lambda, eta_h, eta_l) so every dataset is self-describing. Output is
deterministic: identical inputs produce byte-identical files.

Exit codes: 0 success; 1 validation or input problems, or a closed stdout;
2 verification failure (the verify and oracle subcommands).

Each interpreter runs one subcommand, so this module loads only ``model`` at
import, and not numpy; once its input is checked, a run imports the solver
functions its rows call and binds them to its row builder (``_builder``).
numpy loads on the first array operand: a ``--sweep`` longer than its
subcommand's ``_POINTWISE_MAX`` (whose axis is an array), or ``oracle``.
``verify`` checks its grid of scalar environments in plain Python (see
``value``). A single point of the other subcommands is computed, tabulated
and printed in plain Python, and so is a sweep within that limit, one point
at a time through the same row builders. Such a sweep computes once what
does not change along its axis: the network, the bound builder and the
other environment fields; each point makes its environment and its row's
values, which the sweep joins into columns. The library keeps what reads
no lambda, so the points of a lambda sweep share one evaluation of the
closed forms' constants (see ``equilibrium``), one cost baseline and one
``lambda_min`` (see ``costs`` and ``value``), and every sweep on one
network one social optimum. ``import numpy`` costs about 45 ms, so the
loop beats the import plus one array call up to a number of points that
the cost of a point sets. A sweep of p or eta_h costs more per point than
one of lambda, so the p sweep sets each break-even: about 5,800 points for
``regimes``, 3,900 for ``equilibrium``, 1,400 for ``beliefs`` (its
``marginal`` treatment), 950 for ``costs`` and 850 for ``value``. Each
limit stays below its subcommand's break-even; the README tabulates the
measurements.
"""

from __future__ import annotations

import argparse
import math
import operator
import os
import sys
from functools import partial

from .model import (
    EQUILIBRIUM_TYPES,
    InfoEnvironment,
    NetworkParams,
    OracleConvergenceError,
    PlayerType,
    ValidationError,
    _ieee,
    _linspace,
    _numpy,
    _type_masses,
    fields,
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

#: Subcommand -> the longest sweep of it evaluated one point at a time in
#: plain Python; a longer one, and every sweep of a subcommand not listed,
#: is one array call in numpy. See the module docstring for the limits.
_POINTWISE_MAX = {
    "regimes": 3000, "equilibrium": 2500, "beliefs": 1000, "costs": 600, "value": 600
}


def parse_sweep(text: str) -> tuple:
    """Parse 'axis:start:stop:points' into (axis, evenly spaced values).

    The values are those of ``np.linspace(start, stop, points)``: a list of
    Python floats (``model._linspace``) for at most the largest
    ``_POINTWISE_MAX`` points, else the array. The axis's valid range is
    not checked here: the environment built from the sweep checks every
    value and names the first one out of range.
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
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValidationError(
            "malformed_sweep", f"sweep needs finite bounds, got {start}..{stop}"
        )
    if not start < stop:
        raise ValidationError(
            "malformed_sweep", f"sweep needs start < stop, got {start}..{stop}"
        )
    if not math.isfinite(stop - start):
        raise ValidationError(
            "malformed_sweep", f"sweep needs a finite stop - start, got {start}..{stop}"
        )
    if points < 2:
        raise ValidationError(
            "malformed_sweep", f"sweep needs >= 2 points, got {points}"
        )
    if points > max(_POINTWISE_MAX.values()):
        import numpy as np

        try:
            return axis, np.linspace(start, stop, points)
        except MemoryError as exc:
            raise ValidationError(
                "malformed_sweep", f"sweep of {points} points does not fit in memory"
            ) from exc
    return axis, _linspace(start, stop, points)


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


def _network(config: dict) -> NetworkParams:
    return NetworkParams(**{name: config[name] for name in fields(NetworkParams)})


def _environment(config: dict) -> InfoEnvironment:
    return InfoEnvironment(**{name: config[key] for key, name in _ENV_FIELDS.items()})


def _build_instance(config: dict, sweep: tuple | None = None) -> tuple:
    """(params, env) at ``config``; a sweep makes its axis an array field."""
    if sweep is not None:
        import numpy as np

        axis, values = sweep
        config = {**config, axis: np.asarray(values)}
    return _network(config), _environment(config)


def _echo(env: InfoEnvironment) -> dict:
    """The keys of ``_ENV_FIELDS`` and their values at ``env``, named
    directly: every row of a sweep makes one."""
    return {
        "p": env.p_incident,
        "lambda": env.frac_informed,
        "eta_h": env.accuracy_high,
        "eta_l": env.accuracy_low,
    }


def _table(columns: dict) -> dict:
    """The row values of one call as 1-D columns, one element per point.

    With an array among them every column is a 1-D numpy array, a scalar a
    read-only broadcast view that costs no memory; with none (a single
    point), each column is a one-element list.
    """
    np = _numpy(*columns.values())
    if np is None:
        return {name: [value] for name, value in columns.items()}
    cells = np.broadcast_arrays(*(np.atleast_1d(c) for c in columns.values()))
    return dict(zip(columns, cells))


# ---------------------------------------------------------------------------
# Row builders
# ---------------------------------------------------------------------------
#
# Every builder takes the network and an environment whose swept field, if
# any, is an array, and makes one library call for all its points. It
# returns its row's values, each a scalar or an array of the sweep's points;
# ``beliefs`` alone returns a table of many rows per point. A builder that a
# sweep calls at every point takes the solver functions it calls first,
# which ``_builder`` binds once per run; ``oracle``'s runs once and imports
# its own.


def _rows_regimes(classify, params, env) -> dict:
    regime = classify(params, env)
    return {
        **_echo(env),
        "lambda_bar_1": regime.lambda_bar_1,
        "lambda_bar_2": regime.lambda_bar_2,
        "lambda_bar_3": regime.lambda_bar_3,
        "regime": regime.label,
    }


def _rows_equilibrium(classify, solve_bwe, params, env) -> dict:
    regime = classify(params, env)
    return {**_echo(env), "regime": regime.label, **vars(solve_bwe(params, env))}


#: The ``costs`` norm columns: each equilibrium cost over the social optimum
#: of its state.
_COST_NORMS = {
    "c_L_n_norm": ("c_L_n", "socopt_n"),
    "c_L_a_norm": ("c_L_a", "socopt_a"),
    "c_H_n_norm": ("c_H_n", "socopt_n"),
    "c_H_a_norm": ("c_H_a", "socopt_a"),
    "c_L_exp_norm": ("c_L_exp", "socopt_exp"),
    "c_H_exp_norm": ("c_H_exp", "socopt_exp"),
    "c_soc_n_norm": ("c_soc_n", "socopt_n"),
    "c_soc_a_norm": ("c_soc_a", "socopt_a"),
    "c_soc_exp_norm": ("c_soc_exp", "socopt_exp"),
}


def _rows_costs(cost_report, params, env) -> dict:
    report = vars(cost_report(params, env))
    # An optimum that underflows to 0 gives inf or NaN.
    norms = {
        norm: _ieee(operator.truediv, report[cost], report[optimum])
        for norm, (cost, optimum) in _COST_NORMS.items()
    }
    return {**_echo(env), **report, **norms}


def _rows_value(value_report, params, env) -> dict:
    return {**_echo(env), **vars(value_report(params, env))}


#: Owners of the two general belief tables, which split the uninformed signal.
_GENERAL_OWNERS = (PlayerType.LN, PlayerType.LA, PlayerType.HN, PlayerType.HA)


def _rows_beliefs(tables: dict, treatment: str, params, env) -> dict:
    """The table of ``env``'s rows, one per entry of each owner's belief
    table; ``tables`` maps each treatment to its table function and owners."""
    build, owners = tables[treatment]
    cells = [
        (owner.value, state.value, opponent.value, prob)
        for owner in owners
        for (state, opponent), prob in build(env, owner).entries.items()
    ]
    owner, state, opponent, probability = zip(*cells)
    per_point = {**_echo(env), "treatment": treatment}
    columns = {"owner": owner, "state": state, "opponent": opponent}
    np = _numpy(*per_point.values())
    if np is None:
        table = {name: [v] * len(cells) for name, v in per_point.items()}
        return {**table, **columns, "probability": probability}
    points = np.broadcast(*per_point.values()).size
    rows = points * len(cells)
    # One row per point and entry, point-major as a run per point prints
    # them. A value that is the same at every point stays a broadcast view.
    table = {
        name: np.repeat(v, len(cells)) if np.ndim(v) else np.broadcast_to(v, rows)
        for name, v in per_point.items()
    }
    for name, column in columns.items():
        table[name] = np.tile(column, points)
    by_point = [np.broadcast_to(p, points) for p in probability]
    table["probability"] = np.stack(by_point, axis=1).ravel()
    return table


def _rows_oracle(params, env) -> dict:
    import numpy as np

    from .equilibrium import classify, solve_bwe
    from .oracle import OracleConfig, solve_fixed_point

    closed = solve_bwe(params, env)
    regime = classify(params, env).label
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
    return {**_echo(env), "regime": regime, **splits, "deviation": deviation}


def _builder(subcommand: str, treatment: str):
    """``subcommand``'s row builder, called as ``build(params, env)``, with
    the solver functions it calls imported and bound here, once per run;
    ``oracle``'s, which runs once, imports its own."""
    if subcommand == "regimes":
        from .equilibrium import classify

        return partial(_rows_regimes, classify)
    if subcommand == "equilibrium":
        from .equilibrium import classify, solve_bwe

        return partial(_rows_equilibrium, classify, solve_bwe)
    if subcommand == "costs":
        from .costs import cost_report

        return partial(_rows_costs, cost_report)
    if subcommand == "value":
        from .value import value_report

        return partial(_rows_value, value_report)
    if subcommand == "beliefs":
        from .beliefs import belief_conditional_ck, belief_marginal_ck, belief_uninformative

        tables = {
            "uninformative": (belief_uninformative, EQUILIBRIUM_TYPES),
            "conditional": (belief_conditional_ck, _GENERAL_OWNERS),
            "marginal": (belief_marginal_ck, _GENERAL_OWNERS),
        }
        return partial(_rows_beliefs, tables, treatment)
    return _rows_oracle


# ---------------------------------------------------------------------------
# Output formatting
# ---------------------------------------------------------------------------


#: Rows converted to Python objects and formatted per write of a table.
_BLOCK_ROWS = 1024


def _blocks(table: dict):
    """The rows of ``table``, ``_BLOCK_ROWS`` at a time, each block as its
    columns' Python values (numpy columns through ``tolist``)."""
    columns = list(table.values())
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        block = [c[start : start + _BLOCK_ROWS] for c in columns]
        yield [c.tolist() if hasattr(c, "tolist") else c for c in block]


def _emit_csv(table: dict, fh) -> None:
    """Write ``table`` to ``fh`` as CSV, a block of ``_BLOCK_ROWS`` rows at a
    time: floats as ``%.9g``, bools as true/false, anything else as ``str``."""
    fh.write(",".join(table) + "\n")
    for cells in _blocks(table):
        kinds = [type(c[0]) for c in cells]
        line = ",".join("%.9g" if k is float else "%s" for k in kinds) + "\n"
        cells = [
            ["true" if v else "false" for v in c] if k is bool else c
            for k, c in zip(kinds, cells)
        ]
        fh.write("".join(line % row for row in zip(*cells)))


def _jsonable(value):
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def _emit_json(payload, fh) -> None:
    import json

    fh.write(json.dumps(_jsonable(payload), indent=2, allow_nan=False) + "\n")


def _emit_json_rows(table: dict, fh) -> None:
    """Write ``table`` to ``fh`` as the JSON array of one object per row that
    ``_emit_json`` writes, a block of ``_BLOCK_ROWS`` rows at a time."""
    import json

    for n, cells in enumerate(_blocks(table)):
        rows = _jsonable([dict(zip(table, row)) for row in zip(*cells)])
        # The block's rows without the dump's own "[\n" and "\n]".
        text = json.dumps(rows, indent=2, allow_nan=False)[2:-2]
        fh.write(("[\n" if n == 0 else ",\n") + text)
    fh.write("\n]\n")


def _write(emit, out: str | None) -> None:
    """Call ``emit(fh)`` with the file ``out`` open for writing, or stdout."""
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            emit(fh)
    else:
        emit(sys.stdout)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def _run_verify(config: dict) -> tuple:
    from .value import theorem2_grid, verify_theorem1, verify_theorem2

    params, env = _build_instance(config)
    grid = theorem2_grid(params, env)
    t1 = verify_theorem1(params, grid)
    t2 = verify_theorem2(params, grid)
    payload = {
        "params": {k: config[k] for k in _PARAMS},
        "theorem1": vars(t1),
        "theorem2": vars(t2),
        "passed": t1.passed and t2.passed,
    }
    return payload, (0 if payload["passed"] else 2)


def _rows_by_point(subcommand: str, config: dict, sweep: tuple) -> dict:
    """The table of ``subcommand``'s rows at ``sweep``, one point at a time.

    The network is built once, and every point's environment before any
    row, from the fixed fields gathered once, so an invalid point raises
    the error of the array call, which checks every value before it
    computes. The points' rows are joined point-major, each column in one
    pass. The library answers a point in Python scalars, so the columns
    are lists of them; only ``_rows_costs``' division by a social optimum
    of 0, on ``_ieee``'s ZeroDivisionError fallback, gives a numpy inf or
    NaN, which prints as the float does, and it does so at every point of
    the column, since the optimum reads only the network.
    """
    axis, values = sweep
    params = _network(config)
    p, lam, eta_h, eta_l = (config[key] for key in _ENV_FIELDS)
    point = {
        "lambda": lambda v: InfoEnvironment(p, v, eta_h, eta_l),
        "p": lambda v: InfoEnvironment(v, lam, eta_h, eta_l),
        "eta_h": lambda v: InfoEnvironment(p, lam, v, eta_l),
    }[axis]
    envs = [point(value) for value in values]
    build = _builder(subcommand, config.get("treatment", "uninformative"))
    rows = [build(params, env) for env in envs]
    if subcommand == "beliefs":
        columns = {name: [v for table in rows for v in table[name]] for name in rows[0]}
    else:
        columns = dict(zip(rows[0], map(list, zip(*(row.values() for row in rows)))))
    return columns


def run(subcommand: str, config: dict, sweep: tuple | None = None) -> int:
    """Execute one subcommand; returns the process exit code.

    ``config`` holds the ten parameter keys plus optional ``format``
    (csv|json, default csv; ``verify`` prints JSON and rejects csv), ``out``
    (path, default stdout), and ``treatment`` (beliefs subcommand only).
    ``sweep`` is an (axis, values) pair from ``parse_sweep``. A list of at
    most ``_POINTWISE_MAX[subcommand]`` values is evaluated one point at a
    time; other values, ``oracle``'s among them, in one array call.
    """
    fmt = config.get("format", "csv")
    out = config.get("out")

    if subcommand == "verify":
        if sweep is not None:
            raise ValidationError(
                "malformed_sweep", "verify checks one point and takes no --sweep"
            )
        if config.get("format", "json") != "json":
            raise ValidationError(
                "unsupported_format", f"verify prints JSON only, got --format {fmt}"
            )
        payload, code = _run_verify(config)
        _write(lambda fh: _emit_json(payload, fh), out)
        return code

    if subcommand not in _SUBCOMMANDS:
        raise ValidationError("unknown_subcommand", f"no subcommand {subcommand!r}")
    limit = _POINTWISE_MAX.get(subcommand, 0)
    if sweep is not None and isinstance(sweep[1], list) and len(sweep[1]) <= limit:
        table = _rows_by_point(subcommand, config, sweep)
    else:
        params, env = _build_instance(config, sweep)
        build = _builder(subcommand, config.get("treatment", "uninformative"))
        table = build(params, env)
        if subcommand != "beliefs":
            table = _table(table)

    if fmt == "csv":
        _write(lambda fh: _emit_csv(table, fh), out)
    else:
        _write(lambda fh: _emit_json_rows(table, fh), out)

    if subcommand == "oracle":
        # NaN wherever any deviation is NaN, which fails the check below.
        worst = float(table["deviation"].max())
        print(
            f"max |closed-form - fixed-point| deviation: {worst:.3e}",
            file=sys.stderr,
        )
        if not worst <= ORACLE_DEVIATION_LIMIT:
            return 2
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


_ECHO = ",".join(_ENV_FIELDS)

#: Subcommand -> (help, output columns), in the order ``--help`` lists them.
#: The columns are written out, not read from the report records, so that
#: building the parser loads no solver module; a test checks them against
#: what each subcommand prints.
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
        f"{_ECHO},regime,rho_L,rho_Hn,rho_Ha,l_population_empty",
    ),
    "costs": (
        "equilibrium, baseline, and social-optimum costs",
        f"{_ECHO} followed by c_L_n,c_L_a,c_H_n,c_H_a,c_L_exp,c_H_exp,c_soc_n,"
        "c_soc_a,c_soc_exp,baseline_n,baseline_a,baseline_exp,socopt_n,socopt_a,"
        "socopt_exp and *_norm variants (each cost divided by its "
        "social-optimum counterpart)",
    ),
    "value": (
        "individual and social value of information",
        f"{_ECHO},v_L_n,v_L_a,v_H_n,v_H_a,v_L_exp,v_H_exp,v_rel_n,v_rel_a,"
        "v_rel_exp,w_n,w_a,w_exp,lambda_min",
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


def _parser(argv: list) -> argparse.ArgumentParser:
    """The command's parser, with only ``argv``'s subcommand's options: the
    top-level parser takes no option with a value, so it hands ``argv`` to
    the subcommand its first argument not starting with "-" names, if any,
    and no other subcommand parses."""
    parser = argparse.ArgumentParser(
        prog="routeinfo",
        description=(
            "Bayesian Wardrop equilibria and the value of information for a "
            "two-route congestion game with an incident-prone route."
        ),
    )
    chosen = next((arg for arg in argv if not arg.startswith("-")), None)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, columns) in _SUBCOMMANDS.items():
        sp = sub.add_parser(
            name, help=help_text, description=f"{help_text}. Output columns: {columns}."
        )
        if name != chosen:
            continue
        sp.add_argument("--config", help="flat key=value parameter file")
        for key, (_, param_help) in _PARAMS.items():
            sp.add_argument(
                "--" + key.replace("_", "-"), dest=key, type=float, help=param_help
            )
        sp.add_argument(
            "--sweep",
            help="axis:start:stop:points with axis in {lambda, p, eta_h}",
        )
        sp.add_argument("--format", choices=("csv", "json"))
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
    if args.format:
        config["format"] = args.format
    config["out"] = args.out
    if getattr(args, "treatment", None):
        config["treatment"] = args.treatment
    sweep = parse_sweep(args.sweep) if args.sweep else None
    return config, sweep


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parser(argv).parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        config, sweep = _assemble(args)
        code = run(args.subcommand, config, sweep)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout. Point it at devnull, so that the flush
        # at exit cannot fail again (the SIGPIPE note of Python's signal docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OracleConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
