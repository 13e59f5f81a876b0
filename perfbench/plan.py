"""Seeded inputs, the three workloads' operation cycles, and output checks.

Every operation is one ``routeinfo`` CLI invocation or one public library
call, each in a fresh interpreter. A workload is a cycle of operations that
the benchmark repeats; every cycle draws fresh inputs from the seeded
generator, so the same seed always yields the same sequence of operations.

Operations are built without the program: inputs are plain numbers, and
outputs are checked against invariants that follow from the model's
definitions (see ``check``). The program runs only in the operations' own
interpreters, apart from the golden comparison and the input-mix count that
``run.py`` makes after the timed operations.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field

#: Ranges the generator draws from, each with the reason it was chosen. The
#: running example of the README is (slopes 1, 3, 2; intercepts 19, 21;
#: demand 5; p 0.2), and every range contains it.
RANGES = {
    "slope1_normal": (
        0.5, 2.0,
        "route-1 slope in minutes per 10^3 veh/hr, a factor of two either "
        "side of the running example's 1",
    ),
    "slope2_ratio": (
        1.0, 3.0,
        "slope2 / slope1_normal; the model needs slope2 >= slope1_normal, "
        "and the running example has 2",
    ),
    "incident_ratio": (
        1.2, 3.0,
        "slope1_incident / slope2; the model needs it above 1, and a 20% "
        "floor keeps the incident visible in every state split",
    ),
    "intercept1": (
        10.0, 30.0,
        "free-flow minutes on route 1 around the running example's 19",
    ),
    "intercept_gap": (
        0.0, 5.0,
        "intercept2 - intercept1; the model needs it >= 0 (route 1 is the "
        "faster road when empty), the running example has 2",
    ),
    "demand_margin": (
        1.0, 8.0,
        "demand minus its lower bound (intercept2 - intercept1) / "
        "slope1_normal, so route 2 is always used; the running example has 3",
    ),
    "p": (
        0.05, 0.5,
        "incident probability: incidents on between one day in twenty and "
        "every other day (running example 0.2). The fixed-point oracle's "
        "sweep count grows steeply as p nears 1, so one high draw would set "
        "a whole sweep's cost; p sweeps and the batch grid still cover "
        "0.05 to 0.95 at fixed points in every run",
    ),
    "eta_h": (
        0.5, 1.0,
        "informed-service accuracy in (0.5, 1]; half the draws are exactly 1, "
        "the paper's perfect signal and the value analysis's only scope",
    ),
    "lambda": (
        0.0, 1.0,
        "informed share; 10% of draws sit exactly on 0 and 10% on 1, the "
        "edges where one population is empty",
    ),
}

#: Points of each closed-form sweep, sized so that every sweep takes about
#: 0.75 s of per-point work at the seed commit on top of interpreter start-up:
#: per-point work dominates each sweep, and the median operation is a sweep
#: whatever its subcommand.
SWEEP_POINTS = {"regimes": 3000, "equilibrium": 1500, "costs": 250, "value": 300}

#: Points of each oracle sweep; every point runs a scalar fixed point.
ORACLE_SWEEP_POINTS = 20

#: Sweep ranges per axis (the CLI needs p and eta_h strictly inside); p stays
#: within its drawn range, for the reason given in RANGES.
SWEEP_RANGES = {"lambda": (0.0, 1.0), "p": (0.05, 0.5), "eta_h": (0.51, 1.0)}

#: The batched fixed point's p x lambda x eta_h grid: 10 x 10 x 5 = 500
#: instances iterated in lockstep, so the slowest instance sets its time.
BATCH_GRID = {"p": (0.05, 0.95, 10), "lambda": (0.0, 1.0, 10), "eta_h": (0.55, 1.0, 5)}

#: Cells per axis of the epsilon-equilibrium grid scan.
GRID_SCAN_RESOLUTION = 101

#: Deviation above which the oracle subcommand's comparison fails.
ORACLE_DEVIATION_LIMIT = 1e-6

NETWORK_KEYS = (
    "slope1_normal", "slope1_incident", "slope2", "intercept1", "intercept2", "demand",
)

_FLAG = {
    "p": "--p", "lambda": "--lambda", "eta_h": "--eta-h", "eta_l": "--eta-l",
    "slope1_normal": "--slope1-normal", "slope1_incident": "--slope1-incident",
    "slope2": "--slope2", "intercept1": "--intercept1", "intercept2": "--intercept2",
    "demand": "--demand",
}

#: Running-example configuration, the CLI's defaults.
DEFAULT_POINT = {
    "p": 0.2, "lambda": 0.5, "eta_h": 1.0, "eta_l": 0.5,
    "slope1_normal": 1.0, "slope1_incident": 3.0, "slope2": 2.0,
    "intercept1": 19.0, "intercept2": 21.0, "demand": 5.0,
}

WORKLOADS = ("cli_points", "sweep_closed_form", "oracle_check")

#: Wall time of one cycle of each workload on the reference machine (two
#: cores of an Intel Xeon, Python 3.11). A run of --seconds S executes
#: round(S / cycle) whole cycles, at least one: the work is fixed, not the
#: clock, so two commits run identical operations for the same seed.
NOMINAL_CYCLE_S = {"cli_points": 6.0, "sweep_closed_form": 25.0, "oracle_check": 10.0}

#: Golden cases that `sweep_closed_form` runs as timed operations, compared
#: there on every run of it and left out of the golden comparison after the
#: operations: `verify` alone takes ten times as long as all other cases together.
GOLDEN_IN_WINDOW = ("verify",)


@dataclass
class Op:
    """One operation: a CLI invocation (``cli``) or a library call (``lib``).

    ``points`` holds the full parameter point of every output row the
    operation produces, in order (a ``beliefs`` call prints one row per
    belief-table entry of its single point); ``golden`` names the golden case whose
    bytes the output must match, if any.
    """

    kind: str
    mode: str
    args: list
    points: list
    golden: str | None = None
    lib_spec: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------


def _uniform(rng: random.Random, key: str) -> float:
    lo, hi, _ = RANGES[key]
    return lo + (hi - lo) * rng.random()


def draw_network(rng: random.Random) -> dict:
    """A network meeting every ordering the model requires."""
    a1n = _uniform(rng, "slope1_normal")
    a2 = a1n * _uniform(rng, "slope2_ratio")
    a1a = a2 * _uniform(rng, "incident_ratio")
    b1 = _uniform(rng, "intercept1")
    b2 = b1 + _uniform(rng, "intercept_gap")
    demand = (b2 - b1) / a1n + _uniform(rng, "demand_margin")
    return dict(zip(NETWORK_KEYS, (a1n, a1a, a2, b1, b2, demand)))


def draw_lambda(rng: random.Random) -> float:
    u = rng.random()
    if u < 0.1:
        return 0.0
    if u < 0.2:
        return 1.0
    return rng.random()


def draw_eta_h(rng: random.Random) -> float:
    if rng.random() < 0.5:
        return 1.0
    return 1.0 - 0.5 * rng.random()  # (0.5, 1]


def draw_point(rng: random.Random, eta_h: float | None = None) -> dict:
    """Network plus environment; the uninformed signal is a coin flip."""
    point = draw_network(rng)
    point["p"] = _uniform(rng, "p")
    point["lambda"] = draw_lambda(rng)
    point["eta_h"] = draw_eta_h(rng) if eta_h is None else eta_h
    point["eta_l"] = 0.5
    return point


def cli_flags(point: dict, skip: str | None = None) -> list:
    flags = []
    for key, flag in _FLAG.items():
        if key != skip:
            flags += [flag, repr(float(point[key]))]
    return flags


def linspace(start: float, stop: float, n: int) -> list:
    step = (stop - start) / (n - 1)
    return [start + i * step for i in range(n - 1)] + [stop]


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def _single(sub: str, point: dict, extra: tuple = ()) -> Op:
    return Op(
        kind=f"{sub}:{extra[-1]}" if extra else sub,
        mode="cli",
        args=[sub, *cli_flags(point), *extra],
        points=[point],
    )


def _sweep(sub: str, axis: str, point: dict, n: int) -> Op:
    lo, hi = SWEEP_RANGES[axis]
    points = [dict(point, **{axis: v}) for v in linspace(lo, hi, n)]
    return Op(
        kind=f"{sub}@{axis}",
        mode="cli",
        args=[sub, *cli_flags(point, skip=axis), "--sweep", f"{axis}:{lo}:{hi}:{n}"],
        points=points,
    )


def _lib(call: str, spec: dict, points: list) -> Op:
    return Op(kind=call, mode="lib", args=[], points=points, lib_spec={"call": call, **spec})


def cycle(workload: str, rng: random.Random) -> list:
    """One cycle of ``workload``'s operations, drawn from ``rng``."""
    if workload == "cli_points":
        ops = [
            _single("regimes", draw_point(rng)),
            _single("equilibrium", draw_point(rng)),
            _single("beliefs", draw_point(rng), ("--treatment", "uninformative")),
        ]
        for treatment in ("conditional", "marginal"):
            point = draw_point(rng)
            # These two constructions also accept an informative low service.
            point["eta_l"] = 0.5 + (point["eta_h"] - 0.5) * rng.random()
            ops.append(_single("beliefs", point, ("--treatment", treatment)))
        ops += [
            _single("costs", draw_point(rng)),
            _single("value", draw_point(rng, eta_h=1.0)),
            _single("oracle", draw_point(rng)),
        ]
        return ops
    if workload == "sweep_closed_form":
        ops = [
            Op(kind="verify", mode="cli", args=["verify"], points=[dict(DEFAULT_POINT)],
               golden="verify"),
        ]
        for sub in ("regimes", "equilibrium", "costs", "value"):
            for axis in ("lambda", "p", "eta_h"):
                if sub == "value" and axis == "eta_h":
                    continue  # value analysis covers eta_h = 1 only
                point = draw_point(rng, eta_h=1.0 if sub == "value" else None)
                ops.append(_sweep(sub, axis, point, SWEEP_POINTS[sub]))
        return ops
    if workload == "oracle_check":
        # Each oracle sweep runs on a seeded network with the other two axes
        # at the running example's values: drawn values would let one draw
        # (p and eta_h both near their slow ends) set a whole sweep's cost.
        ops = [
            _sweep("oracle", axis, {**DEFAULT_POINT, **draw_network(rng)}, ORACLE_SWEEP_POINTS)
            for axis in ("lambda", "p", "eta_h")
        ]
        network = draw_network(rng)
        grid = [
            dict(network, p=p, eta_l=0.5, **{"lambda": lam}, eta_h=eta)
            for p in linspace(*BATCH_GRID["p"])
            for lam in linspace(*BATCH_GRID["lambda"])
            for eta in linspace(*BATCH_GRID["eta_h"])
        ]
        ops.append(_lib("solve_fixed_point", {"point": network, "grid": BATCH_GRID}, grid))
        # The scan's accepted set, and with it the call's memory, depends on
        # the point; at the running example it is the same in every run.
        ops.append(_lib("grid_scan", {"point": DEFAULT_POINT,
                                      "resolution": GRID_SCAN_RESOLUTION}, [DEFAULT_POINT]))
        point = draw_point(rng)
        ops.append(_lib("enumerate_profiles", {"point": point}, [point]))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

HEADERS = {
    "regimes": "p,lambda,eta_h,eta_l,lambda_bar_1,lambda_bar_2,lambda_bar_3,regime",
    "equilibrium": "p,lambda,eta_h,eta_l,regime,rho_L,rho_Hn,rho_Ha,l_population_empty",
    "beliefs": "p,lambda,eta_h,eta_l,treatment,owner,state,opponent,probability",
    "costs": (
        "p,lambda,eta_h,eta_l,c_L_n,c_L_a,c_H_n,c_H_a,c_L_exp,c_H_exp,c_soc_n,c_soc_a,"
        "c_soc_exp,baseline_n,baseline_a,baseline_exp,socopt_n,socopt_a,socopt_exp,"
        "c_L_n_norm,c_L_a_norm,c_H_n_norm,c_H_a_norm,c_L_exp_norm,c_H_exp_norm,"
        "c_soc_n_norm,c_soc_a_norm,c_soc_exp_norm"
    ),
    "value": (
        "p,lambda,eta_h,eta_l,v_L_n,v_L_a,v_H_n,v_H_a,v_L_exp,v_H_exp,v_rel_n,v_rel_a,"
        "v_rel_exp,w_n,w_a,w_exp,lambda_min"
    ),
    "oracle": (
        "p,lambda,eta_h,eta_l,regime,rho_L_closed,rho_Hn_closed,rho_Ha_closed,"
        "rho_L_oracle,rho_Hn_oracle,rho_Ha_oracle,deviation"
    ),
}

#: Belief-table entries per owner: uninformative tables cover (2 states x 3
#: opponent types) for owners L/Hn/Ha; the other two cover 4 owners.
_BELIEF_ROWS = {"uninformative": 3, "conditional": 4, "marginal": 4}

#: Relative slack for comparing echoed inputs and printed values, which the
#: CLI rounds to nine significant digits.
_PRINT_RTOL = 1e-8


def _close(a: float, b: float, rtol: float = _PRINT_RTOL) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def _check_row(sub: str, row: dict, point: dict) -> str | None:
    for key in ("p", "lambda", "eta_h", "eta_l"):
        if not _close(float(row[key]), point[key]):
            return f"{key} echoed as {row[key]}, sent {point[key]!r}"
    lam = point["lambda"]
    if sub in ("regimes", "equilibrium", "oracle") and row["regime"] not in (
        "R1", "R2", "R3", "R4"
    ):
        return f"unknown regime {row['regime']!r}"
    if sub == "regimes":
        lb = [float(row[f"lambda_bar_{i}"]) for i in (1, 2, 3)]
        if any(a > b and not _close(a, b) for a, b in zip(lb, lb[1:])):
            return f"boundaries out of order: {lb}"
        # Away from the boundaries the label follows from lambda alone.
        expected = "R1" if lam < lb[0] else "R2" if lam <= lb[1] else "R3" if lam < lb[2] else "R4"
        if min(abs(lam - b) for b in lb) > 1e-6 and row["regime"] != expected:
            return f"lambda {lam} labelled {row['regime']}, boundaries give {expected}"
    elif sub == "equilibrium":
        for key in ("rho_L", "rho_Hn", "rho_Ha"):
            if not 0.0 <= float(row[key]) <= 1.0:
                return f"{key} = {row[key]} leaves [0, 1]"
        if (row["l_population_empty"] == "true") != (lam == 1.0):
            return f"l_population_empty = {row['l_population_empty']} at lambda {lam}"
    elif sub == "costs":
        # The social optimum minimizes social cost in every state.
        for s in ("n", "a", "exp"):
            soc, opt = float(row[f"c_soc_{s}"]), float(row[f"socopt_{s}"])
            if not (opt > 0 and soc >= opt * (1 - _PRINT_RTOL)):
                return f"c_soc_{s} = {soc} below socopt_{s} = {opt}"
    elif sub == "value":
        values = [float(v) for k, v in row.items() if k.startswith(("v_", "w_"))]
        if not all(math.isfinite(v) for v in values):
            return "non-finite value of information"
        if lam == 0.0 and any(v != 0.0 for v in values):
            return "nonzero value with nobody informed"
        if not 0.0 <= float(row["lambda_min"]) <= 1.0:
            return f"lambda_min = {row['lambda_min']} leaves [0, 1]"
    elif sub == "oracle":
        if not float(row["deviation"]) <= ORACLE_DEVIATION_LIMIT:
            return f"oracle deviation {row['deviation']} above {ORACLE_DEVIATION_LIMIT}"
    return None


def _check_beliefs(rows: list, point: dict) -> str | None:
    treatment = rows[0]["treatment"]
    totals = {}
    for row in rows:
        prob = float(row["probability"])
        if not 0.0 <= prob <= 1.0:
            return f"probability {prob} leaves [0, 1]"
        totals[row["owner"]] = totals.get(row["owner"], 0.0) + prob
    if len(totals) != _BELIEF_ROWS[treatment]:
        return f"{len(totals)} owners in a {treatment} table"
    for owner, total in totals.items():
        if not _close(total, 1.0, 1e-7):
            return f"belief of {owner} sums to {total}"
    return _check_row("beliefs", rows[0], point)


def check(op: Op, returncode: int, stdout: str, stderr: str) -> str | None:
    """Why ``op``'s result is wrong, or None when it passes every check.

    A result fails on an unexpected exit code, an uncaught exception, a
    golden-output mismatch, a failed ``verify`` or an ``oracle`` deviation
    above its limit, or an output that breaks a definitional invariant.
    """
    if "Traceback (most recent call last)" in stderr:
        return "uncaught exception: " + stderr.strip().splitlines()[-1]
    if returncode != 0:
        return f"exit code {returncode}: {stderr.strip()[-200:]}"
    if op.golden is not None:
        return None  # compared byte for byte by the caller
    if op.mode == "lib":
        try:
            result = json.loads(stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return "library call printed no result"
        if result.get("instances") != len(op.points):
            return f"{result.get('instances')} instances, expected {len(op.points)}"
        return None if result.get("ok") else f"library check failed: {result.get('detail')}"
    sub = op.args[0]
    lines = stdout.splitlines()
    if not lines or lines[0] != HEADERS[sub]:
        return f"unexpected header {lines[0] if lines else ''!r}"
    rows = list(csv.DictReader(io.StringIO(stdout)))
    if sub == "beliefs":
        return _check_beliefs(rows, op.points[0])
    if len(rows) != len(op.points):
        return f"{len(rows)} rows, expected {len(op.points)}"
    for row, point in zip(rows, op.points):
        problem = _check_row(sub, row, point)
        if problem:
            return problem
    return None
