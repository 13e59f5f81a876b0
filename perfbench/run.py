"""Benchmark of the routeinfo package: one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The program is imported from ``src`` in every
child process; nothing needs building. One client runs one operation at a
time (closed loop): each operation is a ``routeinfo`` CLI invocation or one
public library call, each in a fresh interpreter. A run executes as many
whole cycles of the workload's operations as take about --seconds on the
reference machine (``plan.NOMINAL_CYCLE_S``).

With --trace 0 the last line of stdout carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics from traced children, and the first
cycle is then replayed untraced to measure the tracing overhead. After the
operations, the golden CLI outputs not compared as timed operations are
compared in this process. Earlier lines give a readable summary and one
``meta`` JSON line with the machine, versions, sample counts and input mix.
See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import random
import resource
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import golden
import plan
import stats

ROOT = pathlib.Path.cwd()
SRC = ROOT / "src"
BENCH = pathlib.Path(__file__).resolve().parent

#: Fresh-interpreter imports per run, one before the first operation and the
#: rest spread over the run; setup_s is their median.
SETUP_REPEATS = 5
#: ``-X importtime`` runs per traced run; the import metrics are medians.
IMPORTTIME_REPEATS = 3
#: An operation still running after this is killed and counted as failed.
OP_TIMEOUT_S = 60
#: The tail rule needs more samples than it leaves beyond the tail.
MIN_OPS = stats.TAIL_BEYOND + 1

#: What the ``routeinfo`` console script runs.
CONSOLE = "import sys; from routeinfo.cli import main; sys.exit(main())"
#: Times ``import routeinfo``, then reports where it came from and the
#: versions it ran with (numpy and scipy are already imported by then).
IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import routeinfo; t = time.perf_counter() - t; "
    "import json, platform, numpy, scipy; print(json.dumps({'import_s': t, "
    "'routeinfo': routeinfo.__file__, 'python': platform.python_version(), "
    "'numpy': numpy.__version__, 'scipy': scipy.__version__}))"
)

END_TO_END = (
    ("points_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: ``op_tail_ms`` is printed with its percentile but is not a bounded metric:
#: a 30 s run of ``sweep_closed_form`` or ``oracle_check`` holds only 12 or 18
#: operations, so the tail rule lands below this percentile there.
TAIL_MIN_PERCENTILE = 75.0

PER_LAYER = tuple(
    (f"{layer}.{what}", unit)
    for layer in stats.LAYERS
    for what, unit in (("calls", "count"), ("self_s", "s"), ("errors", "count"))
) + (
    ("cli.import_s", "s"),
    ("cli.import_scipy_s", "s"),
    ("cli.run.self_s", "s"),
    ("model.validate.calls", "count"),
    ("model.validate.per_point", "calls/point"),
    ("model.validate.us_per_call", "us"),
    ("model.derived_constants.us_per_call", "us"),
    ("equilibrium.classify.us_per_call", "us"),
    ("equilibrium.solve_bwe.us_per_call", "us"),
    ("equilibrium.wardrop_residual.calls", "count"),
    ("equilibrium.enumerate_profiles.us_per_call", "us"),
    ("costs.cost_report.us_per_call", "us"),
    ("costs.social_optimum.us_per_call", "us"),
    ("costs.projected_descent_socopt.calls", "count"),
    ("value.value_report.calls", "count"),
    ("value.value_report.us_per_call", "us"),
    ("value.verify_theorem1.self_s", "s"),
    ("value.verify_theorem2.self_s", "s"),
    ("beliefs.expected_route_cost.calls", "count"),
    ("beliefs.expected_route_cost.per_point", "calls/point"),
    ("beliefs.expected_route_cost.self_s", "s"),
    ("oracle.solve_fixed_point.scalar_ms_per_call", "ms"),
    ("oracle.solve_fixed_point.batch_s", "s"),
    ("oracle.grid_scan.s", "s"),
    ("trace.overhead_s", "s"),
)


@dataclass
class Outcome:
    op: plan.Op
    op_id: int
    latency_s: float
    returncode: int
    stdout: bytes
    stderr: str
    spans_file: pathlib.Path | None = None


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _python(args: list, extra: tuple = ()) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *extra, *args], capture_output=True, env=_env(), cwd=ROOT,
        timeout=OP_TIMEOUT_S, check=False,
    )


def execute(op: plan.Op, op_id: int, spans_dir: pathlib.Path | None) -> Outcome:
    """Run one operation in a fresh interpreter and time it end to end."""
    spans_file = spans_dir / f"{op_id}.json" if spans_dir else None
    if op.mode == "cli" and spans_file is None:
        cmd = ["-c", CONSOLE, *op.args]
    else:
        cmd = [str(BENCH / "child.py")]
        if spans_file:
            cmd += ["--spans", str(spans_file), "--op-id", str(op_id)]
        cmd += ["cli", *op.args] if op.mode == "cli" else ["lib", json.dumps(op.lib_spec)]
    start = time.perf_counter()
    try:
        proc = _python(cmd)
        code, out, err = proc.returncode, proc.stdout, proc.stderr.decode("utf-8", "replace")
    except subprocess.TimeoutExpired:
        code, out, err = -1, b"", f"killed after {OP_TIMEOUT_S} s"
    return Outcome(op, op_id, time.perf_counter() - start, code, out, err, spans_file)


def import_once() -> dict:
    """``import routeinfo`` in a fresh interpreter: its wall time and origin."""
    proc = _python(["-c", IMPORT_TIMER])
    if proc.returncode != 0:
        raise SystemExit(f"import routeinfo failed: {proc.stderr.decode()[-500:]}")
    return json.loads(proc.stdout)


def run_window(workload: str, rng: random.Random, cycles: int, spans_dir,
               setup: list) -> tuple:
    """``cycles`` whole cycles of operations, one operation at a time.

    Returns (outcomes, busy seconds). Set-up samples are appended to
    ``setup`` between operations, spread evenly over the run, until it
    holds SETUP_REPEATS; their time is not part of the busy seconds.
    """
    total = cycles * len(plan.cycle(workload, random.Random(0)))
    outcomes = []
    busy = 0.0
    for _ in range(cycles):
        for op in plan.cycle(workload, rng):
            if len(setup) < SETUP_REPEATS * len(outcomes) / total:
                setup.append(import_once()["import_s"])
            outcomes.append(execute(op, len(outcomes), spans_dir))
            busy += outcomes[-1].latency_s
    while len(setup) < SETUP_REPEATS:
        setup.append(import_once()["import_s"])
    return outcomes, busy


def failure_of(outcome: Outcome, cases: dict) -> str | None:
    text = outcome.stdout.decode("utf-8", "replace")
    problem = plan.check(outcome.op, outcome.returncode, text, outcome.stderr)
    if problem is None and outcome.op.golden is not None:
        problem = golden.compare(
            cases[outcome.op.golden], outcome.returncode, outcome.stdout, golden.GOLDEN_DIR
        )
    return problem


def measure_import_times() -> tuple:
    runs = [
        stats.import_times(_python(["-c", "import routeinfo.cli"], ("-X", "importtime"))
                           .stderr.decode())
        for _ in range(IMPORTTIME_REPEATS)
    ]
    return stats.median(r[0] for r in runs), stats.median(r[1] for r in runs)


def layer_metrics(outcomes: list, import_s: tuple, overhead_s: float) -> tuple:
    """(per-layer metrics, validate calls per point without ``verify``)."""
    table = {}
    scalar_ns, batch_ns = [], []
    validate_without_verify = 0
    for o in outcomes:
        if o.spans_file is None or not o.spans_file.exists():
            continue
        data = json.loads(o.spans_file.read_text(encoding="utf-8"))
        spans = stats.spans_of(data["op"], data["spans"])
        stats.aggregate(spans, table)
        target = batch_ns if o.op.kind == "solve_fixed_point" else scalar_ns
        target += [s.end - s.start for s in spans if s.name == "oracle.solve_fixed_point"]
        if o.op.kind != "verify":
            validate_without_verify += sum(s.name == "model.validate" for s in spans)
    points = max(1, sum(len(o.op.points) for o in outcomes))
    points_without_verify = max(1, sum(len(o.op.points) for o in outcomes
                                       if o.op.kind != "verify"))
    empty = stats.FunctionStats()

    def fn(name):
        return table.get(name, empty)

    def us(name):
        return stats.median(fn(name).durations_ns) / 1e3

    values = {}
    for layer, (calls, self_s, errors) in stats.layer_totals(table).items():
        values.update({f"{layer}.calls": calls, f"{layer}.self_s": self_s,
                       f"{layer}.errors": errors})
    values.update({
        "cli.import_s": import_s[0],
        "cli.import_scipy_s": import_s[1],
        "cli.run.self_s": fn("cli.run").self_ns / 1e9,
        "model.validate.calls": fn("model.validate").calls,
        "model.validate.per_point": fn("model.validate").calls / points,
        "model.validate.us_per_call": us("model.validate"),
        "model.derived_constants.us_per_call": us("model.derived_constants"),
        "equilibrium.classify.us_per_call": us("equilibrium.classify"),
        "equilibrium.solve_bwe.us_per_call": us("equilibrium.solve_bwe"),
        "equilibrium.wardrop_residual.calls": fn("equilibrium.wardrop_residual").calls,
        "equilibrium.enumerate_profiles.us_per_call": us("equilibrium.enumerate_profiles"),
        "costs.cost_report.us_per_call": us("costs.cost_report"),
        "costs.social_optimum.us_per_call": us("costs.social_optimum"),
        "costs.projected_descent_socopt.calls": fn("costs.projected_descent_socopt").calls,
        "value.value_report.calls": fn("value.value_report").calls,
        "value.value_report.us_per_call": us("value.value_report"),
        "value.verify_theorem1.self_s": fn("value.verify_theorem1").self_ns / 1e9,
        "value.verify_theorem2.self_s": fn("value.verify_theorem2").self_ns / 1e9,
        "beliefs.expected_route_cost.calls": fn("beliefs.expected_route_cost").calls,
        "beliefs.expected_route_cost.per_point":
            fn("beliefs.expected_route_cost").calls / points,
        "beliefs.expected_route_cost.self_s": fn("beliefs.expected_route_cost").self_ns / 1e9,
        "oracle.solve_fixed_point.scalar_ms_per_call": stats.median(scalar_ns) / 1e6,
        "oracle.solve_fixed_point.batch_s": stats.median(batch_ns) / 1e9,
        "oracle.grid_scan.s": stats.median(fn("oracle.grid_scan").durations_ns) / 1e9,
        "trace.overhead_s": overhead_s,
    })
    return values, validate_without_verify / points_without_verify


#: The input mix is classified on an evenly strided sample of this many
#: points at most; classifying every point of a sweep run takes seconds.
MIX_SAMPLE = 2000


def input_mix(points: list) -> dict:
    """Share of points per regime and on the lambda = 0 and 1 edges."""
    from routeinfo import InfoEnvironment, NetworkParams, classify

    points = points[:: -(-len(points) // MIX_SAMPLE)] if points else points
    counts = {"R1": 0, "R2": 0, "R3": 0, "R4": 0}
    for pt in points:
        params = NetworkParams(*(pt[k] for k in plan.NETWORK_KEYS))
        env = InfoEnvironment(pt["p"], pt["lambda"], pt["eta_h"], 0.5)
        counts[classify(params, env).label] += 1
    n = max(1, len(points))
    mix = {f"{label}_share": round(c / n, 4) for label, c in counts.items()}
    mix["lambda0_share"] = round(sum(pt["lambda"] == 0.0 for pt in points) / n, 4)
    mix["lambda1_share"] = round(sum(pt["lambda"] == 1.0 for pt in points) / n, 4)
    return mix


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "routeinfo").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, cwd=ROOT,
                              check=False, text=True)
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=plan.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "routeinfo" / "__init__.py").is_file():
        print(f"error: no routeinfo package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # for the golden comparison and the input mix
    versions = import_once()  # also fills the bytecode caches before timing
    if pathlib.Path(versions["routeinfo"]).resolve().parent != SRC.resolve() / "routeinfo":
        print(f"error: routeinfo does not import from {SRC}", file=sys.stderr)
        return 2
    cases = {c["name"]: c for c in golden.load_cases()}
    import_s = measure_import_times() if args.trace else None

    per_cycle = len(plan.cycle(args.workload, random.Random(0)))
    cycles = max(round(args.seconds / plan.NOMINAL_CYCLE_S[args.workload]),
                 -(-MIN_OPS // per_cycle))
    rng = random.Random(args.seed)
    setup = [import_once()["import_s"]]
    # Spans go to a directory in the checkout: the benchmark writes nowhere else.
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        spans_dir = pathlib.Path(tmp) if args.trace else None
        outcomes, window_s = run_window(args.workload, rng, cycles, spans_dir, setup)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        replayed = []
        if args.trace:
            # The first cycle again, untraced, prices the tracing.
            replayed = [execute(o.op, o.op_id, None) for o in outcomes[:per_cycle]]
            overhead_s = sum(o.latency_s for o in outcomes[:per_cycle]) - sum(
                o.latency_s for o in replayed)
            layer, validate_without_verify = layer_metrics(outcomes, import_s, overhead_s)

    ran = outcomes + replayed
    problems = [failure_of(o, cases) for o in ran]
    verdicts = golden.check_all(
        [c for c in cases.values() if c["name"] not in plan.GOLDEN_IN_WINDOW])
    attempted, failed = stats.tally(problems, verdicts)
    golden_bad = [f"golden {v['name']}: {v['detail']}" for v in verdicts if not v["ok"]]
    failures = [f"op {o.op_id} {o.op.kind}: {p}" for o, p in zip(ran, problems) if p]
    failures += golden_bad
    in_window = [p for o, p in zip(ran, problems) if o.op.golden]
    golden_total = len(verdicts) + len(in_window)
    golden_ok = golden_total - len(golden_bad) - sum(p is not None for p in in_window)

    latencies = [o.latency_s for o in outcomes]
    tail_s, tail_pct, n_ops = stats.tail(latencies)
    ok_points = sum(len(o.op.points) for o, p in zip(outcomes, problems) if not p)
    e2e = {
        "points_per_s": ok_points / window_s,
        "op_p50_ms": stats.median(latencies) * 1e3,
        "setup_s": stats.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    kinds = list(dict.fromkeys(o.op.kind for o in outcomes))
    all_points = [pt for o in outcomes for pt in o.op.points]
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu": cpu_model(),
        "python": versions.get("python"), "numpy": versions.get("numpy"),
        "scipy": versions.get("scipy"), **source_identity(),
        "ops_attempted": len(ran), "ops_failed": failed - len(golden_bad),
        "golden_cases": golden_total, "golden_mismatched": golden_total - golden_ok,
        "samples": {"op_latency": n_ops, "setup_imports": SETUP_REPEATS},
        "op_tail_ms": round(tail_s * 1e3, 3), "op_tail_percentile": round(tail_pct, 2),
        "cycles": cycles, "window_s": round(window_s, 3), "points": len(all_points),
        "op_ms_by_kind": {
            kind: round(stats.median(o.latency_s for o in outcomes if o.op.kind == kind) * 1e3, 1)
            for kind in kinds
        },
        "window_share_by_kind": {
            kind: round(sum(o.latency_s for o in outcomes if o.op.kind == kind) / window_s, 4)
            for kind in kinds
        },
        "input_mix": input_mix(all_points), "failures": failures[:20],
    }
    if args.trace:
        meta["model.validate.per_point_without_verify"] = round(validate_without_verify, 4)

    print(f"routeinfo benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {cycles} cycles, {n_ops} operations in {window_s:.1f} s")
    if args.trace:
        reported, values = PER_LAYER, layer
    else:
        reported, values = END_TO_END, e2e
    for name, unit in reported:
        print(f"  {name:<46} {values[name]:>14.6g} {unit}")
    tail_note = "" if tail_pct >= TAIL_MIN_PERCENTILE else ", below p75: no tail"
    print(f"  {'op_tail_ms':<46} {tail_s * 1e3:>14.6g} ms"
          f"  (p{tail_pct:.1f} of {n_ops} operations{tail_note})")
    print(f"  {'fail_share':<46} {failed / attempted:>14.6g} share"
          f"  ({failed} of {attempted} operations and golden cases)")
    print(f"  golden output: {golden_ok} of {golden_total} comparisons byte-identical")
    for line in failures[:20]:
        print(f"  FAILED {line}")
    print("meta " + json.dumps(meta))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
