"""Runs one operation inside a fresh interpreter, optionally traced.

    python3 perfbench/child.py [--spans FILE --op-id N] cli ARGS...
    python3 perfbench/child.py [--spans FILE --op-id N] lib SPEC_JSON

``cli`` calls ``routeinfo.cli.main(ARGS)`` and exits with its code, as the
``routeinfo`` console script does. ``lib`` makes one public library call
described by SPEC_JSON (see ``plan.py``) and prints a JSON verdict.

With ``--spans`` every public function of the package is wrapped before the
operation runs: every name in ``routeinfo.__all__`` plus ``cli.main`` and
``cli.run``. Each wrapper is rebound in every ``routeinfo`` module namespace
that holds the original, so calls between modules are traced too. No program
file is changed. Each call records a span (id, parent id, name, start, end,
error flag); spans stay in memory and are written to FILE when the operation
ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

import numpy as np

import routeinfo
import routeinfo.cli
from routeinfo import InfoEnvironment, NetworkParams, OracleConfig, solve_bwe, wardrop_residual


class Tracer:
    """Span recorder for one operation in one thread."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._kept = None

    def freeze(self) -> None:
        """Keep only the spans recorded so far; later calls are checks."""
        self._kept = len(self.spans)

    def wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, name, clock(), 0, 0]
            spans.append(span)
            stack.append(span[0])
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[5] = 1
                raise
            finally:
                span[4] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap the public functions and rebind them wherever imported."""
        targets = {}
        for name in routeinfo.__all__:
            obj = getattr(routeinfo, name)
            if inspect.isfunction(obj):
                targets[obj] = f"{obj.__module__.rsplit('.', 1)[-1]}.{name}"
        for name in ("main", "run"):
            targets[getattr(routeinfo.cli, name)] = f"cli.{name}"
        wrappers = {fn: self.wrap(fn, label) for fn, label in targets.items()}
        modules = [
            m for key, m in list(sys.modules.items())
            if key == "routeinfo" or key.startswith("routeinfo.")
        ]
        for module in modules:
            hits = [
                (attr, value) for attr, value in vars(module).items()
                if inspect.isfunction(value) and value in wrappers
            ]
            for attr, value in hits:
                setattr(module, attr, wrappers[value])

    def dump(self, path: str, op_id: int) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            spans = self.spans[: self._kept]
            json.dump({"op": op_id, "spans": spans}, fh, separators=(",", ":"))


def _instance(point: dict, **env_override):
    params = NetworkParams(
        point["slope1_normal"], point["slope1_incident"], point["slope2"],
        point["intercept1"], point["intercept2"], point["demand"],
    )
    env = {"p": point.get("p"), "lambda": point.get("lambda"), "eta_h": point.get("eta_h")}
    env.update(env_override)
    return params, InfoEnvironment(env["p"], env["lambda"], env["eta_h"], 0.5)


def run_library(spec: dict, done) -> dict:
    """One public call, then ``done()``, then checks of its result."""
    call = getattr(routeinfo, spec["call"])
    if spec["call"] == "solve_fixed_point":
        axes = [np.linspace(*spec["grid"][k]) for k in ("p", "lambda", "eta_h")]
        p, lam, eta = np.meshgrid(*axes, indexing="ij")
        params, env = _instance(spec["point"], p=p, **{"lambda": lam}, eta_h=eta)
        profile = call(params, env)
        done()
        # The solver promises a Wardrop residual within 10x its tolerance.
        worst = float(np.max(wardrop_residual(params, env, profile)))
        limit = 10 * OracleConfig().tolerance
        return {"instances": int(p.size), "ok": worst <= limit,
                "detail": f"worst residual {worst:.3e}, limit {limit:.1e}"}
    params, env = _instance(spec["point"])
    if spec["call"] == "grid_scan":
        result = call(params, env, OracleConfig(grid_resolution=spec["resolution"]))
        done()
        covered = result.contains(solve_bwe(params, env))
        return {"instances": 1, "ok": bool(covered and result.n_clusters >= 1),
                "detail": f"{len(result.cell_indices)} cells, {result.n_clusters} clusters, "
                          f"closed form covered: {covered}"}
    if spec["call"] == "enumerate_profiles":
        verdicts = call(params, env)
        done()
        found = sum(v.is_equilibrium for v in verdicts)
        return {"instances": 1, "ok": found >= 1, "detail": f"{found} equilibrium patterns"}
    raise ValueError(f"unknown library call {spec['call']!r}")


def main(argv: list) -> int:
    spans_path, op_id = None, -1
    if argv[:1] == ["--spans"]:
        spans_path, op_id, argv = argv[1], int(argv[3]), argv[4:]
    tracer = Tracer()
    if spans_path:
        tracer.install()
    try:
        if argv[0] == "cli":
            return routeinfo.cli.main(argv[1:])
        print(json.dumps(run_library(json.loads(argv[1]), tracer.freeze)))
        return 0
    finally:
        if spans_path:
            tracer.dump(spans_path, op_id)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
