"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench -q        (from the repository root)
"""

from __future__ import annotations

import json
import pathlib
import random
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import golden  # noqa: E402
import plan  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402


# --- tail rule ---------------------------------------------------------------


def test_tail_leaves_exactly_ten_samples_beyond():
    values = list(range(1, 21))
    random.Random(0).shuffle(values)
    value, percentile, n = stats.tail(values)
    assert (value, percentile, n) == (10, 50.0, 20)
    assert sum(v > value for v in values) == 10


def test_tail_percentile_rises_with_samples():
    value, percentile, n = stats.tail(range(100))
    assert (value, percentile, n) == (89, 90.0, 100)
    assert stats.tail(range(11))[:2] == (0, 100 * 1 / 11)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        stats.tail(range(10))


# --- self time ---------------------------------------------------------------


def _spans(op, rows):
    return [stats.Span(op, i, parent, name, start, end, 0)
            for i, (parent, name, start, end) in enumerate(rows)]


def test_self_time_subtracts_direct_children_only():
    spans = _spans(0, [
        (-1, "cli.run", 0, 100),
        (0, "costs.cost_report", 10, 40),
        (1, "model.validate", 15, 25),
        (0, "value.value_report", 50, 90),
    ])
    assert stats.self_times(spans) == [30, 20, 10, 40]
    totals = stats.layer_totals(stats.aggregate(spans))
    assert sum(self_s for _, self_s, _ in totals.values()) == pytest.approx(100e-9)


def test_self_time_of_reentrant_spans_adds_up_to_the_outer_call():
    spans = _spans(0, [
        (-1, "oracle.f", 0, 100),
        (0, "oracle.f", 10, 90),
        (1, "oracle.f", 20, 30),
    ])
    assert stats.self_times(spans) == [20, 70, 10]
    fs = stats.aggregate(spans)["oracle.f"]
    assert (fs.calls, fs.self_ns) == (3, 100)
    assert stats.median(fs.durations_ns) == 80


def test_spans_of_different_operations_do_not_mix():
    spans = _spans(0, [(-1, "model.a", 0, 10)]) + _spans(1, [(-1, "model.a", 0, 50),
                                                            (0, "model.b", 0, 20)])
    assert stats.self_times(spans) == [10, 30, 20]


def test_layer_totals_list_every_layer_and_count_errors():
    spans = [stats.Span(0, 0, -1, "beliefs.expected_route_cost", 0, 5, 1)]
    totals = stats.layer_totals(stats.aggregate(spans))
    assert set(totals) == set(stats.LAYERS)
    assert totals["beliefs"] == (1, 5e-9, 1)
    assert totals["oracle"] == (0, 0.0, 0)


# --- failure counting --------------------------------------------------------


def _op(sub, point):
    return plan.Op(kind=sub, mode="cli", args=[sub], points=[point])


_POINT = dict(plan.DEFAULT_POINT)
_ORACLE_HEAD = plan.HEADERS["oracle"]


def _oracle_out(deviation):
    return f"{_ORACLE_HEAD}\n0.2,0.5,1,0.5,R2,0.5,1,0.4,0.5,1,0.4,{deviation}\n"


def test_check_accepts_a_good_oracle_row():
    assert plan.check(_op("oracle", _POINT), 0, _oracle_out("1.2e-11"), "") is None


@pytest.mark.parametrize("code, stdout, stderr, reason", [
    (0, _oracle_out("2e-6"), "", "deviation"),
    (2, _oracle_out("2e-6"), "", "exit code 2"),
    (1, "", "Traceback (most recent call last):\n  ...\nKeyError: 'x'", "uncaught"),
    (0, _oracle_out("1e-12").replace("0.2,", "0.3,", 1), "", "echoed"),
    (0, _ORACLE_HEAD + "\n", "", "0 rows"),
])
def test_check_flags_each_failure_kind(code, stdout, stderr, reason):
    assert reason in plan.check(_op("oracle", _POINT), code, stdout, stderr)


def test_check_flags_a_failed_verify_by_its_exit_code():
    op = plan.Op(kind="verify", mode="cli", args=["verify"], points=[_POINT], golden="verify")
    assert "exit code 2" in plan.check(op, 2, '{"passed": false}', "")


def test_tally_counts_operations_and_golden_cases():
    problems = [None, "exit code 1", None, "deviation"]
    verdicts = [{"ok": True}, {"ok": False}]
    assert stats.tally(problems, verdicts) == (6, 3)


# --- golden outputs ----------------------------------------------------------


def test_altered_golden_output_is_detected(tmp_path):
    cases = [c for c in golden.load_cases() if c["name"] in ("readme_regimes",
                                                             "readme_equilibrium")]
    for case in cases:
        shutil.copy(golden.GOLDEN_DIR / f"{case['name']}.out", tmp_path)
    assert all(v["ok"] for v in golden.check_all(cases, tmp_path))

    target = tmp_path / "readme_regimes.out"
    target.write_bytes(target.read_bytes().replace(b"R2", b"R3"))
    verdicts = {v["name"]: v for v in golden.check_all(cases, tmp_path)}
    assert not verdicts["readme_regimes"]["ok"]
    assert "byte" in verdicts["readme_regimes"]["detail"]
    assert verdicts["readme_equilibrium"]["ok"]


def test_golden_exit_code_mismatch_is_a_failure():
    case = {"name": "readme_regimes", "argv": ["regimes"], "exit": 0}
    expected = (golden.GOLDEN_DIR / "readme_regimes.out").read_bytes()
    assert golden.compare(case, 0, expected, golden.GOLDEN_DIR) is None
    assert "exit code 1" in golden.compare(case, 1, expected, golden.GOLDEN_DIR)


# --- import-time parsing -----------------------------------------------------


def test_import_times_sums_package_and_outermost_scipy_entries():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   numpy",
        "import time:        50 |         50 |       scipy._lib",
        "import time:       200 |        250 |     scipy",
        "import time:       300 |        300 |     scipy.ndimage",
        "import time:        10 |        600 |   routeinfo.oracle",
        "import time:        20 |        720 | routeinfo",
        "import time:        30 |         30 | routeinfo.cli",
    ])
    assert stats.import_times(stderr) == pytest.approx((750e-6, 550e-6))


# --- generator and metric lists ---------------------------------------------


def test_same_seed_gives_same_operations():
    for workload in plan.WORKLOADS:
        a = plan.cycle(workload, random.Random(7))
        b = plan.cycle(workload, random.Random(7))
        assert [(o.args, o.lib_spec) for o in a] == [(o.args, o.lib_spec) for o in b]


def test_drawn_networks_meet_the_model_orderings():
    rng = random.Random(3)
    for _ in range(500):
        pt = plan.draw_point(rng)
        assert pt["slope1_incident"] > pt["slope2"] >= pt["slope1_normal"] > 0
        assert pt["intercept2"] >= pt["intercept1"] >= 0
        assert pt["demand"] > (pt["intercept2"] - pt["intercept1"]) / pt["slope1_normal"]
        assert 0 < pt["p"] < 1 and 0 <= pt["lambda"] <= 1 and 0.5 < pt["eta_h"] <= 1


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(plan.WORKLOADS)


# --- tracing -----------------------------------------------------------------


def test_traced_cli_call_records_nested_spans(tmp_path):
    spans_file = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--spans", str(spans_file),
         "--op-id", "4", "cli", "equilibrium"],
        capture_output=True, cwd=ROOT, env=run._env(), timeout=60, check=False,
    )
    assert (proc.returncode, proc.stdout) == golden.invoke(["equilibrium"])
    data = json.loads(spans_file.read_text())
    spans = stats.spans_of(data["op"], data["spans"])
    names = [s.name for s in spans]
    assert data["op"] == 4 and names[:2] == ["cli.main", "cli.run"]
    assert {"equilibrium.classify", "equilibrium.solve_bwe", "model.validate"} <= set(names)
    for s in spans[1:]:
        parent = spans[s.parent]
        assert parent.start <= s.start <= s.end <= parent.end
    assert all(own >= 0 for own in stats.self_times(spans))
