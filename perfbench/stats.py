"""The benchmark's arithmetic: medians, the tail rule, span self times,
per-function and per-layer aggregation, and `-X importtime` parsing."""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import NamedTuple

#: The tail latency is read at the highest percentile with at least this
#: many samples above it.
TAIL_BEYOND = 10

#: The package's modules, which are the benchmark's layers.
LAYERS = ("cli", "model", "beliefs", "equilibrium", "costs", "value", "oracle")


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def tail(values, beyond: int = TAIL_BEYOND) -> tuple:
    """(value, percentile, sample count) of the tail latency.

    Sorted ascending, the sample at rank n - beyond (1-based) is the last
    one with ``beyond`` samples after it; it stands for the
    100 * (n - beyond) / n percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        raise ValueError(f"a tail needs more than {beyond} samples, got {n}")
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, n


def tally(problems: list, verdicts: list) -> tuple:
    """(attempted, failed) over operation problems and golden verdicts.

    ``problems`` holds one entry per operation, None when it passed;
    ``verdicts`` one {"ok": bool} per golden case compared separately.
    """
    failed = sum(p is not None for p in problems) + sum(not v["ok"] for v in verdicts)
    return len(problems) + len(verdicts), failed


class Span(NamedTuple):
    op: int
    id: int
    parent: int
    name: str
    start: int
    end: int
    error: int


def spans_of(op: int, records: list) -> list:
    """Spans from a child's records [id, parent, name, start_ns, end_ns, error]."""
    return [Span(op, *r) for r in records]


def self_times(spans: list) -> list:
    """Each span's duration minus the durations of its direct children.

    Spans of one operation nest strictly (one thread), so the children of a
    span never overlap and their summed durations are the part of it they
    cover. A re-entrant call is a child like any other.
    """
    covered = defaultdict(int)
    for s in spans:
        if s.parent >= 0:
            covered[(s.op, s.parent)] += s.end - s.start
    return [s.end - s.start - covered[(s.op, s.id)] for s in spans]


class FunctionStats:
    """Calls, errors, summed self time and inclusive durations of one name."""

    def __init__(self):
        self.calls = 0
        self.errors = 0
        self.self_ns = 0
        self.durations_ns = []

    def add(self, span: Span, self_ns: int) -> None:
        self.calls += 1
        self.errors += span.error
        self.self_ns += self_ns
        self.durations_ns.append(span.end - span.start)


def aggregate(spans: list, table: dict | None = None) -> dict:
    """Fold spans into ``{name: FunctionStats}``, creating it if needed."""
    table = {} if table is None else table
    for span, own in zip(spans, self_times(spans)):
        table.setdefault(span.name, FunctionStats()).add(span, own)
    return table


def layer_totals(table: dict) -> dict:
    """Per layer: (calls, self seconds, errors), every layer present."""
    totals = {layer: [0, 0, 0] for layer in LAYERS}
    for name, fs in table.items():
        row = totals.setdefault(name.split(".", 1)[0], [0, 0, 0])
        row[0] += fs.calls
        row[1] += fs.self_ns
        row[2] += fs.errors
    return {layer: (c, ns / 1e9, e) for layer, (c, ns, e) in totals.items()}


def import_times(stderr: str) -> tuple:
    """(routeinfo seconds, scipy seconds) from ``python -X importtime``.

    The package's time is the cumulative time of its top-level entries.
    scipy's is the cumulative time of every scipy entry whose enclosing
    import is not itself scipy (an entry is printed after its children,
    so its parent is the next entry with a smaller depth).
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(cumulative)))

    def is_scipy(name: str) -> bool:
        return name == "scipy" or name.startswith("scipy.")

    package = scipy = 0
    for i, (depth, name, cumulative) in enumerate(entries):
        if depth == 0 and (name == "routeinfo" or name.startswith("routeinfo.")):
            package += cumulative
        if is_scipy(name):
            parent = next((e for e in entries[i + 1:] if e[0] < depth), None)
            if parent is None or not is_scipy(parent[1]):
                scipy += cumulative
    return package / 1e6, scipy / 1e6
