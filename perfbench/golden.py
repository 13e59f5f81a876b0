"""Golden CLI outputs: pinned stdout bytes and exit code per invocation.

    PYTHONPATH=src python3 perfbench/golden.py --write   re-record every case

Run from the repository root. Each case in ``golden/cases.json`` is one
``routeinfo`` command line; ``check_all`` calls ``routeinfo.cli.main`` with
that command line, exactly as the console script does, and compares what it
writes to stdout. ``run.py`` calls it after every run. Re-record only when a
change to the CLI's output is intended.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"


def load_cases(golden_dir: pathlib.Path = GOLDEN_DIR) -> list:
    return json.loads((golden_dir / "cases.json").read_text(encoding="utf-8"))


def invoke(argv: list) -> tuple:
    """(exit code, stdout bytes) of one CLI invocation in this process."""
    from routeinfo.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue().encode("utf-8")


def compare(case: dict, code: int, stdout: bytes, golden_dir: pathlib.Path) -> str | None:
    """Why an output differs from its golden copy, or None if identical."""
    if code != case["exit"]:
        return f"exit code {code}, golden {case['exit']}"
    expected = (golden_dir / f"{case['name']}.out").read_bytes()
    if stdout != expected:
        at = next(
            (i for i, (a, b) in enumerate(zip(stdout, expected)) if a != b),
            min(len(stdout), len(expected)),
        )
        return f"stdout differs from golden at byte {at}"
    return None


def check_all(cases: list, golden_dir: pathlib.Path = GOLDEN_DIR) -> list:
    """One verdict per case: {"name", "ok", "detail"}."""
    verdicts = []
    for case in cases:
        code, stdout = invoke(case["argv"])
        problem = compare(case, code, stdout, golden_dir)
        verdicts.append({"name": case["name"], "ok": problem is None, "detail": problem})
    return verdicts


def write_all(cases: list, golden_dir: pathlib.Path = GOLDEN_DIR) -> None:
    for case in cases:
        code, stdout = invoke(case["argv"])
        if code != case["exit"]:
            raise SystemExit(f"{case['name']}: exit code {code}, cases.json says {case['exit']}")
        (golden_dir / f"{case['name']}.out").write_bytes(stdout)


def main(argv: list) -> int:
    if argv != ["--write"]:
        print("usage: golden.py --write", file=sys.stderr)
        return 2
    write_all(load_cases())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
