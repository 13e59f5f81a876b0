"""Statement-deletion probe: which statements of the package can the tests lose?

Each mutant replaces one statement in a function of the package by
``pass``: an assignment, an expression, an ``if`` (with its ``elif``/``else``
chain), a ``for`` or a ``raise``, together with its block. The Tier-1 tests
then run on a scratch copy of the repository holding that one mutant and
stop at their first failure. A mutant the tests do not kill is a survivor: code
that no test pins, or code that no valid input can reach. Either way the
statement adds no evidence, and the probe prints it.

``ALLOWLIST`` names the statements the probe leaves alone, each with its
reason: a whole function, or one statement by its first source line.

Usage (stdlib only; the tests need what Tier-1 needs):

    python tools/statement_probe.py [--root DIR] [FILE ...]

The root defaults to this repository and the modules to those of
``src/routeinfo``; FILE limits the run to the named modules under the
root. The unmutated tests run first: if they fail, no mutant can be judged
and the probe exits 2; their wall time sets each mutant's timeout. The exit
code is otherwise 0 when no mutant outside the allowlist survives, 1 if one
does.
"""

from __future__ import annotations

import argparse
import ast
import concurrent.futures
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

#: Statement kinds a mutant replaces by ``pass``.
KINDS = (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Expr, ast.If, ast.For, ast.Raise)

#: The fixed-point iteration: ROADMAP item 2 replaces it, so it takes no
#: new tests before then.
_FROZEN = "frozen until ROADMAP item 2"

#: (module path under the root, function qualname, statement's first source
#: line or None for the whole function) -> reason.
ALLOWLIST = {
    ("src/routeinfo/oracle.py", "solve_fixed_point", None): _FROZEN,
    ("src/routeinfo/oracle.py", "_gap_lines", None): _FROZEN,
    ("src/routeinfo/oracle.py", "_probe_splits", None): _FROZEN,
    ("src/routeinfo/oracle.py", "_drift_multiplier", None): _FROZEN,
}

#: Tier-1 with the first failure ending the run; a fixed Hypothesis seed
#: makes every mutant meet the same examples.
TEST_COMMAND = (
    sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
    "--hypothesis-seed=0",
)

#: The package probed when no module is named, under the root.
PACKAGE = "src/routeinfo"

#: Mutants tested at a time, each in its own copy of the repository.
JOBS = 2

#: A mutant's test run counts as killed after this many times the unmutated
#: run's wall time, and at least MIN_TIMEOUT seconds (a mutant can turn a
#: loop into one that never ends).
TIMEOUT_FACTOR = 4
MIN_TIMEOUT = 60


@dataclass(frozen=True)
class Mutant:
    path: str  # module path relative to the root
    line: int
    qualname: str
    text: str  # the statement's first source line, stripped
    source: str  # the whole mutated module


def _is_docstring(node: ast.stmt) -> bool:
    return (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _statements(tree: ast.Module):
    """(qualname, statement) of every mutable statement in a function body,
    in source order. Module and class bodies only define names, which the
    first import or call of them pins."""
    found = []

    def visit(node, qualname, in_function):
        for field in ("body", "orelse", "finalbody", "handlers"):
            for child in getattr(node, field, []):
                name, inside = qualname, in_function
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    name = f"{qualname}.{child.name}" if qualname else child.name
                    inside = not isinstance(child, ast.ClassDef)
                elif in_function and isinstance(child, KINDS) and not _is_docstring(child):
                    found.append((qualname, child))
                visit(child, name, inside)

    visit(tree, "", False)
    return sorted(found, key=lambda item: (item[1].lineno, item[1].col_offset))


def _replace(lines: list, node: ast.stmt) -> str:
    """The module with ``node`` (and its block) replaced by ``pass``."""
    start, col = node.lineno - 1, node.col_offset
    end, end_col = node.end_lineno - 1, node.end_col_offset
    head = lines[start][:col]
    pass_text = "pass"
    if lines[start][col:].startswith("elif"):
        # An ``elif`` is the lone If of its parent's ``else``.
        pass_text = "else:\n" + " " * (col + 4) + "pass"
    tail = lines[end][end_col:]
    return "".join(lines[:start] + [head + pass_text + tail] + lines[end + 1 :])


def _allowed(path: str, qualname: str, text: str):
    """The allowlist's reason for a statement, or None."""
    outer = qualname.split(".")
    for n in range(1, len(outer) + 1):
        reason = ALLOWLIST.get((path, ".".join(outer[:n]), None))
        if reason:
            return reason
    return ALLOWLIST.get((path, qualname, text))


def mutants(root: Path, files: list) -> tuple:
    """(mutants to run, allowlisted mutants) of ``files`` under ``root``."""
    run, allowed = [], []
    for file in files:
        path = file.relative_to(root).as_posix()
        source = file.read_text(encoding="utf-8")
        lines = source.splitlines(keepends=True)
        for qualname, node in _statements(ast.parse(source)):
            text = lines[node.lineno - 1][node.col_offset :].strip()
            mutant = Mutant(path, node.lineno, qualname, text, _replace(lines, node))
            (allowed if _allowed(path, qualname, text) else run).append(mutant)
    return run, allowed


def _copy(root: Path, into: Path) -> Path:
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache")
    shutil.copytree(root, into, ignore=ignore)
    return into


def _passes(copy: Path, env: dict, timeout=None) -> bool:
    """Run the tests on ``copy``; True if they pass within ``timeout``."""
    try:
        result = subprocess.run(
            TEST_COMMAND, cwd=copy, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=timeout,
        )
        return result.returncode == 0
    except subprocess.TimeoutExpired:
        return False
    finally:
        shutil.rmtree(copy / ".hypothesis", ignore_errors=True)


def _survives(mutant: Mutant, copy: Path, env: dict, timeout: float) -> bool:
    """Run the tests on ``copy`` with ``mutant`` in place; True if they pass."""
    target = copy / mutant.path
    original = target.read_text(encoding="utf-8")
    target.write_text(mutant.source, encoding="utf-8")
    try:
        return _passes(copy, env, timeout)
    finally:
        target.write_text(original, encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", help="modules to mutate (default: the package)")
    parser.add_argument("--root", default=Path(__file__).resolve().parent.parent, type=Path)
    args = parser.parse_args(argv)
    root = args.root.resolve()
    files = [Path(f).resolve() for f in args.files] or sorted((root / PACKAGE).glob("*.py"))
    run, allowed = mutants(root, files)

    # No bytecode cache: two mutants of one module can share its size and
    # mtime second, and a cached one would then stand in for the other.
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    started = time.monotonic()
    survivors = []
    with tempfile.TemporaryDirectory(prefix="statement-probe-") as scratch:
        copies = queue.Queue()
        for i in range(JOBS):
            copies.put(_copy(root, Path(scratch) / f"copy{i}"))
        # A failing baseline would count every mutant as killed.
        baseline = time.monotonic()
        if not _passes(Path(scratch) / "copy0", env):
            print("the unmutated tests fail, so no mutant can be judged", file=sys.stderr)
            return 2
        timeout = max(MIN_TIMEOUT, TIMEOUT_FACTOR * (time.monotonic() - baseline))

        def probe(mutant):
            copy = copies.get()
            try:
                return _survives(mutant, copy, env, timeout)
            finally:
                copies.put(copy)

        with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
            for mutant, survived in zip(run, pool.map(probe, run)):
                if survived:
                    survivors.append(mutant)
                    print(f"survivor {mutant.path}:{mutant.line} "
                          f"[{mutant.qualname}] {mutant.text}", flush=True)
    wall = time.monotonic() - started
    total = len(run) + len(allowed)
    print(
        f"mutants {total}, killed {len(run) - len(survivors)}, "
        f"allowlisted {len(allowed)}, survivors {len(survivors)}, wall {wall:.0f} s, "
        f"timeout {timeout:.0f} s"
    )
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
