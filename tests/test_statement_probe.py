"""The statement-deletion probe of ``tools/statement_probe.py``."""

import importlib
import subprocess
import sys
from pathlib import Path

PROBE = Path(__file__).resolve().parent.parent / "tools" / "statement_probe.py"


def _package(root, test_body):
    """The probe's run on a package of two functions under ``root``, whose
    one test, of ``double``, is ``test_body``."""
    package = root / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(
        "def double(x):\n"
        "    y = 2 * x\n"
        "    return y\n"
        "\n"
        "\n"
        "def show(x):\n"
        "    print(x)\n"
    )
    (root / "tests").mkdir()
    (root / "tests" / "test_mod.py").write_text(
        "from pkg.mod import double\n"
        "\n"
        "\n"
        "def test_double():\n"
        f"    {test_body}\n"
    )
    return subprocess.run(
        [sys.executable, str(PROBE), "--root", str(root), str(package / "mod.py")],
        capture_output=True, text=True, timeout=120,
    )


def test_probe_reports_the_statement_no_test_pins(tmp_path):
    """Two functions, one tested: its statement's mutant is killed, the
    other function's survives and is printed. The unmutated run is quick,
    so a mutant's timeout is the floor."""
    result = _package(tmp_path, "assert double(2) == 4")
    lines = result.stdout.splitlines()
    assert result.returncode == 1, result.stderr
    assert lines[0] == "survivor src/pkg/mod.py:7 [show] print(x)"
    assert lines[1].startswith("mutants 2, killed 1, allowlisted 0, survivors 1, wall ")
    assert lines[1].endswith(", timeout 60 s")


def test_probe_refuses_a_failing_baseline(tmp_path):
    """If the unmutated tests fail, every mutant would count as killed: the
    probe judges none and exits 2."""
    result = _package(tmp_path, "assert double(2) == 5")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "the unmutated tests fail, so no mutant can be judged\n"


def test_every_mutant_compiles(tmp_path, monkeypatch):
    """An ``elif`` becomes ``else: pass``; docstrings and module-level
    statements are left alone."""
    module = tmp_path / "chain.py"
    module.write_text(
        'X = 1\n'
        '\n'
        '\n'
        'def sign(x):\n'
        '    """Sign of x."""\n'
        '    if x > 0:\n'
        '        s = 1\n'
        '    elif x < 0:\n'
        '        s = -1\n'
        '    else:\n'
        '        s = 0\n'
        '    return s\n'
    )
    monkeypatch.syspath_prepend(str(PROBE.parent))
    probe = importlib.import_module("statement_probe")
    run, allowed = probe.mutants(tmp_path, [module])
    assert allowed == []
    assert [(m.line, m.text) for m in run] == [
        (6, "if x > 0:"), (7, "s = 1"), (8, "elif x < 0:"), (9, "s = -1"), (11, "s = 0"),
    ]
    for mutant in run:
        compile(mutant.source, mutant.path, "exec")
    elif_mutant = run[2].source.splitlines()
    assert elif_mutant[7:10] == ["    else:", "        pass", "    return s"]


def test_every_allowlist_entry_names_code_that_exists(monkeypatch):
    """Each entry names a function of its module, or the first line of a
    statement in that function, so none outlives the code it excuses. Only
    the AST is read; no mutant runs."""
    monkeypatch.syspath_prepend(str(PROBE.parent))
    probe = importlib.import_module("statement_probe")
    root = PROBE.parent.parent
    files = sorted({root / path for path, _, _ in probe.ALLOWLIST})
    _, allowed = probe.mutants(root, files)
    for path, qualname, line in probe.ALLOWLIST:
        named = [
            m for m in allowed
            if m.path == path and f"{m.qualname}.".startswith(f"{qualname}.")
        ]
        if line is not None:
            named = [m for m in named if m.qualname == qualname and m.text == line]
        assert named, (path, qualname, line)
