"""Static checks of the package source (no linter is a dependency)."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "routeinfo"


def unused_imports(source: str) -> list:
    """Names a module imports but never reads and does not list in __all__."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts}
    return sorted(set(imported) - used)


def test_unused_import_detection():
    source = "import os\nimport numpy as np\nfrom a import b, c\nprint(np, c)\n"
    assert unused_imports(source) == ["b", "os"]
    assert unused_imports("from x import y\n__all__ = ['y']\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unreferenced_private_names(sources: dict) -> list:
    """Module-level ``_names`` of ``sources`` (module name -> source) that no
    module reads: as a loaded name, as an attribute, or as an import."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            private = [n for n in names if n.startswith("_") and not n.startswith("__")]
            defined += [(module, n) for n in private]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {a.name for a in node.names}
    return sorted(f"{module}.{name}" for module, name in defined if name not in read)


def test_unreferenced_private_name_detection():
    sources = {
        "a": "_X = 1\n_Y: int = 2\ndef _f(): return _X\nclass _C: pass\n__all__ = []\n",
        "b": "from a import _f\nimport a\nprint(a._C)\n",
    }
    assert unreferenced_private_names(sources) == ["a._Y"]


def test_no_unreferenced_private_names():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert sources
    assert unreferenced_private_names(sources) == []


def test_cli_import_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC.parent), env.get("PYTHONPATH")])
    )
    code = (
        "import sys, routeinfo.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def error_codes(source: str) -> set:
    """Code literals passed first to ``ValidationError(...)`` or heading a
    (code, holds, message) rule tuple."""
    codes = set()
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "ValidationError"
        ):
            head = node.args[0] if node.args else None
        elif (
            isinstance(node, ast.Tuple)
            and len(node.elts) >= 2
            and isinstance(node.elts[1], ast.Lambda)
        ):
            head = node.elts[0]
        else:
            continue
        if isinstance(head, ast.Constant) and isinstance(head.value, str):
            codes.add(head.value)
    return codes


def test_error_code_detection():
    source = (
        'RULES = (("a_rule", lambda x: x, lambda x: ""),)\n'
        'raise ValidationError("b_code", "message")\n'
        'pair = ("not_a_rule", 1)\n'
    )
    assert error_codes(source) == {"a_rule", "b_code"}


def test_readme_lists_every_error_code():
    readme = (SRC.parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Errors\n", 1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"^- `([a-z_]+)`", section, re.M))
    raised = set().union(
        *(error_codes(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py"))
    )
    assert sorted(raised - listed) == []
    assert sorted(listed - raised) == []


def test_failing_property_test_does_not_stop_the_run(tmp_path):
    """A failing ``@given`` test is reported as one failure, and the run goes
    on: hypothesis's failure report must not trip ``filterwarnings = error``
    into an INTERNALERROR that ends the session."""
    probe = tmp_path / "test_probe.py"
    probe.write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n\n\n"
        "def test_passes():\n"
        "    assert True\n",
        encoding="utf-8",
    )
    config = SRC.parent.parent / "pyproject.toml"
    out = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(config), "--rootdir", str(tmp_path), str(probe),
        ],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout, out.stdout
