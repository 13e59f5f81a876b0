"""Static checks of the package source (no linter is a dependency)."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import routeinfo
from routeinfo.cli import _POINTWISE_MAX

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
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used |= {e.value for e in node.value.elts}
    return sorted(set(imported) - used)


def test_unused_import_detection():
    source = "import os\nimport numpy as np\nfrom a import b, c\nprint(np, c)\n"
    assert unused_imports(source) == ["b", "os"]
    assert unused_imports("from x import y\n__all__ = ['y']\n") == []
    assert unused_imports("from x import y\n__all__ = list(_NAMES)\n") == ["y"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def read_names(tree: ast.Module) -> set:
    """Names a module reads: as a loaded name, as an attribute, or as an
    import."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read |= {a.name for a in node.names}
    return read


def bound_names(node: ast.stmt) -> list:
    """The names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def unreferenced_private_names(sources: dict) -> list:
    """Module-level ``_names`` of ``sources`` (module name -> source) that no
    module reads."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            names = bound_names(node)
            defined += [(module, n) for n in names if n.startswith("_") and not n.startswith("__")]
        read |= read_names(tree)
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


#: Helpers that only the fixed-point iteration uses.
FIXED_POINT_ONLY = (
    "_gap_lines",
    "_gap_weights",
    "_probe_splits",
    "_OWN_ENDS",
    "_OTHER_SPLITS",
    "_br_from_line",
    "_drift_multiplier",
    "_DRIFT_PATTERN_RTOL",
    "DAMPING",
    "_map_array_fields",
)


def test_fixed_point_machinery_is_read_only_by_the_oracle():
    """No module of ``src/`` but ``oracle`` reads the fixed point's own
    helpers, so deleting the fixed point deletes them as one block."""
    read = {
        p.stem: read_names(ast.parse(p.read_text(encoding="utf-8")))
        for p in SRC.glob("*.py")
    }
    for name in FIXED_POINT_ONLY:
        assert sorted(m for m in read if name in read[m]) == ["oracle"], name


def top_level_readers(tree: ast.Module) -> dict:
    """Each name a module-level statement defines -> the names it reads."""
    return {name: read_names(node) for node in tree.body for name in bound_names(node)}


def test_top_level_reader_detection():
    source = "_A = 1\n_B: int = _A\ndef f(): return _B\nclass C:\n    x = f\n"
    assert top_level_readers(ast.parse(source)) == {
        "_A": set(), "_B": {"int", "_A"}, "f": {"_B"}, "C": {"f"}
    }


def test_fixed_point_machinery_is_read_only_by_the_fixed_point():
    """Inside ``oracle`` only ``solve_fixed_point`` and its own helpers read
    those helpers: the residual and the exact readers share none of them."""
    readers = top_level_readers(ast.parse((SRC / "oracle.py").read_text(encoding="utf-8")))
    allowed = {"solve_fixed_point", *FIXED_POINT_ONLY}
    assert allowed <= set(readers)
    for name in FIXED_POINT_ONLY:
        assert {d for d, read in readers.items() if name in read} <= allowed, name


def test_interim_cost_is_summed_once():
    """The weighted-latency sum of an interim cost is written once, in
    ``beliefs._interim_cost``: ``oracle`` calls it and reads no latency or
    load of its own."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    defining = sorted(
        m
        for m, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_interim_cost"
    )
    assert defining == ["beliefs"]
    read = read_names(trees["oracle"])
    assert "_interim_cost" in read
    assert not {"latency", "_route_load"} & read


def package_imports(source: str) -> set:
    """The package modules a module imports: relative imports by their
    module (``from . import x`` by ``x``), absolute ones under
    ``routeinfo``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "routeinfo":
            found.add(node.module)
        elif isinstance(node, ast.Import):
            found |= {a.name for a in node.names if a.name.split(".")[0] == "routeinfo"}
    return found


def test_package_import_detection():
    source = (
        "import numpy\nimport routeinfo.oracle\nfrom . import beliefs\n"
        "from .model import x\nfrom routeinfo.costs import y\nfrom os import path\n"
    )
    assert package_imports(source) == {"routeinfo.oracle", "beliefs", "model", "routeinfo.costs"}


def test_closed_forms_import_only_the_model():
    """The closed forms need nothing of the belief layer or the oracles:
    ``equilibrium`` imports no package module but ``model``."""
    source = (SRC / "equilibrium.py").read_text(encoding="utf-8")
    assert package_imports(source) == {"model"}


def test_oracle_imports_no_closed_form():
    """The oracles know only the definitions: ``oracle`` imports ``model``
    and ``beliefs``, nothing of ``equilibrium``, ``costs`` or ``value``."""
    source = (SRC / "oracle.py").read_text(encoding="utf-8")
    assert package_imports(source) == {"model", "beliefs"}


def test_cost_layer_imports_no_belief_layer():
    """Realized costs read the load rule and the signal likelihoods from
    ``model`` and the profile from ``equilibrium``, not from ``beliefs``."""
    source = (SRC / "costs.py").read_text(encoding="utf-8")
    assert package_imports(source) == {"model", "equilibrium"}


def _python(code: str) -> subprocess.CompletedProcess:
    """``python -c code`` in a new interpreter that imports from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC.parent), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )


def _fresh(code: str) -> str:
    """Stripped stdout of ``python -c code``, which must succeed."""
    out = _python(code)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_cli_import_loads_no_scipy():
    code = (
        "import sys, routeinfo.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert _fresh(code) == "[]"


#: Prints the sorted package modules and whether numpy and json are loaded.
_LOADED = (
    "print(sorted(m for m in sys.modules if m.split('.')[0] == 'routeinfo'), "
    "'numpy' in sys.modules, 'json' in sys.modules)"
)


def test_package_import_loads_no_module_and_no_numpy():
    assert _fresh(f"import sys, routeinfo; {_LOADED}") == "['routeinfo'] False False"


def test_arrays_are_sought_only_once_numpy_is_loaded():
    """``model._numpy`` answers None while numpy is not loaded, without
    looking at an operand, and once it is, finds an array or a numpy scalar
    among Python scalars."""
    code = (
        "import sys; from fractions import Fraction; from routeinfo.model import _numpy\n"
        "class Watched:\n"
        "    looked = []\n"
        "    def __getattr__(self, name):\n"
        "        Watched.looked.append(name)\n"
        "        raise AttributeError(name)\n"
        "print(_numpy(1.0, 2, Fraction(1, 2), Watched()), Watched.looked, 'numpy' in sys.modules)\n"
        "import numpy as np\n"
        "print(_numpy(np.float64(1.0)) is np, _numpy(1.0, np.zeros(2)) is np, "
        "_numpy(1.0, 2, Fraction(1, 2), True))\n"
    )
    assert _fresh(code) == "None [] False\nTrue True None"


def test_oracle_import_loads_no_closed_form():
    loaded = _fresh(f"import sys, routeinfo.oracle; {_LOADED}")
    modules = ["routeinfo", "routeinfo.beliefs", "routeinfo.model", "routeinfo.oracle"]
    assert loaded == f"{modules} True False"


#: The package modules besides ``cli`` and ``model`` that each subcommand
#: with a ``_POINTWISE_MAX`` loads.
_SWEEP_MODULES = {
    "regimes": ["equilibrium"],
    "equilibrium": ["equilibrium"],
    "beliefs": ["beliefs"],
    "costs": ["costs", "equilibrium"],
    "value": ["costs", "equilibrium", "value"],
}

#: Sweep lengths checked besides each subcommand's ``_POINTWISE_MAX`` and
#: one more: a short sweep, and earlier limits and one more, so a length on
#: either side of a limit stays checked when the limit moves.
_SWEEP_LENGTHS = {
    "regimes": (3, 400, 401, 2500, 2501),
    "equilibrium": (2000, 2001),
    "costs": (500, 501),
    "value": (500, 501),
}

#: Command line -> (exit code, the package modules besides ``cli`` and
#: ``model`` that the run loads, whether it loads numpy). numpy is a
#: dependency of arrays: only a sweep of more than its subcommand's
#: ``_POINTWISE_MAX`` points (a shorter one runs a point at a time in plain
#: Python), ``oracle`` and ``verify`` load it.
_RUNS = {
    "--help": (0, [], False),
    "beliefs": (0, ["beliefs"], False),
    "beliefs --treatment conditional --eta-l 0.55": (0, ["beliefs"], False),
    "beliefs --treatment marginal --eta-l 0.55": (0, ["beliefs"], False),
    "regimes": (0, ["equilibrium"], False),
    **{
        f"{sub} --sweep lambda:0:1:{n}": (0, _SWEEP_MODULES[sub], n > limit)
        for sub, limit in _POINTWISE_MAX.items()
        for n in (*_SWEEP_LENGTHS.get(sub, ()), limit, limit + 1)
    },
    "regimes --p 2": (1, [], False),
    "equilibrium": (0, ["equilibrium"], False),
    "costs": (0, ["costs", "equilibrium"], False),
    "value": (0, ["costs", "equilibrium", "value"], False),
    "verify": (0, ["costs", "equilibrium", "value"], True),
    "verify --format csv": (1, [], False),
    "oracle": (0, ["beliefs", "equilibrium", "oracle"], True),
}


@pytest.mark.parametrize("sub", list(_RUNS))
def test_each_subcommand_loads_only_its_modules(sub):
    """The console script's start-up: ``routeinfo SUB`` loads ``cli`` and
    ``model`` and, when it runs, only the modules its rows need; numpy only
    for an array operand (an invalid input is rejected without it); json
    only when it prints JSON. A run without numpy loads neither
    ``dataclasses`` nor the ``inspect`` it imports."""
    code = (
        "import contextlib, io, sys\n"
        "from routeinfo.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        f"    code = main({sub.split()!r})\n"
        f"print(code); {_LOADED}\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    exit_code, loaded, numpy = _RUNS[sub]
    modules = ["cli", "model", *loaded]
    expected = sorted(["routeinfo", *(f"routeinfo.{m}" for m in modules)])
    json = sub.split()[0] == "verify" and exit_code == 0
    out = _fresh(code).split("\n")
    assert out[:2] == [str(exit_code), f"{expected} {numpy} {json}"]
    if not numpy:
        assert out[2] == "[]"


def test_no_module_imports_dataclasses():
    """The value types are ``model._Record`` subclasses, so no module of
    ``src/`` imports ``dataclasses``, which would load ``inspect`` with it."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert "dataclasses" not in {n.split(".")[0] for n in names}, path.name


def test_every_public_name_is_its_defining_modules_object():
    """Each name of ``__all__`` is found by parsing the modules, not by asking
    the package: the one module that defines it at top level. The package's
    attribute is that object, kept in the package after first use."""
    defined = {}
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                names = []
            for name in names:
                defined.setdefault(name, []).append(path.stem)
    for name in routeinfo.__all__:
        assert len(defined[name]) == 1, (name, defined[name])
        module = importlib.import_module(f"routeinfo.{defined[name][0]}")
        assert getattr(routeinfo, name) is getattr(module, name), name
        assert vars(routeinfo)[name] is getattr(module, name), name
    assert set(routeinfo.__all__) <= set(dir(routeinfo))


def test_package_submodules_are_attributes_and_unknown_names_are_not():
    out = _python(
        "import routeinfo; print(routeinfo.costs.__name__); "
        "print(hasattr(routeinfo, 'solve_bwe_fast')); routeinfo.solve_bwe_fast"
    )
    assert out.stdout == "routeinfo.costs\nFalse\n"
    assert out.stderr.endswith(
        "AttributeError: module 'routeinfo' has no attribute 'solve_bwe_fast'\n"
    )


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
