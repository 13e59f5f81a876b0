"""The README's Python examples print what they show.

Each ```python block of README.md runs in one shared namespace, in order.
An expression followed by a ``# ...`` line, or ending in a ``# ...``
comment when no such line follows, shows its result there; the result's
``repr`` must equal the text shown.
"""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def shown_results(text: str) -> list:
    """(expression, shown text, actual repr) for every shown result."""
    namespace, results = {}, []
    for block in re.findall(r"^```python\n(.*?)^```", text, re.M | re.S):
        lines = block.splitlines()
        for stmt in ast.parse(block).body:
            source = ast.get_source_segment(block, stmt)
            if not isinstance(stmt, ast.Expr):
                exec(compile(ast.Module([stmt], []), README.name, "exec"), namespace)
                continue
            after = "".join(lines[stmt.end_lineno:stmt.end_lineno + 1]).strip()
            inline = lines[stmt.end_lineno - 1][stmt.end_col_offset:].strip()
            shown = after if after.startswith("#") else inline
            expr = compile(ast.Expression(stmt.value), README.name, "eval")
            value = eval(expr, namespace)
            if shown.startswith("#"):
                results.append((source, shown[1:].strip(), repr(value)))
    return results


def test_shown_results_are_found():
    text = "```python\nx = 2\nx + 1  # 3\nx * 2  # prose\n# 4\nx\n```\n"
    assert shown_results(text) == [("x + 1", "3", "3"), ("x * 2", "4", "4")]


def test_readme_python_blocks_print_what_they_show():
    results = shown_results(README.read_text(encoding="utf-8"))
    assert len(results) >= 5
    assert [(expr, shown) for expr, shown, _ in results] == [
        (expr, actual) for expr, _, actual in results
    ]
