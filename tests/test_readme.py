"""The README's library quick start runs as written and states true values."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quick_start() -> str:
    """The python block under the README's "Library quick start" heading."""
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_start_runs_and_states_its_values(monkeypatch):
    block = quick_start()
    monkeypatch.chdir(ROOT)  # the block loads a scenario by relative path
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    # an expression line whose comment ends "= 0.6413" or "(21.11, 0.2396)"
    # states its value, or tuple of values, to the digits shown
    lines = block.splitlines()
    stated = []
    for node in ast.parse(block).body:
        if not isinstance(node, ast.Expr):
            continue
        comment = lines[node.end_lineno - 1][node.end_col_offset:]
        numbers = re.findall(r"\d+\.\d+", comment)
        if not numbers:
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"),
                     namespace)
        values = value if isinstance(value, tuple) else (value,)
        assert len(values) == len(numbers), comment
        for v, s in zip(values, numbers):
            assert f"{v:.{len(s.split('.')[1])}f}" == s, comment
        stated += numbers
    assert {"0.6413", "2.0804", "21.11", "0.2396"} <= set(stated)
