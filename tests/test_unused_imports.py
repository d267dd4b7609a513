"""No module-level import goes unused in the package, the tests or the demos.

The repository configures no linter, so this scan stands in for one: it
parses each file, collects the names its top-level imports bind, and
reports those the module never reads, as a name or as the root of an
attribute.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path for folder in ("src/qdp", "tests", "demos") for path in (ROOT / folder).rglob("*.py")
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in read)


def test_scan_flags_unused_and_keeps_used():
    source = (
        "from __future__ import annotations\n"
        "import os\nimport numpy as np\nimport os.path\n"
        "from math import pi, tau\n"
        "x = np.zeros(1) * pi\n"
    )
    assert unused_imports(source) == ["os (line 4)", "tau (line 5)"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
