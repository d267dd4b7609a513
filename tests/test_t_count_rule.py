"""The T-count rule lives in one place: ``ResourceCount.t_count``.

A T-count is ``T_PER_TOFFOLI`` per Toffoli plus the T gates of synthesized
rotations.  ``ResourceCount`` stores the Toffolis and the rotation T gates
and derives the T-count as a property, so no count can disagree with its
gates.  The scan parses ``src/qdp`` and fails if any code outside that
property imports or reads ``T_PER_TOFFOLI`` (a second copy of the rule), or
if ``ResourceCount`` declares ``t_count`` as a stored field.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "qdp").rglob("*.py"))
RULE = "T_PER_TOFFOLI"
RULE_HOME = "ResourceCount.t_count"


def rule_reads(source: str) -> list[tuple[str, int]]:
    """(scope, line) of every import or read of ``T_PER_TOFFOLI``; the
    scope is the dotted path of enclosing classes and functions."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if (
            (isinstance(node, ast.Name) and node.id == RULE
             and isinstance(node.ctx, ast.Load))
            or (isinstance(node, ast.Attribute) and node.attr == RULE)
            or (isinstance(node, ast.ImportFrom)
                and any(alias.name == RULE for alias in node.names))
        ):
            found.append((scope or "<module>", node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def stored_t_count(source: str) -> list[int]:
    """Lines where a class named ``ResourceCount`` declares a ``t_count`` field."""
    return [
        item.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef) and node.name == "ResourceCount"
        for item in node.body
        if isinstance(item, ast.AnnAssign)
        and isinstance(item.target, ast.Name)
        and item.target.id == "t_count"
    ]


def test_scan_sees_copies_of_the_rule():
    source = (
        "from .qarith_resources import T_PER_TOFFOLI\n"
        "from . import qarith_resources as qa\n"
        "T_PER_TOFFOLI = 7\n"
        "class ResourceCount:\n"
        "    t_count: int = 0\n"
        "    @property\n"
        "    def t_count(self):\n"
        "        return T_PER_TOFFOLI * self.toffoli_count\n"
        "def _item(toffoli):\n"
        "    return T_PER_TOFFOLI * toffoli + qa.T_PER_TOFFOLI\n"
    )
    assert rule_reads(source) == [
        ("<module>", 1), (RULE_HOME, 8), ("_item", 10), ("_item", 10)
    ]
    assert stored_t_count(source) == [5]


def test_t_count_rule_lives_in_resource_count_only():
    reads, stored = {}, {}
    for path in PACKAGE:
        source = path.read_text(encoding="utf-8")
        reads[path.name] = rule_reads(source)
        stored[path.name] = stored_t_count(source)
    copies = {
        name: [(scope, line) for scope, line in found if scope != RULE_HOME]
        for name, found in reads.items()
    }
    assert {name: found for name, found in copies.items() if found} == {}
    assert {name: lines for name, lines in stored.items() if lines} == {}
    # The scan sees the one read the rule is allowed.
    assert RULE_HOME in {scope for scope, _ in reads["qarith_resources.py"]}
