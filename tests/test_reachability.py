"""Every definition in the package is reached by something other than its unit tests.

A function, class or method that only its own unit test calls is code the
tool never runs.  This scan parses ``src/qdp`` and reports each top-level
function or class whose name no ``ast.Name`` or ``ast.Attribute`` reads,
and each method, property or annotated class field (a dataclass field)
whose name no ``ast.Attribute`` reads, from the package itself (outside
the definition's own body), the demos or the benchmark.  The tests under
``tests/`` do not count, the acceptance tests included, so no definition
survives on them alone.  A field that is only ever passed to the
constructor is stored and never used.  Dunder methods are reached by the
language and are not checked.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src/qdp").rglob("*.py"))
CALLERS = sorted([*(ROOT / "demos").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")])

# Test oracles: definitions kept in the package on purpose so that a test
# can check the production code against an independent formula.
ALLOWED = {
    "discretized_hamiltonian": "dense-matrix oracle for gaussian_loader._apply_hamiltonian",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(source: str) -> dict[str, tuple[int, bool]]:
    """Top-level functions and classes, and class members (methods and
    annotated fields): name -> (line, is_member)."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, _DEFS):
            found.setdefault(node.name, (node.lineno, False))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _DEFS[:2]) and not item.name.startswith("__"):
                    found.setdefault(item.name, (item.lineno, True))
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    found.setdefault(item.target.id, (item.lineno, True))
    return found


def references(source: str) -> tuple[set[str], set[str]]:
    """Names read as an ``ast.Name`` and as an ``ast.Attribute``, except
    inside a definition of the same name (so recursion does not count)."""
    names, attrs = set(), set()

    def visit(node, enclosing):
        if isinstance(node, _DEFS):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name) and node.id not in enclosing:
            names.add(node.id)
        if isinstance(node, ast.Attribute) and node.attr not in enclosing:
            attrs.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(ast.parse(source), frozenset())
    return names, attrs


def unreached(package: dict[str, str], callers: list[str]) -> list[str]:
    """Definitions no reader reaches.  A class member is reached only as an
    attribute, so a local variable of the same name does not count."""
    names, attrs = set(), set()
    for source in [*package.values(), *callers]:
        read_names, read_attrs = references(source)
        names |= read_names
        attrs |= read_attrs
    return sorted(
        f"{module}.{name} (line {line})"
        for module, source in package.items()
        for name, (line, is_member) in definitions(source).items()
        if name not in attrs and (is_member or name not in names)
        and name not in ALLOWED
    )


def test_scan_flags_unreached_and_keeps_reached():
    package = {
        "a": (
            "def used(): return 1\n"
            "def recursive(n): return recursive(n - 1)\n"
            "def test_only(): return 2\n"
            "class Box:\n"
            "    def __init__(self): self.x = used()\n"
            "    def read(self): return self.x\n"
            "    def dead(self): return 0\n"
            "    def shadowed(self): return 0\n"
            "class Record:\n"
            "    kept: int\n"
            "    stored: int\n"
            "    named: int = 0\n"
        ),
        "b": (
            "from a import Box, Record\ny = Box().read()\nshadowed = 1\n"
            "r = Record(kept=1, stored=2)\nnamed = r.kept\n"
        ),
    }
    callers = ["import a\na.recursive(3)\n"]
    assert unreached(package, callers) == [
        "a.dead (line 7)", "a.named (line 12)", "a.shadowed (line 8)",
        "a.stored (line 11)", "a.test_only (line 3)",
    ]


def test_allowlist_names_existing_definitions():
    defined = set()
    for path in PACKAGE:
        defined |= set(definitions(path.read_text(encoding="utf-8")))
    assert set(ALLOWED) <= defined


def test_every_definition_is_reached():
    package = {
        path.stem: path.read_text(encoding="utf-8") for path in PACKAGE
    }
    callers = [path.read_text(encoding="utf-8") for path in CALLERS]
    assert unreached(package, callers) == []
