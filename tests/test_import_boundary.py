"""The pricing engines read a contract only through its payoff fold, and
the test oracle never reads the fold.

``pricing_engines`` may use these ``contracts`` names and no other: the
fold (``_payoff_fold``, run by ``_fold_paths``), the date resolution it
shares with forward induction, the payoff bounds and the spec classes.
The scalar payoffs in ``tests/payoff_oracle.py`` may use only the spec
classes, ``PayoffBounds`` and ``DATE_TOLERANCE``, so that they check the
fold's dates, basket and steps rather than share them.  The scan parses a
module and collects every ``contracts`` name it imports or reads as an
attribute of the module.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENGINES = ROOT / "src" / "qdp" / "pricing_engines.py"
FOLD_API = {
    "_payoff_fold",
    "_fold_paths",
    "_resolve_dates",
    "payoff_bounds",
    "AutocallableSpec",
    "TARFSpec",
    "EuropeanCallSpec",
}
ORACLE = ROOT / "tests" / "payoff_oracle.py"
ORACLE_API = {
    "AutocallableSpec",
    "TARFSpec",
    "EuropeanCallSpec",
    "PayoffBounds",
    "DATE_TOLERANCE",
}


def contracts_names(source: str) -> set[str]:
    """Every name of ``contracts`` that ``source`` imports or reads."""
    tree = ast.parse(source)
    module_aliases = set()
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "contracts":
                names.update(alias.name for alias in node.names)
            elif node.module in (None, "qdp"):
                module_aliases.update(
                    alias.asname or alias.name
                    for alias in node.names
                    if alias.name == "contracts"
                )
        elif isinstance(node, ast.Import):
            module_aliases.update(
                alias.asname or alias.name
                for alias in node.names
                if alias.name.endswith(".contracts")
            )
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in module_aliases
        ):
            names.add(node.attr)
    return names


def test_scan_sees_imports_and_attributes():
    source = (
        "from . import contracts\n"
        "from .contracts import TARFSpec, _call_payoff\n"
        "import qdp.contracts as c\n"
        "contracts._payoff_fold(1)\n"
        "op = contracts._BASKET_OPS['worst_of']\n"
        "c._autocall_date\n"
    )
    assert contracts_names(source) == {
        "TARFSpec", "_call_payoff", "_payoff_fold", "_BASKET_OPS", "_autocall_date"
    }


def test_engines_read_contracts_only_through_the_fold():
    used = contracts_names(ENGINES.read_text(encoding="utf-8"))
    assert used - FOLD_API == set()
    assert "_payoff_fold" in used


def test_oracle_reads_only_term_sheets():
    used = contracts_names(ORACLE.read_text(encoding="utf-8"))
    assert used - ORACLE_API == set()
    assert "AutocallableSpec" in used
