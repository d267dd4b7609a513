"""The demos import only names the package still exports.

Each demo module is imported (which resolves its ``from qdp...`` imports);
the resource-estimation demo, which runs in well under a second, is also
run end to end.
"""

import importlib.util
from pathlib import Path

import pytest

DEMOS_DIR = Path(__file__).resolve().parent.parent / "demos"
DEMOS = (
    "estimation_scaling_demo",
    "loader_training_demo",
    "pricing_demo",
    "resource_estimation_demo",
)


def import_demo(name: str):
    spec = importlib.util.spec_from_file_location(name, DEMOS_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", DEMOS)
def test_demo_imports(name):
    assert callable(import_demo(name).main)


def test_resource_estimation_demo_runs(capsys):
    import_demo("resource_estimation_demo").main()
    out = capsys.readouterr().out
    assert "reparam autocallable loading breakdown" in out
    assert "gaussian ansatz layers" in out
