"""The distribution is named after the package and carries its version."""

from pathlib import Path

import pytest

import qdp

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_distribution_is_qdp_at_package_version():
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    assert project["name"] == "qdp"
    assert project["version"] == qdp.__version__
