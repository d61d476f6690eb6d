import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_every_console_script_target_imports():
    with open(PYPROJECT, "rb") as f:
        scripts = tomllib.load(f)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        try:
            entry = getattr(importlib.import_module(module), attr)
        except (ImportError, AttributeError) as exc:
            pytest.fail(f"console script {name!r} -> {target!r} does not resolve: {exc}")
        assert callable(entry), f"console script {name!r} -> {target!r} is not callable"
