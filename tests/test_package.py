import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import doseband
from doseband import conformal, sim

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


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


def _doseband_imports(path):
    """Names of the doseband modules a file imports, relative imports included."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("doseband."))
        elif isinstance(node, ast.ImportFrom):
            package = node.module if node.level == 0 else f"doseband.{node.module or ''}".rstrip(".")
            if package == "doseband":  # from doseband import x, or from . import x
                found.update(a.name for a in node.names)
            elif package.startswith("doseband."):
                found.add(package.split(".")[1])
    return found


def test_every_module_has_a_caller():
    # a module stays only while another package module, the benchmark or a
    # console script imports it
    package = Path(doseband.__file__).parent
    modules = {path.stem: path for path in package.glob("*.py") if path.stem != "__init__"}
    imported = set()
    for name, path in modules.items():
        imported |= _doseband_imports(path) - {name}
    for path in (ROOT / "bench").rglob("*.py"):
        imported |= _doseband_imports(path)
    with open(PYPROJECT, "rb") as f:
        for target in tomllib.load(f)["project"].get("scripts", {}).values():
            imported.add(target.partition(":")[0].removeprefix("doseband.").split(".")[0])
    orphans = sorted(set(modules) - imported)
    assert not orphans, f"no package module, bench/ file or console script imports {orphans}"


def test_every_exported_name_resolves():
    checked = 0
    for info in pkgutil.iter_modules(doseband.__path__):
        module = importlib.import_module(f"doseband.{info.name}")
        stale = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not stale, f"doseband.{info.name}.__all__ names missing attributes: {stale}"
        checked += len(getattr(module, "__all__", ()))
    assert checked > 0


def test_every_score_kind_has_a_study_design():
    # a score kind stays only while a simulation design scores with it
    assert set(conformal.SCORE_KINDS) == {d.score for d in sim._DESIGNS.values()}


def test_no_module_calls_np_vectorize():
    # np.vectorize runs one Python call per element; array paths stay in numpy
    calls = []
    for path in sorted(Path(doseband.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "vectorize":
                    calls.append(f"{path.name}:{node.lineno}")
    assert not calls, f"np.vectorize called at {calls}"
