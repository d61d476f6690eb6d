import ast
import importlib
import pkgutil
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import doseband
from doseband import conformal, sim
from doseband.assignment import DecileMidpointAssignment, UniformAssignment, likelihood_ratio
from doseband.dist import NormalParams, TruncatedNormalParams
from doseband.outcome import LinearPinballModel, OracleQuantileModel
from doseband.propensity import CallableGps, MixtureGps

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


def test_package_imports_only_the_standard_library_and_its_dependencies():
    # the package installs with the dependencies pyproject.toml declares;
    # scipy and pytest are for the tests alone
    with open(PYPROJECT, "rb") as f:
        dependencies = tomllib.load(f)["project"]["dependencies"]
    allowed = set(sys.stdlib_module_names) | {"doseband"} | {re.match(r"[\w.-]+", d)[0] for d in dependencies}
    outside = []
    for path in sorted(Path(doseband.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno} {n}" for n in names if n.split(".")[0] not in allowed]
    assert "numpy" in allowed and not outside, f"imports outside the declared dependencies: {outside}"


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


BENCH_READERS = ("workloads.py", "make_reference.py", "setup_child.py")


def _bench_names(path):
    """(module, name) for every doseband name a file reads: the names of
    ``from doseband.X import ...``, and the attributes read off a module
    bound by ``from doseband import X``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names, aliases = set(), {}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.level == 0):
            continue
        if node.module == "doseband":
            aliases.update({a.asname or a.name: a.name for a in node.names})
        elif node.module.startswith("doseband."):
            names.update((node.module, a.name) for a in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            names.add((f"doseband.{aliases[node.value.id]}", node.attr))
    return names


def test_every_name_the_benchmark_reads_resolves():
    # a deletion that would break the benchmark fails here first
    names = set().union(*(_bench_names(ROOT / "bench" / f) for f in BENCH_READERS))
    assert {m for m, _ in names} >= {"doseband.conformal", "doseband.sim", "doseband.propensity"}
    missing = sorted(f"{m}.{n}" for m, n in names if not hasattr(importlib.import_module(m), n))
    assert not missing, f"bench/ reads names doseband no longer has: {missing}"


def _affine_basis(x, t):
    return np.column_stack([np.ones(len(t)), x, t])


def _single_point_queries():
    """(label, query) for every GPS and quantile model class, each query
    one point given with an x row, the way
    ``bench/workloads.py::reference_band`` asks for it."""
    x = np.array([0.3, -0.2])
    coefs = {0.05: np.arange(4.0), 0.95: -np.arange(4.0)}
    pinball = LinearPinballModel(basis=_affine_basis, coefs=coefs, levels=(0.05, 0.95))
    oracle = OracleQuantileModel(mean_fn=lambda xx, tt: xx[:, 0] + tt, variance=1.0, levels=(0.05, 0.95))
    return [
        (
            "MixtureGps",
            lambda: MixtureGps(
                mix_weights=np.array([0.4, 0.6]),
                betas=np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0]]),
                variances=np.array([1.0, 2.0]),
            ).density(0.7, x),
        ),
        ("CallableGps", lambda: CallableGps(fn=lambda tt, xx: np.exp(-tt * tt)).density(0.7, x)),
        ("OracleQuantileModel", lambda: oracle.quantile(x, 0.7, 0.95)),
        ("LinearPinballModel", lambda: pinball.quantile(x, 0.7, 0.05)),
    ]


@pytest.mark.parametrize("label, query", _single_point_queries(), ids=[q[0] for q in _single_point_queries()])
def test_single_point_query_returns_a_python_float(label, query):
    # reference_band assigns these to one row of an array; a length-1
    # array there raises "setting an array element with a sequence"
    assert type(query()) is float, label


def _scalar_array_queries():
    """(label, query) for every numerator and the likelihood ratio, each
    at one scalar point."""
    return [
        ("NormalParams", lambda: NormalParams(1.0, 0.5).density(0.7)),
        ("TruncatedNormalParams", lambda: TruncatedNormalParams(2.0, 0.8, 1.0, 5.0).density(2.7)),
        ("UniformAssignment", lambda: UniformAssignment(0.0, 3.0).density(0.7)),
        ("DecileMidpointAssignment", lambda: DecileMidpointAssignment(np.arange(11.0), 1.0, 4.5, 0.5).density(0.7)),
        ("likelihood_ratio", lambda: likelihood_ratio(0.5, 0.25, 0.7)),
    ]


@pytest.mark.parametrize("label, query", _scalar_array_queries(), ids=[q[0] for q in _scalar_array_queries()])
def test_scalar_query_gives_a_0d_result(label, query):
    # numpy's own 0-d result: reference_band divides h.density(float(t))
    # by a GPS float and writes the ratio into one row of an array
    v = query()
    assert np.ndim(v) == 0, label
    out = np.zeros((3, 2))
    out[1] = v, v
    assert out[1].tolist() == [float(v)] * 2 and float(v) > 0.0, label
