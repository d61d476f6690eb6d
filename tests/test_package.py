import ast
import importlib
import importlib.util
import math
import pkgutil
import re
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import doseband
from doseband import conformal, sim
from doseband.assignment import DecileMidpointAssignment, UniformAssignment, likelihood_ratio
from doseband.dist import NormalParams, TruncatedNormalParams
from doseband.outcome import LinearPinballModel, OlsMeanModel, OracleQuantileModel
from doseband.propensity import CallableGps, MixtureGps

ROOT = Path(__file__).resolve().parents[1]


def _project() -> dict:
    """pyproject.toml's [project] table. tomllib joined the standard
    library in Python 3.11, so only the tests that read the file skip on
    Python 3.10."""
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        return tomllib.load(f)["project"]


def test_readme_example_runs_in_under_a_second(capsys):
    # the README's one example runs as written, with every warning an error
    (example,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(example, "README.md", "exec"), {})
    elapsed = time.perf_counter() - start
    lines = capsys.readouterr().out.splitlines()
    assert [line[:4] for line in lines] == ["t = "] * 5 + ["SimR"], lines
    assert elapsed < 1.0


def test_every_console_script_target_imports():
    scripts = _project().get("scripts", {})
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
    dependencies = _project()["dependencies"]
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
    for target in _project().get("scripts", {}).values():
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


BROAD_EXCEPTIONS = {"Exception", "BaseException"}


def test_no_handler_catches_every_exception():
    # a blanket handler hides bugs: each handler names the errors it expects,
    # never Exception or BaseException, alone or in a tuple, nor is it bare
    broad = []
    for path in sorted(Path(doseband.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            names = {getattr(c, "attr", getattr(c, "id", None)) for c in caught if c is not None}
            if node.type is None or names & BROAD_EXCEPTIONS:
                broad.append(f"{path.name}:{node.lineno}")
    assert not broad, f"blanket exception handlers at {broad}"


def _module_private_names(tree):
    """(name, definition node) of every module-level private name: a
    function, class or assignment target starting with one underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from ((name, node) for name in names if name.startswith("_") and not name.startswith("__"))


def _referenced(nodes, strings=False) -> Counter:
    """Counts of the names read as AST names or attributes among the
    nodes, and with ``strings`` of every word of a string constant."""
    found = Counter()
    for node in nodes:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update(re.findall(r"\w+", node.value))
    return found


def test_every_private_name_has_a_caller():
    # a private helper stays only while the package or the benchmark uses
    # it, outside its own definition; the benchmark's tracer names its
    # sites in strings
    package = Path(doseband.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sorted(package.glob("*.py"))}
    uses = sum((_referenced(ast.walk(tree)) for tree in trees.values()), Counter())
    for path in (ROOT / "bench").glob("*.py"):
        uses += _referenced(ast.walk(ast.parse(path.read_text(), filename=str(path))), strings=True)
    unused = [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name, definition in _module_private_names(tree)
        if uses[name] <= _referenced(ast.walk(definition))[name]
    ]
    assert not unused, f"private names with no caller in src/doseband or bench/: {unused}"


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


def _model_queries():
    """(label, query(t, x)) for every GPS and outcome model class: the
    density at (t, x), or the first quantile level or the mean at (x, t)."""
    coefs = {0.05: np.arange(4.0), 0.95: -np.arange(4.0)}
    pinball = LinearPinballModel(basis=_affine_basis, coefs=coefs, levels=(0.05, 0.95))
    oracle = OracleQuantileModel(mean_fn=lambda xx, tt: xx[:, 0] + tt, variance=1.0, levels=(0.05, 0.95))
    mixture = MixtureGps(
        mix_weights=np.array([0.4, 0.6]),
        betas=np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0]]),
        variances=np.array([1.0, 2.0]),
    )
    ols = OlsMeanModel(basis=_affine_basis, beta=np.array([0.5, -1.0, 2.0, 0.25]))
    return [
        ("MixtureGps", mixture.density),
        ("CallableGps", CallableGps(fn=lambda tt, xx: np.exp(-tt * tt) + xx[:, 0] ** 2).density),
        ("OracleQuantileModel", lambda t, x: oracle.quantile(x, t, 0.95)),
        ("LinearPinballModel", lambda t, x: pinball.quantile(x, t, 0.05)),
        ("OlsMeanModel", lambda t, x: ols.mean(x, t)),
    ]


def _single_point_queries():
    """(label, query) for every GPS and outcome model class, each query
    one point given with an x row, the way
    ``bench/workloads.py::reference_band`` asks for it."""
    x = np.array([0.3, -0.2])
    return [(label, lambda query=query: query(0.7, x)) for label, query in _model_queries()]


@pytest.mark.parametrize("label, query", _single_point_queries(), ids=[q[0] for q in _single_point_queries()])
def test_single_point_query_returns_a_python_float(label, query):
    # reference_band assigns these to one row of an array; a length-1
    # array there raises "setting an array element with a sequence"
    assert type(query()) is float, label


@pytest.mark.parametrize("label, query", _model_queries(), ids=[q[0] for q in _model_queries()])
def test_every_model_answers_the_query_rows_contract(label, query):
    x = np.array([[0.3, -0.2], [1.5, 0.4], [-0.7, 2.0]])
    one = query(0.7, x[0])
    assert type(one) is float and one == query(np.array([0.7]), x[:1])[0], label
    # a matrix product over three rows may round the first one differently
    rows = query(0.7, x)
    assert rows.shape == (3,) and rows[0] == pytest.approx(one, rel=1e-12), label
    with pytest.raises(ValueError, match="need a scalar or 1-d t"):
        query(np.full((3, 1), 0.7), x)
    for t, xx in ((np.full(2, 0.7), x), (np.full(3, 0.7), x[0])):
        with pytest.raises(ValueError, match="t and x row counts differ"):
            query(t, xx)


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


def _bench_workloads():
    """bench/workloads.py, loaded by path once."""
    name = "bench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / "workloads.py")
        # registered first: its dataclasses look their module up while it runs
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


@pytest.mark.parametrize("name", ["band", "study-query", "gps-em", "study-pinball"])
def test_benchmark_output_checks_pass(name, monkeypatch):
    # the band check compares with bench/workloads.py::reference_band, which
    # queries every model one point at a time; the gps-em check compares each
    # EM fit with bench/reference.json at a relative 1e-6
    if name == "study-pinball":
        monkeypatch.setattr(sim, "_POOL_MIN_S", math.inf)  # pooled rows equal serial ones
    workloads = _bench_workloads()
    workload = workloads.WORKLOADS[name]
    state = workload.setup(workloads.DEFAULT_SEED)
    check = workload.checker(state, workloads.load_reference())
    for i in range(workload.distinct):
        check.add(i, workload.fingerprint(workload.call(state, workload.prepare(state, i))))
    assert check.failures() == {}
