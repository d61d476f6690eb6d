"""Span tracer installed around doseband's public entry points.

The wrappers are installed from outside the package and removed again
afterwards. Each entry point is replaced under the module attribute its
callers look it up by (``doseband.sim.fit_gaussian_mixture``,
``doseband.conformal.stabilized_weight``, ...), and the ``density``,
``quantile`` and ``mean`` methods are replaced on every model class
that defines them. A layer none of whose names exists any more is
reported as missing; it is not an error.

Each span is ``[layer, start_ns, end_ns, parent_index, op]`` and stays
in memory until the run ends. Counts are taken at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
from collections import Counter
from time import perf_counter_ns

import numpy as np

# layer -> the (module, attribute) names callers look the entry point up by
FUNCTION_SITES = {
    "sim.run_study": [("sim", "run_study")],
    "sim.generate": [("sim", "generate")],
    "data.split": [("sim", "split")],
    "propensity.fit_gaussian_mixture": [("sim", "fit_gaussian_mixture"), ("propensity", "fit_gaussian_mixture")],
    "propensity.fit_ols_gaussian": [("sim", "fit_ols_gaussian")],
    "outcome.fit_linear_pinball": [("sim", "fit_linear_pinball")],
    "assignment.stabilized_weight": [("sim", "stabilized_weight"), ("conformal", "stabilized_weight")],
    "conformal.calibration_scores": [("sim", "calibration_scores"), ("conformal", "calibration_scores")],
    "conformal.weighted_conformal_quantile": [
        ("sim", "weighted_conformal_quantile"),
        ("conformal", "weighted_conformal_quantile"),
    ],
    "conformal.score_interval": [("sim", "score_interval"), ("conformal", "score_interval")],
    "conformal.weighted_cqr_interval": [("conformal", "weighted_cqr_interval")],
    "conformal.prediction_band": [("conformal", "prediction_band")],
}

# layer -> (module, method names): every class defined in the module that
# defines one of the methods gets it wrapped
METHOD_SITES = {
    "propensity.density": ("propensity", ("density",)),
    "outcome.predict": ("outcome", ("quantile", "mean")),
    "assignment.h_density": ("assignment", ("density",)),
}

# spans that enclose the others; left out when asking which layer dominates
ENCLOSING = ("sim.run_study", "conformal.prediction_band", "conformal.weighted_cqr_interval")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _rows(t, x) -> int:
    if np.ndim(t) > 0:
        return int(np.size(t))
    return int(np.shape(x)[0]) if np.ndim(x) == 2 else 1


# layer -> rows processed by one call, read from its arguments
_ROWS = {
    "propensity.density": lambda a, k: _rows(_arg(a, k, 1, "t"), _arg(a, k, 2, "x")),
    "outcome.predict": lambda a, k: _rows(_arg(a, k, 2, "t"), _arg(a, k, 1, "x")),
    "assignment.stabilized_weight": lambda a, k: _rows(_arg(a, k, 3, "t"), _arg(a, k, 4, "x")),
    "conformal.calibration_scores": lambda a, k: int(np.size(_arg(a, k, 3, "idx"))),
}


def _count_fit_report(counts, out):
    report = out[1]
    counts["propensity.fit_gaussian_mixture", "k2"] += int(report.n_components == 2)
    counts["propensity.fit_gaussian_mixture", "unconverged"] += int(not report.converged)


def _count_infinite(counts, out):
    counts["conformal.weighted_conformal_quantile", "inf"] += int(math.isinf(out))


_ON_RESULT = {
    "propensity.fit_gaussian_mixture": _count_fit_report,
    "conformal.weighted_conformal_quantile": _count_infinite,
}


def _count_pinball_failure(counts, exc):
    counts["outcome.fit_linear_pinball", "failed"] += 1


def _count_positivity(counts, exc):
    if type(exc).__name__ == "PositivityError":
        counts["assignment.stabilized_weight", "positivity_errors"] += 1


_ON_ERROR = {
    "outcome.fit_linear_pinball": _count_pinball_failure,
    "assignment.stabilized_weight": _count_positivity,
}


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self, function_sites=FUNCTION_SITES, method_sites=METHOD_SITES):
        self.function_sites = function_sites
        self.method_sites = method_sites
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1  # id of the operation in progress, set by the caller
        self.missing: list[str] = []  # layers with no name left to wrap
        self.missing_sites: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        self.missing, self.missing_sites = [], []
        for layer, sites in self.function_sites.items():
            found = False
            for module_name, attr in sites:
                module = importlib.import_module(f"doseband.{module_name}")
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing_sites.append(f"doseband.{module_name}.{attr}")
                    continue
                self._replace(module, attr, self._wrap(layer, fn))
                found = True
            if not found:
                self.missing.append(layer)
        for layer, (module_name, methods) in self.method_sites.items():
            module = importlib.import_module(f"doseband.{module_name}")
            found = False
            for cls in vars(module).values():
                if not (inspect.isclass(cls) and cls.__module__ == module.__name__):
                    continue
                for method in methods:
                    fn = cls.__dict__.get(method)
                    if fn is not None:
                        self._replace(cls, method, self._wrap(layer, fn))
                        found = True
            if not found:
                self.missing.append(layer)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _replace(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, layer: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        rows = _ROWS.get(layer)
        on_result = _ON_RESULT.get(layer)
        on_error = _ON_ERROR.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, 0, 0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(counts, exc)
                raise
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if rows is not None:
                counts[layer, "rows"] += rows(args, kwargs)
            if on_result is not None:
                on_result(counts, out)
            return out

        return traced


def span_self_ns(spans) -> list[int]:
    """Each span's duration minus the time its direct children cover.

    Spans of one thread nest strictly, so the children of a span never
    overlap and their durations add up to the time they cover.
    """
    child = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def layer_totals(spans) -> dict[str, dict[str, int]]:
    """Per layer: calls, self and inclusive nanoseconds."""
    out: dict[str, dict[str, int]] = {}
    for (layer, start, end, _, _), self_ns in zip(spans, span_self_ns(spans)):
        row = out.setdefault(layer, {"calls": 0, "self_ns": 0, "incl_ns": 0})
        row["calls"] += 1
        row["self_ns"] += self_ns
        row["incl_ns"] += end - start
    return out


def dominant_layer(totals: dict[str, dict[str, int]]) -> str | None:
    """The layer with the largest inclusive time, enclosing spans left out."""
    inner = {k: v["incl_ns"] for k, v in totals.items() if k not in ENCLOSING}
    return max(inner, key=inner.get) if inner else None
