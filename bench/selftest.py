"""Tests of the benchmark itself.

Not collected by the repository's test run; run them from the root of a
checkout with

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys

import pytest

from program import ROOT, load_program

load_program()

import run  # noqa: E402  (the benchmark's modules need the path set above)
import tracing  # noqa: E402
import workloads  # noqa: E402


def _result(*args: str) -> dict:
    out = subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_printed_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        result = _result("--workload", "band", "--seconds", "1", "--trace", trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference()


def _first_fingerprint(name: str, seed: int):
    wl = workloads.WORKLOADS[name]
    state = wl.setup(seed)
    return wl, state, wl.fingerprint(wl.call(state, wl.prepare(state, 0)))


def _failed_calls(wl, state, reference, fp) -> list[int]:
    check = wl.checker(state, reference)
    check.add(0, fp)
    return list(check.failures())


@pytest.mark.parametrize("name", ["gps-em", "study-query", "band"])
def test_perturbed_reference_fails_the_check(name, reference):
    wl, state, fp = _first_fingerprint(name, workloads.DEFAULT_SEED)
    assert _failed_calls(wl, state, reference, fp) == []

    perturbed = copy.deepcopy(reference)
    if name == "band":
        perturbed[name][0][3][1] *= 1.0 + 1e-5
    elif name == "gps-em":
        perturbed[name][0]["betas"][1][0] *= 1.0 + 1e-5
    else:
        perturbed[name][0]["length_mean"] *= 1.0 + 1e-5
    assert _failed_calls(wl, state, perturbed, fp) == [0]


@pytest.mark.parametrize(
    "key, change",
    [("log_likelihood", lambda ref: ref + 0.01), ("mix_weights", lambda ref: [ref[1], ref[0]])],
)
def test_em_check_at_another_seed(key, change, reference):
    wl, state, fp = _first_fingerprint("gps-em", 3)
    assert fp["n_components"] == 2
    assert _failed_calls(wl, state, reference, fp) == []

    perturbed = copy.deepcopy(reference)
    perturbed["gps-em"][0][key] = change(perturbed["gps-em"][0][key])
    assert _failed_calls(wl, state, perturbed, fp) == [0]


@pytest.fixture(scope="module")
def traced_pair(reference):
    wl = workloads.WORKLOADS["band"]
    return [run.traced_run(wl, 3, reference) for _ in range(2)]


def test_two_traced_runs_give_identical_counts(traced_pair):
    counts = [
        {k: v for k, (v, unit, _) in metrics.items() if unit in ("count", "rows/op")}
        for metrics, _ in traced_pair
    ]
    assert counts[0] == counts[1]
    assert counts[0]["conformal.calibration_scores.calls"] == workloads.BAND_PROFILES * workloads.BAND_GRID


def test_self_times_are_nonnegative_and_fit_in_their_operation(traced_pair):
    _, summary = traced_pair[0]
    assert summary["missing_layers"] == [] and summary["failed"] == 0
    spans = summary["spans"]
    per_op: dict[int, int] = {}
    for (_, _, _, _, op), self_ns in zip(spans, tracing.span_self_ns(spans)):
        assert self_ns >= 0
        per_op[op] = per_op.get(op, 0) + self_ns
    assert sorted(per_op) == sorted(summary["windows"])
    for op, total in per_op.items():
        start, end = summary["windows"][op]
        assert total <= end - start


def test_a_missing_name_is_reported_not_raised():
    sites = {"sim.generate": [("sim", "no_such_entry")]}
    with tracing.Tracer(function_sites=sites, method_sites={}) as tracer:
        pass
    assert tracer.missing == ["sim.generate"]
    assert tracer.missing_sites == ["doseband.sim.no_such_entry"]
