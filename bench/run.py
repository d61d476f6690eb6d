"""doseband benchmark: one workload, one run, one JSON result line.

Run from the root of a checkout:

    python3 bench/run.py --workload band --seed 15075 --seconds 30 --trace 0

``--trace 0`` is a closed loop with one caller: each operation starts
when the previous one returns, for ``--seconds`` seconds, and the
end-to-end metrics are reported. ``--trace 1`` makes each of the
workload's distinct calls twice, untraced and then traced, and reports
the per-layer metrics; ``--seconds`` does not apply to it, and its
counts repeat exactly. Every output is checked (workloads.py) and the
last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The lines before it name each metric with its unit and sample count and
give the run record: machine, versions, commit, seed, operation counts
and reference-loop timings taken at the start and end of the run and
between calls during it, which show how fast the machine ran but never
rescale a metric. The record is also written to bench/results/.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import subprocess
import sys
import time
from statistics import median
from time import perf_counter, perf_counter_ns

import numpy as np

from program import ROOT, load_program
from tracing import Tracer, dominant_layer, layer_totals

BENCH = ROOT / "bench"
RESULTS = BENCH / "results"
SETUP_SAMPLES = 3
PROBE_INTERVAL_NS = 2_500_000_000  # loop time between two reference-loop probes

# layer -> the statistics the traced run reports for it
PER_LAYER = {
    "propensity.fit_gaussian_mixture": ("self_ms", "calls", "k2_share", "unconverged"),
    "propensity.fit_ols_gaussian": ("self_ms", "calls"),
    "propensity.density": ("self_ms", "calls", "rows"),
    "outcome.fit_linear_pinball": ("self_ms", "calls", "failed"),
    "outcome.predict": ("self_ms", "calls", "rows"),
    "assignment.stabilized_weight": ("self_ms", "calls", "rows", "positivity_errors"),
    "assignment.h_density": ("self_ms", "calls"),
    "conformal.calibration_scores": ("self_ms", "calls", "rows"),
    "conformal.weighted_conformal_quantile": ("self_ms", "calls", "inf_share"),
    "conformal.score_interval": ("self_ms", "calls"),
    "conformal.weighted_cqr_interval": ("self_ms",),
    "conformal.prediction_band": ("self_ms",),
    "sim.generate": ("self_ms", "calls"),
    "data.split": ("self_ms", "calls"),
    "sim.run_study": ("self_ms",),
}
UNITS = {"self_ms": "ms/op", "k2_share": "share", "inf_share": "share"}  # the rest count


# ---------------------------------------------------------------- run record


_REF_VALUES = np.random.default_rng(0).random(200_000)


def reference_loop_ms(repeats: int = 15) -> dict[str, float]:
    """Median times of two fixed single-threaded numpy kernels: ``large``
    sorts and exponentiates 200,000 values, and ``small`` makes 2,000
    calls on 8 values, so that it follows the cost of the many small
    calls of doseband's hot loops."""
    large, small = [], []
    tiny = _REF_VALUES[:8]
    for _ in range(repeats):
        t0 = perf_counter()
        np.sort(_REF_VALUES)
        float(np.exp(_REF_VALUES).sum())
        t1 = perf_counter()
        for _ in range(1000):
            np.exp(tiny)
            np.dot(tiny, tiny)
        large.append(t1 - t0)
        small.append(perf_counter() - t1)
    return {"large": median(large) * 1e3, "small": median(small) * 1e3}


def steal_s() -> float | None:
    """Machine-wide CPU steal time so far, where /proc/stat has it."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def blas() -> dict:
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {}
    return {"name": dep.get("name"), "version": dep.get("version")}


def machine_record() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas(),
        "commit": git_commit(),
    }


# ---------------------------------------------------------------- runs


def setup_sample(workload: str, seed: int) -> float:
    """Seconds from starting a fresh process to its workload being set up."""
    cmd = [sys.executable, str(BENCH / "setup_child.py"), workload, str(seed)]
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up of {workload} failed (exit code {proc.returncode})")
    return elapsed


def timed_call(wl, state, i: int, check, errors: dict, tracer=None) -> tuple[int, int] | None:
    """Make call ``i``: its (start, end) in ns, or None when it raised.

    The output is fingerprinted and handed to ``check`` outside the timed
    interval; an exception is recorded in ``errors`` as a failed call.
    """
    inputs = wl.prepare(state, i)
    if tracer is not None:
        tracer.op = i
    t0 = perf_counter_ns()
    try:
        out = wl.call(state, inputs)
    except Exception as exc:  # a failed operation is counted, not fatal
        errors[i] = f"{type(exc).__name__}: {exc}"
        return None
    t1 = perf_counter_ns()
    check.add(i, wl.fingerprint(out))
    return t0, t1


def timed_run(wl, seed: int, seconds: float, reference: dict) -> tuple[dict, dict]:
    """The untraced closed loop, for ``seconds``.

    The loop cycles through ``wl.distinct`` distinct calls. Each call's
    time per operation is one sample; the gated timing is their 90th
    percentile, ``op_ms_p90``, because the host spends most of its time
    in a slow mode that the 90th percentile reads in every run, while
    the median and the fastest call depend on how many fast stretches a
    run happens to meet (README.md). The loop's throughput and median
    are reported alongside. ``setup_s`` is, for the same reason, the
    slowest of ``SETUP_SAMPLES`` set-ups, taken between two calls at even
    steps of the loop so that they meet the run's changing host
    conditions. Every ``PROBE_INTERVAL_NS`` the reference loop is timed
    between two calls, so that the record shows slow stretches while
    they happen. Neither counts as loop time.
    """
    state = wl.setup(seed)
    check = wl.checker(state, reference)
    errors: dict[int, str] = {}
    windows: dict[int, tuple[int, int]] = {}
    setup: list[float] = []
    probes: list[dict[str, float]] = []
    paused_ns = 0
    loop_ns = int(seconds * 1e9)
    cpu0 = time.process_time()
    start = perf_counter_ns()
    i = 0
    while (elapsed := perf_counter_ns() - start - paused_ns) < loop_ns:
        pause0 = perf_counter_ns()
        if len(setup) < SETUP_SAMPLES and elapsed >= len(setup) * loop_ns // SETUP_SAMPLES:
            setup.append(setup_sample(wl.name, seed))
        if elapsed >= (len(probes) + 1) * PROBE_INTERVAL_NS:
            probes.append({"t_s": elapsed / 1e9, **reference_loop_ms(3)})
        paused_ns += perf_counter_ns() - pause0
        window = timed_call(wl, state, i, check, errors)
        if window is not None:
            windows[i] = window
        i += 1
    wall_s = (perf_counter_ns() - start - paused_ns) / 1e9
    cpu_s = time.process_time() - cpu0
    while len(setup) < SETUP_SAMPLES:  # a loop too short to take them all
        setup.append(setup_sample(wl.name, seed))

    opc = wl.ops_per_call
    per_op_ms = [(t1 - t0) / 1e6 / opc for t0, t1 in windows.values()]
    n = len(per_op_ms)
    samples = f"{n} calls, {n * opc} ops"
    # with no call completed the run reports zeros and fails its check
    metrics = {
        "op_ms_p90": (float(np.percentile(per_op_ms, 90)) if n else 0.0, "ms", samples),
        "setup_s": (max(setup), "s", f"slowest of {len(setup)} set-ups spread over the run"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "1 sample"),
    }
    report_only = {
        "ops_per_s": (n * opc / wall_s, "1/s", f"{n * opc} ops in {wall_s:.1f} s"),
        "op_ms_p50": (median(per_op_ms) if n else 0.0, "ms", samples),
    }
    failures = {**check.failures(), **errors}
    summary = {
        "calls": i,
        "attempted": i * opc,
        "failed": len(failures) * opc,
        "failures": failures,
        "loop_wall_s": wall_s,
        "reference_loop_ms_during": probes,
        "loop_cpu_s": cpu_s,
        "setup_samples_s": setup,
        "report_only": report_only,
    }
    return metrics, summary


def traced_run(wl, seed: int, reference: dict) -> tuple[dict, dict]:
    """Each distinct call once untraced and then once traced.

    The two runs of a call are back to back, so they meet the same
    machine conditions and ``trace.overhead_pct`` compares like with
    like. The counts depend only on the inputs, so they repeat exactly.
    """
    state = wl.setup(seed)
    checks = {mode: wl.checker(state, reference) for mode in ("plain", "traced")}
    errors: dict[str, dict[int, str]] = {"plain": {}, "traced": {}}
    busy_ns = {"plain": 0, "traced": 0}
    windows: dict[int, tuple[int, int]] = {}
    tracer = Tracer()
    for i in range(wl.distinct):
        window = timed_call(wl, state, i, checks["plain"], errors["plain"])
        if window is not None:
            busy_ns["plain"] += window[1] - window[0]
        with tracer:
            window = timed_call(wl, state, i, checks["traced"], errors["traced"], tracer)
        if window is not None:
            busy_ns["traced"] += window[1] - window[0]
            windows[i] = window

    ops = wl.distinct * wl.ops_per_call
    totals = layer_totals(tracer.spans)
    metrics = {}
    for layer, stats in PER_LAYER.items():
        row = totals.get(layer, {"calls": 0, "self_ns": 0})
        n_calls = row["calls"]
        for stat in stats:
            if stat == "self_ms":
                value = row["self_ns"] / 1e6 / ops
            elif stat == "calls":
                value = n_calls
            elif stat == "k2_share":
                value = tracer.counts[layer, "k2"] / n_calls if n_calls else 0.0
            elif stat == "inf_share":
                value = tracer.counts[layer, "inf"] / n_calls if n_calls else 0.0
            else:
                value = tracer.counts[layer, stat]
            metrics[f"{layer}.{stat}"] = (value, UNITS.get(stat, "count"), f"{ops} ops")
    rows = tracer.counts["conformal.calibration_scores", "rows"]
    metrics["conformal.calibration_rows_per_op"] = (rows / ops, "rows/op", f"{ops} ops")
    overhead = (busy_ns["traced"] / busy_ns["plain"] - 1.0) * 100.0
    metrics["trace.overhead_pct"] = (overhead, "%", f"{ops} ops each way")

    failures = {
        f"{mode}:{i}": reason
        for mode, check in checks.items()
        for i, reason in {**check.failures(), **errors[mode]}.items()
    }
    summary = {
        "calls": 2 * wl.distinct,
        "attempted": 2 * ops,
        "failed": len(failures) * wl.ops_per_call,
        "failures": failures,
        "inclusive_ms_per_op": {k: v["incl_ns"] / 1e6 / ops for k, v in sorted(totals.items())},
        "dominant_layer": dominant_layer(totals),
        "missing_layers": tracer.missing,
        "missing_names": tracer.missing_sites,
        "spans": tracer.spans,
        "windows": windows,
    }
    return metrics, summary


# ---------------------------------------------------------------- output


def write_spans(path, spans) -> None:
    with gzip.open(path, "wt") as f:
        f.write("layer,start_ns,end_ns,parent,op\n")
        for layer, start, end, parent, op in spans:
            f.write(f"{layer},{start},{end},{parent},{op}\n")


def main(argv=None) -> int:
    load_program()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    wl = workloads.WORKLOADS[args.workload]
    reference = workloads.load_reference()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    record.update(machine_record())
    record["reference_loop_ms_start"] = reference_loop_ms()
    steal0, t0 = steal_s(), perf_counter()
    if args.trace:
        metrics, summary = traced_run(wl, args.seed, reference)
    else:
        metrics, summary = timed_run(wl, args.seed, args.seconds, reference)
    steal1 = steal_s()
    record["reference_loop_ms_end"] = reference_loop_ms()
    spans = summary.pop("spans", None)
    summary.pop("windows", None)
    failures = summary.pop("failures")
    record.update(
        wall_s=perf_counter() - t0,
        steal_s=None if steal0 is None or steal1 is None else steal1 - steal0,
        ops_per_call=wl.ops_per_call,
        distinct_calls=wl.distinct,
        failures={str(k): v for k, v in list(failures.items())[:10]},
        **summary,
    )

    print(f"{args.workload}  seed={args.seed}  trace={args.trace}")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {unit:<8} ({samples})")
    for name, (value, unit, samples) in summary.get("report_only", {}).items():
        print(f"  {name + ' (report only)':<48} {value:>14.6g} {unit:<8} ({samples})")
    during = record.get("reference_loop_ms_during", [])
    for kernel in ("large", "small"):
        line = f"  reference loop {kernel} (ms, record only): start {record['reference_loop_ms_start'][kernel]:.3f}"
        if during:
            values = [probe[kernel] for probe in during]
            line += f", {len(values)} probes during {min(values):.3f}..{max(values):.3f}"
        print(line + f", end {record['reference_loop_ms_end'][kernel]:.3f}")
    print("record " + json.dumps(record))

    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    values = {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}
    with open(f"{stem}.json", "w") as f:
        json.dump({"record": record, "metrics": values}, f, indent=1)
    if spans is not None:
        write_spans(f"{stem}-spans.csv.gz", spans)

    result = {"correct": summary["failed"] == 0, "attempted": summary["attempted"], "failed": summary["failed"]}
    print(json.dumps({**result, "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
