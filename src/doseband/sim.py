"""Data-generating processes and the Monte-Carlo coverage harness.

Five scenarios, each one record of ``_DESIGNS``, the one place a design
is defined: its study defaults, response mean, shifted assignment,
weight offset, learned basis, treatment family and the setups it runs.
A setup its record does not list is rejected.

* ``s1`` / ``s2``: three Gaussian covariates, treatment
  T | X ~ N(X1 - X2^2 + 0.5*X3, 20), response noise variance 9; the
  response means differ (s1 is fully quadratic with interactions, s2 is
  X1 + 2*X2 + t + 5*X1^2). Test treatments are drawn from N(1, 0.5).
  Both scenarios consume identical random streams, so with the same
  seed they share covariates, treatments and noise, and oracle-model
  results coincide exactly.
* ``trunc-homo`` / ``trunc-hetero``: one standard-Normal covariate,
  T | X truncated-Normal(mean X^2 + 1, variance 1 or X^2) on [0.5, 5],
  response mean 3X + T + X*T with noise variance 9 (the variance is not
  stated alongside the design; 9 matches the reported interval
  lengths). Test treatments are truncated-Normal(2, 0.8) on [1, 5]; the
  weight denominator carries a 0.001 offset because positivity can fail
  between the two windows. They run the one setup
  "learned-outcome-oracle-weights" (correctly specified quantile
  regression with true-density weights).
* ``unif-compare``: the s2 response with shift N(1, 4) and 200 test
  points per replication, scored with the absolute residual around the
  true conditional mean, so it runs the two oracle-outcome setups that
  weight; ``compare_uniform`` reruns the same generated
  data and the setup's GPS with a uniform numerator on the shift's
  mean +- 6 sd for the variability comparison.

Setups mirror the outcome/weight grid of the coverage study: "oracle"
outcome models use the true conditional distribution; "learned" outcome
models are linear pinball fits on deliberately curvature-free bases (so
the unadjusted setup shows the undercoverage the conformal step
repairs). "Oracle weights" are a correctly specified Gaussian GPS fit
by OLS (true truncated-Normal densities in the truncated scenarios);
"estimated weights" are a BIC-selected Gaussian mixture, linear in the
raw covariates.

Each replication builds one ``conformal.Calibration`` and queries all
its test points with ``Calibration.bounds``, once per numerator. The
study threshold is the weighted quantile of the calibration scores
alone (zero test-point mass, ``test_atom=False``), which reproduces the
published operating characteristics of these designs: the heavy right
tail of the weight ratio under the s1/s2 designs otherwise hands a few
test points enough mass to blow up the interval, inflating mean length
and coverage beyond the reported tables. ``weighted_interval`` and
``prediction_band`` always include the test-point mass and carry the
finite-sample guarantee; pass ``test_atom=True`` to run the studies
that way, through the same query.

Intervals with an infinite threshold (possible only with the test atom)
are counted as covering but excluded from mean-length aggregation; the
count is reported in ``SimResult.infinite_intervals``. Lengths are
means over test points, then averaged across replications, with the
Monte-Carlo SE the standard deviation of per-replication means over
sqrt(replications).

Where replications run: a study runs its first two replications in the
calling process and times them. When the faster of the two, times the
replications left, exceeds 50 ms, the rest go in contiguous chunks to a
pool of worker processes, one chunk per usable CPU, and their rows come
back in order; otherwise they run in the calling process too. The pool
is forked on first use and kept for every later study of the process.
Each replication draws its own spawned stream, so the rows are the same
bits either way. Module state patched after the pool starts (a
monkeypatched function, say) is not seen by its workers.
"""

from __future__ import annotations

import math
import os
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .assignment import UniformAssignment
from .conformal import Calibration, ConformalConfig, score_interval
from .data import Dataset, split
from .dist import (
    NormalParams,
    Rng,
    TruncatedNormalParams,
    _truncated_normal_logpdf_core,
    _truncated_normal_transform,
)
from .outcome import LinearPinballModel, OracleQuantileModel, fit_linear_pinball
from .propensity import CallableGps, fit_gaussian_mixture, fit_ols_gaussian

__all__ = [
    "SCENARIO_IDS",
    "SETUPS",
    "Scenario",
    "TestPoints",
    "SimResult",
    "UniformComparison",
    "make_scenario",
    "generate",
    "run_study",
    "compare_uniform",
    "s12_treatment_mean",
    "s1_response_mean",
    "s2_response_mean",
    "trunc_response_mean",
]

SETUPS = (
    "oracle-oracle",
    "learned-outcome-oracle-weights",
    "oracle-outcome-estimated-weights",
    "learned-learned",
    "unadjusted",
)

RESPONSE_SD = 3.0
S12_TREATMENT_VAR = 20.0
TRUNC_BOUNDS = (0.5, 5.0)

# a study sends its replications after the first two to the worker pool
# when their serial estimate exceeds this many seconds: starting the pool
# and its first tasks costs about 20 ms, and every study pays for sending
# its tasks and returning the rows
_POOL_MIN_S = 0.05
_pool = None  # (pid, executor, workers) of the process that created the pool


def s12_treatment_mean(x: np.ndarray) -> np.ndarray:
    return x[:, 0] - x[:, 1] ** 2 + 0.5 * x[:, 2]


def s1_response_mean(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    x1, x2 = x[:, 0], x[:, 1]
    return x1 + x2 + t + x1**2 + x2**2 + t**2 + x1 * t + x2 * t + x1 * x2


def s2_response_mean(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    return x[:, 0] + 2.0 * x[:, 1] + t + 5.0 * x[:, 0] ** 2


def trunc_response_mean(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    return 3.0 * x[:, 0] + t + x[:, 0] * t


@dataclass(frozen=True)
class _Design:
    """Everything a scenario id fixes.

    ``shift`` is both the numerator h of the weights and the law the
    test treatments are drawn from. ``trunc_sd`` maps X to the sd of
    the truncated-Normal T | X; None selects the Gaussian family of
    s1/s2. ``basis`` is the learned setups' pinball basis, and
    ``offset`` the weight offset added to the GPS denominator.
    """

    n: int
    n_test: int
    alpha: float
    setup: str
    setups: tuple[str, ...]
    response_mean: Callable[[np.ndarray, np.ndarray], np.ndarray]
    shift: NormalParams | TruncatedNormalParams
    score: str = "cqr"
    basis: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    trunc_sd: Callable[[np.ndarray], np.ndarray] | None = None
    offset: float = 0.0


# the learned bases are curvature-free, standing in for a flexible learner
# (s2 omits the X1^2 term on purpose); the truncated designs' basis is the
# correctly specified one
_S12 = dict(
    n=1000, n_test=10, alpha=0.1, setup="oracle-oracle", setups=SETUPS,
    shift=NormalParams(1.0, 0.5),
)
_TRUNC = dict(
    n=10000, n_test=10, alpha=0.05, setup="learned-outcome-oracle-weights",
    setups=("learned-outcome-oracle-weights",), response_mean=trunc_response_mean,
    shift=TruncatedNormalParams(2.0, 0.8, 1.0, 5.0),
    basis=lambda x, t: np.column_stack([np.ones(len(t)), x[:, 0], t, x[:, 0] * t]),
    offset=0.001,
)
_DESIGNS = {
    "s1": _Design(
        **_S12, response_mean=s1_response_mean,
        basis=lambda x, t: np.column_stack([np.ones(len(t)), x, t]),
    ),
    "s2": _Design(
        **_S12, response_mean=s2_response_mean,
        basis=lambda x, t: np.column_stack([np.ones(len(t)), x[:, 0], x[:, 1], t]),
    ),
    "trunc-homo": _Design(**_TRUNC, trunc_sd=lambda x: np.ones(len(x))),
    "trunc-hetero": _Design(**_TRUNC, trunc_sd=lambda x: np.abs(x[:, 0])),  # variance X^2
    "unif-compare": _Design(
        n=1000, n_test=200, alpha=0.1, setup="oracle-outcome-estimated-weights",
        setups=("oracle-oracle", "oracle-outcome-estimated-weights"), response_mean=s2_response_mean,
        shift=NormalParams(1.0, 4.0), score="absolute-residual",
    ),
}
SCENARIO_IDS = tuple(_DESIGNS)


@dataclass(frozen=True)
class Scenario:
    id: str
    n: int
    n_test: int
    alpha: float
    setup: str = "oracle-oracle"

    def __post_init__(self):
        if self.id not in _DESIGNS:
            raise ValueError(f"unknown scenario {self.id!r}")
        if self.setup not in SETUPS:
            raise ValueError(f"unknown setup {self.setup!r}")
        if self.n < 20:
            raise ValueError("scenario needs n >= 20")
        if self.n_test < 1:
            raise ValueError("scenario needs n_test >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly inside (0, 1)")
        setups = _DESIGNS[self.id].setups
        if self.setup not in setups:
            raise ValueError(f"scenario {self.id!r} does not run setup {self.setup!r}; it runs {setups}")


def make_scenario(
    scenario_id: str,
    setup: str | None = None,
    n: int | None = None,
    n_test: int | None = None,
    alpha: float | None = None,
) -> Scenario:
    """Scenario with the coverage-study defaults filled in."""
    if scenario_id not in _DESIGNS:
        raise ValueError(f"unknown scenario {scenario_id!r}")
    d = _DESIGNS[scenario_id]
    return Scenario(
        scenario_id,
        d.n if n is None else n,
        d.n_test if n_test is None else n_test,
        d.alpha if alpha is None else alpha,
        d.setup if setup is None else setup,
    )


@dataclass(frozen=True)
class TestPoints:
    """Out-of-sample draws under the shifted treatment distribution."""

    x: np.ndarray
    t: np.ndarray
    y: np.ndarray

    @property
    def n(self) -> int:
        return len(self.t)


@dataclass(frozen=True)
class SimResult:
    coverage_mean: float
    coverage_se: float
    length_mean: float
    length_se: float
    replications: int
    infinite_intervals: int = 0


@dataclass(frozen=True)
class UniformComparison:
    ipb: SimResult
    uniform: SimResult
    ipb_length_sd: float
    uniform_length_sd: float


def generate(scenario: Scenario, rng: Rng) -> tuple[Dataset, TestPoints]:
    """Observed data from P_X x P_{T|X} x P_{Y|X,T}; test points from the
    scenario's shifted treatment distribution with potential outcomes
    drawn at the shifted treatment."""
    d = _DESIGNS[scenario.id]
    gen = rng.gen
    n, m = scenario.n, scenario.n_test
    shift = d.shift

    if d.trunc_sd is None:
        def covariates(k):
            return np.column_stack([gen.normal(1.0, 1.0, k), gen.normal(1.0, 1.0, k), gen.normal(4.0, 1.0, k)])

        x = covariates(n)
        t = s12_treatment_mean(x) + math.sqrt(S12_TREATMENT_VAR) * gen.normal(size=n)
        y = d.response_mean(x, t) + RESPONSE_SD * gen.normal(size=n)
        xs = covariates(m)
        ts = shift.mean + shift.sd * gen.normal(size=m)
    else:
        lo, hi = TRUNC_BOUNDS
        x = gen.normal(0.0, 1.0, n)[:, None]
        t = _truncated_normal_transform(x[:, 0] ** 2 + 1.0, d.trunc_sd(x), lo, hi, gen.random(n))
        y = d.response_mean(x, t) + RESPONSE_SD * gen.normal(size=n)
        xs = gen.normal(0.0, 1.0, m)[:, None]
        ts = _truncated_normal_transform(
            np.full(m, shift.mean), np.full(m, shift.sd), shift.lower, shift.upper, gen.random(m)
        )
    ys = d.response_mean(xs, ts) + RESPONSE_SD * gen.normal(size=m)
    return Dataset(y, t, x), TestPoints(xs, ts, ys)


def _s12_gps_basis(x: np.ndarray) -> np.ndarray:
    # correctly specified mean basis for T | X
    return np.column_stack([x[:, 0], x[:, 1] ** 2, x[:, 2]])


def _fit_gps(scenario: Scenario, data: Dataset, sp, rng: Rng):
    sd = _DESIGNS[scenario.id].trunc_sd
    if sd is not None:  # the true truncated-Normal density
        lo, hi = TRUNC_BOUNDS
        return CallableGps(
            fn=lambda t, x: np.exp(_truncated_normal_logpdf_core(t, x[:, 0] ** 2 + 1.0, sd(x), lo, hi))
        )
    if scenario.setup in ("oracle-oracle", "learned-outcome-oracle-weights"):
        return fit_ols_gaussian(data, sp.train, basis=_s12_gps_basis)
    # estimated weights: mixture with component means linear in the raw covariates
    model, _ = fit_gaussian_mixture(data, sp.train, max_components=2, rng=rng)
    return model


def _replicate(scenario: Scenario, rng: Rng, test_atom: bool, numerators) -> list[tuple[float, float, int]]:
    """One replication: generate, split 50/50 and fit the setup's models on
    the training half; then, per numerator h, the coverage, the mean finite
    length and the infinite-interval count of the intervals at the shifted
    test points.

    With ``test_atom`` each test point contributes its own weight as an
    infinity atom (the guaranteed construction); without it the
    threshold is the plain weighted quantile of the calibration scores,
    i.e. the same query with zero test mass.
    """
    d = _DESIGNS[scenario.id]
    data, test = generate(scenario, rng)
    sp = split(data, 0.5, rng)
    cfg = ConformalConfig(scenario.alpha, d.score, d.offset)
    levels = (scenario.alpha / 2.0, 1.0 - scenario.alpha / 2.0)
    if scenario.setup in ("oracle-oracle", "oracle-outcome-estimated-weights"):
        model = OracleQuantileModel(mean_fn=d.response_mean, variance=RESPONSE_SD**2, levels=levels)
    else:
        coefs = {level: fit_linear_pinball(data, sp.train, level, d.basis) for level in levels}
        model = LinearPinballModel(basis=d.basis, coefs=coefs, levels=levels)
    calib = None
    if scenario.setup != "unadjusted":
        calib = Calibration(data, sp, model, _fit_gps(scenario, data, sp, rng), cfg)
    owner = np.zeros(test.n, dtype=np.intp)
    rows = []
    for h in numerators:
        if calib is None:  # unadjusted: the outcome model's own interval
            lower, upper = score_interval(model, cfg, test.x, test.t, 0.0)
        else:
            lower, upper, _, _ = calib.bounds(test.x, test.t, [h], owner, test_atom)
        lengths = upper - lower
        finite = np.isfinite(lengths)
        mean_len = float(lengths[finite].mean()) if finite.any() else math.nan
        covered = (lower <= test.y) & (test.y <= upper)
        rows.append((float(covered.mean()), mean_len, int((~finite).sum())))
    return rows


def _replicate_all(scenario: Scenario, rngs: list[Rng], test_atom: bool, numerators) -> list[list[tuple]]:
    """The rows of consecutive replications, one list per replication."""
    return [_replicate(scenario, r, test_atom, numerators) for r in rngs]


def _executor():
    """This process's worker pool and its size, the pool created on first
    use; None where a study must run serially: fewer than two usable
    CPUs; not Linux; Python 3.12 or later, where ``os.fork`` warns in a
    process with threads and numpy's BLAS starts one at import; another
    thread running when the pool would be created; a daemonic process,
    which may not have children; a process other than the one that
    created the pool, such as a forked child.

    Workers are forked: ready in about 20 ms, where ``spawn`` and
    ``forkserver`` take over 0.5 s, which would land in a one-off
    study's time. They exit with the interpreter, through the executor's
    own exit handler.
    """
    global _pool
    if _pool is not None:
        pid, pool, workers = _pool
        return (pool, workers) if pid == os.getpid() else None
    if not sys.platform.startswith("linux") or sys.version_info >= (3, 12):
        return None
    workers = len(os.sched_getaffinity(0))
    if workers < 2:
        return None
    # imported here: at module level they would add to every import of sim
    import multiprocessing
    import threading
    from concurrent.futures import ProcessPoolExecutor

    if threading.active_count() > 1 or multiprocessing.current_process().daemon:
        return None
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    _pool = (os.getpid(), pool, workers)
    return pool, workers


def _pooled(pool, workers: int, scenario: Scenario, rngs: list[Rng], test_atom: bool, numerators) -> list:
    """The rows of ``rngs``' replications, run in contiguous chunks, one
    per worker, and returned in order.

    Every chunk is awaited before an error is raised, and the error
    raised is the earliest failing replication's, as in a serial run. A
    broken pool (a worker killed, say) is shut down and dropped, so the
    next study starts a new one.
    """
    from concurrent.futures.process import BrokenProcessPool

    global _pool
    step = -(-len(rngs) // workers)
    futures, errors = [], []
    try:
        for i in range(0, len(rngs), step):
            futures.append(pool.submit(_replicate_all, scenario, rngs[i : i + step], test_atom, numerators))
    except BrokenProcessPool as exc:
        errors.append(exc)
    errors = [f.exception() for f in futures] + errors
    if any(isinstance(e, BrokenProcessPool) for e in errors):
        _pool = None
        pool.shutdown()
    for e in errors:
        if e is not None:
            raise e
    return [rows for f in futures for rows in f.result()]


def _study(scenario: Scenario, replications: int, rng: Rng, test_atom: bool, numerators) -> list[tuple]:
    """Per numerator, its rows of every replication; the numerators share
    each replication's data and fits.

    The first two replications run here, timed, and the faster stands
    for the rest (a process's first replication pays one-time costs):
    the rest go to the worker pool when they would take longer than
    ``_POOL_MIN_S`` here."""
    if replications < 10:
        raise ValueError("need at least 10 replications")
    rngs = rng.spawn(replications)
    rows, seconds = [], []
    for r in rngs[:2]:
        start = time.perf_counter()
        rows.append(_replicate(scenario, r, test_atom, numerators))
        seconds.append(time.perf_counter() - start)
    pool = _executor() if min(seconds) * (replications - 2) > _POOL_MIN_S else None
    if pool is None:
        rows += _replicate_all(scenario, rngs[2:], test_atom, numerators)
    else:
        rows += _pooled(*pool, scenario, rngs[2:], test_atom, numerators)
    return list(zip(*rows))


def _length_sd(lens: np.ndarray) -> float:
    """SD of the finite per-replication mean lengths; NaN with fewer than two."""
    ok = lens[np.isfinite(lens)]
    return float(ok.std(ddof=1)) if ok.size > 1 else math.nan


def _aggregate(rows: list[tuple[float, float, int]], replications: int) -> SimResult:
    """Study summary over the replications' rows. Replications whose
    intervals were all infinite (mean length NaN) are left out of the
    length figures; when none is left the mean length is inf, and with
    fewer than two left its SE is NaN."""
    cov = np.array([r[0] for r in rows])
    lens = np.array([r[1] for r in rows])
    n_inf = int(sum(r[2] for r in rows))
    lens_ok = lens[np.isfinite(lens)]
    sqrt_r = math.sqrt(replications)
    return SimResult(
        coverage_mean=float(cov.mean()),
        coverage_se=float(cov.std(ddof=1) / sqrt_r),
        length_mean=float(lens_ok.mean()) if lens_ok.size else math.inf,
        length_se=_length_sd(lens) / math.sqrt(max(lens_ok.size, 1)),
        replications=replications,
        infinite_intervals=n_inf,
    )


def run_study(
    scenario: Scenario,
    replications: int,
    rng: Rng,
    test_atom: bool = False,
) -> SimResult:
    """Monte-Carlo coverage study: per replication, generate, split 50/50,
    fit the setup's models on the training half, and record coverage and
    length of the interval at each shifted test point.

    ``test_atom`` selects the threshold construction; see the module
    docstring. The default reproduces the published study tables.

    Replications after the first two run on the worker pool when they
    would take more than 50 ms here, with the same rows; see the module
    docstring.

    A learned setup whose pinball fit cannot be certified optimal raises
    ``outcome.PinballFitError``, which carries the best objective the fit
    reached; the study stops there rather than skip the replication. With
    the pool, every replication sent is awaited first, and the error
    raised is the earliest failing replication's, as in a serial run. A
    pool broken by a worker that died raises
    ``concurrent.futures.process.BrokenProcessPool``, and the next study
    starts a new pool."""
    (rows,) = _study(scenario, replications, rng, test_atom, [_DESIGNS[scenario.id].shift])
    return _aggregate(rows, replications)


def compare_uniform(
    scenario: Scenario,
    replications: int,
    rng: Rng,
    test_atom: bool = False,
) -> UniformComparison:
    """Run the shifted-numerator and uniform-numerator weightings on
    identical generated data and report both studies.

    The uniform numerator is flat on the shift's mean +- 6 sd, [-11, 13].
    Inside that window it gives the same threshold as unstabilized 1/gps
    weights (the weighted quantile is scale invariant). The observed
    treatments spread wider: 1.3-2.9% of them fall outside the window
    (``generate`` at ``Rng(0)``-``Rng(4)``: minimum -22.4, maximum 19.1),
    and those calibration points get weight 0, where 1/gps would weigh
    them.

    Replications run where ``run_study``'s do, with the same rows.
    """
    if scenario.id != "unif-compare":
        raise ValueError("compare_uniform runs the 'unif-compare' scenario")
    h = _DESIGNS[scenario.id].shift
    # flat over the shift's mean +- 6 sd (all but ~2e-9 of its mass, so
    # every test treatment in practice, but not every observed one); it
    # stops damping the 1/gps tails, which is the variability compared
    h_unif = UniformAssignment(h.mean - 6.0 * h.sd, h.mean + 6.0 * h.sd)
    ipb, unif = _study(scenario, replications, rng, test_atom, [h, h_unif])
    return UniformComparison(
        ipb=_aggregate(ipb, replications),
        uniform=_aggregate(unif, replications),
        ipb_length_sd=_length_sd(np.array([r[1] for r in ipb])),
        uniform_length_sd=_length_sd(np.array([r[1] for r in unif])),
    )
