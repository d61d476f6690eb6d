"""Data-generating processes and the Monte-Carlo coverage harness.

Five scenarios:

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
  between the two windows.
* ``unif-compare``: the s2 response with shift N(1, 4) and 200 test
  points per replication, scored with the absolute residual around the
  true conditional mean; ``compare_uniform`` reruns the same generated
  data and the setup's GPS with a uniform numerator (equivalently,
  unstabilized 1/gps weights) for the variability comparison.

Setups mirror the outcome/weight grid of the coverage study: "oracle"
outcome models use the true conditional distribution; "learned" outcome
models are linear pinball fits on deliberately curvature-free bases (so
the unadjusted setup shows the undercoverage the conformal step
repairs). "Oracle weights" are a correctly specified Gaussian GPS fit
by OLS (true truncated-Normal densities in the truncated scenarios);
"estimated weights" are a BIC-selected Gaussian mixture, linear in the
raw covariates.

The study threshold is the weighted quantile of the calibration scores
alone (zero test-point mass, ``test_atom=False``), which reproduces the
published operating characteristics of these designs: the heavy right
tail of the weight ratio under the s1/s2 designs otherwise hands a few
test points enough mass to blow up the interval, inflating mean length
and coverage beyond the reported tables. The conformal interval API
always includes the test-point mass and carries the finite-sample
guarantee; pass ``test_atom=True`` to run the studies that way.

Intervals with an infinite threshold (possible only with the test atom)
are counted as covering but excluded from mean-length aggregation; the
count is reported in ``SimResult.infinite_intervals``. Lengths are
means over test points, then averaged across replications, with the
Monte-Carlo SE the standard deviation of per-replication means over
sqrt(replications).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assignment import (
    NormalAssignment,
    TruncatedNormalAssignment,
    UniformAssignment,
    WeightConfig,
    stabilized_weight,
)
from .conformal import ConformalConfig, WeightedScores, calibration_scores, score_interval
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

SCENARIO_IDS = ("s1", "s2", "trunc-homo", "trunc-hetero", "unif-compare")
SETUPS = (
    "oracle-oracle",
    "learned-outcome-oracle-weights",
    "oracle-outcome-estimated-weights",
    "learned-learned",
    "unadjusted",
)

RESPONSE_SD = 3.0
S12_TREATMENT_VAR = 20.0
S12_SHIFT = NormalParams(1.0, 0.5)
UNIF_COMPARE_SHIFT = NormalParams(1.0, 4.0)
TRUNC_BOUNDS = (0.5, 5.0)
TRUNC_SHIFT = TruncatedNormalParams(2.0, 0.8, 1.0, 5.0)
TRUNC_OFFSET = 0.001


@dataclass(frozen=True)
class Scenario:
    id: str
    n: int
    n_test: int
    alpha: float
    setup: str = "oracle-oracle"

    def __post_init__(self):
        if self.id not in SCENARIO_IDS:
            raise ValueError(f"unknown scenario {self.id!r}")
        if self.setup not in SETUPS:
            raise ValueError(f"unknown setup {self.setup!r}")
        if self.n < 20:
            raise ValueError("scenario needs n >= 20")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly inside (0, 1)")
        if self.id in ("trunc-homo", "trunc-hetero") and self.setup != "learned-outcome-oracle-weights":
            raise ValueError(
                "truncated scenarios run the fixed configuration "
                "'learned-outcome-oracle-weights' (correctly specified quantile "
                "regression with true-density weights)"
            )


def make_scenario(
    scenario_id: str,
    setup: str | None = None,
    n: int | None = None,
    n_test: int | None = None,
    alpha: float | None = None,
) -> Scenario:
    """Scenario with the coverage-study defaults filled in."""
    if scenario_id in ("s1", "s2"):
        defaults = dict(n=1000, n_test=10, alpha=0.1, setup="oracle-oracle")
    elif scenario_id in ("trunc-homo", "trunc-hetero"):
        defaults = dict(n=10000, n_test=10, alpha=0.05, setup="learned-outcome-oracle-weights")
    elif scenario_id == "unif-compare":
        defaults = dict(n=1000, n_test=200, alpha=0.1, setup="oracle-outcome-estimated-weights")
    else:
        raise ValueError(f"unknown scenario {scenario_id!r}")
    if setup is not None:
        defaults["setup"] = setup
    if n is not None:
        defaults["n"] = n
    if n_test is not None:
        defaults["n_test"] = n_test
    if alpha is not None:
        defaults["alpha"] = alpha
    return Scenario(id=scenario_id, **defaults)


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


def s12_treatment_mean(x: np.ndarray) -> np.ndarray:
    return x[:, 0] - x[:, 1] ** 2 + 0.5 * x[:, 2]


def s1_response_mean(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    x1, x2 = x[:, 0], x[:, 1]
    return x1 + x2 + t + x1**2 + x2**2 + t**2 + x1 * t + x2 * t + x1 * x2


def s2_response_mean(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    return x[:, 0] + 2.0 * x[:, 1] + t + 5.0 * x[:, 0] ** 2


def trunc_response_mean(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    return 3.0 * x[:, 0] + t + x[:, 0] * t


def _response_mean_fn(scenario_id: str):
    if scenario_id == "s1":
        return s1_response_mean
    if scenario_id in ("s2", "unif-compare"):
        return s2_response_mean
    return trunc_response_mean


def _trunc_sd(scenario_id: str, x: np.ndarray) -> np.ndarray:
    if scenario_id == "trunc-homo":
        return np.ones(len(x))
    return np.abs(x[:, 0])  # heteroskedastic: variance X^2


def generate(scenario: Scenario, rng: Rng) -> tuple[Dataset, TestPoints]:
    """Observed data from P_X x P_{T|X} x P_{Y|X,T}; test points from the
    scenario's shifted treatment distribution with potential outcomes
    drawn at the shifted treatment."""
    gen = rng.gen
    n, m = scenario.n, scenario.n_test
    mean_fn = _response_mean_fn(scenario.id)

    if scenario.id in ("s1", "s2", "unif-compare"):
        x = np.column_stack(
            [gen.normal(1.0, 1.0, n), gen.normal(1.0, 1.0, n), gen.normal(4.0, 1.0, n)]
        )
        t = s12_treatment_mean(x) + math.sqrt(S12_TREATMENT_VAR) * gen.normal(size=n)
        y = mean_fn(x, t) + RESPONSE_SD * gen.normal(size=n)
        shift = UNIF_COMPARE_SHIFT if scenario.id == "unif-compare" else S12_SHIFT
        xs = np.column_stack(
            [gen.normal(1.0, 1.0, m), gen.normal(1.0, 1.0, m), gen.normal(4.0, 1.0, m)]
        )
        ts = shift.mean + shift.sd * gen.normal(size=m)
        ys = mean_fn(xs, ts) + RESPONSE_SD * gen.normal(size=m)
        return Dataset(y, t, x), TestPoints(xs, ts, ys)

    # truncated scenarios
    lo, hi = TRUNC_BOUNDS
    x = gen.normal(0.0, 1.0, n)[:, None]
    t = _truncated_normal_transform(
        x[:, 0] ** 2 + 1.0, _trunc_sd(scenario.id, x), lo, hi, gen.random(n)
    )
    y = mean_fn(x, t) + RESPONSE_SD * gen.normal(size=n)
    xs = gen.normal(0.0, 1.0, m)[:, None]
    ts = _truncated_normal_transform(
        np.full(m, TRUNC_SHIFT.mean),
        np.full(m, TRUNC_SHIFT.sd),
        TRUNC_SHIFT.lower,
        TRUNC_SHIFT.upper,
        gen.random(m),
    )
    ys = mean_fn(xs, ts) + RESPONSE_SD * gen.normal(size=m)
    return Dataset(y, t, x), TestPoints(xs, ts, ys)


def _s12_gps_basis(x: np.ndarray) -> np.ndarray:
    # correctly specified mean basis for T | X
    return np.column_stack([x[:, 0], x[:, 1] ** 2, x[:, 2]])


def _learned_basis(scenario_id: str):
    """Curvature-free quantile-regression bases standing in for a flexible
    learner; s2 omits the X1^2 term on purpose."""
    if scenario_id == "s1":
        return lambda x, t: np.column_stack([np.ones(len(t)), x, t])
    if scenario_id == "s2":
        return lambda x, t: np.column_stack([np.ones(len(t)), x[:, 0], x[:, 1], t])
    # truncated scenarios: the correctly specified basis
    return lambda x, t: np.column_stack([np.ones(len(t)), x[:, 0], t, x[:, 0] * t])


def _trunc_oracle_gps(scenario_id: str) -> CallableGps:
    lo, hi = TRUNC_BOUNDS

    def density(t, x):
        mean = x[:, 0] ** 2 + 1.0
        sd = _trunc_sd(scenario_id, x)
        return np.exp(_truncated_normal_logpdf_core(t, mean, sd, lo, hi))

    return CallableGps(fn=density)


def _fit_outcome(scenario: Scenario, data: Dataset, sp, levels) -> object:
    if scenario.setup in ("oracle-oracle", "oracle-outcome-estimated-weights"):
        return OracleQuantileModel(
            mean_fn=_response_mean_fn(scenario.id),
            variance=RESPONSE_SD**2,
            levels=levels,
        )
    basis = _learned_basis(scenario.id)
    coefs = {
        level: fit_linear_pinball(data, sp.train, level, basis) for level in levels
    }
    return LinearPinballModel(basis=basis, coefs=coefs, levels=levels)


def _fit_gps(scenario: Scenario, data: Dataset, sp, rng: Rng):
    if scenario.id in ("trunc-homo", "trunc-hetero"):
        return _trunc_oracle_gps(scenario.id)
    if scenario.setup in ("oracle-oracle", "learned-outcome-oracle-weights"):
        return fit_ols_gaussian(data, sp.train, basis=_s12_gps_basis)
    # estimated weights: mixture with component means linear in the raw covariates
    model, _ = fit_gaussian_mixture(data, sp.train, max_components=2, rng=rng)
    return model


def _shift_assignment(scenario: Scenario):
    if scenario.id in ("trunc-homo", "trunc-hetero"):
        return TruncatedNormalAssignment(TRUNC_SHIFT)
    if scenario.id == "unif-compare":
        return NormalAssignment(UNIF_COMPARE_SHIFT)
    return NormalAssignment(S12_SHIFT)


def _weight_cfg(scenario: Scenario) -> WeightConfig:
    if scenario.id in ("trunc-homo", "trunc-hetero"):
        return WeightConfig(offset=TRUNC_OFFSET)
    return WeightConfig()


def _levels(scenario: Scenario) -> tuple[float, float]:
    return (scenario.alpha / 2.0, 1.0 - scenario.alpha / 2.0)


def _prelude(scenario: Scenario, rng: Rng):
    """Generate, split 50/50 and fit the setup's models on the training
    half: the score configuration, the outcome model and the GPS (None
    for the unadjusted setup, which uses no weights)."""
    data, test = generate(scenario, rng)
    sp = split(data, 0.5, rng)
    if scenario.id == "unif-compare":
        cfg = ConformalConfig(scenario.alpha, "absolute-residual")
        model = OracleQuantileModel(mean_fn=_response_mean_fn(scenario.id), variance=RESPONSE_SD**2)
    else:
        cfg = ConformalConfig(scenario.alpha, "cqr")
        model = _fit_outcome(scenario, data, sp, _levels(scenario))
    gps = None if scenario.setup == "unadjusted" else _fit_gps(scenario, data, sp, rng)
    return data, sp, test, cfg, model, gps


def _thresholds(scenario, h, gps, model, cfg, data, sp, test, test_atom: bool) -> np.ndarray:
    """Per-test-point thresholds from one calibration.

    With ``test_atom`` each test point contributes its own weight as an
    infinity atom (the guaranteed construction); without it the
    threshold is the plain weighted quantile of the calibration scores,
    i.e. the same query with zero test mass.
    """
    wcfg = _weight_cfg(scenario)
    scores = calibration_scores(model, cfg, data, sp.cal)
    weights = stabilized_weight(h, gps, wcfg, data.t[sp.cal], data.x[sp.cal])
    w_new = stabilized_weight(h, gps, wcfg, test.t, test.x) if test_atom else np.zeros(test.n)
    return WeightedScores(scores, weights).thresholds(w_new, cfg.alpha)


def _evaluate(model, cfg, test, eta) -> tuple[np.ndarray, np.ndarray]:
    """Per-test-point coverage indicators and interval lengths."""
    lower, upper = score_interval(model, cfg, test.x, test.t, eta)
    return (lower <= test.y) & (test.y <= upper), upper - lower


def _replicate(scenario: Scenario, rng: Rng, test_atom: bool) -> tuple[float, float, int]:
    data, sp, test, cfg, model, gps = _prelude(scenario, rng)
    if gps is None:
        eta = np.zeros(test.n)
    else:
        h = _shift_assignment(scenario)
        eta = _thresholds(scenario, h, gps, model, cfg, data, sp, test, test_atom)
    return _summarize_rep(*_evaluate(model, cfg, test, eta))


def _summarize_rep(covered: np.ndarray, lengths: np.ndarray) -> tuple[float, float, int]:
    finite = np.isfinite(lengths)
    n_inf = int((~finite).sum())
    mean_len = float(lengths[finite].mean()) if finite.any() else math.nan
    return float(covered.mean()), mean_len, n_inf


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
        length_se=float(lens_ok.std(ddof=1) / math.sqrt(lens_ok.size)) if lens_ok.size > 1 else math.nan,
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
    docstring. The default reproduces the published study tables."""
    if replications < 10:
        raise ValueError("need at least 10 replications")
    rows = [_replicate(scenario, r, test_atom) for r in rng.spawn(replications)]
    return _aggregate(rows, replications)


def _replicate_compare(scenario: Scenario, rng: Rng, test_atom: bool):
    data, sp, test, cfg, model, gps = _prelude(scenario, rng)
    # uniform numerator over the assignment's effective support (+-6 sd,
    # all but ~2e-9 of its mass); the flat numerator stops damping the
    # 1/gps tails, which is exactly the variability being compared
    shift = UNIF_COMPARE_SHIFT
    h_unif = UniformAssignment(shift.mean - 6.0 * shift.sd, shift.mean + 6.0 * shift.sd)
    out = []
    for h in (_shift_assignment(scenario), h_unif):
        eta = _thresholds(scenario, h, gps, model, cfg, data, sp, test, test_atom)
        out.append(_summarize_rep(*_evaluate(model, cfg, test, eta)))
    return out[0], out[1]


def compare_uniform(
    scenario: Scenario,
    replications: int,
    rng: Rng,
    test_atom: bool = False,
) -> UniformComparison:
    """Run the shifted-numerator and uniform-numerator weightings on
    identical generated data and report both studies.

    The uniform numerator spans the observed and test treatments, which
    (by scale invariance of the weighted quantile) is the same as using
    unstabilized 1/gps weights.
    """
    if scenario.id != "unif-compare":
        raise ValueError("compare_uniform runs the 'unif-compare' scenario")
    if scenario.setup == "unadjusted":
        raise ValueError("compare_uniform compares weightings; the unadjusted setup has none")
    if replications < 10:
        raise ValueError("need at least 10 replications")
    rows = [_replicate_compare(scenario, r, test_atom) for r in rng.spawn(replications)]
    ipb = _aggregate([r[0] for r in rows], replications)
    unif = _aggregate([r[1] for r in rows], replications)
    ipb_lens = np.array([r[0][1] for r in rows])
    unif_lens = np.array([r[1][1] for r in rows])
    return UniformComparison(
        ipb=ipb,
        uniform=unif,
        ipb_length_sd=float(np.nanstd(ipb_lens, ddof=1)),
        uniform_length_sd=float(np.nanstd(unif_lens, ddof=1)),
    )
