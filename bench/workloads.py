"""The benchmark's four workloads and their output checks.

Each workload is the main cost of one doseband layer that the ROADMAP
plans to optimise, and barely touches the layers the others stress
(shares from the traced run; see README.md):

* ``gps-em``: ``fit_gaussian_mixture`` on fixed datasets, with the
  random EM restarts drawn from the workload seed. It is the fit that
  makes up about 94% of a ``run_study`` replication with estimated
  weights; on these datasets BIC selects its two-component fit.
* ``study-pinball``: ``run_study`` on trunc-homo (n = 10000). The linear
  pinball fit is about 88%; there is no EM.
* ``study-query``: ``run_study`` on s1 oracle-oracle with 200 test
  points. ``score_interval`` is about 90%: conformal's fixed-h,
  calibrate-once, query-many use.
* ``band``: ``prediction_band`` over 200 grid points with decile-midpoint
  numerators on a fitted fixture. ``stabilized_weight`` is about half:
  conformal's grid-varying-h use, with no fitting in the timed loop.

Every call uses the library defaults. The program sees only generated
inputs. A run cycles through a workload's ``distinct`` calls: call ``i``
repeats distinct call ``k = i % distinct``, whose inputs come from
``op_rng(s, k)`` under workload seed ``s``, so every run of a workload
with one seed does identical work. The cycles are kept short, a third
of a second to two seconds, so that the calls of a run sample the
whole run's host conditions evenly. Study calls are the longest, so
``study-pinball`` makes two distinct calls, whose work varies by up to
19% with the seed, and ``study-query`` one, whose work varies by 3%.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import numpy as np

from doseband import conformal, propensity, sim
from doseband.assignment import DecileMidpointAssignment, decile_boundaries
from doseband.data import Dataset, SplitIndices, split
from doseband.dist import Rng
from doseband.outcome import LinearPinballModel, fit_linear_pinball

DEFAULT_SEED = 15075  # the seed reference.json was recorded at
FIXTURE_SEED = 2511  # fixture data and every warm-up
EM_FIXTURES = 6  # datasets the EM workload fits
EM_ROWS = 1000
REPLICATIONS = 10  # run_study's minimum; one study call is 10 operations
BAND_GRID = 200
BAND_PROFILES = 4  # band operations cycle through this many covariate profiles
BAND_ALPHA = 0.1
BAND_LEVELS = (0.05, 0.95)
BAND_CHECK_STRIDE = 10  # reference.json keeps every 10th grid point of a band

# Outputs must match a reference within this tolerance. It admits a
# reordered floating-point sum and catches any change of behaviour.
REL_TOL = 1e-6
ABS_TOL = 1e-9
# At a seed without stored fingerprints a study call must land this close
# to the stored medians.
PLAUSIBLE_COVERAGE = 0.2  # absolute; at least 6 Monte-Carlo SEs on every study
PLAUSIBLE_LENGTH = (0.5, 2.0)  # factors of the median length
# At a seed without stored fingerprints an EM fit's parameters must lie
# this close to the stored ones, relative and absolute: EM stops within
# its convergence tolerance of the optimum, and restarts from other seeds
# stop elsewhere (up to 4e-4 apart over 25 seeds).
EM_PARAM_TOL = 1e-3

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def op_rng(seed: int, k: int) -> Rng:
    """The generator of distinct call k under workload seed ``seed``."""
    return Rng(seed).spawn(k + 1)[k]


def close(a, b) -> bool:
    return bool(np.allclose(a, b, rtol=REL_TOL, atol=ABS_TOL))


def load_reference() -> dict:
    with open(REFERENCE_PATH) as f:
        return json.load(f)


class Check:
    """Checks the outputs of a run.

    Call ``i`` repeats distinct call ``k = i % distinct``. Every repeat
    must give the output the first one gave, and after the loop
    ``verify(k, output)`` judges each distinct call once; a failed
    verdict fails every repeat of it.
    """

    def __init__(self, distinct: int, verify):
        self.distinct = distinct
        self.verify = verify
        self.first: dict[int, object] = {}
        self.ops: dict[int, list[int]] = {}
        self._failures: dict[int, str] = {}

    def add(self, i: int, fp) -> None:
        k = i % self.distinct
        self.ops.setdefault(k, []).append(i)
        if k not in self.first:
            self.first[k] = fp
        elif not matches(fp, self.first[k]):
            self._failures[i] = f"output differs from the earlier run of call {k}"

    def failures(self) -> dict[int, str]:
        out = dict(self._failures)
        for k, fp in self.first.items():
            reason = self.verify(k, fp)
            if reason is not None:
                out.update({i: reason for i in self.ops[k]})
        return out


def matches(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(close(a[key], b[key]) for key in a)
    return close(a, b)


@dataclass(frozen=True)
class StudyState:
    scenario: sim.Scenario
    seed: int


@dataclass(frozen=True)
class StudyWorkload:
    name: str
    scenario_args: dict
    warmup_args: dict  # a cheap run_study on the same code paths
    distinct: int  # distinct calls a run cycles through
    ops_per_call: int = REPLICATIONS

    def setup(self, seed: int) -> StudyState:
        sim.run_study(sim.make_scenario(**self.warmup_args), REPLICATIONS, Rng(FIXTURE_SEED))
        return StudyState(sim.make_scenario(**self.scenario_args), seed)

    def prepare(self, state: StudyState, i: int) -> Rng:
        return op_rng(state.seed, i % self.distinct)

    def call(self, state: StudyState, rng: Rng):
        return sim.run_study(state.scenario, REPLICATIONS, rng)

    def fingerprint(self, result) -> dict:
        return {
            "coverage_mean": result.coverage_mean,
            "length_mean": result.length_mean,
            "infinite_intervals": result.infinite_intervals,
        }

    def checker(self, state: StudyState, reference: dict) -> Check:
        """At the default seed each call must match its stored
        fingerprint; at any other seed it must land near the stored
        medians."""
        stored = reference[self.name]
        cov = median(fp["coverage_mean"] for fp in stored)
        length = median(fp["length_mean"] for fp in stored)
        lo, hi = PLAUSIBLE_LENGTH

        def verify(k: int, fp: dict) -> str | None:
            if state.seed == DEFAULT_SEED:
                return None if matches(fp, stored[k]) else f"call {k}: {fp} != reference {stored[k]}"
            if fp["infinite_intervals"] != 0:
                return f"call {k}: {fp['infinite_intervals']} infinite intervals"
            if not abs(fp["coverage_mean"] - cov) <= PLAUSIBLE_COVERAGE:
                return f"call {k}: coverage_mean {fp['coverage_mean']!r} far from {cov!r}"
            if not lo * length <= fp["length_mean"] <= hi * length:
                return f"call {k}: length_mean {fp['length_mean']!r} far from {length!r}"
            return None

        return Check(self.distinct, verify)


@dataclass(frozen=True)
class EmState:
    fixtures: list  # (Dataset, SplitIndices) pairs
    seed: int


def em_fixture(rng: Rng) -> tuple[Dataset, SplitIndices]:
    """s1 covariates (n = 1000, split 50/50) with a treatment drawn from
    two well-separated linear regressions on them, so that BIC selects
    the two-component fit, the part of an EM fit that takes nearly all
    its time."""
    gen = rng.gen
    n = EM_ROWS
    x = np.column_stack([gen.normal(1.0, 1.0, n), gen.normal(1.0, 1.0, n), gen.normal(4.0, 1.0, n)])
    second = gen.random(n) < 0.4
    t_first = -0.25 + 0.5 * x[:, 0] + 0.5 * x[:, 2] + 2.0 * gen.normal(size=n)
    t_second = 6.0 - 0.5 * x[:, 0] + x[:, 1] + gen.normal(size=n)
    data = Dataset(np.zeros(n), np.where(second, t_second, t_first), x)
    return data, split(data, 0.5, rng)


class EmWorkload:
    """The EM mixture GPS fit of a ``run_study`` replication with estimated
    weights, on fixed data.

    A replication's EM time varies threefold with its data, and a run
    has time for only a few dozen study fits, so drawing the data from
    the seed would let the seed decide the figure. The data are
    therefore fixed (``em_fixture``), and the seed draws the random EM
    restarts. Call ``k`` fits fixture ``k``.
    """

    name = "gps-em"
    ops_per_call = 1
    distinct = EM_FIXTURES

    def setup(self, seed: int) -> EmState:
        fixtures = [em_fixture(rng) for rng in Rng(FIXTURE_SEED).spawn(EM_FIXTURES)]
        state = EmState(fixtures, seed)
        self.call(state, (fixtures[0], Rng(FIXTURE_SEED)))  # untimed warm-up
        return state

    def prepare(self, state: EmState, i: int):
        k = i % self.distinct
        return state.fixtures[k], op_rng(state.seed, k)

    def call(self, state: EmState, inputs):
        (data, sp), rng = inputs
        return propensity.fit_gaussian_mixture(data, sp.train, max_components=2, rng=rng)

    def fingerprint(self, fit) -> dict:
        """The selected fit's report and parameters. The components are
        put in the order of their intercepts, because the restarts may
        find them in either order."""
        model, report = fit
        order = np.argsort(model.betas[:, 0])
        return {
            "n_components": report.n_components,
            "converged": report.converged,
            "log_likelihood": report.log_likelihood,
            "bic": report.bic,
            "mix_weights": model.mix_weights[order],
            "betas": model.betas[order],
            "variances": model.variances[order],
        }

    def checker(self, state: EmState, reference: dict) -> Check:
        """At the default seed each fit must match its stored fingerprint.
        At another seed the restarts differ, and EM stops anywhere within
        its convergence tolerance of the optimum, so the fit must select
        two converged components, reach a log-likelihood no worse than the
        stored one, and find parameters within ``EM_PARAM_TOL`` of the
        stored ones."""
        stored = reference[self.name]

        def verify(k: int, fp: dict) -> str | None:
            ref = stored[k]
            if state.seed == DEFAULT_SEED:
                return None if matches(fp, ref) else f"fixture {k}: {fp} != reference {ref}"
            if fp["n_components"] != 2 or not fp["converged"]:
                return f"fixture {k}: {fp['n_components']} components, converged {fp['converged']}"
            slack = ABS_TOL + REL_TOL * abs(ref["log_likelihood"])
            if not fp["log_likelihood"] >= ref["log_likelihood"] - slack:
                return f"fixture {k}: log-likelihood {fp['log_likelihood']!r} below {ref['log_likelihood']!r}"
            for key in ("mix_weights", "betas", "variances"):
                if not np.allclose(fp[key], ref[key], rtol=EM_PARAM_TOL, atol=EM_PARAM_TOL):
                    return f"fixture {k}: {key} {fp[key].tolist()} != reference {ref[key]}"
            return None

        return Check(self.distinct, verify)


@dataclass(frozen=True)
class BandState:
    data: object
    sp: object
    model: LinearPinballModel
    gps: object
    t_boundaries: np.ndarray
    cfg: conformal.ConformalConfig
    t_min: float
    t_max: float
    profiles: np.ndarray
    seed: int

    def h_factory(self, t: float) -> DecileMidpointAssignment:
        return DecileMidpointAssignment(self.t_boundaries, s2=4.0, t_star=t, k=0.5)


def _band_basis(x, t):
    return np.column_stack([np.ones(len(t)), x, t])


class BandWorkload:
    name = "band"
    ops_per_call = 1
    distinct = BAND_PROFILES

    def setup(self, seed: int) -> BandState:
        rng = Rng(FIXTURE_SEED)
        data, _ = sim.generate(sim.make_scenario("s1"), rng)
        sp = split(data, 0.5, rng)
        gps, _ = propensity.fit_gaussian_mixture(data, sp.train, max_components=2, rng=rng)
        coefs = {lv: fit_linear_pinball(data, sp.train, lv, _band_basis) for lv in BAND_LEVELS}
        t_min, t_max = np.percentile(data.t, [5.0, 95.0])
        _, profiles = sim.generate(sim.make_scenario("s1", n=20, n_test=BAND_PROFILES), Rng(seed))
        state = BandState(
            data=data,
            sp=sp,
            model=LinearPinballModel(basis=_band_basis, coefs=coefs, levels=BAND_LEVELS),
            gps=gps,
            t_boundaries=decile_boundaries(data.t[sp.train]),
            cfg=conformal.ConformalConfig(BAND_ALPHA, "cqr"),
            t_min=float(t_min),
            t_max=float(t_max),
            profiles=profiles.x,
            seed=seed,
        )
        self.call(state, state.profiles[0])  # untimed warm-up
        return state

    def prepare(self, state: BandState, i: int) -> np.ndarray:
        return state.profiles[i % BAND_PROFILES]

    def call(self, state: BandState, x_new: np.ndarray):
        return conformal.prediction_band(
            state.data, state.sp, state.model, state.gps, state.h_factory, state.cfg,
            x_new, state.t_min, state.t_max, BAND_GRID,
        )

    def fingerprint(self, band) -> np.ndarray:
        """(grid, 2) array of lower and upper bounds."""
        return np.array([(iv.lower, iv.upper) for iv in band.intervals])

    def checker(self, state: BandState, reference: dict) -> Check:
        """Each profile's band must match ``reference_band`` and, at the
        default seed, the bounds stored in reference.json."""
        stored = reference[self.name]

        def verify(k: int, bounds: np.ndarray) -> str | None:
            if state.seed == DEFAULT_SEED and not close(bounds[::BAND_CHECK_STRIDE], stored[k]):
                return f"profile {k}: bounds differ from reference.json"
            if not close(bounds, reference_band(state, state.profiles[k])):
                return f"profile {k}: bounds differ from the direct computation"
            return None

        return Check(BAND_PROFILES, verify)


def reference_band(state: BandState, x_new: np.ndarray) -> np.ndarray:
    """The weighted CQR band computed directly, without doseband's
    conformal or weighting code: one calibration, then per grid point the
    (1 - alpha)-quantile of the weighted scores with the test-point atom."""
    data, cal, model, gps = state.data, state.sp.cal, state.model, state.gps
    xc, tc, yc = data.x[cal], data.t[cal], data.y[cal]
    lo, hi = (model.quantile(xc, tc, lv) for lv in BAND_LEVELS)
    scores = np.maximum(np.minimum(lo, hi) - yc, yc - np.maximum(lo, hi))
    values, inverse = np.unique(scores, return_inverse=True)
    gps_cal = gps.density(tc, xc)
    grid = np.linspace(state.t_min, state.t_max, BAND_GRID)
    out = np.empty((BAND_GRID, 2))
    for k, t in enumerate(grid):
        h = state.h_factory(float(t))
        mass = np.bincount(inverse, weights=h.density(tc) / gps_cal)
        total = mass.sum()
        above = total - np.cumsum(mass)  # mass strictly above each value
        w_new = h.density(float(t)) / gps.density(float(t), x_new)
        hits = np.nonzero(above + w_new <= state.cfg.alpha * (total + w_new))[0]
        eta = values[hits[0]] if hits.size else math.inf
        q_lo, q_hi = (model.quantile(x_new, float(t), lv) for lv in BAND_LEVELS)
        lower, upper = min(q_lo, q_hi) - eta, max(q_lo, q_hi) + eta
        if lower > upper:
            lower = upper = 0.5 * (lower + upper)
        out[k] = lower, upper
    return out


WORKLOADS = {
    "gps-em": EmWorkload(),
    "study-pinball": StudyWorkload(
        "study-pinball",
        scenario_args=dict(scenario_id="trunc-homo"),
        warmup_args=dict(scenario_id="trunc-homo", n=1000),
        distinct=2,
    ),
    "study-query": StudyWorkload(
        "study-query",
        scenario_args=dict(scenario_id="s1", setup="oracle-oracle", n_test=200),
        warmup_args=dict(scenario_id="s1", setup="oracle-oracle", n=300, n_test=20),
        distinct=1,
    ),
    "band": BandWorkload(),
}
