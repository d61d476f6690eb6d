"""Weighted split-conformal intervals and dose-response prediction bands.

The engine is a weighted empirical quantile over calibration
non-conformity scores plus a point mass at +infinity carried by the
test-point weight: with calibration weights W_i and test weight w,

    p_i = W_i / (sum_j W_j + w),    p_inf = w / (sum_j W_j + w),

the threshold eta is the (1 - alpha)-quantile of
sum_i p_i * delta_{V_i} + p_inf * delta_{inf}. When the finite mass
cannot reach 1 - alpha the threshold is +infinity and the interval is
the whole line.

The threshold depends on a test point only through its weight w, so
the calibration side is built once and queried many times:
``WeightedScores.thresholds`` answers an array of test weights, and
``score_interval`` turns an array of thresholds into bounds.

Two threshold constructions coexist on purpose. The plain split path
uses the (1 - alpha)(1 + 1/n)-th order statistic of the calibration
scores; the weighted path replaces that finite-sample correction with
the test-weight atom. With equal weights the two coincide (the atom
contributes exactly the +1), and they agree asymptotically in general.

Atoms at tied score values merge their mass before the cumulative scan,
which keeps the quantile well defined for arbitrary inputs; mergeing
never changes the result because the scan already accumulates mass in
score order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .assignment import WeightConfig, assignment_density, likelihood_ratio
from .data import Dataset, SplitIndices
from .outcome import predict_quantile_pair

__all__ = [
    "WeightedScores",
    "Interval",
    "PredictionBand",
    "ConformalConfig",
    "SCORE_KINDS",
    "weighted_conformal_quantile",
    "calibration_scores",
    "score_interval",
    "split_conformal_interval",
    "weighted_interval",
    "prediction_band",
]

SCORE_KINDS = ("absolute-residual", "cqr", "one-sided-upper", "one-sided-lower")
_SIDED = {"one-sided-upper": "upper-only", "one-sided-lower": "lower-only"}


@dataclass(frozen=True)
class WeightedScores:
    """Calibration non-conformity scores with their positive weights."""

    scores: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        scores = np.array(self.scores, dtype=float)
        weights = np.array(self.weights, dtype=float)
        if scores.ndim != 1 or weights.ndim != 1 or len(scores) != len(weights):
            raise ValueError("scores and weights must be equal-length vectors")
        if len(scores) == 0:
            raise ValueError("need at least one calibration score")
        if not np.all(np.isfinite(scores)):
            raise ValueError("scores must be finite")
        if not np.all(np.isfinite(weights)) or np.any(weights < 0.0):
            raise ValueError("weights must be finite and nonnegative")
        if not np.any(weights > 0.0):
            raise ValueError("weights must not all be zero")
        scores.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "weights", weights)

    @cached_property
    def _ties(self):
        """Distinct score values ascending, and the index of each score
        among them."""
        return np.unique(self.scores, return_inverse=True)

    @cached_property
    def _atoms(self):
        """Tie-merged atoms, max-normalized to keep the ratios overflow-safe.

        Returns (values ascending, suffix mass strictly above each value,
        total calibration mass, normalization scale).
        """
        scale = float(self.weights.max())
        values, inverse = self._ties
        grouped = np.bincount(inverse, weights=self.weights / scale)
        rev = np.cumsum(grouped[::-1])
        total = float(rev[-1])
        suffix = np.zeros_like(grouped)
        if len(grouped) > 1:
            suffix[:-1] = rev[-2::-1]
        return values, suffix, total, scale

    def reweighted(self, weights) -> WeightedScores:
        """The same scores under new weights, reusing their sort."""
        out = WeightedScores(self.scores, weights)
        out.__dict__["_ties"] = self._ties  # fills the cached property
        return out

    def thresholds(self, w_new, alpha: float) -> np.ndarray:
        """Conformal thresholds for an array of test-point weights.

        Element i is the (1 - alpha)-quantile of the weighted scores plus
        a +infinity atom of mass w_new[i] / (sum(W) + w_new[i]): the
        smallest score whose strict upper-tail mass, always including the
        infinity atom, is at most alpha times the total, or +inf when no
        score qualifies. A test weight too large to normalize gives +inf.
        """
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must lie strictly inside (0, 1)")
        w_new = np.asarray(w_new, dtype=float)
        if not np.all(np.isfinite(w_new) & (w_new >= 0.0)):
            raise ValueError("w_new must be finite and nonnegative")
        values, suffix, total, scale = self._atoms
        n = len(values)
        # the atoms failing suffix + w <= target form a prefix, because
        # suffix never increases; count them by binary lifting over
        # padded[k] = suffix[k - 1], padded past the last atom with -inf
        padded = np.full(1 << n.bit_length(), -math.inf)
        padded[1 : n + 1] = suffix
        with np.errstate(over="ignore"):
            w = w_new / scale
            finite = np.isfinite(w)
            w = np.where(finite, w, 0.0)
            target = alpha * (total + w)
            fails = np.zeros(w.shape, dtype=np.intp)
            step = len(padded) // 2
            while step:
                cand = fails + step
                fails = np.where(padded[cand] + w > target, cand, fails)
                step //= 2
        return np.where(finite & (fails < n), values[np.minimum(fails, n - 1)], math.inf)


def weighted_conformal_quantile(ws: WeightedScores, w_new: float, alpha: float) -> float:
    """(1 - alpha)-quantile of the weighted score distribution with the
    +infinity atom of mass w_new / (sum(W) + w_new).

    The one-weight form of ``WeightedScores.thresholds``: the smallest
    score whose cumulative probability reaches 1 - alpha, or +inf when
    the finite atoms cannot reach it (i.e. the infinity atom alone
    exceeds alpha).
    """
    return float(ws.thresholds(w_new, alpha))


@dataclass(frozen=True)
class Interval:
    """Prediction interval; bounds may be infinite, and a one-sided
    interval carries the corresponding infinite bound."""

    lower: float
    upper: float
    sided: str = "two-sided"

    def __post_init__(self):
        if self.sided not in ("two-sided", "upper-only", "lower-only"):
            raise ValueError(f"unknown sidedness {self.sided!r}")
        if math.isnan(self.lower) or math.isnan(self.upper):
            raise ValueError("interval bounds must not be NaN")
        if self.lower > self.upper:
            raise ValueError("need lower <= upper")

    @property
    def length(self) -> float:
        return self.upper - self.lower

    def contains(self, y: float) -> bool:
        return self.lower <= y <= self.upper


@dataclass(frozen=True)
class PredictionBand:
    """Pointwise prediction intervals over a treatment grid, one
    covariate profile."""

    t_grid: np.ndarray
    intervals: tuple[Interval, ...]
    x: np.ndarray

    def __post_init__(self):
        grid = np.array(self.t_grid, dtype=float)
        if grid.ndim != 1 or len(grid) != len(self.intervals):
            raise ValueError("grid and intervals must have matching lengths")
        if len(grid) >= 2 and not np.all(np.diff(grid) > 0):
            raise ValueError("t_grid must be strictly increasing")
        grid.flags.writeable = False
        object.__setattr__(self, "t_grid", grid)
        object.__setattr__(self, "intervals", tuple(self.intervals))


@dataclass(frozen=True)
class ConformalConfig:
    alpha: float
    score_kind: str = "cqr"

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly inside (0, 1)")
        if self.score_kind not in SCORE_KINDS:
            raise ValueError(f"score_kind must be one of {SCORE_KINDS}")


def _quantile_pair_levels(model) -> tuple[float, float]:
    if len(model.levels) != 2:
        raise ValueError("two-sided quantile scoring needs a model with two levels")
    return model.levels[0], model.levels[1]


def calibration_scores(model, cfg: ConformalConfig, data: Dataset, idx) -> np.ndarray:
    """Non-conformity scores on the given rows under cfg.score_kind."""
    idx = np.asarray(idx)
    x, t, y = data.x[idx], data.t[idx], data.y[idx]
    kind = cfg.score_kind
    if kind == "absolute-residual":
        return np.abs(model.mean(x, t) - y)
    if kind == "cqr":
        lo, hi = predict_quantile_pair(model, x, t, *_quantile_pair_levels(model))
        return np.maximum(lo - y, y - hi)
    if kind == "one-sided-upper":
        return y - model.quantile(x, t, max(model.levels))
    # one-sided-lower
    return model.quantile(x, t, min(model.levels)) - y


def score_interval(model, cfg: ConformalConfig, x, t, eta) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds at the rows of (x, t) from thresholds eta.

    Two-sided CQR gives [q_lo - eta, q_hi + eta] (eta may be negative,
    shrinking the pair). If an inverted pair ever arises (possible only
    for strongly negative eta under heteroskedastic quantile widths) it
    collapses to its midpoint, which is empty for a continuous response.
    One-sided kinds shift the single fitted level and leave the other
    side infinite.
    """
    eta = np.asarray(eta, dtype=float)
    kind = cfg.score_kind
    if kind == "absolute-residual":
        m = model.mean(x, t)
        return m - eta, m + eta
    if kind == "one-sided-upper":
        return np.full(eta.shape, -math.inf), model.quantile(x, t, max(model.levels)) + eta
    if kind == "one-sided-lower":
        return model.quantile(x, t, min(model.levels)) - eta, np.full(eta.shape, math.inf)
    lo, hi = predict_quantile_pair(model, x, t, *_quantile_pair_levels(model))
    lower, upper = lo - eta, hi + eta
    crossed = lower > upper
    lower[crossed] = upper[crossed] = 0.5 * (lower[crossed] + upper[crossed])
    return lower, upper


def _interval(cfg: ConformalConfig, lower, upper) -> Interval:
    return Interval(float(lower), float(upper), _SIDED.get(cfg.score_kind, "two-sided"))


def _split_rank(n_cal: int, alpha: float) -> int:
    """Order-statistic rank of the (1-alpha)(1 + 1/n) empirical quantile.

    Computed from the alpha side, n+1 - floor(alpha*(n+1)), which equals
    ceil((1-alpha)(n+1)) but avoids the catastrophic rounding of
    (1-alpha)*(n+1) landing just above an integer.
    """
    return n_cal + 1 - int(math.floor(alpha * (n_cal + 1)))


def split_conformal_interval(
    data: Dataset,
    sp: SplitIndices,
    mean_model,
    alpha: float,
    x_new,
    t_new,
) -> Interval:
    """Plain split-conformal interval around a conditional-mean prediction.

    The threshold is the (1-alpha)(1 + 1/n)-th empirical quantile of the
    calibration absolute residuals. A calibration set too small for the
    requested level yields the infinite interval rather than an error.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly inside (0, 1)")
    cfg = ConformalConfig(alpha, "absolute-residual")
    scores = calibration_scores(mean_model, cfg, data, sp.cal)
    n = len(scores)
    rank = _split_rank(n, alpha)
    if rank > n:
        return Interval(-math.inf, math.inf)
    eta = float(np.partition(scores, rank - 1)[rank - 1])
    lower, upper = score_interval(
        mean_model, cfg, np.atleast_2d(x_new), np.array([float(t_new)]), eta
    )
    return _interval(cfg, lower[0], upper[0])


def _weighted_bounds(data, sp, model, gps, h_factory, cfg, x_new, t_new, weight_cfg):
    """Weighted conformal bounds at (x_new, t) for each t in t_new, the
    numerator of the weights being the assignment density h_factory(t).

    The calibration scores, their sort and the GPS densities f(T_i | X_i)
    do not depend on t and are computed once; each t costs its numerator
    on the calibration treatments and one threshold query.
    """
    t_cal, x_cal = data.t[sp.cal], data.x[sp.cal]
    # unit weights: each t reweights these scores and reuses their sort
    scores = WeightedScores(calibration_scores(model, cfg, data, sp.cal), np.ones(len(t_cal)))
    x_rows = np.tile(np.asarray(x_new, dtype=float), (len(t_new), 1))
    den_cal = gps.density(t_cal, x_cal) + weight_cfg.offset
    den_new = gps.density(t_new, x_rows) + weight_cfg.offset
    eta = np.empty(len(t_new))
    for k, t_k in enumerate(t_new):
        h = h_factory(float(t_k))
        weights = likelihood_ratio(assignment_density(h, t_cal), den_cal, t_cal)
        w_new = likelihood_ratio(assignment_density(h, t_k), den_new[k], t_k)
        eta[k] = scores.reweighted(weights).thresholds(w_new, cfg.alpha)
    return score_interval(model, cfg, x_rows, t_new, eta)


def weighted_interval(
    data: Dataset,
    sp: SplitIndices,
    model,
    gps,
    h,
    cfg: ConformalConfig,
    x_new,
    t_new,
    weight_cfg: WeightConfig = WeightConfig(),
) -> Interval:
    """Weighted split-conformal interval at (x_new, t_new), with
    likelihood-ratio weights h(t) / (gps(t | x) + offset).

    ``model`` is a conditional-mean model for absolute-residual scores
    (interval [m - eta, m + eta]) and a quantile model for the CQR kinds
    (see ``score_interval``).
    """
    lower, upper = _weighted_bounds(
        data, sp, model, gps, lambda t: h, cfg, x_new, np.array([float(t_new)]), weight_cfg
    )
    return _interval(cfg, lower[0], upper[0])


def prediction_band(
    data: Dataset,
    sp: SplitIndices,
    model,
    gps,
    h_factory,
    cfg: ConformalConfig,
    x_new,
    t_min: float,
    t_max: float,
    n_grid: int,
    weight_cfg: WeightConfig = WeightConfig(),
) -> PredictionBand:
    """Pointwise band over an inclusive, evenly spaced treatment grid.

    ``h_factory`` maps each grid treatment to its assignment
    distribution, covering both a fixed shift (ignore the argument) and
    treatment-tracking numerators such as the decile-midpoint weights.
    Each grid point's interval is the ``weighted_interval`` there.
    """
    if n_grid < 2:
        raise ValueError("need at least 2 grid points")
    if not t_min < t_max:
        raise ValueError("need t_min < t_max")
    grid = np.linspace(t_min, t_max, n_grid)
    lower, upper = _weighted_bounds(data, sp, model, gps, h_factory, cfg, x_new, grid, weight_cfg)
    return PredictionBand(
        t_grid=grid,
        intervals=tuple(_interval(cfg, lo, up) for lo, up in zip(lower, upper)),
        x=np.asarray(x_new, dtype=float),
    )
