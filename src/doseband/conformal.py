"""Weighted split-conformal intervals and dose-response prediction bands.

Each calibration point (T_i, X_i) is weighted by the likelihood ratio
of weighted conformal prediction under covariate shift (Tibshirani,
Barber, Candes & Ramdas 2019), W_i = h(T_i) / (f_hat(T_i | X_i) +
offset), and a test point (t, x) by w = h(t) / (f_hat(t | x) + offset):
h is the assignment density, f_hat the fitted GPS and the offset a
field of ``ConformalConfig``, zero by default.

Both score kinds follow one rule: a score is the distance of y outside
the outcome model's base interval [lo, hi], max(lo - y, y - hi), and a
threshold eta widens that interval to [lo - eta, hi + eta]. The base
interval is the sorted quantile pair for cqr and the degenerate pair
[m, m] of the conditional mean for absolute residuals.

The engine is a weighted empirical quantile over calibration
non-conformity scores plus a point mass at +infinity carried by the
test-point weight: with calibration weights W_i and test weight w,

    p_i = W_i / (sum_j W_j + w),    p_inf = w / (sum_j W_j + w),

the threshold eta is the (1 - alpha)-quantile of
sum_i p_i * delta_{V_i} + p_inf * delta_{inf}. When the finite mass
cannot reach 1 - alpha the threshold is +infinity and the interval is
the whole line.

Every interval is a query of one ``Calibration``, built once per fitted
outcome model and GPS. It holds what no test point changes: the tie
index of the calibration scores and the offset GPS densities at the
calibration points. ``Calibration.bounds`` takes test covariate rows
and treatments, each row naming its assignment h, and gives every
row's bounds, the Kish ESS of its calibration weights and its
test-atom mass. The coverage study makes one query per numerator for
all its test points, ``weighted_interval`` one query of one row, and
``prediction_band`` one query of a row per grid point.

A row's weights depend on it only through its assignment, and many
rows can share one: a fixed shift is one for every test point, and the
decile-midpoint allocation of a band has 10. So a query weights the
scores once per distinct assignment, one row of tie-merged atoms each,
and takes every test row's threshold against its assignment's row in
one vectorized pass. The decile-midpoint assignments of one
``DecileMidpointFamily`` are evaluated together, as one block of
members by calibration treatments.

The plain split threshold comes from the same engine: unit
calibration weights and a unit test weight give the
ceil((1 - alpha)(n + 1))-th smallest of the n calibration scores, the
test atom contributing exactly the +1, and +inf when that rank exceeds
n.

Atoms at tied score values merge their mass before the cumulative scan,
which keeps the quantile well defined for arbitrary inputs; merging
never changes the result because the scan already accumulates mass in
score order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .assignment import DecileMidpointAssignment, likelihood_ratio
from .data import Dataset, SplitIndices, _frozen_array

__all__ = [
    "Calibration",
    "Interval",
    "PredictionBand",
    "ConformalConfig",
    "SCORE_KINDS",
    "calibration_scores",
    "score_interval",
    "weighted_interval",
    "prediction_band",
]

SCORE_KINDS = ("absolute-residual", "cqr")


def _tail_mass(inverse, n_atoms: int, weights: np.ndarray):
    """Tie-merged atoms of every row of a (rows, n) block of calibration
    weights, each row max-normalized to keep the ratios overflow-safe.

    Each row of weights must be finite, nonnegative and not all zero.
    ``inverse`` is the tie index of the n calibration scores among the
    n_atoms distinct ones; offset by r * n_atoms for row r, it lets one
    ``bincount`` merge the ties of every row, adding each row's weights
    in the same order as a single-row call. Returns the table that
    ``_lift`` searches, (rows, a power of two above n_atoms), whose entry
    k is the mass strictly above atom k - 1, -inf at k = 0 and past the
    last atom; the total mass, the normalization scale and the Kish ESS
    (sum W)^2 / sum W^2, each (rows,).
    """
    if not np.all(np.isfinite(weights)) or np.any(weights < 0.0):
        raise ValueError("weights must be finite and nonnegative")
    rows = len(weights)
    scale = weights.max(axis=1)
    if not np.all(scale > 0.0):
        raise ValueError("weights must not all be zero")
    unit = weights / scale[:, None]
    bins = (inverse + n_atoms * np.arange(rows)[:, None]).ravel()
    grouped = np.bincount(bins, weights=unit.ravel(), minlength=rows * n_atoms)
    rev = np.cumsum(grouped.reshape(rows, n_atoms)[:, ::-1], axis=1)
    total = rev[:, -1]
    table = np.full((rows, 1 << n_atoms.bit_length()), -math.inf)
    table[:, 1:n_atoms] = rev[:, -2::-1]
    table[:, n_atoms] = 0.0
    return table, total, scale, total * total / np.einsum("ij,ij->i", unit, unit)


def _lift(values, table, total, w_new, owner, alpha: float) -> np.ndarray:
    """Thresholds for a vector of test weights, each already divided by
    its row's scale, w_new[i] queried against row owner[i] of (table,
    total) from ``_tail_mass``.

    Element i is the smallest value whose strict upper-tail mass,
    always including the infinity atom w_new[i], is at most alpha times
    the total, or +inf when none qualifies. A test weight of +inf gives
    +inf.
    """
    if not np.all(w_new >= 0.0):
        raise ValueError("w_new must be nonnegative, not NaN")
    n, width = len(values), table.shape[1]
    # the atoms failing tail + w <= target form a prefix of each row,
    # because the table never increases from k = 1 on; count them by binary
    # lifting (fails holds flat indices into the table, offset by the
    # owner row's start)
    flat = table.ravel()
    base = width * owner
    finite = np.isfinite(w_new)
    w = np.where(finite, w_new, 0.0)
    target = alpha * (total[owner] + w)
    fails = base
    step = width // 2
    while step:
        cand = fails + step
        fails = np.where(flat[cand] + w > target, cand, fails)
        step //= 2
    fails = fails - base
    return np.where(finite & (fails < n), values[np.minimum(fails, n - 1)], math.inf)


@dataclass(frozen=True)
class Interval:
    """Prediction interval; bounds may be infinite."""

    lower: float
    upper: float

    def __post_init__(self):
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
    covariate profile.

    ``lower`` and ``upper`` hold the bounds at each grid point; they may
    be infinite, never NaN, and lower <= upper. Per grid point, ``ess``
    is the Kish effective sample size (sum W)^2 / sum W^2 of the
    calibration weights and ``p_inf`` the test-atom mass w / (sum W + w).
    Every array is an owned read-only copy. ``intervals`` gives the same
    bounds as one ``Interval`` per grid point, built on first access.
    """

    t_grid: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    x: np.ndarray
    ess: np.ndarray
    p_inf: np.ndarray

    def __post_init__(self):
        grid = _frozen_array(self.t_grid)
        if grid.ndim != 1:
            raise ValueError("t_grid must be a vector")
        if len(grid) >= 2 and not np.all(np.diff(grid) > 0):
            raise ValueError("t_grid must be strictly increasing")
        object.__setattr__(self, "t_grid", grid)
        object.__setattr__(self, "x", _frozen_array(self.x))
        for name in ("lower", "upper", "ess", "p_inf"):
            arr = _frozen_array(getattr(self, name))
            if arr.shape != grid.shape:
                raise ValueError(f"{name} must have one value per grid point")
            object.__setattr__(self, name, arr)
        if np.isnan(self.lower).any() or np.isnan(self.upper).any():
            raise ValueError("band bounds must not be NaN")
        if np.any(self.lower > self.upper):
            raise ValueError("need lower <= upper at every grid point")

    @cached_property
    def intervals(self) -> tuple[Interval, ...]:
        return tuple(map(Interval, self.lower.tolist(), self.upper.tolist()))


@dataclass(frozen=True)
class ConformalConfig:
    """Miscoverage level, score kind, and the offset added to the GPS
    denominator of every weight (0 = hard positivity check)."""

    alpha: float
    score_kind: str = "cqr"
    offset: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly inside (0, 1)")
        if self.score_kind not in SCORE_KINDS:
            raise ValueError(f"score_kind must be one of {SCORE_KINDS}")
        if not (math.isfinite(self.offset) and self.offset >= 0.0):
            raise ValueError("offset must be finite and >= 0")


def _base_interval(model, kind: str, x, t):
    """The model's own interval at (x, t), the one place that reads the
    outcome model: [m, m] for absolute residuals, and for cqr the
    quantile pair sorted to (min, max), which repairs a crossed pair."""
    if kind == "absolute-residual":
        if not hasattr(model, "mean"):
            raise ValueError(f"absolute-residual scoring needs a model with a mean, not {type(model).__name__}")
        m = model.mean(x, t)
        return m, m
    if len(getattr(model, "levels", ())) != 2:
        raise ValueError(f"cqr scoring needs a quantile model with two levels, not {type(model).__name__}")
    lo, hi = (model.quantile(x, t, level) for level in model.levels)
    return np.minimum(lo, hi), np.maximum(lo, hi)


def calibration_scores(model, cfg: ConformalConfig, data: Dataset, idx) -> np.ndarray:
    """Non-conformity scores on the given rows: the distance of y outside
    the base interval, max(lo - y, y - hi); for absolute-residual scores
    this is |m - y| exactly, IEEE subtraction being antisymmetric."""
    idx = np.asarray(idx)
    y = data.y[idx]
    lo, hi = _base_interval(model, cfg.score_kind, data.x[idx], data.t[idx])
    return np.maximum(lo - y, y - hi)


def score_interval(model, cfg: ConformalConfig, x, t, eta) -> tuple[np.ndarray, np.ndarray]:
    """Bounds [lo - eta, hi + eta] at the rows of (x, t) from thresholds
    eta. A negative eta shrinks the pair; should it invert (only when -2 eta
    exceeds the base width) it collapses to its midpoint, which is empty
    for a continuous response."""
    eta = np.asarray(eta, dtype=float)
    lo, hi = _base_interval(model, cfg.score_kind, x, t)
    # asarray: a single-point query gives scalars, which take no masked assignment
    lower, upper = np.asarray(lo - eta), np.asarray(hi + eta)
    crossed = lower > upper
    lower[crossed] = upper[crossed] = 0.5 * (lower[crossed] + upper[crossed])
    return lower, upper


# calibration weights held per block of distinct assignments: 8192 // n_cal
# rows, so a block holds a few hundred kB however many a query has
_BLOCK_ELEMENTS = 8192


class Calibration:
    """The calibration side of weighted split conformal for one fitted
    outcome model and GPS: built once, queried many times.

    It holds what does not depend on a test point: the distinct
    calibration scores with the index of each score among them, the
    calibration treatments, and the offset GPS densities
    f(T_i | X_i) + offset at them. ``model`` needs a ``mean`` for
    absolute-residual scores and two quantile ``levels`` for cqr (see
    ``_base_interval``).
    """

    def __init__(self, data: Dataset, sp: SplitIndices, model, gps, cfg: ConformalConfig):
        self.model, self.gps, self.cfg = model, gps, cfg
        scores = calibration_scores(model, cfg, data, sp.cal)
        if len(scores) == 0:
            raise ValueError("need at least one calibration score")
        if not np.all(np.isfinite(scores)):
            raise ValueError("scores must be finite")
        self.values, self.inverse = np.unique(scores, return_inverse=True)
        self.p = data.p
        self.t_cal = data.t[sp.cal]
        self.den_cal = gps.density(self.t_cal, data.x[sp.cal]) + cfg.offset

    def bounds(self, x, t, hs, owner, test_atom: bool = True):
        """Weighted conformal bounds at the test rows (x[i], t[i]), the
        numerator of row i's weights being the assignment density
        hs[owner[i]], with the Kish ESS of those calibration weights and
        the row's test-atom mass; four arrays, one value per row. ``t``
        must be a vector and ``x`` a matrix with a row per treatment and
        the calibration covariates' width, both finite, and ``owner`` an
        integer array of t's shape with entries in [0, len(hs)), or
        ``ValueError`` is raised. A test row outside the GPS support, its
        offset density exactly 0, gets weight +inf.

        Without ``test_atom`` the threshold is the weighted quantile of
        the calibration scores alone: no density is evaluated at the test
        rows, each assignment's threshold is lifted once for all the rows
        it owns, and p_inf is 0.

        Everything that depends on a row only through its assignment is
        computed once per assignment: its calibration weights, their
        checks, the tie-merged atoms and the ESS. The assignments go
        through in blocks of _BLOCK_ELEMENTS // n_cal, so the weights held
        at once grow with the block, not with the number of rows or
        assignments. Per block, the ``DecileMidpointAssignment`` members
        of one family are evaluated in one ``DecileMidpointFamily.density``
        pass over the calibration treatments, a (members, n_cal) block
        from one decile lookup, and one more over the rows they own, each
        row at its own member; any other assignment's density is evaluated
        once, on the calibration treatments followed by those of the rows
        it owns. Every density is elementwise, so the values are those of
        separate calls. The calibration weights are checked before the
        test weights, and the rows take their thresholds from one binary
        lifting, in which each query names its atom row.
        """
        t, x = np.asarray(t, dtype=float), np.asarray(x, dtype=float)
        if t.ndim != 1 or x.ndim != 2 or len(x) != len(t):
            raise ValueError(f"need a 1-d t and a 2-d x with a row per treatment, got shapes {t.shape} and {x.shape}")
        if x.shape[1] != self.p:
            raise ValueError(f"x has {x.shape[1]} covariate columns, the calibration data {self.p}")
        if not np.all(np.isfinite(t)):
            raise ValueError("treatment values must be finite")
        if not np.all(np.isfinite(x)):
            raise ValueError("covariate values must be finite")
        owner = np.asarray(owner)
        if owner.dtype.kind not in "iu":
            raise ValueError(f"owner entries must be integers, got dtype {owner.dtype}")
        if owner.shape != t.shape:
            raise ValueError(f"owner has shape {owner.shape}, t has shape {t.shape}")
        if np.any((owner < 0) | (owner >= len(hs))):
            raise ValueError(f"owner entries must lie in [0, {len(hs)})")
        values, t_cal, n_cal, alpha = self.values, self.t_cal, len(self.t_cal), self.cfg.alpha
        if test_atom:
            den = self.gps.density(t, x) + self.cfg.offset
            outside = den == 0.0  # outside the GPS support: weight +inf, set below
            den[outside] = 1.0
        rows = max(1, _BLOCK_ELEMENTS // n_cal)
        eta, ess, p_inf = np.empty(len(t)), np.empty(len(t)), np.zeros(len(t))
        for start in range(0, len(hs), rows):
            block = hs[start : start + rows]
            at = np.flatnonzero((owner >= start) & (owner < start + len(block)))
            own = owner[at] - start
            num_cal, num_at = np.empty((len(block), n_cal)), np.empty(len(at))
            families: dict = {}  # family -> the positions of its members in the block
            for i, h in enumerate(block):
                if isinstance(h, DecileMidpointAssignment):
                    families.setdefault(h.family, []).append(i)
                elif test_atom:
                    mine = own == i
                    num = h.density(np.concatenate([t_cal, t[at[mine]]]))
                    num_cal[i], num_at[mine] = num[:n_cal], num[n_cal:]
                else:
                    num_cal[i] = h.density(t_cal)
            for family, members in families.items():
                deciles = np.array([block[i].decile for i in members])
                num_cal[members] = family.density(t_cal, deciles[:, None])
                if test_atom:
                    decile_of = np.full(len(block), -1)  # -1 off this family
                    decile_of[members] = deciles
                    mine = decile_of[own] >= 0
                    num_at[mine] = family.density(t[at[mine]], decile_of[own[mine]])
            cal = likelihood_ratio(num_cal, self.den_cal, t_cal)
            table, total, scale, ess_block = _tail_mass(self.inverse, len(values), cal)
            if test_atom:
                w = likelihood_ratio(num_at, den[at], t[at])
                w[outside[at] & (w > 0.0)] = math.inf
                with np.errstate(over="ignore", invalid="ignore"):  # an overflowing w / scale is +inf, p_inf 1
                    w = w / scale[own]
                    p_inf[at] = np.where(np.isfinite(w), w / (total[own] + w), 1.0)
                eta[at] = _lift(values, table, total, w, own, alpha)
            else:  # zero test mass: the rows of an assignment share one query, and p_inf stays 0
                queries = np.arange(len(block))
                eta[at] = _lift(values, table, total, np.zeros(len(block)), queries, alpha)[own]
            ess[at] = ess_block[own]
        lower, upper = score_interval(self.model, self.cfg, x, t, eta)
        return lower, upper, ess, p_inf


def _profile(x_new) -> np.ndarray:
    """The one covariate profile ``x_new``, a vector or a single row, as a
    vector; any other shape raises ``ValueError``."""
    x = np.asarray(x_new, dtype=float)
    if not (x.ndim == 1 or x.ndim == 2 and len(x) == 1):
        raise ValueError(f"x_new must be one covariate profile, a vector or a single row, got shape {x.shape}")
    return x.reshape(-1)


def weighted_interval(
    data: Dataset,
    sp: SplitIndices,
    model,
    gps,
    h,
    cfg: ConformalConfig,
    x_new,
    t_new,
) -> Interval:
    """Weighted split-conformal interval at (x_new, t_new), with
    likelihood-ratio weights h(t) / (gps(t | x) + cfg.offset): the
    one-row query of a ``Calibration``. ``x_new`` is one covariate
    profile, a vector or a single row."""
    calib = Calibration(data, sp, model, gps, cfg)
    x = _profile(x_new)[None, :]
    lower, upper, _, _ = calib.bounds(x, np.array([float(t_new)]), [h], np.zeros(1, dtype=np.intp))
    return Interval(float(lower[0]), float(upper[0]))


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
) -> PredictionBand:
    """Pointwise band over an inclusive, evenly spaced treatment grid.

    ``h_factory`` maps each grid treatment to its assignment
    distribution, covering both a fixed shift (ignore the argument) and
    treatment-tracking numerators such as the decile-midpoint weights.
    ``x_new`` is one covariate profile, a vector or a single row. Each
    grid point's interval is the ``weighted_interval`` there.

    The assignments must be hashable, and two that compare equal must
    have equal densities; every doseband assignment is. The Normal,
    truncated-Normal and uniform ones compare by value, and a
    ``DecileMidpointAssignment`` is its decile's shared member, one
    object for every grid point there. An unhashable assignment raises
    ``TypeError``. The band is one ``Calibration.bounds`` query with a
    row per grid point, which weights the calibration scores once per
    distinct assignment (a fixed shift once, the decile-midpoint weights
    at most 10 times, whatever n_grid). A fixed shift takes one density
    call; the decile-midpoint members of one family take one pass of
    their family over the calibration treatments per block of
    assignments, one pass in all when n_cal <= 819. Per grid point only
    h_factory(t_k), a cache lookup for a decile member, and one dict
    lookup of its result run in Python. The calibration weights held at
    once are bounded by a fixed element budget, so they do not grow with
    n_grid. The band holds its bounds as arrays, ``lower`` and
    ``upper``; its ``intervals`` are built on first access. It also
    carries, per grid point, the Kish ESS of the calibration weights and
    the test-atom mass p_inf.
    """
    if not isinstance(n_grid, (int, np.integer)) or n_grid < 2:
        raise ValueError(f"n_grid must be an integer >= 2, got {n_grid!r}")
    if not -math.inf < t_min < t_max < math.inf:
        raise ValueError("need finite t_min < t_max")
    grid = np.linspace(t_min, t_max, n_grid)
    calib = Calibration(data, sp, model, gps, cfg)
    distinct: dict = {}  # assignment -> its index, in first-seen order
    owner = np.empty(n_grid, dtype=np.intp)
    for k, t in enumerate(grid.tolist()):
        h = h_factory(t)
        try:
            owner[k] = distinct.setdefault(h, len(distinct))
        except TypeError as exc:
            raise TypeError(f"assignments must be hashable, got {type(h).__name__}") from exc
    x = _profile(x_new)
    lower, upper, ess, p_inf = calib.bounds(np.tile(x, (n_grid, 1)), grid, list(distinct), owner)
    return PredictionBand(t_grid=grid, lower=lower, upper=upper, x=x, ess=ess, p_inf=p_inf)
