"""Outcome models: conditional mean and conditional quantile predictions
at arbitrary (covariates, treatment) points.

The learned quantile model is linear in a caller-supplied basis over
(x, t) and is fitted by an exact vertex descent on the pinball loss,
run on slightly jittered responses, that ends with a dual optimality
certificate on the original ones. Oracle variants take the true
conditional mean function plus a Normal noise variance and answer any
level in closed form. Models return each level as fitted: a crossed
pair is repaired where ``conformal`` reads it, by sorting it to
(min, max); any monotone fix preserves interval validity.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import Dataset, query_rows
from .dist import NormalParams, Rng, normal_quantile

__all__ = [
    "OracleQuantileModel",
    "LinearPinballModel",
    "OlsMeanModel",
    "PinballFitError",
    "pinball_loss",
    "fit_linear_pinball",
    "fit_ols_mean",
]


class PinballFitError(RuntimeError):
    """Raised when the pinball fit cannot certify optimality; carries the
    best objective value reached."""

    def __init__(self, message: str, best_objective: float):
        super().__init__(message)
        self.best_objective = best_objective

    def __reduce__(self):
        # the default rebuilds from ``args`` alone, which lacks best_objective,
        # so an error raised in a worker process could not be returned
        return type(self), (self.args[0], self.best_objective)


def _check_levels(levels) -> tuple[float, ...]:
    levels = tuple(float(v) for v in levels)
    if not levels or any(not 0.0 < v < 1.0 for v in levels):
        raise ValueError("quantile levels must lie strictly inside (0, 1)")
    if len(levels) == 2 and not levels[0] < levels[1]:
        raise ValueError("need level_lo < level_hi")
    return levels


@functools.lru_cache(maxsize=256)
def _normal_shift(level: float, variance: float) -> float:
    """Level quantile of Normal(0, variance), resolved once per pair."""
    return float(normal_quantile(level, NormalParams(0.0, variance)))


@dataclass(frozen=True)
class OracleQuantileModel:
    """True conditional quantiles: mean_fn(x, t) + Normal(0, variance) shift."""

    mean_fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    variance: float
    levels: tuple[float, ...] = (0.05, 0.95)

    def __post_init__(self):
        NormalParams(0.0, self.variance)  # rejects a non-finite or non-positive variance
        object.__setattr__(self, "levels", _check_levels(self.levels))

    def quantile(self, x, t, level):
        return self.mean(x, t) + _normal_shift(float(level), float(self.variance))

    def mean(self, x, t):
        return query_rows(lambda tt, xx: self.mean_fn(xx, tt), t, x)


@dataclass(frozen=True)
class LinearPinballModel:
    """Per-level linear quantile model over a basis in (x, t), with a
    coefficient vector in ``coefs`` for each of its ``levels``."""

    basis: Callable[[np.ndarray, np.ndarray], np.ndarray]
    coefs: dict  # level -> coefficient vector
    levels: tuple[float, ...]

    def __post_init__(self):
        levels = _check_levels(self.levels)
        missing = [level for level in levels if level not in self.coefs]
        if missing:
            raise ValueError(f"coefs has no coefficients for levels {missing}")
        object.__setattr__(self, "levels", levels)

    def quantile(self, x, t, level):
        try:
            beta = self.coefs[level]
        except KeyError:
            raise KeyError(f"no coefficients fitted for level {level}") from None
        return query_rows(lambda tt, xx: np.asarray(self.basis(xx, tt), dtype=float) @ beta, t, x)


@dataclass(frozen=True)
class OlsMeanModel:
    basis: Callable[[np.ndarray, np.ndarray], np.ndarray]
    beta: np.ndarray

    def mean(self, x, t):
        return query_rows(lambda tt, xx: np.asarray(self.basis(xx, tt), dtype=float) @ self.beta, t, x)


def _check_level(level) -> None:
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie strictly inside (0, 1)")


def pinball_loss(u: np.ndarray, level: float) -> float:
    """Mean check loss rho_tau(u) = u * (tau - 1{u < 0})."""
    _check_level(level)
    u = np.asarray(u, dtype=float)
    if u.size == 0:
        raise ValueError("need at least one residual")
    return float(np.mean(u * (level - (u < 0.0))))


# breakpoints sorted per exchange before a full sort; in the trunc-*
# studies a walk crosses a median of 3 and 2% of walks cross more than 32
_WALK = 32

MAX_EXCHANGES = 200
DUAL_SLACK = 1e-9


def _level_quantile(u, level):
    """np.quantile(u, level) with the default linear method, from one
    partition at the two order statistics it interpolates: the same
    index, weight and interpolation formula (numpy's ``_lerp``), so the
    same bits."""
    n = u.size
    virtual = (n - 1) * level
    i = math.floor(virtual)
    if i >= n - 1:
        return float(np.max(u))
    below, above = np.partition(u, (i, i + 1))[i : i + 2].tolist()
    gamma = virtual - i
    diff = above - below
    return above - diff * (1 - gamma) if gamma >= 0.5 else below + diff * gamma


@functools.lru_cache(maxsize=8)
def _jitter(n):
    """The descent's fixed pseudo-random jitter of n rows, drawn once per
    n as a read-only array."""
    jitter = Rng(0).gen.random(n)
    jitter.flags.writeable = False
    return jitter


def _initial_active_set(Z, u, level):
    """q linearly independent rows whose residuals u lie nearest the
    residuals' level-quantile."""
    q = Z.shape[1]
    dist = np.abs(u - _level_quantile(u, level))
    near = np.argpartition(dist, q - 1)[:q]
    near = near[np.argsort(dist[near])]
    # the greedy scan below keeps all q nearest rows when they are
    # independent, since every subset of independent rows is independent
    if np.linalg.matrix_rank(Z[near]) == q:
        return near
    active: list[int] = []
    rows: list[np.ndarray] = []
    for i in np.argsort(dist):
        cand = rows + [Z[i]]
        if np.linalg.matrix_rank(np.array(cand)) == len(cand):
            active.append(int(i))
            rows.append(Z[i])
            if len(active) == q:
                break
    if len(active) < q:
        raise ValueError("pinball design matrix is rank deficient")
    return np.array(active, dtype=int)


def _crossing(rate, slopes):
    """First k at which rate + slopes[0] + ... + slopes[k], summed left to
    right, is nonnegative, or -1."""
    hit = np.flatnonzero(np.cumsum(np.concatenate(([rate], slopes)))[1:] >= 0.0)
    return int(hit[0]) if hit.size else -1


def _vertex_polish(Z, y, level, beta):
    """Exact-vertex descent for the check loss with optimality certificate.

    The descent fits the residuals of ``beta`` plus a fixed
    pseudo-random jitter, which puts the rows in general position: no
    vertex has more than q zero residuals, even with duplicated rows or
    integer-valued y, so every inactive dual is tau or tau - 1 by the
    sign of its residual. A minimizer interpolates q rows (Koenker &
    Bassett 1978). Starting from the q rows whose residuals lie nearest
    their level-quantile, solve that interpolation, recover the basic
    dual from stationarity and check psi_j in [tau - 1, tau]; the
    inactive duals enter that solve as one product psi @ Z with the
    active entries zeroed, so no rows of Z are copied. While an entry
    escapes its box, move along the corresponding edge, walking
    breakpoints (each adds |z_i d| to the directional derivative) until
    the derivative turns nonnegative, and exchange rows; each exchange
    lowers the jittered objective. The walk sorts only the ``_WALK``
    nearest breakpoints and sums their slopes by a cumulative sum, in
    the order a one-by-one walk adds them; only when those do not turn
    the derivative does it sort every breakpoint. Once the box holds,
    psi is dual feasible for the unjittered rows as well, and the
    vertex they give is certified when its duality gap is at most
    ``DUAL_SLACK`` times its objective. ``MAX_EXCHANGES`` bounds the
    number of exchanges; the vertex the last one reaches is checked too.
    Returns the last vertex and whether its certificate held.
    """
    n, q = Z.shape
    # the descent fits the start's residuals r by a correction to beta, so
    # rounding errors scale with max|r| rather than max|y|; the jitter's
    # size is the geometric middle of that error, eps max|r|, and the
    # residuals' typical spacing, mean|r| / n
    r = y - Z @ beta
    size = math.sqrt(np.finfo(float).eps * float(np.max(np.abs(r))) * float(np.mean(np.abs(r))) / n)
    jittered = r + size * _jitter(n)
    active = _initial_active_set(Z, jittered, level)
    for exchanges in range(MAX_EXCHANGES + 1):
        ZA = Z[active]
        u = jittered - Z @ np.linalg.solve(ZA, jittered[active])
        psi = np.where(u >= 0.0, level, level - 1.0)
        psi[active] = 0.0
        psi[active] = np.linalg.solve(ZA.T, -(psi @ Z))
        over = psi[active] - level
        under = (level - 1.0) - psi[active]
        worst = np.maximum(over, under)
        j = int(np.argmax(worst))
        if worst[j] <= DUAL_SLACK:
            # duality gap of the unjittered rows: sum_i rho(u_i) - psi_i u_i
            step = np.linalg.solve(ZA, r[active])
            u = r - Z @ step
            loss = u * (level - (u < 0.0))
            return beta + step, float(np.sum(loss - psi * u)) <= DUAL_SLACK * float(np.sum(loss))
        if exchanges == MAX_EXCHANGES:
            break
        # leave the j-th active row along the edge that keeps the other
        # active residuals at zero; psi above tau means the objective
        # falls when u_j turns positive, below tau - 1 when negative
        d = np.linalg.solve(ZA, np.eye(q)[j])
        if over[j] >= under[j]:
            d = -d
        zd = Z @ d
        slope = np.abs(zd)
        with np.errstate(divide="ignore", invalid="ignore"):
            steps = u / zd
        ahead = (steps > 0.0) & (steps < np.inf) & (slope > 1e-300)
        ahead[active] = False
        ahead = np.flatnonzero(ahead)
        steps = steps[ahead]
        if steps.size > _WALK:
            near = np.argpartition(steps, _WALK - 1)[:_WALK]
            order = near[np.argsort(steps[near])]
        else:
            order = np.argsort(steps)
        k = _crossing(-worst[j], slope[ahead[order]])
        if k < 0 and steps.size > _WALK:
            order = np.argsort(steps)
            k = _crossing(-worst[j], slope[ahead[order]])
        if k < 0:
            break  # numerically unbounded edge; certify failure below
        active[j] = ahead[order[k]]
    return beta + np.linalg.solve(Z[active], r[active]), False


def fit_linear_pinball(
    data: Dataset,
    train,
    level: float,
    basis: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> np.ndarray:
    """Minimize the empirical pinball loss over a linear basis.

    Starts from the least-squares fit and runs the exact vertex descent
    of ``_vertex_polish`` on the training rows, so the returned
    coefficients sit at a certified minimizer. ``PinballFitError``
    (carrying the lower of the least-squares and the descent's
    objective) is raised if the certificate cannot be established.
    """
    _check_level(level)
    train = np.asarray(train)
    Z = np.asarray(basis(data.x[train], data.t[train]), dtype=float)
    y = data.y[train]
    q = Z.shape[1]
    beta, _, rank, _ = np.linalg.lstsq(Z, y, rcond=None)
    if rank < q:
        raise ValueError("pinball design matrix is rank deficient")
    start_obj = pinball_loss(y - Z @ beta, level)
    scale = float(np.mean(np.abs(y))) + 1.0
    if start_obj <= 1e-12 * scale:
        return beta  # interpolation: the check loss is nonnegative, so 0 is global
    polished, certified = _vertex_polish(Z, y, level, beta)
    if not certified:
        best = min(start_obj, pinball_loss(y - Z @ polished, level))
        raise PinballFitError(
            f"pinball fit could not certify optimality (best objective {best:.6g})",
            best_objective=best,
        )
    return polished


def fit_ols_mean(data: Dataset, train, basis) -> OlsMeanModel:
    """Least-squares conditional mean over a basis in (x, t)."""
    train = np.asarray(train)
    Z = np.asarray(basis(data.x[train], data.t[train]), dtype=float)
    beta, _, rank, _ = np.linalg.lstsq(Z, data.y[train], rcond=None)
    if rank < Z.shape[1]:
        raise ValueError("mean design matrix is rank deficient")
    return OlsMeanModel(basis=basis, beta=beta)

