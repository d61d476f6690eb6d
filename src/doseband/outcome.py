"""Outcome models: conditional mean and conditional quantile predictions
at arbitrary (covariates, treatment) points.

The learned quantile model is linear in a caller-supplied basis over
(x, t) and is fitted by iteratively reweighted least squares on a
smoothed pinball loss. Oracle variants take the true conditional mean
function plus a Normal noise variance and answer any level in closed
form. Quantile crossing at prediction time is repaired by swapping the
pair to (min, max); any monotone fix preserves interval validity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import Dataset, query_rows
from .dist import NormalParams, normal_quantile

__all__ = [
    "QuantileModel",
    "MeanModel",
    "OracleQuantileModel",
    "LinearPinballModel",
    "OlsMeanModel",
    "PinballFitError",
    "pinball_loss",
    "fit_linear_pinball",
    "fit_ols_mean",
    "predict_quantile_pair",
]

# 1000 total IRLS iterations: extreme levels on n ~ 5000 rows need
# roughly 250-400, most of it in the coarsest smoothing stage
MAX_PINBALL_ITER = 1000
PINBALL_TOL = 1e-9
# smoothing of |u| annealed across IRLS stages
_EPS_SCHEDULE = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


class PinballFitError(RuntimeError):
    """Raised when the pinball IRLS does not converge; carries the best
    objective value reached."""

    def __init__(self, message: str, best_objective: float):
        super().__init__(message)
        self.best_objective = best_objective


def _check_levels(levels) -> tuple[float, ...]:
    levels = tuple(float(v) for v in levels)
    if not levels or any(not 0.0 < v < 1.0 for v in levels):
        raise ValueError("quantile levels must lie strictly inside (0, 1)")
    if len(levels) == 2 and not levels[0] < levels[1]:
        raise ValueError("need level_lo < level_hi")
    return levels


@dataclass(frozen=True)
class OracleQuantileModel:
    """True conditional quantiles: mean_fn(x, t) + Normal(0, variance) shift."""

    mean_fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    variance: float
    levels: tuple[float, ...] = (0.05, 0.95)

    def __post_init__(self):
        object.__setattr__(self, "levels", _check_levels(self.levels))

    def quantile(self, x, t, level):
        t, x2, scalar = query_rows(t, x)
        shift = normal_quantile(level, NormalParams(0.0, self.variance))
        out = np.asarray(self.mean_fn(x2, t), dtype=float) + shift
        return float(out[0]) if scalar else out

    def mean(self, x, t):
        t, x2, scalar = query_rows(t, x)
        out = np.asarray(self.mean_fn(x2, t), dtype=float)
        return float(out[0]) if scalar else out


@dataclass(frozen=True)
class LinearPinballModel:
    """Per-level linear quantile model over a basis in (x, t)."""

    basis: Callable[[np.ndarray, np.ndarray], np.ndarray]
    coefs: dict  # level -> coefficient vector
    levels: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "levels", _check_levels(self.levels))

    def quantile(self, x, t, level):
        try:
            beta = self.coefs[level]
        except KeyError:
            raise KeyError(f"no coefficients fitted for level {level}") from None
        t, x2, scalar = query_rows(t, x)
        out = np.asarray(self.basis(x2, t), dtype=float) @ beta
        return float(out[0]) if scalar else out


@dataclass(frozen=True)
class OlsMeanModel:
    basis: Callable[[np.ndarray, np.ndarray], np.ndarray]
    beta: np.ndarray

    def mean(self, x, t):
        t, x2, scalar = query_rows(t, x)
        out = np.asarray(self.basis(x2, t), dtype=float) @ self.beta
        return float(out[0]) if scalar else out


QuantileModel = OracleQuantileModel | LinearPinballModel
MeanModel = OracleQuantileModel | OlsMeanModel


def pinball_loss(u: np.ndarray, level: float) -> float:
    """Mean check loss rho_tau(u) = u * (tau - 1{u < 0})."""
    u = np.asarray(u, dtype=float)
    return float(np.mean(u * (level - (u < 0.0))))


def _irls_warm_start(Z, y, level, beta, max_iter, tol):
    """Annealed majorize-minimize pass over the smoothed check loss.

    rho_tau(u) = |u|/2 + (tau - 1/2) u, and only |u| needs majorizing;
    completing the square turns each step into plain weighted least
    squares on the shifted response y + (2 tau - 1) m with weights 1/m,
    m = max(|u|, eps), solved through the sqrt-weighted design so small
    smoothings do not square the condition number. Stages are capped and
    their tolerance scales with the smoothing: this pass only needs to
    land near the optimum, the vertex polish finishes the job.
    """
    best_obj = pinball_loss(y - Z @ beta, level)
    best_beta = beta.copy()
    iters = 0
    cap = max(max_iter // len(_EPS_SCHEDULE), 25)
    for eps in _EPS_SCHEDULE:
        stage_tol = max(1e2 * tol, 1e-3 * eps)
        prev = None
        stage_iters = 0
        while iters < max_iter and stage_iters < cap:
            u = y - Z @ beta
            m = np.maximum(np.abs(u), eps)
            inv_sqrt_m = 1.0 / np.sqrt(m)
            A = inv_sqrt_m[:, None] * Z
            b = inv_sqrt_m * (y + (2.0 * level - 1.0) * m)
            beta = np.linalg.lstsq(A, b, rcond=None)[0]
            iters += 1
            stage_iters += 1
            u = y - Z @ beta
            obj = pinball_loss(u, level)
            if obj < best_obj:
                best_obj, best_beta = obj, beta.copy()
            a = np.abs(u)
            hub = np.where(a > eps, a - 0.5 * eps, 0.5 * a * a / eps)
            sobj = float(np.mean(0.5 * hub + (level - 0.5) * u))
            if prev is not None and abs(prev - sobj) <= stage_tol * (1.0 + abs(sobj)):
                break
            prev = sobj
    return best_beta, best_obj


def _initial_active_set(Z, y, beta, q):
    """q linearly independent rows closest to zero residual."""
    u = y - Z @ beta
    active: list[int] = []
    rows: list[np.ndarray] = []
    for i in np.argsort(np.abs(u)):
        cand = rows + [Z[i]]
        if np.linalg.matrix_rank(np.array(cand)) == len(cand):
            active.append(int(i))
            rows.append(Z[i])
            if len(active) == q:
                break
    if len(active) < q:
        raise ValueError("pinball design matrix is rank deficient")
    return np.array(active, dtype=int)


def _vertex_polish(Z, y, level, beta, max_exchanges=200, dual_slack=1e-9):
    """Exact-vertex descent for the check loss with optimality certificate.

    A minimizer interpolates q rows (generic position). Solve that
    interpolation, recover the basic dual from stationarity, and
    certify psi in [tau - 1, tau]; while an entry escapes the box, move
    along the corresponding edge, walking breakpoints until the
    directional derivative turns nonnegative, and exchange rows. Each
    exchange strictly decreases the objective, so the loop terminates.
    """
    n, q = Z.shape
    active = _initial_active_set(Z, y, beta, q)
    for _ in range(max_exchanges):
        ZA = Z[active]
        beta = np.linalg.solve(ZA, y[active])
        u = y - Z @ beta
        inactive = np.ones(n, dtype=bool)
        inactive[active] = False
        psi_free = np.where(u >= 0.0, level, level - 1.0)
        g = Z[inactive].T @ psi_free[inactive]
        psi_a = np.linalg.solve(ZA.T, -g)
        over = psi_a - level
        under = (level - 1.0) - psi_a
        worst = np.maximum(over, under)
        j = int(np.argmax(worst))
        if worst[j] <= dual_slack:
            return beta, True
        # leave the j-th active row along the edge that keeps the other
        # active residuals at zero; psi above tau means the objective
        # falls when u_j turns positive, below tau - 1 when negative
        d = np.linalg.solve(ZA, np.eye(q)[j])
        if over[j] >= under[j]:
            d = -d
        rate = -worst[j]
        zd = Z @ d
        with np.errstate(divide="ignore", invalid="ignore"):
            steps = np.where(np.abs(zd) > 1e-300, u / zd, np.inf)
        steps[active] = np.inf
        steps[steps <= 0.0] = np.inf
        order = np.argsort(steps)
        enter = -1
        for i in order:
            if not np.isfinite(steps[i]):
                break
            rate += abs(zd[i])
            enter = int(i)
            if rate >= 0.0:
                break
        if enter < 0 or rate < 0.0:
            break  # numerically unbounded edge; certify failure below
        active[j] = enter
    return beta, False


def fit_linear_pinball(
    data: Dataset,
    train,
    level: float,
    basis: Callable[[np.ndarray, np.ndarray], np.ndarray],
    max_iter: int = MAX_PINBALL_ITER,
    tol: float = PINBALL_TOL,
) -> np.ndarray:
    """Minimize the empirical pinball loss over a linear basis.

    Two phases: an annealed IRLS pass on the smoothed loss (smoothing
    1e-2 down to 1e-6) lands near the optimum, then an exact vertex
    polish with a dual optimality certificate finishes it, so the
    returned coefficients sit at a true minimizer rather than wherever
    the smoothing stalled. ``PinballFitError`` (carrying the best
    objective reached) is raised if the certificate cannot be
    established.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie strictly inside (0, 1)")
    train = np.asarray(train)
    Z = np.asarray(basis(data.x[train], data.t[train]), dtype=float)
    y = data.y[train]
    n, q = Z.shape
    beta, _, rank, _ = np.linalg.lstsq(Z, y, rcond=None)
    if rank < q:
        raise ValueError("pinball design matrix is rank deficient")
    scale = float(np.mean(np.abs(y))) + 1.0
    if pinball_loss(y - Z @ beta, level) <= 1e-12 * scale:
        return beta  # interpolation: the check loss is nonnegative, so 0 is global
    beta, best_obj = _irls_warm_start(Z, y, level, beta, max_iter, tol)
    polished, certified = _vertex_polish(Z, y, level, beta)
    polished_obj = pinball_loss(y - Z @ polished, level)
    if not certified:
        best = min(best_obj, polished_obj)
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


def predict_quantile_pair(model, x, t, level_lo, level_hi):
    """Lower/upper conditional quantiles with the crossing fix applied."""
    lo = model.quantile(x, t, level_lo)
    hi = model.quantile(x, t, level_hi)
    return np.minimum(lo, hi), np.maximum(lo, hi)
