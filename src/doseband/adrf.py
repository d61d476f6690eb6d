"""Population average dose-response estimators.

Three estimators over a treatment grid:

* ``hirano_imbens_adrf``: imputation through the propensity density.
  Regress Y on a quadratic surface in (T, R) with R the GPS density at
  the observed pair, then average the fitted surface over units with R
  re-evaluated at each grid treatment.
* ``kernel_ipw_adrf``: kernel-smoothed inverse-probability estimate
  with stabilized weights, K~(T_i - t) = [f(T_i)/f(T_i|X_i)] K_h(T_i - t)
  and mu(t) = sum K~ Y / sum K~.
* ``local_linear_adrf``: local linear regression with the same
  stabilized kernel, mu(t) = (D0 S2 - D1 S1) / (S0 S2 - S1^2) with
  S_j = sum K~ (T_i - t)^j and D_j = sum K~ (T_i - t)^j Y_i.

Percentile bootstrap confidence bands refit everything per resample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .assignment import NormalAssignment, WeightConfig, stabilized_weight
from .data import Dataset
from .dist import NormalParams, Rng

__all__ = [
    "AdrfEstimate",
    "KernelConfig",
    "silverman_bandwidth",
    "fit_marginal_normal",
    "hirano_imbens_adrf",
    "kernel_ipw_adrf",
    "local_linear_adrf",
    "bootstrap_ci",
]


@dataclass(frozen=True)
class AdrfEstimate:
    t_grid: np.ndarray
    mu_hat: np.ndarray
    ci_lower: np.ndarray | None = None
    ci_upper: np.ndarray | None = None
    n_flagged: int = 0
    failed_resamples: int = 0

    def __post_init__(self):
        grid = np.array(self.t_grid, dtype=float)
        mu = np.array(self.mu_hat, dtype=float)
        if grid.shape != mu.shape:
            raise ValueError("t_grid and mu_hat lengths differ")
        for name in ("ci_lower", "ci_upper"):
            ci = getattr(self, name)
            if ci is not None and np.asarray(ci).shape != grid.shape:
                raise ValueError(f"{name} length differs from t_grid")
        object.__setattr__(self, "t_grid", grid)
        object.__setattr__(self, "mu_hat", mu)


@dataclass(frozen=True)
class KernelConfig:
    bandwidth: float
    kernel: str = "gaussian"

    def __post_init__(self):
        if not self.bandwidth > 0.0:
            raise ValueError("bandwidth must be positive")
        if self.kernel not in ("gaussian", "epanechnikov"):
            raise ValueError("kernel must be 'gaussian' or 'epanechnikov'")


def silverman_bandwidth(t) -> float:
    """Rule-of-thumb bandwidth 0.9 min(sd, IQR/1.34) n^(-1/5) on T."""
    t = np.asarray(t, dtype=float)
    sd = float(np.std(t, ddof=1))
    iqr = float(np.percentile(t, 75) - np.percentile(t, 25))
    spread = min(sd, iqr / 1.34) if iqr > 0 else sd
    if spread <= 0:
        raise ValueError("treatments are all identical; no bandwidth")
    return 0.9 * spread * len(t) ** (-0.2)


def fit_marginal_normal(t) -> NormalAssignment:
    """Moment-matched Normal for the marginal treatment density."""
    t = np.asarray(t, dtype=float)
    return NormalAssignment(NormalParams(float(np.mean(t)), float(np.var(t, ddof=1))))


def _kernel_values(u: np.ndarray, cfg: KernelConfig) -> np.ndarray:
    z = u / cfg.bandwidth
    if cfg.kernel == "gaussian":
        return np.exp(-0.5 * z * z) / (cfg.bandwidth * math.sqrt(2.0 * math.pi))
    return np.where(np.abs(z) <= 1.0, 0.75 * (1.0 - z * z) / cfg.bandwidth, 0.0)


def hirano_imbens_adrf(data: Dataset, gps, t_grid) -> AdrfEstimate:
    """Propensity-imputation estimator with a quadratic outcome surface.

    Degenerate designs fall back to the minimum-norm least-squares fit,
    which keeps single-unit and collinear inputs well defined.
    """
    grid = np.asarray(t_grid, dtype=float)
    r_obs = np.asarray(gps.density(data.t, data.x), dtype=float)
    T = data.t
    Z = np.column_stack([np.ones(data.n), T, T * T, r_obs, r_obs * r_obs, T * r_obs])
    alpha, *_ = np.linalg.lstsq(Z, data.y, rcond=None)
    mu = np.empty(len(grid))
    for i, t in enumerate(grid):
        r_t = np.asarray(gps.density(float(t), data.x), dtype=float)
        surf = (
            alpha[0]
            + alpha[1] * t
            + alpha[2] * t * t
            + alpha[3] * r_t
            + alpha[4] * r_t * r_t
            + alpha[5] * t * r_t
        )
        mu[i] = float(np.mean(surf))
    return AdrfEstimate(t_grid=grid, mu_hat=mu)


def kernel_ipw_adrf(data: Dataset, gps, marginal, kcfg: KernelConfig, t_grid) -> AdrfEstimate:
    """Stabilized kernel IPW ratio estimator; empty cells become NaN."""
    grid = np.asarray(t_grid, dtype=float)
    ratio = stabilized_weight(marginal, gps, WeightConfig(), data.t, data.x)
    mu = np.empty(len(grid))
    flagged = 0
    for i, t in enumerate(grid):
        k = ratio * _kernel_values(data.t - t, kcfg)
        denom = float(k.sum())
        if denom < 1e-12:
            mu[i] = math.nan
            flagged += 1
            continue
        mu[i] = float((k @ data.y) / denom)
    return AdrfEstimate(t_grid=grid, mu_hat=mu, n_flagged=flagged)


def local_linear_adrf(data: Dataset, gps, marginal, kcfg: KernelConfig, t_grid) -> AdrfEstimate:
    """Local linear fit under the stabilized kernel; singular local
    designs become NaN."""
    grid = np.asarray(t_grid, dtype=float)
    ratio = stabilized_weight(marginal, gps, WeightConfig(), data.t, data.x)
    mu = np.empty(len(grid))
    flagged = 0
    for i, t in enumerate(grid):
        k = ratio * _kernel_values(data.t - t, kcfg)
        peak = float(k.max())
        if peak <= 0.0:
            mu[i] = math.nan
            flagged += 1
            continue
        k = k / peak  # conditioning only; the ratio below is scale free
        u = data.t - t
        s0, s1, s2 = float(k.sum()), float(k @ u), float(k @ (u * u))
        d0, d1 = float(k @ data.y), float((k * u) @ data.y)
        denom = s0 * s2 - s1 * s1
        if denom <= 1e-12 * (1.0 + s0 * s2):
            mu[i] = math.nan
            flagged += 1
            continue
        mu[i] = (d0 * s2 - d1 * s1) / denom
    return AdrfEstimate(t_grid=grid, mu_hat=mu, n_flagged=flagged)


def bootstrap_ci(
    estimator: Callable[[Dataset], AdrfEstimate],
    data: Dataset,
    B: int,
    level: float,
    rng: Rng,
) -> AdrfEstimate:
    """Percentile bootstrap band around ``estimator(data)``.

    ``estimator`` must do its own fitting (including the GPS), so each
    resample refits everything. Resamples whose fit fails with a
    ``ValueError`` or ``RuntimeError`` (positivity, singular designs, an
    uncertified pinball fit, every EM start collapsing) are dropped and
    counted in ``failed_resamples``; any other exception propagates.
    Resample index sets come from child generators of ``rng``.
    """
    if B < 100:
        raise ValueError("need at least 100 bootstrap resamples")
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie strictly inside (0, 1)")
    point = estimator(data)
    kept = []
    for child in rng.spawn(B):
        resample = data.subset(child.gen.integers(0, data.n, size=data.n))
        try:
            kept.append(estimator(resample).mu_hat)
        except (ValueError, RuntimeError):
            continue
    failed = B - len(kept)
    if not kept:
        raise RuntimeError("every bootstrap resample failed")
    stacked = np.vstack(kept)
    lo_q = 100.0 * (1.0 - level) / 2.0
    hi_q = 100.0 * (1.0 + level) / 2.0
    ci_lo = np.nanpercentile(stacked, lo_q, axis=0)
    ci_hi = np.nanpercentile(stacked, hi_q, axis=0)
    return AdrfEstimate(
        t_grid=point.t_grid,
        mu_hat=point.mu_hat,
        ci_lower=ci_lo,
        ci_upper=ci_hi,
        n_flagged=point.n_flagged,
        failed_resamples=failed,
    )
