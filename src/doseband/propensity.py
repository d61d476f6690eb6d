"""Generalized propensity score models: fitted conditional densities of
treatment given covariates, used as the denominator of stabilized weights.

A model is anything with a ``density(t, x)`` method returning the
conditional density of treatment ``t`` at covariates ``x``. Three fitted
variants live here (Gaussian via OLS, Gaussian mixture via EM, and an
oracle Gaussian with a user-supplied mean function), plus a thin wrapper
for arbitrary user densities such as truncated-normal oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import Dataset, query_rows
from .dist import Rng

__all__ = [
    "GpsModel",
    "OracleGaussianGps",
    "OlsGaussianGps",
    "MixtureGps",
    "CallableGps",
    "FitReport",
    "fit_ols_gaussian",
    "fit_gaussian_mixture",
]

VARIANCE_FLOOR = 1e-8

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _design(x: np.ndarray, basis: Callable | None) -> np.ndarray:
    b = x if basis is None else np.asarray(basis(x), dtype=float)
    if b.ndim == 1:
        b = b[:, None]
    return np.column_stack([np.ones(b.shape[0]), b])


def _gauss(t, mean, var):
    z = (t - mean) / math.sqrt(var)
    return _INV_SQRT_2PI / math.sqrt(var) * np.exp(-0.5 * z * z)


@dataclass(frozen=True)
class OracleGaussianGps:
    """Normal conditional density with a known mean function and variance."""

    mean_fn: Callable[[np.ndarray], np.ndarray]
    variance: float

    def density(self, t, x):
        t, x2, scalar = query_rows(t, x)
        out = _gauss(t, np.asarray(self.mean_fn(x2), dtype=float), self.variance)
        return float(out[0]) if scalar else out


@dataclass(frozen=True)
class OlsGaussianGps:
    """Gaussian conditional density with an OLS-fitted affine mean.

    ``basis`` maps the covariate matrix to regression columns; the design
    gets an intercept prepended. ``s2`` is the residual variance.
    """

    beta: np.ndarray
    s2: float
    basis: Callable | None = None

    def mean(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return _design(x, self.basis) @ self.beta

    def density(self, t, x):
        t, x2, scalar = query_rows(t, x)
        out = _gauss(t, self.mean(x2), self.s2)
        return float(out[0]) if scalar else out


@dataclass(frozen=True)
class MixtureGps:
    """Gaussian-mixture conditional density with affine component means."""

    mix_weights: np.ndarray
    betas: np.ndarray  # (k, q) coefficients incl. intercept
    variances: np.ndarray  # (k,)
    basis: Callable | None = None

    def density(self, t, x):
        t, x2, scalar = query_rows(t, x)
        Z = _design(x2, self.basis)
        out = np.zeros_like(t)
        for pi_k, beta_k, var_k in zip(self.mix_weights, self.betas, self.variances):
            out += pi_k * _gauss(t, Z @ beta_k, var_k)
        return float(out[0]) if scalar else out


@dataclass(frozen=True)
class CallableGps:
    """Wrap an arbitrary density function f(t, x) as a GPS model."""

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def density(self, t, x):
        t, x2, scalar = query_rows(t, x)
        out = np.asarray(self.fn(t, x2), dtype=float)
        return float(out.reshape(-1)[0]) if scalar else out


GpsModel = OracleGaussianGps | OlsGaussianGps | MixtureGps | CallableGps


@dataclass(frozen=True)
class FitReport:
    """Model-selection summary: bic = n_params*ln(n) - 2*log_likelihood."""

    log_likelihood: float
    n_params: int
    bic: float
    n_components: int = 1
    converged: bool = True


def fit_ols_gaussian(data: Dataset, train, basis: Callable | None = None) -> OlsGaussianGps:
    """Fit T ~ Normal([1, basis(X)] @ beta, s2) by ordinary least squares.

    s2 is RSS / (n - q) with q the number of design columns; a floor of
    ``VARIANCE_FLOOR`` keeps the density finite on noiseless data.
    """
    train = np.asarray(train)
    Z = _design(data.x[train], basis)
    t = data.t[train]
    n, q = Z.shape
    if n <= q:
        raise ValueError(f"need more than {q} training rows, got {n}")
    beta, _, rank, _ = np.linalg.lstsq(Z, t, rcond=None)
    if rank < q:
        raise ValueError("GPS design matrix is rank deficient")
    resid = t - Z @ beta
    s2 = max(float(resid @ resid) / (n - q), VARIANCE_FLOOR)
    return OlsGaussianGps(beta=beta, s2=s2, basis=basis)


class _ComponentCollapse(Exception):
    pass


def _log_gauss(t, mean, var):
    z = (t - mean) / math.sqrt(var)
    return -0.5 * z * z - 0.5 * math.log(2.0 * math.pi * var)


def _wls(Z, t, w):
    sw = np.sqrt(w)
    beta, _, rank, _ = np.linalg.lstsq(sw[:, None] * Z, sw * t, rcond=None)
    if rank < Z.shape[1]:
        raise _ComponentCollapse
    return beta


def _m_step(Z, t, resp):
    n, q = Z.shape
    k = resp.shape[1]
    pis = resp.mean(axis=0)
    if np.any(pis < 1e-10):
        raise _ComponentCollapse
    betas = np.empty((k, q))
    variances = np.empty(k)
    for j in range(k):
        betas[j] = _wls(Z, t, resp[:, j])
        e = t - Z @ betas[j]
        variances[j] = float(resp[:, j] @ (e * e)) / float(resp[:, j].sum())
        if variances[j] < VARIANCE_FLOOR:
            raise _ComponentCollapse
    return pis, betas, variances


def _e_step(Z, t, pis, betas, variances):
    k = len(pis)
    log_comp = np.empty((len(t), k))
    for j in range(k):
        log_comp[:, j] = math.log(pis[j]) + _log_gauss(t, Z @ betas[j], variances[j])
    m = log_comp.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(log_comp - m).sum(axis=1))
    resp = np.exp(log_comp - lse[:, None])
    return resp, float(lse.sum())


def _run_em(Z, t, resp0, max_iter, rel_tol):
    """EM for a mixture of Gaussian linear regressions (MLE variances).

    Returns (loglik, params, responsibilities, converged, history). The
    history records the per-iteration log-likelihood, which is
    non-decreasing by the EM monotonicity property.
    """
    resp = resp0
    history: list[float] = []
    prev = -np.inf
    params = None
    converged = False
    for _ in range(max_iter):
        pis, betas, variances = _m_step(Z, t, resp)
        resp, loglik = _e_step(Z, t, pis, betas, variances)
        history.append(loglik)
        params = (pis, betas, variances)
        if prev > -np.inf and abs(loglik - prev) <= rel_tol * (1.0 + abs(prev)):
            converged = True
            break
        prev = loglik
    return history[-1], params, resp, converged, history


def _quantile_split_init(Z, t, k):
    beta, *_ = np.linalg.lstsq(Z, t, rcond=None)
    resid = t - Z @ beta
    edges = np.percentile(resid, np.linspace(0, 100, k + 1))
    groups = np.clip(np.searchsorted(edges[1:-1], resid, side="right"), 0, k - 1)
    resp = np.zeros((len(t), k))
    resp[np.arange(len(t)), groups] = 1.0
    return resp


def fit_gaussian_mixture(
    data: Dataset,
    train,
    max_components: int = 2,
    basis: Callable | None = None,
    rng: Rng | None = None,
    n_restarts: int = 5,
    max_iter: int = 500,
    rel_tol: float = 1e-8,
) -> tuple[MixtureGps, FitReport]:
    """EM fit of a Gaussian mixture of linear regressions, selected by BIC.

    For each k in 1..max_components the fit is started from a deterministic
    residual-quantile split plus ``n_restarts`` seeded random assignments;
    the best final log-likelihood wins, and the k minimizing BIC is
    returned. A component whose variance falls below ``VARIANCE_FLOOR``
    (or that starves) aborts that start; an error is raised only when
    every start for some k collapses.

    EM runs with maximum-likelihood variances (so the log-likelihood is
    monotone); the returned model's variances then get the weighted
    degrees-of-freedom correction sum(r*e^2)/(sum(r)-q), which makes the
    one-component fit coincide with ``fit_ols_gaussian`` exactly.
    """
    train = np.asarray(train)
    Z = _design(data.x[train], basis)
    t = data.t[train]
    n, q = Z.shape
    if n <= 10 * (data.p + 2) * max_components:
        raise ValueError(
            f"need more than {10 * (data.p + 2) * max_components} training rows, got {n}"
        )
    if rng is None:
        rng = Rng(0)
    children = rng.spawn(n_restarts)

    best = None  # (bic, k, loglik, params, resp, converged)
    for k in range(1, max_components + 1):
        starts = [_quantile_split_init(Z, t, k)]
        for child in children:
            r = child.gen.dirichlet(np.ones(k), size=n)
            starts.append(r)
        fits = []
        for resp0 in starts:
            try:
                fits.append(_run_em(Z, t, resp0, max_iter, rel_tol))
            except _ComponentCollapse:
                continue
        if not fits:
            raise RuntimeError(
                f"every EM start collapsed for {k} component(s); "
                "the data cannot support this mixture"
            )
        loglik, params, resp, converged, _ = max(fits, key=lambda f: f[0])
        n_params = k * q + k + (k - 1)
        bic = n_params * math.log(n) - 2.0 * loglik
        if best is None or bic < best[0]:
            best = (bic, k, loglik, params, resp, converged, n_params)

    bic, k, loglik, (pis, betas, variances), resp, converged, n_params = best
    corrected = np.empty_like(variances)
    for j in range(k):
        e = t - Z @ betas[j]
        dof = max(float(resp[:, j].sum()) - q, 1.0)
        corrected[j] = max(float(resp[:, j] @ (e * e)) / dof, VARIANCE_FLOOR)
    model = MixtureGps(mix_weights=pis, betas=betas, variances=corrected, basis=basis)
    report = FitReport(
        log_likelihood=loglik,
        n_params=n_params,
        bic=bic,
        n_components=k,
        converged=converged,
    )
    return model, report
