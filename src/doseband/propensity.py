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
from typing import Callable, NamedTuple

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
    """Model-selection summary: bic = n_params*ln(n) - 2*log_likelihood.

    ``iterations`` counts the EM iterations of the selected start (0 for
    the closed-form one-component fit); ``collapsed_starts`` counts the
    EM starts dropped as collapsed over every number of components.
    """

    log_likelihood: float
    n_params: int
    bic: float
    n_components: int = 1
    converged: bool = True
    iterations: int = 0
    collapsed_starts: int = 0


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


# a mixing weight below this starves its component and collapses the start
MIN_MIX_WEIGHT = 1e-10


class _EmRun(NamedTuple):
    """EM outcome for each of a batch of starts (leading axis)."""

    loglik: np.ndarray  # final log-likelihood; -inf for a collapsed start
    pis: np.ndarray  # (starts, k) mixing weights
    betas: np.ndarray  # (starts, k, q) component coefficients
    resp: np.ndarray  # (starts, k, n) responsibilities of the final E-step
    converged: np.ndarray  # (starts,) bool
    collapsed: np.ndarray  # (starts,) bool
    iterations: np.ndarray  # (starts,) EM iterations run
    history: np.ndarray  # (max iterations, starts) log-likelihoods; NaN once stopped


def _run_em(Z, t, resp0, max_iter, rel_tol) -> _EmRun:
    """EM for a mixture of Gaussian linear regressions (MLE variances),
    run for every start of ``resp0`` (starts, k, n) as one computation.

    Each start stops on its own: it is frozen once its log-likelihood
    changes by at most ``rel_tol * (1 + |previous|)``, and dropped as
    collapsed when a component starves (mixing weight below
    ``MIN_MIX_WEIGHT``), its weighted design is rank deficient or its
    variance falls below ``VARIANCE_FLOOR``. The M-step solves the
    weighted normal equations of every start and component at once from
    a table of the per-row products Z_i Z_i^T and Z_i t_i; the design
    counts as rank deficient when the Gram matrix's eigenvalue ratio is
    at or below lstsq's default cutoff eps * max(n, q). A start's
    history is non-decreasing by the EM monotonicity property.
    """
    n_starts, k, n = resp0.shape
    q = Z.shape[1]
    moments = np.hstack([(Z[:, :, None] * Z[:, None, :]).reshape(n, q * q), Z * t[:, None]])
    cutoff = np.finfo(float).eps * max(n, q)

    resp = np.array(resp0, dtype=float)
    pis = np.zeros((n_starts, k))
    betas = np.zeros((n_starts, k, q))
    loglik = np.full(n_starts, -np.inf)
    converged = np.zeros(n_starts, dtype=bool)
    collapsed = np.zeros(n_starts, dtype=bool)
    iterations = np.zeros(n_starts, dtype=int)
    history = []
    run = np.arange(n_starts)
    while run.size and len(history) < max_iter:
        r = resp[run]
        pi = r.sum(axis=2) / n
        sums = (r.reshape(-1, n) @ moments).reshape(run.size, k, q * q + q)
        gram = sums[..., : q * q].reshape(run.size, k, q, q)
        eig = np.linalg.eigvalsh(gram)
        ok = np.all((pi >= MIN_MIX_WEIGHT) & (eig[..., 0] > cutoff * eig[..., -1]), axis=1)
        collapsed[run[~ok]] = True
        run, r, pi, gram, sums = run[ok], r[ok], pi[ok], gram[ok], sums[ok]
        beta = np.linalg.solve(gram, sums[..., q * q :, None])[..., 0]
        e = t - (beta.reshape(-1, q) @ Z.T).reshape(r.shape)
        var = (r * e * e).sum(axis=2) / (pi * n)
        ok = np.all(var >= VARIANCE_FLOOR, axis=1)
        collapsed[run[~ok]] = True
        run, pi, beta, e, var = run[ok], pi[ok], beta[ok], e[ok], var[ok]

        z = e / np.sqrt(var)[..., None]
        log_comp = np.log(pi)[..., None] - 0.5 * z * z - 0.5 * np.log(2 * np.pi * var)[..., None]
        top = log_comp.max(axis=1, keepdims=True)
        dens = np.exp(log_comp - top)
        total = dens.sum(axis=1, keepdims=True)
        ll = (top + np.log(total)).sum(axis=(1, 2))
        resp[run] = dens / total
        pis[run], betas[run] = pi, beta
        iterations[run] += 1

        prev = loglik[run]
        done = (prev > -np.inf) & (np.abs(ll - prev) <= rel_tol * (1.0 + np.abs(prev)))
        loglik[run] = ll
        converged[run[done]] = True
        row = np.full(n_starts, np.nan)
        row[run] = ll
        history.append(row)
        run = run[~done]
    loglik[collapsed] = -np.inf
    return _EmRun(loglik, pis, betas, resp, converged, collapsed, iterations, np.array(history))


def _quantile_split_init(resid, k):
    """Hard (k, n) assignment of the rows to the k quantile bins of the
    OLS residuals."""
    edges = np.percentile(resid, np.linspace(0, 100, k + 1))
    groups = np.clip(np.searchsorted(edges[1:-1], resid, side="right"), 0, k - 1)
    return (groups == np.arange(k)[:, None]).astype(float)


def _all_collapsed(k: int) -> RuntimeError:
    return RuntimeError(
        f"every EM start collapsed for {k} component(s); the data cannot support this mixture"
    )


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
    """Fit a Gaussian mixture of linear regressions, selected by BIC.

    For each k in 1..max_components the log-likelihood is maximized and
    the k minimizing BIC is returned.

    k = 1 has a closed form: the OLS coefficients, the MLE variance
    RSS / n and the exact log-likelihood -n/2 (log(2 pi RSS/n) + 1). A
    rank-deficient design or a variance below ``VARIANCE_FLOOR`` raises
    ``RuntimeError``.

    For k >= 2, EM (Dempster, Laird & Rubin 1977) runs from 1 +
    ``n_restarts`` starts at once: a deterministic residual-quantile
    split and ``n_restarts`` seeded Dirichlet assignments, stepped
    together as one (starts, k, n) responsibility array (see
    ``_run_em``). Each start stops at its own convergence. A start
    collapses, and is dropped, when a component starves (mixing weight
    below ``MIN_MIX_WEIGHT``), its weighted design is rank deficient, or
    its variance falls below ``VARIANCE_FLOOR``; ``RuntimeError`` is
    raised only when every start for some k collapses. The first start
    with the highest final log-likelihood wins.

    EM runs with maximum-likelihood variances (so the log-likelihood is
    monotone); the returned model's variances then get the weighted
    degrees-of-freedom correction sum(r*e^2)/(sum(r)-q), which makes the
    one-component fit coincide with ``fit_ols_gaussian`` exactly. The
    report gives the selected fit's EM iterations (0 for k = 1) and the
    number of starts that collapsed over every k.
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

    beta, _, rank, _ = np.linalg.lstsq(Z, t, rcond=None)
    resid = t - Z @ beta
    collapsed = 0
    best = None  # (bic, k, n_params, loglik, pis, betas, resp, converged, iterations)
    for k in range(1, max_components + 1):
        # each child stream draws the restarts for k after those for k - 1,
        # so the k = 1 draws are made although every k = 1 start is the same
        draws = [child.gen.dirichlet(np.ones(k), size=n).T for child in children]
        if k == 1:
            s2 = float(resid @ resid) / n
            if rank < q or s2 < VARIANCE_FLOOR:
                raise _all_collapsed(k)
            loglik = -0.5 * n * (math.log(2.0 * math.pi * s2) + 1.0)
            fit = (loglik, np.ones(1), beta[None, :], np.ones((1, n)), True, 0)
        else:
            resp0 = np.stack([_quantile_split_init(resid, k), *draws])
            em = _run_em(Z, t, resp0, max_iter, rel_tol)
            collapsed += int(em.collapsed.sum())
            if em.collapsed.all():
                raise _all_collapsed(k)
            s = int(np.argmax(em.loglik))
            fit = (float(em.loglik[s]), em.pis[s], em.betas[s], em.resp[s],
                   bool(em.converged[s]), int(em.iterations[s]))
        n_params = k * q + k + (k - 1)
        bic = n_params * math.log(n) - 2.0 * fit[0]
        if best is None or bic < best[0]:
            best = (bic, k, n_params, *fit)

    bic, k, n_params, loglik, pis, betas, resp, converged, iterations = best
    e = t - betas @ Z.T
    dof = np.maximum(resp.sum(axis=1) - q, 1.0)
    corrected = np.maximum((resp * e * e).sum(axis=1) / dof, VARIANCE_FLOOR)
    model = MixtureGps(mix_weights=pis, betas=betas, variances=corrected, basis=basis)
    report = FitReport(
        log_likelihood=loglik,
        n_params=n_params,
        bic=bic,
        n_components=k,
        converged=converged,
        iterations=iterations,
        collapsed_starts=collapsed,
    )
    return model, report
