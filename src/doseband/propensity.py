"""Generalized propensity score models: fitted conditional densities of
treatment given covariates, used as the denominator of stabilized weights.

A model is anything with a ``density(t, x)`` method returning the
conditional density of treatment ``t`` at covariates ``x``. The one
Gaussian model is ``MixtureGps``, a mixture of Gaussian linear
regressions: ``fit_gaussian_mixture`` fits it by EM and
``fit_ols_gaussian`` fits its one-component case by OLS. ``CallableGps``
wraps an arbitrary user density such as a truncated-normal oracle. A
Gaussian oracle with known mean function m and variance s2 is the
one-component ``MixtureGps(mix_weights=[1.0], betas=[[0.0, 1.0]],
variances=[s2], basis=m)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .data import Dataset, query_rows
from .dist import Rng, _normal_density

__all__ = [
    "MixtureGps",
    "CallableGps",
    "FitReport",
    "fit_ols_gaussian",
    "fit_gaussian_mixture",
]

VARIANCE_FLOOR = 1e-8


def _design(x: np.ndarray, basis: Callable | None) -> np.ndarray:
    b = x if basis is None else np.asarray(basis(x), dtype=float)
    if b.ndim == 1:
        b = b[:, None]
    return np.column_stack([np.ones(b.shape[0]), b])


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
        for pi_k, beta_k, var_k in zip(self.mix_weights, self.betas, self.variances, strict=True):
            out += pi_k * _normal_density(t, Z @ beta_k, math.sqrt(var_k))
        return float(out[0]) if scalar else out


@dataclass(frozen=True)
class CallableGps:
    """Wrap an arbitrary density function f(t, x) as a GPS model."""

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def density(self, t, x):
        t, x2, scalar = query_rows(t, x)
        out = np.asarray(self.fn(t, x2), dtype=float)
        return float(out.reshape(-1)[0]) if scalar else out


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


def fit_ols_gaussian(data: Dataset, train, basis: Callable | None = None) -> MixtureGps:
    """Fit T ~ Normal([1, basis(X)] @ beta, s2) by ordinary least squares,
    returned as a one-component ``MixtureGps`` (weight 1, ``betas`` the
    row beta, ``variances`` the entry s2).

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
    return MixtureGps(mix_weights=np.ones(1), betas=beta[None, :], variances=np.array([s2]), basis=basis)


# a mixing weight below this starves its component and collapses the start
MIN_MIX_WEIGHT = 1e-10
# EM tuning of fit_gaussian_mixture: seeded Dirichlet starts besides the
# quantile split, and each start's iteration cap and relative tolerance
N_RESTARTS = 5
MAX_ITER = 500
REL_TOL = 1e-8


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
    at or below lstsq's default cutoff eps * max(n, q). ``Z`` is a
    ``_design`` matrix, so its first column is the intercept and the
    table's first column, Z_i0 Z_i0, is 1: the mixing weights are read
    from those weighted sums instead of summing the responsibilities.

    Starts do not interact: every operation acts on each start's own
    slice, so a start's iterates are those of its own one-start run.
    While every start is still running, the loop works on the full
    responsibility array; the running starts are gathered by index only
    once one has stopped or collapsed. ``history`` has one row per
    iteration up to the longest run, (iterations.max(), starts), and a
    start's column is non-decreasing by the EM monotonicity property.
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
    history = np.full((max_iter, n_starts), np.nan)
    run = np.arange(n_starts)
    it = 0
    while run.size and it < max_iter:
        r = resp if run.size == n_starts else resp[run]
        sums = (r.reshape(-1, n) @ moments).reshape(run.size, k, q * q + q)
        pi = sums[..., 0] / n
        gram = sums[..., : q * q].reshape(run.size, k, q, q)
        eig = np.linalg.eigvalsh(gram)
        ok = np.all((pi >= MIN_MIX_WEIGHT) & (eig[..., 0] > cutoff * eig[..., -1]), axis=1)
        if not ok.all():
            collapsed[run[~ok]] = True
            run, r, pi, gram, sums = run[ok], r[ok], pi[ok], gram[ok], sums[ok]
        beta = np.linalg.solve(gram, sums[..., q * q :, None])[..., 0]
        e2 = (beta.reshape(-1, q) @ Z.T).reshape(r.shape)
        np.subtract(t, e2, out=e2)
        e2 *= e2
        var = np.einsum("skn,skn->sk", r, e2) / (pi * n)
        ok = np.all(var >= VARIANCE_FLOOR, axis=1)
        if not ok.all():
            collapsed[run[~ok]] = True
            run, pi, beta, e2, var = run[ok], pi[ok], beta[ok], e2[ok], var[ok]

        # E-step: log pi - log(2 pi var) / 2 - e^2 / (2 var), normalised
        # over the components by log-sum-exp, all in e2's buffer
        e2 *= (-0.5 / var)[..., None]
        e2 += (np.log(pi) - 0.5 * np.log(2.0 * np.pi * var))[..., None]
        top = e2.max(axis=1, keepdims=True)
        e2 -= top
        np.exp(e2, out=e2)
        total = e2.sum(axis=1, keepdims=True)
        ll = (top + np.log(total)).sum(axis=(1, 2))
        e2 /= total
        if run.size == n_starts:
            resp = e2
        else:
            resp[run] = e2
        pis[run], betas[run] = pi, beta
        iterations[run] += 1

        prev = loglik[run]
        done = (prev > -np.inf) & (np.abs(ll - prev) <= rel_tol * (1.0 + np.abs(prev)))
        loglik[run] = ll
        converged[run[done]] = True
        history[it, run] = ll
        it += 1
        run = run[~done]
    loglik[collapsed] = -np.inf
    history = history[: iterations.max(initial=0)]
    return _EmRun(loglik, pis, betas, resp, converged, collapsed, iterations, history)


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
) -> tuple[MixtureGps, FitReport]:
    """Fit a Gaussian mixture of linear regressions, selected by BIC.

    For each k in 1..max_components the log-likelihood is maximized and
    the k minimizing BIC is returned.

    k = 1 has a closed form: the OLS coefficients, the MLE variance
    RSS / n and the exact log-likelihood -n/2 (log(2 pi RSS/n) + 1). A
    rank-deficient design or a variance below ``VARIANCE_FLOOR`` raises
    ``RuntimeError``.

    For k >= 2, EM (Dempster, Laird & Rubin 1977) runs from 1 +
    ``N_RESTARTS`` starts at once: a deterministic residual-quantile
    split and ``N_RESTARTS`` seeded Dirichlet assignments, stepped
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
    if not isinstance(max_components, (int, np.integer)) or max_components < 1:
        raise ValueError("max_components must be a positive integer")
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
    children = rng.spawn(N_RESTARTS)

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
            em = _run_em(Z, t, resp0, MAX_ITER, REL_TOL)
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
