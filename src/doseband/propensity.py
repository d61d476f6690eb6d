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
# how far mixing weights may sum from 1; EM's sum to 1 within about n * eps
MIX_WEIGHT_SUM_TOL = 1e-9


def _design(x: np.ndarray, basis: Callable | None) -> np.ndarray:
    b = x if basis is None else np.asarray(basis(x), dtype=float)
    return np.column_stack([np.ones(b.shape[0]), b])


@dataclass(frozen=True)
class MixtureGps:
    """Gaussian-mixture conditional density with affine component means.

    Construction checks the fields without copying them: ``mix_weights``
    is a vector of finite weights >= 0 summing to 1 within
    ``MIX_WEIGHT_SUM_TOL``, ``betas`` has one finite row per weight, and
    ``variances`` one finite, positive entry per weight. A query whose
    design has another number of columns than ``betas`` raises
    ``ValueError`` naming both.
    """

    mix_weights: np.ndarray
    betas: np.ndarray  # (k, q) coefficients incl. intercept
    variances: np.ndarray  # (k,)
    basis: Callable | None = None

    def __post_init__(self):
        # checked as Python floats: k is small, and a numpy call per check
        # would cost several times the checks themselves
        w, var = np.asarray(self.mix_weights, dtype=float), np.asarray(self.variances, dtype=float)
        betas = np.asarray(self.betas, dtype=float)
        if w.ndim != 1 or not all(0.0 <= v < math.inf for v in w.tolist()):
            raise ValueError("mix_weights must be a vector of finite weights >= 0")
        total = math.fsum(w.tolist())
        if abs(total - 1.0) > MIX_WEIGHT_SUM_TOL:
            raise ValueError(f"mix_weights must sum to 1, got {total!r}")
        if betas.ndim != 2 or len(betas) != len(w):
            raise ValueError(f"betas must be 2-d with one row per mixing weight, got shape {betas.shape}")
        if not all(math.isfinite(v) for v in betas.ravel().tolist()):
            raise ValueError("betas must be finite")
        if var.shape != w.shape or not all(0.0 < v < math.inf for v in var.tolist()):
            raise ValueError("variances must hold one finite, positive entry per mixing weight")

    def density(self, t, x):
        return query_rows(self._density, t, x)

    def _density(self, t, x):
        Z = _design(x, self.basis)
        if Z.shape[1] != len(self.betas[0]):
            raise ValueError(f"the query's design has {Z.shape[1]} columns, but betas has {len(self.betas[0])}")
        out = np.zeros_like(t)
        for pi_k, beta_k, var_k in zip(self.mix_weights, self.betas, self.variances, strict=True):
            out += pi_k * _normal_density(t, Z @ beta_k, math.sqrt(var_k))
        return out


@dataclass(frozen=True)
class CallableGps:
    """Wrap an arbitrary density function f(t, x) as a GPS model."""

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def density(self, t, x):
        return query_rows(self.fn, t, x)


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
    """EM outcome for each of a batch of starts (leading axis). A collapsed
    start's ``pis`` and ``betas`` are zeros and its ``resp`` is its start's."""

    loglik: np.ndarray  # final log-likelihood; -inf for a collapsed start
    pis: np.ndarray  # (starts, k) mixing weights
    betas: np.ndarray  # (starts, k, q) component coefficients
    resp: np.ndarray  # (starts, k, n) responsibilities of the final E-step
    converged: np.ndarray  # (starts,) bool
    collapsed: np.ndarray  # (starts,) bool
    iterations: np.ndarray  # (starts,) EM iterations run


def _fed_full_rank(pi, gram, trace, cutoff, certify):
    """Whether each component is fed, its mixing weight ``pi`` at least
    ``MIN_MIX_WEIGHT``, and its Gram matrix (a row of ``gram``, with
    trace ``trace``) has an eigenvalue ratio above ``cutoff``.

    A Gram matrix G (q, q) is positive semi-definite, so lambda_max <=
    tr G and lambda_min >= det G / lambda_max^(q-1) >= det G / tr G^(q-1):
    lambda_min / lambda_max >= det G / tr G^q. With ``certify``, a fed
    component with det G > 1e3 * cutoff * tr G^q has full rank, the
    factor 1e3 covering the rounding of det and of eigvalsh. ``eigvalsh``
    decides every other fed component, and every one without ``certify``,
    so the answer is eigvalsh's for every component.
    """
    fed = pi >= MIN_MIX_WEIGHT
    ok = fed & (np.linalg.det(gram) > 1e3 * cutoff * trace ** gram.shape[-1]) if certify else np.zeros_like(fed)
    if not ok.all():
        unsure = fed & ~ok
        eig = np.linalg.eigvalsh(gram[unsure])
        ok[unsure] = eig[:, 0] > cutoff * eig[:, -1]
    return ok


def _run_em(Z, t, resp0, max_iter, rel_tol) -> _EmRun:
    """EM for a mixture of Gaussian linear regressions (MLE variances),
    run for every start of ``resp0`` (starts, k, n) as one computation.

    Each start stops on its own: converged once its log-likelihood
    changes by at most ``rel_tol * (1 + |previous|)``, unconverged after
    ``max_iter`` iterations, or collapsed when a component starves
    (mixing weight below ``MIN_MIX_WEIGHT``), its weighted design is
    rank deficient or its variance falls below ``VARIANCE_FLOOR``. The
    M-step solves the weighted normal equations of every start and
    component at once from a table of the per-row products Z_i Z_i^T and
    Z_i t_i; the design counts as rank deficient when the Gram matrix's
    eigenvalue ratio is at or below lstsq's default cutoff
    eps * max(n, q). ``Z`` is a ``_design`` matrix, so its first column
    is the intercept and the table's first column, Z_i0 Z_i0, is 1: the
    mixing weights are read from those weighted sums instead of summing
    the responsibilities.

    A determinant bound certifies most Gram matrices' rank without
    eigenvalues (see ``_fed_full_rank``). ``eigvalsh`` decides the rest
    by the rule above, and every component when the bound's tr^q could
    overflow, so a start collapses at the iteration it would under
    ``eigvalsh`` alone.

    Starts do not interact: every operation acts on each start's own
    slice, so a start's iterates are those of its own one-start run. The
    loop carries only the running starts as one flat batch of (start,
    component) rows, compacted whenever some stop or collapse, tests
    convergence in Python floats, and writes a start's outputs once,
    when it stops.
    A one-iteration run from a result's ``resp`` continues every start
    that did not collapse from its last E-step: ``_run_em(Z, t, em.resp,
    1, rel_tol)`` steps EM one iteration on.
    """
    n_starts, k, n = resp0.shape
    q = Z.shape[1]
    moments = np.hstack([(Z[:, :, None] * Z[:, None, :]).reshape(n, q * q), Z * t[:, None]])
    diag = slice(0, q * q, q + 1)  # the table's columns Z_ij Z_ij
    cutoff = np.finfo(float).eps * max(n, q)
    # every trace is at most n * max_i |Z_i|^2 >= n; while that bound's q-th
    # power is finite, so are every det and tr^q of the certificate
    certify = q * math.log(n * float(moments[:, diag].sum(axis=1).max())) < 700.0

    resp = np.array(resp0, dtype=float)
    pis = np.zeros((n_starts, k))
    betas = np.zeros((n_starts, k, q))
    loglik = np.full(n_starts, -np.inf)
    converged = np.zeros(n_starts, dtype=bool)
    collapsed = np.zeros(n_starts, dtype=bool)
    iterations = np.zeros(n_starts, dtype=int)
    run = np.arange(n_starts)
    # r, sums, pi, gram, beta, e2 and var hold one row per running start and
    # component, start by start; prev holds each running start's last
    # log-likelihood as a Python float
    r, prev = resp.reshape(-1, n), [-math.inf] * n_starts
    it = 0
    while run.size and it < max_iter:
        sums = r @ moments
        pi = sums[:, 0] / n
        gram = sums[:, : q * q].reshape(-1, q, q)
        ranked = _fed_full_rank(pi, gram, sums[:, diag].sum(axis=1), cutoff, certify)
        if not ranked.all():
            ok = ranked.reshape(-1, k).all(axis=1)
            collapsed[run[~ok]], iterations[run[~ok]] = True, it
            rows = np.repeat(ok, k)
            run, r, pi, gram, sums = run[ok], r[rows], pi[rows], gram[rows], sums[rows]
            prev = [p for p, keep in zip(prev, ok.tolist()) if keep]
        beta = np.linalg.solve(gram, sums[:, q * q :, None])[:, :, 0]
        e2 = beta @ Z.T
        np.subtract(t, e2, out=e2)
        e2 *= e2
        var = np.einsum("in,in->i", r, e2) / (pi * n)
        if not var.min(initial=math.inf) >= VARIANCE_FLOOR:
            ok = np.all(var.reshape(-1, k) >= VARIANCE_FLOOR, axis=1)
            collapsed[run[~ok]], iterations[run[~ok]] = True, it
            rows = np.repeat(ok, k)
            run, pi, beta, e2, var = run[ok], pi[rows], beta[rows], e2[rows], var[rows]
            prev = [p for p, keep in zip(prev, ok.tolist()) if keep]

        # E-step: log pi - log(2 pi var) / 2 - e^2 / (2 var), normalised
        # over the components by log-sum-exp, all in e2's buffer
        e2 *= (-0.5 / var)[:, None]
        e2 += (np.log(pi) - 0.5 * np.log(2.0 * np.pi * var))[:, None]
        e3 = e2.reshape(-1, k, n)  # (running, k, n) view
        top = e3.max(axis=1, keepdims=True)
        e3 -= top
        np.exp(e2, out=e2)
        total = e3.sum(axis=1, keepdims=True)
        ll = (top + np.log(total)).sum(axis=(1, 2))
        e3 /= total
        it += 1

        lls = ll.tolist()
        done = [p > -math.inf and abs(v - p) <= rel_tol * (1.0 + abs(p)) for v, p in zip(lls, prev)]
        if it == max_iter or any(done):
            done = np.array(done, dtype=bool)
            stop = done | (it == max_iter)
            out = run[stop]
            pis[out], betas[out], resp[out] = pi.reshape(-1, k)[stop], beta.reshape(-1, k, q)[stop], e3[stop]
            loglik[out], converged[out], iterations[out] = ll[stop], done[stop], it
            run, e2, lls = run[~stop], e3[~stop].reshape(-1, n), ll[~stop].tolist()
        r, prev = e2, lls
    return _EmRun(loglik, pis, betas, resp, converged, collapsed, iterations)


def _quantile_split_init(resid, k):
    """Hard (k, n) assignment of the rows to the k quantile bins of the
    OLS residuals."""
    edges = np.percentile(resid, np.linspace(0, 100, k + 1))
    groups = np.searchsorted(edges[1:-1], resid, side="right")
    return (groups == np.arange(k)[:, None]).astype(float)


def _all_collapsed(k: int) -> RuntimeError:
    return RuntimeError(
        f"every EM start collapsed for {k} component(s); the data cannot support this mixture"
    )


def fit_gaussian_mixture(
    data: Dataset,
    train,
    max_components: int = 2,
    rng: Rng | None = None,
) -> tuple[MixtureGps, FitReport]:
    """Fit a Gaussian mixture of linear regressions, selected by BIC.
    Each component mean is affine in the raw covariates.

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

    A ``max_components`` that is not a positive integer, a bool included,
    raises ``ValueError``; an ``rng`` that is neither a ``dist.Rng`` nor
    None raises ``TypeError``.
    """
    # a bool is an int, but True is no count of components
    integer = isinstance(max_components, (int, np.integer)) and not isinstance(max_components, bool)
    if not integer or max_components < 1:
        raise ValueError("max_components must be a positive integer")
    if rng is None:
        rng = Rng(0)
    elif not isinstance(rng, Rng):
        raise TypeError(f"rng must be a dist.Rng or None, got {type(rng).__name__}")
    train = np.asarray(train)
    Z = _design(data.x[train], None)
    t = data.t[train]
    n, q = Z.shape
    if n <= 10 * (data.p + 2) * max_components:
        raise ValueError(
            f"need more than {10 * (data.p + 2) * max_components} training rows, got {n}"
        )
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
    model = MixtureGps(mix_weights=pis, betas=betas, variances=corrected)
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
