import math

import numpy as np
import pytest

from doseband.adrf import (
    AdrfEstimate,
    KernelConfig,
    bootstrap_ci,
    fit_marginal_normal,
    hirano_imbens_adrf,
    kernel_ipw_adrf,
    local_linear_adrf,
    silverman_bandwidth,
)
from doseband.assignment import PositivityError
from doseband.data import Dataset
from doseband.dist import Rng
from doseband.propensity import CallableGps, fit_ols_gaussian


def _flat_gps():
    return CallableGps(fn=lambda t, x: np.ones_like(np.asarray(t, dtype=float)))


def _flat_marginal():
    # constant numerator: weights reduce to plain kernel weights
    from doseband.assignment import UniformAssignment

    return UniformAssignment(-1e6, 1e6)


class TestHiranoImbens:
    def test_intercept_only_surface(self):
        gen = Rng(0).gen
        n = 50
        d = Dataset(np.full(n, 4.0), gen.normal(size=n), gen.normal(size=(n, 1)))
        est = hirano_imbens_adrf(d, _flat_gps(), np.linspace(-1, 1, 5))
        np.testing.assert_allclose(est.mu_hat, 4.0, atol=1e-8)

    def test_recovers_pure_quadratic(self):
        gen = Rng(1).gen
        n = 2000
        x = gen.normal(size=(n, 1))
        t = 0.5 * x[:, 0] + gen.normal(size=n)
        y = 1.0 + 2.0 * t - 0.5 * t * t + gen.normal(size=n)
        d = Dataset(y, t, x)
        gps = fit_ols_gaussian(d, np.arange(n))
        grid = np.array([-1.0, 0.0, 1.0, 2.0])
        est = hirano_imbens_adrf(d, gps, grid)
        truth = 1.0 + 2.0 * grid - 0.5 * grid**2
        # ~3 SE bounds frozen from independent replications at n=2000
        assert np.all(np.abs(est.mu_hat - truth) <= 0.25)

    def test_single_unit_equals_fitted_surface(self):
        d = Dataset(np.array([3.0]), np.array([1.0]), np.array([[0.5]]))
        est = hirano_imbens_adrf(d, _flat_gps(), np.array([1.0]))
        # with one unit the averaged surface is that unit's fit: y itself at t=T_1
        assert est.mu_hat[0] == pytest.approx(3.0, abs=1e-8)


class TestKernelIpw:
    def test_flat_weights_is_nadaraya_watson(self):
        gen = Rng(2).gen
        n = 500
        t = gen.uniform(-2, 2, n)
        y = np.sin(t) + 0.1 * gen.normal(size=n)
        d = Dataset(y, t, gen.normal(size=(n, 1)))
        cfg = KernelConfig(bandwidth=0.3)
        est = kernel_ipw_adrf(d, _flat_gps(), _flat_marginal(), cfg, np.array([0.0, 1.0]))
        for i, t0 in enumerate([0.0, 1.0]):
            k = np.exp(-0.5 * ((t - t0) / 0.3) ** 2)
            nw = (k @ y) / k.sum()
            assert est.mu_hat[i] == pytest.approx(nw, rel=1e-10)

    def test_constant_response(self):
        gen = Rng(3).gen
        n = 200
        d = Dataset(np.full(n, 7.0), gen.normal(size=n), gen.normal(size=(n, 1)))
        gps = fit_ols_gaussian(d, np.arange(n))
        est = kernel_ipw_adrf(
            d, gps, fit_marginal_normal(d.t), KernelConfig(silverman_bandwidth(d.t)), [0.0, 0.5]
        )
        np.testing.assert_allclose(est.mu_hat, 7.0, rtol=1e-12)

    def test_linear_truth_small_bias_vs_direct_sum(self):
        gen = Rng(4).gen
        n = 4000
        t = gen.uniform(0, 4, n)
        y = 2.0 + 1.5 * t + 0.2 * gen.normal(size=n)
        d = Dataset(y, t, gen.normal(size=(n, 1)))
        cfg = KernelConfig(bandwidth=0.2)
        grid = np.array([1.0, 2.0, 3.0])
        est = kernel_ipw_adrf(d, _flat_gps(), _flat_marginal(), cfg, grid)
        # direct-sum oracle at each grid point
        for i, t0 in enumerate(grid):
            k = np.exp(-0.5 * ((t - t0) / 0.2) ** 2) / (0.2 * math.sqrt(2 * math.pi))
            const = 1.0 / 2e6  # uniform numerator density
            oracle = ((const * k) @ y) / (const * k).sum()
            assert est.mu_hat[i] == pytest.approx(oracle, rel=1e-10)
        assert np.all(np.abs(est.mu_hat - (2.0 + 1.5 * grid)) < 0.1)  # O(h^2) bias

    def test_empty_cell_flagged(self):
        gen = Rng(5).gen
        n = 100
        t = gen.uniform(0, 1, n)
        d = Dataset(np.zeros(n), t, gen.normal(size=(n, 1)))
        cfg = KernelConfig(bandwidth=0.05, kernel="epanechnikov")
        est = kernel_ipw_adrf(d, _flat_gps(), _flat_marginal(), cfg, np.array([50.0]))
        assert math.isnan(est.mu_hat[0])
        assert est.n_flagged == 1


class TestLocalLinear:
    def test_exact_on_linear(self):
        gen = Rng(6).gen
        n = 300
        t = gen.uniform(-3, 3, n)
        y = 2.0 + 3.0 * t
        d = Dataset(y, t, gen.normal(size=(n, 1)))
        cfg = KernelConfig(bandwidth=0.5)
        grid = np.linspace(-2, 2, 9)
        est = local_linear_adrf(d, _flat_gps(), _flat_marginal(), cfg, grid)
        np.testing.assert_allclose(est.mu_hat, 2.0 + 3.0 * grid, atol=1e-9)

    def test_symmetric_design_reduces_to_kernel_ipw(self):
        # exactly symmetric treatments around t=0: S1 vanishes
        t = np.concatenate([np.linspace(-2, -0.1, 20), np.linspace(0.1, 2, 20)])
        y = np.cos(t)  # even function keeps D1 = 0 too
        d = Dataset(y, t, np.zeros((40, 1)))
        cfg = KernelConfig(bandwidth=0.7)
        ll = local_linear_adrf(d, _flat_gps(), _flat_marginal(), cfg, np.array([0.0]))
        nw = kernel_ipw_adrf(d, _flat_gps(), _flat_marginal(), cfg, np.array([0.0]))
        assert ll.mu_hat[0] == pytest.approx(nw.mu_hat[0], rel=1e-10)

    def test_matches_weighted_least_squares_oracle(self):
        gen = Rng(7).gen
        n = 60
        t = gen.uniform(0, 2, n)
        y = gen.normal(size=n)
        d = Dataset(y, t, gen.normal(size=(n, 1)))
        cfg = KernelConfig(bandwidth=0.4)
        grid = np.array([0.5, 1.0, 1.5])
        est = local_linear_adrf(d, _flat_gps(), _flat_marginal(), cfg, grid)
        for i, t0 in enumerate(grid):
            k = np.exp(-0.5 * ((t - t0) / 0.4) ** 2)
            Z = np.column_stack([np.ones(n), t - t0])
            W = np.diag(k)
            beta = np.linalg.solve(Z.T @ W @ Z, Z.T @ W @ y)  # 2x2 normal equations
            assert est.mu_hat[i] == pytest.approx(beta[0], rel=1e-8)

    def test_singular_design_flagged(self):
        d = Dataset(np.array([1.0, 2.0]), np.array([1.0, 1.0]), np.zeros((2, 1)))
        cfg = KernelConfig(bandwidth=0.5)
        est = local_linear_adrf(d, _flat_gps(), _flat_marginal(), cfg, np.array([1.0]))
        assert math.isnan(est.mu_hat[0]) and est.n_flagged == 1


class TestBootstrap:
    def _estimator(self):
        def run(d: Dataset) -> AdrfEstimate:
            gps = fit_ols_gaussian(d, np.arange(d.n))
            return hirano_imbens_adrf(d, gps, np.array([0.0, 1.0]))

        return run

    def test_zero_variance_zero_width(self):
        gen = Rng(8).gen
        n = 60
        d = Dataset(np.full(n, 2.0), gen.normal(size=n), gen.normal(size=(n, 1)))
        est = bootstrap_ci(self._estimator(), d, B=100, level=0.95, rng=Rng(9))
        np.testing.assert_allclose(est.ci_upper - est.ci_lower, 0.0, atol=1e-8)

    def test_ci_widens_with_level(self):
        gen = Rng(10).gen
        n = 80
        x = gen.normal(size=(n, 1))
        t = 0.3 * x[:, 0] + gen.normal(size=n)
        y = 1.0 + t + gen.normal(size=n)
        d = Dataset(y, t, x)
        est90 = bootstrap_ci(self._estimator(), d, B=200, level=0.90, rng=Rng(11))
        est99 = bootstrap_ci(self._estimator(), d, B=200, level=0.99, rng=Rng(11))
        assert np.all(
            (est99.ci_upper - est99.ci_lower) >= (est90.ci_upper - est90.ci_lower) - 1e-12
        )

    def test_same_seed_identical(self):
        gen = Rng(12).gen
        n = 60
        x = gen.normal(size=(n, 1))
        t = 0.3 * x[:, 0] + gen.normal(size=n)
        y = 1.0 + t + gen.normal(size=n)
        d = Dataset(y, t, x)
        a = bootstrap_ci(self._estimator(), d, B=120, level=0.9, rng=Rng(13))
        b = bootstrap_ci(self._estimator(), d, B=120, level=0.9, rng=Rng(13))
        np.testing.assert_array_equal(a.ci_lower, b.ci_lower)
        np.testing.assert_array_equal(a.ci_upper, b.ci_upper)

    def test_fit_failures_dropped_other_errors_propagate(self):
        gen = Rng(15).gen
        n = 60
        d = Dataset(gen.normal(size=n), gen.normal(size=n), gen.normal(size=(n, 1)))
        fit = self._estimator()
        calls = []

        def failing(exc):
            def run(dd: Dataset) -> AdrfEstimate:
                calls.append(exc)
                if len(calls) % 10 == 0:
                    raise exc("resample fit failed")
                return fit(dd)

            return run

        est = bootstrap_ci(failing(ValueError), d, B=100, level=0.9, rng=Rng(16))
        assert est.failed_resamples == 10
        calls.clear()
        with pytest.raises(TypeError, match="resample fit failed"):
            bootstrap_ci(failing(TypeError), d, B=100, level=0.9, rng=Rng(16))

    def test_b_minimum(self):
        d = Dataset(np.zeros(10), np.arange(10.0), np.zeros((10, 1)))
        with pytest.raises(ValueError):
            bootstrap_ci(self._estimator(), d, B=50, level=0.9, rng=Rng(0))


class TestPositivity:
    def test_vanishing_gps_at_observed_treatment_raises(self):
        gen = Rng(17).gen
        n = 40
        d = Dataset(gen.normal(size=n), gen.normal(size=n), gen.normal(size=(n, 1)))
        t_bad = d.t[7]
        gps = CallableGps(fn=lambda t, x: np.where(t == t_bad, 0.0, 1.0))
        cfg = KernelConfig(bandwidth=0.5)
        for fn in (kernel_ipw_adrf, local_linear_adrf):
            with pytest.raises(PositivityError, match=repr(float(t_bad))):
                fn(d, gps, _flat_marginal(), cfg, np.array([0.0, 1.0]))


class TestInvariance:
    def test_row_permutation(self):
        gen = Rng(14).gen
        n = 150
        x = gen.normal(size=(n, 1))
        t = 0.4 * x[:, 0] + gen.normal(size=n)
        y = 1.0 + 2.0 * t + gen.normal(size=n)
        d = Dataset(y, t, x)
        perm = gen.permutation(n)
        dp = d.subset(perm)
        grid = np.array([0.0, 1.0])
        gps_a = fit_ols_gaussian(d, np.arange(n))
        gps_b = fit_ols_gaussian(dp, np.arange(n))
        cfg = KernelConfig(bandwidth=0.5)
        for fn in (
            lambda dd, gg: hirano_imbens_adrf(dd, gg, grid),
            lambda dd, gg: kernel_ipw_adrf(dd, gg, fit_marginal_normal(dd.t), cfg, grid),
            lambda dd, gg: local_linear_adrf(dd, gg, fit_marginal_normal(dd.t), cfg, grid),
        ):
            np.testing.assert_allclose(
                fn(d, gps_a).mu_hat, fn(dp, gps_b).mu_hat, rtol=1e-8
            )
