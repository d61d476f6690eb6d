import math

import numpy as np
import pytest
from scipy import integrate

from doseband.data import Dataset
from doseband.dist import Rng
from doseband.propensity import (
    CallableGps,
    MixtureGps,
    OracleGaussianGps,
    fit_gaussian_mixture,
    fit_ols_gaussian,
)
from doseband.propensity import _run_em, _quantile_split_init, _design


def _s1_covariates(n, gen):
    x1 = gen.normal(1.0, 1.0, n)
    x2 = gen.normal(1.0, 1.0, n)
    x3 = gen.normal(4.0, 1.0, n)
    return np.column_stack([x1, x2, x3])


def _s1_gps_basis(x):
    return np.column_stack([x[:, 0], x[:, 1] ** 2, x[:, 2]])


class TestOlsGaussian:
    def test_noiseless_affine_recovery_and_floor(self):
        gen = Rng(0).gen
        x = gen.normal(size=(50, 2))
        t = 1.0 + 2.0 * x[:, 0] - 3.0 * x[:, 1]
        d = Dataset(gen.normal(size=50), t, x)
        m = fit_ols_gaussian(d, np.arange(50))
        np.testing.assert_allclose(m.beta, [1.0, 2.0, -3.0], atol=1e-8)
        assert m.s2 == 1e-8  # zero residual variance hits the floor

    def test_scenario1_coefficients_within_3se(self):
        # T | X ~ N(X1 - X2^2 + 0.5*X3, 20) with the correctly specified basis
        gen = Rng(42).gen
        n = 5000
        x = _s1_covariates(n, gen)
        mean = x[:, 0] - x[:, 1] ** 2 + 0.5 * x[:, 2]
        t = mean + math.sqrt(20.0) * gen.normal(size=n)
        d = Dataset(np.zeros(n), t, x)
        m = fit_ols_gaussian(d, np.arange(n), basis=_s1_gps_basis)
        Z = _design(_s1_gps_basis(x), None)
        cov = m.s2 * np.linalg.inv(Z.T @ Z)
        se = np.sqrt(np.diag(cov))
        truth = np.array([0.0, 1.0, -1.0, 0.5])
        assert np.all(np.abs(m.beta - truth) <= 3.0 * se)

    def test_density_peak(self):
        gen = Rng(1).gen
        x = gen.normal(size=(200, 1))
        t = 0.5 * x[:, 0] + gen.normal(size=200)
        d = Dataset(np.zeros(200), t, x)
        m = fit_ols_gaussian(d, np.arange(200))
        x0 = np.array([0.7])
        t0 = float(m.mean(x0)[0])
        assert m.density(t0, x0) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi * m.s2), rel=1e-12
        )

    def test_rank_deficiency(self):
        gen = Rng(2).gen
        x = np.column_stack([gen.normal(size=30)] * 2)  # duplicated column
        d = Dataset(np.zeros(30), gen.normal(size=30), x)
        with pytest.raises(ValueError, match="rank"):
            fit_ols_gaussian(d, np.arange(30))


class TestMixtureEm:
    def _single_gaussian_data(self, n=2000, seed=7):
        gen = Rng(seed).gen
        x = gen.normal(size=(n, 2))
        t = 1.0 + x[:, 0] - 0.5 * x[:, 1] + 0.8 * gen.normal(size=n)
        return Dataset(np.zeros(n), t, x)

    def test_bic_selects_one_component_on_single_gaussian(self):
        d = self._single_gaussian_data()
        model, report = fit_gaussian_mixture(d, np.arange(d.n), max_components=2, rng=Rng(1))
        assert report.n_components == 1
        ols = fit_ols_gaussian(d, np.arange(d.n))
        np.testing.assert_allclose(model.betas[0], ols.beta, atol=1e-6)

    def test_one_component_density_matches_ols_exactly(self):
        d = self._single_gaussian_data()
        model, _ = fit_gaussian_mixture(d, np.arange(d.n), max_components=1, rng=Rng(1))
        ols = fit_ols_gaussian(d, np.arange(d.n))
        pts_t = np.linspace(-3, 5, 41)
        for t in pts_t:
            xq = np.array([0.3, -1.2])
            assert model.density(t, xq) == pytest.approx(ols.density(t, xq), abs=1e-12)

    def test_two_component_recovery(self):
        gen = Rng(11).gen
        n = 5000
        x = gen.normal(size=(n, 1))
        comp = gen.random(n) < 0.35
        t = np.where(
            comp,
            8.0 + 1.0 * x[:, 0] + 0.7 * gen.normal(size=n),
            -4.0 - 2.0 * x[:, 0] + 1.0 * gen.normal(size=n),
        )
        d = Dataset(np.zeros(n), t, x)
        model, report = fit_gaussian_mixture(d, np.arange(n), max_components=2, rng=Rng(5))
        assert report.n_components == 2
        assert abs(min(model.mix_weights) - 0.35) < 0.05

    def test_em_loglik_monotone(self):
        d = self._single_gaussian_data(n=800, seed=3)
        Z = _design(d.x, None)
        resp0 = _quantile_split_init(Z, d.t, 2)
        _, _, _, _, history = _run_em(Z, d.t, resp0, max_iter=200, rel_tol=1e-10)
        diffs = np.diff(np.asarray(history))
        assert np.all(diffs >= -1e-8 * (1.0 + np.abs(np.asarray(history[:-1]))))

    def test_bic_formula(self):
        d = self._single_gaussian_data(n=1200, seed=9)
        _, report = fit_gaussian_mixture(d, np.arange(d.n), max_components=2, rng=Rng(2))
        expected = report.n_params * math.log(d.n) - 2.0 * report.log_likelihood
        assert report.bic == pytest.approx(expected, rel=1e-12)

    def test_insufficient_rows_rejected(self):
        d = self._single_gaussian_data(n=60)
        with pytest.raises(ValueError, match="training rows"):
            fit_gaussian_mixture(d, np.arange(d.n), max_components=2)


class TestDensities:
    def test_oracle_gaussian(self):
        m = OracleGaussianGps(mean_fn=lambda x: x[:, 0] ** 2, variance=2.0)
        x = np.array([1.5])
        expect = 1.0 / math.sqrt(4.0 * math.pi) * math.exp(-((3.0 - 2.25) ** 2) / 4.0)
        assert m.density(3.0, x) == pytest.approx(expect, rel=1e-12)

    def test_callable_gps(self):
        m = CallableGps(fn=lambda t, x: np.exp(-np.abs(t)) / 2.0)
        assert m.density(0.0, np.array([1.0])) == pytest.approx(0.5)

    def test_density_integrates_to_one_every_variant(self):
        gen = Rng(4).gen
        x = gen.normal(size=(300, 2))
        t = x[:, 0] + 0.5 * gen.normal(size=300)
        d = Dataset(np.zeros(300), t, x)
        ols = fit_ols_gaussian(d, np.arange(300))
        mix = MixtureGps(
            mix_weights=np.array([0.4, 0.6]),
            betas=np.array([[0.0, 1.0, 0.0], [1.0, 0.5, -0.5]]),
            variances=np.array([0.5, 2.0]),
        )
        oracle = OracleGaussianGps(mean_fn=lambda z: z[:, 0], variance=1.5)
        xq = np.array([0.4, -0.9])
        for model in (ols, mix, oracle):
            val, _ = integrate.quad(lambda u: model.density(u, xq), -30, 30, limit=200)
            assert val == pytest.approx(1.0, abs=1e-4)

    def test_vectorized_rows(self):
        m = OracleGaussianGps(mean_fn=lambda x: x[:, 0], variance=1.0)
        x = np.array([[0.0], [1.0], [2.0]])
        t = np.array([0.0, 1.0, 2.0])
        out = m.density(t, x)
        assert out.shape == (3,)
        assert np.allclose(out, 1.0 / math.sqrt(2 * math.pi))
