import math

import numpy as np
import pytest

from doseband.data import Dataset
from doseband.dist import Rng
from doseband.outcome import (
    LinearPinballModel,
    OracleQuantileModel,
    fit_linear_pinball,
    fit_ols_mean,
    pinball_loss,
    predict_quantile_pair,
)

Z95 = 1.6448536269514722


def s1_mean(x, t):
    x1, x2 = x[:, 0], x[:, 1]
    return x1 + x2 + t + x1**2 + x2**2 + t**2 + x1 * t + x2 * t + x1 * x2


def _affine_xt(x, t):
    return np.column_stack([np.ones(len(t)), x, t])


def _trunc_basis(x, t):
    return np.column_stack([np.ones(len(t)), x[:, 0], t, x[:, 0] * t])


class TestOracle:
    def test_scenario1_point_example(self):
        # mean at x=(1,1,4), t=0 is 5; the 5% quantile shifts down by z*sigma
        model = OracleQuantileModel(mean_fn=s1_mean, variance=9.0, levels=(0.05, 0.95))
        x = np.array([1.0, 1.0, 4.0])
        assert model.mean(x, 0.0) == pytest.approx(5.0)
        assert model.quantile(x, 0.0, 0.05) == pytest.approx(5.0 - Z95 * 3.0, abs=1e-6)

    def test_median_is_mean(self):
        model = OracleQuantileModel(mean_fn=s1_mean, variance=9.0)
        x = np.array([0.3, -1.0, 2.0])
        assert model.quantile(x, 1.2, 0.5) == pytest.approx(model.mean(x, 1.2), abs=1e-12)

    def test_interval_width_everywhere(self):
        # q_hi - q_lo = (z_hi - z_lo) * sigma = 2 * 1.64485 * 3 = 9.8691
        model = OracleQuantileModel(mean_fn=s1_mean, variance=9.0)
        gen = Rng(0).gen
        for _ in range(10):
            x = gen.normal(size=3)
            t = gen.normal()
            lo, hi = predict_quantile_pair(model, x, t, 0.05, 0.95)
            assert hi - lo == pytest.approx(2.0 * Z95 * 3.0, abs=1e-9)
        assert 2.0 * Z95 * 3.0 == pytest.approx(9.8691, abs=1e-4)


class TestLinearPinball:
    def test_median_matches_ols_symmetric_noise(self):
        gen = Rng(21).gen
        n = 5000
        x = gen.normal(size=(n, 2))
        t = gen.normal(size=n)
        y = 1.0 + 2.0 * x[:, 0] - x[:, 1] + 0.5 * t + gen.normal(size=n)
        d = Dataset(y, t, x)
        beta = fit_linear_pinball(d, np.arange(n), 0.5, _affine_xt)
        truth = np.array([1.0, 2.0, -1.0, 0.5])
        # asymptotic SE of the median regression is the OLS SE * 1.2533
        Z = _affine_xt(x, t)
        se = 1.2533 * np.sqrt(np.diag(np.linalg.inv(Z.T @ Z)))
        assert np.all(np.abs(beta - truth) <= 3.0 * se)

    def test_q95_coefficients_homoskedastic(self):
        # y = 3x + t + x*t + N(0, 9): the 95% quantile plane shifts the
        # intercept by z_0.95 * 3 and keeps the slopes
        gen = Rng(33).gen
        n = 5000
        x = gen.normal(size=(n, 1))
        t = np.clip(x[:, 0] ** 2 + 1.0 + gen.normal(size=n), 0.5, 5.0)
        y = 3.0 * x[:, 0] + t + x[:, 0] * t + 3.0 * gen.normal(size=n)
        d = Dataset(y, t, x)
        beta = fit_linear_pinball(d, np.arange(n), 0.95, _trunc_basis)
        truth = np.array([Z95 * 3.0, 3.0, 1.0, 1.0])
        # frozen ~3-SE bounds calibrated over independent replications
        assert np.all(np.abs(beta - truth) <= np.array([0.55, 0.50, 0.20, 0.15]))

    def test_constant_response(self):
        n = 200
        d = Dataset(np.full(n, 2.5), np.linspace(0, 1, n), Rng(0).gen.normal(size=(n, 1)))
        for level in (0.1, 0.5, 0.9):
            beta = fit_linear_pinball(d, np.arange(n), level, _affine_xt)
            pred = _affine_xt(d.x, d.t) @ beta
            np.testing.assert_allclose(pred, 2.5, atol=1e-6)

    def test_local_minimum_property(self):
        # nudging any coefficient by +-1e-3 cannot beat the fitted loss
        gen = Rng(5).gen
        n = 800
        x = gen.normal(size=(n, 2))
        t = gen.normal(size=n)
        y = x[:, 0] - x[:, 1] + t + gen.normal(size=n)
        d = Dataset(y, t, x)
        level = 0.8
        beta = fit_linear_pinball(d, np.arange(n), level, _affine_xt)
        Z = _affine_xt(x, t)
        base = pinball_loss(y - Z @ beta, level)
        for j in range(len(beta)):
            for delta in (-1e-3, 1e-3):
                pert = beta.copy()
                pert[j] += delta
                assert pinball_loss(y - Z @ pert, level) >= base - 1e-9

    def test_intercept_only_prediction(self):
        model = LinearPinballModel(
            basis=_affine_xt,
            coefs={0.9: np.array([4.2, 0.0, 0.0, 0.0])},
            levels=(0.9,),
        )
        assert model.quantile(np.array([5.0, -3.0]), 7.7, 0.9) == pytest.approx(4.2)

    def test_unfitted_level_raises(self):
        model = LinearPinballModel(
            basis=_affine_xt, coefs={0.9: np.zeros(4)}, levels=(0.9,)
        )
        with pytest.raises(KeyError):
            model.quantile(np.array([0.0, 0.0]), 0.0, 0.1)

    def test_crossing_fix_orders_pair(self):
        # deliberately inverted coefficient sets
        model = LinearPinballModel(
            basis=_affine_xt,
            coefs={0.05: np.array([10.0, 0, 0, 0]), 0.95: np.array([-10.0, 0, 0, 0])},
            levels=(0.05, 0.95),
        )
        lo, hi = predict_quantile_pair(model, np.array([0.0, 0.0]), 0.0, 0.05, 0.95)
        assert lo <= hi


class TestMeanModels:
    def test_ols_mean_recovery(self):
        gen = Rng(8).gen
        n = 400
        x = gen.normal(size=(n, 2))
        t = gen.normal(size=n)
        y = 2.0 - x[:, 0] + 3.0 * t
        d = Dataset(y, t, x)
        m = fit_ols_mean(d, np.arange(n), _affine_xt)
        assert m.mean(np.array([1.0, 1.0]), 2.0) == pytest.approx(7.0, abs=1e-8)
