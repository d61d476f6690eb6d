import math
import pickle

import numpy as np
import pytest

from doseband import outcome
from doseband.conformal import ConformalConfig, score_interval
from doseband.data import Dataset
from doseband.dist import NormalParams, Rng, normal_quantile
from doseband.outcome import (
    LinearPinballModel,
    OracleQuantileModel,
    PinballFitError,
    fit_linear_pinball,
    fit_ols_mean,
    pinball_loss,
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
            lo, hi = score_interval(model, ConformalConfig(0.1), x, t, 0.0)
            assert hi - lo == pytest.approx(2.0 * Z95 * 3.0, abs=1e-9)
        assert 2.0 * Z95 * 3.0 == pytest.approx(9.8691, abs=1e-4)

    def test_variance_must_be_positive_and_finite(self):
        for variance in (0.0, -4.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="finite|positive"):
                OracleQuantileModel(mean_fn=s1_mean, variance=variance)

    def test_shift_is_the_normal_quantile_for_each_level_and_variance(self):
        x = Rng(2).gen.normal(size=(5, 3))
        t = np.linspace(-1.0, 1.0, 5)
        narrow = OracleQuantileModel(mean_fn=s1_mean, variance=4.0, levels=(0.1, 0.9))
        wide = OracleQuantileModel(mean_fn=s1_mean, variance=9.0, levels=(0.1, 0.9))
        for model in (narrow, wide, narrow):
            for level in (0.1, 0.9, 0.5):
                shift = normal_quantile(level, NormalParams(0.0, model.variance))
                np.testing.assert_array_equal(model.quantile(x, t, level), s1_mean(x, t) + shift)
                assert model.quantile(x[0], t[0], level) == s1_mean(x[:1], t[:1])[0] + shift
        assert narrow.quantile(x, t, 0.9)[0] != wide.quantile(x, t, 0.9)[0]


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
        lo, hi = score_interval(model, ConformalConfig(0.1), np.array([0.0, 0.0]), 0.0, 0.0)
        assert (lo, hi) == (-10.0, 10.0)


def _lp_optimum(Z, y, level):
    """Mean check loss at the optimum of the linear-programming form
    min tau 1'u+ + (1 - tau) 1'u- s.t. Z beta + u+ - u- = y, u+- >= 0."""
    from scipy.optimize import linprog

    n, q = Z.shape
    eye = np.eye(n)
    res = linprog(
        np.r_[np.zeros(q), np.full(n, level), np.full(n, 1.0 - level)],
        A_eq=np.hstack([Z, eye, -eye]),
        b_eq=y,
        bounds=[(None, None)] * q + [(0.0, None)] * (2 * n),
        method="highs",
    )
    assert res.status == 0
    return res.fun / n


def _pinball_design(kind, n=300, seed=3):
    gen = Rng(seed).gen
    if kind in ("discrete", "integer"):
        x = gen.integers(0, 4, size=(n, 2)).astype(float)
    else:
        x = gen.normal(size=(n, 2))
    t = gen.normal(size=n)
    if kind == "integer":
        t = np.round(t)
    y = 1.0 + x[:, 0] - 0.5 * x[:, 1] + t + gen.normal(size=n)
    if kind == "integer":  # every row on an integer grid: many degenerate vertices
        y = np.round(y)
    if kind == "bootstrap":
        idx = gen.integers(0, n, size=n)
        y, t, x = y[idx], t[idx], x[idx]
    return Dataset(y, t, x)


def _offset_grid():
    """500 rows on few distinct integer x, with integer y."""
    gen = Rng(0).gen
    x = gen.integers(0, 4, size=(500, 3)).astype(float)
    return x, np.round(1.0 + x.sum(axis=1) + gen.normal(size=500))


class TestPinballOptimum:
    @pytest.mark.parametrize("level", [0.025, 0.5, 0.95])
    @pytest.mark.parametrize("kind", ["continuous", "discrete", "integer", "bootstrap"])
    def test_objective_matches_linear_program(self, kind, level):
        d = _pinball_design(kind)
        Z = _affine_xt(d.x, d.t)
        if kind == "bootstrap":
            assert len(np.unique(np.column_stack([Z, d.y]), axis=0)) < d.n
        beta = fit_linear_pinball(d, np.arange(d.n), level, _affine_xt)
        lp = _lp_optimum(Z, d.y, level)
        assert abs(pinball_loss(d.y - Z @ beta, level) - lp) <= 1e-9 * lp

    @pytest.mark.parametrize("level", [0.025, 0.5, 0.975])
    def test_large_offset_integer_grid(self, level):
        # many copies of few distinct rows, with y near 1e6: the jitter must
        # still exceed the residuals' rounding error; the intercept absorbs
        # the offset, so the optimum is the unshifted one
        x, y = _offset_grid()
        basis = lambda xx, tt: np.column_stack([np.ones(len(tt)), xx])
        Z = basis(x, np.zeros(500))
        losses = []
        for shift in (0.0, 1e6):
            d = Dataset(y + shift, np.zeros(500), x)
            beta = fit_linear_pinball(d, np.arange(500), level, basis)
            losses.append(pinball_loss(d.y - Z @ beta, level))
        assert abs(losses[1] - losses[0]) <= 1e-9 * losses[0]


def _greedy_active_set(Z, u, level):
    """Reference scan: rows by distance of u to its level-quantile, each
    kept when it is independent of the rows kept before it."""
    kept = []
    for i in np.argsort(np.abs(u - np.quantile(u, level))):
        if np.linalg.matrix_rank(Z[kept + [i]]) == len(kept) + 1:
            kept.append(int(i))
            if len(kept) == Z.shape[1]:
                break
    return np.array(kept)


def _descent_designs():
    """(Z, y) of every _pinball_design kind, and the large-offset grid."""
    for kind in ("continuous", "discrete", "integer", "bootstrap"):
        d = _pinball_design(kind)
        yield _affine_xt(d.x, d.t), d.y
    x, y = _offset_grid()
    Z = np.column_stack([np.ones(500), x])
    for shift in (0.0, 1e6):
        yield Z, y + shift


class TestVertexDescent:
    def test_budget_counts_exchanges(self, monkeypatch):
        # this fit needs 6 exchanges; the vertex the 6th reaches is checked
        d = _pinball_design("continuous")
        Z = _affine_xt(d.x, d.t)
        ols = np.linalg.lstsq(Z, d.y, rcond=None)[0]
        optimum = outcome._vertex_polish(Z, d.y, 0.1, ols)[0]
        certified = []
        for m in (0, 5, 6):
            monkeypatch.setattr(outcome, "MAX_EXCHANGES", m)
            certified.append(outcome._vertex_polish(Z, d.y, 0.1, ols)[1])
        assert certified == [False, False, True]
        # with no exchange allowed, a start already at the optimum certifies
        monkeypatch.setattr(outcome, "MAX_EXCHANGES", 0)
        beta, certified = outcome._vertex_polish(Z, d.y, 0.1, optimum)
        assert certified
        np.testing.assert_allclose(beta, optimum, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("level", [0.025, 0.5, 0.95])
    def test_full_sort_fallback_reaches_the_same_vertex(self, level, monkeypatch):
        starts = [(Z, y, np.linalg.lstsq(Z, y, rcond=None)[0]) for Z, y in _descent_designs()]
        fits = [outcome._vertex_polish(Z, y, level, ols) for Z, y, ols in starts]
        walked = []
        crossing = outcome._crossing

        def recorded(rate, slopes):
            walked.append(len(slopes))
            return crossing(rate, slopes)

        monkeypatch.setattr(outcome, "_WALK", 1)
        monkeypatch.setattr(outcome, "_crossing", recorded)
        for (Z, y, ols), (beta, certified) in zip(starts, fits):
            fallback = outcome._vertex_polish(Z, y, level, ols)
            np.testing.assert_array_equal(fallback[0], beta)
            assert fallback[1] == certified
        assert max(walked) > 1  # some walk crossed more than one breakpoint: the full sort ran

    @pytest.mark.parametrize("level", [0.025, 0.5, 0.95])
    def test_initial_set_is_the_greedy_scan(self, level):
        for Z, y in _descent_designs():
            # the descent passes jittered residuals, which have no ties
            u = y - Z @ np.linalg.lstsq(Z, y, rcond=None)[0] + 1e-9 * Rng(1).gen.random(len(y))
            np.testing.assert_array_equal(outcome._initial_active_set(Z, u, level), _greedy_active_set(Z, u, level))

    @pytest.mark.parametrize("n", [5, 500, 5000, 10000])
    def test_level_quantile_is_numpys(self, n):
        g = Rng(n).gen
        for u in (g.standard_normal(n), np.round(g.standard_normal(n), 1)):  # the second has ties
            before = u.copy()
            for level in (0.025, 0.5, 0.975, 1 / 3):
                assert outcome._level_quantile(u, level) == np.quantile(u, level)
            np.testing.assert_array_equal(u, before)

    def test_jitter_is_drawn_once_per_size(self):
        jitter = outcome._jitter(500)
        np.testing.assert_array_equal(jitter, Rng(0).gen.random(500))
        assert outcome._jitter(500) is jitter
        assert not jitter.flags.writeable

    def test_initial_set_skips_dependent_nearest_rows(self):
        d = _pinball_design("continuous")
        Z = _affine_xt(d.x, d.t)
        u = d.y - Z @ np.linalg.lstsq(Z, d.y, rcond=None)[0]
        nearest = np.argsort(np.abs(u - np.quantile(u, 0.5)))
        Z[nearest[1]] = Z[nearest[0]]
        assert np.linalg.matrix_rank(Z[nearest[:4]]) < 4
        active = outcome._initial_active_set(Z, u, 0.5)
        np.testing.assert_array_equal(active, _greedy_active_set(Z, u, 0.5))
        assert nearest[1] not in active
        with pytest.raises(ValueError, match="pinball design matrix is rank deficient"):
            outcome._initial_active_set(np.column_stack([Z, Z[:, 1]]), u, 0.5)


class TestUncertifiedFit:
    LEVEL = 0.9

    def test_raises_with_lower_of_start_and_descent_objective(self, monkeypatch):
        d = _pinball_design("continuous", n=200)
        Z = _affine_xt(d.x, d.t)
        ols = np.linalg.lstsq(Z, d.y, rcond=None)[0]
        start = pinball_loss(d.y - Z @ ols, self.LEVEL)
        descent = outcome._vertex_polish
        for shift in (0.0, 5.0):  # the descent's vertex beats the start; a far one does not
            def uncertified(Z, y, level, beta, shift=shift):
                return descent(Z, y, level, beta)[0] + shift, False

            monkeypatch.setattr(outcome, "_vertex_polish", uncertified)
            with pytest.raises(PinballFitError) as info:
                fit_linear_pinball(d, np.arange(d.n), self.LEVEL, _affine_xt)
            reached = pinball_loss(d.y - Z @ uncertified(Z, d.y, self.LEVEL, ols)[0], self.LEVEL)
            assert info.value.best_objective == min(start, reached)
            assert (reached < start) == (shift == 0.0)
        assert isinstance(info.value, RuntimeError)

    def test_error_survives_pickling(self):
        # a study's worker process returns its error to the caller pickled
        err = pickle.loads(pickle.dumps(PinballFitError("not certified", best_objective=1.5)))
        assert type(err) is PinballFitError
        assert (str(err), err.args, err.best_objective) == ("not certified", ("not certified",), 1.5)


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
