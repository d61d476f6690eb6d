import math
import re
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import pytest

from doseband import sim
from doseband.assignment import UniformAssignment, likelihood_ratio
from doseband.conformal import (
    SCORE_KINDS,
    Calibration,
    ConformalConfig,
    Interval,
    PredictionBand,
    _lift,
    _tail_mass,
    _tie_index,
    calibration_scores,
    prediction_band,
    score_interval,
    weighted_interval,
)
from doseband.data import Dataset, SplitIndices, split
from doseband.dist import NormalParams, Rng
from doseband.outcome import LinearPinballModel, OracleQuantileModel
from doseband.propensity import CallableGps, MixtureGps


def oracle_weighted_quantile(scores, weights, w_new, alpha):
    """Brute-force reference: enumerate the discrete distribution in exact
    dyadic-rational arithmetic and take its (1 - alpha)-quantile.

    Equivalent formulation used here: the quantile is the smallest value
    whose strict upper-tail mass (always counting the infinity atom) is
    at most alpha of the total.
    """
    atoms: dict[float, Fraction] = {}
    for v, w in zip(scores, weights):
        atoms[float(v)] = atoms.get(float(v), Fraction(0)) + Fraction(float(w))
    total = sum(atoms.values(), Fraction(0)) + Fraction(float(w_new))
    target = Fraction(float(alpha)) * total
    tail = Fraction(float(w_new))
    best = math.inf
    for v in sorted(atoms, reverse=True):
        if tail <= target:
            best = v
            tail += atoms[v]
        else:
            break
    return best


def thresholds(scores, weights, w_new, alpha):
    """The engine's thresholds for one row of calibration weights and an
    array (or scalar) of test weights: tie index, tail mass, lift."""
    values, inverse = _tie_index(np.asarray(scores, dtype=float))
    atoms = _tail_mass(inverse, len(values), np.asarray(weights, dtype=float)[None])[:3]
    w_new = np.asarray(w_new, dtype=float)
    owner = np.zeros(w_new.size, dtype=np.intp)
    return _lift(values, *atoms, w_new.ravel(), owner, alpha).reshape(w_new.shape)


def scalar_scan(scores, weights, w_new, alpha):
    """One test weight at a time: the first tie-merged atom whose strict
    upper tail plus the infinity atom is at most alpha of the total."""
    values, inverse = _tie_index(np.asarray(scores, dtype=float))
    suffix, total, scale, _ = _tail_mass(inverse, len(values), np.asarray(weights, dtype=float)[None])
    suffix, total, scale = suffix[0], float(total[0]), float(scale[0])  # the one-row block
    w = w_new / scale
    if not math.isfinite(w):
        return math.inf
    hits = np.nonzero(suffix + w <= alpha * (total + w))[0]
    return float(values[hits[0]]) if hits.size else math.inf


def _mean_model(fn=lambda x, t: x[:, 0] + t):
    return OracleQuantileModel(mean_fn=fn, variance=1.0)


def _flat_gps():
    return CallableGps(fn=lambda t, x: np.ones_like(t))


class TestWeightedQuantile:
    def test_uniform_weights_example(self):
        assert thresholds([1.0, 2.0, 3.0, 4.0], [1.0] * 4, 1.0, 0.2) == 4.0

    def test_infinity_mass_dominance(self):
        assert thresholds([1.0], [1.0], 9.0, 0.1) == math.inf

    def test_small_random_instances_match_oracle(self):
        gen = Rng(17).gen
        for _ in range(200):
            n = int(gen.integers(1, 21))
            scores = gen.normal(size=n)
            weights = gen.gamma(1.0, 2.0, size=n) + 1e-3
            w_new = float(gen.gamma(1.0, 2.0))
            alpha = float(gen.uniform(0.02, 0.5))
            got = thresholds(scores, weights, w_new, alpha)
            want = oracle_weighted_quantile(scores, weights, w_new, alpha)
            assert got == want

    def test_vectorized_thresholds_match_scalar_scan_and_oracle(self):
        # tied scores in half the instances, a zero test weight, and a test
        # weight that overflows once normalized by the largest weight
        gen = Rng(19).gen
        tiny = 2.0**-30
        for _ in range(200):
            n = int(gen.integers(1, 21))
            if gen.random() < 0.5:
                scores = gen.integers(0, 5, size=n).astype(float)
            else:
                scores = gen.normal(size=n)
            weights = (gen.gamma(1.0, 2.0, size=n) + 1e-3) * tiny
            w_new = np.r_[0.0, gen.gamma(1.0, 2.0, size=6) * tiny, 1e308]
            alpha = float(gen.uniform(0.02, 0.5))
            got = thresholds(scores, weights, w_new, alpha).tolist()
            assert got == [scalar_scan(scores, weights, float(w), alpha) for w in w_new]
            assert got == [oracle_weighted_quantile(scores, weights, float(w), alpha) for w in w_new]
            assert got[-1] == math.inf

    def test_owner_indexed_lift_matches_rows_queried_separately(self):
        # several rows of atoms in one lift, each query naming its row; ties,
        # zero calibration weights, zero and overflowing test weights
        gen = Rng(23).gen
        tiny = 2.0**-30
        for _ in range(200):
            n, rows = int(gen.integers(1, 21)), int(gen.integers(1, 6))
            if gen.random() < 0.5:
                scores = gen.integers(0, 5, size=n).astype(float)
            else:
                scores = gen.normal(size=n)
            weights = (gen.gamma(1.0, 2.0, size=(rows, n)) + 1e-3) * tiny
            weights[gen.random((rows, n)) < 0.3] = 0.0
            weights[np.arange(rows), gen.integers(0, n, size=rows)] = tiny  # no all-zero row
            values, inverse = np.unique(scores, return_inverse=True)
            bins = (inverse + len(values) * np.arange(rows)[:, None]).ravel()
            w_new = gen.permutation(np.r_[0.0, gen.gamma(1.0, 2.0, size=10) * tiny, 1e308])
            owner = gen.integers(0, rows, size=len(w_new))
            alpha = float(gen.uniform(0.02, 0.5))
            got = _lift(values, *_tail_mass(bins, len(values), weights)[:3], w_new, owner, alpha)
            for r in range(rows):
                mine, got_r = w_new[owner == r], got[owner == r].tolist()
                assert got_r == thresholds(scores, weights[r], mine, alpha).tolist()
                assert got_r == [scalar_scan(scores, weights[r], float(w), alpha) for w in mine]

    def test_invalid_test_weights_rejected(self):
        for bad in ([1.0, -1.0], [math.inf], [math.nan]):
            with pytest.raises(ValueError, match="w_new"):
                thresholds([1.0, 2.0], [1.0, 1.0], bad, 0.1)

    def test_tied_scores_merge(self):
        scores = [1.0, 1.0, 2.0, 2.0, 3.0]
        weights = [0.3, 0.3, 0.2, 0.1, 0.1]
        for alpha in (0.05, 0.21, 0.4, 0.61):
            got = thresholds(scores, weights, 0.25, alpha)
            assert got == oracle_weighted_quantile(scores, weights, 0.25, alpha)

    def test_monotone_in_w_new(self):
        gen = Rng(3).gen
        scores, weights = gen.normal(size=40), gen.random(40) + 0.1
        prev = -math.inf
        for w_new in np.linspace(0.0, 20.0, 50):
            eta = thresholds(scores, weights, float(w_new), 0.1)
            assert eta >= prev
            prev = eta

    def test_monotone_in_alpha(self):
        gen = Rng(4).gen
        scores, weights = gen.normal(size=40), gen.random(40) + 0.1
        prev = math.inf
        for alpha in np.linspace(0.02, 0.9, 40):
            eta = thresholds(scores, weights, 0.7, float(alpha))
            assert eta <= prev
            prev = eta

    def test_scaling_invariance_powers_of_two(self):
        # exact invariance for exact (power-of-two) rescalings
        gen = Rng(5).gen
        scores = gen.normal(size=30)
        weights = gen.random(30) + 0.05
        base = thresholds(scores, weights, 0.8, 0.13)
        for k in (-40, -7, 3, 25):
            c = 2.0**k
            scaled = thresholds(scores, weights * c, 0.8 * c, 0.13)
            assert scaled == base

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError, match="not all be zero"):
            thresholds([1.0, 2.0], [0.0, 0.0], 1.0, 0.1)

    def test_zero_w_new_always_finite(self):
        assert thresholds([5.0], [1.0], 0.0, 0.05) == 5.0


class TestSplitConformal:
    """Plain split conformal: the weighted threshold with unit weights."""

    def _dataset(self, n=120, seed=0, noise=1.0):
        gen = Rng(seed).gen
        x = gen.normal(size=(n, 1))
        t = gen.normal(size=n)
        y = x[:, 0] + t + noise * gen.normal(size=n)
        return Dataset(y, t, x)

    def _equal_weight_interval(self, d, sp, model, alpha, x_new, t_new):
        # a flat GPS under a uniform numerator covering every treatment:
        # all weights, the test weight included, are the same constant
        cfg = ConformalConfig(alpha, "absolute-residual")
        h = UniformAssignment(-1e3, 1e3)
        return weighted_interval(d, sp, model, _flat_gps(), h, cfg, x_new, t_new)

    def test_perfect_model_zero_width(self):
        d = self._dataset(noise=0.0)
        sp = split(d, 0.5, Rng(1))
        iv = self._equal_weight_interval(d, sp, _mean_model(), 0.1, np.array([0.5]), 1.0)
        assert iv.length == pytest.approx(0.0, abs=1e-12)

    def test_rank_on_1_to_99(self):
        # scores 1..99 at alpha=0.1: the threshold is the 90th order statistic
        scores = Rng(2).gen.permutation(np.arange(1.0, 100.0))
        assert thresholds(scores, np.ones(99), 1.0, 0.1) == 90.0

    def test_too_small_calibration_gives_infinite(self):
        # ceil(0.95 * 6) = 6 exceeds the 5 calibration scores
        assert thresholds(np.arange(1.0, 6.0), np.ones(5), 1.0, 0.05) == math.inf

    def test_equal_weights_reduction_exact(self):
        # equal weights give the ceil((1 - alpha)(n + 1))-th order statistic
        # of the calibration absolute residuals
        d = self._dataset(n=200, seed=5)
        sp = split(d, 0.5, Rng(6))
        model = _mean_model()
        resid = np.sort(np.abs(model.mean(d.x[sp.cal], d.t[sp.cal]) - d.y[sp.cal]))
        n = len(resid)
        m = model.mean(np.array([[0.3]]), np.array([0.7]))[0]
        for alpha in (0.05, 0.1, 0.2, 0.25):
            eta = resid[math.ceil((1 - alpha) * (n + 1)) - 1]
            iv = self._equal_weight_interval(d, sp, model, alpha, np.array([0.3]), 0.7)
            assert (iv.lower, iv.upper) == (m - eta, m + eta)


class TestWeightedIntervals:
    def _setup(self, n=300, seed=7):
        gen = Rng(seed).gen
        x = gen.normal(size=(n, 1))
        t = gen.normal(size=n)
        y = x[:, 0] + t + gen.normal(size=n)
        d = Dataset(y, t, x)
        sp = split(d, 0.5, Rng(seed + 1))
        return d, sp

    def test_cqr_interval_contains_quantile_pair_when_eta_positive(self):
        d, sp = self._setup()
        model = OracleQuantileModel(
            mean_fn=lambda x, t: x[:, 0] + t, variance=1.0, levels=(0.05, 0.95)
        )
        cfg = ConformalConfig(0.1, "cqr")
        h = NormalParams(0.0, 1.0)
        gps = _flat_gps()
        t_cal = d.t[sp.cal]
        V = calibration_scores(model, cfg, d, sp.cal)
        W = likelihood_ratio(h.density(t_cal), gps.density(t_cal, d.x[sp.cal]), t_cal)
        w_new = likelihood_ratio(h.density(0.4), gps.density(0.4, np.array([0.2])), 0.4)
        eta = float(thresholds(V, W, w_new, cfg.alpha))
        iv = weighted_interval(d, sp, model, gps, h, cfg, np.array([0.2]), 0.4)
        lo = model.quantile(np.array([0.2]), 0.4, 0.05)
        hi = model.quantile(np.array([0.2]), 0.4, 0.95)
        assert iv.lower == lo - eta and iv.upper == hi + eta
        if eta >= 0:
            assert iv.lower <= lo and iv.upper >= hi
        assert iv.length == pytest.approx((hi - lo) + 2 * eta)

    def test_infinite_eta_gives_whole_line(self):
        ws_scores = np.array([0.5, 1.0])
        d = Dataset(
            np.array([0.0, 0.0, 0.5, -1.0]),
            np.array([0.0, 0.0, 0.0, 0.0]),
            np.zeros((4, 1)),
        )
        sp = SplitIndices(np.arange(2), np.arange(2, 4))
        model = OracleQuantileModel(
            mean_fn=lambda x, t: np.zeros(len(t)), variance=1.0, levels=(0.05, 0.95)
        )
        cfg = ConformalConfig(0.1, "cqr")
        h = NormalParams(0.0, 1.0)
        # gps tiny at the test point -> enormous test weight -> p_inf > alpha
        gps = CallableGps(fn=lambda t, x: np.where(np.abs(t) < 1e-9, 1e-12, 1.0))
        iv = weighted_interval(d, sp, model, gps, h, cfg, np.array([0.0]), 0.0)
        assert iv.lower == -math.inf and iv.upper == math.inf
        # the same point as the last of a band; at t = -1 the test weight is small
        band = prediction_band(d, sp, model, gps, lambda t: h, cfg, np.array([0.0]), -1.0, 0.0, 2)
        assert band.intervals[1] == iv
        assert math.isfinite(band.intervals[0].length)


@dataclass(frozen=True)
class _CrossingPinball(LinearPinballModel):
    """A linear quantile model with a mean: its 0.5 level."""

    def mean(self, x, t):
        return self.quantile(x, t, 0.5)


def _affine_basis(x, t):
    return np.column_stack([np.ones(len(t)), x[:, 0], t])


def _crossing_model():
    # q_0.95 - q_0.05 = 0.5 - 0.8 t: the fitted levels cross where t > 0.625
    coefs = {
        0.05: np.array([0.0, 1.0, 1.0]),
        0.5: np.array([0.25, 1.0, 0.6]),
        0.95: np.array([0.5, 1.0, 0.2]),
    }
    return _CrossingPinball(basis=_affine_basis, coefs=coefs, levels=(0.05, 0.95))


class TestOneScoringRule:
    """Both score kinds: a score is the distance of y outside the model's
    base interval, and a threshold widens that interval on each side."""

    @pytest.mark.parametrize("kind", SCORE_KINDS)
    def test_scores_and_bounds_follow_the_base_interval(self, kind):
        gen = Rng(17).gen
        x, t = gen.normal(size=(200, 1)), gen.normal(size=200)
        d = Dataset(x[:, 0] + 0.5 * t + gen.normal(size=200), t, x)
        model, cfg = _crossing_model(), ConformalConfig(0.1, kind)
        q_lo, q_hi = model.quantile(x, t, 0.05), model.quantile(x, t, 0.95)
        assert np.any(q_lo > q_hi) and np.any(q_lo < q_hi)
        lo, hi = score_interval(model, cfg, x, t, 0.0)
        if kind == "cqr":
            np.testing.assert_array_equal(lo, np.minimum(q_lo, q_hi))
            np.testing.assert_array_equal(hi, np.maximum(q_lo, q_hi))
        else:
            np.testing.assert_array_equal(lo, model.mean(x, t))
            np.testing.assert_array_equal(hi, lo)
        scores = calibration_scores(model, cfg, d, np.arange(d.n))
        np.testing.assert_array_equal(scores, np.maximum(lo - d.y, d.y - hi))
        if kind == "absolute-residual":
            np.testing.assert_array_equal(scores, np.abs(lo - d.y))
        eta = np.linspace(0.1, 2.0, d.n)
        lower, upper = score_interval(model, cfg, x, t, eta)
        np.testing.assert_array_equal(lower, lo - eta)
        np.testing.assert_array_equal(upper, hi + eta)

    @pytest.mark.parametrize("kind", SCORE_KINDS)
    def test_single_point_query_gives_the_row_bounds(self, kind):
        model, cfg, x = _crossing_model(), ConformalConfig(0.1, kind), np.array([0.2])
        # crossed and uncrossed quantiles, widened, shrunk and inverted (midpoint)
        for t, eta in ((0.4, 1.5), (1.0, 0.3), (2.0, -0.5), (0.4, -1.0), (0.0, math.inf)):
            lo, hi = score_interval(model, cfg, x, t, eta)
            rows = score_interval(model, cfg, x[None], np.array([t]), np.array([eta]))
            assert (float(lo), float(hi)) == (rows[0][0], rows[1][0])
            assert lo <= hi

    def test_cqr_needs_two_levels(self):
        model = LinearPinballModel(
            basis=lambda x, t: np.ones((len(t), 1)), coefs={0.9: np.zeros(1)}, levels=(0.9,)
        )
        with pytest.raises(ValueError, match="two levels"):
            score_interval(model, ConformalConfig(0.1, "cqr"), np.array([0.0]), 0.0, 1.0)


class TestPredictionBand:
    def _pieces(self, seed=11):
        gen = Rng(seed).gen
        n = 200
        x = gen.normal(size=(n, 1))
        t = gen.normal(size=n)
        y = x[:, 0] + t + gen.normal(size=n)
        d = Dataset(y, t, x)
        sp = split(d, 0.5, Rng(seed + 1))
        model = OracleQuantileModel(
            mean_fn=lambda xx, tt: xx[:, 0] + tt, variance=1.0, levels=(0.05, 0.95)
        )
        return d, sp, model

    def test_two_point_band_matches_direct_calls(self):
        d, sp, model = self._pieces()
        cfg = ConformalConfig(0.1, "cqr")
        h = NormalParams(0.0, 1.0)
        gps = _flat_gps()
        band = prediction_band(
            d, sp, model, gps, lambda t: h, cfg, np.array([0.5]), -1.0, 1.0, 2
        )
        assert len(band.intervals) == 2
        np.testing.assert_array_equal(band.t_grid, [-1.0, 1.0])
        for t_k, iv in zip(band.t_grid, band.intervals):
            direct = weighted_interval(
                d, sp, model, gps, h, cfg, np.array([0.5]), float(t_k)
            )
            assert iv.lower == direct.lower and iv.upper == direct.upper

    def test_constant_model_constant_weights_identical_intervals(self):
        from doseband.assignment import UniformAssignment

        d, sp, _ = self._pieces()
        model = OracleQuantileModel(
            mean_fn=lambda xx, tt: np.zeros(len(tt)), variance=1.0, levels=(0.05, 0.95)
        )
        cfg = ConformalConfig(0.1, "cqr")
        # uniform numerator over a range containing all data and the grid,
        # flat gps: every weight (calibration and test) is the same constant
        h = UniformAssignment(-50.0, 50.0)
        band = prediction_band(
            d, sp, model, _flat_gps(), lambda t: h, cfg, np.array([0.5]), 0.0, 3.0, 5
        )
        first = band.intervals[0]
        for iv in band.intervals[1:]:
            assert iv.lower == first.lower and iv.upper == first.upper

    def test_repeat_calls_bit_identical(self):
        d, sp, model = self._pieces()
        cfg = ConformalConfig(0.1, "cqr")
        h = NormalParams(0.0, 1.0)
        b1 = prediction_band(
            d, sp, model, _flat_gps(), lambda t: h, cfg, np.array([0.5]), -2.0, 2.0, 7
        )
        b2 = prediction_band(
            d, sp, model, _flat_gps(), lambda t: h, cfg, np.array([0.5]), -2.0, 2.0, 7
        )
        for a, b in zip(b1.intervals, b2.intervals):
            assert a.lower == b.lower and a.upper == b.upper

    def test_band_keeps_its_own_read_only_profile(self):
        d, sp, model = self._pieces()
        h = NormalParams(0.0, 1.0)
        x_new = np.array([0.5])
        band = prediction_band(
            d, sp, model, _flat_gps(), lambda t: h, ConformalConfig(0.1), x_new, -1.0, 1.0, 3
        )
        x_new[0] = 99.0
        assert band.x.tolist() == [0.5]
        with pytest.raises(ValueError, match="read-only"):
            band.x[0] = 1.0

    def test_grid_validation(self):
        d, sp, model = self._pieces()
        cfg = ConformalConfig(0.1, "cqr")
        with pytest.raises(ValueError):
            prediction_band(
                d, sp, model, _flat_gps(), lambda t: None, cfg, np.array([0.5]), 0.0, 1.0, 1
            )
        with pytest.raises(ValueError):
            prediction_band(
                d, sp, model, _flat_gps(), lambda t: None, cfg, np.array([0.5]), 2.0, 1.0, 5
            )


@dataclass(frozen=True)
class _Counted:
    """An assignment or GPS that records the size of each density call;
    it compares and hashes as the one it wraps."""

    inner: object
    seen: list = field(compare=False)

    def density(self, t, *x):
        self.seen.append(np.size(t))
        return self.inner.density(t, *x)


class TestBlockedBand:
    """The band against a direct per-point computation with the exact
    oracle quantile, and its edge cases through ``prediction_band``."""

    def _tied(self, n=1200, seed=13):
        # integer responses and integer-valued quantile predictions: the
        # calibration scores take a handful of values, with many ties
        gen = Rng(seed).gen
        x = gen.normal(size=(n, 1))
        t = x[:, 0] + gen.normal(size=n)
        y = np.round(x[:, 0] + t + 2.0 * gen.normal(size=n))
        d = Dataset(y, t, x)
        sp = split(d, 0.5, Rng(seed + 1))
        model = OracleQuantileModel(
            mean_fn=lambda xx, tt: np.round(xx[:, 0] + tt), variance=1.0, levels=(0.05, 0.95)
        )
        gps = MixtureGps(mix_weights=[1.0], betas=[[0.0, 1.0]], variances=[1.0], basis=lambda xx: xx[:, 0])
        return d, sp, model, gps

    def _assert_matches_oracle(self, h_factory, n_grid):
        """Bounds exactly as the oracle quantile gives them and ESS and
        p_inf as computed directly, at every grid point."""
        d, sp, model, gps = self._tied()
        cfg = ConformalConfig(0.1, "cqr", offset=0.05)
        x_new = np.array([0.3])
        band = prediction_band(d, sp, model, gps, h_factory, cfg, x_new, -2.0, 2.0, n_grid)
        scores = calibration_scores(model, cfg, d, sp.cal)
        assert len(np.unique(scores)) < len(scores) // 10
        t_cal, x_cal = d.t[sp.cal], d.x[sp.cal]
        den_cal = gps.density(t_cal, x_cal) + cfg.offset
        for k, (t_k, iv) in enumerate(zip(band.t_grid, band.intervals)):
            h = h_factory(float(t_k))
            W = h.density(t_cal) / den_cal
            w_new = h.density(float(t_k)) / (gps.density(float(t_k), x_new) + cfg.offset)
            eta = oracle_weighted_quantile(scores, W, w_new, cfg.alpha)
            lo = model.quantile(x_new, float(t_k), 0.05)
            hi = model.quantile(x_new, float(t_k), 0.95)
            assert (iv.lower, iv.upper) == (lo - eta, hi + eta)
            assert band.ess[k] == pytest.approx(W.sum() ** 2 / np.sum(W**2), rel=1e-12)
            assert band.p_inf[k] == pytest.approx(w_new / (W.sum() + w_new), rel=1e-12)

    def test_matches_oracle_quantile_point_by_point(self):
        from doseband.assignment import DecileMidpointAssignment, decile_boundaries

        d, sp, _, _ = self._tied()
        b = decile_boundaries(d.t[sp.train])

        def h_factory(t):
            return DecileMidpointAssignment(b, s2=1.0, t_star=t, k=0.5)

        # 31 grid points, but only the deciles the grid reaches are
        # distinct assignments
        self._assert_matches_oracle(h_factory, 31)

    def test_moving_numerator_over_several_blocks(self):
        # every grid point its own assignment: more distinct assignments
        # than one block holds, the last block ragged
        from doseband.conformal import _BLOCK_ELEMENTS

        _, sp, _, _ = self._tied()
        rows = _BLOCK_ELEMENTS // len(sp.cal)
        n_grid = 31
        assert n_grid > 2 * rows and n_grid % rows != 0
        self._assert_matches_oracle(lambda t: NormalParams(t, 0.5), n_grid)

    def test_one_calibration_per_distinct_assignment(self):
        from doseband.assignment import DecileMidpointAssignment, decile_boundaries, decile_index

        d, sp, model, gps = self._tied(n=400)
        n_cal = len(sp.cal)
        lengths: list[int] = []
        grid = np.linspace(-2.0, 2.0, 60)

        def density_calls(h_factory):
            """Sizes of the density calls of one band, and the number of
            grid points each distinct assignment owns."""
            lengths.clear()
            prediction_band(
                d, sp, model, gps, h_factory, ConformalConfig(0.1), np.array([0.3]), -2.0, 2.0, 60
            )
            owned = Counter(h_factory(t) for t in grid.tolist())
            return sorted(lengths), sorted(n_cal + k for k in owned.values())

        # one density call per distinct assignment, on the calibration
        # treatments and the grid points the assignment owns
        shift = NormalParams(0.5, 1.0)
        assert density_calls(lambda t: _Counted(shift, lengths)) == ([n_cal + 60], [n_cal + 60])
        b = decile_boundaries(d.t[sp.train])
        reached = len(set(decile_index(b, grid).tolist()))
        sizes, expected = density_calls(
            lambda t: _Counted(DecileMidpointAssignment(b, s2=1.0, t_star=t, k=0.5), lengths)
        )
        assert sizes == expected
        assert 1 < len(sizes) == reached <= 10

    def _mixed_factory(self):
        """Members of two decile families, and a fixed Normal shift below
        t = -1.2: the block holds all three kinds of numerator."""
        from doseband.assignment import DecileMidpointAssignment, decile_boundaries

        d, sp, _, _ = self._tied()
        b = decile_boundaries(d.t[sp.train])
        shift = NormalParams(-1.5, 0.5)

        def h_factory(t):
            if t < -1.2:
                return shift
            return DecileMidpointAssignment(b, s2=1.0 if t < 0.4 else 2.0, t_star=t, k=0.5 if t < 0.4 else 1.0)

        return h_factory

    def test_band_mixing_two_families_and_a_normal(self):
        h_factory = self._mixed_factory()
        kinds = {getattr(h_factory(t), "family", None) for t in np.linspace(-2.0, 2.0, 31).tolist()}
        assert len(kinds) == 3 and None in kinds  # two families and the shift
        self._assert_matches_oracle(h_factory, 31)

    def test_family_spread_over_several_blocks(self, monkeypatch):
        # two assignments per block: each family's members split across
        # blocks, and a block may hold members of both families
        _, sp, _, _ = self._tied()
        monkeypatch.setattr("doseband.conformal._BLOCK_ELEMENTS", 2 * len(sp.cal))
        self._assert_matches_oracle(self._mixed_factory(), 31)

    def test_one_family_pass_per_block(self, monkeypatch):
        # the members of a family are weighed by their family: one pass over
        # the calibration treatments and one over the grid points they own,
        # and no member's own density
        from doseband.assignment import DecileMidpointAssignment, DecileMidpointFamily

        d, sp, model, gps = self._tied(n=400)
        h_factory = self._mixed_factory()
        passes, own = [], []
        family_density, member_density = DecileMidpointFamily.density, DecileMidpointAssignment.density
        monkeypatch.setattr(
            DecileMidpointFamily, "density", lambda f, t, j: passes.append(np.shape(j)) or family_density(f, t, j)
        )
        monkeypatch.setattr(DecileMidpointAssignment, "density", lambda h, t: own.append(1) or member_density(h, t))
        prediction_band(d, sp, model, gps, h_factory, ConformalConfig(0.1), np.array([0.3]), -2.0, 2.0, 60)
        grid = np.linspace(-2.0, 2.0, 60).tolist()
        members = [h for t in grid if isinstance(h := h_factory(t), DecileMidpointAssignment)]
        distinct = Counter(h.family for h in set(members))  # members per family
        rows = Counter(h.family for h in members)  # grid points per family
        assert len(distinct) == 2 and sum(rows.values()) < 60
        assert sorted(passes) == sorted([(m, 1) for m in distinct.values()] + [(r,) for r in rows.values()])
        assert own == []

    def test_twin_members_give_the_same_band(self):
        # with the cache cleared before every grid point, each member is of
        # a rebuilt twin family: its own object, with the same densities as
        # the shared member, so a band of distinct assignments only, and
        # the same band
        from doseband import assignment
        from doseband.assignment import DecileMidpointAssignment, decile_boundaries

        d, sp, model, gps = self._tied()
        b = decile_boundaries(d.t[sp.train])
        cfg, x_new = ConformalConfig(0.1, "cqr", offset=0.05), np.array([0.3])
        hs = []

        def h_factory(t):
            hs.append(DecileMidpointAssignment(b, s2=1.0, t_star=t, k=0.5))
            return hs[-1]

        def twin_factory(t):
            assignment._family_of_bytes.cache_clear()
            return h_factory(t)

        shared = prediction_band(d, sp, model, gps, h_factory, cfg, x_new, -2.0, 2.0, 31)
        assert len(set(hs)) < 31
        hs.clear()
        twins = prediction_band(d, sp, model, gps, twin_factory, cfg, x_new, -2.0, 2.0, 31)
        assert len(set(hs)) == 31
        for name in ("lower", "upper", "ess", "p_inf"):
            assert np.array_equal(getattr(shared, name), getattr(twins, name)), name

    def test_unhashable_assignment_rejected(self):
        d, sp, model, gps = self._tied(n=200)

        @dataclass  # mutable, so not hashable
        class Mutable:
            params: NormalParams

            def density(self, t):
                return self.params.density(t)

        with pytest.raises(TypeError, match="assignments must be hashable, got Mutable"):
            prediction_band(
                d, sp, model, gps, lambda t: Mutable(NormalParams(t, 1.0)), ConformalConfig(0.1),
                np.array([0.0]), -1.0, 1.0, 5,
            )

    def test_diagnostics_match_direct_computation(self):
        d, sp, model, gps = self._tied(n=200)
        cfg = ConformalConfig(0.1, "cqr", offset=0.01)
        x_new = np.array([-0.4])

        def h_factory(t):
            return NormalParams(t, 0.5)

        band = prediction_band(d, sp, model, gps, h_factory, cfg, x_new, -1.5, 1.5, 6)
        t_cal, x_cal = d.t[sp.cal], d.x[sp.cal]
        for k, t_k in enumerate(band.t_grid):
            h = h_factory(float(t_k))
            W = h.density(t_cal) / (gps.density(t_cal, x_cal) + cfg.offset)
            w = h.density(float(t_k)) / (gps.density(float(t_k), x_new) + cfg.offset)
            assert band.ess[k] == pytest.approx(W.sum() ** 2 / np.sum(W**2), rel=1e-12)
            assert band.p_inf[k] == pytest.approx(w / (W.sum() + w), rel=1e-12)
        assert np.all((band.ess >= 1.0) & (band.ess <= len(t_cal)))

    def test_vanishing_gps_names_the_calibration_treatment(self):
        import re

        from doseband.assignment import PositivityError

        d, sp, model, _ = self._tied(n=200)
        t_bad = float(d.t[sp.cal][7])
        gps = CallableGps(fn=lambda t, x: np.where(t == t_bad, 0.0, 1.0))
        h = NormalParams(0.0, 4.0)
        with pytest.raises(PositivityError, match=re.escape(f"t=[{t_bad!r}]")):
            prediction_band(
                d, sp, model, gps, lambda t: h, ConformalConfig(0.1), np.array([0.0]), -1.0, 1.0, 40
            )

    def test_h_zero_on_every_calibration_treatment(self):
        from doseband.assignment import UniformAssignment

        d, sp, model, _ = self._tied(n=200)
        h = UniformAssignment(100.0, 101.0)
        with pytest.raises(ValueError, match="must not all be zero"):
            prediction_band(
                d, sp, model, _flat_gps(), lambda t: h, ConformalConfig(0.1),
                np.array([0.0]), 100.0, 101.0, 5,
            )

    def test_overflowing_test_weight_gives_whole_line(self):
        # calibration weights near 1e-10, the test weight at t = 1 near
        # 1e299: normalized by the largest calibration weight it overflows
        d, sp, model, _ = self._tied(n=200)
        gps = CallableGps(fn=lambda t, x: np.where(t == 1.0, 1e-300, 1e10))
        h = NormalParams(0.0, 4.0)
        band = prediction_band(
            d, sp, model, gps, lambda t: h, ConformalConfig(0.1), np.array([0.0]), -1.0, 1.0, 5
        )
        assert band.intervals[-1] == Interval(-math.inf, math.inf)
        assert band.p_inf[-1] == 1.0
        assert all(math.isfinite(iv.length) for iv in band.intervals[:-1])


class TestCalibration:
    """One ``Calibration`` queried with ``bounds``: the study's use, many
    test rows per assignment, with or without the test atom."""

    def test_atom_free_query_evaluates_no_density_at_test_rows(self):
        gen = Rng(29).gen
        x = gen.normal(size=(300, 1))
        t = x[:, 0] + gen.normal(size=300)
        d = Dataset(x[:, 0] + t + gen.normal(size=300), t, x)
        sp = split(d, 0.5, Rng(30))
        model = OracleQuantileModel(mean_fn=lambda xx, tt: xx[:, 0] + tt, variance=1.0, levels=(0.05, 0.95))
        cfg = ConformalConfig(0.1, offset=0.01)
        gps_sizes, h_sizes = [], []
        gps = _Counted(MixtureGps(mix_weights=[1.0], betas=[[0.0, 1.0]], variances=[1.0], basis=lambda xx: xx[:, 0]), gps_sizes)
        calib = Calibration(d, sp, model, gps, cfg)
        n_cal = len(sp.cal)
        assert gps_sizes == [n_cal]
        hs = [_Counted(NormalParams(m, 1.0), h_sizes) for m in (-1.0, 0.0, 1.0)]
        x_test, t_test = gen.normal(size=(40, 1)), gen.normal(size=40)
        owner = np.arange(40) % 3
        lower, upper, ess, p_inf = calib.bounds(x_test, t_test, hs, owner, test_atom=False)
        # one calibration-length density call per assignment, none at the test rows
        assert gps_sizes == [n_cal] and h_sizes == [n_cal] * 3
        assert np.all(p_inf == 0.0)
        scores = calibration_scores(model, cfg, d, sp.cal)
        t_cal, x_cal = d.t[sp.cal], d.x[sp.cal]
        den_cal = gps.inner.density(t_cal, x_cal) + cfg.offset
        for k in range(40):
            W = hs[owner[k]].inner.density(t_cal) / den_cal
            eta = oracle_weighted_quantile(scores, W, 0.0, cfg.alpha)
            lo, hi = (model.quantile(x_test[k], float(t_test[k]), lv) for lv in (0.05, 0.95))
            assert (lower[k], upper[k]) == (lo - eta, hi + eta)
            assert ess[k] == pytest.approx(W.sum() ** 2 / np.sum(W**2), rel=1e-12)

    @pytest.mark.parametrize("test_atom", [False, True])
    def test_compare_uniform_numerators_share_one_calibration(self, test_atom):
        # the replication of compare_uniform: both numerators query one
        # calibration, which gives what a fresh one gives, and with the atom
        # ESS and p_inf per row as computed directly
        scenario = sim.make_scenario("unif-compare")
        design = sim._DESIGNS[scenario.id]
        rng = Rng(5).spawn(1)[0]
        data, test = sim.generate(scenario, rng)
        sp = split(data, 0.5, rng)
        gps = sim._fit_gps(scenario, data, sp, rng)
        levels = (scenario.alpha / 2.0, 1.0 - scenario.alpha / 2.0)
        model = OracleQuantileModel(mean_fn=design.response_mean, variance=sim.RESPONSE_SD**2, levels=levels)
        cfg = ConformalConfig(scenario.alpha, design.score, design.offset)
        calib = Calibration(data, sp, model, gps, cfg)
        h = design.shift
        h_unif = UniformAssignment(h.mean - 6.0 * h.sd, h.mean + 6.0 * h.sd)
        owner = np.zeros(test.n, dtype=np.intp)
        t_cal = data.t[sp.cal]
        den_cal = gps.density(t_cal, data.x[sp.cal]) + cfg.offset
        den_test = gps.density(test.t, test.x) + cfg.offset
        for numerator in (h, h_unif):
            got = calib.bounds(test.x, test.t, [numerator], owner, test_atom)
            fresh = Calibration(data, sp, model, gps, cfg)
            fresh = fresh.bounds(test.x, test.t, [numerator], owner, test_atom)
            assert all(np.array_equal(a, b) for a, b in zip(got, fresh))
            _, _, ess, p_inf = got
            W = numerator.density(t_cal) / den_cal
            np.testing.assert_allclose(ess, W.sum() ** 2 / np.sum(W**2), rtol=1e-12)
            w = numerator.density(test.t) / den_test if test_atom else np.zeros(test.n)
            np.testing.assert_allclose(p_inf, w / (W.sum() + w), rtol=1e-12, atol=0.0)

    def test_owner_must_name_one_assignment_per_row(self):
        # every row must name one assignment, or rows of the returned
        # arrays would go unset
        scenario = sim.make_scenario("s1")
        design = sim._DESIGNS[scenario.id]
        rng = Rng(3).spawn(1)[0]
        data, test = sim.generate(scenario, rng)
        sp = split(data, 0.5, rng)
        levels = (scenario.alpha / 2.0, 1.0 - scenario.alpha / 2.0)
        model = OracleQuantileModel(mean_fn=design.response_mean, variance=sim.RESPONSE_SD**2, levels=levels)
        cfg = ConformalConfig(scenario.alpha, design.score, design.offset)
        calib = Calibration(data, sp, model, sim._fit_gps(scenario, data, sp, rng), cfg)
        x, t = test.x[:10], test.t[:10]
        for owner in ([1] * 10, [-1] * 10):
            with pytest.raises(ValueError, match=r"owner entries must lie in \[0, 1\)"):
                calib.bounds(x, t, [design.shift], np.array(owner))
        with pytest.raises(ValueError, match=r"owner has shape \(3,\), t has shape \(10,\)"):
            calib.bounds(x, t, [design.shift], np.zeros(3, dtype=np.intp))
        # a float owner once passed the range check and failed as an IndexError
        with pytest.raises(ValueError, match="owner entries must be integers, got dtype float64"):
            calib.bounds(x, t, [design.shift], np.full(10, 0.5))
        assert all(len(a) == 10 for a in calib.bounds(x, t, [design.shift], np.zeros(10, dtype=np.intp)))

    def test_nonfinite_covariates_rejected(self):
        # a NaN covariate once gave NaN bounds next to finite ess and p_inf
        d, sp, model, gps = TestBlockedBand()._tied(n=200)
        calib = Calibration(d, sp, model, gps, ConformalConfig(0.1))
        x, t, owner = d.x[:3].copy(), d.t[:3], np.zeros(3, dtype=np.intp)
        for bad in (math.nan, math.inf):
            x[1, 0] = bad
            with pytest.raises(ValueError, match="covariate values must be finite"):
                calib.bounds(x, t, [NormalParams(0.0, 1.0)], owner)


class TestConformalConfig:
    def test_offset_defaults_to_zero(self):
        assert ConformalConfig(0.1).offset == 0.0
        assert ConformalConfig(0.1, "cqr", 0.001).offset == 0.001

    @pytest.mark.parametrize("offset", [-0.1, math.nan, math.inf, -math.inf])
    def test_rejects_bad_offset(self, offset):
        with pytest.raises(ValueError, match=re.escape("offset must be finite and >= 0")):
            ConformalConfig(0.1, "cqr", offset)


class TestIntervalType:
    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)
        with pytest.raises(ValueError):
            Interval(0.0, float("nan"))

    def test_contains_and_length(self):
        iv = Interval(-1.0, 3.0)
        assert iv.contains(0.0) and not iv.contains(4.0)
        assert iv.length == 4.0

    def test_band_grid_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            _two_point_band(t_grid=np.array([1.0, 0.5]))


def _two_point_band(**fields):
    """A valid two-point band, with the given fields replaced."""
    kw = dict(
        t_grid=np.array([0.5, 1.0]),
        lower=np.array([-1.0, -math.inf]),
        upper=np.array([1.0, math.inf]),
        x=np.array([0.0]),
        ess=np.ones(2),
        p_inf=np.zeros(2),
    )
    return PredictionBand(**{**kw, **fields})


class TestArrayBackedBand:
    """The band keeps its bounds as read-only arrays; ``intervals`` is a
    view of them."""

    def test_nan_bound_rejected(self):
        for name in ("lower", "upper"):
            with pytest.raises(ValueError, match="must not be NaN"):
                _two_point_band(**{name: np.array([0.0, math.nan])})

    def test_crossed_bounds_rejected(self):
        with pytest.raises(ValueError, match="lower <= upper"):
            _two_point_band(lower=np.array([-1.0, 2.0]), upper=np.array([1.0, 1.0]))

    def test_one_value_per_grid_point(self):
        for name in ("lower", "upper", "ess", "p_inf"):
            with pytest.raises(ValueError, match=f"{name} must have one value per grid point"):
                _two_point_band(**{name: np.zeros(3)})

    def test_bounds_are_owned_and_read_only(self):
        lower = np.array([-1.0, 0.0])
        band = _two_point_band(lower=lower)
        lower[0] = -5.0
        assert band.lower.tolist() == [-1.0, 0.0]
        for name in ("lower", "upper"):
            assert not getattr(band, name).flags.writeable

    def test_intervals_view_matches_the_arrays(self):
        gen = Rng(5).gen
        d = Dataset(gen.normal(size=200), gen.normal(size=200), gen.normal(size=(200, 1)))
        sp = split(d, 0.5, Rng(6))
        model = OracleQuantileModel(mean_fn=lambda xx, tt: xx[:, 0] + tt, variance=1.0, levels=(0.05, 0.95))
        band = prediction_band(
            d, sp, model, _flat_gps(), lambda t: NormalParams(t, 0.5),
            ConformalConfig(0.1), np.array([0.2]), -1.0, 1.0, 9,
        )
        assert len(band.intervals) == len(band.t_grid)
        for k, iv in enumerate(band.intervals):
            assert iv == Interval(band.lower[k], band.upper[k])
        assert band.intervals is band.intervals
        assert _two_point_band().intervals == (Interval(-1.0, 1.0), Interval(-math.inf, math.inf))
