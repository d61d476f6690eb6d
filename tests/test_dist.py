import math
import warnings

import numpy as np
import pytest
from scipy import integrate, stats

from doseband.dist import (
    _ACKLAM_A,
    _ACKLAM_B,
    _ACKLAM_C,
    _ACKLAM_D,
    _ACKLAM_PLOW,
    NormalParams,
    Rng,
    TruncatedNormalParams,
    _at_least_two,
    _erfc,
    _horner,
    _log_std_lower_tail,
    _normal_density,
    _rational,
    _std_lower_tail,
    _std_normal_quantile,
    _truncated_normal_logpdf_core,
    _truncated_normal_transform,
    normal_quantile,
)
from doseband.propensity import MixtureGps

STD = NormalParams(0.0, 1.0)


def _erf_series(z, terms=120):
    """Taylor series for erf, independent of math.erf/erfc."""
    acc = 0.0
    term = z
    for n in range(terms):
        acc += term / (2 * n + 1)
        term *= -z * z / (n + 1)
    return 2.0 / math.sqrt(math.pi) * acc


def _series_cdf(x):
    return 0.5 * (1.0 + _erf_series(x / math.sqrt(2.0)))


def _bisect_quantile(prob, lo=-12.0, hi=12.0, iters=200):
    """Quantile oracle: bisection on the series-based CDF."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if _series_cdf(mid) < prob:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _quantile_with_generic_density(prob, p):
    """``normal_quantile`` with the Newton step's density taken from the
    generic ``_normal_density(x, 0.0, 1.0)``, as it was computed before
    the step built the standard density in place."""
    q = _at_least_two(np.asarray(prob, dtype=float).flatten())
    flip = (q > 0.5).nonzero()[0]
    q[flip] = 1.0 - q[flip]
    u = q - 0.5
    r = np.multiply(u, u)
    x = _horner(r, _ACKLAM_A)
    x *= u
    x /= _horner(r, _ACKLAM_B)
    lo = _at_least_two((q < _ACKLAM_PLOW).nonzero()[0])
    if lo.size:
        x[lo] = _rational(np.sqrt(-2.0 * np.log(q[lo])), _ACKLAM_C, _ACKLAM_D)
    step = _std_lower_tail(x)
    step -= q
    pdf = _normal_density(x, 0.0, 1.0)
    ok = pdf > 0.0
    np.divide(step, pdf, out=step, where=ok)
    np.subtract(x, step, out=x, where=ok)
    x[flip] = -x[flip]
    return p.mean + p.sd * x[: np.size(prob)].reshape(np.shape(prob))


class TestNormal:
    def test_quantile_bit_identical_to_the_generic_density_step(self):
        g = Rng(21).gen
        probs = np.concatenate(
            [
                10.0 ** g.uniform(-320.0, -1.62, 2500),  # lower tail, subnormals included
                g.uniform(0.02425, 0.5, 2500),
                g.uniform(0.5, 0.97575, 2500),
                1.0 - 10.0 ** g.uniform(-16.0, -1.62, 2500),  # upper tail
            ]
        )
        probs[:4] = 1e-320, 0.5, 1.0 - 1e-16, 0.97575
        for p in (STD, NormalParams(-3.0, 16.0)):
            assert np.array_equal(normal_quantile(probs, p), _quantile_with_generic_density(probs, p))
            assert normal_quantile(0.9, p) == _quantile_with_generic_density(0.9, p)

    def test_pdf_at_zero(self):
        assert STD.density(0.0) == pytest.approx(0.3989422804014327, abs=1e-12)

    def test_pdf_peak_value(self):
        for a, b in [(2.0, 3.0), (-1.5, 0.25)]:
            assert NormalParams(a, b).density(a) == pytest.approx(
                1.0 / math.sqrt(2.0 * math.pi * b), rel=1e-14
            )

    def test_pdf_matches_cdf_differencing(self):
        # derivative of the CDF recovers the density
        p = NormalParams(1.0, 0.5)
        h = 1e-6
        cdf = stats.norm(p.mean, p.sd).cdf
        oracle = (cdf(2.0 + h) - cdf(2.0 - h)) / (2.0 * h)
        assert p.density(2.0) == pytest.approx(oracle, rel=1e-8)

    def test_pdf_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            STD.density(float("nan"))
        with pytest.raises(ValueError):
            STD.density(float("inf"))

    def test_quantile_median_is_mean(self):
        assert normal_quantile(0.5, NormalParams(3.0, 9.0)) == pytest.approx(3.0, abs=1e-12)

    def test_quantile_095_frozen(self):
        # frozen from the series-bisection oracle
        oracle = _bisect_quantile(0.95)
        assert oracle == pytest.approx(1.6448536269514722, abs=1e-9)
        assert normal_quantile(0.95, STD) == pytest.approx(1.6448536269514722, abs=1e-10)

    def test_quantile_005_var9(self):
        assert normal_quantile(0.05, NormalParams(0.0, 9.0)) == pytest.approx(
            -3.0 * 1.6448536269514722, abs=1e-9
        )

    def test_quantile_rejects_bad_prob(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                normal_quantile(bad, STD)

    def test_cdf_quantile_roundtrip(self):
        # +-8 sigma round trip within 1e-8. Doubles near 1 are spaced 1.1e-16,
        # which destroys upper-tail information beyond ~6 sigma before the
        # quantile ever runs, so the deep upper tail is checked through its
        # mirror image (the same values the quantile recovers via symmetry).
        p = NormalParams(0.0, 1.0)
        cdf = stats.norm(p.mean, p.sd).cdf
        x = np.linspace(-8.0, 0.0, 321)
        back = normal_quantile(cdf(x), p)
        assert np.max(np.abs(back - x)) < 1e-8
        upper = -normal_quantile(cdf(-np.linspace(0.0, 8.0, 321)), p)
        assert np.max(np.abs(upper - np.linspace(0.0, 8.0, 321))) < 1e-8
        both = np.linspace(-5.5, 5.5, 441)
        assert np.max(np.abs(normal_quantile(cdf(both), p) - both)) < 1e-8

    def test_quantile_accuracy_in_cdf_terms(self):
        probs = np.concatenate(
            [np.geomspace(1e-12, 0.4, 50), 1.0 - np.geomspace(1e-12, 0.4, 50)]
        )
        q = normal_quantile(probs, STD)
        assert np.max(np.abs(stats.norm(0.0, 1.0).cdf(q) - probs)) < 1e-12

    def test_pdf_integrates_to_one(self):
        for p in [STD, NormalParams(2.0, 0.8), NormalParams(-3.0, 16.0)]:
            val, _ = integrate.quad(p.density, p.mean - 12 * p.sd, p.mean + 12 * p.sd)
            assert val == pytest.approx(1.0, abs=1e-6)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            NormalParams(0.0, 0.0)
        with pytest.raises(ValueError):
            NormalParams(0.0, -1.0)


class TestErfc:
    """The array erfc against math.erfc, the correctly rounded reference."""

    def test_within_8_ulp_of_math_erfc(self):
        edges = [0.46875, -0.46875, 4.0, -4.0]
        x = np.concatenate(
            [
                np.linspace(-6.0, 27.0, 200_001),
                Rng(0).gen.standard_normal(100_000),
                [np.nextafter(e, d) for e in edges for d in (-np.inf, np.inf)],
                edges,
                [0.0, -0.0],
            ]
        )
        ref = np.array([math.erfc(v) for v in x])
        normal = ref >= np.finfo(float).tiny
        assert normal.sum() > 280_000
        ulps = np.abs(_erfc(x) - ref)[normal] / np.spacing(ref[normal])
        assert ulps.max() <= 8.0

    def test_special_values(self):
        out = _erfc(np.array([np.inf, -np.inf, np.nan, 0.0, -0.0]))
        assert out[0] == 0.0 and out[1] == 2.0
        assert np.isnan(out[2])
        assert out[3] == 1.0 and out[4] == 1.0

    def test_keeps_shape(self):
        assert _erfc(np.array(0.3)).shape == ()
        assert _erfc(np.array(0.3)) == pytest.approx(math.erfc(0.3), rel=1e-15)
        assert _erfc(np.zeros((2, 3))).shape == (2, 3)


# Each kernel evaluates one range's formula on every element and patches
# the others by index; the ranges below are those of its input.
_ERFC_RANGES = {
    "small": lambda g, k: g.uniform(-0.46875, 0.46875, k),
    "mid": lambda g, k: g.choice([-1.0, 1.0], k) * g.uniform(0.47, 4.0, k),
    "tail": lambda g, k: g.choice([-1.0, 1.0], k) * g.uniform(4.01, 30.0, k),
}
_SQRT2 = math.sqrt(2.0)
_KERNEL_RANGES = [
    (_erfc, _ERFC_RANGES),
    # Phi(z) = erfc(-z / sqrt(2)) / 2: the same ranges, scaled
    (_std_lower_tail, {k: lambda g, n, f=f: _SQRT2 * f(g, n) for k, f in _ERFC_RANGES.items()}),
    (
        _log_std_lower_tail,
        {
            "small": lambda g, k: g.uniform(-0.66, 0.66, k),
            "mid": lambda g, k: g.uniform(-5.6, -0.67, k),
            "tail": lambda g, k: g.uniform(-25.0, -5.7, k),
            "deep": lambda g, k: g.uniform(-60.0, -25.01, k),
        },
    ),
    (
        _std_normal_quantile,
        {
            "central": lambda g, k: g.uniform(0.02425, 0.97575, k),
            "low": lambda g, k: 10.0 ** g.uniform(-320.0, -1.62, k),
            "high": lambda g, k: 1.0 - 10.0 ** g.uniform(-16.0, -1.62, k),
        },
    ),
]


def _mixed_values(ranges: dict, majority: str, g) -> np.ndarray:
    """10,000 values in shuffled order: 9,000 from the majority range, the
    rest split over the other ranges; each range draws from a few
    distinct values, so every element can be checked alone."""
    minority = [k for k in ranges if k != majority]
    parts = [g.choice(ranges[majority](g, 100), 9000)]
    parts += [g.choice(ranges[k](g, 25), 1000 // len(minority)) for k in minority]
    values = np.concatenate(parts)
    values = np.concatenate([values, values[: 10_000 - values.size]])
    return g.permutation(values)


class TestKernels:
    """The array kernels act elementwise, whatever shares the array."""

    @pytest.mark.parametrize("kernel, ranges", _KERNEL_RANGES, ids=[k.__name__ for k, _ in _KERNEL_RANGES])
    def test_each_element_as_if_alone(self, kernel, ranges):
        g = Rng(7).gen
        for majority in ranges:
            x = _mixed_values(ranges, majority, g)
            got = kernel(x)
            distinct = np.unique(x)
            alone = [kernel(np.array(v)) for v in distinct]
            assert all(a.shape == () for a in alone)
            want = np.array(alone)[np.searchsorted(distinct, x)]
            assert np.array_equal(got, want), majority
            square = x.reshape(100, 100)
            assert np.array_equal(kernel(square), got.reshape(100, 100))
            assert np.array_equal(kernel(square.T), got.reshape(100, 100).T)  # a strided view

    def test_truncated_rows_as_if_alone(self):
        g = Rng(8).gen
        x = g.standard_normal(100)
        for sd in (np.ones(100), np.abs(x)):  # trunc-homo, trunc-hetero
            rows = g.integers(0, 100, 10_000)
            mean, sd_rows = x[rows] ** 2 + 1.0, sd[rows]
            u, t = g.random(100)[rows], g.uniform(0.0, 6.0, 100)[rows]
            draws = _truncated_normal_transform(mean, sd_rows, 0.5, 5.0, u)
            logpdf = _truncated_normal_logpdf_core(t, mean, sd_rows, 0.5, 5.0)
            for i in np.unique(rows):
                k = rows == i
                alone = (np.array(mean[k][0]), np.array(sd_rows[k][0]), 0.5, 5.0)
                assert np.all(draws[k] == _truncated_normal_transform(*alone, np.array(u[k][0])))
                assert np.all(logpdf[k] == _truncated_normal_logpdf_core(np.array(t[k][0]), *alone))

    def test_no_runtime_warning_at_the_edges(self):
        big = np.finfo(float).max
        edges = np.array(
            [0.0, -0.0, np.inf, -np.inf, np.nan, 40.0, -40.0, 41.0, -41.0, 1e3, -1e3, 1e200, -1e200, big, -big]
        )
        probs = np.array([1e-320, 1.0 - 1e-16, 0.5, np.nan])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kernel in (_erfc, _std_lower_tail, _log_std_lower_tail):
                kernel(edges)
                for v in edges:
                    kernel(np.array(v))
            _std_normal_quantile(probs)
            means = np.array([2.0, 37.0, -50.0, 1e3, -1e3])
            _truncated_normal_transform(means, 1.0, 0.5, 5.0, np.array([0.0, 1.0, 0.5, 1.0 - 1e-16, 1e-320]))
            _truncated_normal_logpdf_core(np.array([np.inf, -np.inf, np.nan, 0.0, 6.0]), means, 1.0, 0.5, 5.0)


def _truncated_draws(p: TruncatedNormalParams, rng: Rng, size: int) -> np.ndarray:
    """Inverse-CDF draws through the transform ``sim.generate`` runs."""
    return _truncated_normal_transform(p.mean, p.sd, p.lower, p.upper, rng.gen.random(size))


class TestTruncatedNormal:
    P = TruncatedNormalParams(2.0, 0.8, 1.0, 5.0)

    def test_pdf_zero_outside(self):
        density = self.P.density
        assert density(0.99) == 0.0
        assert density(5.01) == 0.0

    def test_pdf_integrates_to_one(self):
        val, _ = integrate.quad(self.P.density, 1.0, 5.0)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_samples_in_bounds_and_mean(self):
        p = TruncatedNormalParams(2.0, 0.8, 0.5, 5.0)
        draws = _truncated_draws(p, Rng(11), 100_000)
        assert draws.min() >= 0.5 and draws.max() <= 5.0
        a = (p.lower - p.mean) / p.sd
        b = (p.upper - p.mean) / p.sd
        truth = stats.truncnorm.mean(a, b, loc=p.mean, scale=p.sd)
        sd = stats.truncnorm.std(a, b, loc=p.mean, scale=p.sd)
        se = sd / math.sqrt(100_000)
        assert abs(draws.mean() - truth) < 3.0 * se

    def test_core_transform_handles_extreme_offsets(self):
        # the transform keeps working when the window mass underflows:
        # everything piles up at the boundary nearest the mean
        u = Rng(3).gen.random(1000)
        draws = _truncated_normal_transform(37.0, 1.0, 0.5, 5.0, u)
        assert np.all((draws >= 0.5) & (draws <= 5.0))
        assert draws.min() > 4.0
        draws_low = _truncated_normal_transform(-50.0, 1.0, 0.5, 5.0, u)
        assert np.all(draws_low <= 1.0)

    def test_core_logpdf_matches_scipy_moderate_tail(self):
        from doseband.dist import _truncated_normal_logpdf_core

        mean, sd, lo, hi = 12.0, 1.0, 0.5, 5.0
        got = _truncated_normal_logpdf_core(np.array([2.0, 4.5]), mean, sd, lo, hi)
        want = stats.truncnorm.logpdf(
            [2.0, 4.5], (lo - mean) / sd, (hi - mean) / sd, loc=mean, scale=sd
        )
        np.testing.assert_allclose(got, want, rtol=1e-9)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            TruncatedNormalParams(0.0, 1.0, 2.0, 2.0)


def _mixture_density(components, t):
    """Density at t of the intercept-only mixture GPS with the given
    (weight, NormalParams) components."""
    weights, params = zip(*components)
    gps = MixtureGps(
        mix_weights=np.array(weights),
        betas=np.array([[p.mean] for p in params]),
        variances=np.array([p.variance for p in params]),
        basis=lambda x: np.empty((len(x), 0)),
    )
    t = np.atleast_1d(np.asarray(t, dtype=float))
    return gps.density(t, np.zeros((len(t), 1)))


class TestMixture:
    """The finite Gaussian mixture density, as the mixture GPS evaluates it."""

    def test_single_component_equals_normal(self):
        x = np.linspace(-4, 6, 101)
        np.testing.assert_allclose(
            _mixture_density([(1.0, NormalParams(1.0, 2.0))], x), NormalParams(1.0, 2.0).density(x)
        )

    def test_two_identical_components(self):
        comp = NormalParams(0.5, 1.5)
        got = _mixture_density([(0.5, comp), (0.5, comp)], 0.3)[0]
        assert got == pytest.approx(comp.density(0.3), rel=1e-14)

    def test_weighted_sum(self):
        comps = [(0.3, NormalParams(0.0, 1.0)), (0.7, NormalParams(2.0, 4.0))]
        expected = 0.3 * NormalParams(0.0, 1.0).density(1.0) + 0.7 * NormalParams(2.0, 4.0).density(1.0)
        assert _mixture_density(comps, 1.0)[0] == pytest.approx(expected, rel=1e-14)

    def test_integrates_to_one(self):
        comps = [(0.4, NormalParams(-1.0, 0.5)), (0.6, NormalParams(3.0, 2.0))]
        val, _ = integrate.quad(lambda u: _mixture_density(comps, u)[0], -15, 20)
        assert val == pytest.approx(1.0, abs=1e-6)


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(1234).gen.normal(size=100)
        b = Rng(1234).gen.normal(size=100)
        np.testing.assert_array_equal(a, b)

    def test_sampling_determinism_truncated(self):
        p = TruncatedNormalParams(2.0, 0.8, 1.0, 5.0)
        d1 = _truncated_draws(p, Rng(7), 50)
        d2 = _truncated_draws(p, Rng(7), 50)
        np.testing.assert_array_equal(d1, d2)

    def test_spawn_children_reproducible_and_distinct(self):
        kids1 = [r.gen.normal(size=8) for r in Rng(5).spawn(3)]
        kids2 = [r.gen.normal(size=8) for r in Rng(5).spawn(3)]
        for a, b in zip(kids1, kids2):
            np.testing.assert_array_equal(a, b)
        assert not np.allclose(kids1[0], kids1[1])

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            Rng(-1)
        with pytest.raises(ValueError):
            Rng(1.5)  # type: ignore[arg-type]
