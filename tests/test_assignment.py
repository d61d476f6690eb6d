import math

import numpy as np
import pytest
from scipy import integrate, stats

from doseband.assignment import (
    DecileMidpointAssignment,
    NormalAssignment,
    PositivityError,
    TruncatedNormalAssignment,
    UniformAssignment,
    WeightConfig,
    assignment_density,
    decile_boundaries,
    decile_index,
    decile_midpoint,
    stabilized_weight,
)
from doseband.dist import NormalParams, TruncatedNormalParams, normal_pdf
from doseband.propensity import CallableGps, OracleGaussianGps


def _boundaries_1_to_100():
    return decile_boundaries(np.arange(1.0, 101.0))


class TestDensities:
    def test_uniform_inside_outside(self):
        h = UniformAssignment(2.0, 6.0)
        assert assignment_density(h, 3.0) == pytest.approx(0.25)
        assert assignment_density(h, 1.9) == 0.0
        assert assignment_density(h, 6.1) == 0.0

    def test_normal_matches_dist(self):
        h = NormalAssignment(NormalParams(1.0, 0.5))
        assert assignment_density(h, 0.3) == pytest.approx(
            normal_pdf(0.3, NormalParams(1.0, 0.5)), rel=1e-14
        )

    def test_truncated_normal_matches_scipy(self):
        p = TruncatedNormalParams(2.0, 0.8, 1.0, 5.0)
        h = TruncatedNormalAssignment(p)
        a, b = (1.0 - 2.0) / p.sd, (5.0 - 2.0) / p.sd
        want = stats.truncnorm.pdf(2.7, a, b, loc=2.0, scale=p.sd)
        assert assignment_density(h, 2.7) == pytest.approx(want, rel=1e-9)

    def test_nonfinite_point_rejected(self):
        with pytest.raises(ValueError):
            assignment_density(UniformAssignment(0, 1), float("nan"))


class TestDeciles:
    def test_boundaries_1_to_100(self):
        # brute-force oracle: sort and interpolate order statistics
        t = np.arange(1.0, 101.0)
        b = decile_boundaries(t)
        srt = np.sort(t)
        oracle = [srt[0]] + [
            srt[int(math.floor(q))] * (1 - (q - math.floor(q)))
            + srt[min(int(math.floor(q)) + 1, 99)] * (q - math.floor(q))
            for q in (0.1 * j * 99 for j in range(1, 10))
        ] + [srt[-1]]
        np.testing.assert_allclose(b, oracle, rtol=1e-12)
        assert b[0] == 1.0 and b[-1] == 100.0
        assert b[1] == pytest.approx(10.9)

    def test_midpoint_fixed_point(self):
        b = _boundaries_1_to_100()
        mid3 = 0.5 * (b[3] + b[4])
        assert decile_midpoint(b, mid3) == pytest.approx(mid3)

    def test_index_clamps(self):
        b = _boundaries_1_to_100()
        assert decile_index(b, -50.0) == 0
        assert decile_index(b, 1e6) == 9

    def test_too_few_distinct(self):
        with pytest.raises(ValueError):
            decile_boundaries(np.array([1.0, 2.0] * 20))

    def test_k1_reduces_to_plain_normal(self):
        b = _boundaries_1_to_100()
        h = DecileMidpointAssignment(boundaries=b, s2=4.0, t_star=33.0, k=1.0)
        mid = decile_midpoint(b, 33.0)
        for t in (5.0, 33.0, 97.0):
            assert assignment_density(h, t) == pytest.approx(
                normal_pdf(t, NormalParams(mid, 4.0)), rel=1e-14
            )

    def test_k_half_scales_other_deciles(self):
        b = _boundaries_1_to_100()
        full = DecileMidpointAssignment(boundaries=b, s2=4.0, t_star=33.0, k=1.0)
        half = DecileMidpointAssignment(boundaries=b, s2=4.0, t_star=33.0, k=0.5)
        t_other = 77.0  # different decile than 33
        assert decile_index(b, t_other) != decile_index(b, 33.0)
        assert assignment_density(half, t_other) == pytest.approx(
            0.5 * assignment_density(full, t_other), rel=1e-14
        )
        t_same = 34.0
        assert decile_index(b, t_same) == decile_index(b, 33.0)
        assert assignment_density(half, t_same) == pytest.approx(
            assignment_density(full, t_same), rel=1e-14
        )

    def test_same_decile_points_share_numerator_mean(self):
        b = _boundaries_1_to_100()
        h = DecileMidpointAssignment(boundaries=b, s2=1.0, t_star=15.0, k=1.0)
        mid = decile_midpoint(b, 15.0)
        for t in (11.5, 15.0, 19.0):
            assert assignment_density(h, t) == pytest.approx(
                normal_pdf(t, NormalParams(mid, 1.0)), rel=1e-14
            )

    def test_density_bit_identical_to_per_call_decile_lookup(self):
        # the formula that looked t_star's decile and midpoint up on every call
        b = _boundaries_1_to_100()
        grid = np.concatenate(
            [b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf), np.linspace(-20.0, 120.0, 281)]
        )
        for t_star in (b[0] - 3.0, b[0], b[3], 0.5 * (b[3] + b[4]), b[9], b[10], b[10] + 3.0):
            h = DecileMidpointAssignment(boundaries=b, s2=4.0, t_star=t_star, k=0.5)
            base = normal_pdf(grid, NormalParams(decile_midpoint(b, t_star), 4.0))
            old = np.where(decile_index(b, grid) == decile_index(b, t_star), base, 0.5 * base)
            assert np.array_equal(h.density(grid), old)
            assert [h.density(t) for t in grid[:11]] == old[:11].tolist()


class TestStabilizedWeight:
    def test_identical_densities_weight_one(self):
        h = NormalAssignment(NormalParams(1.0, 0.5))
        gps = OracleGaussianGps(mean_fn=lambda x: np.full(x.shape[0], 1.0), variance=0.5)
        w = stabilized_weight(h, gps, WeightConfig(), 1.0, np.array([3.3]))
        assert w == pytest.approx(1.0, rel=1e-14)

    def test_no_shift_all_weights_one(self):
        # h equal to the (covariate-free) conditional density: every weight is 1
        h = NormalAssignment(NormalParams(0.0, 2.0))
        gps = CallableGps(fn=lambda t, x: normal_pdf(t, NormalParams(0.0, 2.0)))
        t = np.linspace(-3, 3, 25)
        x = np.zeros((25, 1))
        w = stabilized_weight(h, gps, WeightConfig(), t, x)
        np.testing.assert_allclose(w, 1.0, rtol=1e-14)

    def test_truncation_scenario_weight_cross_checked(self):
        # numerator TN(2, 0.8, [1,5]) at t=2; denominator TN(x^2+1, 1, [0.5,5])
        # at (t=2, x=1) plus the 0.001 offset; oracle built by quadrature
        # normalization of the raw normal density
        num_p = TruncatedNormalParams(2.0, 0.8, 1.0, 5.0)
        h = TruncatedNormalAssignment(num_p)

        def den_fn(t, x):
            mean = x[:, 0] ** 2 + 1.0
            out = np.empty(len(mean))
            for i, m in enumerate(mean):
                out[i] = np.exp(
                    -0.5 * (t[i] - m) ** 2
                ) / math.sqrt(2 * math.pi)
            # renormalize by in-bounds mass on [0.5, 5]
            for i, m in enumerate(mean):
                mass, _ = integrate.quad(
                    lambda u: np.exp(-0.5 * (u - m) ** 2) / math.sqrt(2 * math.pi), 0.5, 5.0
                )
                out[i] /= mass
            return np.where((t >= 0.5) & (t <= 5.0), out, 0.0)

        gps = CallableGps(fn=den_fn)
        got = stabilized_weight(h, gps, WeightConfig(offset=0.001), 2.0, np.array([1.0]))

        num_mass, _ = integrate.quad(
            lambda u: np.exp(-0.5 * (u - 2.0) ** 2 / 0.8) / math.sqrt(2 * math.pi * 0.8), 1.0, 5.0
        )
        num = np.exp(0.0) / math.sqrt(2 * math.pi * 0.8) / num_mass
        den_mass, _ = integrate.quad(
            lambda u: np.exp(-0.5 * (u - 2.0) ** 2) / math.sqrt(2 * math.pi), 0.5, 5.0
        )
        den = 1.0 / math.sqrt(2 * math.pi) / den_mass + 0.001
        assert got == pytest.approx(num / den, rel=1e-7)

    def test_positivity_error_and_offset_rescue(self):
        h = UniformAssignment(0.0, 10.0)
        gps = CallableGps(fn=lambda t, x: np.zeros_like(t))
        with pytest.raises(PositivityError):
            stabilized_weight(h, gps, WeightConfig(), 5.0, np.array([0.0]))
        w = stabilized_weight(h, gps, WeightConfig(offset=0.001), 5.0, np.array([0.0]))
        assert w == pytest.approx(0.1 / 0.001)

    def test_zero_numerator_zero_weight(self):
        h = UniformAssignment(0.0, 1.0)
        gps = CallableGps(fn=lambda t, x: np.zeros_like(t))
        # no assignment mass at t=5, so no positivity complaint either
        assert stabilized_weight(h, gps, WeightConfig(), 5.0, np.array([0.0])) == 0.0

    def test_nonnegative_always(self):
        gen = np.random.default_rng(0)
        h = NormalAssignment(NormalParams(0.0, 1.0))
        gps = OracleGaussianGps(mean_fn=lambda x: x[:, 0], variance=2.0)
        t = gen.normal(size=50)
        x = gen.normal(size=(50, 1))
        w = stabilized_weight(h, gps, WeightConfig(), t, x)
        assert np.all(w >= 0.0)
