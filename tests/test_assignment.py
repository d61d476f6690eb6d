import math
import re

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
    decile_boundaries,
    decile_index,
    likelihood_ratio,
)
from doseband.conformal import Calibration, ConformalConfig
from doseband.data import Dataset, SplitIndices
from doseband.dist import (
    NormalParams,
    TruncatedNormalParams,
    _truncated_normal_log_mass,
    _truncated_normal_logpdf_core,
    normal_pdf,
)
from doseband.outcome import OracleQuantileModel
from doseband.propensity import CallableGps, MixtureGps


def _boundaries_1_to_100():
    return decile_boundaries(np.arange(1.0, 101.0))


def _midpoint(b, t):
    """Midpoint of t's decile, the oracle for the decile-midpoint numerator."""
    j = int(decile_index(b, t))
    return 0.5 * (b[j] + b[j + 1])


class TestDensities:
    def test_uniform_inside_outside(self):
        h = UniformAssignment(2.0, 6.0)
        assert h.density(3.0) == pytest.approx(0.25)
        assert h.density(1.9) == 0.0
        assert h.density(6.1) == 0.0

    def test_uniform_rejects_nonfinite_bounds(self):
        # an infinite width would give density 0 everywhere, and fail only
        # later as "weights must not all be zero"
        inf, nan = math.inf, math.nan
        for lower, upper in ((0.0, inf), (-inf, 0.0), (-inf, inf), (nan, 1.0), (0.0, nan)):
            with pytest.raises(ValueError, match="bounds must be finite"):
                UniformAssignment(lower, upper)
        with pytest.raises(ValueError, match="lower < upper"):
            UniformAssignment(1.0, 1.0)

    def test_normal_matches_dist(self):
        h = NormalAssignment(NormalParams(1.0, 0.5))
        assert h.density(0.3) == pytest.approx(
            normal_pdf(0.3, NormalParams(1.0, 0.5)), rel=1e-14
        )

    def test_truncated_normal_matches_scipy(self):
        p = TruncatedNormalParams(2.0, 0.8, 1.0, 5.0)
        h = TruncatedNormalAssignment(p)
        a, b = (1.0 - 2.0) / p.sd, (5.0 - 2.0) / p.sd
        want = stats.truncnorm.pdf(2.7, a, b, loc=2.0, scale=p.sd)
        assert h.density(2.7) == pytest.approx(want, rel=1e-9)

    def test_nonfinite_point_rejected(self):
        gps = CallableGps(fn=lambda t, x: np.ones_like(t))
        calib = _calibration(np.linspace(0.1, 0.9, 4), gps, WeightConfig())
        for test_atom in (True, False):
            with pytest.raises(ValueError, match="treatment values must be finite"):
                _query(calib, UniformAssignment(0, 1), [math.nan], test_atom=test_atom)

    @pytest.mark.parametrize(
        "h",
        [
            NormalAssignment(NormalParams(1.0, 0.5)),
            TruncatedNormalAssignment(TruncatedNormalParams(2.0, 0.8, 1.0, 5.0)),
            UniformAssignment(0.0, 3.0),
            DecileMidpointAssignment(np.arange(11.0), 1.0, 4.5),
        ],
        ids=lambda h: type(h).__name__,
    )
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_density_rejects_nonfinite_points(self, h, bad):
        for t in (bad, np.array([1.0, bad])):
            with pytest.raises(ValueError, match="evaluation points must be finite"):
                h.density(t)

    def test_truncated_normal_log_mass_computed_once(self, monkeypatch):
        p = TruncatedNormalParams(2.0, 0.8, 1.0, 5.0)
        calls = []
        monkeypatch.setattr(
            "doseband.assignment._truncated_normal_log_mass",
            lambda *a: calls.append(a) or _truncated_normal_log_mass(*a),
        )
        h = TruncatedNormalAssignment(p)
        t = np.linspace(0.0, 6.0, 601)
        first, second = h.density(t), h.density(t[::-1])
        assert len(calls) == 1
        # bit-identical to the log density that computes its own mass
        want = np.exp(_truncated_normal_logpdf_core(t, p.mean, p.sd, p.lower, p.upper))
        assert np.array_equal(first, want) and np.array_equal(second, want[::-1])
        assert [h.density(v) for v in t[:5]] == want[:5].tolist()


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
        assert _midpoint(b, mid3) == pytest.approx(mid3)

    def test_index_clamps(self):
        b = _boundaries_1_to_100()
        assert decile_index(b, -50.0) == 0
        assert decile_index(b, 1e6) == 9

    def test_too_few_distinct(self):
        with pytest.raises(ValueError):
            decile_boundaries(np.array([1.0, 2.0] * 20))

    def test_nonfinite_treatments_rejected(self):
        b = np.linspace(0.0, 10.0, 11)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                decile_boundaries(np.r_[np.arange(20.0), bad])
            with pytest.raises(ValueError, match="finite"):
                decile_index(b, bad)
            with pytest.raises(ValueError, match="finite"):
                decile_index(b, np.array([1.0, bad, 3.0]))

    def test_nonfinite_t_star_rejected(self):
        b = np.linspace(0.0, 10.0, 11)
        for t_star in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="t_star must be finite"):
                DecileMidpointAssignment(b, 1.0, t_star)

    @pytest.mark.parametrize("t_star", [45.0, 5.0, 95.0], ids=["inner", "first", "last"])
    def test_nonfinite_boundaries_rejected(self, t_star):
        b = _boundaries_1_to_100()
        for j, bad in ((0, -math.inf), (10, math.inf), (0, math.nan), (5, math.nan), (10, math.nan)):
            nonfinite = b.copy()
            nonfinite[j] = bad
            with pytest.raises(ValueError, match="boundaries must be finite"):
                DecileMidpointAssignment(nonfinite, 4.0, t_star, 0.5)
        with pytest.raises(ValueError, match="11 strictly increasing"):
            DecileMidpointAssignment(b[::-1], 4.0, t_star, 0.5)

    @pytest.mark.parametrize("t_star", [45.0, 5.0, 95.0], ids=["inner", "first", "last"])
    def test_s2_must_be_finite_and_positive(self, t_star):
        b = _boundaries_1_to_100()
        for s2 in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="s2 must be finite"):
                DecileMidpointAssignment(b, s2, t_star, 0.5)
        for s2 in (0.0, -1.0):
            with pytest.raises(ValueError, match="s2 must be positive"):
                DecileMidpointAssignment(b, s2, t_star, 0.5)

    def test_k1_reduces_to_plain_normal(self):
        b = _boundaries_1_to_100()
        h = DecileMidpointAssignment(boundaries=b, s2=4.0, t_star=33.0, k=1.0)
        mid = _midpoint(b, 33.0)
        for t in (5.0, 33.0, 97.0):
            assert h.density(t) == pytest.approx(
                normal_pdf(t, NormalParams(mid, 4.0)), rel=1e-14
            )

    def test_k_half_scales_other_deciles(self):
        b = _boundaries_1_to_100()
        full = DecileMidpointAssignment(boundaries=b, s2=4.0, t_star=33.0, k=1.0)
        half = DecileMidpointAssignment(boundaries=b, s2=4.0, t_star=33.0, k=0.5)
        t_other = 77.0  # different decile than 33
        assert decile_index(b, t_other) != decile_index(b, 33.0)
        assert half.density(t_other) == pytest.approx(0.5 * full.density(t_other), rel=1e-14)
        t_same = 34.0
        assert decile_index(b, t_same) == decile_index(b, 33.0)
        assert half.density(t_same) == pytest.approx(full.density(t_same), rel=1e-14)

    def test_same_decile_points_share_numerator_mean(self):
        b = _boundaries_1_to_100()
        h = DecileMidpointAssignment(boundaries=b, s2=1.0, t_star=15.0, k=1.0)
        mid = _midpoint(b, 15.0)
        for t in (11.5, 15.0, 19.0):
            assert h.density(t) == pytest.approx(
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
            base = normal_pdf(grid, NormalParams(_midpoint(b, t_star), 4.0))
            old = np.where(decile_index(b, grid) == decile_index(b, t_star), base, 0.5 * base)
            assert np.array_equal(h.density(grid), old)
            assert [h.density(t) for t in grid[:11]] == old[:11].tolist()


class TestLikelihoodRatio:
    def test_scalar_inputs_give_float(self):
        w = likelihood_ratio(0.5, 0.25, 1.0)
        assert type(w) is float and w == 2.0

    def test_block_broadcasts_t(self):
        num = np.array([[1.0, 2.0, 0.0], [3.0, 0.0, 6.0]])
        t = np.array([0.1, 0.2, 0.3])
        w = likelihood_ratio(num, np.array([2.0, 4.0, 8.0]), t)
        assert w.shape == (2, 3) and np.array_equal(w, num / np.array([2.0, 4.0, 8.0]))
        # only (1, 2) lacks support; its treatment is t's third entry
        with pytest.raises(PositivityError, match=re.escape("t=[0.3]")):
            likelihood_ratio(num, np.array([2.0, 4.0, 0.0]), t)

    def test_zero_numerator_over_zero_denominator_gives_zero(self):
        assert likelihood_ratio(0.0, 0.0, 1.0) == 0.0
        w = likelihood_ratio(np.array([0.0, 1.0]), np.array([0.0, 2.0]), np.array([1.0, 2.0]))
        assert w.tolist() == [0.0, 0.5]

    def test_positivity_error_names_three_distinct_treatments_in_order(self):
        t = np.array([5.0, 3.0, 5.0, 7.0, 9.0])
        with pytest.raises(PositivityError, match=re.escape("t=[5.0, 3.0, 7.0];")):
            likelihood_ratio(np.ones(5), np.zeros(5), t)


def _calibration(t_cal, gps, weight_cfg):
    """A ``Calibration`` whose calibration half has the treatments t_cal."""
    t_cal = np.asarray(t_cal, dtype=float)
    n = len(t_cal)
    data = Dataset(np.arange(2.0 * n), np.r_[t_cal, t_cal], np.zeros((2 * n, 1)))
    model = OracleQuantileModel(mean_fn=lambda x, t: np.zeros(len(t)), variance=1.0)
    sp = SplitIndices(np.arange(n, 2 * n), np.arange(n))
    return Calibration(data, sp, model, gps, ConformalConfig(0.1, "absolute-residual"), weight_cfg)


def _query(calib, h, t, test_atom=True):
    """``bounds`` at the treatments t, x = 0, all weighted by h."""
    t = np.asarray(t, dtype=float)
    return calib.bounds(np.zeros((len(t), 1)), t, [h], np.zeros(len(t), dtype=np.intp), test_atom)


class TestStabilizedWeight:
    """The weight h(t) / (gps(t | x) + offset): ``likelihood_ratio`` of
    the two densities, and the offset and checks of ``Calibration``."""

    def test_identical_densities_weight_one(self):
        h = NormalAssignment(NormalParams(1.0, 0.5))
        gps = MixtureGps(mix_weights=[1.0], betas=[[0.0, 1.0]], variances=[0.5], basis=lambda x: np.full(x.shape[0], 1.0))
        w = likelihood_ratio(h.density(1.0), gps.density(1.0, np.array([3.3])), 1.0)
        assert w == pytest.approx(1.0, rel=1e-14)

    def test_no_shift_all_weights_one(self):
        # h equal to the (covariate-free) conditional density: every weight is 1
        h = NormalAssignment(NormalParams(0.0, 2.0))
        gps = CallableGps(fn=lambda t, x: normal_pdf(t, NormalParams(0.0, 2.0)))
        t = np.linspace(-3, 3, 25)
        x = np.zeros((25, 1))
        w = likelihood_ratio(h.density(t), gps.density(t, x), t)
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
        got = likelihood_ratio(h.density(2.0), gps.density(2.0, np.array([1.0])) + 0.001, 2.0)

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
        t_cal = np.array([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(PositivityError, match=re.escape("t=[1.0, 2.0, 3.0];")):
            _query(_calibration(t_cal, gps, WeightConfig()), h, [5.0])
        # with the offset every weight, the test weight included, is 0.1 / 0.001
        _, _, ess, p_inf = _query(_calibration(t_cal, gps, WeightConfig(offset=0.001)), h, [5.0])
        assert ess[0] == pytest.approx(4.0, rel=1e-14)
        assert p_inf[0] == pytest.approx(1.0 / 5.0, rel=1e-14)

    def test_zero_numerator_zero_weight(self):
        h = UniformAssignment(0.0, 1.0)
        gps = CallableGps(fn=lambda t, x: np.where(t > 2.0, 0.0, 1.0))
        calib = _calibration(np.linspace(0.1, 0.9, 4), gps, WeightConfig())
        # no assignment mass at t=5, so no positivity complaint either
        _, _, _, p_inf = _query(calib, h, [5.0])
        assert p_inf[0] == 0.0

    def test_nonnegative_always(self):
        gen = np.random.default_rng(0)
        h = NormalAssignment(NormalParams(0.0, 1.0))
        gps = MixtureGps(mix_weights=[1.0], betas=[[0.0, 1.0]], variances=[2.0], basis=lambda x: x[:, 0])
        t = gen.normal(size=50)
        x = gen.normal(size=(50, 1))
        w = likelihood_ratio(h.density(t), gps.density(t, x), t)
        assert np.all(w >= 0.0)


class TestValueSemantics:
    """Assignments compare and hash by value, equal meaning equal density:
    a prediction band calibrates once per distinct assignment."""

    def _variants(self):
        """(label, assignment) pairs; equal labels mean equal densities."""
        b = _boundaries_1_to_100()
        nudged = b.copy()
        nudged[5] = np.nextafter(nudged[5], np.inf)
        mid3 = 0.5 * (b[3] + b[4])
        return [
            ("normal", NormalAssignment(NormalParams(1.0, 0.5))),
            ("normal", NormalAssignment(NormalParams(1.0, 0.5))),
            ("normal mean", NormalAssignment(NormalParams(1.5, 0.5))),
            ("trunc", TruncatedNormalAssignment(TruncatedNormalParams(2.0, 0.8, 1.0, 5.0))),
            ("trunc", TruncatedNormalAssignment(TruncatedNormalParams(2.0, 0.8, 1.0, 5.0))),
            ("trunc upper", TruncatedNormalAssignment(TruncatedNormalParams(2.0, 0.8, 1.0, 6.0))),
            ("uniform", UniformAssignment(0.0, 1.0)),
            ("uniform", UniformAssignment(0.0, 1.0)),
            ("uniform upper", UniformAssignment(0.0, 2.0)),
            # decile 3 under four spellings, then one change at a time
            ("decile 3", DecileMidpointAssignment(b, s2=4.0, t_star=b[3], k=0.5)),
            ("decile 3", DecileMidpointAssignment(list(b), s2=4.0, t_star=mid3, k=0.5)),
            ("decile 3", DecileMidpointAssignment(b.copy(), s2=4, t_star=np.nextafter(b[4], -np.inf), k=0.5)),
            ("decile 3", DecileMidpointAssignment(b, s2=4.0, t_star=np.float64(mid3), k=0.5)),
            ("decile 4", DecileMidpointAssignment(b, s2=4.0, t_star=b[4], k=0.5)),
            ("decile 3 k", DecileMidpointAssignment(b, s2=4.0, t_star=mid3, k=0.25)),
            ("decile 3 s2", DecileMidpointAssignment(b, s2=2.0, t_star=mid3, k=0.5)),
            ("decile 3 boundaries", DecileMidpointAssignment(nudged, s2=4.0, t_star=mid3, k=0.5)),
            # outside the outer boundaries t_star clamps to decile 0
            ("decile 0", DecileMidpointAssignment(b, s2=4.0, t_star=b[0] - 3.0, k=0.5)),
            ("decile 0", DecileMidpointAssignment(b, s2=4.0, t_star=b[1] - 1.0, k=0.5)),
        ]

    def test_equal_exactly_when_hash_equal(self):
        v = self._variants()
        for la, a in v:
            for lc, c in v:
                assert (a == c) == (la == lc), (la, lc)
                assert (hash(a) == hash(c)) == (la == lc), (la, lc)

    def test_decile_ignores_t_star_within_its_decile(self):
        b = _boundaries_1_to_100()
        same = [DecileMidpointAssignment(b, s2=4.0, t_star=t, k=0.5) for t in (b[3], 35.0, 40.0)]
        assert len(set(same)) == 1
        per_decile = {DecileMidpointAssignment(b, s2=4.0, t_star=t, k=0.5) for t in np.linspace(0, 101, 500)}
        assert len(per_decile) == 10

    def test_decile_owns_its_boundaries(self):
        b = _boundaries_1_to_100()
        mine = b.copy()
        h = DecileMidpointAssignment(mine, s2=4.0, t_star=33.0, k=0.5)
        mine[4] = 99.5
        assert h == DecileMidpointAssignment(b, s2=4.0, t_star=33.0, k=0.5)
        assert np.array_equal(h.boundaries, b)
        assert not h.boundaries.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            h.boundaries[4] = 99.5

    def test_decile_is_immutable(self):
        h = DecileMidpointAssignment(_boundaries_1_to_100(), s2=4.0, t_star=33.0, k=0.5)
        key = hash(h)
        for name in ("k", "s2", "t_star", "boundaries"):
            with pytest.raises(AttributeError):
                setattr(h, name, 1.0)
            with pytest.raises(AttributeError):
                delattr(h, name)
        assert hash(h) == key and h.k == 0.5

    def test_equal_assignments_have_bit_identical_densities(self):
        b = _boundaries_1_to_100()
        grid = np.concatenate(
            [b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf), np.linspace(-20.0, 120.0, 1401)]
        )
        v = self._variants()
        for la, a in v:
            for lc, c in v:
                if la == lc:
                    assert np.array_equal(a.density(grid), c.density(grid))
