import copy
import math
import pickle
import re

import numpy as np
import pytest
from scipy import integrate, stats

from doseband import assignment
from doseband.assignment import (
    DecileMidpointAssignment,
    DecileMidpointFamily,
    PositivityError,
    UniformAssignment,
    decile_boundaries,
    likelihood_ratio,
)
from doseband.conformal import Calibration, ConformalConfig
from doseband.data import Dataset, SplitIndices
from doseband.dist import (
    NormalParams,
    TruncatedNormalParams,
    _normal_density,
    _truncated_normal_log_mass,
    _truncated_normal_logpdf_core,
)
from doseband.outcome import OracleQuantileModel
from doseband.propensity import CallableGps, MixtureGps


def _boundaries_1_to_100():
    return decile_boundaries(np.arange(1.0, 101.0))


def _decile(b, t):
    """0-based decile of t by the 9 inner boundaries; beyond the outer
    ones it clamps to 0 or 9."""
    return np.searchsorted(b[1:-1], t, side="right")


def _midpoint(b, t):
    """Midpoint of t's decile, the oracle for the decile-midpoint numerator."""
    j = int(_decile(b, t))
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
        # the numerator evaluates the kernel the Gaussian GPS evaluates
        h = NormalParams(1.0, 0.5)
        t = np.linspace(-3.0, 5.0, 81)
        assert np.array_equal(h.density(t), _normal_density(t, 1.0, math.sqrt(0.5)))
        assert h.density(0.3) == pytest.approx(stats.norm.pdf(0.3, 1.0, math.sqrt(0.5)), rel=1e-14)

    def test_truncated_normal_matches_scipy(self):
        p = TruncatedNormalParams(2.0, 0.8, 1.0, 5.0)
        a, b = (1.0 - 2.0) / p.sd, (5.0 - 2.0) / p.sd
        want = stats.truncnorm.pdf(2.7, a, b, loc=2.0, scale=p.sd)
        assert p.density(2.7) == pytest.approx(want, rel=1e-9)

    def test_nonfinite_point_rejected(self):
        gps = CallableGps(fn=lambda t, x: np.ones_like(t))
        calib = _calibration(np.linspace(0.1, 0.9, 4), gps)
        for test_atom in (True, False):
            with pytest.raises(ValueError, match="treatment values must be finite"):
                _query(calib, UniformAssignment(0, 1), [math.nan], test_atom=test_atom)

    @pytest.mark.parametrize(
        "h",
        [
            NormalParams(1.0, 0.5),
            TruncatedNormalParams(2.0, 0.8, 1.0, 5.0),
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
            "doseband.dist._truncated_normal_log_mass",
            lambda *a: calls.append(a) or _truncated_normal_log_mass(*a),
        )
        t = np.linspace(0.0, 6.0, 601)
        first, second = p.density(t), p.density(t[::-1])
        assert len(calls) == 1
        # bit-identical to the log density that computes its own mass
        want = np.exp(_truncated_normal_logpdf_core(t, p.mean, p.sd, p.lower, p.upper))
        assert np.array_equal(first, want) and np.array_equal(second, want[::-1])
        assert [p.density(v) for v in t[:5]] == want[:5].tolist()


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
        assert DecileMidpointAssignment(b, 1.0, -50.0).decile == 0
        assert DecileMidpointAssignment(b, 1.0, 1e6).decile == 9

    def test_too_few_distinct(self):
        with pytest.raises(ValueError):
            decile_boundaries(np.array([1.0, 2.0] * 20))

    def test_nine_distinct_values_with_increasing_deciles(self):
        # fewer than 10 distinct values are fine when no two deciles tie
        t = np.arange(1.0, 10.0)
        b = decile_boundaries(t)
        np.testing.assert_array_equal(b, np.percentile(t, np.linspace(0.0, 100.0, 11)))
        assert DecileMidpointFamily(b, 1.0, 1.0).boundaries.tolist() == b.tolist()

    def test_no_treatments_rejected(self):
        with pytest.raises(ValueError, match="need treatment values"):
            decile_boundaries(np.array([]))

    def test_tied_deciles_rejected(self):
        # 10 distinct values, but 91 zeros tie the first nine deciles: the
        # boundaries [0, 0, ..., 0, 9] would fail every assignment
        t = np.r_[np.zeros(91), np.arange(1.0, 10.0)]
        with pytest.raises(ValueError, match="11 strictly increasing"):
            decile_boundaries(t)

    def test_nonfinite_treatments_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                decile_boundaries(np.r_[np.arange(20.0), bad])

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
                NormalParams(mid, 4.0).density(t), rel=1e-14
            )

    def test_k_half_scales_other_deciles(self):
        b = _boundaries_1_to_100()
        full = DecileMidpointAssignment(boundaries=b, s2=4.0, t_star=33.0, k=1.0)
        half = DecileMidpointAssignment(boundaries=b, s2=4.0, t_star=33.0, k=0.5)
        t_other = 77.0  # different decile than 33
        assert _decile(b, t_other) != full.decile
        assert half.density(t_other) == pytest.approx(0.5 * full.density(t_other), rel=1e-14)
        t_same = 34.0
        assert _decile(b, t_same) == full.decile
        assert half.density(t_same) == pytest.approx(full.density(t_same), rel=1e-14)

    def test_same_decile_points_share_numerator_mean(self):
        b = _boundaries_1_to_100()
        h = DecileMidpointAssignment(boundaries=b, s2=1.0, t_star=15.0, k=1.0)
        mid = _midpoint(b, 15.0)
        for t in (11.5, 15.0, 19.0):
            assert h.density(t) == pytest.approx(
                NormalParams(mid, 1.0).density(t), rel=1e-14
            )

    def test_density_bit_identical_to_per_call_decile_lookup(self):
        # the formula that looked t_star's decile and midpoint up on every call
        b = _boundaries_1_to_100()
        grid = np.concatenate(
            [b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf), np.linspace(-20.0, 120.0, 281)]
        )
        for t_star in (b[0] - 3.0, b[0], b[3], 0.5 * (b[3] + b[4]), b[9], b[10], b[10] + 3.0):
            h = DecileMidpointAssignment(boundaries=b, s2=4.0, t_star=t_star, k=0.5)
            base = NormalParams(_midpoint(b, t_star), 4.0).density(grid)
            old = np.where(_decile(b, grid) == _decile(b, t_star), base, 0.5 * base)
            assert np.array_equal(h.density(grid), old)
            assert [h.density(t) for t in grid[:11]] == old[:11].tolist()


class TestLikelihoodRatio:
    def test_scalar_inputs_give_a_0d_array(self):
        w = likelihood_ratio(0.5, 0.25, 1.0)
        assert isinstance(w, np.ndarray) and w.shape == () and w == 2.0
        with pytest.raises(PositivityError, match=re.escape("t=[1.5];")):
            likelihood_ratio(0.5, 0.0, 1.5)

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

    def test_nan_denominator_under_positive_mass_raises(self):
        # a NaN density was once weighted by its numerator alone
        with pytest.raises(PositivityError, match=re.escape("NaN propensity density with positive assignment mass at t=[1.0];")):
            likelihood_ratio([0.3, 0.3], [math.nan, 0.5], [1.0, 2.0])
        with pytest.raises(PositivityError, match=re.escape("zero propensity density with positive assignment mass at t=[2.0];")):
            likelihood_ratio([0.3, 0.3], [0.5, 0.0], [1.0, 2.0])
        assert likelihood_ratio([0.0, 0.3], [math.nan, 0.5], [1.0, 2.0]).tolist() == [0.0, 0.3 / 0.5]

    def test_positivity_error_names_three_distinct_treatments_in_order(self):
        t = np.array([5.0, 3.0, 5.0, 7.0, 9.0])
        with pytest.raises(PositivityError, match=re.escape("t=[5.0, 3.0, 7.0];")):
            likelihood_ratio(np.ones(5), np.zeros(5), t)

    def test_negative_or_nan_numerator_raises(self):
        # a NaN or negative h(t) was once weight 0, silently dropping the point
        with pytest.raises(ValueError, match=re.escape("assignment density negative or NaN at t=[1.0, 2.0]")) as info:
            likelihood_ratio([0.3, math.nan, -0.2], [0.5, 0.5, 0.5], [0.0, 1.0, 2.0])
        assert type(info.value) is ValueError
        # a block names three distinct treatments, in array order
        num = np.array([[-1.0, 0.3, math.nan], [math.nan, -0.0, -1.0]])
        with pytest.raises(ValueError, match=re.escape("at t=[0.1, 0.3]")):
            likelihood_ratio(num, np.ones(3), np.array([0.1, 0.2, 0.3]))
        t = np.array([5.0, 3.0, 5.0, 7.0, 9.0])
        with pytest.raises(ValueError, match=re.escape("at t=[5.0, 3.0, 7.0]")):
            likelihood_ratio(-np.ones(5), np.ones(5), t)


def _calibration(t_cal, gps, offset=0.0):
    """A ``Calibration`` whose calibration half has the treatments t_cal."""
    t_cal = np.asarray(t_cal, dtype=float)
    n = len(t_cal)
    data = Dataset(np.arange(2.0 * n), np.r_[t_cal, t_cal], np.zeros((2 * n, 1)))
    model = OracleQuantileModel(mean_fn=lambda x, t: np.zeros(len(t)), variance=1.0)
    sp = SplitIndices(np.arange(n, 2 * n), np.arange(n))
    return Calibration(data, sp, model, gps, ConformalConfig(0.1, "absolute-residual", offset))


def _query(calib, h, t, test_atom=True):
    """``bounds`` at the treatments t, x = 0, all weighted by h."""
    t = np.asarray(t, dtype=float)
    return calib.bounds(np.zeros((len(t), 1)), t, [h], np.zeros(len(t), dtype=np.intp), test_atom)


class TestStabilizedWeight:
    """The weight h(t) / (gps(t | x) + offset): ``likelihood_ratio`` of
    the two densities, and the offset and checks of ``Calibration``."""

    def test_identical_densities_weight_one(self):
        h = NormalParams(1.0, 0.5)
        gps = MixtureGps(mix_weights=[1.0], betas=[[0.0, 1.0]], variances=[0.5], basis=lambda x: np.full(x.shape[0], 1.0))
        w = likelihood_ratio(h.density(1.0), gps.density(1.0, np.array([3.3])), 1.0)
        assert w == pytest.approx(1.0, rel=1e-14)

    def test_no_shift_all_weights_one(self):
        # h equal to the (covariate-free) conditional density: every weight is 1
        h = NormalParams(0.0, 2.0)
        gps = CallableGps(fn=lambda t, x: NormalParams(0.0, 2.0).density(t))
        t = np.linspace(-3, 3, 25)
        x = np.zeros((25, 1))
        w = likelihood_ratio(h.density(t), gps.density(t, x), t)
        np.testing.assert_allclose(w, 1.0, rtol=1e-14)

    def test_truncation_scenario_weight_cross_checked(self):
        # numerator TN(2, 0.8, [1,5]) at t=2; denominator TN(x^2+1, 1, [0.5,5])
        # at (t=2, x=1) plus the 0.001 offset; oracle built by quadrature
        # normalization of the raw normal density
        h = TruncatedNormalParams(2.0, 0.8, 1.0, 5.0)

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
            _query(_calibration(t_cal, gps), h, [5.0])
        # with the offset every weight, the test weight included, is 0.1 / 0.001
        _, _, ess, p_inf = _query(_calibration(t_cal, gps, offset=0.001), h, [5.0])
        assert ess[0] == pytest.approx(4.0, rel=1e-14)
        assert p_inf[0] == pytest.approx(1.0 / 5.0, rel=1e-14)

    def test_zero_numerator_zero_weight(self):
        h = UniformAssignment(0.0, 1.0)
        gps = CallableGps(fn=lambda t, x: np.where(t > 2.0, 0.0, 1.0))
        calib = _calibration(np.linspace(0.1, 0.9, 4), gps)
        # no assignment mass at t=5, so no positivity complaint either
        _, _, _, p_inf = _query(calib, h, [5.0])
        assert p_inf[0] == 0.0

    def test_nonnegative_always(self):
        gen = np.random.default_rng(0)
        h = NormalParams(0.0, 1.0)
        gps = MixtureGps(mix_weights=[1.0], betas=[[0.0, 1.0]], variances=[2.0], basis=lambda x: x[:, 0])
        t = gen.normal(size=50)
        x = gen.normal(size=(50, 1))
        w = likelihood_ratio(h.density(t), gps.density(t, x), t)
        assert np.all(w >= 0.0)


class TestValueSemantics:
    """Assignments compare equal only when their densities are: the
    Normal, truncated-Normal and uniform ones by value, and a decile
    assignment by identity, one shared object per decile. A prediction
    band calibrates once per distinct assignment."""

    def _variants(self):
        """(label, assignment) pairs; equal labels mean equal densities."""
        b = _boundaries_1_to_100()
        nudged = b.copy()
        nudged[5] = np.nextafter(nudged[5], np.inf)
        mid3 = 0.5 * (b[3] + b[4])
        return [
            ("normal", NormalParams(1.0, 0.5)),
            ("normal", NormalParams(1.0, 0.5)),
            ("normal mean", NormalParams(1.5, 0.5)),
            ("trunc", TruncatedNormalParams(2.0, 0.8, 1.0, 5.0)),
            ("trunc", TruncatedNormalParams(2.0, 0.8, 1.0, 5.0)),
            ("trunc upper", TruncatedNormalParams(2.0, 0.8, 1.0, 6.0)),
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
        assert all(DecileMidpointAssignment(b.copy(), s2=4.0, t_star=t, k=0.5) is same[0] for t in (38.0, b[4] - 0.1))
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
        for name in ("k", "s2", "boundaries", "family", "decile"):
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


def _old_decile_density(b, s2, t_star, k, t):
    """The decile-midpoint density as one member evaluated it alone: its
    own Normal and decile lookup."""
    base = NormalParams(_midpoint(b, t_star), s2).density(t)
    return np.where(_decile(b, t) == _decile(b, t_star), base, k * base)


class TestDecileFamily:
    """One validated family per boundary set, s2 and k; its members are
    the assignments, and its block pass gives each member's density."""

    def _points(self, b):
        # every boundary, either side of each, and beyond the outer ones
        return np.concatenate(
            [b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf), np.linspace(b[0] - 30.0, b[10] + 30.0, 301)]
        )

    @pytest.mark.parametrize("k", [0.5, 1.0])
    def test_block_pass_bit_identical_to_each_member(self, k):
        b = _boundaries_1_to_100()
        t = self._points(b)
        t_stars = [_midpoint(b, m) for m in 0.5 * (b[:-1] + b[1:])]
        members = [DecileMidpointAssignment(b, 4.0, t_star, k) for t_star in t_stars]
        family = members[0].family
        assert all(h.family is family for h in members) and [h.decile for h in members] == list(range(10))
        block = family.density(t, np.arange(10)[:, None])
        assert block.shape == (10, t.size)
        for j, (h, t_star) in enumerate(zip(members, t_stars)):
            assert np.array_equal(block[j], h.density(t))
            assert np.array_equal(block[j], _old_decile_density(b, 4.0, t_star, k, t))
        # one member per point: each element from its own member's row
        deciles = np.arange(t.size) % 10
        assert np.array_equal(family.density(t, deciles), block[deciles, np.arange(t.size)])

    def test_block_pass_rejects_bad_deciles_and_points(self):
        family = DecileMidpointAssignment(_boundaries_1_to_100(), 4.0, 33.0, 0.5).family
        for bad in (-1, 10, np.array([[0], [10]]), 2.0, np.array([True, False])):
            with pytest.raises(ValueError, match="deciles must be integers in 0..9"):
                family.density(np.array([1.0, 2.0]), bad)
        with pytest.raises(ValueError, match="evaluation points must be finite"):
            family.density(np.array([1.0, math.nan]), np.arange(10)[:, None])

    def test_family_validates_once(self, monkeypatch):
        b = _boundaries_1_to_100()
        assignment._family_of_bytes.cache_clear()
        calls = []
        checked = assignment._checked_boundaries
        monkeypatch.setattr(assignment, "_checked_boundaries", lambda bl: calls.append(1) or checked(bl))
        members = [DecileMidpointAssignment(b, 4.0, t, 0.5) for t in np.linspace(0.0, 101.0, 200)]
        assert len(calls) == 1 and len({id(h.family) for h in members}) == 1

    def test_family_rejects_what_an_assignment_rejects(self):
        b = _boundaries_1_to_100()
        for bad, match in (
            ((b[:10], 4.0, 0.5), "11 strictly increasing"),
            ((b[::-1], 4.0, 0.5), "11 strictly increasing"),
            ((np.r_[b[:10], math.inf], 4.0, 0.5), "boundaries must be finite"),
            ((b, 0.0, 0.5), "s2 must be positive"),
            ((b, math.nan, 0.5), "s2 must be finite"),
            ((b, 4.0, 0.0), "k must lie in"),
            ((b, 4.0, 1.5), "k must lie in"),
        ):
            with pytest.raises(ValueError, match=match):
                DecileMidpointFamily(*bad)
            with pytest.raises(ValueError, match=match):
                DecileMidpointAssignment(bad[0], bad[1], 33.0, bad[2])

    def test_family_is_immutable_and_owns_read_only_boundaries(self):
        b = _boundaries_1_to_100()
        mine = b.copy()
        family = DecileMidpointFamily(mine, 4.0, 0.5)
        mine[4] = 99.5
        assert np.array_equal(family.boundaries, b)
        with pytest.raises(ValueError):
            family.boundaries.flags.writeable = True
        for name in ("k", "s2", "boundaries"):
            with pytest.raises(AttributeError):
                setattr(family, name, 1.0)
            with pytest.raises(AttributeError):
                delattr(family, name)


class TestInterning:
    """Families are interned by the bytes of their boundaries in one
    bounded cache, and members compare by identity: a member of an
    evicted family, or of boundaries holding -0.0 for 0.0, is another
    object with bit-identical densities."""

    def test_value_equal_boundaries_share_one_family(self):
        b = np.linspace(-5.0, 5.0, 11)  # b[5] is 0.0
        spellings = [
            DecileMidpointAssignment(b, 4.0, 0.3, 0.5),
            DecileMidpointAssignment(list(b), 4.0, 0.3, 0.5),
            DecileMidpointAssignment(b.copy(), 4.0, 0.3, 0.5),
            DecileMidpointAssignment(b, 4, 0.3, 0.5),
            DecileMidpointAssignment(tuple(b), 4.0, 0.7, 0.5),
        ]
        first = spellings[0]
        assert all(h is first for h in spellings)
        # a negative zero gives other bytes, so another family, with the same densities
        negzero = b.copy()
        negzero[5] = -0.0
        assert np.signbit(negzero[5]) and not np.signbit(b[5])
        t = np.linspace(-6.0, 6.0, 121)
        twin = DecileMidpointAssignment(negzero, 4.0, 0.3, 0.5)
        assert twin.decile == first.decile and np.array_equal(twin.density(t), first.density(t))
        deciles = np.arange(10)[:, None]
        for family in (twin.family, DecileMidpointFamily(negzero, 4, 0.5)):
            assert np.array_equal(family.density(t, deciles), first.family.density(t, deciles))

    def test_cache_stays_bounded(self):
        base = _boundaries_1_to_100()
        for i in range(3 * assignment._INTERNED_FAMILIES):
            DecileMidpointAssignment(base + i, 4.0, 33.0, 0.5)
        info = assignment._family_of_bytes.cache_info()
        assert info.maxsize == assignment._INTERNED_FAMILIES
        assert info.currsize <= assignment._INTERNED_FAMILIES

    def test_member_of_an_evicted_family_matches_a_fresh_one(self):
        b = _boundaries_1_to_100()
        old = DecileMidpointAssignment(b, 4.0, 33.0, 0.5)
        for i in range(1, 2 * assignment._INTERNED_FAMILIES):
            DecileMidpointAssignment(b + i, 4.0, 33.0, 0.5)
        fresh = DecileMidpointAssignment(b, 4.0, 35.0, 0.5)
        assert fresh.family is not old.family and fresh.decile == old.decile
        assert fresh is DecileMidpointAssignment(b, 4.0, 38.0, 0.5)
        t = np.linspace(-20.0, 120.0, 141)
        assert np.array_equal(fresh.density(t), old.density(t))
        assert not np.array_equal(DecileMidpointAssignment(b, 4.0, 45.0, 0.5).density(t), old.density(t))


class TestPickling:
    """A member comes back as its family's shared member; a family comes
    back as a family of the same values."""

    def test_member_round_trips_to_itself(self):
        h = DecileMidpointAssignment(_boundaries_1_to_100(), 4.0, 33.0, 0.5)
        assert pickle.loads(pickle.dumps(h)) is h
        assert copy.deepcopy(h) is h and copy.copy(h) is h
        assert eval(repr(h)) is h

    def test_every_member_of_adjacent_float_boundaries_round_trips(self):
        # 11 consecutive floats: some decile midpoints round onto the next
        # boundary, so a member must not come back through its midpoint
        b = 1.0 + np.arange(11.0) * np.finfo(float).eps
        assert not all(b[j] <= 0.5 * (b[j] + b[j + 1]) < b[j + 1] for j in range(10))
        for j in range(10):
            h = DecileMidpointAssignment(b, 4.0, b[j], 0.5)
            assert h.decile == j and pickle.loads(pickle.dumps(h)) is h

    def test_member_unpickled_without_its_family_cached(self):
        b = _boundaries_1_to_100()
        h = DecileMidpointAssignment(b, 4.0, 33.0, 0.5)
        raw = pickle.dumps(h)
        assignment._family_of_bytes.cache_clear()
        back = pickle.loads(raw)
        assert back.family is not h.family and back.decile == h.decile
        assert back is DecileMidpointAssignment(b, 4.0, 38.0, 0.5)
        t = np.linspace(-20.0, 120.0, 141)
        assert np.array_equal(back.density(t), h.density(t))

    def test_family_round_trips_to_its_values(self):
        b = _boundaries_1_to_100()
        family = DecileMidpointFamily(b, 4.0, 0.5)
        t, deciles = np.linspace(-20.0, 120.0, 141), np.arange(10)[:, None]
        for back in (pickle.loads(pickle.dumps(family)), copy.deepcopy(family)):
            assert (back.s2, back.k) == (4.0, 0.5) and np.array_equal(back.boundaries, b)
            assert not back.boundaries.flags.writeable
            assert np.array_equal(back.density(t, deciles), family.density(t, deciles))
