import math

import numpy as np
import pytest
from scipy import integrate

from doseband import propensity, sim
from doseband.data import Dataset, split
from doseband.dist import Rng, _normal_density
from doseband.propensity import (
    VARIANCE_FLOOR,
    CallableGps,
    MixtureGps,
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


def _two_component_data(n, seed):
    # T | X is 8 + X + N(0, 0.49) with probability 0.35, else -4 - 2X + N(0, 1)
    gen = Rng(seed).gen
    x = gen.normal(size=(n, 1))
    comp = gen.random(n) < 0.35
    t = np.where(
        comp,
        8.0 + 1.0 * x[:, 0] + 0.7 * gen.normal(size=n),
        -4.0 - 2.0 * x[:, 0] + 1.0 * gen.normal(size=n),
    )
    return Dataset(np.zeros(n), t, x)


def _ols_residual(Z, t):
    beta, *_ = np.linalg.lstsq(Z, t, rcond=None)
    return t - Z @ beta


class TestOlsGaussian:
    def test_noiseless_affine_recovery_and_floor(self):
        gen = Rng(0).gen
        x = gen.normal(size=(50, 2))
        t = 1.0 + 2.0 * x[:, 0] - 3.0 * x[:, 1]
        d = Dataset(gen.normal(size=50), t, x)
        m = fit_ols_gaussian(d, np.arange(50))
        np.testing.assert_allclose(m.betas[0], [1.0, 2.0, -3.0], atol=1e-8)
        assert m.variances[0] == 1e-8  # zero residual variance hits the floor

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
        cov = m.variances[0] * np.linalg.inv(Z.T @ Z)
        se = np.sqrt(np.diag(cov))
        truth = np.array([0.0, 1.0, -1.0, 0.5])
        assert np.all(np.abs(m.betas[0] - truth) <= 3.0 * se)

    def test_density_peak(self):
        gen = Rng(1).gen
        x = gen.normal(size=(200, 1))
        t = 0.5 * x[:, 0] + gen.normal(size=200)
        d = Dataset(np.zeros(200), t, x)
        m = fit_ols_gaussian(d, np.arange(200))
        x0 = np.array([0.7])
        t0 = float((_design(x0[None], None) @ m.betas[0])[0])
        assert m.density(t0, x0) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi * m.variances[0]), rel=1e-12
        )

    def test_density_bit_identical_to_the_ols_normal(self):
        # the one-component mixture gives the Normal density of the OLS fit
        # bit for bit, on rows and at a single point
        data, _ = sim.generate(sim.make_scenario("s1"), Rng(3))
        basis, train = sim._s12_gps_basis, np.arange(250)
        m = fit_ols_gaussian(data, train, basis=basis)
        Z, t_train = _design(data.x[train], basis), data.t[train]
        beta, *_ = np.linalg.lstsq(Z, t_train, rcond=None)
        resid = t_train - Z @ beta
        sd = math.sqrt(max(float(resid @ resid) / (Z.shape[0] - Z.shape[1]), VARIANCE_FLOOR))
        x, t = data.x[250:], data.t[250:]
        assert np.array_equal(m.density(t, x), _normal_density(t, _design(x, basis) @ beta, sd))
        one = m.density(float(t[0]), x[0])
        assert type(one) is float
        assert one == _normal_density(t[:1], _design(x[:1], basis) @ beta, sd)[0]

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
        np.testing.assert_allclose(model.betas[0], ols.betas[0], atol=1e-6)

    def test_one_component_density_matches_ols_exactly(self):
        d = self._single_gaussian_data()
        model, _ = fit_gaussian_mixture(d, np.arange(d.n), max_components=1, rng=Rng(1))
        ols = fit_ols_gaussian(d, np.arange(d.n))
        pts_t = np.linspace(-3, 5, 41)
        for t in pts_t:
            xq = np.array([0.3, -1.2])
            assert model.density(t, xq) == pytest.approx(ols.density(t, xq), abs=1e-12)

    def test_two_component_recovery(self):
        d = _two_component_data(5000, 11)
        model, report = fit_gaussian_mixture(d, np.arange(d.n), max_components=2, rng=Rng(5))
        assert report.n_components == 2
        assert abs(min(model.mix_weights) - 0.35) < 0.05

    def test_em_loglik_monotone(self):
        d = self._single_gaussian_data(n=800, seed=3)
        Z = _design(d.x, None)
        starts = [_quantile_split_init(_ols_residual(Z, d.t), 2)]
        starts += [Rng(seed).gen.dirichlet(np.ones(2), size=d.n).T for seed in (1, 2)]
        em = _run_em(Z, d.t, np.stack(starts), max_iter=200, rel_tol=1e-10)
        assert not em.collapsed.any()
        for history in em.history.T:
            history = history[~np.isnan(history)]
            assert len(history) > 2
            diffs = np.diff(history)
            assert np.all(diffs >= -1e-8 * (1.0 + np.abs(history[:-1])))

    def test_report_counts_iterations_and_collapsed_starts(self):
        d = _two_component_data(1000, 12)
        _, report = fit_gaussian_mixture(d, np.arange(d.n), max_components=2, rng=Rng(6))
        assert report.n_components == 2 and report.converged
        assert isinstance(report.iterations, int) and 2 <= report.iterations < propensity.MAX_ITER
        assert report.collapsed_starts == 0
        # the one-component fit is closed form: no EM iterations
        _, report = fit_gaussian_mixture(self._single_gaussian_data(n=400), np.arange(400), max_components=1)
        assert (report.n_components, report.iterations, report.collapsed_starts) == (1, 0, 0)

    def test_bic_formula(self):
        d = self._single_gaussian_data(n=1200, seed=9)
        _, report = fit_gaussian_mixture(d, np.arange(d.n), max_components=2, rng=Rng(2))
        expected = report.n_params * math.log(d.n) - 2.0 * report.log_likelihood
        assert report.bic == pytest.approx(expected, rel=1e-12)

    def test_noiseless_treatment_collapses_every_start(self):
        gen = Rng(3).gen
        x = gen.normal(size=(200, 2))
        d = Dataset(np.zeros(200), 1.0 + 2.0 * x[:, 0] - 3.0 * x[:, 1], x)
        with pytest.raises(RuntimeError, match="every EM start collapsed for 1 component"):
            fit_gaussian_mixture(d, np.arange(200), max_components=2)

    def test_duplicated_covariate_collapses_every_start(self):
        gen = Rng(4).gen
        x = np.column_stack([gen.normal(size=200)] * 2)
        d = Dataset(np.zeros(200), x[:, 0] + gen.normal(size=200), x)
        with pytest.raises(RuntimeError, match="every EM start collapsed for 1 component"):
            fit_gaussian_mixture(d, np.arange(200), max_components=2)

    def test_starved_start_dropped_healthy_start_kept(self, monkeypatch):
        d = _two_component_data(1000, 12)
        Z = _design(d.x, None)
        healthy = Rng(0).gen.dirichlet(np.ones(2), size=d.n).T
        starved = np.vstack([np.ones(d.n), np.zeros(d.n)])
        em = _run_em(Z, d.t, np.stack([starved, healthy]), max_iter=500, rel_tol=1e-8)
        alone = _run_em(Z, d.t, healthy[None], max_iter=500, rel_tol=1e-8)
        assert em.collapsed.tolist() == [True, False]
        assert em.iterations[0] == 0 and em.loglik[0] == -np.inf
        assert em.converged[1] and em.iterations[1] == alone.iterations[0]
        assert em.loglik[1] == pytest.approx(alone.loglik[0], rel=1e-12)
        # through the fit: the quantile-split start starves, the restarts carry the fit
        monkeypatch.setattr(
            propensity, "_quantile_split_init", lambda resid, k: np.eye(k)[np.zeros(len(resid), dtype=int)].T
        )
        _, report = fit_gaussian_mixture(d, np.arange(d.n), max_components=2, rng=Rng(6))
        assert report.collapsed_starts == 1
        assert report.n_components == 2 and report.converged

    def test_insufficient_rows_rejected(self):
        d = self._single_gaussian_data(n=60)
        with pytest.raises(ValueError, match="training rows"):
            fit_gaussian_mixture(d, np.arange(d.n), max_components=2)

    @pytest.mark.parametrize("max_components", [0, -1, 2.5])
    def test_max_components_must_be_positive_integer(self, max_components):
        d = self._single_gaussian_data(n=400)
        with pytest.raises(ValueError, match="max_components must be a positive integer"):
            fit_gaussian_mixture(d, np.arange(d.n), max_components=max_components)

    def test_batched_start_equals_its_solo_run(self):
        # the four starts stop at different iterations, so the batch moves
        # from the all-running path to the indexed one part way through
        d = _two_component_data(1000, 12)
        Z = _design(d.x, None)
        starts = [_quantile_split_init(_ols_residual(Z, d.t), 2)]
        starts += [Rng(seed).gen.dirichlet(np.ones(2), size=d.n).T for seed in (1, 2, 3)]
        em = _run_em(Z, d.t, np.stack(starts), propensity.MAX_ITER, propensity.REL_TOL)
        assert len(set(em.iterations.tolist())) > 1 and em.converged.all()
        for i, start in enumerate(starts):
            alone = _run_em(Z, d.t, start[None], propensity.MAX_ITER, propensity.REL_TOL)
            assert em.iterations[i] == alone.iterations[0]
            assert em.loglik[i] == pytest.approx(alone.loglik[0], rel=1e-12, abs=0.0)
            history = em.history[:, i]
            np.testing.assert_allclose(history[~np.isnan(history)], alone.history[:, 0], rtol=1e-12, atol=0.0)

    def test_history_is_two_dimensional(self):
        d = _two_component_data(1000, 12)
        Z = _design(d.x, None)
        healthy = np.stack([Rng(seed).gen.dirichlet(np.ones(2), size=d.n).T for seed in (1, 2, 3)])
        starved = np.vstack([np.ones(d.n), np.zeros(d.n)])[None]
        em = _run_em(Z, d.t, healthy, 0, propensity.REL_TOL)
        assert em.history.shape == (0, 3) and not em.iterations.any()
        em = _run_em(Z, d.t, healthy, propensity.MAX_ITER, propensity.REL_TOL)
        assert em.history.shape == (em.iterations.max(), 3)
        assert not np.isnan(em.history[-1]).all()
        em = _run_em(Z, d.t, starved, propensity.MAX_ITER, propensity.REL_TOL)
        assert em.collapsed.all() and em.history.shape == (0, 1)


# fit_gaussian_mixture on a fixed seed -> (n_components, log_likelihood,
# mix_weights, betas, variances), recorded with the per-start,
# per-component lstsq EM this module used to run. Keys: (scenario, seed,
# max_components) fits the training half of a study replication's data
# the way ``sim`` does; ("two-component", n, data seed, fit seed,
# max_components) fits ``_two_component_data``.
EM_FINGERPRINTS = {
    ('s1', 0, 2): (1, -1484.9377368970029, [1.0], [[-0.6374683719531006, 0.9682151623868008, -1.6894173968936685, 0.6366861555689056]], [22.418938107047918]),
    ('s1', 1, 2): (1, -1481.0441443288755, [1.0], [[-0.33791379154325135, 1.077929210303526, -2.3840861372987123, 0.6201490372748915]], [22.072482183301965]),
    ('s1', 2, 2): (1, -1454.3466228625095, [1.0], [[-0.21020519429010098, 1.004332819973107, -1.8669900040888705, 0.5691203633090999]], [19.83685550765927]),
    ('s1', 3, 2): (1, -1460.038924813524, [1.0], [[0.48519214599011734, 1.1979535657066511, -2.389541558700303, 0.43110980657546505]], [20.293706321260867]),
    ('s2', 4, 2): (1, -1490.816045758176, [1.0], [[1.264546989884855, 1.0482023659095328, -1.9513059104443253, 0.2043992059635413]], [22.952326142010225]),
    ('s2', 5, 2): (1, -1496.5030887617977, [1.0], [[0.06531109222609369, 1.1644125016887479, -2.151124057465947, 0.5180399526162847]], [23.480433571013013]),
    ('s2', 6, 2): (1, -1477.8459552647344, [1.0], [[-0.5891010954273251, 1.164783284443564, -1.701698741340027, 0.5894185056518874]], [21.791912753282265]),
    ('two-component', 5000, 11, 5, 2): (2, -9673.31303211293, [0.3656810332496083, 0.6343189667503916], [[8.010876681213492, 1.0138988076670135], [-4.0091273922909165, -2.0108486385484903]], [0.48128150626606725, 0.9804571182918596]),
    ('two-component', 1000, 12, 6, 2): (2, -1943.0039706218922, [0.33203805955588495, 0.6679619404441148], [[7.9797922876491665, 1.0237159967005187], [-4.048974122892473, -2.004819717024898]], [0.4948520079932368, 1.0225665069605268]),
    ('two-component', 1000, 13, 7, 3): (2, -1942.828578287329, [0.34301876567950496, 0.6569812343204948], [[8.011596965515741, 1.0381917248067332], [-3.9159028937353515, -2.0189438733756346]], [0.4540834334774819, 1.0578409971293132]),
}


def _fingerprint_fit(key):
    if key[0] == "two-component":
        _, n, data_seed, fit_seed, max_components = key
        d = _two_component_data(n, data_seed)
        return fit_gaussian_mixture(d, np.arange(n), max_components=max_components, rng=Rng(fit_seed))
    scenario_id, seed, max_components = key
    rng = Rng(seed)
    d, _ = sim.generate(sim.make_scenario(scenario_id), rng)
    sp = split(d, 0.5, rng)
    return fit_gaussian_mixture(d, sp.train, max_components=max_components, rng=rng)


@pytest.mark.parametrize("key", list(EM_FINGERPRINTS), ids=lambda k: "-".join(map(str, k)))
def test_em_fixed_seed_fingerprint(key):
    model, report = _fingerprint_fit(key)
    k, loglik, mix_weights, betas, variances = EM_FINGERPRINTS[key]
    assert report.n_components == k
    assert report.log_likelihood == pytest.approx(loglik, rel=1e-8, abs=0.0)
    for got, want in ((model.mix_weights, mix_weights), (model.betas, betas), (model.variances, variances)):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-6)


# The k = 2 EM of an s1 fit that runs every start to MAX_ITER without
# converging, after which BIC selects k = 1 (so EM_FINGERPRINTS cannot
# see it): final log-likelihood of each start, quantile split first.
CAPPED_EM_LOGLIKS = {
    1: [-1474.9647040103328, -1475.0047450631505, -1475.0083238059551,
        -1474.9926016254328, -1475.0297218937858, -1475.005084447231],
    2: [-1450.6406221063323, -1452.172052305978, -1452.1927969379126,
        -1452.1771230074296, -1452.1831616430395, -1452.1789934191097],
}


@pytest.mark.parametrize("seed", list(CAPPED_EM_LOGLIKS))
def test_capped_s1_em_runs_every_start_to_the_cap(seed, monkeypatch):
    runs = []

    def spy(*args, **kwargs):
        runs.append(_run_em(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(propensity, "_run_em", spy)
    _, report = _fingerprint_fit(("s1", seed, 2))
    assert report.n_components == 1 and len(runs) == 1
    em = runs[0]
    assert em.iterations.tolist() == [propensity.MAX_ITER] * 6
    assert not em.converged.any() and not em.collapsed.any()
    np.testing.assert_allclose(em.loglik, CAPPED_EM_LOGLIKS[seed], rtol=1e-9, atol=0.0)


class TestDensities:
    def test_oracle_gaussian(self):
        m = MixtureGps(mix_weights=[1.0], betas=[[0.0, 1.0]], variances=[2.0], basis=lambda x: x[:, 0] ** 2)
        x = np.array([1.5])
        expect = 1.0 / math.sqrt(4.0 * math.pi) * math.exp(-((3.0 - 2.25) ** 2) / 4.0)
        assert m.density(3.0, x) == pytest.approx(expect, rel=1e-12)

    def test_mixture_rejects_mismatched_components(self):
        # two mixing weights and one component: a zip that stops at the
        # shortest array would give a density integrating to 0.5
        m = MixtureGps(
            mix_weights=np.array([0.5, 0.5]), betas=np.array([[0.0, 1.0]]), variances=np.array([1.0, 1.0])
        )
        with pytest.raises(ValueError, match="zip"):
            m.density(0.0, np.array([0.0]))

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
        oracle = MixtureGps(mix_weights=[1.0], betas=[[0.0, 1.0]], variances=[1.5], basis=lambda z: z[:, 0])
        xq = np.array([0.4, -0.9])
        for model in (ols, mix, oracle):
            val, _ = integrate.quad(lambda u: model.density(u, xq), -30, 30, limit=200)
            assert val == pytest.approx(1.0, abs=1e-4)

    def test_vectorized_rows(self):
        m = MixtureGps(mix_weights=[1.0], betas=[[0.0, 1.0]], variances=[1.0], basis=lambda x: x[:, 0])
        x = np.array([[0.0], [1.0], [2.0]])
        t = np.array([0.0, 1.0, 2.0])
        out = m.density(t, x)
        assert out.shape == (3,)
        assert np.allclose(out, 1.0 / math.sqrt(2 * math.pi))
