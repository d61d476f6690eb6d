import math
import warnings

import numpy as np
import pytest

from doseband import sim
from doseband.dist import Rng
from doseband.propensity import CallableGps

SEED = 7
N = 240  # smallest round n at which the mixture GPS has enough training rows
N_TEST = 10
REPLICATIONS = 10

# run_study(make_scenario(id, setup, n=N, n_test=N_TEST), REPLICATIONS,
# Rng(SEED), test_atom) -> (coverage_mean, length_mean, infinite_intervals),
# recorded with the per-test-point threshold loop this harness used to run
FINGERPRINTS = {
    ("s1", "oracle-oracle", False): (0.9100000000000001, 9.83218234288061, 0),
    ("s1", "oracle-oracle", True): (0.95, 11.14566674243568, 2),
    ("s1", "learned-outcome-oracle-weights", False): (0.93, 104.02831729531688, 0),
    ("s1", "learned-outcome-oracle-weights", True): (0.95, 105.39239009595596, 2),
    ("s1", "oracle-outcome-estimated-weights", False): (0.9100000000000001, 9.83218234288061, 0),
    ("s1", "oracle-outcome-estimated-weights", True): (0.9400000000000001, 11.039489257908619, 0),
    ("s1", "learned-learned", False): (0.93, 104.13148878579463, 0),
    ("s1", "learned-learned", True): (0.95, 105.60024758744892, 0),
    ("s1", "unadjusted", False): (0.79, 99.66287031630898, 0),
    ("s1", "unadjusted", True): (0.79, 99.66287031630898, 0),
    ("s2", "oracle-oracle", False): (0.9100000000000001, 9.832182342880612, 0),
    ("s2", "oracle-oracle", True): (0.95, 11.145666742435678, 2),
    ("s2", "learned-outcome-oracle-weights", False): (0.8600000000000001, 25.252470207046063, 0),
    ("s2", "learned-outcome-oracle-weights", True): (0.9099999999999999, 28.654444345207743, 2),
    ("s2", "oracle-outcome-estimated-weights", False): (0.9100000000000001, 9.832182342880612, 0),
    ("s2", "oracle-outcome-estimated-weights", True): (0.9400000000000001, 11.039489257908617, 0),
    ("s2", "learned-learned", False): (0.8600000000000001, 25.48792929653728, 0),
    ("s2", "learned-learned", True): (0.9099999999999999, 28.694492146731967, 0),
    ("s2", "unadjusted", False): (0.8899999999999999, 23.400948896467842, 0),
    ("s2", "unadjusted", True): (0.8899999999999999, 23.400948896467842, 0),
    ("unif-compare", "oracle-oracle", False): (0.9100000000000001, 9.968337162628131, 0),
    ("unif-compare", "oracle-oracle", True): (0.9200000000000002, 10.578580707389799, 0),
    ("unif-compare", "learned-outcome-oracle-weights", False): (0.9100000000000001, 9.968337162628131, 0),
    ("unif-compare", "learned-outcome-oracle-weights", True): (0.9200000000000002, 10.578580707389799, 0),
    ("unif-compare", "oracle-outcome-estimated-weights", False): (0.9, 9.837214939123074, 0),
    ("unif-compare", "oracle-outcome-estimated-weights", True): (0.9200000000000002, 10.542375779447985, 0),
    ("unif-compare", "learned-learned", False): (0.9, 9.837214939123074, 0),
    ("unif-compare", "learned-learned", True): (0.9200000000000002, 10.542375779447985, 0),
    ("unif-compare", "unadjusted", False): (0.0, 0.0, 0),
    ("unif-compare", "unadjusted", True): (0.0, 0.0, 0),
    ("trunc-homo", "learned-outcome-oracle-weights", False): (0.9400000000000001, 13.408049380688647, 0),
    ("trunc-homo", "learned-outcome-oracle-weights", True): (0.99, 15.24246762486519, 4),
    ("trunc-hetero", "learned-outcome-oracle-weights", False): (0.9400000000000001, 13.181073277633914, 0),
    ("trunc-hetero", "learned-outcome-oracle-weights", True): (0.9800000000000001, 14.5847649224972, 40),
}


@pytest.fixture(scope="module")
def shared_fits():
    """Memoize the model fits across the studies of this module.

    A fit depends only on its rows of the data, its arguments and, for
    the mixture GPS, the spawn state of its generator. At one seed s1, s2
    and unif-compare draw the same covariates and treatments, the learned
    setups of a scenario fit the same pinball models, and ``test_atom``
    touches no fit, so the studies share a few fits: about 2 s of fitting
    where fitting every study anew takes about 10 s.
    """
    em, pinball = sim.fit_gaussian_mixture, sim.fit_linear_pinball
    cache = {}

    def rows(data, train, *cols):
        return tuple(getattr(data, c).tobytes() for c in cols) + (np.asarray(train).tobytes(),)

    def cached_em(data, train, max_components, rng):
        seq = rng._seq
        key = rows(data, train, "x", "t") + (max_components, rng.seed, seq.spawn_key, seq.n_children_spawned)
        if key not in cache:
            cache[key] = em(data, train, max_components=max_components, rng=rng)
        return cache[key]

    def cached_pinball(data, train, level, basis):
        key = rows(data, train, "x", "t", "y") + (level, basis.__code__)
        if key not in cache:
            cache[key] = pinball(data, train, level, basis)
        return cache[key]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "fit_gaussian_mixture", cached_em)
        mp.setattr(sim, "fit_linear_pinball", cached_pinball)
        yield


@pytest.mark.parametrize("key", sorted(FINGERPRINTS), ids=lambda k: "-".join(map(str, k)))
def test_fixed_seed_fingerprint(key, shared_fits):
    scenario_id, setup, test_atom = key
    scenario = sim.make_scenario(scenario_id, setup=setup, n=N, n_test=N_TEST)
    res = sim.run_study(scenario, REPLICATIONS, Rng(SEED), test_atom=test_atom)
    coverage, length, infinite = FINGERPRINTS[key]
    assert res.coverage_mean == coverage
    assert res.infinite_intervals == infinite
    assert res.length_mean == pytest.approx(length, rel=1e-12, abs=0.0)
    assert res.replications == REPLICATIONS


def test_true_weights_with_test_atom_reach_nominal_coverage(monkeypatch):
    # with the true GPS the weights are the exact likelihood ratio of the
    # test distribution, and the test-point atom makes coverage >= 1 - alpha
    var = sim.S12_TREATMENT_VAR

    def true_gps(scenario, data, sp, rng):
        return CallableGps(
            fn=lambda t, x: np.exp(-0.5 * (t - sim.s12_treatment_mean(x)) ** 2 / var)
            / math.sqrt(2.0 * math.pi * var)
        )

    monkeypatch.setattr(sim, "_fit_gps", true_gps)
    scenario = sim.make_scenario("s1", n=200, n_test=20)
    res = sim.run_study(scenario, 100, Rng(3), test_atom=True)
    assert res.coverage_mean >= 1.0 - scenario.alpha - 3.0 * res.coverage_se


def test_compare_uniform_follows_the_setup(shared_fits):
    runs = [
        sim.compare_uniform(
            sim.make_scenario("unif-compare", setup=setup, n=N, n_test=N_TEST), REPLICATIONS, Rng(SEED)
        )
        for setup in ("oracle-oracle", "oracle-outcome-estimated-weights")
    ]
    assert runs[0].ipb.length_mean != runs[1].ipb.length_mean
    assert runs[0].uniform.length_mean != runs[1].uniform.length_mean


def test_compare_uniform_rejects_unweighted_studies():
    with pytest.raises(ValueError, match="unif-compare"):
        sim.compare_uniform(sim.make_scenario("s1"), REPLICATIONS, Rng(0))
    with pytest.raises(ValueError, match="unadjusted"):
        sim.compare_uniform(sim.make_scenario("unif-compare", setup="unadjusted"), REPLICATIONS, Rng(0))


def test_aggregate_all_or_all_but_one_lengths_infinite():
    # a replication whose intervals were all infinite reports a NaN mean length
    all_inf = [(1.0, math.nan, N_TEST)] * REPLICATIONS
    one_finite = [(0.9, 12.5, 0)] + all_inf[1:]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = sim._aggregate(all_inf, REPLICATIONS)
        assert (res.length_mean, res.infinite_intervals) == (math.inf, N_TEST * REPLICATIONS)
        assert math.isnan(res.length_se)
        res = sim._aggregate(one_finite, REPLICATIONS)
        assert res.length_mean == 12.5 and math.isnan(res.length_se)
        assert res.coverage_mean == pytest.approx(0.99)


class TestScenario:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(id="s3", n=100, n_test=5, alpha=0.1), "unknown scenario"),
            (dict(id="s1", n=100, n_test=5, alpha=0.1, setup="oracle"), "unknown setup"),
            (dict(id="s1", n=19, n_test=5, alpha=0.1), "n >= 20"),
            (dict(id="s1", n=100, n_test=5, alpha=1.0), "alpha"),
            (dict(id="s1", n=100, n_test=5, alpha=0.0), "alpha"),
            (dict(id="trunc-homo", n=100, n_test=5, alpha=0.05), "truncated scenarios"),
        ],
    )
    def test_invalid_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            sim.Scenario(**kwargs)

    def test_defaults(self):
        assert sim.make_scenario("s2") == sim.Scenario("s2", 1000, 10, 0.1, "oracle-oracle")
        assert sim.make_scenario("trunc-hetero") == sim.Scenario(
            "trunc-hetero", 10000, 10, 0.05, "learned-outcome-oracle-weights"
        )
        assert sim.make_scenario("unif-compare") == sim.Scenario(
            "unif-compare", 1000, 200, 0.1, "oracle-outcome-estimated-weights"
        )

    def test_overrides(self):
        sc = sim.make_scenario("s1", setup="unadjusted", n=50, n_test=3, alpha=0.2)
        assert sc == sim.Scenario("s1", 50, 3, 0.2, "unadjusted")

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            sim.make_scenario("s9")

    def test_too_few_replications(self):
        with pytest.raises(ValueError, match="replications"):
            sim.run_study(sim.make_scenario("s1", n=50), 9, Rng(0))
