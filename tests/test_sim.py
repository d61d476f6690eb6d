import math
import multiprocessing
import os
import subprocess
import sys
import time
import warnings
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from doseband import outcome, sim
from doseband.dist import Rng
from doseband.outcome import PinballFitError
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
    ("unif-compare", "oracle-outcome-estimated-weights", False): (0.9, 9.837214939123074, 0),
    ("unif-compare", "oracle-outcome-estimated-weights", True): (0.9200000000000002, 10.542375779447985, 0),
    ("trunc-homo", "learned-outcome-oracle-weights", False): (0.9400000000000001, 13.408049380688647, 0),
    ("trunc-homo", "learned-outcome-oracle-weights", True): (0.99, 15.24246762486519, 4),
    ("trunc-hetero", "learned-outcome-oracle-weights", False): (0.9400000000000001, 13.181073277633914, 0),
    ("trunc-hetero", "learned-outcome-oracle-weights", True): (0.9800000000000001, 14.5847649224972, 40),
}

# compare_uniform(make_scenario("unif-compare", setup, n=N, n_test=N_TEST),
# REPLICATIONS, Rng(SEED), test_atom) -> ((coverage_mean, length_mean,
# infinite_intervals) of ipb, the same of uniform, ipb_length_sd,
# uniform_length_sd), recorded before the two numerators shared one
# replication path
COMPARE_FINGERPRINTS = {
    ("oracle-oracle", False): (
        (0.9100000000000001, 9.968337162628131, 0), (0.8699999999999999, 9.50773166266297, 0),
        1.0887417933212682, 1.2367818009075684,
    ),
    ("oracle-oracle", True): (
        (0.9200000000000002, 10.578580707389799, 0), (0.8800000000000001, 9.58841433707018, 0),
        1.1315825082227409, 1.2093343939150958,
    ),
    ("oracle-outcome-estimated-weights", False): (
        (0.9, 9.837214939123074, 0), (0.8800000000000001, 9.707969248448372, 0),
        0.9942175217651308, 1.3461779963224594,
    ),
    ("oracle-outcome-estimated-weights", True): (
        (0.9200000000000002, 10.542375779447985, 0), (0.89, 9.921958885024422, 0),
        1.1315486335011993, 1.4616745262487818,
    ),
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
        mp.setattr(sim, "_POOL_MIN_S", math.inf)  # pool workers would not see the caches
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


@pytest.mark.parametrize("key", sorted(COMPARE_FINGERPRINTS), ids=lambda k: "-".join(map(str, k)))
def test_compare_uniform_fingerprint(key, shared_fits):
    setup, test_atom = key
    scenario = sim.make_scenario("unif-compare", setup=setup, n=N, n_test=N_TEST)
    res = sim.compare_uniform(scenario, REPLICATIONS, Rng(SEED), test_atom=test_atom)
    *studies, ipb_sd, unif_sd = COMPARE_FINGERPRINTS[key]
    for got, (coverage, length, infinite) in zip((res.ipb, res.uniform), studies):
        assert got.coverage_mean == coverage
        assert got.infinite_intervals == infinite
        assert got.length_mean == pytest.approx(length, rel=1e-12, abs=0.0)
        assert got.replications == REPLICATIONS
    assert res.ipb_length_sd == pytest.approx(ipb_sd, rel=1e-12, abs=0.0)
    assert res.uniform_length_sd == pytest.approx(unif_sd, rel=1e-12, abs=0.0)


def test_compare_uniform_all_lengths_infinite():
    # alpha = 1e-4 with the test atom makes every threshold infinite: both
    # studies report inf mean length and NaN spread, as run_study does
    scenario = sim.make_scenario("unif-compare", setup="oracle-oracle", n=N, n_test=N_TEST, alpha=1e-4)
    res = sim.compare_uniform(scenario, REPLICATIONS, Rng(1), test_atom=True)
    for study in (res.ipb, res.uniform):
        assert (study.length_mean, study.infinite_intervals) == (math.inf, N_TEST * REPLICATIONS)
        assert math.isnan(study.length_se)
    assert math.isnan(res.ipb_length_sd) and math.isnan(res.uniform_length_sd)


def test_fingerprints_cover_every_design_and_setup():
    runnable = {(sid, setup) for sid, design in sim._DESIGNS.items() for setup in design.setups}
    assert set(FINGERPRINTS) == {(sid, setup, atom) for sid, setup in runnable for atom in (False, True)}


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
    monkeypatch.setattr(sim, "_POOL_MIN_S", math.inf)  # pool workers would not see the patch
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


def test_uncertified_pinball_fit_fails_the_study(monkeypatch):
    monkeypatch.setattr(outcome, "_vertex_polish", lambda Z, y, level, beta: (beta, False))
    monkeypatch.setattr(sim, "_POOL_MIN_S", math.inf)  # pool workers would not see the patch
    with pytest.raises(PinballFitError) as info:
        sim.run_study(sim.make_scenario("trunc-homo", n=1000), REPLICATIONS, Rng(SEED))
    assert info.value.best_objective > 0.0


class TestScenario:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(id="s3", n=100, n_test=5, alpha=0.1), "unknown scenario"),
            (dict(id="s1", n=100, n_test=5, alpha=0.1, setup="oracle"), "unknown setup"),
            (dict(id="s1", n=19, n_test=5, alpha=0.1), "n >= 20"),
            (dict(id="s1", n=100, n_test=5, alpha=1.0), "alpha"),
            (dict(id="s1", n=100, n_test=5, alpha=0.0), "alpha"),
            (dict(id="trunc-homo", n=100, n_test=5, alpha=0.05), "does not run setup"),
            (dict(id="s1", n=100, n_test=0, alpha=0.1), "n_test >= 1"),
            (dict(id="s1", n=100, n_test=-3, alpha=0.1), "n_test >= 1"),
            (dict(id="trunc-hetero", n=100, n_test=5, alpha=0.05, setup="unadjusted"), "does not run setup"),
            (dict(id="unif-compare", n=100, n_test=5, alpha=0.1, setup="unadjusted"), "does not run setup"),
            (dict(id="unif-compare", n=100, n_test=5, alpha=0.1, setup="learned-learned"), "does not run setup"),
            (
                dict(id="unif-compare", n=100, n_test=5, alpha=0.1, setup="learned-outcome-oracle-weights"),
                "does not run setup",
            ),
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

    @pytest.mark.parametrize("sizes", [dict(n=100.5), dict(n_test=2.5), dict(n=np.float64(100.0))])
    def test_non_integer_size_rejected(self, sizes):
        # generate once failed on it with numpy's TypeError
        with pytest.raises(ValueError, match="scenario sizes must be integers"):
            sim.make_scenario("s1", **sizes)

    def test_numpy_integer_sizes_accepted(self):
        sc = sim.make_scenario("s1", n=np.int64(100), n_test=np.int32(3))
        data, test = sim.generate(sc, Rng(0))
        assert data.n == 100 and test.n == 3

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            sim.make_scenario("s9")

    def test_too_few_replications(self):
        with pytest.raises(ValueError, match="replications"):
            sim.run_study(sim.make_scenario("s1", n=50), 9, Rng(0))

    @pytest.mark.parametrize("replications", [10.0, 10.5, np.float64(10.0)])
    def test_non_integer_replications_rejected(self, replications):
        # spawning the replication streams once failed on it with a TypeError
        for study, scenario_id in ((sim.run_study, "s1"), (sim.compare_uniform, "unif-compare")):
            with pytest.raises(ValueError, match="replications must be an integer >= 10"):
                study(sim.make_scenario(scenario_id, n=50), replications, Rng(0))

    def test_numpy_integer_replications_accepted(self):
        res = sim.run_study(sim.make_scenario("s1", n=50, n_test=3), np.int64(10), Rng(0))
        assert res == sim.run_study(sim.make_scenario("s1", n=50, n_test=3), 10, Rng(0))


def _in_process_replications(monkeypatch) -> list:
    """The stream of each replication that runs in this process, in order."""
    seen, replicate = [], sim._replicate

    def counted(scenario, rng, test_atom, numerators):
        seen.append(rng)
        return replicate(scenario, rng, test_atom, numerators)

    monkeypatch.setattr(sim, "_replicate", counted)
    return seen


def _study_in_child(conn, forget_parent_pool):
    """Run a study that would use a pool and report whether this process
    had one; ``forget_parent_pool`` leaves it only the daemon check."""
    if forget_parent_pool:
        sim._pool = None
    res = sim.run_study(sim.make_scenario("s1", n=N, n_test=N_TEST), REPLICATIONS, Rng(SEED))
    conn.send((res, sim._executor() is None, len(multiprocessing.active_children())))
    conn.close()


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.fixture
def pool(monkeypatch):
    """Studies send every replication after their first two to this
    process's worker pool; skipped where there is none."""
    monkeypatch.setattr(sim, "_POOL_MIN_S", 0.0)
    if sim._executor() is None:
        pytest.skip("no worker pool: it needs Linux, Python < 3.12 and two usable CPUs")
    return sim._pool[1]


@pytest.fixture
def fresh_pool(pool):
    """The pool is shut down, so the next pooled study forks a new one,
    whose workers see the test's own patches; that one is shut down after
    the test, and a later study starts another."""
    pool.shutdown()
    sim._pool = None
    yield
    if sim._pool is not None:
        sim._pool[1].shutdown()
        sim._pool = None


class TestPool:
    @pytest.mark.parametrize("key", sorted(FINGERPRINTS), ids=lambda k: "-".join(map(str, k)))
    def test_study_rows_equal_the_serial_rows(self, key, shared_fits, pool, monkeypatch):
        scenario_id, setup, test_atom = key
        scenario = sim.make_scenario(scenario_id, setup=setup, n=N, n_test=N_TEST)
        local = _in_process_replications(monkeypatch)
        pooled = sim.run_study(scenario, REPLICATIONS, Rng(SEED), test_atom=test_atom)
        assert len(local) == 2
        monkeypatch.setattr(sim, "_POOL_MIN_S", math.inf)
        assert sim.run_study(scenario, REPLICATIONS, Rng(SEED), test_atom=test_atom) == pooled
        assert len(local) == 2 + REPLICATIONS

    @pytest.mark.parametrize("key", sorted(COMPARE_FINGERPRINTS), ids=lambda k: "-".join(map(str, k)))
    def test_compare_uniform_equals_the_serial_one(self, key, shared_fits, pool, monkeypatch):
        setup, test_atom = key
        scenario = sim.make_scenario("unif-compare", setup=setup, n=N, n_test=N_TEST)
        local = _in_process_replications(monkeypatch)
        pooled = sim.compare_uniform(scenario, REPLICATIONS, Rng(SEED), test_atom=test_atom)
        assert len(local) == 2
        monkeypatch.setattr(sim, "_POOL_MIN_S", math.inf)
        assert sim.compare_uniform(scenario, REPLICATIONS, Rng(SEED), test_atom=test_atom) == pooled
        assert len(local) == 2 + REPLICATIONS

    def test_rows_come_back_in_replication_order(self, pool, monkeypatch):
        # an aggregate can hide reordered rows; the rows themselves cannot
        scenario = sim.make_scenario("trunc-homo", n=1000)
        study = lambda: sim._study(scenario, REPLICATIONS, Rng(SEED), False, [sim._DESIGNS["trunc-homo"].shift])
        pooled = study()
        monkeypatch.setattr(sim, "_POOL_MIN_S", math.inf)
        assert study() == pooled

    def test_worker_errors_arrive_as_in_a_serial_run(self, fresh_pool, monkeypatch, tmp_path):
        # at SEED replications 5 and 7 fail, and 7 may fail first: on 2
        # workers it is the second of its chunk, 5 the fourth of the other;
        # at SEED + 1 replication 2 fails at once, before the other chunk ends
        fails = {SEED: (5, 7), SEED + 1: (2,)}
        replicate = sim._replicate

        def failing(scenario, rng, test_atom, numerators):
            j = rng._seq.spawn_key[-1]
            if j in fails.get(rng.seed, ()):
                raise PinballFitError(f"replication {j} in process {os.getpid()}", best_objective=float(j))
            rows = replicate(scenario, rng, test_atom, numerators)
            (tmp_path / f"{rng.seed}-{j}").touch()
            return rows

        monkeypatch.setattr(sim, "_replicate", failing)
        scenario = sim.make_scenario("s1", n=N, n_test=N_TEST)
        with pytest.raises(PinballFitError, match="replication 5 in process") as info:
            sim.run_study(scenario, REPLICATIONS, Rng(SEED))
        assert info.value.best_objective == 5.0
        assert str(os.getpid()) not in str(info.value)
        with pytest.raises(PinballFitError, match="replication 2 in process"):
            sim.run_study(scenario, REPLICATIONS, Rng(SEED + 1))
        assert (tmp_path / f"{SEED + 1}-{REPLICATIONS - 1}").exists()  # every chunk was awaited
        # an error leaves the pool working
        holder = sim._pool
        assert sim.run_study(scenario, REPLICATIONS, Rng(SEED + 2)).replications == REPLICATIONS
        assert sim._pool is holder

    @pytest.mark.parametrize("daemon", [False, True], ids=["forked-child", "daemonic"])
    def test_forked_and_daemonic_processes_run_serially(self, pool, daemon):
        expected = sim.run_study(sim.make_scenario("s1", n=N, n_test=N_TEST), REPLICATIONS, Rng(SEED))
        ctx = multiprocessing.get_context("fork")
        reader, writer = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_study_in_child, args=(writer, daemon), daemon=daemon)
        try:
            with reader, writer:
                child.start()
                assert reader.poll(120)
                got = reader.recv()
            child.join(120)
            assert not child.is_alive() and child.exitcode == 0
        finally:
            if child.is_alive():  # a child stuck on a pool it cannot use
                child.kill()
                child.join()
            child.close()
        assert got == (expected, True, 0)

    def test_pool_is_reused_and_a_broken_one_replaced(self, fresh_pool):
        scenario = sim.make_scenario("s1", n=N, n_test=N_TEST)
        first = sim.run_study(scenario, REPLICATIONS, Rng(SEED))
        holder = sim._pool
        assert sim.run_study(scenario, REPLICATIONS, Rng(SEED)) == first
        assert sim._pool is holder
        # a worker that dies breaks the pool: the next study raises and drops it
        assert isinstance(holder[1].submit(os._exit, 1).exception(timeout=120), BrokenProcessPool)
        with pytest.raises(BrokenProcessPool):
            sim.run_study(scenario, REPLICATIONS, Rng(SEED))
        assert sim._pool is None
        assert sim.run_study(scenario, REPLICATIONS, Rng(SEED)) == first
        assert sim._pool[1] is not holder[1]

    def test_no_worker_outlives_its_process(self, pool):
        code = (
            "import multiprocessing\n"
            "from doseband import sim\n"
            "from doseband.dist import Rng\n"
            "sim._POOL_MIN_S = 0.0\n"
            f"sim.run_study(sim.make_scenario('s1', n={N}, n_test={N_TEST}), {REPLICATIONS}, Rng({SEED}))\n"
            "print(*[p.pid for p in multiprocessing.active_children()])\n"
        )
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(sim.__file__))}
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        pids = [int(pid) for pid in proc.stdout.split()]
        assert len(pids) == sim._pool[2]
        deadline = time.monotonic() + 30.0
        while any(map(_alive, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_alive, pids))
