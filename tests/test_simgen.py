from __future__ import annotations

import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

import multiendpoint
import oracles
from multiendpoint import (
    BinaryModel,
    ContinuousModel,
    InvalidCorrelationError,
    InvalidDataError,
    PermutationPlan,
    SimConfig,
    SurvivalModel,
    error_rate_study,
    simulate_trial,
)
from multiendpoint import forking, simgen
from multiendpoint.forking import usable_cores, worker_count
from multiendpoint.simgen import binomial_band, binomial_ci
from support import subjects_of


def alt_config(shift: float, n: int = 15, seed: int = 0) -> SimConfig:
    base = SimConfig.null(n, seed=seed)
    return SimConfig(
        n_per_group=n,
        survival=base.survival,
        continuous=ContinuousModel(shift, 0.0, 1.0, 1.0),
        binary=base.binary,
        correlation=base.correlation,
        seed=seed,
    )


class TestSimulateTrial:
    def test_deterministic_under_seed(self):
        cfg = SimConfig.null(30, seed=123)
        assert subjects_of(simulate_trial(cfg)) == subjects_of(simulate_trial(cfg))
        assert subjects_of(simulate_trial(cfg)) != subjects_of(
            simulate_trial(SimConfig.null(30, seed=124))
        )
        unequal = SimConfig(
            n_per_group=7,
            survival=SurvivalModel(0.004, 0.002, 500.0),
            continuous=ContinuousModel(0.5, -0.25, 1.0, 2.0),
            binary=BinaryModel(0.7, 0.3),
            correlation=SimConfig.null(7).correlation,
        )
        for seed in range(25):
            cfg = replace(unequal, seed=seed)
            assert subjects_of(simulate_trial(cfg)) == oracles.simulated_subjects(cfg)

    def test_null_groups_exchangeable_in_means(self):
        cfg = SimConfig.null(5000, seed=6)
        ds = simulate_trial(cfg)
        t = ds.treatment_mask
        marker = ds.values("marker")
        se = math.sqrt(2.0 / 5000)
        assert abs(marker[t].mean() - marker[~t].mean()) < 3 * se
        resp = ds.values("response")
        se_b = math.sqrt(2 * 0.25 / 5000)
        assert abs(resp[t].mean() - resp[~t].mean()) < 3 * se_b

    def test_exponential_mean_recovered(self):
        cfg = SimConfig(
            n_per_group=5000,
            survival=SurvivalModel(0.01, 0.01, 1e9),
            continuous=ContinuousModel(0.0, 0.0),
            binary=BinaryModel(0.5, 0.5),
            seed=42,
        )
        ds = simulate_trial(cfg)
        times = ds.times("event")
        assert ds.events_observed("event").all()
        se = 100.0 / math.sqrt(10_000)
        assert abs(times.mean() - 100.0) < 3 * se

    def test_copula_correlation_recovered(self):
        corr = ((1.0, 0.5, 0.0), (0.5, 1.0, 0.0), (0.0, 0.0, 1.0))
        cfg = SimConfig(
            n_per_group=5000,
            survival=SurvivalModel(0.01, 0.01, 1e9),
            continuous=ContinuousModel(0.0, 0.0, 1.0, 1.0),
            binary=BinaryModel(0.5, 0.5),
            correlation=corr,
            seed=77,
        )
        ds = simulate_trial(cfg)
        # With no censoring the survival latent is recoverable from the
        # event-time CDF transform.
        z1 = sps.norm.ppf(-np.expm1(-0.01 * ds.times("event")))
        z2 = ds.values("marker")
        got = float(np.corrcoef(z1, z2)[0, 1])
        assert abs(got - 0.5) < 0.03

    def test_missingness_free_and_counts(self):
        ds = simulate_trial(SimConfig.null(25, seed=1))
        assert ds.n_treatment == ds.n_control == 25
        assert ds.present("marker").all()
        assert ds.present("response").all()

    @pytest.mark.parametrize(
        "corr",
        [
            ((1.0, 0.9, -0.9), (0.9, 1.0, 0.9), (-0.9, 0.9, 1.0)),  # not PSD
            ((1.0, 0.2, 0.0), (0.3, 1.0, 0.0), (0.0, 0.0, 1.0)),  # asymmetric
            ((2.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),  # diagonal != 1
        ],
    )
    def test_invalid_correlation_rejected(self, corr):
        with pytest.raises(InvalidCorrelationError):
            SimConfig(
                n_per_group=5,
                survival=SurvivalModel(0.01, 0.01, 100.0),
                continuous=ContinuousModel(0.0, 0.0),
                binary=BinaryModel(0.5, 0.5),
                correlation=corr,
            )

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SurvivalModel(0.0, 0.01, 100.0)
        with pytest.raises(ValueError):
            ContinuousModel(0.0, 0.0, sd_treatment=0.0)
        with pytest.raises(ValueError):
            BinaryModel(1.5, 0.5)
        with pytest.raises(ValueError):
            SurvivalModel(math.nan, 0.01, 100.0)
        with pytest.raises(ValueError):
            SurvivalModel(0.01, 0.01, math.inf)
        with pytest.raises(ValueError):
            ContinuousModel(math.inf, 0.0)

    @pytest.mark.parametrize("seed, ok", [(-1, False), (2**64 - 1, True), (2**64, False)])
    def test_seed_range(self, seed, ok):
        if ok:
            assert simulate_trial(SimConfig.null(5, seed=seed)).n == 10
        else:
            with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
                SimConfig.null(5, seed=seed)

    def test_marker_overflow_rejected(self):
        # A finite mean + SD x z past float range is an infinite marker.
        huge = ContinuousModel(1.7e308, 1.7e308, 1.7e308, 1.7e308)
        cfg = replace(SimConfig.null(20, seed=0), continuous=huge)
        with np.errstate(over="ignore"), pytest.raises(InvalidDataError, match="'marker'"):
            simulate_trial(cfg)


class TestErrorRateStudy:
    def test_deterministic(self):
        cfg = SimConfig.null(10, seed=4)
        plan = PermutationPlan.monte_carlo(59, seed=8)
        r1 = error_rate_study(cfg, "fs", 0.05, 40, plan)
        r2 = error_rate_study(cfg, "fs", 0.05, 40, plan)
        assert r1 == r2

    def test_report_fields(self):
        cfg = SimConfig.null(10, seed=4)
        plan = PermutationPlan.monte_carlo(59, seed=8)
        r = error_rate_study(cfg, "fs", 0.05, 40, plan)
        assert r.n_trials == 40
        assert 0.0 <= r.rate <= 1.0
        assert r.ci_low <= r.rate <= r.ci_high

    def test_power_at_least_size_with_common_random_numbers(self):
        plan = PermutationPlan.monte_carlo(99, seed=2)
        null_rate = error_rate_study(alt_config(0.0, seed=5), "global_u", 0.05, 60, plan).rate
        alt_rate = error_rate_study(alt_config(1.2, seed=5), "global_u", 0.05, 60, plan).rate
        assert alt_rate >= null_rate

    def test_power_monotone_over_effect_grid(self):
        plan = PermutationPlan.monte_carlo(99, seed=3)
        rates = [
            error_rate_study(alt_config(shift, seed=9), "fs", 0.05, 120, plan).rate
            for shift in (0.0, 0.6, 1.2)
        ]
        slack = 0.03
        assert rates[1] >= rates[0] - slack
        assert rates[2] >= rates[1] - slack
        assert rates[2] > rates[0]


class TestStudyWorkers:
    """The trials of a study fan out over forked workers; the report, the
    warnings and the errors are those of a run in the caller."""

    plan = PermutationPlan.monte_carlo(59, seed=8)

    @staticmethod
    def study(monkeypatch, cores, *args):
        """``error_rate_study(*args)`` on a host with ``cores`` usable cores."""
        monkeypatch.setattr(forking, "usable_cores", lambda: cores)
        return error_rate_study(*args)

    @pytest.mark.parametrize("n_trials", [1, 7, 24])
    def test_reports_equal_at_any_worker_count(self, monkeypatch, n_trials):
        # 7 trials do not split evenly over 2 workers; 1 trial is fewer
        # than the cores.
        cfg = alt_config(0.8, n=10, seed=4)
        reports = [
            self.study(monkeypatch, cores, cfg, "global_u", 0.05, n_trials, self.plan)
            for cores in (1, 2, usable_cores())
        ]
        assert reports[0] == reports[1] == reports[2]
        assert reports[0].n_trials == n_trials
        if n_trials == 24:
            assert 0 < reports[0].n_rejected < n_trials

    def test_error_of_the_first_failing_trial_reaches_the_caller(self, monkeypatch):
        # Every trial overflows, each at its own first subject: trial 0 at
        # sim00001, trial 3 (the second worker's first) at sim00003.
        huge = ContinuousModel(1e308, 1e308, 1e308, 1e308)
        cfg = replace(SimConfig.null(10, seed=1), continuous=huge)
        messages = []
        for cores in (1, 2):
            with pytest.raises(InvalidDataError, match="'marker'") as info:
                self.study(monkeypatch, cores, cfg, "fs", 0.05, 6, self.plan)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert "'sim00001'" in messages[0]
        assert multiprocessing.active_children() == []

    def test_worker_warnings_reach_the_caller(self, monkeypatch):
        # Constant responses: every trial's rank covariance is singular.
        # Only the RuntimeWarnings are checked: from Python 3.12 on, the
        # record may also hold a DeprecationWarning about forking a process
        # whose BLAS threads are alive.
        cfg = replace(SimConfig.null(10, seed=3), binary=BinaryModel(0.0, 0.0))
        counts = []
        for cores in (1, 2):
            with pytest.warns(RuntimeWarning, match="singular") as record:
                self.study(monkeypatch, cores, cfg, "multirank", 0.05, 6, self.plan)
            singular = [w for w in record if issubclass(w.category, RuntimeWarning)]
            counts.append(sum("singular" in str(w.message) for w in singular))
            assert all(w.filename.endswith("rank_tests.py") for w in singular)
        assert counts == [6, 6]

    def test_warning_filter_error_raises_at_any_worker_count(self, monkeypatch):
        cfg = replace(SimConfig.null(10, seed=3), binary=BinaryModel(0.0, 0.0))
        for cores in (1, 2):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(RuntimeWarning, match="singular"):
                    self.study(monkeypatch, cores, cfg, "multirank", 0.05, 6, self.plan)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("n_workers", [1, 3])
    def test_run_shares_returns_the_shares_in_order(self, n_workers):
        # One worker runs in the caller; more fork one process per share,
        # and the caller runs none of them.
        ran = forking.run_shares(lambda start, stop: (start, stop, os.getpid()), 7, n_workers)
        assert [(start, stop) for start, stop, _ in ran] == forking.shares(7, n_workers)
        pids = [pid for _, _, pid in ran]
        if n_workers == 1:
            assert pids == [os.getpid()]
        else:
            assert len(set(pids)) == 3 and os.getpid() not in pids
        assert multiprocessing.active_children() == []

    def test_a_worker_that_dies_raises_in_the_caller(self, monkeypatch):
        def second_share_dies(cfg, method, alpha, plan, start, stop):
            if start > 0:
                os._exit(3)
            return 0

        monkeypatch.setattr(simgen, "_count_rejections", second_share_dies)
        with pytest.raises(RuntimeError, match="exited with code 3"):
            self.study(monkeypatch, 2, SimConfig.null(10, seed=1), "fs", 0.05, 6, self.plan)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("pending", ["sending", "sleeping"])
    def test_an_error_ends_the_pending_shares(self, monkeypatch, pending):
        # The second share is either blocked sending far more recorded
        # warnings than a pipe holds, or asleep, when the first share's
        # error reaches the caller.
        def first_share_fails(cfg, method, alpha, plan, start, stop):
            if start == 0:
                time.sleep(1)
                raise ValueError("first share failed")
            if pending == "sending":
                for k in range(20_000):
                    warnings.warn(f"warning {k}")
            else:
                time.sleep(60)
            return 0

        monkeypatch.setattr(simgen, "_count_rejections", first_share_fails)
        began = time.monotonic()
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="first share failed"):
                self.study(monkeypatch, 2, SimConfig.null(10, seed=1), "fs", 0.05, 6, self.plan)
        assert time.monotonic() - began < 10
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(
        not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists()
        or usable_cores() < 2,
        reason="needs /proc child lists and two usable cores",
    )
    def test_workers_end_with_a_killed_caller(self):
        code = (
            "from multiendpoint import PermutationPlan, SimConfig, error_rate_study, forking\n"
            "forking.usable_cores = lambda: 2\n"
            "print(flush=True)\n"
            "error_rate_study(SimConfig.null(20, seed=1), 'fs', 0.05, 10**6,\n"
            "                 PermutationPlan.monte_carlo(199, seed=1))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(multiendpoint.__file__).parents[1])}
        caller = subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE)

        def alive(pid: int) -> bool:
            try:
                stat = Path(f"/proc/{pid}/stat").read_text()
            except FileNotFoundError:
                return False
            return stat.rsplit(")", 1)[1].split()[0] != "Z"

        try:
            caller.stdout.readline()
            children = Path(f"/proc/{caller.pid}/task/{caller.pid}/children")
            deadline = time.monotonic() + 30
            while len(workers := [int(pid) for pid in children.read_text().split()]) < 2:
                assert time.monotonic() < deadline, "the workers never started"
                time.sleep(0.05)
        finally:
            caller.kill()
            caller.wait(timeout=10)
            caller.stdout.close()
        deadline = time.monotonic() + 10
        while (left := [pid for pid in workers if alive(pid)]) and time.monotonic() < deadline:
            time.sleep(0.05)
        for pid in left:  # a failing run leaves no worker behind
            os.kill(pid, signal.SIGKILL)
        assert not left, "workers outlived their killed caller"

    # The rule is checked on the pure helper: no process is started.
    host = dict(cores=4, start_methods=("fork", "spawn", "forkserver"), daemon=False, threads=1)

    @pytest.mark.parametrize(
        "cores, n_trials, expected", [(4, 100, 4), (4, 3, 3), (2, 1, 1), (1, 100, 1)]
    )
    def test_worker_count_rule(self, cores, n_trials, expected):
        assert worker_count(n_trials, **{**self.host, "cores": cores}) == expected

    @pytest.mark.parametrize(
        "change", [dict(start_methods=("spawn",)), dict(daemon=True), dict(threads=2)]
    )
    def test_serial_fallbacks(self, change):
        assert worker_count(100, **{**self.host, **change}) == 1

    def test_usable_cores_without_affinity(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert usable_cores() == len(os.sched_getaffinity(0))
            monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert usable_cores() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert usable_cores() == 1


class TestBinomialHelpers:
    def test_ci_brackets_rate(self):
        low, high = binomial_ci(5, 100)
        assert low < 0.05 < high

    def test_band_contains_nominal(self):
        low, high = binomial_band(0.05, 2000)
        assert low <= 0.05 <= high
        assert high - low < 0.05
