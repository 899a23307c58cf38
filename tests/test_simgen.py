from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as sps

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


class TestBinomialHelpers:
    def test_ci_brackets_rate(self):
        low, high = binomial_ci(5, 100)
        assert low < 0.05 < high

    def test_band_contains_nominal(self):
        low, high = binomial_band(0.05, 2000)
        assert low <= 0.05 <= high
        assert high - low < 0.05
