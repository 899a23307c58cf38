from __future__ import annotations

import math

import numpy as np
import pytest

from multiendpoint import (
    ContinuousModel,
    InferenceMode,
    PermutationPlan,
    SimConfig,
    TrialDataset,
    fs_test,
    simulate_trial,
    win_ratio_test,
)
from multiendpoint.pairwise import pairwise_score_vector
import oracles
from support import (
    FLAG,
    SCORE,
    SURV,
    binary,
    cont,
    dataset,
    subject,
    subjects_of,
    survival_cohort,
    tte,
    win_tallies,
)

HIERARCHY = [SURV, SCORE, FLAG]


def identical_cohort(n=6) -> TrialDataset:
    subs = [
        subject(f"s{i}", i % 2, surv=tte(7), score=cont(1), flag=binary(0))
        for i in range(n)
    ]
    return dataset(subs, HIERARCHY)


def ordered_fixture() -> TrialDataset:
    # 2 vs 2, strictly ordered event times favoring treatment.
    return survival_cohort([30, 40, 10, 20], [1, 1, 1, 1], [1, 1, 0, 0])


class TestFsTest:
    def test_all_ties_degenerate(self):
        r = fs_test(identical_cohort())
        assert r.statistic == 0.0
        assert r.p_two_sided == 1.0
        assert r.metadata["degenerate_variance"]

    def test_ordered_fixture_hand_values(self):
        r = fs_test(ordered_fixture(), [SURV])
        # u = (+1, +3, -3, -1); T = 4; V = 2*2*20 / (4*3).
        assert r.statistic == 4.0
        assert r.variance == pytest.approx(20.0 / 3.0, rel=1e-15)
        assert r.z == pytest.approx(4.0 / math.sqrt(20.0 / 3.0), rel=1e-15)

    def test_ordered_fixture_exact_permutation(self):
        r = fs_test(ordered_fixture(), [SURV], plan=PermutationPlan.exact())
        assert r.p_two_sided == pytest.approx(2.0 / 6.0, abs=0.0)
        assert r.inference_mode is InferenceMode.EXACT

    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            from support import random_integer_cohort

            subs, specs = random_integer_cohort(rng, int(rng.integers(5, 9)))
            ds = dataset(subs, specs)
            r = fs_test(ds)
            t, v = oracles.fs_statistic(subjects_of(ds), specs)
            assert r.statistic == t
            assert r.variance == pytest.approx(v, rel=1e-14)

    def test_label_swap_negates_statistic_keeps_p(self):
        ds = simulate_trial(SimConfig.null(15, seed=9))
        swapped = ds.with_groups(1 - ds.group_codes)
        plan = PermutationPlan.monte_carlo(400, seed=5)
        r1, r2 = fs_test(ds, plan=plan), fs_test(swapped, plan=plan)
        assert r1.statistic == -r2.statistic
        assert r1.p_two_sided == r2.p_two_sided
        a1, a2 = fs_test(ds), fs_test(swapped)
        assert a1.p_two_sided == pytest.approx(a2.p_two_sided, rel=1e-12)

    def test_monotone_transform_invariance(self):
        ds = simulate_trial(SimConfig.null(12, seed=3))
        r = fs_test(ds)

        def cube_marker(s):
            v = s.outcomes["marker"]
            return cont(v.value**3 + 2.0)

        subs = [
            subject(s.id, int(s.group), event=s.outcomes["event"],
                    marker=cube_marker(s), response=s.outcomes["response"])
            for s in subjects_of(ds)
        ]
        from multiendpoint.simgen import SIM_ENDPOINT_SPECS

        ds2 = dataset(subs, SIM_ENDPOINT_SPECS)
        r2 = fs_test(ds2)
        assert r2.statistic == r.statistic
        assert r2.variance == r.variance

    def test_closed_form_variance_matches_permutation_variance(self):
        # The closed form is the exact permutation variance of T; empirical
        # agreement is limited only by Monte Carlo noise.
        ds = simulate_trial(SimConfig.null(60, seed=21))  # N = 120
        u = pairwise_score_vector(ds)
        r = fs_test(ds)
        rng = np.random.default_rng(77)
        draws = np.array(
            [u[rng.permutation(ds.n)[: ds.n_treatment]].sum() for _ in range(8000)]
        )
        assert draws.var(ddof=1) == pytest.approx(r.variance, rel=0.05)

    def test_asymptotic_agrees_with_permutation_at_scale(self):
        cfg = SimConfig.null(110, seed=14)
        cfg = SimConfig(
            n_per_group=110,
            survival=cfg.survival,
            continuous=ContinuousModel(0.18, 0.0, 1.0, 1.0),
            binary=cfg.binary,
            correlation=cfg.correlation,
            seed=14,
        )
        ds = simulate_trial(cfg)
        asym = fs_test(ds)
        perm = fs_test(ds, plan=PermutationPlan.monte_carlo(10_000, seed=2))
        assert 0.01 <= perm.p_two_sided <= 0.99
        assert abs(asym.p_two_sided - perm.p_two_sided) <= 0.01


class TestWinRatio:
    def test_mirrored_dataset_gives_unit_ratio(self):
        subs = []
        outcomes = [(5, 1, 2), (8, 0, -1), (3, 1, 0), (9, 1, 4)]
        for g in (1, 0):
            for i, (t, e, v) in enumerate(outcomes):
                subs.append(
                    subject(f"g{g}s{i}", g, surv=tte(t, e), score=cont(v), flag=binary(0))
                )
        ds = dataset(subs, HIERARCHY)
        r = win_ratio_test(ds)
        assert r.metadata["n_wins"] == r.metadata["n_losses"]
        assert r.metadata["win_ratio"] == 1.0

    def test_unbounded_ratio(self):
        r = win_ratio_test(ordered_fixture(), [SURV], plan=PermutationPlan.exact())
        assert r.metadata["n_wins"] == 4 and r.metadata["n_losses"] == 0
        assert math.isinf(r.metadata["win_ratio"])
        assert not math.isfinite(r.statistic) and r.metadata["ci_95"] is None
        # Both all-win splits (the observed and its mirror) are extreme.
        assert r.p_two_sided == pytest.approx(2.0 / 6.0)

    def test_partition_identity_and_count_consistency(self):
        rng = np.random.default_rng(8)
        from support import random_integer_cohort

        for _ in range(8):
            subs, specs = random_integer_cohort(rng, int(rng.integers(5, 10)))
            ds = dataset(subs, specs)
            r = win_ratio_test(ds)
            assert sum(win_tallies(r)) == ds.n_treatment * ds.n_control
            w, l, t = oracles.win_counts(subjects_of(ds), specs)
            assert win_tallies(r) == (w, l, t)

    def test_all_ties_degenerate(self):
        r = win_ratio_test(identical_cohort())
        assert math.isnan(r.metadata["win_ratio"])
        assert r.p_two_sided == 1.0
        assert r.metadata["degenerate"]

    def test_label_swap_inverts_ratio_keeps_p(self):
        ds = simulate_trial(SimConfig.null(15, seed=31))
        swapped = ds.with_groups(1 - ds.group_codes)
        r1, r2 = win_ratio_test(ds), win_ratio_test(swapped)
        assert r1.metadata["win_ratio"] == pytest.approx(1.0 / r2.metadata["win_ratio"], rel=1e-12)
        assert r1.p_two_sided == pytest.approx(r2.p_two_sided, rel=1e-12)
        plan = PermutationPlan.monte_carlo(400, seed=6)
        p1, p2 = win_ratio_test(ds, plan=plan), win_ratio_test(swapped, plan=plan)
        assert p1.p_two_sided == p2.p_two_sided

    def test_monotone_transform_invariance(self):
        ds = simulate_trial(SimConfig.null(12, seed=13))
        r = win_ratio_test(ds)
        subs = [
            subject(
                s.id,
                int(s.group),
                event=s.outcomes["event"],
                marker=cont(math.exp(s.outcomes["marker"].value / 4.0)),
                response=s.outcomes["response"],
            )
            for s in subjects_of(ds)
        ]
        from multiendpoint.simgen import SIM_ENDPOINT_SPECS

        ds2 = dataset(subs, SIM_ENDPOINT_SPECS)
        r2 = win_ratio_test(ds2)
        assert win_tallies(r2) == win_tallies(r)

    def test_jackknife_ci_brackets_estimate(self):
        ds = simulate_trial(SimConfig.null(40, seed=2))
        r = win_ratio_test(ds)
        assert r.metadata["ci_95"] is not None
        low, high = r.metadata["ci_95"]
        assert low < r.metadata["win_ratio"] < high
        assert r.metadata["jackknife_se"] > 0

    def test_asymptotic_agrees_with_permutation_at_scale(self):
        cfg = SimConfig.null(110, seed=18)
        cfg = SimConfig(
            n_per_group=110,
            survival=cfg.survival,
            continuous=ContinuousModel(0.15, 0.0, 1.0, 1.0),
            binary=cfg.binary,
            correlation=cfg.correlation,
            seed=18,
        )
        ds = simulate_trial(cfg)
        asym = win_ratio_test(ds)
        perm = win_ratio_test(ds, plan=PermutationPlan.monte_carlo(10_000, seed=4))
        assert 0.01 <= perm.p_two_sided <= 0.99
        assert abs(asym.p_two_sided - perm.p_two_sided) <= 0.01
