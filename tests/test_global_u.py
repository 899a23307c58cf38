from __future__ import annotations

import math
import re

import numpy as np
import pytest

from multiendpoint import (
    EndpointKind,
    EndpointSpec,
    PermutationPlan,
    SimConfig,
    TrialDataset,
    endpoint_weights,
    global_u_test,
    simulate_trial,
)
from multiendpoint.pairwise import endpoint_level, sweep_counts
import oracles
from oracles import kernel_matrix, permutation_pvalue, verdict_matrix
from support import SURV, cont, dataset, random_integer_cohort, subject, subjects_of


def score_only_dataset(treatment_vals, control_vals) -> TrialDataset:
    subs = [
        subject(f"t{i}", 1, score=cont(v)) for i, v in enumerate(treatment_vals)
    ] + [
        subject(f"c{i}", 0, score=cont(v)) for i, v in enumerate(control_vals)
    ]
    spec = EndpointSpec("score", EndpointKind.CONTINUOUS, priority=1)
    return dataset(subs, [spec])


def endpoint_pair_sum(ds: TrialDataset, name: str) -> int:
    """Sum of one endpoint's kernel over the treatment x control pairs, from
    a one-level sweep."""
    counts = sweep_counts([endpoint_level(ds, ds.spec(name))], ds.treatment_mask)
    return int((counts.wins - counts.losses)[ds.treatment_mask].sum())


class TestEndpointU:
    def test_identical_groups_give_zero(self):
        ds = score_only_dataset([1, 2, 3], [1, 2, 3])
        assert endpoint_pair_sum(ds, "score") == 0
        assert global_u_test(ds).metadata["endpoint_u"] == {"score": 0.0}

    def test_complete_separation_gives_one(self):
        ds = score_only_dataset([3, 4], [1, 2])
        assert endpoint_pair_sum(ds, "score") == 4
        assert global_u_test(ds).metadata["endpoint_u"] == {"score": 1.0}

    def test_gehan_kernel_reproduces_survival_verdicts(self):
        rng = np.random.default_rng(12)
        subs, specs = random_integer_cohort(rng, 10)
        ds = dataset(subs, specs)
        treat = ds.treatment_mask
        want = int(verdict_matrix(dataset(subs, [SURV]))[treat][:, ~treat].sum())
        assert endpoint_pair_sum(ds, "surv") == want
        n_pairs = ds.n_treatment * ds.n_control
        assert global_u_test(ds).metadata["endpoint_u"]["surv"] == want / n_pairs

    def test_u_bounded(self):
        rng = np.random.default_rng(7)
        for _ in range(6):
            subs, specs = random_integer_cohort(rng, int(rng.integers(5, 10)))
            ds = dataset(subs, specs)
            for u in global_u_test(ds).metadata["endpoint_u"].values():
                assert -1.0 <= u <= 1.0


class TestGlobalU:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(19)
        for _ in range(8):
            subs, specs = random_integer_cohort(rng, int(rng.integers(5, 10)))
            ds = dataset(subs, specs)
            subjects = subjects_of(ds)
            got = global_u_test(ds)
            want_u, want_var = oracles.global_u_statistic(subjects, specs)
            assert got.statistic == pytest.approx(want_u, rel=1e-14, abs=1e-15)
            assert got.variance == pytest.approx(want_var, rel=1e-12)
            n_pairs = ds.n_treatment * ds.n_control
            parts = oracles.global_u_parts(subjects, specs)
            assert got.metadata["endpoint_u"] == {
                spec.name: part / n_pairs for spec, part in zip(specs, parts)
            }

    def test_global_u_bounded_under_normalized_weights(self):
        rng = np.random.default_rng(3)
        subs, specs = random_integer_cohort(rng, 9)
        ds = dataset(subs, specs)
        r = global_u_test(ds)
        assert -1.0 <= r.statistic <= 1.0

    def test_all_weight_on_one_kernel_reduces_to_endpoint_u(self):
        rng = np.random.default_rng(5)
        subs, specs = random_integer_cohort(rng, 8)
        ds = dataset(subs, specs)
        r = global_u_test(ds, {"surv": 5.0, "score": 0.0, "flag": 0.0})
        assert r.metadata["weights"] == [1.0, 0.0, 0.0]
        assert r.statistic == pytest.approx(r.metadata["endpoint_u"]["surv"], rel=1e-14)

    def test_single_kernel_matches_mann_whitney_permutation(self):
        # 12-subject fixture, distinct integer values.
        ds = score_only_dataset([14, 9, 3, 11, 6, 1], [8, 2, 13, 5, 10, 4])
        plan = PermutationPlan.monte_carlo(1500, seed=9)
        got = global_u_test(ds, plan=plan)

        vals = ds.values("score")

        def centered_mw(d):
            t = d.treatment_mask
            u_mw = sum(
                1.0 for a in vals[t] for b in vals[~t] if a > b
            ) + 0.5 * sum(1.0 for a in vals[t] for b in vals[~t] if a == b)
            return u_mw - d.n_treatment * d.n_control / 2.0

        direct, _ = permutation_pvalue(centered_mw, ds, plan)
        assert got.p_two_sided == direct

        exact = PermutationPlan.exact()
        assert (
            global_u_test(ds, plan=exact).p_two_sided
            == permutation_pvalue(centered_mw, ds, exact)[0]
        )

    def test_label_swap_negates_u(self):
        ds = simulate_trial(SimConfig.null(14, seed=8))
        swapped = oracles.with_groups(ds, 1 - ds.group_codes)
        r1, r2 = global_u_test(ds), global_u_test(swapped)
        assert r1.statistic == -r2.statistic
        assert r1.p_two_sided == pytest.approx(r2.p_two_sided, rel=1e-12)

    def test_weight_continuity(self):
        rng = np.random.default_rng(15)
        subs, specs = random_integer_cohort(rng, 10)
        ds = dataset(subs, specs)
        r0 = global_u_test(ds)
        max_u = max(abs(u) for u in r0.metadata["endpoint_u"].values())
        for eps in (1e-3, 1e-6):
            for spec in specs:
                r = global_u_test(ds, {spec.name: 1.0 + eps})
                # |dU| = eps |U_j - U| / (sum w + eps) <= 2 eps max|U_k| here.
                assert abs(r.statistic - r0.statistic) <= 2 * eps * max(max_u, 1e-12) + 1e-15

    def test_degenerate_variance_flag(self):
        ds = score_only_dataset([1, 1, 1], [1, 1, 1])
        r = global_u_test(ds)
        assert r.statistic == 0.0
        assert r.p_two_sided == 1.0
        assert r.metadata["degenerate_variance"]

    def test_all_zero_weights_rejected(self):
        ds = score_only_dataset([1, 2], [3, 4])
        with pytest.raises(ValueError, match="must not all be zero"):
            global_u_test(ds, {"score": 0.0})

    def test_weights_with_an_overflowing_sum_rejected(self):
        # Each weight is finite, but normalizing by their infinite sum would
        # zero them all.
        subs, specs = random_integer_cohort(np.random.default_rng(2), 6)
        with pytest.raises(ValueError, match="must have a finite sum"):
            global_u_test(dataset(subs, specs), {"surv": 1.7e308, "score": 1.7e308})

    @pytest.mark.parametrize(
        "weights, message",
        [
            ({"score": -1.0}, "weight of 'score' must be finite and >= 0, got -1.0"),
            ({"score": math.inf}, "weight of 'score' must be finite and >= 0, got inf"),
            ({"score": math.nan}, "weight of 'score' must be finite and >= 0, got nan"),
            ({"score": 1.0, "surv": 1.0}, "unknown endpoint(s) ['surv']"),
        ],
        ids=["negative", "inf", "nan", "unknown-endpoint"],
    )
    def test_bad_weights_rejected(self, weights, message):
        ds = score_only_dataset([1, 2], [3, 4])
        for check in (endpoint_weights, global_u_test):
            with pytest.raises(ValueError, match=re.escape(message)):
                check(ds, weights)

    def test_equal_weights_on_trial_data_strongly_significant(self, actg_derived):
        plan = PermutationPlan.monte_carlo(2000, seed=12)
        r = global_u_test(actg_derived, plan=plan)
        assert r.p_two_sided < 1e-3
        assert r.statistic > 0  # combination arms favored

    def test_projection_variance_close_to_permutation_variance(self):
        cfg = SimConfig.null(110, seed=33)  # N = 220
        ds = simulate_trial(cfg)
        r = global_u_test(ds)
        from multiendpoint.resampling import iter_label_blocks
        from multiendpoint.global_u import _combine

        w = endpoint_weights(ds)
        rs = np.column_stack(
            [kernel_matrix(ds, spec).sum(axis=1, dtype=np.int64) for spec in ds.endpoint_specs]
        )
        plan = PermutationPlan.monte_carlo(20_000, seed=101)
        draws = np.concatenate(
            [
                _combine(block @ rs, w, ds.n_treatment * ds.n_control)
                for block in iter_label_blocks(plan, ds.group_codes)
            ]
        )
        assert r.variance == pytest.approx(draws.var(ddof=1), rel=0.10)
