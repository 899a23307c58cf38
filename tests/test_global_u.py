from __future__ import annotations

import numpy as np
import pytest

from multiendpoint import (
    KernelKindMismatchError,
    KernelSpec,
    KernelType,
    PermutationPlan,
    SimConfig,
    TrialDataset,
    default_kernels,
    endpoint_u,
    global_u_test,
    permutation_pvalue,
    simulate_trial,
)
import oracles
from oracles import kernel_matrix, verdict_matrix
from support import SURV, cont, dataset, random_integer_cohort, subject, subjects_of

SCORE_KERNEL = KernelSpec("score", KernelType.SIGNED_DIFFERENCE)
SURV_KERNEL = KernelSpec("surv", KernelType.GEHAN_SURVIVAL)


def score_only_dataset(treatment_vals, control_vals) -> TrialDataset:
    subs = [
        subject(f"t{i}", 1, score=cont(v)) for i, v in enumerate(treatment_vals)
    ] + [
        subject(f"c{i}", 0, score=cont(v)) for i, v in enumerate(control_vals)
    ]
    from multiendpoint import EndpointKind, EndpointSpec

    spec = EndpointSpec("score", EndpointKind.CONTINUOUS, priority=1)
    return dataset(subs, [spec])


class TestEndpointU:
    def test_identical_groups_give_zero(self):
        ds = score_only_dataset([1, 2, 3], [1, 2, 3])
        assert endpoint_u(ds, SCORE_KERNEL).u == 0.0

    def test_complete_separation_gives_one(self):
        ds = score_only_dataset([3, 4], [1, 2])
        r = endpoint_u(ds, SCORE_KERNEL)
        assert r.u == 1.0
        assert r.pair_sum == 4

    def test_gehan_kernel_reproduces_survival_verdicts(self):
        rng = np.random.default_rng(12)
        subs, specs = random_integer_cohort(rng, 10)
        ds = dataset(subs, specs)
        r = endpoint_u(ds, SURV_KERNEL)
        treat = ds.treatment_mask
        assert r.pair_sum == int(verdict_matrix(ds, [SURV])[treat][:, ~treat].sum())

    def test_kernel_kind_mismatch(self):
        rng = np.random.default_rng(1)
        subs, specs = random_integer_cohort(rng, 6)
        ds = dataset(subs, specs)
        with pytest.raises(KernelKindMismatchError):
            endpoint_u(ds, KernelSpec("surv", KernelType.SIGNED_DIFFERENCE))
        with pytest.raises(KernelKindMismatchError):
            endpoint_u(ds, KernelSpec("score", KernelType.GEHAN_SURVIVAL))

    def test_u_bounded(self):
        rng = np.random.default_rng(7)
        for _ in range(6):
            subs, specs = random_integer_cohort(rng, int(rng.integers(5, 10)))
            ds = dataset(subs, specs)
            for k in default_kernels(ds):
                assert -1.0 <= endpoint_u(ds, k).u <= 1.0


class TestGlobalU:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(19)
        for _ in range(8):
            subs, specs = random_integer_cohort(rng, int(rng.integers(5, 10)))
            ds = dataset(subs, specs)
            kernels = default_kernels(ds)
            got = global_u_test(ds)
            want_u, want_var = oracles.global_u_statistic(subjects_of(ds), kernels)
            assert got.statistic == pytest.approx(want_u, rel=1e-14, abs=1e-15)
            assert got.variance == pytest.approx(want_var, rel=1e-12)

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
        kernels = [
            KernelSpec("surv", KernelType.GEHAN_SURVIVAL, 5.0),
            KernelSpec("score", KernelType.SIGNED_DIFFERENCE, 0.0),
        ]
        r = global_u_test(ds, kernels)
        assert r.statistic == pytest.approx(endpoint_u(ds, SURV_KERNEL).u, rel=1e-14)

    def test_single_kernel_matches_mann_whitney_permutation(self):
        # 12-subject fixture, distinct integer values.
        ds = score_only_dataset([14, 9, 3, 11, 6, 1], [8, 2, 13, 5, 10, 4])
        plan = PermutationPlan.monte_carlo(1500, seed=9)
        got = global_u_test(ds, [SCORE_KERNEL], plan=plan)

        vals = ds.values("score")

        def centered_mw(d):
            t = d.treatment_mask
            u_mw = sum(
                1.0 for a in vals[t] for b in vals[~t] if a > b
            ) + 0.5 * sum(1.0 for a in vals[t] for b in vals[~t] if a == b)
            return u_mw - d.n_treatment * d.n_control / 2.0

        direct = permutation_pvalue(centered_mw, ds, plan)
        assert got.p_two_sided == direct.p

        exact = PermutationPlan.exact()
        assert (
            global_u_test(ds, [SCORE_KERNEL], plan=exact).p_two_sided
            == permutation_pvalue(centered_mw, ds, exact).p
        )

    def test_label_swap_negates_u(self):
        ds = simulate_trial(SimConfig.null(14, seed=8))
        swapped = ds.with_groups(1 - ds.group_codes)
        r1, r2 = global_u_test(ds), global_u_test(swapped)
        assert r1.statistic == -r2.statistic
        assert r1.p_two_sided == pytest.approx(r2.p_two_sided, rel=1e-12)

    def test_weight_continuity(self):
        rng = np.random.default_rng(15)
        subs, specs = random_integer_cohort(rng, 10)
        ds = dataset(subs, specs)
        base = default_kernels(ds)
        r0 = global_u_test(ds, base)
        max_u = max(abs(u) for u in r0.metadata["endpoint_u"].values())
        for eps in (1e-3, 1e-6):
            for j in range(len(base)):
                bumped = [
                    KernelSpec(k.endpoint, k.kernel, k.weight + (eps if i == j else 0.0))
                    for i, k in enumerate(base)
                ]
                r = global_u_test(ds, bumped)
                # |dU| = eps |U_j - U| / (sum w + eps) <= 2 eps max|U_k| here.
                assert abs(r.statistic - r0.statistic) <= 2 * eps * max(max_u, 1e-12) + 1e-15

    def test_degenerate_variance_flag(self):
        ds = score_only_dataset([1, 1, 1], [1, 1, 1])
        r = global_u_test(ds, [SCORE_KERNEL])
        assert r.statistic == 0.0
        assert r.p_two_sided == 1.0
        assert r.metadata["degenerate_variance"]

    def test_all_zero_weights_rejected(self):
        ds = score_only_dataset([1, 2], [3, 4])
        with pytest.raises(ValueError):
            global_u_test(ds, [KernelSpec("score", KernelType.SIGNED_DIFFERENCE, 0.0)])

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
        from multiendpoint.global_u import _normalized_weights, _combine

        kernels = default_kernels(ds)
        w = _normalized_weights(kernels)
        rs = np.column_stack(
            [kernel_matrix(ds, k).sum(axis=1, dtype=np.int64) for k in kernels]
        )
        plan = PermutationPlan.monte_carlo(20_000, seed=101)
        draws = np.concatenate(
            [
                _combine(block @ rs, w, ds.n_treatment * ds.n_control)
                for block in iter_label_blocks(plan, ds.group_codes)
            ]
        )
        assert r.variance == pytest.approx(draws.var(ddof=1), rel=0.10)
