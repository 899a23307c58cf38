"""Acceptance suite: one test per criterion, each printing a PASS line
(also summarized by the conftest terminal hook).

Criteria 1 and 2 run against the ACTG 175-shaped analysis file (the bundled
calibrated replica by default; point $ACTG175_CSV at a real export to run on
it instead). Criteria 3-6 are self-contained.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from multiendpoint import (
    KernelSpec,
    KernelType,
    PermutationPlan,
    SimConfig,
    baseline_summary,
    default_kernels,
    derive_replicate_seed,
    error_rate_study,
    fs_test,
    global_u_test,
    multirank_test,
    obrien_test,
    pairwise_score_vector,
    rank_matrix,
    run_method,
    simulate_trial,
    win_ratio_test,
)
from multiendpoint.global_u import _combine, _normalized_weights
from multiendpoint.resampling import iter_label_blocks
from multiendpoint.simgen import binomial_band
import oracles
from oracles import kernel_matrix, verdict_matrix
from support import dataset, random_integer_cohort, subjects_of, win_tallies

TABLE2_THRESHOLDS = {
    "rank_sum": 1e-3,
    "fs": 1e-4,
    "win_ratio": 1e-4,
    "multirank": 1e-4,
}

METHODS = ("rank_sum", "fs", "win_ratio", "multirank", "global_u")


def _announce(criterion: str, detail: str = ""):
    line = f"[acceptance] {criterion}: PASS"
    if detail:
        line += f" ({detail})"
    print(line)


def test_criterion_1_table2_thresholds(actg_derived):
    """Four methods beat their published significance thresholds with
    B=10,000 permutations, within the runtime target."""
    plan = PermutationPlan.monte_carlo(10_000, seed=20240201)
    start = time.time()
    pvals = {}
    for method, threshold in TABLE2_THRESHOLDS.items():
        r = run_method(method, actg_derived, plan)
        pvals[method] = r.p_two_sided
        assert r.p_two_sided < threshold, (
            f"{method}: p={r.p_two_sided} not below {threshold}"
        )
    elapsed = time.time() - start
    assert elapsed < 600.0, f"analysis took {elapsed:.0f}s, target is 600s"
    _announce(
        "criterion 1 (Table 2 thresholds, B=10,000)",
        ", ".join(f"{m} p={p:.2e}" for m, p in pvals.items()) + f"; {elapsed:.0f}s",
    )


def test_criterion_2_table1_baseline(actg_raw):
    """Baseline summary reproduces the published characteristics table."""
    table = baseline_summary(actg_raw)
    assert table.value("n", "all") == 2467
    assert table.value("male", "all") == 2029
    assert abs(table.value("age (mean)", "all") - 34.9) <= 0.1
    assert table.value("race: white non-hispanic", "all") == 1730
    assert table.value("race: black non-hispanic", "all") == 409
    assert table.value("race: hispanic", "all") == 291
    assert table.value("race: other", "all") == 37
    assert table.value("n", "no_prior_exposure") == 1067
    assert table.value("n", "prior_exposure") == 1400
    assert abs(table.value("baseline cd4 (mean)", "all") - 352.0) <= 1.0
    _announce("criterion 2 (Table 1 baseline summary)")


def _oracle_kernels():
    return [
        KernelSpec("surv", KernelType.GEHAN_SURVIVAL, 0.5),
        KernelSpec("score", KernelType.SIGNED_DIFFERENCE, 0.25),
        KernelSpec("flag", KernelType.SIGNED_DIFFERENCE, 0.25),
    ]


def test_criterion_3_oracle_equivalence():
    """On >= 50 random cohorts of N <= 10, every method's asymptotic-mode
    statistic matches an independent brute-force recomputation to machine
    precision, and its exact-permutation p matches exhaustive label
    enumeration exactly."""
    rng = np.random.default_rng(20250811)
    exact = PermutationPlan.exact()
    kernels = _oracle_kernels()
    w = _normalized_weights(kernels)

    n_checked = 0
    for _ in range(50):
        n = int(rng.integers(6, 11))
        subs, specs = random_integer_cohort(rng, n)
        ds = dataset(subs, specs)
        subjects = subjects_of(ds)
        n_pairs = ds.n_treatment * ds.n_control

        # FS: statistic, closed-form variance, exact p.
        r = fs_test(ds)
        t_b, v_b = oracles.fs_statistic(subjects, specs)
        assert r.statistic == t_b
        assert r.variance == pytest.approx(v_b, rel=1e-13)
        assert (
            fs_test(ds, plan=exact).p_two_sided
            == oracles.exact_pvalue(lambda ss: oracles.fs_statistic(ss, specs)[0], subjects)
        )

        # Win ratio: counts and exact p on log WR.
        wr = win_ratio_test(ds)
        assert win_tallies(wr) == oracles.win_counts(subjects, specs)
        assert (
            win_ratio_test(ds, plan=exact).p_two_sided
            == oracles.exact_pvalue(lambda ss: oracles.log_win_ratio(ss, specs), subjects)
        )

        # O'Brien: statistic, both variances, exact p on the mean difference.
        stat_b, naive_b, adj_b = oracles.obrien_statistic(subjects, specs)
        r_n = obrien_test(ds, variance="naive")
        r_a = obrien_test(ds, variance="adjusted")
        assert r_n.statistic == pytest.approx(stat_b, rel=1e-13, abs=1e-13)
        assert r_n.variance == pytest.approx(naive_b, rel=1e-12)
        assert r_a.variance == pytest.approx(adj_b, rel=1e-12)
        assert (
            obrien_test(ds, plan=exact).p_two_sided
            == oracles.exact_pvalue(
                lambda ss: oracles.obrien_statistic(ss, specs)[0], subjects
            )
        )

        # Multirank: statistic and exact p.
        r_m = multirank_test(ds)
        assert r_m.statistic == pytest.approx(
            oracles.multirank_statistic(subjects, specs), rel=1e-12
        )
        assert (
            multirank_test(ds, plan=exact).p_two_sided
            == oracles.exact_pvalue(
                lambda ss: oracles.multirank_statistic(ss, specs), subjects
            )
        )

        # Global U: statistic, projection variance and exact p.
        r_g = global_u_test(ds, kernels)
        u_b, var_b = oracles.global_u_statistic(subjects, kernels)
        assert r_g.statistic == pytest.approx(u_b, rel=1e-13, abs=1e-15)
        assert r_g.variance == pytest.approx(var_b, rel=1e-12)

        def brute_global(ss):
            counts = oracles.global_u_parts(ss, kernels)
            return float(_combine(np.asarray(counts, dtype=np.float64), w, n_pairs))

        assert (
            global_u_test(ds, kernels, plan=exact).p_two_sided
            == oracles.exact_pvalue(brute_global, subjects)
        )
        n_checked += 1

    assert n_checked == 50
    _announce("criterion 3 (oracle equivalence on 50 desk-scale cohorts)")


@pytest.mark.parametrize("n_per_group", [20, 100])
def test_criterion_4_null_calibration(n_per_group):
    """Permutation-mode rejection rates on null simulations sit inside the
    exact binomial 95% band around alpha for every method."""
    alpha = 0.05
    n_trials = 2000
    band_low, band_high = binomial_band(alpha, n_trials)
    rates = {}
    for i, method in enumerate(METHODS):
        cfg = SimConfig.null(n_per_group, seed=derive_replicate_seed(404, i))
        plan = PermutationPlan.monte_carlo(199, seed=derive_replicate_seed(505, i))
        report = error_rate_study(cfg, method, alpha, n_trials, plan)
        rates[method] = report.rate
        assert band_low <= report.rate <= band_high, (
            f"{method} at {n_per_group}/group: rate {report.rate:.4f} outside "
            f"[{band_low:.4f}, {band_high:.4f}]"
        )
    _announce(
        f"criterion 4 (null calibration, {n_per_group}/group, {n_trials} trials)",
        ", ".join(f"{m}={r:.3f}" for m, r in rates.items()),
    )


def test_criterion_5_variance_formulas():
    """FS closed-form variance within 5% and global-U projection variance
    within 10% of the empirical permutation variance on null data, N >= 200."""
    for seed in (1, 2, 3):
        ds = simulate_trial(SimConfig.null(120, seed=seed))  # N = 240
        plan = PermutationPlan.monte_carlo(20_000, seed=seed + 900)

        u = pairwise_score_vector(ds)
        fs = fs_test(ds)
        draws = np.concatenate(
            [blk @ u for blk in iter_label_blocks(plan, ds.group_codes)]
        ).astype(float)
        rel_fs = abs(draws.var(ddof=1) - fs.variance) / fs.variance
        assert rel_fs <= 0.05, f"seed {seed}: FS variance off by {rel_fs:.1%}"

        gu = global_u_test(ds)
        kernels = default_kernels(ds)
        wts = _normalized_weights(kernels)
        rs = np.column_stack(
            [kernel_matrix(ds, k).sum(axis=1, dtype=np.int64) for k in kernels]
        )
        gu_draws = np.concatenate(
            [
                _combine(blk @ rs, wts, ds.n_treatment * ds.n_control)
                for blk in iter_label_blocks(plan, ds.group_codes)
            ]
        )
        rel_gu = abs(gu_draws.var(ddof=1) - gu.variance) / gu_draws.var(ddof=1)
        assert rel_gu <= 0.10, f"seed {seed}: global-U variance off by {rel_gu:.1%}"
    _announce("criterion 5 (variance formulas vs permutation variance)")


def test_criterion_6_property_bundle():
    """Module invariants in one sweep: pair antisymmetry/reflexivity,
    score-sum identity, win/loss/tie partition, label-swap behavior,
    monotone-transform invariance, midrank column sums, and determinism
    under seed and chunking."""
    rng = np.random.default_rng(606)

    for trial in range(10):
        subs, specs = random_integer_cohort(rng, int(rng.integers(6, 11)))
        ds = dataset(subs, specs)
        subjects = subjects_of(ds)

        # Antisymmetry and reflexivity under every prefix of the hierarchy,
        # so a pair is also decided at the same level both ways round.
        for k in range(1, len(specs) + 1):
            mat = verdict_matrix(ds, specs[:k])
            assert np.array_equal(mat, -mat.T)
            assert not mat.diagonal().any()

        u = pairwise_score_vector(ds)
        assert u.sum() == 0

        wr = win_ratio_test(ds)
        assert sum(win_tallies(wr)) == ds.n_treatment * ds.n_control

        # Label swap: FS negates, WR inverts, p values unchanged.
        swapped = ds.with_groups(1 - ds.group_codes)
        plan = PermutationPlan.monte_carlo(150, seed=trial)
        f1, f2 = fs_test(ds, plan=plan), fs_test(swapped, plan=plan)
        assert f1.statistic == -f2.statistic
        assert f1.p_two_sided == f2.p_two_sided
        w1, w2 = win_ratio_test(ds, plan=plan), win_ratio_test(swapped, plan=plan)
        if w1.metadata["n_wins"] > 0 and w1.metadata["n_losses"] > 0:
            assert w1.metadata["win_ratio"] == pytest.approx(
                1.0 / w2.metadata["win_ratio"], rel=1e-12
            )
        assert w1.p_two_sided == w2.p_two_sided

        # Midrank column sums.
        rm = rank_matrix(ds)
        n_kept = rm.n
        assert np.allclose(rm.column_rank_sums, n_kept * (n_kept + 1) / 2.0)

        # Monotone transform of the continuous endpoint changes nothing.
        from support import cont, subject

        transformed = [
            subject(
                s.id,
                int(s.group),
                surv=s.outcomes["surv"],
                score=(
                    cont(math.expm1(s.outcomes["score"].value / 8.0))
                    if s.outcomes["score"].present
                    else cont(None)
                ),
                flag=s.outcomes["flag"],
            )
            for s in subjects
        ]
        ds_t = dataset(transformed, specs)
        assert fs_test(ds_t).statistic == fs_test(ds).statistic
        wr_t = win_ratio_test(ds_t)
        assert win_tallies(wr_t)[:2] == win_tallies(wr)[:2]
        assert obrien_test(ds_t).statistic == obrien_test(ds).statistic
        assert multirank_test(ds_t).statistic == pytest.approx(
            multirank_test(ds).statistic, rel=1e-12
        )

    # Determinism: same seed -> identical p; chunk size (the worker-count
    # stand-in) never changes the draws.
    ds = simulate_trial(SimConfig.null(12, seed=3))
    plan = PermutationPlan.monte_carlo(400, seed=17)
    assert fs_test(ds, plan=plan).p_two_sided == fs_test(ds, plan=plan).p_two_sided
    u = pairwise_score_vector(ds)
    whole = np.concatenate([b @ u for b in iter_label_blocks(plan, ds.group_codes, 400)])
    chunked = np.concatenate([b @ u for b in iter_label_blocks(plan, ds.group_codes, 23)])
    assert np.array_equal(whole, chunked)

    _announce("criterion 6 (module property bundle)")
