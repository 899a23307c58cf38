"""Each test's block reducer must be bit-identical to the row-by-row
reference reducer of ``permutation_pvalue``, which reruns the full statistic
on every relabeled dataset through the same driver: the same p and the same
six permutation metadata fields to the last bit, and the inference mode of
the plan. The pairwise references reduce the stacked N x N matrices, while
the tests themselves use the row-tiled counts."""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np
import pytest

from multiendpoint import (
    BinaryModel,
    InferenceMode,
    PermutationPlan,
    SimConfig,
    fs_test,
    global_u_test,
    multirank_test,
    obrien_test,
    permutation_pvalue,
    simulate_trial,
    win_ratio_test,
)
from multiendpoint import pairwise
from multiendpoint.global_u import _combine, _normalized_weights, default_kernels, kernel_matrix
from multiendpoint.pairwise import verdict_matrix
from multiendpoint.rank_tests import _quadform_stats, rank_matrix
import oracles
from support import dataset, random_integer_cohort, subjects_of


@pytest.fixture(scope="module")
def ds():
    return simulate_trial(SimConfig.null(7, seed=7))


PLANS = [
    PermutationPlan.monte_carlo(500, seed=11),
    PermutationPlan.exact(),
]


def fs_stat(d):
    u = verdict_matrix(d).sum(axis=1, dtype=np.int64)
    return float(u[d.treatment_mask].sum())


def wr_stat(d):
    s = verdict_matrix(d)
    t = d.treatment_mask
    cross = s[t][:, ~t]
    w = float((cross == 1).sum())
    l = float((cross == -1).sum())
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.log(np.float64(w)) - np.log(np.float64(l)))


def obrien_stat(d):
    rm = rank_matrix(d)
    sums = rm.ranks.sum(axis=1)
    m = rm.treatment_mask
    n1 = int(m.sum())
    total = float(sums.sum())
    s1 = float(sums[m].sum())
    return s1 / n1 - (total - s1) / (rm.n - n1)


def multirank_stat(d):
    rm = rank_matrix(d)
    stats, _ = _quadform_stats(rm.ranks, rm.treatment_mask[None, :])
    return float(stats[0])


def gu_stat(ds):
    kernels = default_kernels(ds)
    w = _normalized_weights(kernels)
    n_pairs = ds.n_treatment * ds.n_control

    def stat(d):
        t = d.treatment_mask
        sums = np.asarray([kernel_matrix(d, k)[t][:, ~t].sum() for k in kernels], dtype=np.float64)
        return float(_combine(sums, w, n_pairs))

    return stat


def result_bits(result):
    """Every field of a test result, floats (also nested) by ``float.hex``."""

    def bits(v):
        if isinstance(v, float):
            return v.hex()
        if isinstance(v, dict):
            return {k: bits(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [bits(x) for x in v]
        return v

    return bits(vars(result))


PLAN_MODES = {"monte_carlo": InferenceMode.PERMUTATION, "exact": InferenceMode.EXACT}


def assert_same_null(fast, generic):
    """p and every permutation metadata field agree bit for bit, and the
    result carries the plan's inference mode."""

    def bits(values):
        return [v.hex() if isinstance(v, float) else v for v in values]

    want = generic.metadata()
    assert bits([fast.p_two_sided, *(fast.metadata[k] for k in want)]) == bits(
        [generic.p, *want.values()]
    )
    assert fast.inference_mode is PLAN_MODES[generic.mode]


@pytest.mark.parametrize("plan", PLANS, ids=["monte_carlo", "exact"])
class TestFastPathsMatchGenericEngine:
    def test_fs(self, ds, plan):
        assert_same_null(fs_test(ds, plan=plan), permutation_pvalue(fs_stat, ds, plan))

    def test_win_ratio(self, ds, plan):
        assert_same_null(win_ratio_test(ds, plan=plan), permutation_pvalue(wr_stat, ds, plan))

    def test_obrien(self, ds, plan):
        assert_same_null(obrien_test(ds, plan=plan), permutation_pvalue(obrien_stat, ds, plan))

    def test_multirank(self, ds, plan):
        assert_same_null(
            multirank_test(ds, plan=plan), permutation_pvalue(multirank_stat, ds, plan)
        )

    def test_multirank_singular_covariance(self, plan):
        # A binary endpoint that is 1 for everyone: every labeling's rank
        # covariance has rank 2 < 3, so every draw takes the pseudo-inverse.
        cfg = replace(SimConfig.null(7, seed=3), binary=BinaryModel(1.0, 1.0))
        singular = simulate_trial(cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            fast = multirank_test(singular, plan=plan)
        assert fast.metadata["singular_covariance"]
        assert fast.statistic == pytest.approx(
            oracles.multirank_statistic(subjects_of(singular), singular.endpoint_specs), rel=1e-12
        )
        assert_same_null(fast, permutation_pvalue(multirank_stat, singular, plan))

    def test_multirank_empty_kept_group(self, plan):
        # Complete-case exclusion keeps a handful of the 9 subjects, so some
        # relabelings put every kept subject in one group: NaN draws.
        subs, specs = random_integer_cohort(np.random.default_rng(0), 9, missing_prob=0.4)
        sparse = dataset(subs, specs)
        fast = multirank_test(sparse, plan=plan)
        assert fast.metadata["n_nonfinite"] > 0
        assert_same_null(fast, permutation_pvalue(multirank_stat, sparse, plan))

    def test_global_u(self, ds, plan):
        assert_same_null(global_u_test(ds, plan=plan), permutation_pvalue(gu_stat(ds), ds, plan))

    def test_pairwise_tests_across_row_tiles(self, ds, plan, monkeypatch):
        # Tiles of 3 rows (the last one of 2) instead of one tile for N=14:
        # every statistic, variance and p is unchanged to the last bit, and
        # the reducers still match the references.
        def run():
            tests = (fs_test, win_ratio_test, global_u_test)
            return [test(ds, plan=p) for test in tests for p in (None, plan)]

        one_tile = run()
        monkeypatch.setattr(pairwise, "_TILE_ENTRIES", 3 * ds.n)
        tiled = run()
        assert [result_bits(r) for r in tiled] == [result_bits(r) for r in one_tile]
        for fast, stat in zip(tiled[1::2], (fs_stat, wr_stat, gu_stat(ds))):
            assert_same_null(fast, permutation_pvalue(stat, ds, plan))
