"""Each test's block reducer must be bit-identical to the row-by-row
reference reducer of ``permutation_pvalue``, which reruns the full statistic
on every relabeled dataset through the same driver: the same p and the same
six permutation metadata fields to the last bit, and the inference mode of
the plan. The pairwise references reduce the stacked N x N matrices, while
the tests themselves use the row-tiled counts (and the win ratio its tie
pairs, or the dense |S| when they are too many)."""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np
import pytest

from multiendpoint import (
    BinaryModel,
    InferenceMode,
    MissingPolicy,
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
from multiendpoint import pairwise, resampling
from multiendpoint.global_u import _combine, _normalized_weights, default_kernels
from multiendpoint.rank_tests import _quadform_stats, rank_matrix
import oracles
from oracles import kernel_matrix, verdict_matrix
from support import cont, dataset, random_integer_cohort, subjects_of


@pytest.fixture(scope="module")
def ds():
    return simulate_trial(SimConfig.null(7, seed=7))


@pytest.fixture(scope="module")
def tied(ds):
    """``ds`` with three subjects copied onto three others: tie pairs inside
    the treatment group, across the groups and inside the control group,
    with rows 0, 4 and 12 in three different 3-row tiles. Three pairs is the
    N^2 / 64 cap at N = 14, so the win ratio takes its tie-pair path."""
    subs = subjects_of(ds)
    for a, b in [(0, 1), (4, 9), (12, 13)]:
        subs[b] = replace(subs[b], outcomes=subs[a].outcomes)
    return dataset(subs, ds.endpoint_specs)


def tie_pairs(d):
    """The win ratio's tie list for ``d``: None means the dense path."""
    return pairwise.pair_counts(d, collect_ties=True).ties


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


def wr_stat_complete_case(d):
    """``wr_stat`` over the subjects present on the complete-case marker."""
    return wr_stat(d.subset(np.flatnonzero(d.present("marker"))))


def obrien_stat(d):
    rm = rank_matrix(d)
    sums = rm.ranks.sum(axis=1)
    m = rm.treatment_mask
    n1 = int(m.sum())
    if n1 in (0, rm.n):
        return np.nan  # a kept group is empty
    total = float(sums.sum())
    s1 = float(sums[m].sum())
    return s1 / n1 - (total - s1) / (rm.n - n1)


def multirank_stat(d):
    rm = rank_matrix(d)
    mask = rm.treatment_mask[None, :].astype(np.float64)
    stats, _ = _quadform_stats(rm.ranks, mask @ rm.ranks, mask.sum(axis=1))
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

    def test_win_ratio_tie_pairs(self, tied, plan):
        assert tie_pairs(tied).T.tolist() == [[0, 1], [4, 9], [12, 13]]
        assert_same_null(
            win_ratio_test(tied, plan=plan), permutation_pvalue(wr_stat, tied, plan)
        )

    def test_win_ratio_tie_heavy_dense(self, plan):
        subs, specs = random_integer_cohort(np.random.default_rng(1), 14)
        heavy = dataset(subs, specs)
        assert tie_pairs(heavy) is None
        assert_same_null(
            win_ratio_test(heavy, plan=plan), permutation_pvalue(wr_stat, heavy, plan)
        )

    @pytest.mark.parametrize("path", ["tie_pairs", "dense"])
    def test_win_ratio_complete_case(self, tied, plan, path, monkeypatch):
        # Two subjects miss a complete-case marker. They still carry labels,
        # so the kept treatment count n1 differs from one relabeling to the
        # next; the three tie pairs are all kept.
        subs = subjects_of(tied)
        for i in (2, 7):
            subs[i] = replace(subs[i], outcomes={**subs[i].outcomes, "marker": cont()})
        specs = [
            replace(s, missing_policy=MissingPolicy.COMPLETE_CASE) if s.name == "marker" else s
            for s in tied.endpoint_specs
        ]
        sparse = dataset(subs, specs)
        cap_divisor = 1 if path == "tie_pairs" else sparse.n ** 2 + 1  # cap N^2 or 0
        monkeypatch.setattr(pairwise, "_TIE_CAP_DIVISOR", cap_divisor)
        fast = win_ratio_test(sparse, plan=plan)
        assert fast.metadata["n_excluded"] == 2
        ties = tie_pairs(sparse.subset(np.flatnonzero(sparse.present("marker"))))
        assert (ties is None) == (path == "dense")
        assert_same_null(fast, permutation_pvalue(wr_stat_complete_case, sparse, plan))

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
        # Complete-case exclusion keeps a handful of the 9 subjects, so the
        # kept treatment count varies between relabelings and some put
        # every kept subject in one group: NaN draws. rank_sum excludes
        # the same subjects.
        subs, specs = random_integer_cohort(np.random.default_rng(0), 9, missing_prob=0.4)
        sparse = dataset(subs, specs)
        for test, stat in [(multirank_test, multirank_stat), (obrien_test, obrien_stat)]:
            fast = test(sparse, plan=plan)
            assert fast.metadata["n_excluded"] > 0
            assert fast.metadata["n_nonfinite"] > 0
            assert_same_null(fast, permutation_pvalue(stat, sparse, plan))

    def test_global_u(self, ds, plan):
        assert_same_null(global_u_test(ds, plan=plan), permutation_pvalue(gu_stat(ds), ds, plan))

    def test_pairwise_tests_across_row_tiles(self, ds, tied, plan, monkeypatch):
        # Tiles of 3 rows (the last one of 2) instead of one tile for N=14,
        # and label products over slices of 5 block rows (the rank tests'
        # Gehan scores and group sums too): every statistic,
        # variance and p is unchanged to the last bit, the tie list of
        # ``tied`` is gathered over several tiles, and the reducers still
        # match the references.
        cohorts = (ds, tied)

        def run():
            tests = (fs_test, win_ratio_test, global_u_test, obrien_test, multirank_test)
            return [test(d, plan=p) for d in cohorts for test in tests for p in (None, plan)]

        one_tile = run(), [tie_pairs(d).tolist() for d in cohorts]
        monkeypatch.setattr(pairwise, "_TILE_ENTRIES", 3 * ds.n)
        monkeypatch.setattr(resampling, "_PRODUCT_ENTRIES", 5 * ds.n)
        tiled = run(), [tie_pairs(d).tolist() for d in cohorts]
        assert [result_bits(r) for r in tiled[0]] == [result_bits(r) for r in one_tile[0]]
        assert tiled[1] == one_tile[1]
        fast = iter(tiled[0][1::2])
        for d in cohorts:
            for stat in (fs_stat, wr_stat, gu_stat(d), obrien_stat, multirank_stat):
                assert_same_null(next(fast), permutation_pvalue(stat, d, plan))
