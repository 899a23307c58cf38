"""Each test's block reducer must be bit-identical to the row-by-row
reference reducer of ``permutation_pvalue``, which reruns the full statistic
on every relabeled dataset through the same driver: the same p and the same
six permutation metadata fields to the last bit, and the inference mode of
the plan. The pairwise references reduce whole N x N matrices, while
the tests themselves use the swept counts (and the win ratio its tie
pairs, however many there are). A test that replays the label stream
another test on the same dataset drew is bit-identical to the same test
drawing it alone."""

from __future__ import annotations

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from multiendpoint import (
    BinaryModel,
    EndpointKind,
    EndpointSpec,
    PermutationPlan,
    SimConfig,
    fs_test,
    global_u_test,
    multirank_test,
    obrien_test,
    simulate_trial,
    win_ratio_test,
)
from multiendpoint import forking, pairwise, resampling
from multiendpoint.global_u import _combine, endpoint_weights
from multiendpoint.methods import METHOD_NAMES, run_method
from multiendpoint.rank_tests import _moments, _quadform_stats, rank_matrix
import oracles
from oracles import kernel_matrix, permutation_pvalue, verdict_matrix
from support import (
    cont,
    count_label_streams,
    dataset,
    random_integer_cohort,
    result_bits,
    subject,
    subjects_of,
)


@pytest.fixture(scope="module")
def ds():
    return simulate_trial(SimConfig.null(7, seed=7))


@pytest.fixture(scope="module")
def tied(ds):
    """``ds`` with three subjects copied onto three others: tie pairs inside
    the treatment group, across the groups and inside the control group,
    with subjects 0, 4 and 12 far apart in index order."""
    subs = subjects_of(ds)
    for a, b in [(0, 1), (4, 9), (12, 13)]:
        subs[b] = replace(subs[b], outcomes=subs[a].outcomes)
    return dataset(subs, ds.endpoint_specs)


@pytest.fixture(scope="module")
def heavy():
    """A cohort of 14 whose endpoints take few values, so that its tie list
    is longer than N^2 / 64 pairs, past which the list costs more per
    permutation than an N x N product would."""
    return dataset(*random_integer_cohort(np.random.default_rng(1), 14))


def tie_pairs(d):
    """The win ratio's tie list for ``d``."""
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
    stats, _ = _quadform_stats(rm.ranks, mask @ rm.ranks, mask.sum(axis=1), _moments(rm.ranks))
    return float(stats[0])


def gu_stat(ds):
    w = endpoint_weights(ds)
    n_pairs = ds.n_treatment * ds.n_control

    def stat(d):
        t = d.treatment_mask
        sums = np.asarray(
            [kernel_matrix(d, spec)[t][:, ~t].sum() for spec in d.endpoint_specs],
            dtype=np.float64,
        )
        return float(_combine(sums, w, n_pairs))

    return stat


def assert_same_null(fast, generic, plan):
    """p and every permutation metadata field agree bit for bit with the
    driver's ``(p, fields)``, and the result carries the plan's inference
    mode."""

    def bits(values):
        return [v.hex() if isinstance(v, float) else v for v in values]

    p, fields = generic
    assert bits([fast.p_two_sided, *(fast.metadata[k] for k in fields)]) == bits(
        [p, *fields.values()]
    )
    assert fast.inference_mode is plan.mode


@pytest.mark.parametrize("plan", PLANS, ids=["monte_carlo", "exact"])
class TestFastPathsMatchGenericEngine:
    def test_fs(self, ds, plan):
        assert_same_null(fs_test(ds, plan=plan), permutation_pvalue(fs_stat, ds, plan), plan)

    def test_win_ratio(self, ds, plan):
        assert_same_null(
            win_ratio_test(ds, plan=plan), permutation_pvalue(wr_stat, ds, plan), plan
        )

    def test_win_ratio_tie_pairs(self, tied, plan):
        assert tie_pairs(tied).T.tolist() == [[0, 1], [4, 9], [12, 13]]
        assert_same_null(
            win_ratio_test(tied, plan=plan), permutation_pvalue(wr_stat, tied, plan), plan
        )

    def test_win_ratio_tie_heavy_dense(self, heavy, plan):
        assert tie_pairs(heavy).shape[1] > heavy.n**2 // 64
        assert_same_null(
            win_ratio_test(heavy, plan=plan), permutation_pvalue(wr_stat, heavy, plan), plan
        )

    def test_win_ratio_missing_marker(self, tied, plan):
        # Two subjects miss the marker, which ties every pair they take part
        # in at that level.
        subs = subjects_of(tied)
        for i in (2, 7):
            subs[i] = replace(subs[i], outcomes={**subs[i].outcomes, "marker": cont()})
        sparse = dataset(subs, tied.endpoint_specs)
        fast = win_ratio_test(sparse, plan=plan)
        assert fast.metadata["n_excluded"] == 0
        assert_same_null(fast, permutation_pvalue(wr_stat, sparse, plan), plan)

    def test_obrien(self, ds, plan):
        assert_same_null(
            obrien_test(ds, plan=plan), permutation_pvalue(obrien_stat, ds, plan), plan
        )

    def test_multirank(self, ds, plan):
        assert_same_null(
            multirank_test(ds, plan=plan), permutation_pvalue(multirank_stat, ds, plan), plan
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
        assert_same_null(fast, permutation_pvalue(multirank_stat, singular, plan), plan)

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
            assert_same_null(fast, permutation_pvalue(stat, sparse, plan), plan)

    def test_global_u(self, ds, plan):
        assert_same_null(
            global_u_test(ds, plan=plan), permutation_pvalue(gu_stat(ds), ds, plan), plan
        )

    def test_pairwise_tests_across_row_tiles(self, ds, tied, heavy, plan, monkeypatch):
        # A budget of 3N entries instead of one tile for N=14, and label
        # products over slices of 5 block rows (the rank tests' Gehan
        # scores and group sums too): ``ds`` and ``tied`` count their
        # deeper levels and list their ties by sorting, and ``heavy``,
        # with NaN in a deeper level other than the last, in blocks of 3
        # rows. Every statistic, variance and p is unchanged to the last
        # bit, so are the tie lists, and the reducers still match the
        # references.
        cohorts = (ds, tied, heavy)

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
                assert_same_null(next(fast), permutation_pvalue(stat, d, plan), plan)


@pytest.mark.parametrize("plan", PLANS, ids=["monte_carlo", "exact"])
@pytest.mark.parametrize("method", METHOD_NAMES)
def test_method_after_the_others_equals_it_alone(method, plan, monkeypatch):
    """Run on a fresh dataset, and run last of the five on another fresh
    dataset, a test gives the same result to the last bit; the five draw
    one label stream between them."""
    streams = count_label_streams(monkeypatch)

    def fresh():
        return simulate_trial(SimConfig.null(7, seed=7))

    alone = run_method(method, fresh(), plan)
    shared = fresh()
    for other in METHOD_NAMES:
        if other != method:
            run_method(other, shared, plan)
    last = run_method(method, shared, plan)
    assert len(streams) == 2
    assert result_bits(last) == result_bits(alone)


@pytest.mark.parametrize("method", METHOD_NAMES)
def test_shares_give_the_serial_result(method, monkeypatch):
    """A fresh stream drawn and reduced in 1, 2 or 3 shares gives the p and
    the six fields of the serial run by ``float.hex``, as does its replay:
    when the stream is kept; when it is over ``_STREAM_CACHE_BYTES``, so
    nothing is kept and the replay draws it again; and when there are more
    shares than replicates, so some shares hold no row."""
    monkeypatch.setattr(resampling, "_SHARE_ENTRIES", 1)  # every stream fans out
    kept_plan, one_row = PermutationPlan.monte_carlo(2_500, seed=5), PermutationPlan.monte_carlo(1)

    def run(workers, plan, cap=resampling._STREAM_CACHE_BYTES):
        monkeypatch.setattr(forking, "usable_cores", lambda: workers)
        monkeypatch.setattr(resampling, "_STREAM_CACHE_BYTES", cap)
        ds = simulate_trial(SimConfig.null(20, seed=3))  # N = 40
        assert resampling._stream_workers(plan, ds.n, plan.replicates) == workers
        first = result_bits(run_method(method, ds, plan))
        kept = ds in resampling._kept
        return first, result_bits(run_method(method, ds, plan)), kept

    for plan in (kept_plan, one_row):
        serial, replay, kept = run(1, plan)
        assert replay == serial and kept
        for workers in (2, 3):
            assert run(workers, plan) == (serial, serial, True)
            assert run(workers, plan, cap=0) == (serial, serial, False)


def test_unknown_method_name_rejected(ds):
    with pytest.raises(ValueError, match="unknown method 'bogus'; known: "):
        run_method("bogus", ds)


def test_quadform_constants_once_per_test_equal_the_per_call_form(ds):
    """``_quadform_stats`` over a whole block, given the test's constants
    (X'X, column sums, norm) computed once, equals it called one row at a
    time with the constants computed afresh for each call: statistic and
    rank by ``float.hex``. The
    blocks are random 0/1 rows, with an empty treatment group and an empty
    control group among them. Every relabeling of ``ds`` is full rank, and
    every one of a cohort whose binary endpoint is constant is deficient,
    so each skips one of ``solve`` and ``pinv``; the 7-subject cohort has
    an exactly singular rank covariance (rank 1 of 2) at its own labeling,
    beside full-rank relabelings."""
    constant = simulate_trial(replace(SimConfig.null(7, seed=3), binary=BinaryModel(1.0, 1.0)))
    c1, c2 = [0, 0, 0, 1, 0, 0, 0], [1, 1, 1, 0, 2, 2, 1]
    specs = [EndpointSpec(f"c{k}", EndpointKind.CONTINUOUS, priority=k) for k in (1, 2)]
    singular = dataset(
        [
            subject(f"s{i}", g, c1=cont(a), c2=cont(b))
            for i, (a, b, g) in enumerate(zip(c1, c2, [0, 0, 0, 0, 1, 1, 0]))
        ],
        specs,
    )
    rng = np.random.default_rng(22)
    deficits = []
    for d in (ds, constant, singular):
        rm = rank_matrix(d)
        X, n = rm.ranks, rm.n
        block = rng.integers(0, 2, (64, n)).astype(np.float64)
        block[:3] = [rm.treatment_mask, np.zeros(n), np.ones(n)]
        s1, n1 = block @ X, block.sum(axis=1)
        once = _quadform_stats(X, s1, n1, _moments(X))
        per_row = [
            _quadform_stats(X, s1[r : r + 1], n1[r : r + 1], _moments(X)) for r in range(len(block))
        ]
        for field, got in enumerate(once):
            want = np.concatenate([row[field] for row in per_row])
            assert [float(v).hex() for v in got] == [float(v).hex() for v in want]
        stats, ranks = once
        assert math.isnan(stats[1]) and math.isnan(stats[2])
        deficits.append(set((rm.k - ranks[np.isfinite(stats)]).tolist()))
    assert deficits[:2] == [{0}, {1}] and {0, 1} <= deficits[2]
    assert once[1][0] == 1
