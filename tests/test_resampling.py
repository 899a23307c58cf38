from __future__ import annotations

import ast
import gc
import hashlib
import math
import multiprocessing
import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from multiendpoint import (
    ExactTooLargeError,
    PermutationPlan,
    derive_endpoints,
    derive_replicate_seed,
    load_trial_csv,
    simulate_trial,
    SimConfig,
    win_ratio_test,
)
import multiendpoint
from multiendpoint import forking, resampling
from multiendpoint.pairwise import pair_counts
from multiendpoint.resampling import (
    _pcg64_seed_states,
    iter_label_blocks,
    n_assignments,
    permutation_test,
    pvalue_from_draws,
)
import oracles
from oracles import permutation_pvalue
from support import count_label_streams, result_bits, survival_cohort

ROOT = Path(__file__).resolve().parents[1]


def fs_stat(ds) -> float:
    u = pair_counts(ds).net
    return float(u[ds.treatment_mask].sum())


@pytest.fixture
def ordered():
    return survival_cohort([30, 40, 10, 20], [1, 1, 1, 1], [1, 1, 0, 0])


class TestPlans:
    def test_monte_carlo_requires_replicates(self):
        with pytest.raises(ValueError):
            PermutationPlan.monte_carlo(0)

    def test_exact_cap_enforced(self):
        # C(22, 11) = 705,432 assignments is over the cap; the check comes
        # before any enumeration.
        cohort = survival_cohort(range(1, 23), [1] * 22, [1, 0] * 11)
        with pytest.raises(ExactTooLargeError, match=r"C\(22, 11\) = 705432"):
            permutation_pvalue(fs_stat, cohort, PermutationPlan.exact())

    def test_long_assignment_count_printed_in_scientific_form(self):
        with pytest.raises(ExactTooLargeError, match=r"^C\(2467, 1848\) = 6\.719e\+601 exceeds"):
            n_assignments(PermutationPlan.exact(), 2467, 1848)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            PermutationPlan("bootstrap")

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        # 2**64 would alias seed 0 and -1 seed 2**64 - 1.
        with pytest.raises(ValueError, match=r"master seed must be in \[0, 2\*\*64\)"):
            PermutationPlan.monte_carlo(9, seed=seed)
        with pytest.raises(ValueError, match="master seed"):
            replace(PermutationPlan.monte_carlo(9), master_seed=seed)

    def test_largest_seed_accepted(self, ordered):
        plan = PermutationPlan.monte_carlo(9, seed=2**64 - 1)
        _, fields = permutation_pvalue(fs_stat, ordered, plan)
        assert fields["seed"] == 2**64 - 1


class TestSeeds:
    def test_deterministic(self):
        assert derive_replicate_seed(123, 0) == derive_replicate_seed(123, 0)

    def test_distinct_across_indices(self):
        assert derive_replicate_seed(123, 0) != derive_replicate_seed(123, 1)

    @given(st.integers(0, 2**64 - 1), st.integers(0, 10_000), st.integers(0, 10_000))
    def test_injective_in_index(self, master, i, j):
        if i != j:
            assert derive_replicate_seed(master, i) != derive_replicate_seed(master, j)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            derive_replicate_seed(1, -1)

    @pytest.mark.parametrize("master", [-1, 2**64])
    def test_master_seed_outside_64_bits_rejected(self, master):
        with pytest.raises(ValueError, match=r"master seed must be in \[0, 2\*\*64\)"):
            derive_replicate_seed(master, 5)

    def test_largest_master_seed_accepted(self):
        assert 0 <= derive_replicate_seed(2**64 - 1, 5) < 2**64
        assert derive_replicate_seed(2**64 - 1, 5) != derive_replicate_seed(0, 5)


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


class TestLabelStream:
    """The block-seeded stream is pinned to numpy's own seeding and to the
    one-generator-per-replicate formula."""

    @staticmethod
    def numpy_states(seeds):
        out = []
        for s in seeds:
            state = np.random.PCG64(s).state
            assert state["has_uint32"] == 0 and state["uinteger"] == 0
            out.append((state["state"]["state"], state["state"]["inc"]))
        return out

    def test_seeding_matches_pcg64_at_edge_seeds(self):
        seeds = np.array(EDGE_SEEDS, dtype=np.uint64)
        assert list(_pcg64_seed_states(seeds)) == self.numpy_states(EDGE_SEEDS)

    def test_seeding_matches_pcg64_on_derived_seeds(self):
        seeds = [derive_replicate_seed(2024, b) for b in range(2_000)]
        states = _pcg64_seed_states(np.array(seeds, dtype=np.uint64))
        assert list(states) == self.numpy_states(seeds)

    @pytest.mark.parametrize("n", [40, 2467])
    @pytest.mark.parametrize("block_size", [1, 37, 1024])
    def test_blocks_match_per_replicate_generators(self, n, block_size):
        codes = np.zeros(n, dtype=np.int8)
        codes[np.random.default_rng(n).permutation(n)[: n // 3]] = 1
        plan = PermutationPlan.monte_carlo(150, seed=2**63 + 5)
        blocks = list(iter_label_blocks(plan, codes, block_size))
        assert all(b.dtype == np.int8 for b in blocks)
        assert [b.shape[0] for b in blocks[:-1]] == [block_size] * (len(blocks) - 1)
        want = oracles.label_rows(plan.master_seed, codes, 150)
        assert np.array_equal(np.concatenate(blocks), want)

    @pytest.mark.parametrize("block_size", [0, -1])
    @pytest.mark.parametrize(
        "plan",
        [PermutationPlan.monte_carlo(5), PermutationPlan.exact()],
        ids=["monte_carlo", "exact"],
    )
    def test_block_size_below_one_rejected(self, plan, block_size):
        # A size of 0 once yielded empty blocks forever (Monte Carlo) or no
        # block at all (exact), and -1 failed inside numpy.
        codes = np.array([1, 1, 0, 0, 0], dtype=np.int8)
        with pytest.raises(ValueError, match=f"block size must be >= 1, got {block_size}"):
            next(iter_label_blocks(plan, codes, block_size))


class TestSharedGenerator:
    """Every stream of a thread draws through one reused generator, loading
    each row's state first: sharing it changes no row."""

    @staticmethod
    def streams(count):
        codes = np.zeros(30, dtype=np.int8)
        codes[::3] = 1
        return [(PermutationPlan.monte_carlo(90, seed=2**40 * k + 1), codes) for k in range(count)]

    def test_interleaved_streams_in_one_thread(self):
        streams = self.streams(2)
        alone = [np.concatenate(list(iter_label_blocks(p, c, 7))) for p, c in streams]
        rows = [[], []]
        for a, b in zip(*(iter_label_blocks(p, c, 7) for p, c in streams)):
            rows[0].append(a)  # one block of each in turn
            rows[1].append(b)
        for got, want in zip(rows, alone):
            assert np.array_equal(np.concatenate(got), want)

    def test_streams_in_more_threads_than_cores(self):
        streams = self.streams(4)
        alone = [np.concatenate(list(iter_label_blocks(p, c, 5))) for p, c in streams]
        got: list = [None] * len(streams)
        step = threading.Barrier(len(streams), timeout=60)

        def draw(k, plan, codes):
            out = []
            for block in iter_label_blocks(plan, codes, 5):
                step.wait()  # the threads take turns block by block
                out.append(block)
            got[k] = np.concatenate(out)

        threads = [threading.Thread(target=draw, args=(k, *sc)) for k, sc in enumerate(streams)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(g is not None and np.array_equal(g, w) for g, w in zip(got, alone))
        assert resampling._thread_shuffler() is resampling._thread_shuffler()


class TestPermutationPvalue:
    def test_constant_statistic_p_one_both_modes(self, ordered):
        for plan in (PermutationPlan.monte_carlo(200, seed=1), PermutationPlan.exact()):
            p, _ = permutation_pvalue(lambda d: 0.0, ordered, plan)
            assert p == 1.0

    def test_exact_enumeration_on_ordered_fixture(self, ordered):
        p, fields = permutation_pvalue(fs_stat, ordered, PermutationPlan.exact())
        assert fields["replicates_used"] == 6
        assert p == pytest.approx(2.0 / 6.0)
        assert fields["n_extreme"] == 2

    def test_monte_carlo_converges_to_exact(self, ordered):
        exact, _ = permutation_pvalue(fs_stat, ordered, PermutationPlan.exact())
        mc, _ = permutation_pvalue(fs_stat, ordered, PermutationPlan.monte_carlo(10_000, seed=3))
        assert abs(mc - exact) <= 0.02

    def test_monte_carlo_within_three_binomial_se(self):
        ds = survival_cohort(
            [3, 9, 14, 1, 7, 11, 2, 6, 12, 4], [1] * 10, [1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
        )
        exact, _ = permutation_pvalue(fs_stat, ds, PermutationPlan.exact())
        b = 20_000
        mc, _ = permutation_pvalue(fs_stat, ds, PermutationPlan.monte_carlo(b, seed=5))
        se = math.sqrt(exact * (1 - exact) / b)
        assert abs(mc - exact) <= 3 * se + 1 / b

    def test_reproducible_and_positive(self, ordered):
        plan = PermutationPlan.monte_carlo(97, seed=42)
        p1, _ = permutation_pvalue(fs_stat, ordered, plan)
        p2, _ = permutation_pvalue(fs_stat, ordered, plan)
        assert p1 == p2
        assert p1 >= 1.0 / 98.0

    def test_plus_one_convention_floor(self, ordered):
        p, _ = permutation_pvalue(lambda d: 1e9 if d is ordered else 0.0, ordered,
                                  PermutationPlan.monte_carlo(49, seed=0))
        assert p == pytest.approx(1.0 / 50.0)

    def test_chunking_invariance(self, ordered):
        plan = PermutationPlan.monte_carlo(300, seed=9)
        whole = np.concatenate(
            [b @ np.arange(4) for b in iter_label_blocks(plan, ordered.group_codes, 300)]
        )
        chunked = np.concatenate(
            [b @ np.arange(4) for b in iter_label_blocks(plan, ordered.group_codes, 37)]
        )
        assert np.array_equal(whole, chunked)

    def test_nonfinite_replicates_flagged_extreme(self, ordered):
        calls = {"n": 0}

        def stat(d):
            calls["n"] += 1
            if calls["n"] == 1:
                return 1.0  # observed
            return math.nan if calls["n"] % 2 == 0 else 0.0

        p, fields = permutation_pvalue(stat, ordered, PermutationPlan.monte_carlo(100, seed=2))
        assert fields["n_nonfinite"] == 50
        assert fields["n_extreme"] == 50
        assert p == pytest.approx(51 / 101)

    def test_nan_observed_gives_p_one(self, ordered):
        p, _ = pvalue_from_draws(math.nan, np.array([0.0, 1.0, math.nan]),
                                 PermutationPlan.exact(), 3)
        assert p == 1.0

    def test_label_blocks_preserve_group_sizes(self, ordered):
        for plan in (PermutationPlan.monte_carlo(50, seed=7), PermutationPlan.exact()):
            for block in iter_label_blocks(plan, ordered.group_codes, 16):
                assert (block.sum(axis=1) == ordered.n_treatment).all()

    def test_exact_assignment_count(self, ordered):
        assert n_assignments(PermutationPlan.exact(), 4, 2) == 6


def recorded_stream(plan, ds) -> list[np.ndarray]:
    """Copies of the blocks ``permutation_test`` hands its reducer, for a
    stream reduced in the caller: one of a single share, or a replay."""
    blocks = []

    def record(block):
        blocks.append(block.copy())
        return np.zeros(len(block))

    permutation_test(0.0, record, ds, plan)
    return blocks


class TestSharedStream:
    """Tests on one dataset under one plan share one label stream: the first
    draws it and keeps it bit-packed, keyed by the dataset, and the others
    replay it."""

    MC = PermutationPlan.monte_carlo(2_500, seed=5)  # blocks of 1024, 1024, 452

    @pytest.fixture
    def drawn(self, monkeypatch):
        return count_label_streams(monkeypatch)

    @pytest.mark.parametrize(
        "plan, per_group", [(MC, 20), (PermutationPlan.exact(), 7)], ids=["monte_carlo", "exact"]
    )
    def test_replay_equals_the_label_stream(self, drawn, plan, per_group):
        ds = simulate_trial(SimConfig.null(per_group, seed=3))
        recorded_stream(plan, ds)
        replay = recorded_stream(plan, ds)
        assert len(drawn) == 1
        want = list(iter_label_blocks(plan, ds.group_codes))
        assert len(replay) == len(want) > 1
        for got, block in zip(replay, want):
            assert (got.shape, got.dtype, got.tobytes()) == (block.shape, np.int8, block.tobytes())

    def test_other_seed_length_or_dataset_misses(self, drawn):
        ds = simulate_trial(SimConfig.null(20, seed=3))
        equal_codes = oracles.with_groups(ds, ds.group_codes)
        for plan, data in [
            (self.MC, ds),
            (replace(self.MC, master_seed=6), ds),
            (PermutationPlan.monte_carlo(2_499, seed=5), ds),
            (self.MC, equal_codes),
        ]:
            recorded_stream(plan, data)
        assert len(drawn) == 4

    def test_entry_dies_with_its_dataset(self):
        ds = simulate_trial(SimConfig.null(20, seed=3))
        recorded_stream(self.MC, ds)
        assert list(resampling._kept) == [ds]
        del ds
        gc.collect()
        assert len(resampling._kept) == 0

    def test_a_reducer_that_writes_its_block_leaves_the_stream_intact(self, drawn):
        ds = simulate_trial(SimConfig.null(20, seed=3))

        def scribble(block):
            block[:] = 1 - block
            return np.zeros(len(block))

        permutation_test(0.0, scribble, ds, self.MC)
        replay = recorded_stream(self.MC, ds)
        assert len(drawn) == 1
        want = list(iter_label_blocks(self.MC, ds.group_codes))
        assert all(np.array_equal(a, b) for a, b in zip(replay, want))

    def test_a_reducer_that_raises_leaves_no_entry(self):
        earlier = simulate_trial(SimConfig.null(20, seed=4))
        recorded_stream(self.MC, earlier)
        ds = simulate_trial(SimConfig.null(20, seed=3))
        seen = []

        def second_block_fails(block):
            seen.append(len(block))
            if len(seen) == 2:
                raise RuntimeError("reducer failed")
            return np.zeros(len(block))

        with pytest.raises(RuntimeError):
            permutation_test(0.0, second_block_fails, ds, self.MC)
        assert len(resampling._kept) == 0

    @pytest.mark.parametrize("spare, kept", [(1, True), (0, True), (-1, False)])
    def test_a_stream_over_the_cap_is_not_kept(self, monkeypatch, drawn, spare, kept):
        ds = simulate_trial(SimConfig.null(20, seed=3))  # N = 40, 5 bytes a row
        monkeypatch.setattr(resampling, "_STREAM_CACHE_BYTES", 2_500 * 5 + spare)
        recorded_stream(self.MC, ds)
        assert (ds in resampling._kept) is kept
        recorded_stream(self.MC, ds)
        assert len(drawn) == (1 if kept else 2)


def rows_of(blocks, n: int) -> np.ndarray:
    return np.concatenate([np.empty((0, n), dtype=np.int8), *blocks])


class TestFannedStream:
    """A fresh Monte Carlo stream of at least two ``_SHARE_ENTRIES``-label
    shares is drawn and reduced in contiguous shares of its replicate range
    by forked workers, which write the kept copy into shared memory, while
    the caller draws none; its packed rows are those of the serial
    stream."""

    MC = PermutationPlan.monte_carlo(2_500, seed=5)  # shares not aligned to 1,024-row blocks

    @pytest.fixture
    def fanned(self, monkeypatch):
        """Two workers for any stream of two labels or more."""
        monkeypatch.setattr(resampling, "_SHARE_ENTRIES", 1)
        monkeypatch.setattr(forking, "usable_cores", lambda: 2)

    @staticmethod
    def serial_packed(plan, codes) -> np.ndarray:
        return np.packbits(rows_of(iter_label_blocks(plan, codes), codes.size), axis=1)

    @staticmethod
    def kept_copy(plan, ds) -> np.ndarray:
        """The copy a fresh stream of ``plan`` on ``ds`` keeps, drawn under
        a reducer that reads nothing."""
        permutation_test(0.0, lambda block: np.zeros(len(block)), ds, plan)
        assert multiprocessing.active_children() == []
        kept_plan, packed = resampling._kept[ds]
        assert kept_plan == plan
        return packed

    @pytest.mark.parametrize("cores", [1, 2, 3, "all"])  # 3: uneven shares, maybe more than cores
    def test_packed_copy_equals_the_serial_stream(self, monkeypatch, cores):
        cores = forking.usable_cores() if cores == "all" else cores
        monkeypatch.setattr(resampling, "_SHARE_ENTRIES", 1)
        monkeypatch.setattr(forking, "usable_cores", lambda: cores)
        ds = simulate_trial(SimConfig.null(20, seed=3))
        assert resampling._stream_workers(self.MC, ds.n, 2_500) == cores
        packed = self.kept_copy(self.MC, ds)
        assert np.array_equal(packed, self.serial_packed(self.MC, ds.group_codes))

    def test_worker_count_is_bounded_without_starting_one(self, monkeypatch):
        monkeypatch.setattr(forking, "usable_cores", lambda: 10**6)
        plan, share = PermutationPlan.monte_carlo(10_000), resampling._SHARE_ENTRIES
        assert resampling._stream_workers(plan, 2_467, 10_000) == 2_467 * 10_000 // share
        assert resampling._stream_workers(plan, 1, 2 * share - 1) == 1
        assert resampling._stream_workers(plan, 1, 2 * share) == 2
        assert resampling._stream_workers(PermutationPlan.exact(), 2_467, 10**6) == 1
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "plan, per_group", [(MC, 20), (PermutationPlan.exact(), 7)], ids=["monte_carlo", "exact"]
    )
    def test_sub_ranges_equal_slices_of_the_stream(self, plan, per_group):
        codes = simulate_trial(SimConfig.null(per_group, seed=3)).group_codes
        rows = rows_of(iter_label_blocks(plan, codes), codes.size)
        total = len(rows)  # 2,500, or C(14, 7) = 3,432
        for start, stop in [(0, 1), (1, 1_500), (1_023, 1_025), (1_700, total), (total, total)]:
            got = rows_of(iter_label_blocks(plan, codes, start=start, stop=stop), codes.size)
            assert np.array_equal(got, rows[start:stop]), (start, stop)
        for start, stop in [(-1, 5), (6, 5), (0, total + 1)]:
            with pytest.raises(ValueError, match="replicate range"):
                list(iter_label_blocks(plan, codes, start=start, stop=stop))

    def test_fanned_replica_copy_hashes_to_the_recorded_digest(self, monkeypatch):
        # The digest of test_stream_digests.py::test_replica_stream.
        monkeypatch.setattr(forking, "usable_cores", lambda: 2)
        ds = derive_endpoints(load_trial_csv(ROOT / "data" / "actg175_replica.csv"))
        plan = PermutationPlan.monte_carlo(10_000, seed=20240201)
        assert resampling._stream_workers(plan, ds.n, 10_000) == 2
        packed = self.kept_copy(plan, ds)
        assert hashlib.sha256(packed.tobytes()).hexdigest() == (
            "c243f59de34beb4e618a02c64644bd186ea2c323634d3959d947023f6be0982d"
        )

    def test_a_reducer_that_writes_its_block_leaves_the_stream_intact(self, fanned, monkeypatch):
        drawn = count_label_streams(monkeypatch)
        ds = simulate_trial(SimConfig.null(20, seed=3))

        def scribble(block):
            block[:] = 1 - block
            return np.zeros(len(block))

        permutation_test(0.0, scribble, ds, self.MC)
        replay = rows_of(recorded_stream(self.MC, ds), ds.n)
        assert len(drawn) == 1
        want = self.serial_packed(self.MC, ds.group_codes)
        assert np.array_equal(np.packbits(replay, axis=1), want)

    def test_a_reducer_that_raises_leaves_no_entry(self, fanned):
        ds = simulate_trial(SimConfig.null(20, seed=3))

        def fails(block):
            raise RuntimeError("reducer failed")

        with pytest.raises(RuntimeError, match="reducer failed"):
            permutation_test(0.0, fails, ds, self.MC)
        assert len(resampling._kept) == 0
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "failure, error, match",
        [("exits", RuntimeError, "exited with code 3"), ("raises", ValueError, "share failed")],
        ids=["exits", "raises"],
    )
    def test_a_failed_worker_raises_in_the_caller(self, fanned, monkeypatch, failure, error, match):
        real = resampling._reduce_share

        def second_share_fails(plan, codes, reduce, packed, start, stop):
            if start > 0:  # the second worker's share; the caller draws none
                if failure == "exits":
                    os._exit(3)
                raise ValueError("share failed")
            return real(plan, codes, reduce, packed, start, stop)

        monkeypatch.setattr(resampling, "_reduce_share", second_share_fails)
        ds = simulate_trial(SimConfig.null(20, seed=3))
        with pytest.raises(error, match=match):
            permutation_test(0.0, lambda block: np.zeros(len(block)), ds, self.MC)
        assert len(resampling._kept) == 0
        assert multiprocessing.active_children() == []


class TestDecisionLevel:
    """A plan with ``decide_at`` stops its stream after the first block at
    which the full stream's p is known to exceed that level: the decision
    ``p <= decide_at`` is the full stream's, from a prefix of its draws."""

    B = 199
    MC = PermutationPlan.monte_carlo(B, seed=5)
    BLOCK = resampling._DECISION_BLOCK

    @staticmethod
    def weights(ds) -> np.ndarray:
        return pair_counts(ds).net.astype(np.float64)

    @staticmethod
    def both(observed, reduce, ds, plan, level):
        """The full and the curtailed ``(p, fields)``, each with the draws
        it saw."""
        draws = ([], [])

        def into(seen):
            def recorded(block):
                seen.append(reduce(block))
                return seen[-1]
            return recorded

        full = permutation_test(observed, into(draws[0]), ds, plan)
        cut = permutation_test(observed, into(draws[1]), ds, replace(plan, decide_at=level))
        return full, cut, *(np.concatenate(d) for d in draws)

    @staticmethod
    def check(full, cut, level, stream_p):
        """Same decision; a full run is the full result, a cut one is below
        its rows and bounds its p from below."""
        (full_p, full_fields), (cut_p, cut_fields) = full, cut
        assert (cut_p <= level) == (full_p <= level)
        if cut_fields["replicates_used"] == full_fields["replicates_used"]:
            assert result_bits(cut) == result_bits(full)
            return False
        assert cut_fields["replicates_used"] < full_fields["replicates_used"]
        assert cut_p == stream_p(cut_fields["n_extreme"])
        assert level < cut_p <= full_p
        return True

    def test_draws_are_a_prefix_of_the_stream(self):
        cut_short = set()
        for seed in range(12):
            ds = simulate_trial(SimConfig.null(20, seed=seed))
            w = self.weights(ds)
            observed = float(ds.group_codes @ w)
            for level in (0.01, 0.05, 0.5):
                full, cut, all_draws, drawn = self.both(
                    observed, lambda b: b @ w, ds, replace(self.MC, master_seed=seed), level
                )
                cut_short.add(self.check(full, cut, level, lambda n: (1 + n) / (self.B + 1)))
                _, fields = cut
                assert np.array_equal(drawn, all_draws[: len(drawn)])
                assert len(drawn) == fields["replicates_used"]
                if fields["replicates_used"] < self.B:
                    assert fields["replicates_used"] % self.BLOCK == 0
                    assert fields["null_mean"] == float(drawn.mean())
                    assert fields["n_extreme"] == int((np.abs(drawn) >= abs(observed)).sum())
        assert cut_short == {True, False}

    def test_nan_observed_stops_after_one_block(self):
        ds = simulate_trial(SimConfig.null(20, seed=3))
        w = self.weights(ds)
        (full_p, full), (cut_p, cut), _, _ = self.both(
            math.nan, lambda b: b @ w, ds, self.MC, 0.05
        )
        assert (full_p, full["replicates_used"]) == (1.0, self.B)
        assert (cut["replicates_used"], cut["n_extreme"]) == (self.BLOCK, self.BLOCK)
        assert cut_p == (1 + self.BLOCK) / (self.B + 1)

    def test_win_ratio_infinite_draws(self):
        # Four subjects a group: relabelings with no loss or no win give a
        # log WR of +inf or -inf, extreme against any finite observed one.
        rng = np.random.default_rng(17)
        nonfinite = cut_short = 0
        for t in range(30):
            ds = survival_cohort(rng.permutation(8) + 1.0, rng.integers(0, 2, 8), [1, 0] * 4)
            plan = replace(self.MC, master_seed=t)
            for level in (0.05, 0.3):
                full = win_ratio_test(ds, plan=plan)
                cut = win_ratio_test(ds, plan=replace(plan, decide_at=level))
                assert (cut.p_two_sided <= level) == (full.p_two_sided <= level)
                if cut.metadata["replicates_used"] == self.B:
                    assert result_bits(cut) == result_bits(full)
                else:
                    cut_short += 1
                    assert level < cut.p_two_sided <= full.p_two_sided
            nonfinite += full.metadata["n_nonfinite"] > 0
        assert nonfinite > 0 and cut_short > 0

    def test_exact_plan(self):
        # C(10, 5) = 252 assignments; p = n_extreme / 252.
        ds = survival_cohort(range(1, 11), [1, 1, 0, 1, 1, 1, 0, 1, 1, 1], [1, 0] * 5)
        w = self.weights(ds)
        observed = float(ds.group_codes @ w)
        cut_short = set()
        for level in (0.01, 0.05, 0.2, 0.5, 0.9):
            full, cut, _, _ = self.both(observed, lambda b: b @ w, ds, PermutationPlan.exact(), level)
            assert full[1]["replicates_used"] == 252
            cut_short.add(self.check(full, cut, level, lambda n: n / 252))
        assert cut_short == {True, False}

    def test_level_below_the_monte_carlo_floor(self):
        # p >= 1/(B+1) > decide_at: no trial can reject, whatever it draws.
        ds = simulate_trial(SimConfig.null(20, seed=3))
        level = 0.5 / (self.B + 1)
        (full_p, _), (cut_p, cut), _, _ = self.both(
            1e9, lambda b: np.zeros(len(b)), ds, self.MC, level
        )
        assert cut["replicates_used"] == self.BLOCK
        assert cut_p == full_p == 1 / (self.B + 1)

    def test_builds_only_the_states_of_the_rows_drawn(self, monkeypatch):
        # The seeds of the whole range are hashed at once, but a state is
        # finished only when its row is drawn: a stream cut after r rows
        # builds r states, and a full one builds all B.
        built = []

        def counted(*words):
            built.append(words)
            return pcg64_state(*words)

        pcg64_state = resampling._pcg64_state
        monkeypatch.setattr(resampling, "_pcg64_state", counted)
        rows = set()
        for seed in range(8):
            ds = simulate_trial(SimConfig.null(20, seed=seed))
            w = self.weights(ds)
            observed = float(ds.group_codes @ w)
            plan = replace(self.MC, master_seed=seed)
            for plan in (plan, replace(plan, decide_at=0.05)):
                built.clear()
                _, fields = permutation_test(observed, lambda b: b @ w, ds, plan)
                assert len(built) == fields["replicates_used"]
                rows.add(fields["replicates_used"])
        assert self.B in rows and min(rows) == self.BLOCK

    @pytest.mark.parametrize("level", [0.0, 1.0, -0.05, 1.5, math.nan])
    def test_level_outside_the_unit_interval_rejected(self, level):
        with pytest.raises(ValueError, match=r"decision level must lie in \(0, 1\)"):
            PermutationPlan(decide_at=level)

    def test_leaves_the_kept_stream_alone(self, monkeypatch):
        ds = simulate_trial(SimConfig.null(20, seed=3))
        permutation_test(0.0, lambda b: np.zeros(len(b)), ds, self.MC)
        kept = list(resampling._kept.items())

        def no_share(*args):
            raise AssertionError("a stream was drawn in shares")

        monkeypatch.setattr(resampling, "_reduce_share", no_share)
        monkeypatch.setattr(resampling, "_SHARE_ENTRIES", 1)  # would fan any fresh stream out
        other = simulate_trial(SimConfig.null(20, seed=4))
        for data in (ds, other):
            _, fields = permutation_test(0.0, lambda b: np.zeros(len(b)), data,
                                         replace(self.MC, decide_at=0.05))
            assert fields["replicates_used"] == self.BLOCK
        assert list(resampling._kept.items()) == kept
        permutation_test(0.0, lambda b: np.zeros(len(b)), ds, self.MC)  # still a replay, no share


class TestSuperUniformity:
    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.10])
    def test_null_p_super_uniform(self, alpha):
        # Null simulated data; statistic = FS over the pooled hierarchy.
        from multiendpoint import fs_test

        n_trials = 400
        b = 99
        rejections = 0
        for t in range(n_trials):
            ds = simulate_trial(SimConfig.null(8, seed=derive_replicate_seed(7, t)))
            plan = PermutationPlan.monte_carlo(b, seed=derive_replicate_seed(11, t))
            p = fs_test(ds, plan=plan).p_two_sided
            rejections += p <= alpha
        rate = rejections / n_trials
        slack = 3.0 * math.sqrt(alpha * (1 - alpha) / n_trials)
        assert rate <= alpha + slack


def _modules_calling(call: str) -> list[str]:
    return [
        path.name
        for path in sorted(Path(multiendpoint.__file__).parent.glob("*.py"))
        if call in path.read_text()
    ]


def test_only_resampling_runs_the_label_loop():
    """Tests end in ``resampling.conclude``; no other module streams label
    blocks, runs the permutation driver or counts extreme draws itself."""
    for call in ("iter_label_blocks(", "permutation_test(", "pvalue_from_draws("):
        assert _modules_calling(call) == ["resampling.py"], call


def test_only_the_shared_tail_builds_results():
    """Every test's result is built in ``resampling.conclude``; ``report``
    builds them only to read a results CSV back."""
    assert _modules_calling("TestResult(") == ["report.py", "resampling.py"]


def test_no_module_has_a_global_statement():
    """No function rebinds module state; the kept label stream lives in a
    mapping keyed by its dataset."""
    for path in sorted(Path(multiendpoint.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        assert not any(isinstance(node, ast.Global) for node in ast.walk(tree)), path.name


def _imports_scipy_stats(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name.startswith("scipy.stats") for a in node.names)
    if isinstance(node, ast.ImportFrom) and node.module:
        if node.module.startswith("scipy.stats"):
            return True
        return node.module == "scipy" and any(a.name == "stats" for a in node.names)
    return False


def test_no_module_imports_scipy_stats():
    """The tails are ``scipy.special`` functions; ``scipy.stats`` alone
    would take most of the package's import time and memory."""
    for path in sorted(Path(multiendpoint.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        assert not any(_imports_scipy_stats(node) for node in ast.walk(tree)), path.name


def test_importing_the_package_leaves_scipy_stats_unloaded():
    src = str(Path(multiendpoint.__file__).parents[1])
    code = "import multiendpoint, sys; assert 'scipy.stats' not in sys.modules"
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_a_permutation_analysis_leaves_scipy_special_unloaded(tmp_path):
    """A permutation run computes no tail, so it never pays the import."""
    argv = ["analyze", "--config", "configs/actg175.yaml", "--out", str(tmp_path)]
    code = (
        "import sys\n"
        "from multiendpoint.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "assert 'scipy.special' not in sys.modules, 'scipy.special was loaded'\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(multiendpoint.__file__).parents[1])}
    run = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "results.csv").exists()
