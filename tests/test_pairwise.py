from __future__ import annotations

import csv
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiendpoint import (
    Direction,
    EndpointKind,
    PermutationPlan,
    SimConfig,
    TrialDataset,
    derive_endpoints,
    global_u_test,
    load_trial_csv,
    run_method,
    simulate_trial,
)
from multiendpoint import pairwise
from multiendpoint.pairwise import (
    Level,
    endpoint_level,
    net_counts,
    pair_counts,
    survival_level,
    sweep_counts,
)
import oracles
from oracles import kernel_matrix, verdict_matrix
from support import (
    FLAG,
    SCORE,
    SURV,
    Subject,
    binary,
    cont,
    dataset,
    result_bits,
    subject,
    subjects_of,
    survival_cohort,
    tte,
)


def gehan_scores(times, events) -> np.ndarray:
    """Gehan scores: the net counts of one survival level against everyone."""
    return net_counts(survival_level(times, events))


HIERARCHY = [SURV, SCORE, FLAG]


def outcome_strategy():
    surv = st.builds(
        tte, st.integers(0, 12), st.booleans()
    )
    score = st.one_of(st.none(), st.integers(-3, 3)).map(cont)
    flag = st.one_of(st.none(), st.integers(0, 1)).map(binary)
    return st.tuples(surv, score, flag)


def subject_from(outcomes, sid="a", group=1) -> Subject:
    s, c, b = outcomes
    return subject(sid, group, surv=s, score=c, flag=b)


pairs = st.tuples(outcome_strategy(), outcome_strategy())


def verdict(a: Subject, b: Subject, levels: int = len(HIERARCHY)) -> int:
    """a's verdict over b under the first ``levels`` levels of the hierarchy:
    entry (0, 1) of the verdict matrix of the two-subject cohort."""
    if levels == 0:
        return 0
    return int(verdict_matrix(dataset([a, b], HIERARCHY[:levels]))[0, 1])


def decided_level(a: Subject, b: Subject) -> int | None:
    """The first level whose prefix of the hierarchy decides the pair."""
    return next((k for k in range(1, len(HIERARCHY) + 1) if verdict(a, b, k)), None)


def assert_decided_at(a: Subject, b: Subject, level: int) -> None:
    assert verdict(a, b, level) == verdict(a, b) != 0
    assert verdict(a, b, level - 1) == 0


class TestComparePair:
    def test_identical_outcomes_tie_at_no_level(self):
        a = subject("a", 1, surv=tte(10), score=cont(5), flag=binary(1))
        b = subject("b", 0, surv=tte(10), score=cont(5), flag=binary(1))
        assert verdict(a, b) == 0

    def test_event_before_event_is_loss_at_level_one(self):
        # a's event at day 100, b's at day 400: b outlives a.
        a = subject("a", 1, surv=tte(100, True), score=cont(0), flag=binary(0))
        b = subject("b", 0, surv=tte(400, True), score=cont(0), flag=binary(0))
        assert verdict(a, b) == -1
        assert_decided_at(a, b, 1)

    def test_censoring_before_event_defers_to_level_two(self):
        # a censored at 300, b's event at 500 lies beyond a's follow-up:
        # survival level indeterminate, decided by the continuous endpoint.
        a = subject("a", 1, surv=tte(300, False), score=cont(50), flag=binary(0))
        b = subject("b", 0, surv=tte(500, True), score=cont(-20), flag=binary(0))
        assert verdict(a, b) == 1
        assert_decided_at(a, b, 2)

    def test_both_censored_indeterminate_regardless_of_times(self):
        a = subject("a", 1, surv=tte(900, False), score=cont(1), flag=binary(0))
        b = subject("b", 0, surv=tte(10, False), score=cont(0), flag=binary(0))
        assert_decided_at(a, b, 2)

    def test_equal_event_times_indeterminate(self):
        a = subject("a", 1, surv=tte(50, True), score=cont(2), flag=binary(0))
        b = subject("b", 0, surv=tte(50, True), score=cont(1), flag=binary(0))
        assert_decided_at(a, b, 2)

    def test_missing_value_ties_at_level(self):
        a = subject("a", 1, surv=tte(10, False), score=cont(None), flag=binary(1))
        b = subject("b", 0, surv=tte(10, False), score=cont(5), flag=binary(0))
        assert verdict(a, b) == 1
        assert_decided_at(a, b, 3)

    @given(pairs)
    def test_antisymmetry(self, outcome_pair):
        a = subject_from(outcome_pair[0], "a", 1)
        b = subject_from(outcome_pair[1], "b", 0)
        assert verdict(a, b) == -verdict(b, a)
        assert decided_level(a, b) == decided_level(b, a)

    @given(outcome_strategy())
    def test_reflexivity(self, outcomes):
        a = subject_from(outcomes, "a", 1)
        a2 = subject_from(outcomes, "a2", 0)
        assert verdict(a, a2) == 0

    @given(pairs, st.integers(-3, 3), st.integers(0, 1))
    def test_level_monotonicity(self, outcome_pair, new_score, new_flag):
        """Once a level decides, outcomes at lower-priority levels are inert."""
        a = subject_from(outcome_pair[0], "a", 1)
        b = subject_from(outcome_pair[1], "b", 0)
        level = decided_level(a, b)
        if level is None:
            return
        mutated = dict(a.outcomes)
        if level <= 1:
            mutated["score"] = cont(new_score)
        if level <= 2:
            mutated["flag"] = binary(new_flag)
        a2 = Subject("a", a.group, mutated)
        assert verdict(a2, b) == verdict(a, b)
        assert decided_level(a2, b) == level

    @given(pairs)
    def test_censoring_soundness(self, outcome_pair):
        """Turning a's observed event into censoring at the same time never
        manufactures a survival-level win for a."""
        a = subject_from(outcome_pair[0], "a", 1)
        b = subject_from(outcome_pair[1], "b", 0)
        surv = a.outcomes["surv"]
        if not surv.event_observed:
            return
        censored = Subject("a", a.group, {**a.outcomes, "surv": tte(surv.time, False)})
        if verdict(a, b, 1) == 0:
            assert verdict(censored, b, 1) <= 0

    @given(pairs)
    def test_matches_independent_rule(self, outcome_pair):
        a = subject_from(outcome_pair[0], "a", 1)
        b = subject_from(outcome_pair[1], "b", 0)
        assert (verdict(a, b), decided_level(a, b)) == oracles.compare(a, b, HIERARCHY)


def _random_dataset(seed: int, n: int) -> TrialDataset:
    rng = np.random.default_rng(seed)
    subs = []
    n1 = int(rng.integers(1, n))
    for i in range(n):
        subs.append(
            subject(
                f"s{i}",
                1 if i < n1 else 0,
                surv=tte(int(rng.integers(0, 10)), bool(rng.integers(0, 2))),
                score=cont(None if rng.random() < 0.2 else int(rng.integers(-3, 4))),
                flag=binary(None if rng.random() < 0.2 else int(rng.integers(0, 2))),
            )
        )
    return dataset(subs, HIERARCHY)


class TestScoreVector:
    def test_all_identical_cohort_scores_zero(self):
        subs = [
            subject(f"s{i}", i % 2, surv=tte(7), score=cont(1), flag=binary(0))
            for i in range(6)
        ]
        ds = dataset(subs, HIERARCHY)
        assert pair_counts(ds).net.tolist() == [0] * 6

    def test_strictly_ordered_fixture(self):
        # Event times 10 < 20 < 30 < 40, all observed: u = (-3, -1, +1, +3).
        ds = survival_cohort([10, 20, 30, 40], [1, 1, 1, 1], [1, 1, 0, 0])
        assert pair_counts(ds).net.tolist() == [-3, -1, 1, 3]

    @pytest.mark.parametrize("seed", range(10))
    def test_scores_sum_to_zero(self, seed):
        ds = _random_dataset(seed, 9)
        assert pair_counts(ds).net.sum() == 0

    @pytest.mark.parametrize("seed", range(15))
    def test_brute_force_oracle_small_cohorts(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(3, 9))
        ds = _random_dataset(seed + 77, n)
        assert pair_counts(ds).net.tolist() == oracles.score_vector(
            subjects_of(ds), HIERARCHY
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_verdict_matrix_matches_compare_pair(self, seed):
        ds = _random_dataset(seed + 500, 7)
        mat = verdict_matrix(ds)
        subs = subjects_of(ds)
        for i in range(ds.n):
            for j in range(ds.n):
                if i == j:
                    assert mat[i, j] == 0
                else:
                    assert mat[i, j] == oracles.compare(subs[i], subs[j], HIERARCHY)[0]

    def test_gehan_scores_match_survival_level(self):
        rng = np.random.default_rng(3)
        times = rng.integers(1, 15, size=10).astype(float)
        events = rng.integers(0, 2, size=10).astype(bool)
        got = gehan_scores(times, events)
        want = oracles.gehan_scores(list(zip(times, events)))
        assert got.tolist() == want


# A lower-is-better middle level exercises the sign flip of value keys.
TILE_HIERARCHY = [SURV, replace(SCORE, direction=Direction.LOWER_IS_BETTER), FLAG]


def _interleaved_dataset(seed: int, n: int) -> TrialDataset:
    """Tied times, censoring and missing values, with the groups interleaved
    so that the sweep's treatment-first column order is not index order."""
    rng = np.random.default_rng(seed)
    groups = rng.permutation([1] * (n // 2) + [0] * (n - n // 2))
    subs = [
        subject(
            f"s{i}",
            int(g),
            surv=tte(int(rng.integers(0, 6)), bool(rng.integers(0, 2))),
            score=cont(None if rng.random() < 0.25 else int(rng.integers(-2, 3))),
            flag=binary(None if rng.random() < 0.25 else int(rng.integers(0, 2))),
        )
        for i, g in enumerate(groups)
    ]
    return dataset(subs, TILE_HIERARCHY)


def record_tiles(monkeypatch) -> list[tuple[int, int]]:
    """The shapes of the tiles that later sweeps build, in order."""
    shapes: list[tuple[int, int]] = []
    verdicts = pairwise._tile_verdicts

    def tile_verdicts(row_keys, col_keys, tile, scratch):
        shapes.append(tile.shape)
        return verdicts(row_keys, col_keys, tile, scratch)

    monkeypatch.setattr(pairwise, "_tile_verdicts", tile_verdicts)
    return shapes


@pytest.mark.parametrize("height", ["1", "2", "n-1", "n", "n+1", "sorted"])
@pytest.mark.parametrize("seed", range(4))
class TestRowTiles:
    """The sweep must not depend on where the tiles break, nor on whether
    it takes tiles at all."""

    @pytest.fixture
    def ds(self, monkeypatch, seed, height):
        ds = _interleaved_dataset(900 + seed, 9 + seed)
        n = ds.n
        rows = {"1": 1, "2": 2, "n-1": n - 1, "n": n, "n+1": n + 1, "sorted": 1}[height]
        monkeypatch.setattr(pairwise, "_TILE_ENTRIES", rows * n)
        if height != "sorted":
            # The sort would take these value endpoints; the blocked sweep
            # serves any levels.
            monkeypatch.setattr(pairwise, "_value_levels", lambda levels: False)
        with monkeypatch.context() as m:
            tiles = record_tiles(m)
            pair_counts(ds)
        # A budget of the whole matrix makes it one tile; a smaller one
        # makes tiles of at most ``rows`` rows' worth of entries, or none
        # when the sort takes the deeper levels.
        if rows >= n:
            assert tiles == [(n, n)]
        elif height == "sorted":
            assert tiles == []
        else:
            assert tiles and all(h * w <= rows * n and h < n for h, w in tiles)
        return ds

    def test_counts_and_stacked_matrix_match_compare_pair(self, ds):
        subs = subjects_of(ds)
        want = np.array(
            [
                [0 if a is b else oracles.compare(a, b, TILE_HIERARCHY)[0] for b in subs]
                for a in subs
            ]
        )
        assert verdict_matrix(ds).tolist() == want.tolist()

        counts = pair_counts(ds)
        treat = ds.treatment_mask
        other = treat[:, None] != treat[None, :]
        assert counts.net.tolist() == oracles.score_vector(subs, TILE_HIERARCHY)
        assert counts.determinate.tolist() == np.abs(want).sum(axis=1).tolist()
        assert counts.wins.tolist() == ((want == 1) & other).sum(axis=1).tolist()
        assert counts.losses.tolist() == ((want == -1) & other).sum(axis=1).tolist()
        wins, losses, _ = oracles.win_counts(subs, TILE_HIERARCHY)
        assert (counts.wins[treat].sum(), counts.losses[treat].sum()) == (wins, losses)

    def test_tie_pairs_match_compare_pair(self, ds):
        subs = subjects_of(ds)
        want = [
            [i, j]
            for i in range(ds.n)
            for j in range(i + 1, ds.n)
            if oracles.compare(subs[i], subs[j], TILE_HIERARCHY)[0] == 0
        ]
        ties = pair_counts(ds, collect_ties=True).ties
        assert ties.dtype == np.int32
        # The list is in ascending i, then ascending j, however the blocks
        # break.
        np.testing.assert_array_equal(ties, np.array(want, dtype=np.int32).reshape(-1, 2).T)
        assert pair_counts(ds).ties is None  # only when asked for

    def test_single_level_sweeps_match_oracles(self, ds):
        got = gehan_scores(ds.times("surv"), ds.events_observed("surv"))
        subs = subjects_of(ds)
        pairs = [(s.outcomes["surv"].time, s.outcomes["surv"].event_observed) for s in subs]
        assert got.tolist() == oracles.gehan_scores(pairs)

        # One sweep per endpoint, the global-U kernel of its kind (the
        # middle one lower-is-better): its per-subject kernel sums over the
        # other group give the projections, and global U over the dataset
        # gives each endpoint's U and the projection variance.
        treat = ds.treatment_mask
        n1, n0 = ds.n_treatment, ds.n_control
        parts = oracles.global_u_parts(subs, TILE_HIERARCHY)
        for spec, want in zip(TILE_HIERARCHY, parts):
            counts = sweep_counts([endpoint_level(ds, spec)], treat)
            vs_other = counts.wins - counts.losses
            cross = kernel_matrix(ds, spec)[treat][:, ~treat].astype(np.int64)
            assert vs_other[treat].tolist() == cross.sum(axis=1).tolist()
            assert (-vs_other[~treat]).tolist() == cross.sum(axis=0).tolist()
            assert int(vs_other[treat].sum()) == want
        gu = global_u_test(ds)
        assert gu.metadata["endpoint_u"] == {
            spec.name: want / (n1 * n0) for spec, want in zip(TILE_HIERARCHY, parts)
        }
        want_u, want_var = oracles.global_u_statistic(subs, TILE_HIERARCHY)
        assert gu.statistic == pytest.approx(want_u, rel=1e-14, abs=1e-15)
        assert gu.variance == pytest.approx(want_var, rel=1e-12)


COUNT_FIELDS = ("net", "determinate", "wins", "losses")


def _matrix_counts(s: np.ndarray, treat: np.ndarray) -> dict:
    """``sweep_counts``'s fields read off a whole verdict matrix ``s``."""
    other = treat[:, None] != treat[None, :]
    i, j = np.nonzero(np.triu(s == 0, 1))  # row-major: ascending i, then j
    return {
        "net": s.sum(axis=1, dtype=np.int64),
        "determinate": np.abs(s).sum(axis=1, dtype=np.int64),
        "wins": ((s == 1) & other).sum(axis=1),
        "losses": ((s == -1) & other).sum(axis=1),
        "ties": np.stack([i, j]).astype(np.int32),
    }


def _random_level(rng, kind: str, n: int) -> Level:
    """A level of ``kind`` over ``n`` subjects, keys drawn from a few
    integers so that they repeat."""
    keys = rng.integers(-3, 4, size=n).astype(np.float64)
    if kind == "survival":  # a censored lo is +inf
        keys[rng.random(n) < 0.2] = np.inf
        return survival_level(keys, rng.random(n) < 0.5)
    if kind == "complete":  # one NaN-free key array
        keys[rng.random(n) < 0.1] = -np.inf
        return Level(keys, keys)
    if kind == "missing":  # one key array with NaN
        keys[rng.random(n) < 0.3] = np.nan
        return Level(keys, keys)
    # two key arrays: NaN and infinite keys on both sides, hi > lo somewhere
    lo = rng.integers(-3, 4, size=n).astype(np.float64)
    keys[rng.random(n) < 0.2] = np.nan
    lo[rng.random(n) < 0.2] = np.nan
    keys[rng.random(n) < 0.1] = -np.inf
    lo[rng.random(n) < 0.1] = np.inf
    return Level(keys, lo)


def assert_compact_is_exact(levels) -> None:
    """The integer ranks of deeper value levels, -1 where a level is NaN,
    give the verdict matrix of ``levels`` itself, level by level."""
    n = levels[0].hi.size
    ranks = pairwise._compact(levels, n)
    assert ranks.dtype == np.int32 and ranks.shape == (len(levels), n)
    np.testing.assert_array_equal(ranks < 0, np.isnan([lv.hi for lv in levels]))
    for r, level in zip(np.where(ranks < 0, np.nan, ranks), levels):
        np.testing.assert_array_equal(
            oracles.level_matrix([Level(r, r)]), oracles.level_matrix([level])
        )


KINDS = ("survival", "complete", "missing", "crossed")
# A first level needs hi <= lo on every subject: any kind but "crossed".
FIRST_KINDS = KINDS[:3]


class TestCompactKeys:
    """The sort's integer ranks must not change a single verdict, and the
    int8 column sums of the blocked sweep must count every pair."""

    @settings(max_examples=300)
    @given(
        st.integers(1, 40),
        st.lists(st.sampled_from(["complete", "missing"]), min_size=1, max_size=5),
        st.integers(0, 2**32 - 1),
    )
    def test_random_levels_keep_every_verdict(self, n, kinds, seed):
        # NaN in any subset of the levels.
        rng = np.random.default_rng(seed)
        levels = [_random_level(rng, kind, n) for kind in kinds]
        assert_compact_is_exact(levels)

    def test_a_missing_value_level_breaks_a_run(self):
        # A missing value level above or below complete ones is the sort's
        # input too; the subjects that lack it, and only they, rank -1.
        rng = np.random.default_rng(5)
        levels = [_random_level(rng, kind, 30) for kind in ["complete", "missing", "complete"]]
        levels[1].hi[0] = np.nan
        for deeper in (levels, levels[1:], levels[::-1]):
            assert pairwise._value_levels(deeper)
            assert_compact_is_exact(deeper)

    def test_a_level_with_hi_above_lo(self):
        # A crossed level is no value level: it is never ranked, and the
        # blocked sweep compares its keys as they are, in one tile or in
        # blocks of one row.
        level = Level(np.array([5.0, 5.0, 3.0, 1.0, np.nan]), np.array([0.0, 0.0, 3.0, 1.0, 2.0]))
        treat = np.array([1, 0, 1, 0, 1], dtype=bool)
        for deeper in ([level], [level, _values(1, 2, 2, 1, 1), _values(0, 0, 1, 1, 0)]):
            assert not pairwise._value_levels(deeper)
            with pytest.MonkeyPatch.context() as monkeypatch:
                monkeypatch.setattr(pairwise, "_compact", None)  # any ranking would raise
                for budget in (pairwise._TILE_ENTRIES, 1):
                    monkeypatch.setattr(pairwise, "_TILE_ENTRIES", budget)
                    assert_sweep_matches_oracle([_values(*[None] * 5), *deeper], treat)

    @pytest.mark.parametrize("tiles", ["one", "many"])
    @pytest.mark.parametrize("seed", range(6))
    def test_sweep_counts_on_either_key_path(self, monkeypatch, tiles, seed):
        """A matrix of one tile is swept from its own keys; any other is
        ranked and sorted when its deeper levels are value levels, and else
        swept in blocks from its own keys. Each gives the whole matrix's
        counts and tie list. A crossed level (hi > lo) may come at any
        depth but the first."""
        rng = np.random.default_rng(400 + seed)
        n = int(rng.integers(2, 30))
        kinds = [rng.choice(FIRST_KINDS), *rng.choice(KINDS, size=3)]
        if seed % 2:
            kinds[1:] = ["missing", "complete", "missing"]
        levels = [_random_level(rng, kind, n) for kind in kinds]
        treat = rng.random(n) < 0.5
        want = _matrix_counts(oracles.level_matrix(levels), treat)
        monkeypatch.setattr(pairwise, "_TILE_ENTRIES", (n if tiles == "one" else 3) * n)
        compacted = []
        compact = pairwise._compact
        monkeypatch.setattr(
            pairwise, "_compact", lambda lv, n: compacted.append(1) or compact(lv, n)
        )
        got = sweep_counts(levels, treat, collect_ties=True)
        sorted_path = tiles == "many" and n > 3 and pairwise._value_levels(levels[1:])
        assert bool(compacted) == sorted_path
        for field in (*COUNT_FIELDS, "ties"):
            np.testing.assert_array_equal(getattr(got, field), want[field], err_msg=field)

    def test_a_column_beaten_by_every_row_of_the_tallest_tile(self, monkeypatch):
        """127 rows, the most whose int8 column sum cannot overflow, all
        beat one column and all lose to another; a deeper survival level
        keeps the sweep on blocks."""
        n = 300
        assert pairwise._MAX_TILE_ROWS == np.iinfo(np.int8).max == 127
        treat = np.arange(n) < 150
        times = np.ones(n)
        times[150], times[151] = 0.0, 2.0
        # The first level ties every pair (all censored); the deeper one
        # lets every other subject beat subject 150 and lose to 151.
        levels = [
            survival_level(np.arange(n, dtype=float), np.zeros(n, bool)),
            survival_level(times, np.ones(n, bool)),
        ]
        tiles = record_tiles(monkeypatch)
        got = sweep_counts(levels, treat, collect_ties=True)
        # The first block is the first 127 rows, all of the treatment
        # group, against every column.
        assert tiles[0] == (127, n)
        s = oracles.level_matrix(levels)
        assert s[:127, 150].sum() == 127 and s[:127, 151].sum() == -127
        want = _matrix_counts(s, treat)
        for field in COUNT_FIELDS:
            np.testing.assert_array_equal(getattr(got, field), want[field], err_msg=field)
        assert got.losses[150] == got.wins[151] == 150


def assert_sorted_counts_match_tiles(monkeypatch, level, treat):
    """One level's counts without a tie list are the whole matrix's, value
    and dtype, and are counted by sorting, with no tile; so is its
    one-group net count, whether its keys are one array or two. With a
    tie list, the sweep gives the whole matrix's tie pairs."""
    treat = np.asarray(treat, dtype=bool)
    want = _matrix_counts(oracles.level_matrix([level]), treat)
    np.testing.assert_array_equal(sweep_counts([level], treat, collect_ties=True).ties, want["ties"])
    with monkeypatch.context() as m:
        m.setattr(pairwise, "_tile_verdicts", None)  # any tile would raise
        for keys in (level, Level(level.hi, level.lo.copy())):
            net = net_counts(keys)
            assert net.dtype == np.int64
            assert net.tolist() == want["net"].tolist()
        got = sweep_counts([level], treat)
    assert got.ties is None
    for field in COUNT_FIELDS:
        a = getattr(got, field)
        assert a.dtype == np.int64, field
        assert a.tolist() == want[field].tolist(), field


def _values(*vs) -> Level:
    v = np.array([np.nan if x is None else x for x in vs], dtype=np.float64)
    return Level(v, v)


class TestSortedCounts:
    """One level is counted by sorting; it must give the whole matrix's
    counts."""

    def test_tied_keys_straddle_the_group_boundary(self, monkeypatch):
        treat = [1, 0, 1, 0, 0, 1, 1, 0]
        times = np.array([3, 3, 3, 5, 5, 5, 7, 7], dtype=float)
        events = np.array([1, 1, 0, 1, 0, 1, 1, 1], dtype=bool)
        assert_sorted_counts_match_tiles(monkeypatch, survival_level(times, events), treat)
        level = _values(2, 2, 2, 1, 1, None, 1, 2)
        assert_sorted_counts_match_tiles(monkeypatch, level, treat)

    @pytest.mark.parametrize("event", [False, True])
    def test_all_censored_and_all_event_survival(self, monkeypatch, event):
        times = np.array([4, 1, 4, 9, 2, 9, 4], dtype=float)
        level = survival_level(times, np.full(times.size, event))
        assert_sorted_counts_match_tiles(monkeypatch, level, [1, 1, 0, 0, 1, 0, 0])
        counts = sweep_counts([level], np.ones(times.size, dtype=bool))
        assert counts.determinate.any() == event

    def test_all_missing_values_decide_nothing(self, monkeypatch):
        level = _values(None, None, None, None)
        assert_sorted_counts_match_tiles(monkeypatch, level, [1, 0, 1, 0])
        assert sweep_counts([level], np.array([1, 0, 1, 0], dtype=bool)).determinate.tolist() == [0] * 4

    @pytest.mark.parametrize("seed", range(3))
    def test_lower_is_better_mirror(self, monkeypatch, seed):
        ds = _interleaved_dataset(700 + seed, 12)
        for spec in (SCORE, replace(SCORE, direction=Direction.LOWER_IS_BETTER)):
            level = endpoint_level(ds, spec)
            assert_sorted_counts_match_tiles(monkeypatch, level, ds.treatment_mask)

    @pytest.mark.parametrize("treat", [[1], [0], [1, 0, 0, 0], [0, 1, 1, 1], [1, 0], [1, 1]])
    def test_one_subject_groups_and_two_subjects(self, monkeypatch, treat):
        n = len(treat)
        times = np.arange(n, 0, -1, dtype=float)
        assert_sorted_counts_match_tiles(monkeypatch, survival_level(times, np.ones(n, bool)), treat)
        assert_sorted_counts_match_tiles(monkeypatch, _values(*range(n)), treat)

    def test_level_with_hi_above_lo_is_counted_by_tiles(self, monkeypatch):
        # Subjects 0 and 1 win each of their pairs one way and lose it the
        # other, so every one of their pairs is tied, the self pair too;
        # sorting would count those pairs as decided. So such a level is
        # refused as the first, and counted by the blocked sweep behind a
        # first level that ties every pair, in one tile or in blocks of one
        # row.
        level = Level(np.array([5.0, 5.0, 3.0, 1.0]), np.array([0.0, 0.0, 3.0, 1.0]))
        treat = np.array([1, 0, 1, 0], dtype=bool)
        with pytest.raises(ValueError, match="hi <= lo"):
            sweep_counts([level], treat)
        s = (level.hi[:, None] > level.lo).astype(int) - (level.hi > level.lo[:, None])
        for budget in (pairwise._TILE_ENTRIES, 1):
            monkeypatch.setattr(pairwise, "_TILE_ENTRIES", budget)
            counts = sweep_counts([_values(None, None, None, None), level], treat)
            assert counts.net.tolist() == s.sum(axis=1).tolist()
            assert counts.determinate.tolist() == np.abs(s).sum(axis=1).tolist()
            assert counts.determinate.tolist() == [0, 0, 1, 1]

    @settings(max_examples=300)
    @given(
        st.lists(
            st.tuples(
                st.booleans(),
                st.integers(0, 5),
                st.booleans(),
                st.one_of(st.none(), st.integers(-3, 3)),
            ),
            min_size=1,
            max_size=25,
        ),
        st.booleans(),
    )
    def test_random_cohorts_match_tiles(self, rows, mirror):
        treat, times, events, values = (list(c) for c in zip(*rows))
        survival = survival_level(np.array(times, dtype=float), np.array(events))
        value = _values(*[v if v is None or not mirror else -v for v in values])
        with pytest.MonkeyPatch.context() as monkeypatch:
            for level in (survival, value):
                assert_sorted_counts_match_tiles(monkeypatch, level, treat)


# Each sweep's fields, and the fields it reads.
SWEEP_FIELDS = [
    (pairwise.ALL, COUNT_FIELDS),
    (pairwise.NET, ("net",)),
    (pairwise.BETWEEN, ("wins", "losses")),
]


def assert_sweep_matches_oracle(levels, treat) -> None:
    """Every count and the tie list of ``sweep_counts`` equal the whole
    matrix's, value and dtype; so do the counts of a sweep without a tie
    list, of the net-only sweep and of the between-group sweep, each of
    which leaves the fields it does not count None."""
    treat = np.asarray(treat, dtype=bool)
    want = _matrix_counts(oracles.level_matrix(levels), treat)
    got = sweep_counts(levels, treat, collect_ties=True)
    for field in (*COUNT_FIELDS, "ties"):
        a = getattr(got, field)
        assert a.dtype == (np.int32 if field == "ties" else np.int64), field
        np.testing.assert_array_equal(a, want[field], err_msg=field)
    for fields, read in SWEEP_FIELDS:
        got = sweep_counts(levels, treat, fields=fields)
        for field in (*COUNT_FIELDS, "ties"):
            a = getattr(got, field)
            if field not in read:
                assert a is None, (fields, field)
                continue
            assert a.dtype == np.int64, (fields, field)
            np.testing.assert_array_equal(a, want[field], err_msg=f"{fields}: {field}")


class TestTieRuns:
    """The first level is counted by sorting, and the deeper levels decide
    only the runs of pairs it ties, by sorting or in blocks of any size."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(2, 60),
        st.sampled_from(FIRST_KINDS),
        st.lists(st.sampled_from(KINDS), max_size=3),
        st.integers(1, 4000),
        st.sampled_from([0.0, 0.1, 0.5, 1.0]),
        st.integers(0, 2**32 - 1),
    )
    def test_counts_and_ties_match_the_oracle(self, n, first, deeper, budget, share, seed):
        # Every sweep, the net-only and between-group ones too; a budget
        # below N * N sends value levels to the sort and any others to
        # blocks of at most budget / N rows. A treatment share of 0 or 1
        # leaves the between-group sweep no pair to compare.
        rng = np.random.default_rng(seed)
        levels = [_random_level(rng, kind, n) for kind in (first, *deeper)]
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(pairwise, "_TILE_ENTRIES", budget)
            assert_sweep_matches_oracle(levels, rng.random(n) < share)

    def test_a_tie_list_needs_every_field(self):
        levels = [_values(1, 1, 2), _values(1, 2, 3)]
        treat = np.array([1, 0, 1], dtype=bool)
        for fields in (pairwise.NET, pairwise.BETWEEN, "wins"):
            with pytest.raises(ValueError, match="collect_ties"):
                sweep_counts(levels, treat, collect_ties=True, fields=fields)
        with pytest.raises(ValueError, match="collect_ties"):
            sweep_counts(levels, treat, fields="wins")

    def test_rows_with_empty_runs(self, monkeypatch):
        # Distinct event times decide every pair at the first level, so
        # no run holds a pair and the sort lists no tie; then one tie,
        # which the deeper level decides, then one it leaves tied.
        times = np.arange(12, dtype=float)
        treat = np.arange(12) % 3 == 0
        values = np.arange(12, dtype=float)
        deeper = Level(values, values)
        tiles = record_tiles(monkeypatch)
        monkeypatch.setattr(pairwise, "_TILE_ENTRIES", 20)
        levels = [survival_level(times, np.ones(12, bool)), deeper]
        assert_sweep_matches_oracle(levels, treat)
        assert sweep_counts(levels, treat, collect_ties=True).ties.shape == (2, 0)
        times[5] = times[4]
        assert_sweep_matches_oracle([survival_level(times, np.ones(12, bool)), deeper], treat)
        values[5] = values[4]
        levels = [survival_level(times, np.ones(12, bool)), deeper]
        assert_sweep_matches_oracle(levels, treat)
        assert sweep_counts(levels, treat, collect_ties=True).ties.tolist() == [[4], [5]]
        assert tiles == []

    @pytest.mark.parametrize("budget", [1, 30, 200])
    def test_equal_first_keys_across_tile_and_group_boundaries(self, monkeypatch, budget):
        # Long runs of one first-level key, each held by both groups and
        # broken across several tiles of a small budget.
        n = 40
        first = _values(*(np.arange(n) // 13))
        treat = np.arange(n) % 2 == 0
        rng = np.random.default_rng(7)
        deeper = [_random_level(rng, kind, n) for kind in ("survival", "missing")]
        tiles = record_tiles(monkeypatch)
        monkeypatch.setattr(pairwise, "_TILE_ENTRIES", budget)
        assert_sweep_matches_oracle([first, *deeper], treat)
        assert len(tiles) > 2

    @pytest.mark.parametrize("budget", [1, 50, 1 << 18])
    def test_nan_first_levels(self, monkeypatch, budget):
        # A missing first-level value beats nothing and is beaten by
        # nothing, so it is tied with every subject, before it in the
        # first level's order as after it.
        monkeypatch.setattr(pairwise, "_TILE_ENTRIES", budget)
        rng = np.random.default_rng(11)
        for nan_share in (0.3, 1.0):
            keys = rng.integers(0, 4, size=25).astype(float)
            keys[rng.random(25) < nan_share] = np.nan
            hi, lo = keys.copy(), keys.copy()
            lo[::4] = np.nan  # and a NaN lo alone
            hi[1::4] = np.nan  # and a NaN hi alone
            deeper = _random_level(rng, "complete", 25)
            treat = rng.random(25) < 0.5
            for first in (Level(keys, keys), Level(hi, lo)):
                assert_sweep_matches_oracle([first, deeper], treat)

    def test_a_crossed_first_level_is_refused(self):
        level = Level(np.array([1.0, 2.0, 3.0]), np.array([1.0, 1.5, 3.0]))
        with pytest.raises(ValueError, match="hi <= lo"):
            sweep_counts([level, _values(1, 2, 3)], np.array([1, 0, 1], dtype=bool))
        assert_sweep_matches_oracle([_values(1, 1, 1), level], np.array([1, 0, 1], dtype=bool))


def _value_hierarchy(rng, n: int, depth: int, blanks: int, spread: int) -> list[Level]:
    """``depth`` value levels, keys drawn from [-spread, spread], level k
    with NaN where bit k of ``blanks`` is set; a wide spread gives each
    subject its own deeper rank, a narrow one repeats them."""
    levels = []
    for k in range(depth):
        keys = rng.integers(-spread, spread + 1, size=n).astype(np.float64)
        if blanks >> k & 1:
            keys[rng.random(n) < 0.3] = np.nan
        levels.append(Level(keys, keys))
    return levels


class TestSortedDeeperLevels:
    """Deeper value levels, with NaN in any of them, are counted by sorting
    whenever the sweep is more than one tile; every count and the tie list
    equal the whole matrix's, and no tile is built."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 300),
        st.sampled_from(FIRST_KINDS),
        st.integers(1, 3),
        st.integers(0, 7),
        st.sampled_from([2, 40, 2**20]),
        st.sampled_from([0.0, 0.1, 0.5, 1.0]),
        st.integers(0, 2**32 - 1),
    )
    def test_counts_match_the_oracle(self, n, first, depth, blanks, spread, share, seed):
        # Survival, value and NaN first levels with equal keys; ranks up
        # to n - 1 run three digit passes; NaN in any subset of the deeper
        # levels (``blanks``), up to 19 terms and 64 tie passes; a narrow
        # spread lists many tie pairs in each pass; a treatment share of 0
        # or 1 leaves the between-group sweep no pair.
        rng = np.random.default_rng(seed)
        deeper = _value_hierarchy(rng, n, depth, blanks, spread)
        levels = [_random_level(rng, first, n), *deeper]
        treat = rng.random(n) < share
        want = _matrix_counts(oracles.level_matrix(levels), treat)
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(pairwise, "_TILE_ENTRIES", 1)  # never one tile
            monkeypatch.setattr(pairwise, "_tile_verdicts", None)  # any tile would raise
            for fields, read in SWEEP_FIELDS:
                got = sweep_counts(levels, treat, fields=fields)
                for field in read:
                    a = getattr(got, field)
                    assert a.dtype == np.int64, (fields, field)
                    np.testing.assert_array_equal(a, want[field], err_msg=f"{fields}: {field}")
            ties = sweep_counts(levels, treat, collect_ties=True).ties
            assert ties.dtype == np.int32
            np.testing.assert_array_equal(ties, want["ties"])

    @pytest.mark.parametrize("nan_share", [0.0, 0.5, 1.0])
    def test_a_nan_last_level_alone_and_under_a_run(self, monkeypatch, nan_share):
        # The replica's shape (a complete level, then one with NaN) and a
        # NaN level alone, with no value at all or with every value.
        n = 200
        rng = np.random.default_rng(21)
        first = _random_level(rng, "survival", n)
        keys = rng.integers(0, 5, size=n).astype(np.float64)
        keys[rng.random(n) < nan_share] = np.nan
        last = Level(keys, keys)
        monkeypatch.setattr(pairwise, "_tile_verdicts", None)
        for levels in ([first, last], [first, _random_level(rng, "complete", n), last]):
            want = _matrix_counts(oracles.level_matrix(levels), np.arange(n) % 3 == 0)
            got = sweep_counts(levels, np.arange(n) % 3 == 0, collect_ties=True)
            for field in (*COUNT_FIELDS, "ties"):
                np.testing.assert_array_equal(getattr(got, field), want[field], err_msg=field)

    def test_other_deeper_levels_stay_on_tiles(self, monkeypatch):
        # A survival level and a crossed level, which only the library
        # builds, are compared in blocks: at N=150, one of 127 rows and one
        # of 23.
        n = 150
        rng = np.random.default_rng(3)
        first = _random_level(rng, "survival", n)
        monkeypatch.setattr(pairwise, "_sorted_counts", None)  # the sort would raise
        for kinds in (["survival"], ["crossed"], ["complete", "survival"], ["missing", "crossed"]):
            levels = [first, *(_random_level(rng, kind, n) for kind in kinds)]
            assert not pairwise._value_levels(levels[1:])
            assert_sweep_matches_oracle(levels, rng.random(n) < 0.5)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(0, 2**20), max_size=80),
        st.lists(st.tuples(*[st.integers(0, 80)] * 2, st.integers(0, 2**20)), max_size=40),
    )
    def test_range_counts_match_brute_force(self, values, queries):
        """Values and keys of up to 21 bits, seven digit passes; empty
        ranges and values."""
        values = np.array(values, dtype=np.int32)
        queries = [(min(a, b, values.size), min(max(a, b), values.size), k) for a, b, k in queries]
        starts, stops, keys = np.array(queries, dtype=np.int32).reshape(-1, 3).T
        less, equal = pairwise._range_counts(values, starts, stops, keys)
        for k, (a, b, key) in enumerate(queries):
            assert less[k] == np.count_nonzero(values[a:b] < key)
            assert equal[k] == np.count_nonzero(values[a:b] == key)


class TestSweepInput:
    """A sweep refuses input it cannot count before it sorts anything."""

    def test_no_levels(self, monkeypatch):
        monkeypatch.setattr(pairwise, "_level_order", None)
        with pytest.raises(ValueError, match="at least one level"):
            sweep_counts([], np.array([True, False]))

    @pytest.mark.parametrize("case", ["short mask", "long mask", "deeper level", "lo key"])
    def test_unequal_lengths(self, monkeypatch, case):
        keys = np.arange(4, dtype=float)
        levels = [survival_level(keys, keys > 1), Level(keys, keys)]
        treat = np.array([True, False, True, False])
        if case == "short mask":
            treat = treat[:3]
        elif case == "long mask":
            treat = np.r_[treat, True]
        elif case == "deeper level":
            levels[1] = Level(keys[:3], keys[:3])
        else:
            levels[0] = Level(keys, keys[:3])
        monkeypatch.setattr(pairwise, "_level_order", None)
        for fields in (pairwise.ALL, pairwise.NET, pairwise.BETWEEN):
            with pytest.raises(ValueError, match="one key per subject"):
                sweep_counts(levels, treat, fields=fields)


def level_order_by_definition(level: Level) -> tuple[np.ndarray, np.ndarray]:
    """``_level_order``'s counts by subject, pair by pair in blocks of
    rows: ``ends[x] = #{j: hi_j <= lo_x}``, a NaN hi counting as -inf and
    a NaN lo as +inf, and ``beats[x] = #{j: lo_j < hi_x}``, 0 for a NaN
    hi."""
    hi = np.where(np.isnan(level.hi), -np.inf, level.hi)
    lo = np.where(np.isnan(level.lo), np.inf, level.lo)
    ends, beats = [], []
    for r in range(0, hi.size, 1000):
        rows = slice(r, r + 1000)
        ends.append(np.count_nonzero(hi <= lo[rows, None], axis=1))
        beats.append(np.count_nonzero(level.lo < level.hi[rows, None], axis=1))
    return np.concatenate(ends), np.concatenate(beats)


def assert_level_order_by_definition(level: Level) -> None:
    """``order`` sorts hi ascending with NaN first and ``by_hi`` with NaN
    last, and at each position of ``order`` its subject's ``ends`` and
    ``beats`` are the counts of ``level_order_by_definition``, as intp."""
    hi, lo = level
    order, ends, beats, by_hi = pairwise._level_order(level)
    n = hi.size
    for perm in (order, by_hi):
        np.testing.assert_array_equal(np.sort(perm), np.arange(n))
    nan_hi = np.count_nonzero(np.isnan(hi))
    np.testing.assert_array_equal(hi[order][:nan_hi], np.full(nan_hi, np.nan))
    np.testing.assert_array_equal(hi[order][nan_hi:], np.sort(hi)[: n - nan_hi])
    np.testing.assert_array_equal(hi[by_hi], np.sort(hi))
    want_ends, want_beats = level_order_by_definition(level)
    for got, want in ((ends, want_ends), (beats, want_beats)):
        assert got.dtype == np.intp
        np.testing.assert_array_equal(got, want[order])


@pytest.fixture(scope="module")
def cohort_10k():
    return simulate_trial(SimConfig.null(5000, seed=0))


class TestLevelOrder:
    """The first level's sort gives every subject the counts that define
    it, however its keys tie, censor, cross or go missing."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 300), st.sampled_from(KINDS), st.integers(0, 2**32 - 1))
    def test_random_levels(self, n, kind, seed):
        # Value levels with and without NaN, survival levels, and two key
        # arrays with NaN and infinite keys whose lo lies above or below hi.
        assert_level_order_by_definition(_random_level(np.random.default_rng(seed), kind, n))

    def test_the_simulated_cohort(self, cohort_10k):
        # A survival level with 10,000 distinct times, a continuous level
        # and a binary level.
        for level in pairwise._hierarchy_levels(cohort_10k):
            assert_level_order_by_definition(level)


@pytest.fixture(scope="module")
def cohort_6k():
    return simulate_trial(SimConfig.null(3000, seed=0))


@pytest.mark.parametrize("method", ["rank_sum", "fs", "win_ratio", "global_u"])
def test_asymptotic_memory_stays_below_n_squared(cohort_6k, method):
    """Asymptotic inference sweeps row tiles: its peak traced allocation
    stays below one byte per subject pair."""
    tracemalloc.start()
    try:
        run_method(method, cohort_6k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < cohort_6k.n ** 2


@pytest.mark.parametrize("kernel", ["global_u", "gehan_scores"])
def test_one_level_counts_take_linear_memory(cohort_6k, kernel):
    """global U and the Gehan scores count each level by sorting, with no
    tile: their peak traced allocation stays below 512 bytes per subject.
    (A row-tile sweep holds about 1 MB of tile buffers at any N, so at this
    N the bound alone does not tell the paths apart; ``TestSortedCounts``
    runs the sorted path with ``_tiles`` removed.)"""
    name = next(s.name for s in cohort_6k.endpoint_specs if s.kind is EndpointKind.TIME_TO_EVENT)
    tracemalloc.start()
    try:
        if kernel == "global_u":
            run_method("global_u", cohort_6k)
        else:
            gehan_scores(cohort_6k.times(name), cohort_6k.events_observed(name))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 512 * cohort_6k.n


def test_hierarchy_sweep_reuses_its_tile_buffers(cohort_6k):
    """The blocked sweep, which a deeper survival level sends the cohort
    to, allocates its cache-sized block buffers once and writes every step
    into them, and the sort lists the cohort's tie pairs in linear memory:
    the peak traced allocation of each, tie list included, stays under
    4 MB (fresh temporaries for every tile peaked near 12.6 MB)."""
    levels = pairwise._hierarchy_levels(cohort_6k)
    blocked = [*levels, levels[0]]
    assert not pairwise._value_levels(blocked[1:]) and pairwise._value_levels(levels[1:])
    for hierarchy in (blocked, levels):
        tracemalloc.start()
        try:
            counts = sweep_counts(hierarchy, cohort_6k.treatment_mask, collect_ties=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counts.ties is not None
        assert peak < 4 * 2**20


PATHS = ("_blocked_counts", "_sorted_counts")


def record_paths(monkeypatch) -> list[str]:
    """The deeper-level paths that later sweeps take, in order."""
    taken: list[str] = []
    for name in PATHS:
        path = getattr(pairwise, name)
        monkeypatch.setattr(
            pairwise, name, lambda *a, _name=name, _path=path: taken.append(_name) or _path(*a)
        )
    return taken


def _blank_replica(csv_path, directory, columns) -> TrialDataset:
    """The replica, derived, with about 10% of each of ``columns`` blank."""
    rng = np.random.default_rng(29)
    with open(csv_path, newline="", encoding="utf-8-sig") as fh:
        rows = list(csv.DictReader(fh))
    for column in columns:
        for row in rows:
            if rng.random() < 0.1:
                row[column] = ""
    path = directory / "actg175.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return derive_endpoints(load_trial_csv(path))


@pytest.fixture(scope="module")
def blanked_replica(actg_csv_path, tmp_path_factory):
    """The replica with about 10% of its week-20 CD4 counts blank: the CD4
    change is missing there, NaN in a deeper level other than the last."""
    return _blank_replica(actg_csv_path, tmp_path_factory.mktemp("blanked"), ["cd420"])


@pytest.mark.parametrize(
    "cohort", ["simulated", "replica", "blank cd40", "blank cd420", "blank cd496", "blank all"]
)
def test_each_cohort_size_takes_one_path(monkeypatch, request, tmp_path, cohort):
    """Above one tile, fs and the win ratio, asymptotic and permutation,
    count the simulator's and the CLI's hierarchies by sorting, the tie
    list too, and build no tile, with a baseline, week-20 or week-96 CD4
    count blank or not; a cohort of one tile (N <= 127) is swept whole as
    one block."""
    if cohort.startswith("blank"):
        columns = ["cd40", "cd420", "cd496"] if cohort == "blank all" else [cohort.split()[1]]
        ds = _blank_replica(request.getfixturevalue("actg_csv_path"), tmp_path, columns)
    else:
        ds = request.getfixturevalue("cohort_6k" if cohort == "simulated" else "actg_derived")
    assert ds.n > pairwise._MAX_TILE_ROWS
    taken = record_paths(monkeypatch)
    tiles = record_tiles(monkeypatch)
    plan = PermutationPlan.monte_carlo(9, seed=1)
    run_method("fs", ds)
    run_method("win_ratio", ds)
    run_method("win_ratio", ds, plan)
    assert taken == ["_sorted_counts"] * 3 and tiles == []

    treat = ds.treatment_mask
    small = ds.subset(np.r_[np.flatnonzero(treat)[:20], np.flatnonzero(~treat)[:20]])
    del taken[:]
    for plan in (None, plan):
        run_method("fs", small, plan)
        run_method("win_ratio", small, plan)
    assert taken == ["_blocked_counts"] * 4
    assert tiles == [(40, 40)] * 4


def test_a_blank_week20_cd4_takes_the_sort(monkeypatch, blanked_replica):
    """fs and the win ratio, asymptotic and permutation, on a CLI hierarchy
    whose middle level holds NaN are counted by sorting, with no tile:
    every count, the tie list, each statistic and each permutation p match
    the whole verdict matrix."""
    ds = blanked_replica
    levels = pairwise._hierarchy_levels(ds)
    assert ds.n > pairwise._MAX_TILE_ROWS and np.isnan(levels[1].hi).mean() > 0.05
    s = verdict_matrix(ds)
    treat = ds.treatment_mask
    want = _matrix_counts(s, treat)
    u = want["net"]

    def fs_stat(d):
        return float(u[d.treatment_mask].sum())

    def wr_stat(d):
        t = d.treatment_mask
        cross = s[t][:, ~t]
        w, l = np.float64((cross == 1).sum()), np.float64((cross == -1).sum())
        return float(np.log(w) - np.log(l))

    taken = record_paths(monkeypatch)
    tiles = record_tiles(monkeypatch)
    plan = PermutationPlan.monte_carlo(19, seed=5)
    counts = pair_counts(ds, collect_ties=True)
    results = {
        (method, p is None): run_method(method, ds, p)
        for method in ("fs", "win_ratio")
        for p in (None, plan)
    }
    assert taken == ["_sorted_counts"] * 5 and tiles == []
    for field in (*COUNT_FIELDS, "ties"):
        np.testing.assert_array_equal(getattr(counts, field), want[field], err_msg=field)
    assert want["ties"].shape[1] > 0
    for method, stat in (("fs", fs_stat), ("win_ratio", wr_stat)):
        assert results[method, True].statistic == stat(ds)
        p, fields = oracles.permutation_pvalue(stat, ds, plan)
        fast = results[method, False]
        assert fast.statistic == stat(ds)
        assert result_bits((fast.p_two_sided, [fast.metadata[k] for k in fields])) == result_bits(
            (p, list(fields.values()))
        )
    cross = s[treat][:, ~treat]
    tallies = results["win_ratio", True].metadata
    assert (tallies["n_wins"], tallies["n_losses"]) == ((cross == 1).sum(), (cross == -1).sum())


def test_permutation_win_ratio_memory_stays_below_n_squared(cohort_10k):
    """With few tie pairs the permutation win ratio holds no N x N array:
    at N=10,000 its peak traced allocation stays under 64 MB, where the
    int8 verdict matrix alone would take 100 MB."""
    ds = cohort_10k
    tracemalloc.start()
    try:
        result = run_method("win_ratio", ds, PermutationPlan.monte_carlo(64, seed=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.metadata["replicates_used"] == 64
    assert peak < 64 * 2**20
