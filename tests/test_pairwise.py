from __future__ import annotations

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
    global_u_test,
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


@pytest.mark.parametrize("height", ["1", "2", "n-1", "n", "n+1"])
@pytest.mark.parametrize("seed", range(4))
class TestRowTiles:
    """The sweep must not depend on where the tiles break."""

    @pytest.fixture
    def ds(self, monkeypatch, seed, height):
        ds = _interleaved_dataset(900 + seed, 9 + seed)
        n = ds.n
        rows = {"1": 1, "2": 2, "n-1": n - 1, "n": n, "n+1": n + 1}[height]
        monkeypatch.setattr(pairwise, "_TILE_ENTRIES", rows * n)
        with monkeypatch.context() as m:
            tiles = record_tiles(m)
            pair_counts(ds)
        # A budget of the whole matrix makes it one tile; a smaller one
        # makes tiles of at most ``rows`` rows' worth of entries.
        if rows >= n:
            assert tiles == [(n, n)]
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
        # The rows are swept treatment-first, yet the list is in ascending
        # i, then ascending j.
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


def _mergeable(level: Level) -> bool:
    return level.hi is level.lo and not np.isnan(level.hi).any()


def assert_compact_is_exact(levels) -> None:
    """The compacted keys give the verdict matrix of ``levels`` itself,
    from float32 keys, with each run of NaN-free value levels merged."""
    keys = pairwise._compact(levels)
    runs = sum(
        1 for k, lv in enumerate(levels) if not (k and _mergeable(lv) and _mergeable(levels[k - 1]))
    )
    assert len(keys) == runs
    assert all(k.hi.dtype == k.lo.dtype == np.float32 for k in keys)
    np.testing.assert_array_equal(oracles.level_matrix(keys), oracles.level_matrix(levels))


KINDS = ("survival", "complete", "missing", "crossed")
# A first level needs hi <= lo on every subject: any kind but "crossed".
FIRST_KINDS = KINDS[:3]


class TestCompactKeys:
    """Rank keys and merged levels must not change a single verdict, and
    the int8 column sums must count every pair, on either key path."""

    @settings(max_examples=300)
    @given(
        st.integers(1, 40),
        st.lists(st.sampled_from(KINDS), min_size=1, max_size=6),
        st.integers(0, 2**32 - 1),
    )
    def test_random_levels_keep_every_verdict(self, n, kinds, seed):
        rng = np.random.default_rng(seed)
        assert_compact_is_exact([_random_level(rng, kind, n) for kind in kinds])

    def test_a_missing_value_level_breaks_a_run(self):
        rng = np.random.default_rng(5)
        kinds = ["complete", "complete", "missing", "complete", "complete", "complete"]
        levels = [_random_level(rng, kind, 30) for kind in kinds]
        levels[2].hi[0] = np.nan
        assert len(pairwise._compact(levels)) == 3
        assert_compact_is_exact(levels)

    def test_a_level_with_hi_above_lo(self):
        level = Level(np.array([5.0, 5.0, 3.0, 1.0, np.nan]), np.array([0.0, 0.0, 3.0, 1.0, 2.0]))
        assert_compact_is_exact([level])
        assert_compact_is_exact([level, _values(1, 2, 2, 1, 1), _values(0, 0, 1, 1, 0)])

    @pytest.mark.parametrize("tiles", ["one", "many"])
    @pytest.mark.parametrize("seed", range(6))
    def test_sweep_counts_on_either_key_path(self, monkeypatch, tiles, seed):
        """A matrix of one tile is swept from its own keys and any other
        from compacted deeper keys; both give the whole matrix's counts
        and tie list. A crossed level (hi > lo) may come at any depth but
        the first."""
        rng = np.random.default_rng(400 + seed)
        n = int(rng.integers(2, 30))
        kinds = [rng.choice(FIRST_KINDS), *rng.choice(KINDS, size=3)]
        levels = [_random_level(rng, kind, n) for kind in kinds]
        treat = rng.random(n) < 0.5
        want = _matrix_counts(oracles.level_matrix(levels), treat)
        monkeypatch.setattr(pairwise, "_TILE_ENTRIES", (n if tiles == "one" else 3) * n)
        compacted = []
        compact = pairwise._compact
        monkeypatch.setattr(pairwise, "_compact", lambda lv: compacted.append(1) or compact(lv))
        got = sweep_counts(levels, treat, collect_ties=True)
        assert bool(compacted) == (tiles == "many" and n > 3)
        for field in (*COUNT_FIELDS, "ties"):
            np.testing.assert_array_equal(getattr(got, field), want[field], err_msg=field)

    def test_a_column_beaten_by_every_row_of_the_tallest_tile(self, monkeypatch):
        """127 rows, the most whose int8 column sum cannot overflow, all
        beat one column and all lose to another."""
        n = 300
        assert pairwise._MAX_TILE_ROWS == np.iinfo(np.int8).max == 127
        treat = np.arange(n) < 150
        values = np.zeros(n)
        values[150], values[151] = -1.0, 1.0
        # The first level ties every pair (all censored) and orders the
        # subjects by index.
        levels = [survival_level(np.arange(n, dtype=float), np.zeros(n, bool)), Level(values, values)]
        tiles = record_tiles(monkeypatch)
        got = sweep_counts(levels, treat)
        # The first tile is the first 127 treatment rows, and every one of
        # them has subjects 150 and 151 in its run.
        assert tiles[0][0] == 127
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
    tie list, the tiles give the whole matrix's tie pairs."""
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
        # refused as the first, and counted by tiles behind a first level
        # that ties every pair, in one tile or in tiles of one entry.
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
    """The first level is counted by sorting and the deeper levels only on
    the runs of pairs it ties, each pair once, in tiles of any size."""

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
        # Every sweep, the net-only and between-group ones too. A treatment
        # share of 0 or 1 makes every tile's rows and columns one group,
        # and leaves the between-group sweep no pair to compare.
        rng = np.random.default_rng(seed)
        levels = [_random_level(rng, kind, n) for kind in (first, *deeper)]
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(pairwise, "_TILE_ENTRIES", budget)
            assert_sweep_matches_oracle(levels, rng.random(n) < share)

    @pytest.mark.parametrize("first", FIRST_KINDS)
    @pytest.mark.parametrize("seed", range(3))
    def test_runs_hold_each_first_level_tie_once(self, first, seed):
        """The tiles' spans, read back through the column order, are the
        pairs the first level ties, each once, and no other; for the
        between-group sweep, those of a treatment and a control subject.
        A tile's rows are of the group it names, or of both for the
        net-only sweep."""
        rng = np.random.default_rng(600 + seed)
        n = 50
        level = _random_level(rng, first, n)
        treat = rng.random(n) < 0.5
        order, ends, _, _ = pairwise._level_order(level)
        ts = treat[order]
        pos = np.arange(n)
        cols = order[np.concatenate([pos[ts], pos[~ts][::-1]])]
        rows = pos[ends > pos + 1]
        i, j = _matrix_counts(oracles.level_matrix([level]), treat)["ties"]
        for fields, _ in SWEEP_FIELDS:
            blocks = list(pairwise._tie_blocks(rows, ts, np.r_[0, ts.cumsum()], ends, fields))
            pairs = [
                tuple(sorted((order[p], cols[c])))
                for block, _, a, b in blocks
                for p, lo, hi in zip(block, a, b)
                for c in range(lo, hi)
            ]
            assert len(pairs) == len(set(pairs))
            keep = treat[i] != treat[j] if fields == pairwise.BETWEEN else slice(None)
            assert sorted(pairs) == list(zip(i[keep].tolist(), j[keep].tolist())), fields
            for block, group, _, _ in blocks:
                if fields == pairwise.NET:
                    assert group is None
                else:
                    assert (ts[block] == (group == 0)).all()

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
        # no run holds a pair and no tile is built; then one tie.
        times = np.arange(12, dtype=float)
        treat = np.arange(12) % 3 == 0
        deeper = _values(*range(12))
        tiles = record_tiles(monkeypatch)
        monkeypatch.setattr(pairwise, "_TILE_ENTRIES", 20)
        assert_sweep_matches_oracle([survival_level(times, np.ones(12, bool)), deeper], treat)
        assert tiles == []
        times[5] = times[4]
        assert_sweep_matches_oracle([survival_level(times, np.ones(12, bool)), deeper], treat)
        assert tiles

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

    @pytest.mark.parametrize("cap", [4, 5])
    def test_row_spans_at_the_row_sum_width_cap(self, monkeypatch, cap):
        """A row sum adds at most ``_MAX_TILE_COLS`` entries (what int16
        holds); wider spans are cut into tiles of that width, and a span
        of exactly that width is one."""
        monkeypatch.setattr(pairwise, "_MAX_TILE_COLS", cap)
        monkeypatch.setattr(pairwise, "_TILE_ENTRIES", 4 * cap)
        n = 12
        treat = np.arange(n) < 6
        levels = [_values(*[None] * n), _values(*(np.arange(n) % 3)), _values(*(np.arange(n) % 2))]
        tiles = record_tiles(monkeypatch)
        assert_sweep_matches_oracle(levels, treat)
        widths = [w for _, w in tiles]
        assert max(widths) == cap and widths.count(cap) > 1

    def test_a_crossed_first_level_is_refused(self):
        level = Level(np.array([1.0, 2.0, 3.0]), np.array([1.0, 1.5, 3.0]))
        with pytest.raises(ValueError, match="hi <= lo"):
            sweep_counts([level, _values(1, 2, 3)], np.array([1, 0, 1], dtype=bool))
        assert_sweep_matches_oracle([_values(1, 1, 1), level], np.array([1, 0, 1], dtype=bool))


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
    """A hierarchical sweep allocates its cache-sized tile buffers once and
    writes every step into them: its peak traced allocation stays under
    4 MB (fresh temporaries for every tile peaked near 12.6 MB)."""
    tracemalloc.start()
    try:
        pair_counts(cohort_6k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_permutation_win_ratio_memory_stays_below_n_squared():
    """With few tie pairs the permutation win ratio holds no N x N array:
    at N=10,000 its peak traced allocation stays under 64 MB, where the
    int8 verdict matrix alone would take 100 MB."""
    ds = simulate_trial(SimConfig.null(5000, seed=0))
    tracemalloc.start()
    try:
        result = run_method("win_ratio", ds, PermutationPlan.monte_carlo(64, seed=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.metadata["replicates_used"] == 64
    assert peak < 64 * 2**20
