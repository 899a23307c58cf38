"""Hierarchical pairwise comparison of subjects.

The hierarchy is the dataset's endpoints in priority order
(``TrialDataset.endpoint_specs``). Each level is written as two per-subject
keys (``Level``). ``sweep_counts`` reduces the N x N verdict matrix S to
per-subject counts (net score, determinate pairs, wins and losses against
the other group) and, on request, the list of pairs tied at every level, so
no test holds S itself. It counts one of two ways:

- one level (global U's kernels, and through ``net_counts`` the rank
  tests' scores and midranks) by sorting: a subject's wins and losses
  against a group are ``searchsorted`` counts in that group's sorted keys,
  in O(N log N) time and O(N) memory;
- a hierarchy (fs, the win ratio) or a tie list by row tiles of S of about
  256K entries, built in one place, ``_tiles``, which applies the level
  rule and the hierarchy; a lexicographic hierarchy with censoring is not
  one sort order. A sweep allocates its few tile-sized buffers once, sized
  to stay in a core's L2 cache, and writes every step into them. Three
  exact steps make it cheap. Each level's keys become their float32 ranks
  among the level's keys, which compare faster than float64 ones
  (``_rank_keys``). A run of NaN-free value levels, which compares as a
  lexicographic order, becomes one level of that order's ranks
  (``_compact``): the simulator's marker and response are one level. A
  matrix of one tile keeps its own keys, as compacting them costs more
  than one tile saves (``_sweep_keys``). And as S is antisymmetric, the
  int8 column sums of one group's rows give every subject's counts
  against that group, which numpy sums several times faster than rows;
  127 rows, the most whose sum fits int8, is the tallest tile.

No N x N array is held in ``src``: the win ratio's permutation null reads
the tie list. The scalar reference rule, one pair at a time, is ``compare``
in ``tests/oracles.py``, and ``tests/oracles.py`` also stacks the tiles
into S for the property tests.

Survival-level determinacy is Gehan-style: subject a beats subject b only
when b's event was observed and a's follow-up time strictly exceeds b's
event time. Equal observed event times, or two censored subjects, are
indeterminate and the walk proceeds to the next level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .trial_data import Direction, EndpointKind, EndpointSpec, TrialDataset


class Level(NamedTuple):
    """One comparison level as two per-subject keys: subject i beats subject
    j at this level exactly when ``hi[i] > lo[j]``, so the level's verdict is
    ``[hi_i > lo_j] - [hi_j > lo_i]``. A NaN key compares false and leaves
    the pair tied.

    Both constructors, ``survival_level`` and ``endpoint_level``, give
    ``hi <= lo`` on every subject, so no pair is won both ways and a
    subject never beats itself; ``sweep_counts`` counts such a level by
    sorting, and any other level by row tiles."""

    hi: np.ndarray
    lo: np.ndarray


def survival_level(times: np.ndarray, events: np.ndarray) -> Level:
    """Gehan level: a subject can only be beaten at its observed event time,
    so a censored subject's ``lo`` key is +inf."""
    t = np.asarray(times, dtype=np.float64)
    return Level(t, np.where(np.asarray(events, dtype=bool), t, np.inf))


def endpoint_level(ds: TrialDataset, spec: EndpointSpec) -> Level:
    """The level of one endpoint: survival rule for time-to-event, value
    comparison (sign by direction, NaN where absent) otherwise."""
    if spec.kind is EndpointKind.TIME_TO_EVENT:
        return survival_level(ds.times(spec.name), ds.events_observed(spec.name))
    v = ds.values(spec.name)
    if spec.direction is Direction.LOWER_IS_BETTER:
        v = -v
    v = np.where(ds.present(spec.name), v, np.nan)
    return Level(v, v)


# Entries per row tile. A sweep holds four tile-sized buffers (the int8
# tile, an int8 level and two bool comparisons), so 2^18 entries keep them
# near 1 MB, inside a core's L2 cache, at any cohort size.
_TILE_ENTRIES = 1 << 18
# Rows per tile at most: a column sum of this many entries in {-1, 0, 1}
# is the largest that fits int8, the type ``sweep_counts`` sums in.
_MAX_TILE_ROWS = np.iinfo(np.int8).max


def _tile_height(n: int) -> int:
    return max(1, min(n, _TILE_ENTRIES // max(n, 1), _MAX_TILE_ROWS))


def _rank_keys(level: Level) -> Level:
    """``level`` with each key replaced by its float32 rank among the
    level's ``hi`` and ``lo``, so that ``hi_i > lo_j`` keeps its truth
    value for every pair; float32 compares about 1.6x faster than float64.
    A NaN ``hi`` ranks -1, and a NaN ``lo`` past every key, where
    ``np.unique`` sorts NaN; so neither beats nor is beaten. Ranks stay
    below 2N, exact in float32 below 2^24."""
    hi, lo = level
    n = hi.size
    _, rank = np.unique(hi if hi is lo else np.concatenate([hi, lo]), return_inverse=True)
    return Level(
        np.where(np.isnan(hi), -1, rank[:n]).astype(np.float32),
        rank[-n:].astype(np.float32),
    )


def _compact(levels: Sequence[Level]) -> list[Level]:
    """Keys for a row-tile sweep that give the same verdict matrix as
    ``levels`` from fewer levels, each keyed by float32 ranks as in
    ``_rank_keys``. A run of consecutive levels that each have one key
    array and no NaN compares as a lexicographic order, so it becomes one
    level keyed by that order's rank."""
    out: list[Level] = []
    run = None  # the lexicographic ranks of the run the last level ends
    for lv in levels:
        if lv.hi is lv.lo and not np.isnan(lv.hi).any():
            _, rank = np.unique(lv.hi, return_inverse=True)
            if run is not None:
                _, rank = np.unique(run * (rank.max() + 1) + rank, return_inverse=True)
                out.pop()
            run = rank
            keys = rank.astype(np.float32)
            out.append(Level(keys, keys))
        else:
            run = None
            out.append(_rank_keys(lv))
    return out


def _sweep_keys(levels: Sequence[Level]) -> Sequence[Level]:
    """The keys a sweep builds its tiles from: ``_compact(levels)``, or
    ``levels`` themselves when the whole matrix is one tile, which is built
    once, so that compacting costs more than it saves (at N=40 it nearly
    doubled the sweep)."""
    n = len(levels[0].hi)
    return levels if _tile_height(n) >= n else _compact(levels)


def _tiles(
    levels: Sequence[Level], order: np.ndarray | None = None
) -> Iterator[tuple[slice, np.ndarray]]:
    """Row tiles of the int8 verdict matrix, top to bottom: with rows taken
    in ``order`` (index order when None) and all columns in index order,
    positions ``rows`` of that order. The first level that is not tied
    decides each pair. A tile has at most ``_MAX_TILE_ROWS`` rows.

    The buffers are allocated once per call and every step writes into
    them, so a yielded tile is a view that the next step overwrites: a
    consumer reduces or copies it before advancing, and may overwrite it."""
    n = len(levels[0].hi)
    row_keys = [lv if order is None else Level(lv.hi[order], lv.lo[order]) for lv in levels]
    step = _tile_height(n)
    tile_buf, level_buf = np.empty((2, step, n), dtype=np.int8)
    beats_buf, beaten_buf = np.empty((2, step, n), dtype=bool)
    for start in range(0, n, step):
        rows = slice(start, min(start + step, n))
        height = rows.stop - start
        tile, beats, beaten = tile_buf[:height], beats_buf[:height], beaten_buf[:height]
        for depth, (lv, row) in enumerate(zip(levels, row_keys)):
            level = tile if depth == 0 else level_buf[:height]
            np.greater(row.hi[rows, None], lv.lo, out=beats)
            np.less(row.lo[rows, None], lv.hi, out=beaten)
            np.subtract(beats.view(np.int8), beaten.view(np.int8), out=level)
            if depth:
                # branch-free; a masked copy is ~15x slower
                undecided = np.equal(tile, 0, out=beats)
                level *= undecided.view(np.int8)
                tile += level
        yield rows, tile


@dataclass(frozen=True)
class PairCounts:
    """Per-subject tallies of the verdict matrix S, from ``sweep_counts``.

    ``ties`` lists its pairs in ascending ``i``, and each ``i``'s pairs in
    ascending ``j``, whatever order the sweep visits the rows in."""

    net: np.ndarray  # row sum of S: wins minus losses against everyone
    determinate: np.ndarray  # row sum of |S|: pairs decided at some level
    wins: np.ndarray  # subjects of the other group this subject beats
    losses: np.ndarray  # subjects of the other group that beat this subject
    # (2, P) int32 pairs (i, j), i < j, tied at every level, sorted by i
    # then j; None unless asked for.
    ties: np.ndarray | None = None


def _group_counts(
    level: Level, groups: Sequence[np.ndarray | None]
) -> tuple[np.ndarray, np.ndarray]:
    """How many members of each group (every subject for None) each subject
    beats, and how many beat it, as (groups, N) arrays, from each group's
    sorted keys in O(N log N) time and O(N) memory: subject i beats
    ``searchsorted(lo, hi[i])`` members and is beaten by those whose ``hi``
    exceeds ``lo[i]``. Needs ``hi <= lo`` on every subject, so that no pair
    is won both ways and the self pair counts nothing."""
    hi, lo = level
    # searchsorted is about 4x faster on ascending keys, so each key array
    # is searched in its sorted order and the counts are put back; a level
    # whose two keys are one array is sorted once. A group's keys are
    # picked out of the sorted keys in order, so they need no sort of
    # their own.
    by_hi = np.argsort(hi)
    hi_up = hi[by_hi]
    by_lo = by_hi if hi is lo else np.argsort(lo)
    lo_up = hi_up if hi is lo else lo[by_lo]
    # NaN sorts past every key, so no hi beats a NaN lo and no hi is found
    # above a NaN lo[i]; a NaN hi beats nothing, so it is masked and kept
    # out of every group's hi keys, which are the first ``m`` sorted ones.
    m = hi.size - np.count_nonzero(np.isnan(hi_up))
    beats = np.empty((len(groups), hi.size), dtype=np.int64)
    beaten = np.empty_like(beats)
    for k, members in enumerate(groups):
        if members is None:
            g_lo, g_hi = lo_up, hi_up[:m]
        else:
            g_lo, g_hi = lo_up[members[by_lo]], hi_up[:m][members[by_hi[:m]]]
        # The method and a row view each cost about half as much as
        # np.searchsorted and a 2-D scatter, which matters at N=40.
        beats[k][by_hi] = g_lo.searchsorted(hi_up, "left")
        beaten[k][by_lo] = g_hi.size - g_hi.searchsorted(lo_up, "right")
    if m < hi.size:
        beats[:, by_hi[m:]] = 0
    return beats, beaten


def net_counts(level: Level) -> np.ndarray:
    """Each subject's net count on one level, wins minus losses against
    every subject: the ``net`` of ``sweep_counts([level], ...)``, counted
    in one group."""
    beats, beaten = _group_counts(level, [None])
    return beats[0] - beaten[0]


def _sorted_counts(level: Level, treat: np.ndarray) -> PairCounts:
    """One level's counts against each group, by ``_group_counts``: against
    the control group they are those against everyone less those against
    the treatment group."""
    (beats, beats_t), (beaten, beaten_t) = _group_counts(level, [None, treat])
    return PairCounts(
        net=beats - beaten,
        determinate=beats + beaten,
        wins=np.where(treat, beats - beats_t, beats_t),
        losses=np.where(treat, beaten - beaten_t, beaten_t),
    )


def sweep_counts(
    levels: Sequence[Level], treatment_mask: np.ndarray, collect_ties: bool = False
) -> PairCounts:
    """Per-subject counts of the verdict matrix S, counted one of two ways.

    One level without tie pairs is counted by sorting (``_sorted_counts``),
    in O(N log N) time and O(N) memory. A hierarchy, a tie list, or a level
    with ``hi > lo`` on some subject is counted from row tiles of the
    ``_sweep_keys``: each tile is reduced as soon as it is built, so memory
    is O(tile * N) rather than N x N. Rows are swept treatment-first and
    columns in index order. S is antisymmetric, so the int8 column sums of
    a tile's treatment rows (then of its control rows) give each subject's
    net and determinate counts against that group, with the net's sign
    flipped; numpy sums a tile's columns several times faster than its
    rows.

    With ``collect_ties`` the same tiles also give the tie pairs. A tile's
    off-diagonal zeros are counted first, so a tile without ties costs one
    count."""
    treat = np.asarray(treatment_mask, dtype=bool)
    if len(levels) == 1 and not collect_ties and not np.any(levels[0].hi > levels[0].lo):
        return _sorted_counts(levels[0], treat)
    n = treat.size
    n1 = int(treat.sum())
    order = np.argsort(~treat, kind="stable")
    # Each subject's counts against the treatment group and against the
    # control group. S is antisymmetric, so a column sum over one group's
    # rows is minus each subject's row sum against that group. A sum of at
    # most N entries in {-1, 0, 1} fits int32, which adds up faster.
    net = np.zeros((2, n), dtype=np.int32)
    det = np.zeros((2, n), dtype=np.int32)
    tie_parts: list[np.ndarray] = []
    for rows, tile in _tiles(_sweep_keys(levels), order):
        cut = min(max(n1 - rows.start, 0), tile.shape[0])  # treatment rows come first
        parts = [(k, part) for k, part in enumerate((tile[:cut], tile[cut:])) if part.size]
        for k, part in parts:
            net[k] -= part.sum(axis=0, dtype=np.int8)
        np.abs(tile, out=tile)
        for k, part in parts:
            det[k] += part.sum(axis=0, dtype=np.int8)
        # Each row's self pair is a zero; any other zero is a tie.
        if collect_ties and np.count_nonzero(tile) < tile.size - tile.shape[0]:
            # The tile holds |S| now: mark its zeros in place. flatnonzero:
            # 2-D nonzero is ~10x slower on a sparse tile.
            tied = np.equal(tile, 0, out=tile.view(bool))
            r, j = np.divmod(np.flatnonzero(tied), n)
            i = order[r + rows.start]
            upper = i < j
            tie_parts.append(np.stack([i[upper], j[upper]]).astype(np.int32))
    ties = None
    if collect_ties:
        ties = np.concatenate([np.zeros((2, 0), dtype=np.int32), *tie_parts], axis=1)
        # Each row's pairs come in ascending j, and each row is one tile's.
        ties = ties[:, np.argsort(ties[0], kind="stable")]
    net, det = net.astype(np.int64), det.astype(np.int64)
    net_other = np.where(treat, net[1], net[0])
    det_other = np.where(treat, det[1], det[0])
    return PairCounts(
        net=net.sum(axis=0),
        determinate=det.sum(axis=0),
        wins=(det_other + net_other) // 2,
        losses=(det_other - net_other) // 2,
        ties=ties,
    )


def _hierarchy_levels(ds: TrialDataset) -> list[Level]:
    return [endpoint_level(ds, spec) for spec in ds.endpoint_specs]


def pair_counts(ds: TrialDataset, collect_ties: bool = False) -> PairCounts:
    """Per-subject counts of the verdicts of the dataset's hierarchy, its
    endpoints in priority order, without the N x N matrix."""
    return sweep_counts(_hierarchy_levels(ds), ds.treatment_mask, collect_ties)

