"""Hierarchical pairwise comparison of subjects.

The hierarchy is the dataset's endpoints in priority order
(``TrialDataset.endpoint_specs``). Each level is written as two per-subject
keys (``Level``). ``sweep_counts`` reduces the N x N verdict matrix S to
per-subject counts (net score, determinate pairs, wins and losses against
the other group) and, on request, the list of pairs tied at every level, so
no test holds S itself. A caller names the counts it reads (``fields``),
and the sweep counts only those:

- ``ALL``: every count, and the tie list when asked for; the win ratio
  under a permutation plan.
- ``NET``: the net scores alone, each deeper-level tile reduced by one row
  sum and one column sum of S, its rows of either group; fs.
- ``BETWEEN``: the wins and losses against the other group alone, for
  which deeper levels are compared only on the tied pairs of a treatment
  and a control subject; the win ratio without a plan.

It takes one path:

- The first level is counted for every pair by sorting (``_level_order``):
  a subject's wins and losses against a group are counts of that group's
  keys below and above its own, in O(N log N) time and O(N) memory. A
  sweep of one level (global U's kernels, and through ``net_counts`` the
  rank tests' scores and midranks) is this alone.
- Deeper levels are compared only on the pairs the first level ties, each
  pair once (``_tie_counts``); fs and the win ratio walk a hierarchy,
  which with censoring is not one sort order. The first level has
  ``hi <= lo``, so in the order of its ``hi`` the subjects tied with a
  subject that come after it are one run, up to the first whose ``hi``
  exceeds its ``lo``. Columns take the treatment group in that order, then
  the control group in reverse, so a run to the end (a censored
  subject's, on a survival level) is one column span, and any other run
  at most two; a ``BETWEEN`` sweep cuts every run to the other group's
  columns, one span. Tiles of about 256K entries, allocated once so that
  they stay in a core's L2 cache, take the runs of up to 127 rows of one
  group (of either, for ``NET``); S is antisymmetric, so int16 row sums
  count each pair for its row subject and int8 column sums for its column
  subject, and 127 rows is the most whose column sum fits int8. Deeper
  keys become their float32 ranks, which compare faster than float64 ones
  (``_rank_keys``), and a run of NaN-free value levels, which compares as
  a lexicographic order, becomes one level of that order's ranks
  (``_compact``): the simulator's marker and response are one level. A
  matrix of one tile, like a null study's N=40 cohort, is swept whole from
  its own keys (``_one_tile_counts``), whatever the fields.

On the simulator's N=10,000 cohort the first level ties 18,466,058 of the
49,995,000 pairs, and only those reach the deeper levels: 9,234,430 of them
join a treatment and a control subject, and only those reach them in a
``BETWEEN`` sweep.

No N x N array is held in ``src``: the win ratio's permutation null reads
the tie list. The scalar reference rule, one pair at a time, is ``compare``
in ``tests/oracles.py``, and ``tests/oracles.py`` also builds S whole from
the level rule for the property tests.

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
    subject never beats itself. ``sweep_counts`` needs this of the first
    level, which it counts by sorting; deeper levels may take any keys."""

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


# Entries per tile. A sweep holds four tile-sized buffers (the int8 tile,
# an int8 level and two bool comparisons), so 2^18 entries keep them near
# 1 MB, inside a core's L2 cache, at any cohort size.
_TILE_ENTRIES = 1 << 18
# Rows per tile at most: a column sum of this many entries in {-1, 0, 1}
# is the largest that fits int8, the type ``sweep_counts`` sums columns in.
_MAX_TILE_ROWS = np.iinfo(np.int8).max
# Columns per tile at most: a row sum of this many entries fits int16, the
# type ``sweep_counts`` sums rows in.
_MAX_TILE_COLS = np.iinfo(np.int16).max


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
    """Keys that give the same verdicts as ``levels`` from fewer levels,
    each keyed by float32 ranks as in ``_rank_keys``. A run of consecutive
    levels that each have one key array and no NaN compares as a
    lexicographic order, so it becomes one level keyed by that order's
    rank."""
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


# What ``sweep_counts`` counts: every field; the net counts alone (fs);
# the wins and losses against the other group alone (the win ratio
# without a plan).
ALL = "all"
NET = "net"
BETWEEN = "between"


@dataclass(frozen=True)
class PairCounts:
    """Per-subject int64 tallies of the verdict matrix S, from
    ``sweep_counts``: the first level's, counted by sorting, plus the
    deeper levels' on the pairs the first level ties.

    A sweep fills the fields it was asked for and leaves the others None:
    ``ALL`` fills the four counts, and ``ties`` too with ``collect_ties``;
    ``NET`` fills ``net``; ``BETWEEN`` fills ``wins`` and ``losses``.

    ``ties`` holds those of the first level's ties that every deeper level
    ties too, in ascending ``i``, and each ``i``'s pairs in ascending
    ``j``, whatever order the sweep visits them in."""

    net: np.ndarray | None = None  # row sum of S: wins minus losses against everyone
    determinate: np.ndarray | None = None  # row sum of |S|: pairs decided at some level
    wins: np.ndarray | None = None  # subjects of the other group this subject beats
    losses: np.ndarray | None = None  # subjects of the other group that beat this subject
    # (2, P) int32 pairs (i, j), i < j, tied at every level, sorted by i
    # then j; None unless asked for.
    ties: np.ndarray | None = None


def _level_order(level: Level) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One level sorted, in O(N log N) time and O(N) memory. Needs
    ``hi <= lo`` on every subject, so that no pair is won both ways and the
    self pair counts nothing.

    Returns ``order``, the subjects in ascending ``hi`` with a NaN ``hi``
    first (it beats nothing, as -inf would), and at each position p of it:
    ``ends[p]``, the number of subjects whose ``hi`` is at most the ``lo``
    of ``order[p]``, which are ``order[:ends[p]]``, so the other
    ``N - ends[p]`` beat it; and ``beats[p]``, the number of subjects whose
    ``lo`` is below its ``hi``, which it beats: ``by_lo[:beats[p]]``, with
    ``by_lo`` the subjects in ascending ``lo``."""
    hi, lo = level
    n = hi.size
    # searchsorted is about 4x faster on ascending keys, so each key array
    # is searched in its sorted order; a level whose two keys are one array
    # is sorted once. NaN sorts past every key, so no hi is found above a
    # NaN lo, and no NaN lo below a hi.
    by_hi = hi.argsort()
    hi_up = hi[by_hi]
    by_lo = by_hi if hi is lo else lo.argsort()
    lo_up = hi_up if hi is lo else lo[by_lo]
    # The last key is NaN when any is.
    nan_hi = 0 if n == 0 or hi_up[-1] == hi_up[-1] else np.count_nonzero(np.isnan(hi_up))
    order = np.concatenate([by_hi[n - nan_hi :], by_hi[: n - nan_hi]]) if nan_hi else by_hi
    ends = hi_up[: n - nan_hi].searchsorted(lo[order], "right")
    if nan_hi:
        ends += nan_hi
        hi_up = hi[order]
    beats = lo_up.searchsorted(hi_up, "left")
    beats[:nan_hi] = 0
    return order, ends, beats, by_lo


def net_counts(level: Level) -> np.ndarray:
    """Each subject's net count on one level, wins minus losses against
    every subject: the ``net`` of ``sweep_counts([level], ...)``."""
    order, ends, beats, _ = _level_order(level)
    net = np.empty_like(beats)
    net[order] = beats + ends - ends.size
    return net


def sweep_counts(
    levels: Sequence[Level],
    treatment_mask: np.ndarray,
    collect_ties: bool = False,
    fields: str = ALL,
) -> PairCounts:
    """Per-subject counts of the verdict matrix S of ``levels``, and with
    ``collect_ties`` the pairs tied at every level.

    ``fields`` names what is counted, and the other fields stay None:
    ``ALL``, every count; ``NET``, the net counts alone; ``BETWEEN``, the
    wins and losses against the other group alone, for which deeper levels
    are compared only on the pairs of a treatment and a control subject.
    A tie list needs ``ALL``.

    The first level is counted for every pair by sorting
    (``_level_order``), in O(N log N) time and O(N) memory; it needs
    ``hi <= lo`` on every subject and raises ``ValueError`` otherwise.
    Deeper levels, which take any keys, are compared only on the pairs the
    first level ties, each pair once (``_tie_counts``), or in a matrix of
    one tile both ways round (``_one_tile_counts``). One level without a
    tie list is the sort alone."""
    if fields not in (ALL, NET, BETWEEN) or (collect_ties and fields != ALL):
        raise ValueError(f"cannot count {fields!r} fields with collect_ties={collect_ties}")
    treat = np.asarray(treatment_mask, dtype=bool)
    first = levels[0]
    if np.count_nonzero(first.hi > first.lo):
        raise ValueError("the first level needs hi <= lo on every subject")
    order, ends, beats, by_lo = _level_order(first)
    n = treat.size
    ts = treat[order]
    # Treatment subjects among the first k in ``order``, and in ``by_lo``.
    tc, tl = running = np.zeros((2, n + 1), dtype=np.int64)
    np.array([ts, treat[by_lo]]).cumsum(axis=1, out=running[:, 1:])
    deeper, ties = None, None
    if len(levels) > 1 or collect_ties:
        if n <= _MAX_TILE_ROWS and n * n <= _TILE_ENTRIES:
            deeper, ties = _one_tile_counts(first, levels[1:], treat, collect_ties)
            if fields == NET:
                deeper = deeper[:2].sum(axis=0) - deeper[2:].sum(axis=0)
        else:
            deeper, ties = _tie_counts(levels[1:], order, ends, ts, tc, collect_ties, fields)
    if fields == NET:
        net = np.empty(n, dtype=np.int64)
        net[order] = beats + ends - n
        if deeper is not None:
            net += deeper
        return PairCounts(net=net)
    # At each position of ``order``: its wins against the treatment group
    # and against the control group, then its losses against each.
    wins_t, wins_c, losses_t, losses_c = counts = np.empty((4, n), dtype=np.int64)
    tl.take(beats, out=wins_t)
    np.subtract(beats, wins_t, out=wins_c)
    np.subtract(tc[-1], tc[ends], out=losses_t)
    np.subtract(n - ends, losses_t, out=losses_c)
    by_subject = np.empty_like(counts)
    by_subject[:, order] = counts
    if deeper is not None:
        by_subject += deeper
    wins, losses = np.where(treat, by_subject[1::2], by_subject[::2])  # against the other group
    if fields == BETWEEN:
        return PairCounts(wins=wins, losses=losses)
    all_wins, all_losses = by_subject[::2] + by_subject[1::2]
    return PairCounts(all_wins - all_losses, all_wins + all_losses, wins, losses, ties)


def _tile_verdicts(
    row_keys: Sequence[Level], col_keys: Sequence[Level], tile: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """Write into ``tile`` the int8 verdicts of the levels, the first that
    is not tied deciding each pair, of the rows keyed ``row_keys`` against
    the columns keyed ``col_keys``; ``scratch`` holds three more
    tile-sized int8 buffers. No levels tie every pair. When the rows are
    the columns (``col_keys is row_keys``), a level's beaten matrix is the
    transpose of its beats matrix, which saves a compare."""
    level, beats, beaten = scratch
    beats_b, beaten_b = beats.view(bool), beaten.view(bool)
    same = col_keys is row_keys
    if not row_keys:
        tile[...] = 0
    for depth, (row, col) in enumerate(zip(row_keys, col_keys)):
        np.greater(row.hi[:, None], col.lo, out=beats_b)
        if not same:
            np.less(row.lo[:, None], col.hi, out=beaten_b)
        np.subtract(beats, beats.T if same else beaten, out=level if depth else tile)
        if depth:
            # branch-free; a masked copy is ~15x slower
            level *= np.equal(tile, 0, out=beats_b).view(np.int8)
            tile += level
    return tile


def _tie_counts(
    levels: Sequence[Level],
    order: np.ndarray,
    ends: np.ndarray,
    ts: np.ndarray,
    tc: np.ndarray,
    collect_ties: bool,
    fields: str,
) -> tuple[np.ndarray, np.ndarray | None]:
    """The verdicts of ``levels`` over the pairs that the first level ties,
    each pair once: every subject's wins against the treatment group and
    against the control group, then its losses against each, as (4, N)
    int32 counts, and with ``collect_ties`` the (2, P) int32 pairs tied at
    every level, sorted by i and then j (else None). With ``fields``
    ``BETWEEN`` only the pairs of a treatment and a control subject are
    compared, so the counts against a subject's own group stay 0; with
    ``NET`` the counts are each subject's net count alone, (N,) int32.

    ``order`` lists the subjects by the first level, so the subjects tied
    with ``order[p]`` that come after it are ``order[p + 1:ends[p]]``;
    ``ts`` marks the treatment positions and ``tc`` counts them. Each pair
    is an entry of the tile row of the one that comes first, in a column
    of the other; ``_tie_blocks`` gives each row's column span. Entries
    outside their row's span are zeroed, which only the columns outside
    the span that all a tile's rows share can hold."""
    n = ts.size
    n1 = int(tc[-1])
    pos = np.arange(n)
    cols = order[np.concatenate([pos[ts], pos[~ts][::-1]])]
    keys = _compact(levels)
    col_keys = [Level(lv.hi[cols], lv.lo[cols]) for lv in keys]
    # Net and decided counts against each group: row sums by subject,
    # column sums by column.
    row_net, row_det, col_net, col_det = np.zeros((4, 2, n), dtype=np.int32)
    tie_parts: list[np.ndarray] = []
    tile_buf, *scratch = np.empty((4, _TILE_ENTRIES), dtype=np.int8)
    rows = pos[ends > pos + 1]  # the positions whose run is not empty
    for block, group, a, b in _tie_blocks(rows, ts, tc, ends, fields):
        ids = order[block]
        row_keys = [Level(lv.hi[ids], lv.lo[ids]) for lv in keys]
        h = block.size
        # Every row's span covers [core_start, core_stop), if not empty.
        core_start, core_stop = int(a.max()), int(b.min())
        start, stop = int(a.min()), int(b.max())
        a, b = a[:, None], b[:, None]
        step = min(_MAX_TILE_COLS, max(1, _TILE_ENTRIES // h))
        for c0 in range(start, stop, step):
            c1 = min(c0 + step, stop)
            size = h * (c1 - c0)
            tile = _tile_verdicts(
                row_keys,
                [Level(lv.hi[c0:c1], lv.lo[c0:c1]) for lv in col_keys],
                tile_buf[:size].reshape(h, -1),
                [buf[:size].reshape(h, -1) for buf in scratch],
            )
            # Zero the entries outside their row's span; inside the shared
            # span there are none, and on either side of it one bound
            # decides.
            k0, k1 = max(core_start, c0), min(core_stop, c1)
            if k0 < k1:
                masks = [(c0, pos[c0:k0] >= a), (k1, pos[k1:c1] < b)]
            else:
                masks = [(c0, (pos[c0:c1] >= a) & (pos[c0:c1] < b))]
            for f0, mask in masks:
                if mask.size:
                    tile[:, f0 - c0 : f0 - c0 + mask.shape[1]] *= mask.view(np.int8)
            if fields == NET:  # one group holds everyone's net count
                col_net[0, c0:c1] -= tile.sum(axis=0, dtype=np.int8)
                row_net[0, ids] += tile.sum(axis=1, dtype=np.int16)
                continue
            split = min(max(n1 - c0, 0), c1 - c0)  # treatment columns come first
            halves = [(k, p) for k, p in enumerate((tile[:, :split], tile[:, split:])) if p.size]
            col_net[group, c0:c1] -= tile.sum(axis=0, dtype=np.int8)
            for k, half in halves:
                row_net[k, ids] += half.sum(axis=1, dtype=np.int16)
            np.abs(tile, out=tile)
            col_det[group, c0:c1] += tile.sum(axis=0, dtype=np.int8)
            for k, half in halves:
                row_det[k, ids] += half.sum(axis=1, dtype=np.int16)
            if collect_ties:
                spans = max(k1 - k0, 0) * h + sum(np.count_nonzero(m) for _, m in masks)
                if np.count_nonzero(tile) < spans:
                    tied = (tile == 0) & (pos[c0:c1] >= a) & (pos[c0:c1] < b)
                    r, c = np.divmod(np.flatnonzero(tied), c1 - c0)
                    i, j = ids[r], cols[c + c0]
                    tie_parts.append(np.minimum(i, j) * n + np.maximum(i, j))  # sort keys
    row_net[:, cols] += col_net
    if fields == NET:
        return row_net[0], None
    row_det[:, cols] += col_det
    counts = np.empty((4, n), dtype=np.int32)
    np.add(row_det, row_net, out=counts[:2])
    np.subtract(row_det, row_net, out=counts[2:])
    counts //= 2
    ties = None
    if collect_ties:
        key = np.sort(np.concatenate([np.zeros(0, dtype=np.int64), *tie_parts]))
        ties = np.array(np.divmod(key, n), dtype=np.int32)
    return counts, ties


def _one_tile_counts(
    first: Level, levels: Sequence[Level], treat: np.ndarray, collect_ties: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """``_tie_counts`` when the whole matrix is one tile, which is built
    once: ranking keys would cost more than they save, and so would
    visiting each pair once, at N=40 where every numpy call counts. Rows
    and columns both take index order, and the tile holds S on every pair
    that ``first`` ties, both ways round (each such pair is compared
    twice): the column sums of each group's rows give every count."""
    n = treat.size
    buf = np.empty((4, n, n), dtype=np.int8)
    tile = _tile_verdicts(levels, levels, buf[0], buf[1:])
    # The pairs that ``first`` ties: neither beats the other.
    unbeaten = buf[2].view(bool)  # i does not beat j at the first level
    np.greater(first.hi[:, None], first.lo, out=unbeaten)
    np.logical_not(unbeaten, out=unbeaten)
    tied = np.logical_and(unbeaten, unbeaten.T, out=buf[3].view(bool))
    tile *= tied.view(np.int8)
    ties = None
    if collect_ties:
        # Each self pair is a tied zero; any other is a tie pair, which
        # index order lists as (i, j) and (j, i), i < j first in the order
        # wanted.
        ties = np.zeros((2, 0), dtype=np.int32)
        if np.count_nonzero(tied) - np.count_nonzero(tile) > n:
            k = np.flatnonzero(tied & (tile == 0))
            i = k // n
            j = k - i * n
            upper = i < j
            ties = np.array([i[upper], j[upper]], dtype=np.int32)
    # S[i, j] = -1 is a win of j against i's group, and 1 a loss.
    np.less(tile, 0, out=buf[2].view(bool))
    np.greater(tile, 0, out=buf[3].view(bool))
    counts = np.array([treat, ~treat]).view(np.int8) @ buf[2:]
    return counts.reshape(4, n), ties


def _tie_blocks(
    rows: np.ndarray, ts: np.ndarray, tc: np.ndarray, ends: np.ndarray, fields: str
) -> Iterator[tuple[np.ndarray, int | None, np.ndarray, np.ndarray]]:
    """Tiles of the runs of ``rows`` (positions of the first level's order)
    as (rows, their group, 0 for treatment and 1 for control, and each
    row's column span, start and end). A tile's rows are of one group and
    of one kind of span: a run to the end is one span, from the treatment
    columns into the control columns; any other run is a treatment span
    and a control span, each its own kind. With ``fields`` ``NET`` a
    tile's rows may be of both groups (group None); with ``BETWEEN`` each
    row's span is cut to the other group's columns, one span for any run.
    A tile takes up to ``_MAX_TILE_ROWS`` rows while its spans' bounding
    box stays within ``_TILE_ENTRIES``."""
    n = ts.size
    u = ends[rows]
    to_end = u == n
    t0, t1 = tc[rows + 1], tc[u]
    c0, c1 = n - (u - t1), n - (rows + 1 - t0)
    treated = ts[rows]
    if fields == BETWEEN:
        kinds = [(treated & (c1 > c0), 0, c0, c1), (~treated & (t1 > t0), 1, t0, t1)]
    else:
        spans = [(to_end, t0, c1), (~to_end & (t1 > t0), t0, t1), (~to_end & (c1 > c0), c0, c1)]
        groups = [(None, True)] if fields == NET else [(0, treated), (1, ~treated)]
        kinds = [(pick & of_group, k, a, b) for k, of_group in groups for pick, a, b in spans]
    for pick, group, a, b in kinds:
        kind_rows, a, b = rows[pick], a[pick], b[pick]
        i = 0
        while i < kind_rows.size:
            top = min(kind_rows.size, i + _MAX_TILE_ROWS)
            width = np.maximum.accumulate(b[i:top]) - np.minimum.accumulate(a[i:top])
            area = width * np.arange(1, top - i + 1)
            h = max(1, int(area.searchsorted(_TILE_ENTRIES, "right")))
            tile = slice(i, i + h)
            yield kind_rows[tile], group, a[tile], b[tile]
            i += h


def _hierarchy_levels(ds: TrialDataset) -> list[Level]:
    return [endpoint_level(ds, spec) for spec in ds.endpoint_specs]


def pair_counts(ds: TrialDataset, collect_ties: bool = False, fields: str = ALL) -> PairCounts:
    """Per-subject counts of the verdicts of the dataset's hierarchy, its
    endpoints in priority order, without the N x N matrix: the ``fields``
    of ``sweep_counts``."""
    return sweep_counts(_hierarchy_levels(ds), ds.treatment_mask, collect_ties, fields)

