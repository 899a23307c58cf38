"""Hierarchical pairwise comparison of subjects.

The hierarchy is the dataset's endpoints in priority order
(``TrialDataset.endpoint_specs``). Each level is written as two per-subject
keys (``Level``). ``sweep_counts`` reduces the N x N verdict matrix S to
per-subject counts (net score, determinate pairs, wins and losses against
the other group) and, on request, the list of pairs tied at every level, so
no test holds S itself. A caller names the counts it reads (``fields``):

- ``ALL``: every count, and the tie list when asked for; the win ratio
  under a permutation plan.
- ``NET``: the net scores alone; fs.
- ``BETWEEN``: the wins and losses against the other group alone; the win
  ratio without a plan.

The first level is counted for every pair by sorting (``_level_order``): a
subject's wins and losses against a group are counts of that group's keys
below and above its own, in O(N log N) time and O(N) memory. A sweep of
one level (global U's kernels, and through ``net_counts`` the rank tests'
scores and midranks) is this alone. Deeper levels are compared only on
the pairs the first level ties, by one of three paths, one for each case:

- A matrix of one tile (N <= 127 at the default tile size), like a null
  study's N=40 cohort, is swept whole from its own keys
  (``_one_tile_counts``), whatever the fields.
- Any other sweep without a tie list whose deeper levels are value levels,
  none but the last holding NaN, is counted by sorting too
  (``_sorted_counts``): every hierarchy that the CLI and the simulator
  build. In the first level's order, the subjects a subject ties are a
  prefix of that order less a prefix of the order of ``lo``, so its
  deeper wins and losses over them are counts of the deeper rank below
  and above its own in two prefixes, offline dominance counts (Knight
  1966, JASA 61:436) that one wavelet matrix answers for every subject at
  once (``_range_counts``), in O(N log N) time and O(N) memory. The
  NaN-free levels make one lexicographic order, and a NaN-bearing last
  level adds the counts of the composite order (rank, value) among the
  subjects that hold a value.
- A tie list (the win ratio under a plan), and deeper survival or crossed
  levels, which only the library builds, go to tiles of the tie runs,
  each pair once (``_tie_counts``), which count every field. The first
  level has ``hi <= lo``, so in the order of its ``hi`` the subjects tied
  with a subject that come after it are one run, up to the first whose
  ``hi`` exceeds its ``lo``. Columns take the treatment group in that
  order, then the control group in reverse, so a run to the end (a
  censored subject's, on a survival level) is one column span, and any
  other run at most two. Tiles of about 256K entries, allocated once so
  that they stay in a core's L2 cache, take the runs of up to 127 rows of
  one group; S is antisymmetric, so int16 row sums count each pair for
  its row subject and int8 column sums for its column subject, and 127
  rows is the most whose column sum fits int8. Deeper keys become their
  float32 ranks, which compare faster than float64 ones (``_rank_keys``),
  and a run of NaN-free value levels, which compares as a lexicographic
  order, becomes one level of that order's ranks (``_compact``).

On the simulator's N=10,000 cohort the first level ties 18,466,058 of the
49,995,000 pairs; tiles would compare each of them, and the sort counts
them without visiting one.

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
    ``sweep_counts``: the first level's plus the deeper levels' on the
    pairs the first level ties.

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
    wins and losses against the other group alone. A tie list needs
    ``ALL``. Raises ``ValueError`` for no levels, or for a key array whose
    length is not the mask's.

    The first level is counted for every pair by sorting
    (``_level_order``), in O(N log N) time and O(N) memory; it needs
    ``hi <= lo`` on every subject and raises ``ValueError`` otherwise.
    Deeper levels are compared only on the pairs the first level ties: in
    a matrix of one tile both ways round (``_one_tile_counts``); else,
    without a tie list and for value levels of which only the last holds
    NaN, by sorting (``_sorted_counts``); else each pair once in tiles
    (``_tie_counts``), which count every field and serve a narrower
    request from them. One level without a tie list is the sort alone."""
    if fields not in (ALL, NET, BETWEEN) or (collect_ties and fields != ALL):
        raise ValueError(f"cannot count {fields!r} fields with collect_ties={collect_ties}")
    if not levels:
        raise ValueError("a sweep needs at least one level")
    treat = np.asarray(treatment_mask, dtype=bool)
    n = treat.size
    if any(np.shape(key) != (n,) for lv in levels for key in lv):
        raise ValueError(f"every level needs one key per subject of the {n}-subject mask")
    first = levels[0]
    if np.count_nonzero(first.hi > first.lo):
        raise ValueError("the first level needs hi <= lo on every subject")
    order, ends, beats, by_lo = _level_order(first)
    ts = treat[order]
    # Treatment subjects among the first k in ``order``, and in ``by_lo``.
    tc, tl = running = np.zeros((2, n + 1), dtype=np.int64)
    np.array([ts, treat[by_lo]]).cumsum(axis=1, out=running[:, 1:])
    deeper, ties = None, None
    if len(levels) > 1 or collect_ties:
        if n <= _MAX_TILE_ROWS and n * n <= _TILE_ENTRIES:
            deeper, ties = _one_tile_counts(first, levels[1:], treat, collect_ties)
        elif not collect_ties and _value_levels(levels[1:]):
            deeper = _sorted_counts(levels[1:], order, ends, beats, by_lo, treat, fields)
        else:
            deeper, ties = _tie_counts(levels[1:], order, ends, ts, tc, collect_ties)
    if fields == NET:
        net = np.empty(n, dtype=np.int64)
        net[order] = beats + ends - n
        if deeper is not None:
            net += deeper[:2].sum(axis=0) - deeper[2:].sum(axis=0)
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


def _value_levels(levels: Sequence[Level]) -> bool:
    """Whether ``_sorted_counts`` takes these deeper levels: value levels
    (one key array each), none but the last holding NaN."""
    return all(lv.hi is lv.lo for lv in levels) and not any(
        np.isnan(lv.hi).any() for lv in levels[:-1]
    )


# Bits of a key that each pass of ``_range_counts`` reads, at most 8 (a
# digit is sorted as uint8). A pass builds a prefix table of 2^bits + 1
# int32 columns, and a key of b bits takes b/bits passes. On the
# simulator's N=10,000 cohort a net-only sweep's call (20,000 values and
# queries, keys below 2^14) took a median 6.1, 3.1, 2.7, 3.9 and 5.9 ms
# at 1 to 5 bits, and at N=80,000 42, 38 and 67 ms at 2, 3 and 4 bits
# (2-core host, numpy 2.4).
_RADIX_BITS = 3


def _range_counts(
    values: np.ndarray, starts: np.ndarray, stops: np.ndarray, keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """For each query k, how many of ``values[starts[k]:stops[k]]`` lie
    below ``keys[k]``, and how many equal it; values and keys are
    nonnegative integers. This is a wavelet matrix (Inf. Syst. 47:15,
    2015) built and queried at once, one pass per
    ``_RADIX_BITS``-bit digit, the most significant first. A pass counts,
    in each query's range, the values whose digit is below the key's (they
    lie below the key), then stably partitions the values by digit; the
    range's values of the key's digit stay one range there, so the last
    range holds the values equal to the key. O((V + Q) log V) time and
    O(V + Q) memory."""
    radix = 1 << _RADIX_BITS
    width = radix + 1
    size = values.size
    # Row j, column c: how many of the first j values have a digit below c.
    below = np.zeros((size + 1, width), dtype=np.int32)
    flat = below.ravel()
    digit_below = np.less.outer(np.arange(radix), np.arange(width)).astype(np.int32)
    # Positions in ``flat`` of each range's first row and end row.
    starts, stops = starts * width, stops * width
    less = np.zeros(keys.size, dtype=np.int32)
    top = int(max(values.max(initial=0), keys.max(initial=0))).bit_length()
    for shift in range((top - 1) // _RADIX_BITS * _RADIX_BITS, -1, -_RADIX_BITS):
        digits = (values >> shift) & (radix - 1)
        # "clip" writes straight into ``out``; the default buffers it.
        digit_below.take(digits, axis=0, out=below[1:], mode="clip")
        np.cumsum(below, axis=0, out=below)
        d = (keys >> shift) & (radix - 1)  # the key's digit
        start_below, stop_below = flat.take(starts + d), flat.take(stops + d)
        less += stop_below - start_below
        # After the partition the values of digit d come after all those
        # of a smaller digit, in their order.
        first = flat.take(size * width + d)
        d += 1
        starts = (first - start_below + flat.take(starts + d)) * width
        stops = (first - stop_below + flat.take(stops + d)) * width
        if shift:
            values = values.take(digits.astype(np.uint8).argsort(kind="stable"))
    return less, (stops - starts) // width


def _sorted_counts(
    levels: Sequence[Level],
    order: np.ndarray,
    ends: np.ndarray,
    beats: np.ndarray,
    by_lo: np.ndarray,
    treat: np.ndarray,
    fields: str,
) -> np.ndarray:
    """The counts of ``_tie_counts``, (4, N) by subject, for deeper value
    levels of which only the last may hold NaN (``_value_levels``), by
    sorting and without a tie list. ``fields`` ``NET`` leaves everyone's
    wins and losses in the treatment rows, and ``BETWEEN`` the counts
    against a subject's own group 0.

    From ``_level_order``: at first-level position p, subject x beats
    ``by_lo[:beats[p]]``, all of which lie in ``order[:ends[p]]``, and is
    tied with the rest of ``order[:ends[p]]``, itself included. So for a
    complete deeper order r and a group M, x's deeper wins over the tied
    members of M are the members in ``order[:ends[p]]`` whose r is below
    r_x less those in ``by_lo[:beats[p]]``, and its losses likewise those
    above; x itself is neither. The NaN-free levels make one such order,
    the rank of their lexicographic order. A last level with NaN decides
    only a pair that order ties and that has both values present, so
    among the present subjects P it adds the counts of the order of
    (r, value) less those of r. All the prefix counts are answered by one
    ``_range_counts``."""
    n = treat.size
    *run, last = _compact(levels)
    if last.hi is last.lo:  # no NaN: the levels are one order
        run, last = [last], None
    rank = run[0].hi.astype(np.int32) if run else np.zeros(n, dtype=np.int32)
    everyone = np.ones(n, dtype=bool)
    treated = treat[order]
    # (the count row of the wins, members by subject, the asking positions)
    if fields == NET:
        groups = [(0, everyone, np.arange(n))]
    elif fields == BETWEEN:
        groups = [(0, treat, np.flatnonzero(~treated)), (1, ~treat, np.flatnonzero(treated))]
    else:
        groups = [(0, treat, np.arange(n)), (1, ~treat, np.arange(n))]
    terms = [(1, rank, *group) for group in groups]
    if last is not None:
        present = last.hi >= 0  # a NaN value ranks -1
        _, lex = np.unique(
            rank[present] * np.int64(n) + last.hi[present].astype(np.int64), return_inverse=True
        )
        composite = np.zeros(n, dtype=np.int32)
        composite[present] = lex
        for row, members, asking in groups:
            members, asking = members & present, asking[present[order.take(asking)]]
            terms += [(1, composite, row, members, asking), (-1, rank, row, members, asking)]
    values, starts, stops, keys = [], [], [], []
    offset = 0
    for _, r, _, members, asking in terms:
        key = r.take(order.take(asking))
        for seq, cut in ((order, ends), (by_lo, beats)):
            inside = members.take(seq)
            count = np.zeros(n + 1, dtype=np.int32)
            np.cumsum(inside, out=count[1:])
            values.append(r.take(seq.take(np.flatnonzero(inside))))
            starts.append(np.full(key.size, offset, dtype=np.int32))
            stops.append(count.take(cut.take(asking)) + offset)
            keys.append(key)
            offset += int(count[-1])
    values, starts, stops, keys = map(np.concatenate, (values, starts, stops, keys))
    less, equal = _range_counts(values, starts, stops, keys)
    above = stops - starts - less - equal
    counts = np.zeros((4, n), dtype=np.int64)
    k = 0
    for sign, _, row, _, asking in terms:
        a, b = slice(k, k + asking.size), slice(k + asking.size, k + 2 * asking.size)
        subjects = order.take(asking)
        counts[row][subjects] += sign * (less[a] - less[b])
        counts[row + 2][subjects] += sign * (above[a] - above[b])
        k += 2 * asking.size
    return counts


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
) -> tuple[np.ndarray, np.ndarray | None]:
    """The verdicts of ``levels`` over the pairs that the first level ties,
    each pair once: every subject's wins against the treatment group and
    against the control group, then its losses against each, as (4, N)
    int32 counts, and with ``collect_ties`` the (2, P) int32 pairs tied at
    every level, sorted by i and then j (else None).

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
    for block, group, a, b in _tie_blocks(rows, ts, tc, ends):
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
    rows: np.ndarray, ts: np.ndarray, tc: np.ndarray, ends: np.ndarray
) -> Iterator[tuple[np.ndarray, int, np.ndarray, np.ndarray]]:
    """Tiles of the runs of ``rows`` (positions of the first level's order)
    as (rows, their group, 0 for treatment and 1 for control, and each
    row's column span, start and end). A tile's rows are of one group and
    of one kind of span: a run to the end is one span, from the treatment
    columns into the control columns; any other run is a treatment span
    and a control span, each its own kind. A tile takes up to
    ``_MAX_TILE_ROWS`` rows while its spans' bounding box stays within
    ``_TILE_ENTRIES``."""
    n = ts.size
    u = ends[rows]
    to_end = u == n
    t0, t1 = tc[rows + 1], tc[u]
    c0, c1 = n - (u - t1), n - (rows + 1 - t0)
    treated = ts[rows]
    spans = [(to_end, t0, c1), (~to_end & (t1 > t0), t0, t1), (~to_end & (c1 > c0), c0, c1)]
    for group, of_group in ((0, treated), (1, ~treated)):
        for pick, a, b in spans:
            pick = pick & of_group
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

