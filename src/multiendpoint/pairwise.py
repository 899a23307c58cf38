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

The first level is counted for every pair from one sort of its ``hi``
keys (``_level_order``): a subject's wins and losses against a group are
counts of that group's keys below and above its own. They are read off
the runs of equal keys in that order, with no search on a value level; a
survival level searches only the censored subjects' +inf ``lo`` keys.
This takes O(N log N) time and O(N) memory. A sweep of one level (global
U's kernels, and through ``net_counts`` the rank tests' scores and
midranks) is this alone. Deeper levels decide only the pairs
the first level ties, and are counted by one of two paths:

- Above one tile (N > 127 at the default tile size), deeper value levels
  are counted by sorting too (``_sorted_counts``), and so is their tie
  list. In the first level's order, the subjects a subject ties are a
  prefix of that order less a prefix of the order of ``lo``, so its deeper
  wins and losses over them are counts of a deeper rank below and above
  its own in two prefixes, offline dominance counts (Knight 1966,
  JASA 61:436) that one wavelet matrix answers for every subject at once
  (``_range_counts``), in O(N log N) time and O(N) memory. A pair is
  decided by the deeper levels that both subjects hold, so NaN in h of
  them makes up to 3^h signed terms of such counts, 1 with none. The
  tied subjects that come after a subject in the first level's order are
  the next positions up to its ``ends``, so with the positions sorted by
  deeper class, those tied at every level are one range of its class
  (``_sorted_ties``).
- Any other sweep compares every pair both ways round, in blocks of rows
  against every column (``_blocked_counts``): a matrix of one tile, like
  a null study's N=40 cohort, which is one block, and deeper survival or
  crossed levels, which only the library builds.

On the simulator's N=10,000 cohort the first level ties 18,466,058 of the
49,995,000 pairs; the blocked sweep would compare every pair twice, and
the sort counts them without visiting one.

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
from typing import NamedTuple, Sequence

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


# Entries per block of ``_blocked_counts``. A block holds four int8
# buffers of this size (the verdicts, a level and two comparisons), so 2^18
# entries keep them near 1 MB, inside a core's L2 cache, at any cohort size.
# A matrix of at most this many entries, and at most ``_MAX_TILE_ROWS``
# rows, is one tile: one block.
_TILE_ENTRIES = 1 << 18
# Rows per block at most: a column sum of this many entries in {0, 1} is
# the largest that fits int8, the type of the block's group product.
_MAX_TILE_ROWS = np.iinfo(np.int8).max


def _compact(levels: Sequence[Level], n: int) -> np.ndarray:
    """Deeper value levels (``_value_levels``) as a (K, ``n``) int32 array:
    each level's rank of its values, -1 where it is NaN."""
    ranks = np.empty((len(levels), n), dtype=np.int32)
    for r, lv in zip(ranks, levels):
        _, r[:] = np.unique(lv.hi, return_inverse=True)
        r[np.isnan(lv.hi)] = -1
    return ranks


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
    ``lo`` is below its ``hi``, which it beats, the first ``beats[p]`` in
    ascending ``lo``. Last ``by_hi``, ascending ``hi`` with NaN last.

    Both counts are read off the runs of equal ``hi`` in the one sort. A
    subject whose ``lo`` is its own ``hi`` (every subject of a value level,
    an observed event of a survival level) ends where its run ends; any
    other ``lo``, such as a censored subject's +inf, is searched among the
    sorted ``hi``. A subject beats the subjects before its run's start, on
    a two-key level only those whose ``lo`` is their own ``hi``, and the
    other finite ``lo`` keys below its ``hi``, which are searched; a
    survival level has none."""
    hi, lo = level
    n = hi.size
    by_hi = hi.argsort()
    hi_up = hi[by_hi]
    # The last key is NaN when any is; the first m are not.
    m = n if n == 0 or hi_up[-1] == hi_up[-1] else n - np.count_nonzero(np.isnan(hi_up))
    # ``edge`` marks the first position of each run of equal keys, and n;
    # a NaN equals nothing, so each is a run of its own.
    edge = np.empty(n + 1, dtype=bool)
    edge[0] = edge[n] = True
    np.not_equal(hi_up[1:], hi_up[:-1], out=edge[1:n])
    bounds = edge.nonzero()[0]
    starts = bounds[:-1]
    size = bounds[1:] - starts
    ends = bounds[1:].repeat(size)  # its run's end: the keys at most its own
    if hi is lo:
        beats = starts.repeat(size)  # its run's start: the keys below its own
        ends[m:] = m  # a NaN lo lies above every key
    else:
        lo_up = lo[by_hi]
        # ``same[p + 1]``: the lo at position p is its own hi (an observed
        # event), so it lies below the keys of every later run. Any other
        # lo, every lo of a NaN hi among them, is searched.
        same = np.empty(n + 1, dtype=bool)
        same[0] = False
        np.equal(lo_up, hi_up, out=same[1:])
        beats = same.cumsum()[starts].repeat(size)
        other = (~same[1:]).nonzero()[0]
        other_lo = lo_up[other]
        ends[other] = hi_up[:m].searchsorted(other_lo, "right")
        crossed = other_lo[other_lo < np.inf]
        if crossed.size:
            crossed.sort()
            beats[:m] += crossed.searchsorted(hi_up[:m], "left")
    if m < n:
        # A NaN hi is at most every lo, beats nothing and goes first.
        ends += n - m
        beats[m:] = 0
        order, ends, beats = (np.concatenate([a[m:], a[:m]]) for a in (by_hi, ends, beats))
    else:
        order = by_hi
    return order, ends, beats, by_hi


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
    Deeper levels decide only the pairs the first level ties. Above one
    tile, value levels, NaN or not, are counted by sorting
    (``_sorted_counts``), the tie list too; deeper survival or crossed
    levels are compared in blocks of rows against every column
    (``_blocked_counts``), which count every field and serve a narrower
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
    order, ends, beats, by_hi = _level_order(first)
    by_lo = by_hi if first.hi is first.lo else first.lo.argsort()
    # Treatment subjects among the first k in ``order``, and in ``by_lo``.
    tc, tl = running = np.zeros((2, n + 1), dtype=np.int64)
    np.array([treat[order], treat[by_lo]]).cumsum(axis=1, out=running[:, 1:])
    deeper, ties = None, None
    if len(levels) > 1 or collect_ties:
        one_tile = n <= _MAX_TILE_ROWS and n * n <= _TILE_ENTRIES
        if not one_tile and _value_levels(levels[1:]):
            deeper, ties = _sorted_counts(
                levels[1:], order, ends, beats, by_lo, treat, fields, collect_ties
            )
        else:
            deeper, ties = _blocked_counts(first, levels[1:], treat, collect_ties)
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
    """Whether ``_sorted_counts`` takes these deeper levels: value levels,
    one key array each."""
    return all(lv.hi is lv.lo for lv in levels)


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
    collect_ties: bool,
) -> tuple[np.ndarray, np.ndarray | None]:
    """The counts of ``_blocked_counts``, (4, N) by subject, and with
    ``collect_ties`` its tie list (else None), for deeper value levels
    (``_value_levels``), by sorting. ``fields`` ``NET`` leaves everyone's
    wins and losses in the treatment rows, and ``BETWEEN`` the counts
    against a subject's own group 0.

    From ``_level_order``: at first-level position p, subject x beats
    ``by_lo[:beats[p]]``, all of which lie in ``order[:ends[p]]``, and is
    tied with the rest of ``order[:ends[p]]``, itself included. So for a
    deeper order r and a group M, x's deeper wins over the tied members of
    M are the members in ``order[:ends[p]]`` whose r is below r_x less
    those in ``by_lo[:beats[p]]``, and its losses likewise those above; x
    itself is neither. One ``_range_counts`` answers every such count.

    A tied pair is decided lexicographically by the deeper levels that
    both subjects hold, its presence set A. As [A = S] is the sum over
    T >= S of (-1)^|T - S| [A >= T] (Moebius inversion), the counts over
    the pairs whose A is S are a signed sum of terms, each those counts of
    the rank over S among the members that hold all of T. Terms cancel
    where T - S holds a NaN-free level, so S holds all of those: NaN in h
    levels leaves 3^h terms, less the 2^h of an empty S when no level is
    NaN-free, so 1 for a complete hierarchy. The tie list takes one
    ``_sorted_ties`` pass per ordered pair of presence patterns over the
    NaN-bearing levels, classed by the rank over the levels both hold."""
    n = treat.size
    ranks = _compact(levels, n)
    held = ranks >= 0
    complete = held.all(axis=1)
    bearing = np.flatnonzero(~complete)
    # For each set of NaN-bearing levels, bit b of its index naming
    # ``bearing[b]``: the subjects that hold it, and their rank over it and
    # the NaN-free levels.
    holders, lex = [], []
    for subset in range(1 << bearing.size):
        over = complete.copy()
        over[bearing[subset >> np.arange(bearing.size) & 1 == 1]] = True
        holders.append(hold := held[over].all(axis=0))
        rank = np.zeros(n, dtype=np.int32)
        for depth, r in enumerate(ranks[over].compress(hold, axis=1)):  # lexicographic
            if depth:
                _, r = np.unique(rank[hold] * np.int64(n) + r, return_inverse=True)
            rank[hold] = r
        lex.append(rank)
    treated = treat[order]
    # (the count row of the wins, members by subject, the asking positions)
    if fields == NET:
        groups = [(0, np.ones(n, dtype=bool), np.arange(n))]
    elif fields == BETWEEN:
        groups = [(0, treat, np.flatnonzero(~treated)), (1, ~treat, np.flatnonzero(treated))]
    else:
        groups = [(0, treat, np.arange(n)), (1, ~treat, np.arange(n))]
    # The terms of sets S within T, their NaN-bearing levels indexed s and
    # t; an empty S decides nothing.
    terms = [
        ((-1) ** (t ^ s).bit_count(), lex[s], row, members & hold, asking[hold[order[asking]]])
        for t, hold in enumerate(holders)
        for s in range(t + 1)
        if s & t == s and (s or complete.any())
        for row, members, asking in groups
    ]
    # Each list starts empty, since a sweep of one level has no deeper terms.
    values, starts, stops, keys = ([np.zeros(0, dtype=np.int32)] for _ in range(4))
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
    if not collect_ties:
        return counts, None
    # The NaN-bearing levels that each position holds, bit b for ``bearing[b]``.
    pattern = ((1 << np.arange(bearing.size)) @ held[bearing]).take(order)
    kinds = np.unique(pattern)
    passes = [(pattern == a, pattern == b, lex[a & b].take(order)) for a in kinds for b in kinds]
    return counts, _sorted_ties(order, ends, passes)


def _sorted_ties(
    order: np.ndarray, ends: np.ndarray, passes: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]]
) -> np.ndarray:
    """The (2, P) int32 pairs (i, j), i < j, tied at every level, sorted by
    i and then j. In ``order`` the subjects that the first level ties with
    position p and that come after it are positions p + 1 to
    ``ends[p] - 1``. Each pass (asking, listed, class), two masks and an
    int32 class over the positions, lists each asking position's ties with
    the listed positions of its own class: with the listed positions
    sorted by (class, position) they are one range, found by
    ``searchsorted``."""
    n = order.size
    pair_keys = []
    for asking, listed, cls in passes:
        p, q = np.flatnonzero(asking), np.flatnonzero(listed)
        listed_keys = np.sort(cls.take(q) * np.int64(n) + q)
        base = cls.take(p) * np.int64(n)
        start = listed_keys.searchsorted(base + p + 1)
        count = listed_keys.searchsorted(base + ends.take(p)) - start
        # ``np.repeat`` expands each range: its k-th pair reads entry
        # start + k of ``listed_keys``.
        at = np.repeat(start - (count.cumsum() - count), count) + np.arange(count.sum())
        i, j = order.take(np.repeat(p, count)), order.take(listed_keys.take(at) % n)
        pair_keys.append(np.minimum(i, j) * np.int64(n) + np.maximum(i, j))
    key = np.sort(np.concatenate(pair_keys))
    return np.array(np.divmod(key, n), dtype=np.int32)


def _tile_verdicts(
    row_keys: Sequence[Level],
    col_keys: Sequence[Level],
    tile: np.ndarray,
    scratch: Sequence[np.ndarray],
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


def _blocked_counts(
    first: Level, levels: Sequence[Level], treat: np.ndarray, collect_ties: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """The verdicts of ``levels`` over the pairs that ``first`` ties:
    every subject's wins against the treatment group and against the
    control group, then its losses against each, as (4, N) int64 counts,
    and with ``collect_ties`` the (2, P) int32 pairs tied at every level,
    sorted by i and then j (else None).

    Blocks of at most ``_MAX_TILE_ROWS`` rows and about ``_TILE_ENTRIES``
    entries, in index order, are compared against every column, in
    buffers allocated once, so each pair is compared both ways round; the
    column sums of each group's rows give every count. The keys are
    compared as they are: ranking them would cost more than it saves at
    N=40, where every numpy call counts. A matrix of one tile is one block,
    built from its own keys; above one tile only deeper survival or crossed
    levels come here."""
    n = treat.size
    rows = max(1, min(_MAX_TILE_ROWS, _TILE_ENTRIES // max(n, 1)))
    buf = np.empty((4, min(rows, n), n), dtype=np.int8)
    groups = np.array([treat, ~treat]).view(np.int8)
    counts = np.zeros((2, 2, n), dtype=np.int64)
    ties = [np.zeros((2, 0), dtype=np.int32)]
    for r0 in range(0, n, rows):
        block = buf[:, : n - r0]
        tile, h = block[0], block.shape[1]
        if h == n:  # one tile: the rows are the columns
            row_first, row_keys = first, levels
        else:
            r1 = r0 + h
            row_first, *row_keys = (Level(lv.hi[r0:r1], lv.lo[r0:r1]) for lv in (first, *levels))
        _tile_verdicts(row_keys, levels, tile, block[1:])
        # The pairs that ``first`` ties: neither beats the other.
        unbeaten = block[2].view(bool)  # i does not beat j at the first level
        np.greater(row_first.hi[:, None], first.lo, out=unbeaten)
        np.logical_not(unbeaten, out=unbeaten)
        tied = block[3].view(bool)
        if row_keys is levels:
            unbeaten_by = unbeaten.T
        else:  # j does not beat i
            unbeaten_by = np.less(row_first.lo[:, None], first.hi, out=tied)
            np.logical_not(unbeaten_by, out=unbeaten_by)
        np.logical_and(unbeaten, unbeaten_by, out=tied)
        tile *= tied.view(np.int8)
        if collect_ties:
            # Each self pair is a tied zero; any other is a tie pair, which
            # the blocks list as (i, j) and (j, i), i < j first in the order
            # wanted.
            if np.count_nonzero(tied) - np.count_nonzero(tile) > h:
                k = np.flatnonzero(tied & (tile == 0))
                i = k // n
                j = k - i * n
                i += r0
                upper = i < j
                ties.append(np.array([i[upper], j[upper]], dtype=np.int32))
        # S[i, j] = -1 is a win of j against i's group, and 1 a loss.
        np.less(tile, 0, out=block[2].view(bool))
        np.greater(tile, 0, out=block[3].view(bool))
        # An int8 einsum sums a 106 x 2,467 block about 7x faster than an
        # int8 matmul, and a 40 x 40 one no slower.
        counts += np.einsum("gr,krn->kgn", groups[:, r0 : r0 + h], block[2:])
    return counts.reshape(4, n), np.concatenate(ties, axis=1) if collect_ties else None


def _hierarchy_levels(ds: TrialDataset) -> list[Level]:
    return [endpoint_level(ds, spec) for spec in ds.endpoint_specs]


def pair_counts(ds: TrialDataset, collect_ties: bool = False, fields: str = ALL) -> PairCounts:
    """Per-subject counts of the verdicts of the dataset's hierarchy, its
    endpoints in priority order, without the N x N matrix: the ``fields``
    of ``sweep_counts``."""
    return sweep_counts(_hierarchy_levels(ds), ds.treatment_mask, collect_ties, fields)

