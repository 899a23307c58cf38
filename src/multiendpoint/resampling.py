"""Seeded label-permutation inference engine.

Every replicate's labels are derived only from ``(master_seed, replicate
index)``, so results are bit-identical no matter how the replicate range is
partitioned across workers or chunks. Two-sided extremeness is measured by
|T| against the observed |T| (never by doubling a tail), which stays well
defined for asymmetric null distributions. The Monte Carlo p-value uses the
add-one convention (1 + #extreme) / (B + 1) and is therefore always > 0.

Label-stream contract: Monte Carlo replicate b is the Fisher-Yates shuffle of
the group codes drawn by numpy's
``Generator(PCG64(SeedSequence(derive_replicate_seed(master_seed, b))))``,
i.e. exactly ``np.random.default_rng(seed).permutation(codes)``. The stream
is seeded in batches: the seeds of ``DEFAULT_BLOCK_SIZE`` replicates are
hashed at once in numpy (splitmix64, then numpy's documented
``SeedSequence`` mix with pool size 4); each PCG64 state is finished from
its hash only when the stream reaches its row, and is loaded into the one
generator its thread reuses for every stream.

Stream lifetime: the tests that run on one dataset under one plan share one
label stream. The first draws and reduces it in contiguous shares of its
replicate range, in forked workers for a long Monte Carlo stream (see
``_stream_workers`` and the ``forking`` module). Each share also writes its
rows into a bit-packed copy in shared memory, one bit per label, kept once
every share has returned and keyed by the dataset, whose group codes cannot
change; later tests replay it in the caller. One copy is kept at a time, as
long as its dataset lives or until a stream is drawn for another dataset or
plan, and none beyond ``_STREAM_CACHE_BYTES`` (the replica's 10,000
replicates at N=2467 take 3.1 MB): each test draws such a stream afresh.

A plan with a decision level ``decide_at`` (set by null studies, which use
a p-value only to ask whether ``p <= alpha``) is curtailed exactly (Besag &
Clifford 1991): its stream is drawn in the caller in small blocks and is
never packed, kept or fanned out, and it stops after the first block at
which the full-stream p formula, ``(1 + n_extreme) / (B + 1)`` or
``n_extreme / total`` for an exact plan, evaluated at the extreme draws
counted so far, exceeds ``decide_at``. The remaining draws can only raise
n_extreme, so the full p would exceed ``decide_at`` too: the decision is
exactly that of the full stream, from a prefix of the same draws. A
curtailed result reports the rows drawn as ``replicates_used`` (below B) and
the formula at the count so far as its p, a lower bound on the full p. A
stream that runs to its end, as every one that rejects does, gives the
result of the plan without ``decide_at``.
"""

from __future__ import annotations

import math
import mmap
import threading
import weakref
from dataclasses import dataclass
from decimal import Decimal
from functools import partial
from itertools import combinations, islice
from typing import Callable, Iterator

import numpy as np

from . import forking
from .errors import ExactTooLargeError
from .results import InferenceMode, TestResult
from .trial_data import TrialDataset

SEED_BOUND = 1 << 64  # master seeds lie in [0, SEED_BOUND); larger ones would alias
_MASK64 = SEED_BOUND - 1
_MASK128 = (1 << 128) - 1

DEFAULT_REPLICATES = 10_000
EXACT_CAP = 200_000  # most label assignments an exact plan enumerates
DEFAULT_BLOCK_SIZE = 1_024

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and
# the PCG64 128-bit LCG multiplier.
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _splitmix64(x):
    """splitmix64 finaliser on a Python int or a uint64 array (where the
    arithmetic already wraps and the mask is a no-op)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_replicate_seed(master_seed: int, replicate_index: int) -> int:
    """Deterministic, platform-independent per-replicate seed.

    Injective in ``replicate_index`` for a fixed master seed: the index is
    added to a mixed master (a 64-bit bijection) and passed through another
    bijective mix. Raises ValueError for a master seed outside
    [0, ``SEED_BOUND``), which would alias one inside it.
    """
    if not 0 <= master_seed < SEED_BOUND:
        raise ValueError(f"master seed must be in [0, 2**64), got {master_seed}")
    if replicate_index < 0:
        raise ValueError("replicate_index must be >= 0")
    inner = (_splitmix64(master_seed) + replicate_index) & _MASK64
    return _splitmix64(inner)


def _replicate_seeds(master_seed: int, start: int, count: int) -> np.ndarray:
    """``derive_replicate_seed(master_seed, b)`` for b in [start, start + count),
    as a uint64 array."""
    mixed = np.uint64(_splitmix64(master_seed & _MASK64))
    return _splitmix64(mixed + np.arange(start, start + count, dtype=np.uint64))


def _hash_constants(init: int, mult: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and the multiply constants of ``calls`` successive
    SeedSequence hashmix calls, as two uint32 arrays; the hash constant
    advances independently of the data. Kept as uint32 arrays, the hash
    has the same dtypes under value-based casting and under NEP 50."""
    out = []
    for _ in range(calls):
        nxt = (init * mult) & 0xFFFFFFFF
        out.append((init, nxt))
        init = nxt
    xor, mul = np.array(out, dtype=np.uint32).T
    return xor, mul


_POOL_XOR, _POOL_MUL = _hash_constants(_SS_INIT_A, _SS_MULT_A, 4 + 12)  # fill, cross-mix
_FILL_XOR, _FILL_MUL = _POOL_XOR[:4, None], _POOL_MUL[:4, None]
# The cross-mix's constants as (source word, pool word, 1): for each source
# word, one per other word in order, and an unused 0 on its own row.
_MIX_XOR, _MIX_MUL = (
    np.array([np.insert(c[3 * src : 3 * src + 3], src, 0) for src in range(4)])[:, :, None]
    for c in (_POOL_XOR[4:], _POOL_MUL[4:])
)
# Two hashmix calls per uint64 output word, on pool words 0, 1, 2, 3, 0, ...
_OUT_XOR, _OUT_MUL = (c.reshape(2, 4, 1) for c in _hash_constants(_SS_INIT_B, _SS_MULT_B, 8))
_SHIFT16 = np.uint32(16)


def _hashmix(value: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mul
    value ^= value >> _SHIFT16
    return value


def _pcg64_state(s_hi: int, s_lo: int, i_hi: int, i_lo: int) -> tuple[int, int]:
    """PCG64's ``set_seed`` step (pcg_setseq_128_srandom_r: one LCG step
    from 0, add the seed, step) on the 64-bit words SeedSequence gave."""
    inc = ((((i_hi << 64) | i_lo) << 1) | 1) & _MASK128
    return ((inc + ((s_hi << 64) | s_lo)) * _PCG64_MULT + inc) & _MASK128, inc


def _pcg64_seed_states(seeds: np.ndarray) -> Iterator[tuple[int, int]]:
    """``(state, inc)`` of ``np.random.PCG64(s)`` for each uint64 seed s,
    in order.

    ``SeedSequence(s).generate_state(4, np.uint64)`` is hashed at once for
    every seed, on the pool's four words stacked as one (4, k) uint32 array,
    so the hash costs about 60 small numpy calls whatever k is. PCG64's
    ``set_seed`` step, in Python ints, runs lazily as the states are read,
    so a reader that stops early builds only the states it read. A 64-bit
    seed is one or two uint32 entropy words; the pool of 4 is filled by
    hashing them and then zero words, so ``[lo, hi, 0, 0]`` gives the same
    pool in both cases.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    pool = np.zeros((4, seeds.size), dtype=np.uint32)
    pool[0] = seeds.astype(np.uint32)
    pool[1] = (seeds >> np.uint64(32)).astype(np.uint32)
    pool = _hashmix(pool, _FILL_XOR, _FILL_MUL)
    for src in range(4):
        # Every other word takes its mix with the source word; the source
        # word's own row is mixed too and then put back.
        mixed = pool * _SS_MIX_L
        mixed -= _hashmix(pool[src], _MIX_XOR[src], _MIX_MUL[src]) * _SS_MIX_R
        mixed ^= mixed >> _SHIFT16
        mixed[src] = pool[src]
        pool = mixed
    out = _hashmix(pool, _OUT_XOR, _OUT_MUL).reshape(8, -1).astype(np.uint64)
    # Output words 2j and 2j + 1 are the low and high halves of uint64 j:
    # the seed's high and low words, then the increment's.
    words = out[0::2] | (out[1::2] << np.uint64(32))
    return map(_pcg64_state, *words.tolist())


@dataclass(frozen=True)
class PermutationPlan:
    """How to resample: Monte Carlo with B replicates
    (``InferenceMode.PERMUTATION``), or exact enumeration of all C(N, n1)
    label assignments (``InferenceMode.EXACT``, at most ``EXACT_CAP``).
    Sidedness is fixed two-sided.

    ``decide_at``, in (0, 1), is the level of the one decision a caller
    draws from the p-value, ``p <= decide_at``: the stream then stops as
    soon as the p of the full stream is known to exceed it (see the module
    docstring). The decision is exact and the draws are a prefix of the
    full stream; a result with ``replicates_used`` below B was curtailed
    and its p is only a lower bound. None, the default, draws every
    replicate."""

    mode: InferenceMode = InferenceMode.PERMUTATION
    replicates: int = DEFAULT_REPLICATES
    master_seed: int = 0
    decide_at: float | None = None

    def __post_init__(self):
        if self.mode not in (InferenceMode.PERMUTATION, InferenceMode.EXACT):
            raise ValueError(f"unknown permutation mode {self.mode!r}")
        if self.mode is InferenceMode.PERMUTATION and self.replicates < 1:
            raise ValueError("replicate count must be >= 1")
        if not 0 <= self.master_seed < SEED_BOUND:
            raise ValueError(f"master seed must be in [0, 2**64), got {self.master_seed}")
        if self.decide_at is not None and not 0.0 < self.decide_at < 1.0:
            raise ValueError(f"decision level must lie in (0, 1), got {self.decide_at}")

    @classmethod
    def monte_carlo(cls, replicates: int = DEFAULT_REPLICATES, seed: int = 0) -> "PermutationPlan":
        return cls(InferenceMode.PERMUTATION, replicates, seed)

    @classmethod
    def exact(cls) -> "PermutationPlan":
        return cls(InferenceMode.EXACT)


def n_assignments(plan: PermutationPlan, n: int, n1: int) -> int:
    """How many label assignments ``plan`` draws for N = ``n`` subjects,
    ``n1`` of them treated; ExactTooLargeError past ``EXACT_CAP``."""
    if plan.mode is InferenceMode.PERMUTATION:
        return plan.replicates
    total = math.comb(n, n1)
    if total > EXACT_CAP:
        # Decimal formats a count too large for a float, from its digits.
        count = str(total) if total < 10**12 else f"{Decimal(total):.3e}"
        raise ExactTooLargeError(
            f"C({n}, {n1}) = {count} exceeds the exact-enumeration cap {EXACT_CAP}"
        )
    return total


def _stream_states(master_seed: int, start: int, stop: int) -> Iterator[tuple[int, int]]:
    """The PCG64 ``(state, inc)`` of replicates ``start`` to ``stop - 1``,
    hashed ``DEFAULT_BLOCK_SIZE`` replicates at a time whatever the block
    size of the stream that reads them, as the hash has a fixed cost (on a
    2-core host, 0.06 ms for 32 replicates, 0.09 ms for 199, 0.23 ms for
    1,024), and built one at a time as they are read (about 0.6 us each):
    a stream that stops early builds only the states of the rows it
    drew."""
    for first in range(start, stop, DEFAULT_BLOCK_SIZE):
        count = min(DEFAULT_BLOCK_SIZE, stop - first)
        yield from _pcg64_seed_states(_replicate_seeds(master_seed, first, count))


_THREAD = threading.local()


def _thread_shuffler() -> tuple[np.random.PCG64, Callable[[np.ndarray], None]]:
    """This thread's PCG64 and the ``shuffle`` of a Generator on it, built
    on the thread's first stream. Seeding a PCG64 runs numpy's
    SeedSequence, about 10 us, which a null study would pay for each of
    its thousand short streams; the seed is never drawn from, as every row
    loads its own state first, so streams that share the generator, one
    after another or interleaved in one thread, draw the rows they draw
    alone."""
    try:
        return _THREAD.shuffler
    except AttributeError:
        bitgen = np.random.PCG64(0)
        _THREAD.shuffler = bitgen, np.random.Generator(bitgen).shuffle
        return _THREAD.shuffler


def iter_label_blocks(
    plan: PermutationPlan,
    group_codes: np.ndarray,
    block_size: int = DEFAULT_BLOCK_SIZE,
    start: int = 0,
    stop: int | None = None,
) -> Iterator[np.ndarray]:
    """Yield (b, N) int8 blocks of group-size-preserving label assignments:
    rows ``start`` to ``stop - 1`` of the stream (``stop`` None: to its
    end), so any split of the range yields the rows of the whole.

    Monte Carlo: replicate b's labels are
    ``np.random.default_rng(derive_replicate_seed(master_seed, b)).permutation``
    of ``group_codes`` (see the module docstring); any ``block_size``
    yields the same rows.
    Exact: every treatment index set, in ``itertools.combinations`` order.
    A ``block_size`` below 1 is a ValueError.
    """
    if block_size < 1:
        raise ValueError(f"block size must be >= 1, got {block_size}")
    base = np.asarray(group_codes, dtype=np.int8)
    n = base.size
    n1 = int(base.sum())
    total = n_assignments(plan, n, n1)
    stop = total if stop is None else stop
    if not 0 <= start <= stop <= total:
        raise ValueError(f"replicate range [{start}, {stop}) is not within [0, {total})")

    if plan.mode is InferenceMode.PERMUTATION:
        bitgen, shuffle = _thread_shuffler()
        # shuffle draws the same intervals for any dtype; intp takes its
        # fast path.
        codes = base.astype(np.intp)
        work = np.empty_like(codes)
        states = _stream_states(plan.master_seed, start, stop)
        # The setter reads the values it is given, so one state dict is
        # refilled for every row (about 0.3 us a row less than a new one).
        words = {"state": 0, "inc": 0}
        full = {"bit_generator": "PCG64", "state": words, "has_uint32": 0, "uinteger": 0}
        done = start
        while done < stop:
            b = min(block_size, stop - done)
            block = np.empty((b, n), dtype=np.int8)
            for k, (words["state"], words["inc"]) in enumerate(islice(states, b)):
                bitgen.state = full
                work[:] = codes
                shuffle(work)
                block[k] = work
            yield block
            done += b
    else:
        combos = islice(combinations(range(n), n1), start, stop)
        while True:
            chunk = list(islice(combos, block_size))
            if not chunk:
                return
            block = np.zeros((len(chunk), n), dtype=np.int8)
            for k, treat_idx in enumerate(chunk):
                block[k, list(treat_idx)] = 1
            yield block


def _n_extreme(observed: float, draws: np.ndarray) -> int:
    """How many null draws are at least as extreme as ``observed``: |draw|
    >= |observed|, with a NaN draw extreme and every draw extreme against a
    NaN observed statistic (fully degenerate data)."""
    draws = np.asarray(draws, dtype=np.float64)
    if math.isnan(observed):
        return draws.size
    return int(np.count_nonzero((np.abs(draws) >= abs(observed)) | np.isnan(draws)))


def _stream_p(plan: PermutationPlan, n_extreme: int, total: int) -> float:
    """The p of a ``total``-assignment stream with ``n_extreme`` extreme draws."""
    if plan.mode is InferenceMode.PERMUTATION:
        return (1 + n_extreme) / (total + 1)
    return n_extreme / total


def pvalue_from_draws(
    observed: float, draws: np.ndarray, plan: PermutationPlan, total: int
) -> tuple[float, dict]:
    """Apply the engine's counting conventions to the null draws that begin
    a ``total``-assignment stream (all of it, unless it was curtailed):
    the p and the six permutation fields of the result metadata.

    Non-finite draws are counted as extreme and flagged; a NaN observed
    statistic (fully degenerate data) makes every draw extreme, so p = 1.
    """
    draws = np.asarray(draws, dtype=np.float64)
    n_extreme = _n_extreme(observed, draws)
    finite = draws[np.isfinite(draws)]
    return _stream_p(plan, n_extreme, total), {
        "replicates_used": draws.size,
        "seed": plan.master_seed,
        "n_extreme": n_extreme,
        "n_nonfinite": draws.size - finite.size,
        "null_mean": float(finite.mean()) if finite.size else math.nan,
        "null_sd": float(finite.std(ddof=1)) if finite.size > 1 else math.nan,
    }


# Label entries converted to float64 at a time by ``label_product``: a 1 MB
# copy stays in cache for its product, which measured 1.5x (N=2467) to 4x
# (N=10,000) faster than converting a whole 1024-row block at once.
_PRODUCT_ENTRIES = 1 << 17


def label_product(block: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``block @ weights`` for a 0/1 label block and float64 weights that
    are integers or half-integers, as float64 BLAS products over row slices
    (numpy runs integer matmuls without BLAS, several times slower). The
    result equals exact arithmetic bit for bit, in any order of summation:
    each partial sum is a multiple of 1/2 whose double is an integer below
    2**53. Integer weights are net and decided counts, at most N each, so a
    sum is at most N**2. Half-integer weights are the midranks of
    ``obrien_test`` and ``multirank_test``, or their sums over K endpoints,
    at most K N each, so a sum is at most K N**2; exactness needs
    K N**2 < 2**52, which N = 10**6 meets for K up to 4,500.
    """
    step = max(1, _PRODUCT_ENTRIES // max(block.shape[1], 1))
    return np.concatenate(
        [block[r : r + step].astype(np.float64) @ weights for r in range(0, len(block), step)]
    )


_STREAM_CACHE_BYTES = 1 << 25  # most bytes one bit-packed label stream may keep

# Fewest labels (replicates x N) in one share of a fresh Monte Carlo stream
# drawn and reduced over forked workers: a smaller share saves less work
# than forking and joining its worker costs. On 2 cores (rank sum and win
# ratio, medians of 10 interleaved rounds), two workers broke even on the
# first test's pass below 0.5M labels at N = 40, near 1M at N = 200 and at
# 2-4M at N = 2467, as they did while the caller reduced, and took
# 0.60-0.89 of the serial time at 4M.
_SHARE_ENTRIES = 1 << 19

# The one kept label stream, {dataset: (plan, packed rows)}: one bit per
# label, at most one entry, gone when its dataset is.
_kept: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

# Rows per block of a stream with a decision level, which may stop after any
# block: a smaller block draws fewer rows past the point where the decision
# is known, but calls the reducer more often. On the null_n20 study (5
# methods x 200 trials at N=40, B=199, alpha 0.05, serial, 2-core host),
# blocks of 16, 32 and 64 rows drew 46, 56 and 80 rows a trial in a median
# 2.51, 2.45 and 2.69 s of CPU, against 4.01 s for the whole stream. Once
# a trial built only the seed states of the rows it drew, and multirank
# its test-level constants once, blocks of 16, 32 and 48 rows drew 49, 58
# and 69 rows a trial in a median 1.53, 1.36 and 1.62 s of CPU (10
# interleaved rounds).
_DECISION_BLOCK = 32


def _stream_workers(plan: PermutationPlan, n: int, total: int) -> int:
    """How many processes draw and reduce a fresh stream of ``total``
    replicates at N = ``n``: ``forking.host_worker_count`` of its
    ``_SHARE_ENTRIES``-label shares, so 1 below two shares and for an exact
    plan."""
    shares = total * n // _SHARE_ENTRIES
    if plan.mode is not InferenceMode.PERMUTATION or shares < 2:
        return 1
    return forking.host_worker_count(shares)


def _reduce_share(
    plan: PermutationPlan,
    group_codes: np.ndarray,
    reduce: Callable[[np.ndarray], np.ndarray],
    packed: np.ndarray | None,
    start: int,
    stop: int,
) -> np.ndarray:
    """The null statistics of rows ``start`` to ``stop - 1`` of the stream,
    as float64 (empty for an empty share). Each block is written bit-packed
    into ``packed``, unless it is None, before ``reduce`` sees it."""
    draws = [np.empty(0)]
    for block in iter_label_blocks(plan, group_codes, start=start, stop=stop):
        if packed is not None:
            packed[start : start + len(block)] = np.packbits(block, axis=1)
            start += len(block)
        draws.append(reduce(block))
    return np.concatenate(draws)


def permutation_test(
    observed: float,
    reduce: Callable[[np.ndarray], np.ndarray],
    ds: TrialDataset,
    plan: PermutationPlan,
) -> tuple[float, dict]:
    """The one permutation driver every test runs through: the p of
    ``observed`` and the six permutation fields of the result metadata
    (see :func:`pvalue_from_draws`).

    ``reduce`` maps a (b, N) label block from :func:`iter_label_blocks`
    over ``ds.group_codes`` to the b null statistics of its rows. The
    driver picks the stream and decides where it ends (see the module
    docstring): a plan without ``decide_at`` replays the copy kept for
    ``ds`` under an equal plan, or else draws and reduces the stream in
    shares; a plan with ``decide_at`` draws it lazily in the caller in
    ``_DECISION_BLOCK``-row blocks, kept by no one, and stops after the
    first block at which the full p is known to exceed that level.
    """
    total = n_assignments(plan, ds.n, ds.n_treatment)
    kept_plan, packed = _kept.get(ds, (None, None))
    if plan.decide_at is not None:
        draws, n_extreme = [], 0
        for block in iter_label_blocks(plan, ds.group_codes, _DECISION_BLOCK):
            draws.append(reduce(block))
            n_extreme += _n_extreme(observed, draws[-1])
            if _stream_p(plan, n_extreme, total) > plan.decide_at:
                break
    elif kept_plan == plan:
        rows = (packed[r : r + DEFAULT_BLOCK_SIZE] for r in range(0, total, DEFAULT_BLOCK_SIZE))
        draws = [reduce(np.unpackbits(b, axis=1, count=ds.n).view(np.int8)) for b in rows]
    else:
        _kept.clear()
        size = total * ((ds.n + 7) // 8)
        packed = None
        if size <= _STREAM_CACHE_BYTES:
            packed = np.frombuffer(mmap.mmap(-1, size), dtype=np.uint8).reshape(total, -1)
        share = partial(_reduce_share, plan, ds.group_codes, reduce, packed)
        draws = forking.run_shares(share, total, _stream_workers(plan, ds.n, total))
        if packed is not None:
            _kept[ds] = (plan, packed)
    return pvalue_from_draws(observed, np.concatenate(draws), plan, total)


def conclude(
    method: str,
    statistic: float,
    variance: float,
    z: float,
    metadata: dict,
    plan: PermutationPlan | None,
    reduce: Callable[[np.ndarray], np.ndarray] | None,
    ds: TrialDataset,
    asymptotic_p: Callable[[], float],
) -> TestResult:
    """The one way a test ends. Without a plan the p-value is
    ``asymptotic_p()``, called only then, and ``reduce`` may be None. With
    one it comes from :func:`permutation_test` of ``reduce`` over the labels
    of ``ds`` against ``statistic``, and the six driver fields join
    ``metadata``. ``reduce`` may run in forked workers, so it must not
    count on changing state in the caller."""
    if plan is None:
        return TestResult(
            method, statistic, variance, z, asymptotic_p(), InferenceMode.ASYMPTOTIC, metadata
        )
    p, fields = permutation_test(statistic, reduce, ds, plan)
    metadata.update(fields)
    return TestResult(method, statistic, variance, z, p, plan.mode, metadata)
