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
is seeded per block: the PCG64 states of a whole block of replicates are
computed at once in numpy (splitmix64, then numpy's documented
``SeedSequence`` mix with pool size 4), and each is loaded in turn into one
reused generator.

Stream lifetime: the tests that run on one dataset under one plan share one
label stream. The first draws it whole into a bit-packed copy, one bit per
label, keyed by the dataset, whose group codes cannot change; every test,
the first too, replays the copy block for block. A long Monte Carlo stream
is drawn in contiguous shares of its replicate range by forked workers,
which write their rows in place into the copy, held in shared memory (see
``_packed_stream`` and the ``forking`` module). The copy lives as long as
its dataset, or until a stream is drawn for another dataset or plan: one
copy is kept at a time, and none beyond ``_STREAM_CACHE_BYTES`` (the
replica's 10,000 replicates at N=2467 take 3.1 MB). A stream over that cap
is streamed in the caller as it is drawn.
"""

from __future__ import annotations

import math
import mmap
import weakref
from dataclasses import dataclass, replace
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


def _hash_constants(init: int, mult: int, calls: int) -> list[tuple[np.uint32, np.uint32]]:
    """The (xor, multiply) constants of ``calls`` successive SeedSequence
    hashmix calls; the hash constant advances independently of the data."""
    out = []
    for _ in range(calls):
        nxt = (init * mult) & 0xFFFFFFFF
        out.append((np.uint32(init), np.uint32(nxt)))
        init = nxt
    return out


_POOL_CONSTANTS = _hash_constants(_SS_INIT_A, _SS_MULT_A, 4 + 12)  # fill + cross-mix
_OUTPUT_CONSTANTS = _hash_constants(_SS_INIT_B, _SS_MULT_B, 8)  # 4 uint64 words


def _hashmix(value: np.ndarray, constants: tuple[np.uint32, np.uint32]) -> np.ndarray:
    xor, mul = constants
    value = (value ^ xor) * mul
    return value ^ (value >> np.uint32(16))


def _pcg64_seed_states(seeds: np.ndarray) -> list[tuple[int, int]]:
    """``(state, inc)`` of ``np.random.PCG64(s)`` for each uint64 seed s.

    Vectorised ``SeedSequence(s).generate_state(4, np.uint64)`` followed by
    PCG64's ``set_seed`` step. A 64-bit seed is one or two uint32 entropy
    words; the pool of 4 is filled by hashing them and then zero words, so
    ``[lo, hi, 0, 0]`` gives the same pool in both cases.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    zero = np.zeros(seeds.shape, dtype=np.uint32)
    words = [seeds.astype(np.uint32), (seeds >> np.uint64(32)).astype(np.uint32), zero, zero]
    constants = iter(_POOL_CONSTANTS)
    pool = [_hashmix(w, next(constants)) for w in words]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = pool[dst] * _SS_MIX_L - _hashmix(pool[src], next(constants)) * _SS_MIX_R
                pool[dst] = mixed ^ (mixed >> np.uint32(16))
    out = [_hashmix(pool[i % 4], c).astype(np.uint64) for i, c in enumerate(_OUTPUT_CONSTANTS)]
    seed_hi, seed_lo, inc_hi, inc_lo = (
        (out[2 * j] | (out[2 * j + 1] << np.uint64(32))).tolist() for j in range(4)
    )
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(seed_hi, seed_lo, inc_hi, inc_lo):
        # pcg_setseq_128_srandom_r: one LCG step from 0, add the seed, step.
        inc = ((((i_hi << 64) | i_lo) << 1) | 1) & _MASK128
        state = ((inc + ((s_hi << 64) | s_lo)) * _PCG64_MULT + inc) & _MASK128
        states.append((state, inc))
    return states


@dataclass(frozen=True)
class PermutationPlan:
    """How to resample: Monte Carlo with B replicates
    (``InferenceMode.PERMUTATION``), or exact enumeration of all C(N, n1)
    label assignments (``InferenceMode.EXACT``, at most ``EXACT_CAP``).
    Sidedness is fixed two-sided."""

    mode: InferenceMode = InferenceMode.PERMUTATION
    replicates: int = DEFAULT_REPLICATES
    master_seed: int = 0

    def __post_init__(self):
        if self.mode not in (InferenceMode.PERMUTATION, InferenceMode.EXACT):
            raise ValueError(f"unknown permutation mode {self.mode!r}")
        if self.mode is InferenceMode.PERMUTATION and self.replicates < 1:
            raise ValueError("replicate count must be >= 1")
        if not 0 <= self.master_seed < SEED_BOUND:
            raise ValueError(f"master seed must be in [0, 2**64), got {self.master_seed}")

    @classmethod
    def monte_carlo(cls, replicates: int = DEFAULT_REPLICATES, seed: int = 0) -> "PermutationPlan":
        return cls(InferenceMode.PERMUTATION, replicates, seed)

    @classmethod
    def exact(cls) -> "PermutationPlan":
        return cls(InferenceMode.EXACT)

    def with_seed(self, seed: int) -> "PermutationPlan":
        return replace(self, master_seed=seed)


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
    of ``group_codes`` (see the module docstring), seeded per block.
    Exact: every treatment index set, in ``itertools.combinations`` order.
    """
    base = np.asarray(group_codes, dtype=np.int8)
    n = base.size
    n1 = int(base.sum())
    total = n_assignments(plan, n, n1)
    stop = total if stop is None else stop
    if not 0 <= start <= stop <= total:
        raise ValueError(f"replicate range [{start}, {stop}) is not within [0, {total})")

    if plan.mode is InferenceMode.PERMUTATION:
        bitgen = np.random.PCG64(0)
        shuffle = np.random.Generator(bitgen).shuffle
        # shuffle draws the same intervals for any dtype; intp takes its
        # fast path.
        codes = base.astype(np.intp)
        work = np.empty_like(codes)
        done = start
        while done < stop:
            b = min(block_size, stop - done)
            block = np.empty((b, n), dtype=np.int8)
            seeds = _replicate_seeds(plan.master_seed, done, b)
            for k, (state, inc) in enumerate(_pcg64_seed_states(seeds)):
                bitgen.state = {
                    "bit_generator": "PCG64",
                    "state": {"state": state, "inc": inc},
                    "has_uint32": 0,
                    "uinteger": 0,
                }
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


@dataclass(frozen=True)
class PermutationResult:
    p: float
    observed: float
    replicates_used: int
    mode: InferenceMode
    n_extreme: int
    n_nonfinite: int
    null_mean: float
    null_sd: float
    master_seed: int

    def metadata(self) -> dict:
        """The permutation fields every test records in its result metadata."""
        return {
            "replicates_used": self.replicates_used,
            "seed": self.master_seed,
            "n_extreme": self.n_extreme,
            "n_nonfinite": self.n_nonfinite,
            "null_mean": self.null_mean,
            "null_sd": self.null_sd,
        }


def pvalue_from_draws(
    observed: float, draws: np.ndarray, plan: PermutationPlan
) -> PermutationResult:
    """Apply the engine's counting conventions to a vector of null draws.

    Non-finite draws are counted as extreme and flagged; a NaN observed
    statistic (fully degenerate data) makes every draw extreme, so p = 1.
    """
    draws = np.asarray(draws, dtype=np.float64)
    nonfinite = ~np.isfinite(draws)
    if math.isnan(observed):
        extreme = np.ones_like(draws, dtype=bool)
    else:
        extreme = np.abs(draws) >= abs(observed)
        extreme |= np.isnan(draws)
    n_extreme = int(extreme.sum())
    total = draws.size
    if plan.mode is InferenceMode.PERMUTATION:
        p = (1 + n_extreme) / (total + 1)
    else:
        p = n_extreme / total
    finite = draws[np.isfinite(draws)]
    return PermutationResult(
        p=float(p),
        observed=float(observed),
        replicates_used=total,
        mode=plan.mode,
        n_extreme=n_extreme,
        n_nonfinite=int(nonfinite.sum()),
        null_mean=float(finite.mean()) if finite.size else math.nan,
        null_sd=float(finite.std(ddof=1)) if finite.size > 1 else math.nan,
        master_seed=plan.master_seed,
    )


# Label entries converted to float64 at a time by ``label_product``: a 1 MB
# copy stays in cache for its product, which measured 1.5x (N=2467) to 4x
# (N=10,000) faster than converting a whole 1024-row block at once.
_PRODUCT_ENTRIES = 1 << 17


def label_product(block: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``block @ weights`` for a 0/1 label block and integer-valued float64
    weights, as float64 BLAS products over row slices (numpy runs integer
    matmuls without BLAS, several times slower). The result equals integer
    arithmetic bit for bit: each partial sum is an integer far below 2**53,
    exact in any order.
    """
    step = max(1, _PRODUCT_ENTRIES // max(block.shape[1], 1))
    return np.concatenate(
        [block[r : r + step].astype(np.float64) @ weights for r in range(0, len(block), step)]
    )


_STREAM_CACHE_BYTES = 1 << 25  # most bytes one bit-packed label stream may keep

# Fewest labels (replicates x N) in one share of a kept Monte Carlo stream
# drawn over forked workers: a smaller share saves less shuffling than
# forking and joining its worker costs (about 6 ms). On 2 cores, two
# workers broke even at 0.2-0.6M labels in all (N = 40, 200 and 2467) and
# took 0.59-0.70 of the serial time from 1M labels on.
_SHARE_ENTRIES = 1 << 19

# The one kept label stream, {dataset: (plan, packed rows)}: one bit per
# label, at most one entry, gone when its dataset is.
_kept: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _label_blocks(plan: PermutationPlan, ds: TrialDataset) -> Iterator[np.ndarray]:
    """The blocks of ``iter_label_blocks(plan, ds.group_codes)``, replayed
    from the kept stream when it was drawn for this dataset under an equal
    plan. Otherwise a stream that packs into ``_STREAM_CACHE_BYTES`` is
    drawn whole by :func:`_packed_stream`, replayed, and kept once fully
    consumed; a larger one is streamed as it is drawn."""
    kept_plan, packed = _kept.get(ds, (None, None))
    if kept_plan != plan:
        _kept.clear()
        total = n_assignments(plan, ds.n, ds.n_treatment)
        if total * ((ds.n + 7) // 8) > _STREAM_CACHE_BYTES:
            yield from iter_label_blocks(plan, ds.group_codes)
            return
        packed = _packed_stream(plan, ds.group_codes, total)
    for r in range(0, len(packed), DEFAULT_BLOCK_SIZE):
        rows = packed[r : r + DEFAULT_BLOCK_SIZE]
        yield np.unpackbits(rows, axis=1, count=ds.n).view(np.int8)
    _kept[ds] = (plan, packed)


def _packed_stream(plan: PermutationPlan, group_codes: np.ndarray, total: int) -> np.ndarray:
    """The ``total`` rows of ``iter_label_blocks(plan, group_codes)``,
    bit-packed, one bit per label.

    The replicate range is split into ``_stream_workers`` contiguous
    shares, run by ``forking.run_shares``. Each writes its rows in place
    into shared anonymous memory, so nothing is pickled or concatenated.
    """
    shared = mmap.mmap(-1, total * ((len(group_codes) + 7) // 8))
    packed = np.frombuffer(shared, dtype=np.uint8).reshape(total, -1)
    n_workers = _stream_workers(plan, len(group_codes), total)
    forking.run_shares(partial(_pack_rows, plan, group_codes, packed), total, n_workers)
    return packed


def _stream_workers(plan: PermutationPlan, n: int, total: int) -> int:
    """How many processes draw a kept stream of ``total`` replicates at N =
    ``n``: ``forking.host_worker_count`` of its ``_SHARE_ENTRIES``-label
    shares, so 1 below two shares and for an exact plan."""
    shares = total * n // _SHARE_ENTRIES
    if plan.mode is not InferenceMode.PERMUTATION or shares < 2:
        return 1
    return forking.host_worker_count(shares)


def _pack_rows(
    plan: PermutationPlan, group_codes: np.ndarray, packed: np.ndarray, start: int, stop: int
) -> None:
    """Write rows ``start`` to ``stop - 1`` of the stream into ``packed``."""
    row = start
    for block in iter_label_blocks(plan, group_codes, start=start, stop=stop):
        packed[row : row + len(block)] = np.packbits(block, axis=1)
        row += len(block)


def permutation_test(
    observed: float,
    reduce: Callable[[np.ndarray], np.ndarray],
    ds: TrialDataset,
    plan: PermutationPlan,
) -> PermutationResult:
    """The one permutation driver every test runs through.

    ``reduce`` maps a (b, N) label block from :func:`iter_label_blocks`
    over ``ds.group_codes`` to the b null statistics of its rows; the
    driver streams the blocks, joins the draws and applies
    :func:`pvalue_from_draws` against ``observed``. Tests on the same
    dataset and plan share one stream, kept for as long as ``ds`` lives
    (see the module docstring).
    """
    draws = [reduce(block) for block in _label_blocks(plan, ds)]
    return pvalue_from_draws(observed, np.concatenate(draws), plan)


def conclude(
    method: str,
    statistic: float,
    variance: float,
    z: float,
    metadata: dict,
    plan: PermutationPlan | None,
    reduce: Callable[[np.ndarray], np.ndarray],
    ds: TrialDataset,
    asymptotic_p: Callable[[], float],
) -> TestResult:
    """The one way a test ends. Without a plan the p-value is
    ``asymptotic_p()``, called only then. With one it comes from
    :func:`permutation_test` of ``reduce`` over the labels of ``ds`` against
    ``statistic``, and the six driver fields join ``metadata``; the label
    stream is kept for the next test on ``ds`` under the same plan for as
    long as ``ds`` lives."""
    if plan is None:
        return TestResult(
            method, statistic, variance, z, asymptotic_p(), InferenceMode.ASYMPTOTIC, metadata
        )
    res = permutation_test(statistic, reduce, ds, plan)
    metadata.update(res.metadata())
    return TestResult(method, statistic, variance, z, res.p, plan.mode, metadata)
