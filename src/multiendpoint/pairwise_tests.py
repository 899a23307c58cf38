"""Inference built on the pairwise kernel: the hierarchical sum-of-scores
test (generalized Gehan-Wilcoxon) and the win ratio.

Both tests read per-subject counts from one sweep of every subject pair
(``pairwise.pair_counts``), so they hold no N x N matrix. Each test asks
for the counts it reads: fs the net scores alone, and the win ratio
without a plan the wins and losses against the other group. Above 127
subjects both are counted by sorting, the deeper endpoints too, in
O(N log N) time, when the deeper endpoints are value endpoints, with
missing values or not: every hierarchy the simulator or the CLI builds.
A deeper time-to-event endpoint, and a cohort of at most 127, is
compared pair by pair in blocks. The win ratio under a plan asks for every count and the tie
list, which the same path gives. A permutation replicate of fs needs
only the net scores: a float64 product with each label block. The win
ratio's wins + losses under relabeling is g'|S|(1 - g) for labels g; with
|S| = J - I - T, T the pairs tied at every level, that is g'd - n1(n1 - 1)
+ 2 * (tie pairs inside the relabeled treatment group), from the tie list
of a sweep of every field, at any number of tie pairs; its cost grows
linearly in them. Every product is exact: each partial sum is an
integer, far below 2**53 in float64.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .pairwise import BETWEEN, NET, PairCounts, pair_counts
from .resampling import PermutationPlan, conclude, label_product
from .results import TestResult, two_sided_p, z_score
from .trial_data import TrialDataset


def fs_test(ds: TrialDataset, plan: PermutationPlan | None = None) -> TestResult:
    """Sum over treatment subjects of their net pairwise scores against the
    pooled cohort, under the dataset's hierarchy.

    Asymptotic variance is the permutation moment
    ``n1 * n0 / (N (N-1)) * sum(u_i^2)``; with ``plan`` given, the p-value
    comes from the resampling engine instead (the closed form is still
    reported).
    """
    u = pair_counts(ds, fields=NET).net
    weights = u.astype(np.float64)
    statistic = float(u[ds.treatment_mask].sum())
    n1, n0, n = ds.n_treatment, ds.n_control, ds.n
    variance = float(n1 * n0 * np.sum(weights**2) / (n * (n - 1)))

    metadata: dict = {
        "hierarchy": [s.name for s in ds.endpoint_specs],
        "n_treatment": n1,
        "n_control": n0,
        "n_excluded": 0,
    }
    z = z_score(statistic, math.sqrt(variance), metadata)
    return conclude(
        "fs", statistic, variance, z, metadata, plan,
        lambda block: label_product(block, weights), ds,
        lambda: two_sided_p(z),
    )


def _log_ratio(wins: float, losses: float) -> float:
    """log(wins) - log(losses): inf/-inf for one-sided zeros, NaN for 0/0.

    The difference form (rather than log of the quotient) makes a label swap
    negate the value exactly in floating point, so the two-sided permutation
    p-value is bit-for-bit invariant under swapping the groups.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.log(np.float64(wins)) - np.log(np.float64(losses)))


def win_ratio_test(ds: TrialDataset, plan: PermutationPlan | None = None) -> TestResult:
    """Log win ratio over all treatment x control ordered pairs, under the
    dataset's hierarchy.

    ``statistic`` is log(wins) - log(losses): inf/-inf when the ratio is
    unbounded (wins with zero losses) or has zero wins, and 0.0 when no pair
    was determinate. ``metadata`` holds the tallies ``n_wins``, ``n_losses``
    and ``n_ties``, the ratio ``win_ratio`` (inf when unbounded, NaN when no
    pair was determinate) and ``ci_95`` (None unless the ratio is finite,
    positive and has a positive SE).

    Asymptotic inference: delete-one-subject jackknife SE on log WR over the
    pooled cohort (``variance`` is its square, NaN when there is none),
    normal reference, 95% CI on the ratio scale. With a plan, the p-value
    comes from label permutation of log WR; an unbounded observed ratio
    suppresses the asymptotic summary but still permutes (non-finite
    replicate values count as extreme).
    """
    # Only the permutation null reads the net and decided counts and the ties.
    counts = pair_counts(ds, collect_ties=True) if plan else pair_counts(ds, fields=BETWEEN)
    treat = ds.treatment_mask
    n1, n0 = ds.n_treatment, ds.n_control
    n_wins = int(counts.wins[treat].sum())
    n_losses = int(counts.losses[treat].sum())
    n_ties = n1 * n0 - n_wins - n_losses

    metadata: dict = {
        "hierarchy": [s.name for s in ds.endpoint_specs],
        "n_treatment": n1,
        "n_control": n0,
        "n_excluded": 0,
    }
    statistic = _log_ratio(n_wins, n_losses)
    se = math.nan
    ci = None
    degenerate = n_wins == 0 and n_losses == 0
    if degenerate:
        metadata["degenerate"] = True
        statistic = 0.0
    elif n_losses == 0:
        metadata["unbounded"] = True
    elif n_wins == 0:
        metadata["zero_wins"] = True
    else:
        loo = _jackknife_log_wr(counts, treat, n_wins, n_losses)
        if loo is not None:
            n_pool = n1 + n0
            se = math.sqrt((n_pool - 1) / n_pool * float(np.sum((loo - loo.mean()) ** 2)))
            metadata["jackknife_se"] = se
            if se > 0:
                ci = [math.exp(statistic - 1.96 * se), math.exp(statistic + 1.96 * se)]
        else:
            metadata["jackknife_suppressed"] = True
    z = z_score(statistic, se, metadata)

    metadata.update(
        n_wins=n_wins,
        n_losses=n_losses,
        n_ties=n_ties,
        win_ratio=n_wins / n_losses if n_losses else (math.inf if n_wins else math.nan),
        ci_95=ci,
    )
    # With no determinate pair every relabeling's log WR is NaN too: p = 1
    # in both modes.
    return conclude(
        "win_ratio", statistic, se**2, z, metadata, plan,
        None if plan is None else _log_wr_reducer(counts), ds,
        lambda: 1.0 if degenerate else two_sided_p(z),
    )


def _jackknife_log_wr(
    counts: PairCounts, treat: np.ndarray, n_wins: int, n_losses: int
) -> np.ndarray | None:
    """Delete-one log win ratios over the pooled cohort; None when any
    leave-one-out ratio is unbounded or zero. A control's losses are the
    treatment wins it takes part in."""
    w_t = counts.wins[treat]
    l_t = counts.losses[treat]
    w_c = counts.losses[~treat]
    l_c = counts.wins[~treat]
    wins_loo = np.concatenate([n_wins - w_t, n_wins - w_c]).astype(np.float64)
    losses_loo = np.concatenate([n_losses - l_t, n_losses - l_c]).astype(np.float64)
    if np.any(wins_loo <= 0) or np.any(losses_loo <= 0):
        return None
    return np.log(wins_loo / losses_loo)


# Label entries per chunk of gathered tie pairs.
_TIE_CHUNK_ENTRIES = 1 << 20


def _tie_products(block: np.ndarray, subjects: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Per block row, the number of tie pairs whose two subjects both carry
    label 1; ``pairs`` holds positions in ``subjects``, the block columns
    that take part in some tie."""
    labels = block.T[subjects]  # a subject's labels are one contiguous row
    out = np.zeros(block.shape[0], dtype=np.int64)
    step = max(1, _TIE_CHUNK_ENTRIES // block.shape[0])
    for start in range(0, pairs.shape[1], step):
        both = labels[pairs[0, start : start + step]]
        both &= labels[pairs[1, start : start + step]]
        out += both.sum(axis=0, dtype=np.int32)
    return out


def _log_wr_reducer(counts: PairCounts) -> Callable[[np.ndarray], np.ndarray]:
    """Block reducer for the null draws of log WR. For labels g, wins -
    losses = g'u and wins + losses = g'd - g'|S|g, with u and d the net and
    determinate counts, and g'|S|g is n1(n1 - 1) minus twice the tie pairs
    inside the treatment group. ``counts`` holds every field and the tie
    list."""
    weights = np.column_stack([counts.net, counts.determinate, np.ones(counts.net.size)])
    subjects, pairs = np.unique(counts.ties.ravel(), return_inverse=True)
    pairs = pairs.reshape(2, -1).astype(np.int32)  # positions below N

    def reduce(block: np.ndarray) -> np.ndarray:
        diff, g_det, n1 = label_product(block, weights).T
        det = g_det - (n1 * (n1 - 1) - 2.0 * _tie_products(block, subjects, pairs))
        wins = (det + diff) / 2.0
        losses = (det - diff) / 2.0
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(wins) - np.log(losses)

    return reduce
