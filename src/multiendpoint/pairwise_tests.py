"""Inference built on the pairwise kernel: the hierarchical sum-of-scores
test (generalized Gehan-Wilcoxon) and the win ratio.

Both tests read per-subject counts from one row-tiled sweep of every subject
pair (``pairwise.pair_counts``), so they hold no N x N matrix. A permutation
replicate of fs needs only the net scores: a float64 product with each
label block. The win ratio's wins + losses under relabeling is g'|S|(1 - g) for
labels g; with |S| = J - I - T, T the pairs tied at every level, that is
g'd - n1(n1 - 1) + 2 * (tie pairs inside the relabeled treatment group),
from the tie list the same sweep gives. A cohort with more tie pairs than
the sweep keeps falls back to the dense |S| and one float32 product per
block. Every product is exact: each partial sum is an integer, far below
2**24 in float32 and 2**53 in float64.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np
from scipy import stats as sps

from .pairwise import PairCounts, determinacy_matrix, pair_counts, pairwise_score_vector
from .resampling import PermutationPlan, inference_mode, label_product, permutation_test
from .results import InferenceMode, TestResult, WinRatioResult, clamp_p
from .trial_data import EndpointSpec, MissingPolicy, TrialDataset, validate_hierarchy


def _resolve_hierarchy(
    ds: TrialDataset, hierarchy: Sequence[EndpointSpec] | None
) -> tuple[EndpointSpec, ...]:
    return validate_hierarchy(hierarchy if hierarchy is not None else ds.endpoint_specs)


def _complete_case_kept(ds: TrialDataset, hierarchy: Sequence[EndpointSpec]) -> np.ndarray:
    """Indices of subjects present on every COMPLETE_CASE endpoint."""
    keep = np.ones(ds.n, dtype=bool)
    for spec in hierarchy:
        if spec.missing_policy is MissingPolicy.COMPLETE_CASE:
            keep &= ds.present(spec.name)
    return np.flatnonzero(keep)


def fs_test(
    ds: TrialDataset,
    hierarchy: Sequence[EndpointSpec] | None = None,
    plan: PermutationPlan | None = None,
) -> TestResult:
    """Sum over treatment subjects of their net pairwise scores against the
    pooled cohort.

    Asymptotic variance is the permutation moment
    ``n1 * n0 / (N (N-1)) * sum(u_i^2)``; with ``plan`` given, the p-value
    comes from the resampling engine instead (the closed form is still
    reported).
    """
    hierarchy = _resolve_hierarchy(ds, hierarchy)
    kept = _complete_case_kept(ds, hierarchy)
    sub = ds if kept.size == ds.n else ds.subset(kept)

    u = pairwise_score_vector(sub, hierarchy)
    treat = sub.treatment_mask
    statistic = float(u[treat].sum())
    n1, n0, n = sub.n_treatment, sub.n_control, sub.n
    variance = float(n1 * n0 * np.sum(u.astype(np.float64) ** 2) / (n * (n - 1)))

    metadata: dict = {
        "hierarchy": [s.name for s in hierarchy],
        "n_treatment": n1,
        "n_control": n0,
        "n_excluded": ds.n - kept.size,
    }

    if variance == 0.0:
        metadata["degenerate_variance"] = True
        return TestResult("fs", 0.0, 0.0, 0.0, 1.0, inference_mode(plan), metadata)

    z = statistic / math.sqrt(variance)
    if plan is None:
        p = clamp_p(2.0 * float(sps.norm.sf(abs(z))))
        return TestResult("fs", statistic, variance, z, p, InferenceMode.ASYMPTOTIC, metadata)

    u_all = np.zeros(ds.n)  # zero on excluded subjects, so no column gather
    u_all[kept] = u
    res = permutation_test(
        statistic, lambda block: label_product(block, u_all), ds.group_codes, plan
    )
    metadata.update(res.metadata())
    return TestResult("fs", statistic, variance, z, res.p, inference_mode(plan), metadata)


def _log_ratio(wins: float, losses: float) -> float:
    """log(wins) - log(losses): inf/-inf for one-sided zeros, NaN for 0/0.

    The difference form (rather than log of the quotient) makes a label swap
    negate the value exactly in floating point, so the two-sided permutation
    p-value is bit-for-bit invariant under swapping the groups.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.log(np.float64(wins)) - np.log(np.float64(losses)))


def win_ratio_test(
    ds: TrialDataset,
    hierarchy: Sequence[EndpointSpec] | None = None,
    plan: PermutationPlan | None = None,
) -> WinRatioResult:
    """Tally wins/losses/ties over all treatment x control ordered pairs.

    Asymptotic inference: delete-one-subject jackknife SE on log WR over the
    pooled cohort, normal reference, 95% CI on the ratio scale. With a plan,
    the p-value comes from label permutation of log WR; an unbounded observed
    ratio suppresses the asymptotic summary but still permutes (non-finite
    replicate values count as extreme).
    """
    hierarchy = _resolve_hierarchy(ds, hierarchy)
    kept = _complete_case_kept(ds, hierarchy)
    sub = ds if kept.size == ds.n else ds.subset(kept)

    counts = pair_counts(sub, hierarchy, collect_ties=plan is not None)
    treat = sub.treatment_mask
    n1, n0 = sub.n_treatment, sub.n_control
    n_wins = int(counts.wins[treat].sum())
    n_losses = int(counts.losses[treat].sum())
    n_ties = n1 * n0 - n_wins - n_losses

    metadata: dict = {
        "hierarchy": [s.name for s in hierarchy],
        "n_treatment": n1,
        "n_control": n0,
        "n_excluded": ds.n - kept.size,
    }

    if n_wins == 0 and n_losses == 0:
        metadata["degenerate"] = True
        return WinRatioResult(
            n_wins, n_losses, n_ties, math.nan, None, None, 1.0, inference_mode(plan), metadata
        )

    if n_losses == 0:
        win_ratio = math.inf
        metadata["unbounded"] = True
    elif n_wins == 0:
        win_ratio = 0.0
        metadata["zero_wins"] = True
    else:
        win_ratio = n_wins / n_losses
    observed_log = _log_ratio(n_wins, n_losses)
    finite = math.isfinite(observed_log)

    log_wr: float | None = observed_log if finite else None
    ci: tuple[float, float] | None = None
    se = math.nan
    z = math.nan
    if finite:
        loo = _jackknife_log_wr(counts, treat, n_wins, n_losses)
        if loo is not None:
            n_pool = n1 + n0
            se = math.sqrt((n_pool - 1) / n_pool * float(np.sum((loo - loo.mean()) ** 2)))
            metadata["jackknife_se"] = se
            if se > 0:
                z = observed_log / se
                ci = (math.exp(observed_log - 1.96 * se), math.exp(observed_log + 1.96 * se))
            else:
                metadata["degenerate_variance"] = True
        else:
            metadata["jackknife_suppressed"] = True

    if plan is None:
        if finite and se > 0:
            p = clamp_p(2.0 * float(sps.norm.sf(abs(z))))
        elif finite and se == 0:
            p = 1.0 if observed_log == 0 else clamp_p(0.0)
        else:
            p = math.nan  # asymptotic inference suppressed
        metadata["z"] = z
        return WinRatioResult(
            n_wins, n_losses, n_ties, win_ratio, log_wr, ci, p,
            InferenceMode.ASYMPTOTIC, metadata,
        )

    dense = None if counts.ties is not None else determinacy_matrix(sub, hierarchy)
    reduce = _log_wr_reducer(counts, kept, ds.n, dense)
    res = permutation_test(observed_log, reduce, ds.group_codes, plan)
    metadata.update(res.metadata())
    metadata["z"] = z
    return WinRatioResult(
        n_wins, n_losses, n_ties, win_ratio, log_wr, ci, res.p, inference_mode(plan), metadata
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


def _log_wr_reducer(
    counts: PairCounts, kept: np.ndarray, n: int, dense: np.ndarray | None
) -> Callable[[np.ndarray], np.ndarray]:
    """Block reducer for the null draws of log WR. For labels g over the kept
    subjects, wins - losses = g'u and wins + losses = g'd - g'|S|g, with u
    and d the net and determinate counts. g'|S|g is n1(n1 - 1) minus twice
    the tie pairs inside the treatment group, or, given the ``dense`` |S|,
    one float32 product."""
    # Columns u, d and 1 over the kept subjects, zero on the excluded ones.
    weights = np.zeros((n, 3))
    weights[kept] = np.column_stack([counts.net, counts.determinate, np.ones(kept.size)])
    if dense is None:
        subjects, pairs = np.unique(kept[counts.ties.ravel()], return_inverse=True)
        pairs = pairs.reshape(2, -1)

    def reduce(block: np.ndarray) -> np.ndarray:
        diff, g_det, n1 = label_product(block, weights).T
        if dense is None:
            quad = n1 * (n1 - 1) - 2.0 * _tie_products(block, subjects, pairs)
        else:
            gf = (block if kept.size == n else block[:, kept]).astype(np.float32)
            quad = np.einsum("bi,bi->b", gf @ dense, gf, dtype=np.float64)
        det = g_det - quad
        wins = (det + diff) / 2.0
        losses = (det - diff) / 2.0
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(wins) - np.log(losses)

    return reduce
