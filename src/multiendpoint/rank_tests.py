"""Rank-based global tests: O'Brien's rank-sum test (naive and
heteroscedasticity-adjusted variance) and a multivariate-rank quadratic-form
test.

Ranking is complete-case by construction: subjects missing any listed
endpoint are excluded and the exclusion count reported, since midranks over
partially missing columns would silently change N per column. Time-to-event
endpoints are first converted to censoring-aware net survival scores
(Gehan scores), so one endpoint's censoring never leaks into the others.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import stats as sps

from .errors import EmptyAfterExclusionError, EmptyGroupError
from .pairwise import gehan_score_vector
from .resampling import PermutationPlan, inference_mode, label_product, permutation_test
from .results import InferenceMode, TestResult, clamp_p
from .trial_data import Direction, EndpointKind, EndpointSpec, TrialDataset

VARIANCE_NAIVE = "naive"
VARIANCE_ADJUSTED = "adjusted"


@dataclass(frozen=True)
class RankMatrix:
    """Pooled midranks per endpoint, direction-aligned so a larger rank is a
    better outcome. Rows cover the complete-case subset only."""

    ranks: np.ndarray  # (n_kept, K) float64 midranks
    endpoint_names: tuple[str, ...]
    kept_indices: np.ndarray
    treatment_mask: np.ndarray
    n_excluded: int

    @property
    def n(self) -> int:
        return self.ranks.shape[0]

    @property
    def k(self) -> int:
        return self.ranks.shape[1]

    @property
    def column_rank_sums(self) -> np.ndarray:
        return self.ranks.sum(axis=0)


def _endpoint_names(ds: TrialDataset, endpoints: Sequence[str] | Sequence[EndpointSpec] | None) -> list[str]:
    if endpoints is None:
        return [s.name for s in sorted(ds.endpoint_specs, key=lambda s: s.priority)]
    names = [e.name if isinstance(e, EndpointSpec) else str(e) for e in endpoints]
    if not names:
        raise ValueError("endpoint list must be non-empty")
    return names


def rank_matrix(
    ds: TrialDataset, endpoints: Sequence[str] | Sequence[EndpointSpec] | None = None
) -> RankMatrix:
    """Column-wise pooled midranks over the complete-case subset."""
    names = _endpoint_names(ds, endpoints)
    keep = np.ones(ds.n, dtype=bool)
    for name in names:
        keep &= ds.present(name)
    kept = np.flatnonzero(keep)
    if kept.size == 0:
        raise EmptyAfterExclusionError(
            f"complete-case filtering removed all {ds.n} subjects"
        )

    cols = []
    for name in names:
        spec = ds.spec(name)
        if spec.kind is EndpointKind.TIME_TO_EVENT:
            score = gehan_score_vector(ds.times(name)[kept], ds.events_observed(name)[kept])
            score = score.astype(np.float64)
        else:
            score = ds.values(name)[kept].astype(np.float64)
            if spec.direction is Direction.LOWER_IS_BETTER:
                score = -score
        cols.append(sps.rankdata(score, method="average"))

    return RankMatrix(
        ranks=np.column_stack(cols),
        endpoint_names=tuple(names),
        kept_indices=kept,
        treatment_mask=ds.treatment_mask[kept],
        n_excluded=ds.n - kept.size,
    )


def _require_groups(rm: RankMatrix):
    n1 = int(rm.treatment_mask.sum())
    if n1 == 0 or n1 == rm.n:
        raise EmptyGroupError(
            "a group is empty after complete-case exclusion "
            f"(kept={rm.n}, treatment={n1})"
        )


def _kept_weights(rm: RankMatrix, n: int, columns: np.ndarray) -> np.ndarray:
    """``columns`` (one row per kept subject) and a kept indicator as label
    product weights over all ``n`` subjects, zero on the excluded ones: a
    label row's product is its treatment-group sums and its kept treatment
    count, exact because midranks are half-integers."""
    weights = np.zeros((n, columns.shape[1] + 1))
    weights[rm.kept_indices] = np.column_stack([columns, np.ones(rm.n)])
    return weights


def obrien_test(
    ds: TrialDataset,
    endpoints: Sequence[str] | Sequence[EndpointSpec] | None = None,
    variance: str = VARIANCE_NAIVE,
    plan: PermutationPlan | None = None,
) -> TestResult:
    """Difference in group means of per-subject rank sums.

    ``variance="naive"`` uses the pooled two-sample t form;
    ``variance="adjusted"`` uses a Welch-type heteroscedasticity-consistent
    estimate. With a plan, the p-value is a label permutation of the mean
    difference.
    """
    if variance not in (VARIANCE_NAIVE, VARIANCE_ADJUSTED):
        raise ValueError(f"unknown variance option {variance!r}")
    rm = rank_matrix(ds, endpoints)
    _require_groups(rm)
    row_sums = rm.ranks.sum(axis=1)
    mask = rm.treatment_mask
    n1 = int(mask.sum())
    n0 = rm.n - n1
    weights = _kept_weights(rm, ds.n, row_sums[:, None])
    total = float(row_sums.sum())

    def reduce(block: np.ndarray) -> np.ndarray:
        s1, n1_b = label_product(block, weights).T
        with np.errstate(divide="ignore", invalid="ignore"):
            return s1 / n1_b - (total - s1) / (rm.n - n1_b)

    statistic = float(reduce(ds.group_codes[None, :])[0])

    var_stat = math.nan
    df = math.nan
    if n1 >= 2 and n0 >= 2:
        v1 = float(row_sums[mask].var(ddof=1))
        v0 = float(row_sums[~mask].var(ddof=1))
        if variance == VARIANCE_NAIVE:
            sp2 = ((n1 - 1) * v1 + (n0 - 1) * v0) / (n1 + n0 - 2)
            var_stat = sp2 * (1.0 / n1 + 1.0 / n0)
            df = n1 + n0 - 2
        else:
            a, b = v1 / n1, v0 / n0
            var_stat = a + b
            if a + b > 0:
                df = (a + b) ** 2 / (a**2 / (n1 - 1) + b**2 / (n0 - 1))

    metadata: dict = {
        "endpoints": list(rm.endpoint_names),
        "variance": variance,
        "df": df,
        "n_treatment": n1,
        "n_control": n0,
        "n_excluded": rm.n_excluded,
    }

    if plan is None:
        if math.isnan(var_stat):
            raise EmptyAfterExclusionError(
                "asymptotic rank-sum inference needs at least 2 subjects per group"
            )
        if var_stat == 0.0:
            metadata["degenerate_variance"] = True
            p = 1.0 if statistic == 0.0 else clamp_p(0.0)
            z = 0.0 if statistic == 0.0 else math.copysign(math.inf, statistic)
            return TestResult("rank_sum", statistic, 0.0, z, p, InferenceMode.ASYMPTOTIC, metadata)
        z = statistic / math.sqrt(var_stat)
        p = clamp_p(2.0 * float(sps.t.sf(abs(z), df)))
        return TestResult("rank_sum", statistic, var_stat, z, p, InferenceMode.ASYMPTOTIC, metadata)

    z = statistic / math.sqrt(var_stat) if var_stat and var_stat > 0 else math.nan
    res = permutation_test(statistic, reduce, ds.group_codes, plan)
    metadata.update(res.metadata())
    return TestResult("rank_sum", statistic, var_stat, z, res.p, inference_mode(plan), metadata)


def _quadform_stats(
    X: np.ndarray, s1: np.ndarray, n1: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rank-Hotelling statistic d' Sigma^-1 d for each labeling, given its
    treatment-group column sums ``s1`` (b, k) of the (n, k) rank matrix
    ``X`` and its treatment count ``n1`` (b,); the observed labeling is the
    one-row case.

    The within-group scatter is computed from sufficient statistics
    (X'X minus the group-mean outer products), so the value is a
    deterministic function of the per-group column sums; labelings that tie
    mathematically tie bitwise, which keeps exact-permutation tie counting
    consistent. Group rank sums are exact (midranks are half-integers), and
    every row sees the same element-wise operations, so a row's value does
    not depend on the block it sits in. Returns (statistics, effective
    ranks): NaN and rank 0 where a group is empty or n < 3, 0.0 where the
    covariance is zero, and the pseudo-inverse form where it is singular
    (rank < k).
    """
    n, k = X.shape
    ok = (n1 > 0) & (n1 < n) & (n >= 3)
    stats = np.full(n1.shape, math.nan)
    ranks = np.zeros(n1.shape, dtype=np.int64)
    if not ok.any():
        return stats, ranks
    xtx = X.T @ X
    colsum = X.sum(axis=0)
    n1 = n1[ok][:, None]
    n0 = n - n1
    s1 = s1[ok]
    m1 = s1 / n1
    m0 = (colsum - s1) / n0
    d = m1 - m0
    scatter = (
        xtx
        - n1[:, :, None] * (m1[:, :, None] * m1[:, None, :])
        - n0[:, :, None] * (m0[:, :, None] * m0[:, None, :])
    )
    sigma = scatter / (n - 2) * (1.0 / n1 + 1.0 / n0)[:, :, None]
    rank = np.linalg.matrix_rank(sigma)
    t = np.zeros(rank.shape)
    full = rank == k
    x = np.linalg.solve(sigma[full], d[full][:, :, None])
    t[full] = (d[full][:, None, :] @ x)[:, 0, 0]
    deficient = (rank > 0) & ~full
    dd = d[deficient][:, None, :]
    t[deficient] = (dd @ np.linalg.pinv(sigma[deficient]) @ dd.transpose(0, 2, 1))[:, 0, 0]
    stats[ok] = t
    ranks[ok] = rank
    return stats, ranks


def multirank_test(
    ds: TrialDataset,
    endpoints: Sequence[str] | Sequence[EndpointSpec] | None = None,
    plan: PermutationPlan | None = None,
) -> TestResult:
    """Quadratic form in the per-endpoint differences of mean midranks,
    scaled by the pooled covariance of the centered rank rows.

    Asymptotic reference: chi-square with df = effective rank (pseudo-inverse
    with a warning when the covariance is singular). Permutation of the
    statistic is the recommended mode.
    """
    rm = rank_matrix(ds, endpoints)
    _require_groups(rm)
    weights = _kept_weights(rm, ds.n, rm.ranks)

    def reduce(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        sums = label_product(block, weights)
        return _quadform_stats(rm.ranks, sums[:, :-1], sums[:, -1])

    stats, ranks = reduce(ds.group_codes[None, :])
    statistic, rank = float(stats[0]), int(ranks[0])
    singular = rank < rm.k
    if math.isnan(statistic):
        raise EmptyAfterExclusionError("multirank test needs at least 3 complete-case subjects")
    if singular:
        warnings.warn(
            f"rank covariance is singular (rank {rank} < {rm.k}); using pseudo-inverse",
            RuntimeWarning,
        )

    metadata: dict = {
        "endpoints": list(rm.endpoint_names),
        "df": rank,
        "singular_covariance": singular,
        "n_treatment": int(rm.treatment_mask.sum()),
        "n_control": int(rm.n - rm.treatment_mask.sum()),
        "n_excluded": rm.n_excluded,
    }

    if plan is None:
        if rank == 0:
            metadata["degenerate_variance"] = True
            return TestResult("multirank", 0.0, 0.0, math.nan, 1.0,
                              InferenceMode.ASYMPTOTIC, metadata)
        p = clamp_p(float(sps.chi2.sf(statistic, rank)))
        return TestResult("multirank", statistic, 0.0, math.nan, p,
                          InferenceMode.ASYMPTOTIC, metadata)

    res = permutation_test(statistic, lambda block: reduce(block)[0], ds.group_codes, plan)
    metadata.update(res.metadata())
    return TestResult("multirank", statistic, 0.0, math.nan, res.p, inference_mode(plan), metadata)
