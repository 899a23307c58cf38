"""Rank-based global tests: O'Brien's rank-sum test (naive and
heteroscedasticity-adjusted variance) and a multivariate-rank quadratic-form
test.

Ranking is complete-case by construction: subjects missing any endpoint of
the dataset are excluded and the exclusion count reported, since midranks over
partially missing columns would silently change N per column. Each endpoint is
read as its pairwise level (``pairwise.endpoint_level``) and scored by its
one-level net count, wins minus losses against every kept subject: the Gehan
score for a time-to-event endpoint, so one endpoint's censoring never leaks
into the others. The midranks of the scores are counted the same way, by
sorting in O(N log N) time.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EmptyAfterExclusionError, EmptyGroupError
from .pairwise import Level, endpoint_level, net_counts
from .resampling import PermutationPlan, conclude, label_product
from .results import TestResult, clamp_p, two_sided_p, z_score
from .trial_data import TrialDataset

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


def rank_matrix(ds: TrialDataset) -> RankMatrix:
    """Column-wise pooled midranks over the complete-case subset, one column
    per endpoint in priority order.

    A subject is kept when no level key is NaN, that is, when every endpoint
    is present. A column ranks the kept subjects' one-level net scores: on
    the level ``hi = lo = s`` of the scores, subject i's net count is
    #{s_j < s_i} - #{s_j > s_i} = 2 midrank_i - (n + 1), an exact integer,
    so ``(n + 1 + net) / 2`` is the midrank to the last bit. A value level
    is such a level already, and its net scores rank as its values do, so
    only a survival level's Gehan scores are counted a second time."""
    levels = [endpoint_level(ds, spec) for spec in ds.endpoint_specs]
    keep = np.ones(ds.n, dtype=bool)
    for lv in levels:
        keep &= ~(np.isnan(lv.hi) | np.isnan(lv.lo))
    kept = np.flatnonzero(keep)
    if kept.size == 0:
        raise EmptyAfterExclusionError(
            f"complete-case filtering removed all {ds.n} subjects"
        )

    everyone = kept.size == ds.n
    cols = []
    for lv in levels:
        if not everyone:
            hi = lv.hi[kept]
            lv = Level(hi, hi if lv.lo is lv.hi else lv.lo[kept])
        net = net_counts(lv)
        if lv.hi is not lv.lo:
            score = net.astype(np.float64)
            net = net_counts(Level(score, score))
        cols.append((kept.size + 1 + net) / 2)

    return RankMatrix(
        ranks=np.column_stack(cols),
        endpoint_names=tuple(s.name for s in ds.endpoint_specs),
        kept_indices=kept,
        treatment_mask=ds.treatment_mask if everyone else ds.treatment_mask[kept],
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
    ds: TrialDataset, variance: str = VARIANCE_NAIVE, plan: PermutationPlan | None = None
) -> TestResult:
    """Difference in group means of per-subject rank sums.

    ``variance="naive"`` uses the pooled two-sample t form;
    ``variance="adjusted"`` uses a Welch-type heteroscedasticity-consistent
    estimate. With a plan, the p-value is a label permutation of the mean
    difference.
    """
    if variance not in (VARIANCE_NAIVE, VARIANCE_ADJUSTED):
        raise ValueError(f"unknown variance option {variance!r}")
    rm = rank_matrix(ds)
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

    if plan is None and math.isnan(var_stat):
        raise EmptyAfterExclusionError(
            "asymptotic rank-sum inference needs at least 2 subjects per group"
        )
    z = z_score(statistic, math.sqrt(var_stat), metadata)

    def asymptotic_p() -> float:
        from scipy.special import stdtr

        return two_sided_p(z, lambda x: stdtr(df, -x))

    return conclude("rank_sum", statistic, var_stat, z, metadata, plan, reduce, ds, asymptotic_p)


def _moments(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.float64]:
    """What ``_quadform_stats`` needs of the rank matrix X besides the
    group sums: X'X, the column sums, and the spectral norm of X'X, which
    sets the rank tolerance."""
    xtx = X.T @ X
    return xtx, X.sum(axis=0), np.linalg.norm(xtx, 2)


def _quadform_stats(
    X: np.ndarray, s1: np.ndarray, n1: np.ndarray, moments: tuple
) -> tuple[np.ndarray, np.ndarray]:
    """Rank-Hotelling statistic d' Sigma^-1 d for each labeling, given its
    treatment-group column sums ``s1`` (b, k) of the (n, k) rank matrix
    ``X`` and its treatment count ``n1`` (b,); the observed labeling is the
    one-row case. ``moments`` is ``_moments(X)``, which a caller that
    reduces many blocks of one X computes once.

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
    xtx, colsum, xtx_norm = moments
    ok = (n1 > 0) & (n1 < n) & (n >= 3)
    stats = np.full(n1.shape, math.nan)
    ranks = np.zeros(n1.shape, dtype=np.int64)
    if not ok.any():
        return stats, ranks
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
    # The scatter is X'X minus the group-mean products, so its rounding is
    # relative to X'X, not to sigma: an exactly singular sigma can keep an
    # eigenvalue of about -eps |X'X| that a tolerance taken from sigma would
    # count. The rank and the pseudo-inverse both cut singular values at
    # the tolerance of X'X, scaled as sigma is.
    scale = (1.0 / n1[:, 0] + 1.0 / n0[:, 0]) / (n - 2)
    tol = xtx_norm * k * np.finfo(np.float64).eps * scale
    sv = np.linalg.svd(sigma, compute_uv=False)
    rank = np.count_nonzero(sv > tol[:, None], axis=-1)
    t = np.zeros(rank.shape)
    # Most blocks have no singular row, and some no regular one: each
    # linear-algebra call is skipped when no row needs it.
    full = rank == k
    if full.any():
        x = np.linalg.solve(sigma[full], d[full][:, :, None])
        t[full] = (d[full][:, None, :] @ x)[:, 0, 0]
    deficient = (rank > 0) & ~full
    if deficient.any():
        dd = d[deficient][:, None, :]
        pinv = np.linalg.pinv(sigma[deficient], rcond=tol[deficient] / sv[deficient, 0])
        t[deficient] = (dd @ pinv @ dd.transpose(0, 2, 1))[:, 0, 0]
    stats[ok] = t
    ranks[ok] = rank
    return stats, ranks


def multirank_test(ds: TrialDataset, plan: PermutationPlan | None = None) -> TestResult:
    """Quadratic form in the per-endpoint differences of mean midranks,
    scaled by the pooled covariance of the centered rank rows.

    Asymptotic reference: chi-square with df = effective rank (pseudo-inverse
    with a warning when the covariance is singular). Permutation of the
    statistic is the recommended mode.
    """
    rm = rank_matrix(ds)
    _require_groups(rm)
    weights = _kept_weights(rm, ds.n, rm.ranks)
    moments = _moments(rm.ranks)

    def reduce(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        sums = label_product(block, weights)
        return _quadform_stats(rm.ranks, sums[:, :-1], sums[:, -1], moments)

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

    if rank == 0:  # zero covariance: the statistic is 0 and p is 1
        metadata["degenerate_variance"] = True

    def asymptotic_p() -> float:
        from scipy.special import chdtrc

        # Rounding can leave a near-singular form slightly negative; the
        # chi-square tail is 1 there, where chdtrc gives NaN.
        return 1.0 if rank == 0 else clamp_p(float(chdtrc(rank, max(statistic, 0.0))))

    return conclude(
        "multirank", statistic, 0.0, math.nan, metadata, plan,
        lambda block: reduce(block)[0], ds, asymptotic_p,
    )
