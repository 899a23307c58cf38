"""Weighted global U-statistic test over endpoint-specific two-sample kernels.

Each endpoint's kernel follows from its kind and scores an ordered
(treatment, control) pair in {-1, 0, +1} with +1 favoring treatment: the
censoring-aware Gehan survival rule for a time-to-event endpoint, a
Mann-Whitney signed difference for a continuous or binary one. The global
statistic is the weight-normalized sum of per-endpoint pair averages; its
asymptotic variance comes from the two-sample projection estimator.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .errors import EmptyAfterExclusionError
from .pairwise import endpoint_level, sweep_counts
from .resampling import PermutationPlan, conclude, label_product
from .results import TestResult, two_sided_p, z_score
from .trial_data import EndpointKind, TrialDataset


def endpoint_weights(ds: TrialDataset, weights: Mapping[str, float] | None = None) -> np.ndarray:
    """The normalized weight of each endpoint of ``ds``, in priority order.

    An endpoint that ``weights`` leaves out weighs 1.0 before normalizing.
    Raises ValueError for an endpoint the dataset lacks, a negative or
    non-finite weight, or weights that are all zero or whose sum overflows.
    """
    names = [s.name for s in ds.endpoint_specs]
    given = dict(weights or {})
    unknown = set(given) - set(names)
    if unknown:
        raise ValueError(f"unknown endpoint(s) {sorted(unknown)}")
    w = np.asarray([float(given.get(name, 1.0)) for name in names], dtype=np.float64)
    for name, weight in zip(names, w):
        if not (weight >= 0 and math.isfinite(weight)):
            raise ValueError(f"weight of {name!r} must be finite and >= 0, got {weight}")
    with np.errstate(over="ignore"):
        total = w.sum()
    if total <= 0:
        raise ValueError("weights must not all be zero")
    if total == math.inf:
        raise ValueError("weights must have a finite sum")
    return w / total


def _combine(pair_sums: np.ndarray, weights: np.ndarray, n_pairs: int) -> np.ndarray:
    """Shared combiner so observed, replicate and relabeled paths use
    identical float operations: sum_k w_k * (count_k / n_pairs).

    Rows of a 2-D count matrix go through the same 1-D dot as a single count
    vector; a matrix-vector product would accumulate in a different order
    and perturb permutation tie counting at the ulp level.
    """
    scaled = np.asarray(pair_sums, dtype=np.float64) / n_pairs
    if scaled.ndim == 1:
        return scaled @ weights
    return np.array([row @ weights for row in scaled])


def global_u_test(
    ds: TrialDataset,
    weights: Mapping[str, float] | None = None,
    plan: PermutationPlan | None = None,
) -> TestResult:
    """Weight-normalized sum of endpoint U-statistics, one per endpoint of
    the dataset; ``weights`` as in ``endpoint_weights``.

    Asymptotic variance: S1^2/n1 + S0^2/n0 with S^2 the sample variances of
    the weighted per-subject projection means within each group. With a
    plan, the p-value is a label permutation of the combined statistic.
    """
    specs = ds.endpoint_specs
    w = endpoint_weights(ds, weights)
    treat = ds.treatment_mask
    n1, n0 = ds.n_treatment, ds.n_control
    n_pairs = n1 * n0

    counts = [sweep_counts([endpoint_level(ds, spec)], treat) for spec in specs]
    # A subject's kernel sum over the other group, from the treatment side.
    vs_other = [c.wins - c.losses for c in counts]
    pair_sums = [int(v[treat].sum()) for v in vs_other]
    statistic = float(_combine(np.asarray(pair_sums, dtype=np.float64), w, n_pairs))

    h_t = np.zeros(n1)
    h_c = np.zeros(n0)
    for w_k, v in zip(w, vs_other):
        h_t += w_k * (v[treat] / n0)
        h_c += w_k * (-v[~treat] / n1)
    s1 = float(h_t.var(ddof=1)) if n1 >= 2 else math.nan
    s0 = float(h_c.var(ddof=1)) if n0 >= 2 else math.nan
    variance = s1 / n1 + s0 / n0

    metadata: dict = {
        "kernels": [
            (s.name, "gehan_survival" if s.kind is EndpointKind.TIME_TO_EVENT
             else "signed_difference")
            for s in specs
        ],
        "weights": [float(w_k) for w_k in w],
        "endpoint_u": {s.name: total / n_pairs for s, total in zip(specs, pair_sums)},
        "n_treatment": n1,
        "n_control": n0,
    }

    if plan is None and math.isnan(variance):
        raise EmptyAfterExclusionError(
            "asymptotic global-U inference needs at least 2 subjects per group"
        )
    z = z_score(statistic, math.sqrt(variance), metadata)
    # g' Phi (1 - g) = g . rowsum(Phi) because every kernel matrix is
    # antisymmetric, so each replicate costs K dot products over the counts.
    row_sums = np.column_stack([c.net for c in counts]).astype(np.float64)
    return conclude(
        "global_u", statistic, variance, z, metadata, plan,
        lambda block: _combine(label_product(block, row_sums), w, n_pairs), ds,
        lambda: two_sided_p(z),
    )
