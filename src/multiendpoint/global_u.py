"""Weighted global U-statistic test over endpoint-specific two-sample kernels.

Each kernel scores an ordered (treatment, control) pair in {-1, 0, +1} with
+1 favoring treatment: a Mann-Whitney signed difference for continuous and
binary endpoints, or the censoring-aware Gehan survival rule for
time-to-event endpoints. The global statistic is the weight-normalized sum
of per-endpoint pair averages; its asymptotic variance comes from the
two-sample projection estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np
from scipy import stats as sps

from .errors import EmptyAfterExclusionError, KernelKindMismatchError
from .pairwise import Level, PairCounts, endpoint_level, sweep_counts
from .resampling import PermutationPlan, conclude, label_product
from .results import TestResult, two_sided_p, z_score
from .trial_data import EndpointKind, TrialDataset


class KernelType(Enum):
    SIGNED_DIFFERENCE = "signed_difference"
    GEHAN_SURVIVAL = "gehan_survival"


@dataclass(frozen=True)
class KernelSpec:
    endpoint: str
    kernel: KernelType
    weight: float = 1.0

    def __post_init__(self):
        if not (self.weight >= 0 and math.isfinite(self.weight)):
            raise ValueError(f"kernel weight must be finite and >= 0, got {self.weight}")


def default_kernels(ds: TrialDataset) -> list[KernelSpec]:
    """Equal-weight kernel per endpoint: Gehan for time-to-event, signed
    difference otherwise."""
    out = []
    for spec in sorted(ds.endpoint_specs, key=lambda s: s.priority):
        kernel = (
            KernelType.GEHAN_SURVIVAL
            if spec.kind is EndpointKind.TIME_TO_EVENT
            else KernelType.SIGNED_DIFFERENCE
        )
        out.append(KernelSpec(spec.name, kernel, 1.0))
    return out


def _kernel_level(ds: TrialDataset, spec: KernelSpec) -> Level:
    ep = ds.spec(spec.endpoint)
    if spec.kernel is KernelType.GEHAN_SURVIVAL:
        if ep.kind is not EndpointKind.TIME_TO_EVENT:
            raise KernelKindMismatchError(
                f"GehanSurvival kernel requires a time-to-event endpoint, "
                f"{spec.endpoint!r} is {ep.kind.value}"
            )
    else:
        if ep.kind is EndpointKind.TIME_TO_EVENT:
            raise KernelKindMismatchError(
                f"SignedDifference kernel cannot apply to time-to-event "
                f"endpoint {spec.endpoint!r}"
            )
    return endpoint_level(ds, ep)


@dataclass(frozen=True)
class EndpointUStatistic:
    endpoint: str
    kernel: KernelType
    u: float
    pair_sum: int
    projection_treatment: np.ndarray  # mean kernel of each treatment subject vs controls
    projection_control: np.ndarray  # mean kernel (treatment perspective) vs each control


def _endpoint_u(ds: TrialDataset, spec: KernelSpec, counts: PairCounts) -> EndpointUStatistic:
    treat = ds.treatment_mask
    vs_other = counts.wins - counts.losses
    pair_sum = int(vs_other[treat].sum())
    return EndpointUStatistic(
        endpoint=spec.endpoint,
        kernel=spec.kernel,
        u=pair_sum / (ds.n_treatment * ds.n_control),
        pair_sum=pair_sum,
        projection_treatment=vs_other[treat] / ds.n_control,
        projection_control=-vs_other[~treat] / ds.n_treatment,
    )


def endpoint_u(ds: TrialDataset, spec: KernelSpec) -> EndpointUStatistic:
    """Per-endpoint pair average U_k plus per-subject projection means."""
    return _endpoint_u(ds, spec, sweep_counts([_kernel_level(ds, spec)], ds.treatment_mask))


def _normalized_weights(kernels: Sequence[KernelSpec]) -> np.ndarray:
    w = np.asarray([k.weight for k in kernels], dtype=np.float64)
    total = w.sum()
    if total <= 0:
        raise ValueError("kernel weights must not all be zero")
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
    kernels: Sequence[KernelSpec] | None = None,
    plan: PermutationPlan | None = None,
) -> TestResult:
    """Weight-normalized sum of endpoint U-statistics.

    Asymptotic variance: S1^2/n1 + S0^2/n0 with S^2 the sample variances of
    the weighted per-subject projection means within each group. With a
    plan, the p-value is a label permutation of the combined statistic.
    """
    if kernels is None:
        kernels = default_kernels(ds)
    if not kernels:
        raise ValueError("at least one kernel is required")
    weights = _normalized_weights(kernels)
    n1, n0 = ds.n_treatment, ds.n_control
    n_pairs = n1 * n0

    counts = [sweep_counts([_kernel_level(ds, k)], ds.treatment_mask) for k in kernels]
    parts = [_endpoint_u(ds, k, c) for k, c in zip(kernels, counts)]
    pair_sums = np.asarray([p.pair_sum for p in parts], dtype=np.float64)
    statistic = float(_combine(pair_sums, weights, n_pairs))

    h_t = np.zeros(n1)
    h_c = np.zeros(n0)
    for w, p in zip(weights, parts):
        h_t += w * p.projection_treatment
        h_c += w * p.projection_control
    s1 = float(h_t.var(ddof=1)) if n1 >= 2 else math.nan
    s0 = float(h_c.var(ddof=1)) if n0 >= 2 else math.nan
    variance = s1 / n1 + s0 / n0

    metadata: dict = {
        "kernels": [(k.endpoint, k.kernel.value) for k in kernels],
        "weights": [float(w) for w in weights],
        "endpoint_u": {p.endpoint: p.u for p in parts},
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
        lambda block: _combine(label_product(block, row_sums), weights, n_pairs),
        ds.group_codes,
        lambda: two_sided_p(z, sps.norm.sf),
    )
