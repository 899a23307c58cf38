"""Uniform front door to the five test procedures.

``run_method`` returns a :class:`TestResult` for every method so the CLI,
the simulation studies and the acceptance harness can treat them alike; the
win ratio's richer result stays available through ``win_ratio_test``.
"""

from __future__ import annotations

import math
from typing import Sequence

from .global_u import KernelSpec, global_u_test
from .pairwise_tests import fs_test, win_ratio_test
from .rank_tests import VARIANCE_NAIVE, multirank_test, obrien_test
from .resampling import PermutationPlan
from .results import TestResult
from .trial_data import EndpointSpec, TrialDataset

METHOD_NAMES = ("rank_sum", "fs", "win_ratio", "multirank", "global_u")


def _win_ratio_as_test_result(ds, hierarchy, plan) -> TestResult:
    wr = win_ratio_test(ds, hierarchy, plan)
    if wr.n_wins == 0 and wr.n_losses == 0:
        statistic = 0.0
    else:
        statistic = wr.log_wr if wr.log_wr is not None else (
            math.inf if wr.n_losses == 0 else -math.inf
        )
    se = wr.metadata.get("jackknife_se")
    metadata = dict(wr.metadata)
    metadata.update(
        {
            "n_wins": wr.n_wins,
            "n_losses": wr.n_losses,
            "n_ties": wr.n_ties,
            "win_ratio": wr.win_ratio,
            "ci_95": list(wr.ci_95) if wr.ci_95 is not None else None,
        }
    )
    z = metadata.pop("z", math.nan)
    return TestResult(
        method="win_ratio",
        statistic=statistic,
        variance=se**2 if se is not None else math.nan,
        z=z,
        p_two_sided=wr.p_two_sided,
        inference_mode=wr.inference_mode,
        metadata=metadata,
    )


def run_method(
    name: str,
    ds: TrialDataset,
    plan: PermutationPlan | None = None,
    *,
    variance: str = VARIANCE_NAIVE,
    hierarchy: Sequence[EndpointSpec] | None = None,
    endpoints: Sequence[str] | None = None,
    kernels: Sequence[KernelSpec] | None = None,
) -> TestResult:
    if name == "rank_sum":
        return obrien_test(ds, endpoints, variance=variance, plan=plan)
    if name == "fs":
        return fs_test(ds, hierarchy, plan)
    if name == "win_ratio":
        return _win_ratio_as_test_result(ds, hierarchy, plan)
    if name == "multirank":
        return multirank_test(ds, endpoints, plan)
    if name == "global_u":
        return global_u_test(ds, kernels, plan)
    raise ValueError(f"unknown method {name!r}; known: {METHOD_NAMES}")
