"""Uniform front door to the five test procedures.

Every test returns a :class:`TestResult`, so the CLI, the simulation
studies and the acceptance harness treat them alike; ``run_method`` picks
the test by name.
"""

from __future__ import annotations

from typing import Mapping

from .global_u import global_u_test
from .pairwise_tests import fs_test, win_ratio_test
from .rank_tests import VARIANCE_NAIVE, multirank_test, obrien_test
from .resampling import PermutationPlan
from .results import TestResult
from .trial_data import TrialDataset

METHOD_NAMES = ("rank_sum", "fs", "win_ratio", "multirank", "global_u")


def run_method(
    name: str,
    ds: TrialDataset,
    plan: PermutationPlan | None = None,
    *,
    variance: str = VARIANCE_NAIVE,
    weights: Mapping[str, float] | None = None,
) -> TestResult:
    if name == "rank_sum":
        return obrien_test(ds, variance=variance, plan=plan)
    if name == "fs":
        return fs_test(ds, plan=plan)
    if name == "win_ratio":
        return win_ratio_test(ds, plan=plan)
    if name == "multirank":
        return multirank_test(ds, plan=plan)
    if name == "global_u":
        return global_u_test(ds, weights, plan)
    raise ValueError(f"unknown method {name!r}; known: {METHOD_NAMES}")
