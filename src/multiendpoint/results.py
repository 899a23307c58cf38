"""Result containers shared by the test modules."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable

from scipy import special

# Smallest p-value we report; keeps p strictly positive when a normal tail
# underflows to 0.0 at extreme z.
MIN_P = 1e-300


class InferenceMode(Enum):
    """How a p-value is found: Monte Carlo label permutation, a reference
    distribution, or enumeration of every labeling. The order is that of the
    CLI's ``--mode`` choices, whose default comes first."""

    PERMUTATION = "permutation"
    ASYMPTOTIC = "asymptotic"
    EXACT = "exact"


def clamp_p(p: float) -> float:
    if math.isnan(p):
        return p
    return min(max(p, MIN_P), 1.0)


def z_score(statistic: float, sd: float, metadata: dict) -> float:
    """``statistic / sd`` when ``sd > 0``. A zero ``sd`` is flagged
    ``degenerate_variance`` in ``metadata`` and gives 0 or +-inf; a NaN
    ``sd`` gives NaN."""
    if sd == 0.0:
        metadata["degenerate_variance"] = True
        return 0.0 if statistic == 0.0 else math.copysign(math.inf, statistic)
    return statistic / sd


def normal_sf(x: float) -> float:
    """Upper tail of the standard normal distribution."""
    return special.ndtr(-x)


def two_sided_p(z: float, sf: Callable[[float], float] = normal_sf) -> float:
    """``clamp_p(2 sf(|z|))`` for a reference survival function ``sf``, the
    standard normal unless given. z = 0 gives 1 and z = +-inf gives
    ``MIN_P`` under any reference, also one whose shape is undefined (the
    Welch df of a zero variance)."""
    if z == 0.0:
        return 1.0
    if math.isinf(z):
        return MIN_P
    return clamp_p(2.0 * float(sf(abs(z))))


@dataclass(frozen=True)
class TestResult:
    """One two-sided test outcome.

    One z rule in every mode (see :func:`z_score`): z = statistic / sd when
    sd > 0, with sd the square root of ``variance`` (the win ratio's
    jackknife SE); a zero sd is flagged ``degenerate_variance`` and gives
    z = 0 or +-inf, a NaN sd gives z = NaN. An asymptotic p is
    ``clamp_p(2 sf(|z|))`` of the test's reference distribution. The
    quadratic-form multirank statistic carries variance 0 and z = NaN.
    ``metadata`` records replicates, seed, hierarchy/endpoints, flags.
    """

    method: str
    statistic: float
    variance: float
    z: float
    p_two_sided: float
    inference_mode: InferenceMode
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if not math.isnan(self.p_two_sided) and not (0.0 < self.p_two_sided <= 1.0):
            raise ValueError(f"p_two_sided must lie in (0, 1], got {self.p_two_sided}")
        if not math.isnan(self.variance) and self.variance < 0:
            raise ValueError("variance must be >= 0")

