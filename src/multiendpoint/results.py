"""Result containers shared by the test modules."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

# Smallest p-value we report; keeps p strictly positive when a normal tail
# underflows to 0.0 at extreme z.
MIN_P = 1e-300


class InferenceMode(Enum):
    ASYMPTOTIC = "asymptotic"
    PERMUTATION = "permutation"
    EXACT = "exact"


def clamp_p(p: float) -> float:
    if math.isnan(p):
        return p
    return min(max(p, MIN_P), 1.0)


@dataclass(frozen=True)
class TestResult:
    """One two-sided test outcome.

    ``z = statistic / sqrt(variance)`` whenever ``variance > 0`` and the mode
    is asymptotic; quadratic-form statistics carry variance 0 and z = NaN.
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

