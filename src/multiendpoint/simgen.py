"""Synthetic two-group trial generator with correlated mixed endpoints.

Dependence is imposed through a Gaussian copula: one latent multivariate
normal row per subject, mapped through marginal inverse CDFs to an
exponential event time (uniform administrative censoring), a normal
continuous value and a Bernoulli response. Used by the type-I-error and
power studies, which fan their trials out over forked worker processes;
everything is deterministic under the config seed, at any worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial

import numpy as np

from . import forking
from .errors import InvalidCorrelationError
from .resampling import SEED_BOUND, PermutationPlan, derive_replicate_seed
from .trial_data import EndpointKind, EndpointSpec, TrialDataset

SIM_EVENT = "event"
SIM_MARKER = "marker"
SIM_RESPONSE = "response"

SIM_ENDPOINT_SPECS = (
    EndpointSpec(SIM_EVENT, EndpointKind.TIME_TO_EVENT, priority=1),
    EndpointSpec(SIM_MARKER, EndpointKind.CONTINUOUS, priority=2),
    EndpointSpec(SIM_RESPONSE, EndpointKind.BINARY, priority=3),
)

# Latent correlation of ``SimConfig.null``: (event, marker, response).
NULL_CORRELATION = ((1.0, 0.3, 0.2), (0.3, 1.0, 0.25), (0.2, 0.25, 1.0))


def _require_finite(*values: float) -> None:
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"model parameters must be finite, got {values}")


@dataclass(frozen=True)
class SurvivalModel:
    hazard_treatment: float  # exponential event hazard per day
    hazard_control: float
    censor_horizon: float  # admin censoring ~ Uniform(0, horizon) days

    def __post_init__(self):
        _require_finite(self.hazard_treatment, self.hazard_control, self.censor_horizon)
        if min(self.hazard_treatment, self.hazard_control) <= 0:
            raise ValueError("hazards must be strictly positive")
        if self.censor_horizon <= 0:
            raise ValueError("censoring horizon must be strictly positive")


@dataclass(frozen=True)
class ContinuousModel:
    mean_treatment: float
    mean_control: float
    sd_treatment: float = 1.0
    sd_control: float = 1.0

    def __post_init__(self):
        _require_finite(self.mean_treatment, self.mean_control, self.sd_treatment, self.sd_control)
        if min(self.sd_treatment, self.sd_control) <= 0:
            raise ValueError("SDs must be strictly positive")


@dataclass(frozen=True)
class BinaryModel:
    p_treatment: float
    p_control: float

    def __post_init__(self):
        for p in (self.p_treatment, self.p_control):
            if not 0.0 <= p <= 1.0:
                raise ValueError("event probabilities must lie in [0, 1]")


def _check_correlation(corr: np.ndarray) -> np.ndarray:
    """Read-only copula factor F (F F' = corr) of a valid 3x3 correlation
    matrix, factored once per distinct matrix; an invalid one raises every time."""
    corr = np.asarray(corr, dtype=np.float64)
    if corr.shape != (3, 3):
        raise InvalidCorrelationError(f"correlation must be 3x3, got {corr.shape}")
    return _correlation_factor(tuple(map(tuple, corr.tolist())))


@lru_cache(maxsize=32)
def _correlation_factor(rows: tuple[tuple[float, ...], ...]) -> np.ndarray:
    corr = np.array(rows)
    if not np.allclose(corr, corr.T, atol=1e-12):
        raise InvalidCorrelationError("correlation matrix must be symmetric")
    if not np.allclose(np.diag(corr), 1.0, atol=1e-12):
        raise InvalidCorrelationError("correlation matrix must have unit diagonal")
    eigvals, eigvecs = np.linalg.eigh(corr)
    if eigvals.min() < -1e-9:
        raise InvalidCorrelationError(
            f"correlation matrix is not PSD (min eigenvalue {eigvals.min():.3g})"
        )
    factor = eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))
    factor.flags.writeable = False
    return factor


@dataclass(frozen=True)
class SimConfig:
    """Generator parameters: one time-to-event, one continuous and one binary
    endpoint, with a 3x3 latent correlation."""

    n_per_group: int
    survival: SurvivalModel
    continuous: ContinuousModel
    binary: BinaryModel
    correlation: tuple[tuple[float, float, float], ...] = (
        (1.0, 0.0, 0.0),
        (0.0, 1.0, 0.0),
        (0.0, 0.0, 1.0),
    )
    seed: int = 0

    def __post_init__(self):
        if self.n_per_group < 1:
            raise ValueError("n_per_group must be >= 1")
        if not 0 <= self.seed < SEED_BOUND:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        _check_correlation(np.asarray(self.correlation))

    @classmethod
    def null(cls, n_per_group: int, seed: int = 0) -> "SimConfig":
        """Identical group parameters: the exchangeability null."""
        return cls(
            n_per_group=n_per_group,
            survival=SurvivalModel(0.002, 0.002, 1000.0),
            continuous=ContinuousModel(0.0, 0.0, 1.0, 1.0),
            binary=BinaryModel(0.5, 0.5),
            correlation=NULL_CORRELATION,
            seed=seed,
        )


@lru_cache(maxsize=8)
def _subject_ids(n: int) -> tuple[str, ...]:
    return tuple(f"sim{i:05d}" for i in range(n))


def simulate_trial(cfg: SimConfig) -> TrialDataset:
    """Draw one trial; deterministic under ``cfg.seed``."""
    from scipy import special

    factor = _check_correlation(np.asarray(cfg.correlation))
    rng = np.random.default_rng(cfg.seed)
    n = 2 * cfg.n_per_group
    treat = np.zeros(n, dtype=bool)
    treat[: cfg.n_per_group] = True

    z = rng.standard_normal((n, 3)) @ factor.T
    u_event = special.ndtr(z[:, 0])
    censor = rng.uniform(0.0, cfg.survival.censor_horizon, size=n)

    hazard = np.where(treat, cfg.survival.hazard_treatment, cfg.survival.hazard_control)
    # Larger latent value => later event (better outcome).
    with np.errstate(divide="ignore"):
        t_event = -np.log1p(-u_event) / hazard
    time = np.minimum(t_event, censor)
    observed = t_event <= censor

    mean = np.where(treat, cfg.continuous.mean_treatment, cfg.continuous.mean_control)
    sd = np.where(treat, cfg.continuous.sd_treatment, cfg.continuous.sd_control)
    with np.errstate(over="ignore"):  # the dataset constructor reports an infinite marker
        marker = mean + sd * z[:, 1]

    p_bin = np.where(treat, cfg.binary.p_treatment, cfg.binary.p_control)
    response = (special.ndtr(z[:, 2]) < p_bin).astype(np.float64)

    present = np.ones(n, dtype=bool)
    return TrialDataset(
        SIM_ENDPOINT_SPECS,
        _subject_ids(n),
        treat.astype(np.int8),
        {
            SIM_EVENT: (time, observed),
            SIM_MARKER: (marker, present),
            SIM_RESPONSE: (response, present),
        },
    )


@dataclass(frozen=True)
class RejectionReport:
    method: str
    alpha: float
    n_trials: int
    n_rejected: int
    rate: float
    ci_low: float
    ci_high: float
    seed: int
    metadata: dict = field(default_factory=dict)


def binomial_ci(successes: int, trials: int, level: float = 0.95) -> tuple[float, float]:
    """Exact (Clopper-Pearson) binomial confidence interval."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    from scipy import special

    a = (1.0 - level) / 2.0
    failures = trials - successes
    low = 0.0 if successes == 0 else float(special.betaincinv(successes, failures + 1, a))
    high = 1.0 if failures == 0 else float(special.betaincinv(successes + 1, failures, 1 - a))
    return low, high


def binomial_band(p: float, trials: int, level: float = 0.95) -> tuple[float, float]:
    """Exact binomial acceptance band for an observed rate around a nominal
    probability: the central ``level`` quantile range of Binomial(trials, p),
    each end the smallest count whose CDF reaches its tail, expressed as
    rates."""
    from scipy import special

    a = (1.0 - level) / 2.0
    cdf = special.bdtr(np.arange(trials + 1), trials, p)
    low, high = np.searchsorted(cdf, [a, 1.0 - a]) / trials
    return float(low), float(high)


def error_rate_study(
    cfg: SimConfig,
    method: str,
    alpha: float,
    n_trials: int,
    plan: PermutationPlan,
) -> RejectionReport:
    """Fraction of simulated trials a method rejects at ``alpha``.

    Trial t draws its data from a seed derived from ``cfg.seed`` and its
    permutation stream from one derived from ``plan.master_seed``; the two
    streams are tagged so they never coincide. Each trial's plan has
    ``decide_at=alpha``: its label stream stops once the full stream's p
    is known to exceed ``alpha`` (see ``resampling``), so a trial that
    does not reject usually draws a prefix of its B replicates, and a
    result with ``replicates_used`` below B was curtailed. The decision is
    exact: every count is the one the full streams give.

    The trials are split into contiguous shares, one per usable core and
    at most ``n_trials`` of them, run by ``forking.run_shares``; the
    ``forking`` module docstring states how workers start, report and end.
    A trial's seeds come from its index alone, so the report is identical
    at any worker count, and an exception is the one the lowest-numbered
    failing trial raised.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    import scipy.special  # noqa: F401  loaded once here, not once per forked worker

    count = partial(_count_rejections, cfg, method, alpha, plan)
    n_rejected = sum(forking.run_shares(count, n_trials, forking.host_worker_count(n_trials)))
    rate = n_rejected / n_trials
    low, high = binomial_ci(n_rejected, n_trials)
    return RejectionReport(
        method=method,
        alpha=alpha,
        n_trials=n_trials,
        n_rejected=n_rejected,
        rate=rate,
        ci_low=low,
        ci_high=high,
        seed=cfg.seed,
        metadata={"plan_seed": plan.master_seed, "replicates": plan.replicates,
                  "n_per_group": cfg.n_per_group},
    )


def _count_rejections(
    cfg: SimConfig, method: str, alpha: float, plan: PermutationPlan, start: int, stop: int
) -> int:
    """How many of trials ``start`` to ``stop - 1`` reject at ``alpha``."""
    from .methods import run_method  # local import: methods depends on the test modules

    sim_stream = derive_replicate_seed(cfg.seed, 0)
    plan_stream = derive_replicate_seed(plan.master_seed, 1)
    n_rejected = 0
    for t in range(start, stop):
        ds = simulate_trial(replace(cfg, seed=derive_replicate_seed(sim_stream, t)))
        plan_t = replace(plan, master_seed=derive_replicate_seed(plan_stream, t), decide_at=alpha)
        result = run_method(method, ds, plan_t)
        if result.p_two_sided <= alpha:
            n_rejected += 1
    return n_rejected
