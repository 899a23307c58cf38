"""Shared fixture-building helpers for the test suite.

A fixture describes its cohort one subject at a time, as plain records that
make no checks of their own. ``dataset`` lays the records out as columns and
calls the ``TrialDataset`` constructor, so the validity rules live there
alone; ``subjects_of`` turns a dataset back into records for the oracles.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from multiendpoint import (
    EndpointKind,
    EndpointSpec,
    TrialDataset,
    forking,
    multirank_test,
    resampling,
)

SURV = EndpointSpec("surv", EndpointKind.TIME_TO_EVENT, priority=1)
SCORE = EndpointSpec("score", EndpointKind.CONTINUOUS, priority=2)
FLAG = EndpointSpec("flag", EndpointKind.BINARY, priority=3)


@dataclass(frozen=True)
class Tte:
    """A time-to-event outcome: follow-up time and whether the event was seen."""

    time: float
    event_observed: bool
    present: bool = True


@dataclass(frozen=True)
class Value:
    """A continuous or binary outcome; ``value`` is None when missing."""

    value: float | None

    @property
    def present(self) -> bool:
        return self.value is not None


@dataclass(frozen=True)
class Subject:
    id: str
    group: int  # 1 = treatment, 0 = control
    outcomes: Mapping[str, Tte | Value]
    covariates: dict[str, float] = field(default_factory=dict)


def tte(time, event=True) -> Tte:
    return Tte(float(time), bool(event))


def cont(value=None) -> Value:
    return Value(None if value is None else float(value))


binary = cont


def subject(sid, group, **outcomes) -> Subject:
    return Subject(str(sid), int(group), dict(outcomes))


def dataset(subjects: Sequence[Subject], specs: Sequence[EndpointSpec]) -> TrialDataset:
    """The records as a dataset over ``specs``; a covariate that a subject
    lacks is NaN (missing)."""
    columns = {}
    for spec in specs:
        outs = [s.outcomes[spec.name] for s in subjects]
        if spec.kind is EndpointKind.TIME_TO_EVENT:
            columns[spec.name] = ([o.time for o in outs], [o.event_observed for o in outs])
        else:
            values = [math.nan if o.value is None else o.value for o in outs]
            columns[spec.name] = (values, [o.present for o in outs])
    names = sorted({k for s in subjects for k in s.covariates})
    covariates = {k: [s.covariates.get(k, math.nan) for s in subjects] for k in names}
    return TrialDataset(
        specs, [s.id for s in subjects], [s.group for s in subjects], columns, covariates
    )


def subjects_of(ds: TrialDataset) -> list[Subject]:
    """The rows of ``ds`` as records; missing covariates are left out."""
    outcomes: dict[str, list] = {}
    for spec in ds.endpoint_specs:
        if spec.kind is EndpointKind.TIME_TO_EVENT:
            pairs = zip(ds.times(spec.name).tolist(), ds.events_observed(spec.name).tolist())
            outcomes[spec.name] = [Tte(t, e) for t, e in pairs]
        else:
            pairs = zip(ds.values(spec.name).tolist(), ds.present(spec.name).tolist())
            outcomes[spec.name] = [Value(v if p else None) for v, p in pairs]
    covariates = {k: ds.covariate(k).tolist() for k in ds.covariate_names}
    return [
        Subject(
            sid,
            int(g),
            {name: col[i] for name, col in outcomes.items()},
            {k: col[i] for k, col in covariates.items() if not math.isnan(col[i])},
        )
        for i, (sid, g) in enumerate(zip(ds.ids, ds.group_codes.tolist()))
    ]


def survival_cohort(times, events, groups) -> TrialDataset:
    """Single-endpoint time-to-event cohort."""
    subs = [
        subject(f"s{i}", g, surv=tte(t, e))
        for i, (t, e, g) in enumerate(zip(times, events, groups))
    ]
    return dataset(subs, [SURV])


def results_equal(a, b) -> bool:
    """TestResult equality treating NaN fields as equal."""

    def feq(x, y):
        if isinstance(x, float) and isinstance(y, float):
            return (math.isnan(x) and math.isnan(y)) or x == y
        return x == y

    return (
        a.method == b.method
        and feq(a.statistic, b.statistic)
        and feq(a.variance, b.variance)
        and feq(a.z, b.z)
        and feq(a.p_two_sided, b.p_two_sided)
        and a.inference_mode == b.inference_mode
        and a.metadata == b.metadata
    )


def result_bits(result):
    """Every field of a result, or both items of the permutation driver's
    ``(p, fields)``, floats (also nested) by ``float.hex``."""

    def bits(v):
        if isinstance(v, float):
            return v.hex()
        if isinstance(v, dict):
            return {k: bits(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [bits(x) for x in v]
        return v

    return bits(result if isinstance(result, tuple) else vars(result))


def win_tallies(result) -> tuple[int, int, int]:
    """(wins, losses, ties) from a win-ratio result's metadata."""
    return tuple(result.metadata[k] for k in ("n_wins", "n_losses", "n_ties"))


def multirank_checked(ds: TrialDataset, **kwargs):
    """``multirank_test(ds, **kwargs)`` with its warnings recorded: the
    singular-covariance warning fires, once, exactly when the result flags
    ``singular_covariance``, and nothing else is warned."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = multirank_test(ds, **kwargs)
    messages = [str(w.message) for w in caught]
    assert len(messages) == int(result.metadata["singular_covariance"]), messages
    assert all(m.startswith("rank covariance is singular") for m in messages), messages
    return result


def random_integer_cohort(rng: np.random.Generator, n: int, missing_prob: float = 0.15):
    """Random small cohort with integer-valued outcomes (keeps all downstream
    float arithmetic exact) and at least 2 complete cases per group.

    Returns (subjects, specs). Deterministic rejection sampling on the rng.
    """
    specs = [SURV, SCORE, FLAG]
    while True:
        n1 = int(rng.integers(2, n - 1))
        subs = []
        complete = {0: 0, 1: 0}
        for i in range(n):
            g = 1 if i < n1 else 0
            miss_score = rng.random() < missing_prob
            miss_flag = rng.random() < missing_prob
            subs.append(
                subject(
                    f"r{i}",
                    g,
                    surv=tte(int(rng.integers(1, 40)), bool(rng.random() < 0.7)),
                    score=cont(None if miss_score else int(rng.integers(-20, 21))),
                    flag=binary(None if miss_flag else int(rng.integers(0, 2))),
                )
            )
            if not (miss_score or miss_flag):
                complete[g] += 1
        if complete[0] >= 2 and complete[1] >= 2:
            return subs, specs


def count_label_streams(monkeypatch) -> list:
    """The plans of the fresh label streams drawn whole from now on, one
    entry each, counted in the caller when their shares start, whether the
    shares then run in the caller or in workers. A test that replays a kept
    stream draws none, and a plan with ``decide_at`` is not counted."""
    plans = []
    run_shares = forking.run_shares

    def counted(task, n_items, n_workers):
        if getattr(task, "func", None) is resampling._reduce_share:
            plans.append(task.args[0])
        return run_shares(task, n_items, n_workers)

    monkeypatch.setattr(forking, "run_shares", counted)
    return plans
