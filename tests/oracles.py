"""Independent brute-force recomputations used as oracles.

Everything here walks subject pairs and label assignments with plain Python
loops, re-deriving each statistic from its definition rather than calling
the production code paths. Fixtures feed integer-valued outcomes so every
intermediate sum is exact in float64; where a statistic ends in a
transcendental (the log win ratio), the oracle applies the same ``np.log``
ufunc so that tie comparisons against the engine are well defined. The N x N
matrices are built whole from the ``Level`` rule, with no code of the sweep;
property tests pin them to ``compare``.
"""

from __future__ import annotations

import math
from dataclasses import replace
from itertools import combinations
from typing import Sequence

import numpy as np
from scipy import stats as sps

from multiendpoint import Direction, EndpointKind, PermutationPlan, TrialDataset
from multiendpoint.pairwise import Level, _hierarchy_levels, endpoint_level
from multiendpoint.resampling import permutation_test
from support import Subject, Tte, Value

# ---------------------------------------------------------------------------
# pairwise comparison
# ---------------------------------------------------------------------------


def level_verdict(spec, va, vb) -> int:
    if spec.kind is EndpointKind.TIME_TO_EVENT:
        if vb.event_observed and va.time > vb.time:
            return 1
        if va.event_observed and vb.time > va.time:
            return -1
        return 0
    if not (va.present and vb.present):
        return 0
    if va.value == vb.value:
        return 0
    higher_wins = spec.direction is Direction.HIGHER_IS_BETTER
    a_higher = va.value > vb.value
    return 1 if (a_higher == higher_wins) else -1


def compare(a: Subject, b: Subject, hierarchy) -> tuple[int, int | None]:
    for spec in sorted(hierarchy, key=lambda s: s.priority):
        s = level_verdict(spec, a.outcomes[spec.name], b.outcomes[spec.name])
        if s:
            return s, spec.priority
    return 0, None


def score_vector(subjects: Sequence[Subject], hierarchy) -> list[int]:
    out = []
    for a in subjects:
        u = 0
        for b in subjects:
            if a is not b:
                u += compare(a, b, hierarchy)[0]
        out.append(u)
    return out


# ---------------------------------------------------------------------------
# N x N matrices built whole from the level rule
# ---------------------------------------------------------------------------


def level_matrix(levels: Sequence[Level]) -> np.ndarray:
    """The whole N x N int8 verdict matrix of ``levels``: each level's
    verdict is ``[hi_i > lo_j] - [hi_j > lo_i]``, and the first level
    whose verdict is not 0 decides the pair."""
    n = len(levels[0].hi)
    out = np.zeros((n, n), dtype=np.int8)
    for lv in levels:
        beats = (lv.hi[:, None] > lv.lo[None, :]).astype(np.int8)
        out = np.where(out == 0, beats - beats.T, out)
    return out


def verdict_matrix(ds: TrialDataset) -> np.ndarray:
    """N x N int8 matrix of the verdicts of the dataset's hierarchy; entry
    (i, j) = +1 when i beats j. Antisymmetric with zero diagonal."""
    return level_matrix(_hierarchy_levels(ds))


def kernel_matrix(ds: TrialDataset, spec) -> np.ndarray:
    """Antisymmetric N x N int8 matrix of the global-U kernel values
    phi(i, j) of one endpoint."""
    return level_matrix([endpoint_level(ds, spec)])


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def fs_statistic(subjects, hierarchy) -> tuple[float, float]:
    """(T, closed-form variance)."""
    u = score_vector(subjects, hierarchy)
    t = float(sum(ui for s, ui in zip(subjects, u) if s.group == 1))
    n = len(subjects)
    n1 = sum(1 for s in subjects if s.group == 1)
    n0 = n - n1
    v = n1 * n0 * sum(ui * ui for ui in u) / (n * (n - 1))
    return t, float(v)


def win_counts(subjects, hierarchy) -> tuple[int, int, int]:
    wins = losses = ties = 0
    for a in subjects:
        if a.group != 1:
            continue
        for b in subjects:
            if b.group != 0:
                continue
            s, _ = compare(a, b, hierarchy)
            if s > 0:
                wins += 1
            elif s < 0:
                losses += 1
            else:
                ties += 1
    return wins, losses, ties


def log_win_ratio(subjects, hierarchy) -> float:
    w, l, _ = win_counts(subjects, hierarchy)
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.log(np.float64(w)) - np.log(np.float64(l)))


def midranks(values: Sequence[float]) -> list[float]:
    out = []
    for v in values:
        less = sum(1 for x in values if x < v)
        equal = sum(1 for x in values if x == v)
        out.append(less + (equal + 1) / 2.0)
    return out


def gehan_scores(pairs: Sequence[tuple[float, bool]]) -> list[int]:
    out = []
    for ti, ei in pairs:
        s = 0
        for tj, ej in pairs:
            if ej and ti > tj:
                s += 1
            if ei and tj > ti:
                s -= 1
        out.append(s)
    return out


def rank_rows(subjects, specs) -> tuple[list[list[float]], list[Subject]]:
    """Complete-case midrank rows (direction-aligned) and the kept subjects."""
    kept = [
        s
        for s in subjects
        if all(s.outcomes[sp.name].present for sp in specs)
    ]
    cols = []
    for sp in specs:
        if sp.kind is EndpointKind.TIME_TO_EVENT:
            scores = gehan_scores(
                [(s.outcomes[sp.name].time, s.outcomes[sp.name].event_observed) for s in kept]
            )
        else:
            sign = -1.0 if sp.direction is Direction.LOWER_IS_BETTER else 1.0
            scores = [sign * s.outcomes[sp.name].value for s in kept]
        cols.append(midranks(scores))
    rows = [[col[i] for col in cols] for i in range(len(kept))]
    return rows, kept


def obrien_statistic(subjects, specs) -> tuple[float, float, float]:
    """(mean rank-sum difference, naive variance, adjusted variance)."""
    rows, kept = rank_rows(subjects, specs)
    sums = [sum(r) for r in rows]
    s1 = [v for v, s in zip(sums, kept) if s.group == 1]
    s0 = [v for v, s in zip(sums, kept) if s.group == 0]
    n1, n0 = len(s1), len(s0)
    if n1 == 0 or n0 == 0:
        return math.nan, math.nan, math.nan
    stat = sum(s1) / n1 - sum(s0) / n0
    if n1 < 2 or n0 < 2:
        return stat, math.nan, math.nan
    m1, m0 = sum(s1) / n1, sum(s0) / n0
    v1 = sum((x - m1) ** 2 for x in s1) / (n1 - 1)
    v0 = sum((x - m0) ** 2 for x in s0) / (n0 - 1)
    naive = ((n1 - 1) * v1 + (n0 - 1) * v0) / (n1 + n0 - 2) * (1 / n1 + 1 / n0)
    adjusted = v1 / n1 + v0 / n0
    return stat, naive, adjusted


def multirank_statistic(subjects, specs) -> float:
    rows, kept = rank_rows(subjects, specs)
    x = np.asarray(rows, dtype=np.float64)
    mask = np.asarray([s.group == 1 for s in kept])
    n, k = x.shape
    n1 = int(mask.sum())
    n0 = n - n1
    if n1 == 0 or n0 == 0 or n < 3:
        return math.nan
    # Within-group scatter from sufficient statistics (X'X and group sums);
    # all entries are exact dyadic sums for midrank data, so ties across
    # labelings are bitwise consistent with the engine's.
    xtx = np.zeros((k, k))
    for r in rows:
        xtx += np.outer(r, r)
    s1 = np.sum(x[mask], axis=0)
    m1 = s1 / n1
    m0 = (x.sum(axis=0) - s1) / n0
    d = m1 - m0
    sigma = (xtx - n1 * np.outer(m1, m1) - n0 * np.outer(m0, m0)) / (n - 2) * (1 / n1 + 1 / n0)
    # Singular values are cut at the rounding scale of X'X, the matrix that
    # sigma is a difference from, not at sigma's own.
    tol = np.linalg.norm(xtx, 2) * k * np.finfo(float).eps * (1 / n1 + 1 / n0) / (n - 2)
    sv = np.linalg.svd(sigma, compute_uv=False)
    rank = int(np.count_nonzero(sv > tol))
    if rank == 0:
        return 0.0
    if rank < k:
        return float(d @ np.linalg.pinv(sigma, rcond=tol / sv[0]) @ d)
    return float(d @ np.linalg.solve(sigma, d))


def global_u_parts(subjects, specs) -> list[int]:
    """Per-endpoint sum of phi over all treatment x control ordered pairs;
    each endpoint's kernel is the level rule of its kind."""
    return [
        sum(
            level_verdict(spec, a.outcomes[spec.name], b.outcomes[spec.name])
            for a in subjects
            if a.group == 1
            for b in subjects
            if b.group == 0
        )
        for spec in specs
    ]


def global_u_statistic(subjects, specs, weights=None) -> tuple[float, float]:
    """(weighted U, projection variance) over the endpoints ``specs``; an
    endpoint that ``weights`` leaves out weighs 1.0 before normalizing."""
    sums = global_u_parts(subjects, specs)
    n1 = sum(1 for s in subjects if s.group == 1)
    n0 = len(subjects) - n1
    n_pairs = n1 * n0
    w = np.asarray([(weights or {}).get(sp.name, 1.0) for sp in specs], dtype=np.float64)
    w = w / w.sum()
    u = float((np.asarray(sums, dtype=np.float64) / n_pairs) @ w)

    treatment = [s for s in subjects if s.group == 1]
    control = [s for s in subjects if s.group == 0]

    def phi(sp, a, b) -> int:
        return level_verdict(sp, a.outcomes[sp.name], b.outcomes[sp.name])

    h_t = []
    for a in treatment:
        h_t.append(sum(w_k * (sum(phi(sp, a, b) for b in control) / n0)
                       for w_k, sp in zip(w, specs)))
    h_c = []
    for b in control:
        h_c.append(sum(w_k * (sum(phi(sp, a, b) for a in treatment) / n1)
                       for w_k, sp in zip(w, specs)))
    var = float(np.var(h_t, ddof=1) / n1 + np.var(h_c, ddof=1) / n0)
    return u, var


# ---------------------------------------------------------------------------
# exhaustive label enumeration
# ---------------------------------------------------------------------------


def relabel(subjects, treatment_indices) -> list[Subject]:
    tset = set(treatment_indices)
    return [
        replace(s, group=1 if i in tset else 0)
        for i, s in enumerate(subjects)
    ]


def with_groups(ds: TrialDataset, group_codes) -> TrialDataset:
    """The cohort of ``ds`` under new group labels, rebuilt through the
    public constructor from its accessors."""
    columns = {
        spec.name: (ds.times(spec.name), ds.events_observed(spec.name))
        if spec.kind is EndpointKind.TIME_TO_EVENT
        else (ds.values(spec.name), ds.present(spec.name))
        for spec in ds.endpoint_specs
    }
    covariates = {name: ds.covariate(name) for name in ds.covariate_names}
    return TrialDataset(ds.endpoint_specs, ds.ids, group_codes, columns, covariates)


def permutation_pvalue(stat, ds: TrialDataset, plan: PermutationPlan) -> tuple[float, dict]:
    """Permutation p-value of an arbitrary deterministic dataset statistic,
    with the driver's six metadata fields: the reference every test's block
    reducer is pinned against. Its reducer reruns ``stat`` on the relabeled
    dataset row by row, through the same driver and so over the same label
    sequence."""

    def reduce(block: np.ndarray) -> np.ndarray:
        return np.array([float(stat(with_groups(ds, labels))) for labels in block])

    return permutation_test(float(stat(ds)), reduce, ds, plan)


def exact_pvalue(stat_fn, subjects) -> float:
    """Enumerate every treatment index set of the observed size, recompute
    the statistic each time, and count |T| >= |T_obs| (non-finite extreme)."""
    n1 = sum(1 for s in subjects if s.group == 1)
    observed = stat_fn(subjects)
    n_extreme = 0
    total = 0
    for idx in combinations(range(len(subjects)), n1):
        t = stat_fn(relabel(subjects, idx))
        total += 1
        if math.isnan(t) or math.isnan(observed) or abs(t) >= abs(observed):
            n_extreme += 1
    return n_extreme / total


# ---------------------------------------------------------------------------
# Monte Carlo label stream, one generator per replicate
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def replicate_seed(master_seed: int, index: int) -> int:
    return splitmix64((splitmix64(master_seed & _MASK64) + index) & _MASK64)


def label_rows(master_seed: int, group_codes, count: int) -> np.ndarray:
    """Replicates 0..count-1 of the documented label stream, each from a
    freshly seeded ``default_rng``: (count, N) int8."""
    base = np.asarray(group_codes, dtype=np.int8)
    rows = [
        np.random.default_rng(replicate_seed(master_seed, b)).permutation(base)
        for b in range(count)
    ]
    return np.stack(rows)


# ---------------------------------------------------------------------------
# simulated trials, one subject at a time
# ---------------------------------------------------------------------------


def simulated_subjects(cfg) -> list[Subject]:
    """The cohort of ``simgen.simulate_trial(cfg)`` as records: the same
    RNG calls in the same order (the latent normal rows, then the censoring
    times), each subject's three outcomes mapped through the marginals on
    their own."""
    eigvals, eigvecs = np.linalg.eigh(np.asarray(cfg.correlation, dtype=np.float64))
    factor = eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))
    rng = np.random.default_rng(cfg.seed)
    n = 2 * cfg.n_per_group
    z = rng.standard_normal((n, 3)) @ factor.T
    censor = rng.uniform(0.0, cfg.survival.censor_horizon, size=n)
    sv, cm, bm = cfg.survival, cfg.continuous, cfg.binary
    subjects = []
    for i in range(n):
        treat = i < cfg.n_per_group
        hazard = sv.hazard_treatment if treat else sv.hazard_control
        with np.errstate(divide="ignore"):
            t_event = float(-np.log1p(-sps.norm.cdf(z[i, 0])) / hazard)
        mean = cm.mean_treatment if treat else cm.mean_control
        sd = cm.sd_treatment if treat else cm.sd_control
        p = bm.p_treatment if treat else bm.p_control
        subjects.append(
            Subject(
                id=f"sim{i:05d}",
                group=int(treat),
                outcomes={
                    "event": Tte(min(t_event, float(censor[i])), bool(t_event <= censor[i])),
                    "marker": Value(float(mean + sd * z[i, 1])),
                    "response": Value(float(sps.norm.cdf(z[i, 2]) < p)),
                },
            )
        )
    return subjects
