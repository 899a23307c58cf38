#!/usr/bin/env python3
"""Build the bundled ACTG 175 replica cohort (data/actg175_replica.csv).

Subject-level data from the trial is not redistributable, so the repository
ships a synthetic stand-in instead: a seeded cohort whose baseline margins
match the published characteristics table exactly (N=2467; 1067 subjects
naive to antiretroviral therapy vs 1400 with prior exposure; per-stratum
sex, race, risk-factor, Karnofsky and symptom counts; integer ages and
baseline CD4 with the published stratum means) and whose outcomes carry a
monotherapy-vs-combination effect of the size the trial reported. Outcomes
are drawn through a Gaussian copula so the composite event, the week-20 CD4
change and the (frequently missing) week-96 CD4 level are positively
dependent.

Columns follow the publicly distributed table layout (pidnum, arms, days,
cens, cd40, cd420, cd496, ...), so the default column mapping loads either
this file or a real export. The race column carries the four published
categories (0 white, 1 black, 2 hispanic, 3 other).

Run from the repository root:

    python3 scripts/build_actg175_replica.py [--check]

``--check`` reruns the five tests on the generated file with a small
permutation budget and prints the p-values.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "data" / "actg175_replica.csv"

SEED = 20250810

ARM_TOTALS = (619, 613, 615, 620)  # ZDV, ZDV+ddI, ZDV+ddC, ddI

# Per-stratum margins: (naive = no prior antiretroviral exposure, experienced).
STRATA = {
    0: dict(n=1067, male=892, race=(707, 214, 131, 15), homo=719, drugs=154,
            hemo=44, karnof100=657, symptom=170, age_mean=34.0, cd40_mean=372,
            arms=(268, 265, 266, 268)),
    1: dict(n=1400, male=1137, race=(1023, 195, 160, 22), homo=889, drugs=201,
            hemo=158, karnof100=791, symptom=268, age_mean=35.6, cd40_mean=338,
            arms=(351, 348, 349, 352)),
}

# Outcome model.
BASE_HAZARD = (4.2e-4, 2.35e-4, 2.45e-4, 2.40e-4)  # per day, by arm
PRIOR_HAZARD_MULT = 1.25
CENSOR_LOW, CENSOR_HIGH = 700.0, 1250.0
CD4_CHANGE_MEAN = (-18.0, 22.0, 12.0, 15.0)  # week-20 change by arm
CD4_CHANGE_PRIOR_SHIFT = -8.0
CD4_CHANGE_SD = 95.0
CD4_96_INTERCEPT = (132.0, 200.0, 190.0, 193.0)  # plus 0.45 * baseline
CD4_96_PRIOR_SHIFT = -10.0
CD4_96_SD = 110.0
LATENT_CORR = np.array([[1.0, 0.40, 0.35],
                        [0.40, 1.0, 0.55],
                        [0.35, 0.55, 1.0]])


def exact_count_flags(rng, n, n_ones):
    flags = np.zeros(n, dtype=int)
    flags[:n_ones] = 1
    rng.shuffle(flags)
    return flags


def exact_count_codes(rng, counts):
    codes = np.concatenate([np.full(c, k, dtype=int) for k, c in enumerate(counts)])
    rng.shuffle(codes)
    return codes


def integers_with_exact_mean(rng, n, mean, sd, low, high, target_sum):
    vals = np.clip(np.round(rng.normal(mean, sd, size=n)).astype(int), low, high)
    diff = int(target_sum - vals.sum())
    step = 1 if diff > 0 else -1
    while diff != 0:
        i = int(rng.integers(n))
        if low <= vals[i] + step <= high:
            vals[i] += step
            diff -= step
    return vals


def build() -> list[dict]:
    rng = np.random.default_rng(SEED)
    chol = np.linalg.cholesky(LATENT_CORR)
    rows = []
    pid = 10001
    for stratum, m in STRATA.items():
        n = m["n"]
        male = exact_count_flags(rng, n, m["male"])
        race = exact_count_codes(rng, m["race"])
        homo = exact_count_flags(rng, n, m["homo"])
        drugs = exact_count_flags(rng, n, m["drugs"])
        hemo = exact_count_flags(rng, n, m["hemo"])
        symptom = exact_count_flags(rng, n, m["symptom"])
        k100 = exact_count_flags(rng, n, m["karnof100"])
        karnof = np.where(k100 == 1, 100, rng.choice((70, 80, 90), size=n, p=(0.05, 0.25, 0.70)))
        age = integers_with_exact_mean(
            rng, n, m["age_mean"], 8.7, 12, 70, round(m["age_mean"] * n)
        )
        cd40 = integers_with_exact_mean(
            rng, n, m["cd40_mean"], 65.0, 200, 500, m["cd40_mean"] * n
        )
        arm = exact_count_codes(rng, m["arms"])

        z = rng.standard_normal((n, 3)) @ chol.T
        hazard = np.asarray(BASE_HAZARD)[arm] * (PRIOR_HAZARD_MULT if stratum == 1 else 1.0)
        u = _norm_cdf(z[:, 0])
        t_event = -np.log1p(-u) / hazard
        censor = rng.uniform(CENSOR_LOW, CENSOR_HIGH, size=n)
        days = np.maximum(1, np.round(np.minimum(t_event, censor))).astype(int)
        cens = (t_event <= censor).astype(int)

        change = (
            np.asarray(CD4_CHANGE_MEAN)[arm]
            + (CD4_CHANGE_PRIOR_SHIFT if stratum == 1 else 0.0)
            + CD4_CHANGE_SD * z[:, 1]
        )
        cd420 = np.maximum(0, np.round(cd40 + change)).astype(int)

        cd496_val = np.maximum(
            0,
            np.round(
                0.45 * cd40
                + np.asarray(CD4_96_INTERCEPT)[arm]
                + (CD4_96_PRIOR_SHIFT if stratum == 1 else 0.0)
                + CD4_96_SD * z[:, 2]
            ),
        ).astype(int)
        p_miss = np.where((cens == 1) & (days < 650), 0.52, 0.28)
        missing = rng.uniform(size=n) < p_miss

        for i in range(n):
            rows.append(
                dict(
                    pidnum=pid + i,
                    age=int(age[i]),
                    gender=int(male[i]),
                    race=int(race[i]),
                    hemo=int(hemo[i]),
                    homo=int(homo[i]),
                    drugs=int(drugs[i]),
                    karnof=int(karnof[i]),
                    symptom=int(symptom[i]),
                    str2=stratum,
                    cd40=int(cd40[i]),
                    cd420=int(cd420[i]),
                    cd496="" if missing[i] else int(cd496_val[i]),
                    days=int(days[i]),
                    cens=int(cens[i]),
                    arms=int(arm[i]),
                )
            )
        pid += n
    rng.shuffle(rows)
    return rows


def _norm_cdf(x):
    from scipy.stats import norm

    return norm.cdf(x)


def to_csv(rows) -> str:
    """The CSV text of ``rows``, header first, as written to the data file."""
    buf = io.StringIO(newline="")
    w = csv.DictWriter(buf, fieldnames=list(rows[0]))
    w.writeheader()
    w.writerows(rows)
    return buf.getvalue()


def write(rows) -> None:
    OUT.parent.mkdir(parents=True, exist_ok=True)
    with open(OUT, "w", newline="") as fh:
        fh.write(to_csv(rows))
    print(f"wrote {len(rows)} rows -> {OUT}")


def check() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from multiendpoint import (
        PermutationPlan,
        baseline_summary,
        derive_endpoints,
        load_trial_csv,
        run_method,
    )

    raw = load_trial_csv(OUT)
    ds = derive_endpoints(raw)
    summary = baseline_summary(raw)
    print(summary.to_text())
    plan = PermutationPlan.monte_carlo(2000, seed=1)
    for method in ("rank_sum", "fs", "win_ratio", "multirank", "global_u"):
        r = run_method(method, ds, plan)
        asym = run_method(method, ds, None)
        print(
            f"{method:10s} stat={r.statistic:12.4f}  perm p={r.p_two_sided:.6f}  "
            f"asym z={asym.z:8.3f}  asym p={asym.p_two_sided:.3e}"
        )


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="run the five tests on the generated file")
    args = ap.parse_args()
    write(build())
    if args.check:
        check()


if __name__ == "__main__":
    main()
