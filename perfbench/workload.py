"""One benchmark workload, run in a process of its own.

``perfbench/run.py`` starts this script once per sample so that peak memory
and set-up time belong to that workload alone. The script imports the
library from ``src/``, builds the workload's inputs from the seed and notes
the monotonic time at which they are ready. With ``--setup-only`` it prints
``{"ready": <time>}`` and stops; otherwise it repeats the workload's pass
(closed loop, one caller) until ``--seconds`` have elapsed, checks every
result, and prints one JSON line with the ready time, the pass times, the
check outcome and (with ``--trace 1``) the per-layer figures.

The workloads drive the library only through its public calls:

* ``replica_b10k`` - the calls ``multiendpoint analyze --config
  configs/actg175.yaml`` makes: load and derive the bundled N=2467 replica,
  baseline summary, all five methods at B=10,000, text and CSV report.
* ``null_n20`` - ``error_rate_study`` on ``SimConfig.null(20)`` for the five
  methods at B=199, 200 trials each (1,000 small test calls per pass).
* ``cohort_n10k`` - one ``SimConfig.null(5000)`` cohort (N=10,000),
  simulated during set-up, through the five methods in asymptotic mode.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path

from tracing import LAYERS, PASS_SPAN, SETUP_SPAN, Tracer, now, span_cost

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
sys.path.insert(0, str(ROOT / "src"))

import multiendpoint  # noqa: E402  (set-up time includes the package import)
from multiendpoint import (  # noqa: E402
    global_u,
    methods,
    pairwise,
    pairwise_tests,
    rank_tests,
    report,
    resampling,
    simgen,
    trial_data,
)

if Path(multiendpoint.__file__).resolve().parent != ROOT / "src" / "multiendpoint":
    sys.exit(f"perfbench: imported {multiendpoint.__file__}, not the checkout's src/")

METHODS = methods.METHOD_NAMES

# Settings of configs/actg175.yaml; seed 0 reproduces that run exactly.
REPLICA_CSV = ROOT / "data" / "actg175_replica.csv"
REPLICA_CONTRAST = "rest_vs_0"
REPLICA_B = 10_000
REPLICA_SEED = 20240201
# Settings of configs/null_study.yaml, cut to a 200-trial slice.
NULL_N_PER_GROUP = 20
NULL_TRIALS = 200
NULL_B = 199
NULL_ALPHA = 0.05
NULL_SEED = 7
COHORT_N_PER_GROUP = 5000

# Counts that depend only on the code, never on timing or the seed.
EXACT_COUNTS = (
    "methods.calls",
    "simgen.calls",
    "resampling.label_rows",
    "resampling.label_rows_per_replicate",
    "pairwise.matrix_bytes",
)


def same_bits(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return float(a).hex() == float(b).hex()
    return a == b


def p_ok(p: float, replicates: int | None) -> bool:
    """p in (0, 1], and at or above the 1/(B+1) Monte Carlo floor."""
    if not 0.0 < p <= 1.0:
        return False
    return replicates is None or p >= 1.0 / (replicates + 1)


class Failures:
    """Test calls that raised or failed the output check."""

    def __init__(self):
        self.failed = 0
        self.messages: list[str] = []

    def add(self, calls: int, message: str) -> None:
        self.failed += calls
        self.messages.append(message)


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------


class Replica:
    name = "replica_b10k"
    calls_per_pass = len(METHODS)
    fields = ("statistic", "variance", "n_extreme", "null_mean", "null_sd")
    # The observed statistic does not depend on the permutation seed.
    seed_free_fields = ("statistic", "variance")

    def __init__(self, seed: int, out_dir: Path):
        self.plan = resampling.PermutationPlan.monte_carlo(REPLICA_B, REPLICA_SEED + seed)
        self.out_dir = out_dir

    def run_pass(self, tracer: Tracer):
        raw = trial_data.load_trial_csv(REPLICA_CSV, trial_data.ColumnMapping(), REPLICA_CONTRAST)
        ds = trial_data.derive_endpoints(
            raw, trial_data.DerivationConfig(contrast=REPLICA_CONTRAST, include_week96=True)
        )
        summary = trial_data.baseline_summary(ds)
        results = {}
        for m in METHODS:
            results[m] = call(lambda: methods.run_method(m, ds, self.plan))
        ok = [r for r in results.values() if not isinstance(r, Exception)]
        with tracer.span("report.write"):
            baseline_text = summary.to_text()
            results_text = report.results_text_table(ok)
            self.out_dir.mkdir(parents=True, exist_ok=True)
            (self.out_dir / "baseline.txt").write_text(baseline_text)
            (self.out_dir / "baseline.csv").write_text(summary.to_csv())
            (self.out_dir / "results.txt").write_text(results_text)
            report.write_results_csv(ok, self.out_dir / "results.csv")
        return results

    def check(self, results, ref: dict | None, ref_default: dict | None, fails: Failures):
        written = {r.method: r for r in report.read_results_csv(self.out_dir / "results.csv")}
        for m, r in results.items():
            if isinstance(r, Exception):
                fails.add(1, f"{m}: raised {r!r}")
                continue
            if not p_ok(r.p_two_sided, REPLICA_B):
                fails.add(1, f"{m}: p={r.p_two_sided!r} breaks 1/(B+1) <= p <= 1")
                continue
            back = written.get(m)
            if back is None or not all(
                same_bits(getattr(back, f), getattr(r, f))
                for f in ("statistic", "variance", "z", "p_two_sided")
            ):
                fails.add(1, f"{m}: results.csv does not round-trip")
                continue
            expect, names = (ref, self.fields) if ref else (ref_default, self.seed_free_fields)
            if expect is not None:
                compare(m, r, expect[m], names, fails)


class NullSlice:
    name = "null_n20"
    calls_per_pass = len(METHODS) * NULL_TRIALS
    fields = ("n_rejected",)

    def __init__(self, seed: int, out_dir: Path):
        self.cfg = simgen.SimConfig.null(NULL_N_PER_GROUP, seed=NULL_SEED + seed)
        self.plan = resampling.PermutationPlan.monte_carlo(NULL_B, seed=NULL_SEED + seed)

    def run_pass(self, tracer: Tracer):
        return {
            m: call(lambda: simgen.error_rate_study(self.cfg, m, NULL_ALPHA, NULL_TRIALS, self.plan))
            for m in METHODS
        }

    def check(self, results, ref: dict | None, ref_default: dict | None, fails: Failures):
        # The check reads only the public RejectionReport; a study's test
        # calls pass or fail together.
        for m, r in results.items():
            if isinstance(r, Exception):
                fails.add(NULL_TRIALS, f"{m}: study raised {r!r}")
            elif not (
                r.method == m
                and r.n_trials == NULL_TRIALS
                and 0 <= r.n_rejected <= r.n_trials
                and same_bits(r.rate, r.n_rejected / r.n_trials)
                and 0.0 <= r.ci_low <= r.rate <= r.ci_high <= 1.0
            ):
                fails.add(NULL_TRIALS, f"{m}: inconsistent report {r!r}")
            elif ref is not None:
                compare(m, r, ref[m], self.fields, fails, calls=NULL_TRIALS)


class Cohort:
    name = "cohort_n10k"
    calls_per_pass = len(METHODS)
    fields = ("statistic", "variance", "p_two_sided")

    def __init__(self, seed: int, out_dir: Path):
        self.ds = simgen.simulate_trial(simgen.SimConfig.null(COHORT_N_PER_GROUP, seed=seed))

    def run_pass(self, tracer: Tracer):
        return {m: call(lambda: methods.run_method(m, self.ds, None)) for m in METHODS}

    def check(self, results, ref: dict | None, ref_default: dict | None, fails: Failures):
        for m, r in results.items():
            if isinstance(r, Exception):
                fails.add(1, f"{m}: raised {r!r}")
            elif not p_ok(r.p_two_sided, None):
                fails.add(1, f"{m}: p={r.p_two_sided!r} outside (0, 1]")
            elif ref is not None:
                compare(m, r, ref[m], self.fields, fails)


WORKLOADS = {w.name: w for w in (Replica, NullSlice, Cohort)}


def call(fn):
    """Run one test call; an exception is kept as its result and counted."""
    try:
        return fn()
    except Exception as exc:  # the benchmark keeps running and counts the failure
        traceback.print_exc()
        return exc


def record(workload, results) -> dict:
    """The reference fields of one pass's results."""
    return {m: {f: value(r, f) for f in workload.fields} for m, r in results.items()}


def value(result, field: str):
    if hasattr(result, field):
        return getattr(result, field)
    return result.metadata[field]


def compare(method, result, expect: dict, names, fails: Failures, calls: int = 1) -> None:
    for f in names:
        got = value(result, f)
        if not same_bits(got, expect[f]):
            fails.add(calls, f"{method}: {f}={got!r}, reference {expect[f]!r}")
            return


# --------------------------------------------------------------------------
# Tracing: wrappers on the names the consuming modules import
# --------------------------------------------------------------------------


def install_tracing(tracer: Tracer) -> None:
    """Wrap each traced function in its own module and under every name a
    consuming module imported it by. An import bound the original function,
    so each call passes through exactly one wrapper, whether a caller goes
    through the defining module or through its own import; names a module
    does not import are skipped."""

    def square_bytes(entries_per_pair: int):
        def counter(tr, ds, *args, **kwargs):
            tr.count("pairwise.matrix_bytes", entries_per_pair * ds.n * ds.n)
        return counter

    def gehan_bytes(tr, times, *args, **kwargs):
        tr.count("pairwise.matrix_bytes", len(times) * len(times))

    def simulate_call(tr, *args, **kwargs):
        tr.count("simgen.calls")

    def wrap(modules, attr: str, name: str, counter=None) -> None:
        for module in modules:
            tracer.wrap(module, attr, name, counter)

    consumers = (pairwise_tests, rank_tests, global_u)
    wrap([trial_data], "load_trial_csv", "trial_data.load")
    wrap([trial_data], "derive_endpoints", "trial_data.derive")
    wrap([trial_data], "baseline_summary", "trial_data.summary")
    wrap([simgen], "simulate_trial", "simgen.simulate", simulate_call)
    wrap([simgen], "error_rate_study", "simgen.error_rate_study")
    tracer.wrap_run_method(methods)
    wrap([methods], "fs_test", "pairwise_tests.fs")
    wrap([methods], "win_ratio_test", "pairwise_tests.win_ratio")
    wrap([methods], "obrien_test", "rank_tests.obrien")
    wrap([methods], "multirank_test", "rank_tests.multirank")
    wrap([methods], "global_u_test", "global_u.global_u_test")
    wrap([pairwise, pairwise_tests], "pairwise_score_vector", "pairwise.score_vector")
    # matrix_bytes, from array shapes: verdict_matrix builds an N x N int8
    # result and an N x N bool mask, each hierarchy level one N x N int8
    # matrix, and the Gehan score one N x N bool matrix.
    wrap([pairwise, pairwise_tests], "verdict_matrix", "pairwise.verdict_matrix", square_bytes(2))
    wrap([pairwise, global_u], "_level_matrix", "pairwise.level_matrix", square_bytes(1))
    wrap([pairwise, rank_tests], "gehan_score_vector", "pairwise.gehan", gehan_bytes)
    wrap([rank_tests], "rank_matrix", "rank_tests.rank_matrix")
    wrap([global_u], "kernel_matrix", "global_u.kernel_matrix")
    for module in (resampling, *consumers):
        tracer.wrap_label_blocks(module, resampling.n_assignments)
    wrap([resampling, *consumers], "pvalue_from_draws", "resampling.pvalue")


# Per-layer figures: name -> (kind, span name). "inclusive" is the time of
# every span of that name, "self" excludes the time of their child spans.
SPAN_METRICS = {
    "trial_data.load_s": ("inclusive", "trial_data.load"),
    "trial_data.derive_s": ("inclusive", "trial_data.derive"),
    "simgen.simulate_s": ("inclusive", "simgen.simulate"),
    "resampling.label_s": ("inclusive", "resampling.label"),
    "resampling.pvalue_s": ("inclusive", "resampling.pvalue"),
    "pairwise.verdict_matrix_s": ("inclusive", "pairwise.verdict_matrix"),
    "pairwise.gehan_s": ("inclusive", "pairwise.gehan"),
    "pairwise.level_matrix_s": ("inclusive", "pairwise.level_matrix"),
    "pairwise_tests.fs_self_s": ("self", "pairwise_tests.fs"),
    "pairwise_tests.win_ratio_self_s": ("self", "pairwise_tests.win_ratio"),
    "rank_tests.rank_matrix_s": ("inclusive", "rank_tests.rank_matrix"),
    "rank_tests.obrien_self_s": ("self", "rank_tests.obrien"),
    "rank_tests.multirank_self_s": ("self", "rank_tests.multirank"),
    "global_u.kernel_matrix_s": ("inclusive", "global_u.kernel_matrix"),
    "global_u.self_s": ("self", "global_u.global_u_test"),
    **{f"methods.{m}_s": ("inclusive", f"methods.{m}") for m in METHODS},
    "report.write_s": ("inclusive", "report.write"),
}


def phase_figures(summary: dict, counts: Counter, distinct_rows: int) -> dict:
    out = {name: summary[kind][span] for name, (kind, span) in SPAN_METRICS.items()}
    for layer in LAYERS:
        out[f"{layer}.layer_self_s"] = summary["layer_self"][layer]
    for key in ("methods.calls", "simgen.calls", "resampling.label_rows", "pairwise.matrix_bytes"):
        out[key] = counts[key]
    rows = counts["resampling.label_rows"]
    out["resampling.label_rows_per_replicate"] = rows / distinct_rows if distinct_rows else 0.0
    return out


def percentile_figures(durations: list[float]) -> dict:
    """p50 and p99 of single test calls, each only where at least ten calls
    lie beyond it; 0 marks a percentile without enough calls."""
    out = {"methods.call_samples": len(durations)}
    qs = statistics.quantiles(durations, n=100, method="inclusive") if len(durations) > 1 else []
    for pct in (50, 99):
        enough = len(durations) * (100 - pct) / 100 >= 10
        out[f"methods.call_p{pct}_s"] = qs[pct - 1] if enough else 0.0
    return out


def traced_figures(tracer: Tracer, pass_walls: list[float], fails: Failures) -> tuple[dict, dict]:
    """Per-layer figures: the set-up phase plus the median traced pass."""
    phases = tracer.phase_summaries()
    setup = [i for i, p in enumerate(phases) if p["root"] == SETUP_SPAN]
    passes = [i for i, p in enumerate(phases) if p["root"] == PASS_SPAN]
    per_pass = [phase_figures(phases[i], tracer.phase_counts[i], tracer.distinct_label_rows(i))
                for i in passes]
    for key in EXACT_COUNTS:
        if len({f[key] for f in per_pass}) != 1:
            fails.add(0, f"count {key} differs between passes: {[f[key] for f in per_pass]}")
    figures = {k: statistics.median(f[k] for f in per_pass) for k in per_pass[0]}
    if setup:
        i = setup[0]
        base = phase_figures(phases[i], tracer.phase_counts[i], tracer.distinct_label_rows(i))
        for k, v in base.items():
            if k != "resampling.label_rows_per_replicate":
                figures[k] += v
    durations = [d for i in passes for d in phases[i]["calls"]]
    figures.update(percentile_figures(durations))
    traced_wall = statistics.median(phases[i]["wall_s"] for i in passes)
    self_sum = statistics.median(
        sum(phases[i]["layer_self"][layer] for layer in LAYERS) for i in passes
    )
    spans = statistics.median(phases[i]["spans"] for i in passes)
    figures.update({
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": statistics.median(pass_walls),
        # The tracer's own cost, spans times the cost of one span: a traced
        # pass minus an untraced one would measure pass order and noise.
        "trace.overhead_s": spans * span_cost(),
        "trace.layer_self_sum_s": self_sum,
        "trace.unattributed_s": traced_wall - self_sum,
        "trace.spans": spans,
    })
    counts = {k: figures[k] for k in EXACT_COUNTS}
    return figures, counts


# --------------------------------------------------------------------------
# Repeatability of the exact counts across runs of the same code
# --------------------------------------------------------------------------


def code_hash() -> str:
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_counts_repeat(workload: str, counts: dict, fails: Failures) -> None:
    """Compare with the counts an earlier run of the same code recorded in
    this checkout; the first run of a code version records them."""
    path = OUT / "exact_counts.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    key = f"{workload}:{code_hash()}"
    if key in known and known[key] != counts:
        fails.add(0, f"exact counts changed between runs of the same code: "
                     f"{known[key]} then {counts}")
        return
    known[key] = counts
    OUT.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)


# --------------------------------------------------------------------------


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "multiendpoint": multiendpoint.__version__,
    }


def load_reference(workload: str, seed: int) -> tuple[dict | None, dict | None]:
    refs = json.loads(REFERENCE.read_text())[workload]
    return refs.get(str(seed)), refs.get(str(refs["default_seed"]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tracer = Tracer(enabled=bool(args.trace))
    out_dir = OUT / f"{args.workload}-{os.getpid()}"
    if args.trace:
        install_tracing(tracer)
    with tracer.phase(SETUP_SPAN):
        workload = WORKLOADS[args.workload](args.seed, out_dir)
    tracer.uninstall()
    ready = now()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    ref, ref_default = load_reference(args.workload, args.seed)
    fails = Failures()
    attempted = 0

    def run(traced: bool, until: float) -> list[float]:
        nonlocal attempted
        tracer.enabled = traced
        walls = []
        while not walls or now() < until:
            start = now()
            with tracer.phase(PASS_SPAN):
                results = workload.run_pass(tracer)
            walls.append(now() - start)
            attempted += workload.calls_per_pass
            workload.check(results, ref, ref_default, fails)
        return walls

    start = now()
    try:
        if args.trace:
            walls = run(False, start + args.seconds / 2)
            install_tracing(tracer)
            run(True, start + args.seconds)
            tracer.uninstall()
            figures, counts = traced_figures(tracer, walls, fails)
            figures["methods.failed"] = fails.failed
            check_counts_repeat(args.workload, counts, fails)
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
        else:
            walls = run(False, start + args.seconds)
            figures = {}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    for msg in fails.messages:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({
        "ready": ready,
        "walls": walls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": fails.failed,
        "correct": not fails.messages,
        "figures": figures,
        "env": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
