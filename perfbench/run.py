"""Benchmark of the multiendpoint library: one command, every metric by name
and unit, outputs checked.

    python3 perfbench/run.py --workload replica_b10k --seed 0 --seconds 20 --trace 0

Each sample runs in a fresh child process (``perfbench/workload.py``) whose
BLAS threads are capped at the number of usable cores. With ``--trace 0``
the run reports the end-to-end metrics:

* ``setup_s``     - child spawn, through the package import, to inputs
  ready; median over ``SETUP_SAMPLES`` children.
* ``wall_s``      - median time of one workload pass; passes repeat until
  ``--seconds`` have elapsed.
* ``peak_rss_mb`` - peak resident memory of the measuring child.
* ``ok_frac``     - test calls that neither raised nor failed the output
  check, over the calls attempted (1 - fail_frac; the last JSON line also
  carries ``attempted`` and ``failed``).

With ``--trace 1`` a child first runs untraced passes for half the time,
then traced passes, and the run reports the per-layer figures (see
``perfbench/RATIONALE.md``). The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from tracing import LAYERS, now

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src" / "multiendpoint"
WORKLOAD_SCRIPT = HERE / "workload.py"
WORKLOADS = ("replica_b10k", "null_n20", "cohort_n10k")
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0

UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("per_replicate"):
        return "ratio"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


class ChildFailed(Exception):
    pass


def run_child(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run one workload process to completion; returns its JSON result and
    the monotonic time just before it was spawned."""
    spawned = now()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKLOAD_SCRIPT), *args],
            stdout=subprocess.PIPE,
            env=child_env(),
            timeout=max(1.0, deadline - spawned),
            text=True,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"workload process exceeded the time limit: {exc}") from None
    if proc.returncode != 0:
        raise ChildFailed(f"workload process exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise ChildFailed("workload process printed no result")
    return json.loads(lines[-1]), spawned


def measure(args, deadline: float) -> tuple[dict, dict]:
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    run_args = [*base, "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        res, _ = run_child(run_args, deadline)
        return res, res["figures"]
    setup = []
    for _ in range(SETUP_SAMPLES - 1):
        res, spawned = run_child([*base, "--setup-only"], deadline)
        setup.append(res["ready"] - spawned)
    res, spawned = run_child(run_args, deadline)
    setup.append(res["ready"] - spawned)
    ok = 1.0 - res["failed"] / res["attempted"]
    return res, {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(res["walls"]),
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_frac": ok,
    }


def print_human(args, res: dict, metrics: dict) -> None:
    env = " ".join(f"{k}={v}" for k, v in res["env"].items())
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# env {env}")
    print(f"# untraced passes={len(res['walls'])} calls attempted={res['attempted']} "
          f"failed={res['failed']} "
          f"fail_frac={res['failed'] / res['attempted']:.6g}")
    for name, value in metrics.items():
        unit = UNITS.get(name) or per_layer_unit(name)
        print(f"{name:40s} {value:>16.6g} {unit}")
    if args.trace:
        ranked = sorted(LAYERS, key=lambda layer: -metrics[f"{layer}.layer_self_s"])
        print("# layers by self time: " + ", ".join(
            f"{layer} {metrics[f'{layer}.layer_self_s']:.3g}s" for layer in ranked))
        gap, overhead = metrics["trace.unattributed_s"], metrics["trace.overhead_s"]
        print(f"# layer self times sum to {metrics['trace.layer_self_sum_s']:.4g}s of the traced "
              f"{metrics['trace.wall_s']:.4g}s pass; the {gap:.4g}s gap is "
              f"{'within' if abs(gap) <= overhead else 'beyond'} the {overhead:.4g}s tracing overhead")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not SOURCE.is_dir():
        print(f"perfbench: no library source at {SOURCE}", file=sys.stderr)
        return 2
    deadline = now() + TIME_LIMIT_S
    try:
        res, metrics = measure(args, deadline)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print_human(args, res, metrics)
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {
            name: {"value": value, "unit": UNITS.get(name) or per_layer_unit(name)}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
