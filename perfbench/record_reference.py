"""Record the reference outputs that the benchmark's output check compares
against, by running one pass of every workload on seeds 0-20.

Run it from the repository root at the commit whose outputs are the
reference, then commit the result:

    python3 perfbench/record_reference.py

It writes ``perfbench/reference.json`` afresh. Seed 0 is the default seed
(the settings of the bundled configs). On a seed without a record the check
falls back to the invariants, plus, for ``replica_b10k``, the observed
statistic and variance, which do not depend on the permutation seed.
"""

from __future__ import annotations

import json
import shutil

from tracing import Tracer
from workload import OUT, REFERENCE, WORKLOADS, record

DEFAULT_SEED = 0
SEEDS = range(0, 21)


def main() -> None:
    refs = {}
    out_dir = OUT / "record"
    for name, make in WORKLOADS.items():
        entry = refs[name] = {"default_seed": DEFAULT_SEED}
        for seed in SEEDS:
            workload = make(seed, out_dir)
            results = workload.run_pass(Tracer(enabled=False))
            entry[str(seed)] = record(workload, results)
            print(f"{name} seed {seed}: {entry[str(seed)]}", flush=True)
    shutil.rmtree(out_dir, ignore_errors=True)
    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
