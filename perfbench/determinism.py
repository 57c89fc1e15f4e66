#!/usr/bin/env python3
"""Runs every workload twice at the same seed, with and without tracing,
and reports each count-type metric that does not repeat exactly.

    python3 perfbench/determinism.py [--seed N] [--seconds S]

Exits 1 when anything drifts.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

# Metrics that are pure functions of the generated inputs.
COUNTS = {
    0: ["changes_per_violating_register"],
    1: ["security.pure_changes", "security.hybrid_changes", "rewire.trials",
        "resolve.delta_queries", "resolve.hybrid_iterations",
        "hybrid.propagations", "dep.sat_calls", "dep.closure_deps",
        "dep.matrix_bytes", "store.hits", "store.misses"],
}


def result(workload, seed, seconds, trace):
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                        "--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", str(trace)],
                       capture_output=True, text=True, cwd=run.ROOT)
    if p.returncode != 0:
        sys.exit(f"{workload} --trace {trace} exited {p.returncode}:\n"
                 f"{p.stderr}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=1)
    args = ap.parse_args()
    drift = 0
    for workload in sorted(run.WORKLOADS):
        for trace, names in COUNTS.items():
            a, b = (result(workload, args.seed, args.seconds, trace)
                    for _ in range(2))
            pairs = [(k, a[k], b[k]) for k in ("attempted", "failed")]
            pairs += [(k, a["metrics"][k]["value"], b["metrics"][k]["value"])
                      for k in names]
            for key, x, y in pairs:
                same = x == y
                drift += not same
                print(f"{workload:17s} trace={trace} {key:32s} {x} {y}"
                      f"{'' if same else '  DRIFT'}")
    print("no drift" if drift == 0 else f"{drift} values drifted")
    sys.exit(1 if drift else 0)


if __name__ == "__main__":
    main()
