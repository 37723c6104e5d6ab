"""graphfc benchmark: run one workload and print its metrics.

Usage:
    python3 bench/run.py --workload retrieval-20k --seed 1 --seconds 25 --trace 0

Generates the workload's corpus and claims from the seed, builds the index
with graphfc's own code, times closed batches through ``evaluate.run_eval``
with the default dp_graphcheck pipeline (k=10, path_limit=5, the workload's
worker count), checks the outputs against the gates (a)-(d) described in
bench/README.md, and prints every metric by name.  The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` reports the per-layer metrics
from a traced run next to an untraced one.  Exits 1 when a gate fails, 2 when
the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

import workloads


def main() -> int:
    parser = argparse.ArgumentParser(description="graphfc benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit so the stub server is still stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        workloads.add_program_to_path()
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    import harness

    run = harness.Run(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    try:
        result = run.execute()
    finally:
        run.cleanup()
    for name, (value, unit) in result["metrics"].items():
        print(f"{name}: {value:.6g} {unit}")
    result["metrics"] = {
        name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
