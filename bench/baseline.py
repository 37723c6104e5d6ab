"""Run every workload over several seeds and record medians and spreads.

Usage: python3 bench/baseline.py --seeds 1-10 --out bench/baseline.json

For each workload: one untraced run per seed, then one traced run on the
first seed.  Records, per end-to-end metric, the median and the quartile
spread (Q3 - Q1 over the median, from ``statistics.quantiles(n=4)``); per
layer metric, the traced run's value; and the machine (nproc, Python, CPU).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.perf_counter() - started
    print(f"{workload} seed={seed} trace={trace}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"in {result['elapsed_s']:.1f}s", flush=True)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    seeds = _seeds(args.seeds)
    out = {
        "machine": {
            "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
            "python": platform.python_version(),
            "cpu": _cpu_model(),
        },
        "seeds": seeds,
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    for name in (w["name"] for w in spec["workloads"]):
        runs = [_run(name, seed, spec["run_seconds"], 0) for seed in seeds]
        summary = {"correct": all(r["correct"] for r in runs), "end_to_end": {}}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            summary["end_to_end"][metric["name"]] = {
                "median": median, "spread": (q3 - q1) / median if median else 0.0,
                "bound": metric["bound"], "unit": metric["unit"], "values": values,
            }
        traced = _run(name, seeds[0], spec["run_seconds"], 1)
        summary["correct"] = summary["correct"] and traced["correct"]
        summary["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary["elapsed_s_max"] = max(r["elapsed_s"] for r in runs + [traced])
        out["workloads"][name] = summary
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for name, summary in out["workloads"].items():
        for metric, row in summary["end_to_end"].items():
            flag = "" if row["spread"] < row["bound"] / 3 else "  <-- spread"
            print(f"{name:16s} {metric:24s} median={row['median']:.6g} spread={row['spread']:.4f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
