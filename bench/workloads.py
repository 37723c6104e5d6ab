"""The benchmark's workloads and the file layout of one run."""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass

from inputs import WorkloadShape

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
PROGRAM_SRC = os.path.join(ROOT, "src")

# Fixed delay the stub adds to every completion request, in milliseconds.
STUB_LATENCY_MS = 50.0


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@dataclass(frozen=True)
class Workload:
    name: str
    shape: WorkloadShape
    backend: str  # "scripted" | "http" | "replay"
    # Seconds one batch and its setup take on the reference machine (see
    # README.md).  A run of ``--seconds S`` times round(S / batch_s) batches,
    # at least one: a count fixed by S alone, so every run of a workload
    # times the same work and reports its tail at the same percentile,
    # however fast the host happens to be during the run.
    batch_s: float
    # run_eval's thread count.  One on the CPU-bound workloads: under the GIL
    # a second thread adds no throughput, only handoff waits whose length
    # swings with the host's scheduling, and graphfc's own default is one.
    # One per CPU where the threads overlap backend waits.
    workers: int = 1

    def batches(self, seconds: float) -> int:
        return max(1, round(seconds / self.batch_s))


# Both 2k workloads share one shape, so a seed gives them identical inputs
# and gate (c) can compare their traces.  The latent mix is that of the test
# suite's random scenarios (0-3), with about 40% of claims routed to Direct.
_SHAPE_2K = WorkloadShape(documents=2000, claims=32, latent_choices=(0, 1, 2, 3),
                          distractors_per_entity=3, direct_per_mille=400)

# Why each workload exists is recorded in README.md, and in BENCHMARK.json
# for the two it lists; cache-replay-2k is run by hand only (README.md says why).
WORKLOADS = {
    w.name: w for w in (
        Workload("retrieval-20k",
                 WorkloadShape(documents=20000, claims=12, latent_choices=(2, 2, 3),
                               distractors_per_entity=3, direct_per_mille=0),
                 backend="scripted", batch_s=22.0),
        Workload("backend-http-2k", _SHAPE_2K, backend="http", workers=nproc(), batch_s=10.5),
        Workload("cache-replay-2k", _SHAPE_2K, backend="replay", batch_s=3.0),
    )
}


def add_program_to_path() -> None:
    """Import graphfc from this checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(PROGRAM_SRC, "graphfc", "__init__.py")):
        raise SystemExit(f"graphfc sources not found under {PROGRAM_SRC}")
    sys.path.insert(0, PROGRAM_SRC)


def input_paths(directory: str) -> dict:
    names = {
        "corpus": "corpus.jsonl",
        "dataset": "claims.jsonl",
        "plan": "plans.jsonl",
        "index": "index.json",
        "reference": "reference.npz",
        "config": "config.json",
        "cache": "cache.jsonl",
    }
    return {key: os.path.join(directory, name) for key, name in names.items()}
