"""Write one workload's inputs and build its index, in a process of its own.

Usage: python3 bench/prepare.py --workload NAME --seed N --dir DIR [--stats]

Writes DIR/corpus.jsonl, DIR/claims.jsonl (generic format, with
pregenerated graphs), DIR/plans.jsonl (what the generator wrote into each
claim, for the oracle), DIR/index.json via graphfc's build_index/save_index,
and DIR/reference.npz for the correctness gates.  Prints one JSON object with
the index build and save times.  Building here keeps the indexer's memory out
of the measured process, as ``graphfc index`` runs apart from ``graphfc eval``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

import workloads
from inputs import generate, top_term_share


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--stats", action="store_true", help="also report corpus term statistics")
    args = parser.parse_args()
    workloads.add_program_to_path()
    from graphfc.retrieval import build_index, read_corpus, save_index, tokenize
    from oracle import ReferenceBM25

    spec = workloads.WORKLOADS[args.workload]
    inputs = generate(args.seed, spec.shape)
    paths = workloads.input_paths(args.dir)
    inputs.write(paths["corpus"], paths["dataset"], paths["plan"])
    np.savez(paths["reference"], **ReferenceBM25.build_arrays(inputs.corpus_rows))

    started = time.perf_counter()
    index = build_index(read_corpus(paths["corpus"]))
    built = time.perf_counter()
    save_index(index, paths["index"])
    saved = time.perf_counter()
    result = {"index_build_s": built - started, "index_save_s": saved - built}
    if args.stats:
        result["top20_token_share"] = top_term_share(inputs.corpus_rows, tokenize)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
