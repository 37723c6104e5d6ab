"""Mutation gate: break the code on purpose and check that the tests notice.

Each mutant names a file under ``src/``, an exact text in it and its
replacement, the tests that must fail once the text is replaced, and a time
bound.  For each mutant the gate copies ``src/`` to a temporary directory,
applies the mutant there (never in the tree), runs pytest on the named tests
against the copy, and reports the mutant as killed (the tests failed),
survived (they passed) or timed out.  A text that does not occur exactly once
in its file is an error, so a change that rewrites a guarded line must update
its mutant here.

Usage, from anywhere:

    python tests/mutation_gate.py           # every mutant
    python tests/mutation_gate.py NAME ...  # the named ones

It exits 0 when every mutant run was killed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from typing import Iterable, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RETRIEVAL = "graphfc/retrieval.py"
# Dev mode with ResourceWarning as an error: a file object left open fails.
DEV_MODE = ("-X", "dev", "-W", "error::ResourceWarning")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # under src/
    text: str
    replacement: str
    tests: Tuple[str, ...]  # pytest arguments: files or node ids
    seconds: float = 300.0
    python_options: Tuple[str, ...] = ()


MUTANTS = [
    Mutant("prune-slack-dropped", RETRIEVAL,
           "top[0] > sum(map(bound, cursors)) * _PRUNE_SLACK",
           "top[0] > sum(map(bound, cursors))",
           ("tests/test_retrieval.py",)),
    Mutant("walked-document-scored-twice", RETRIEVAL,
           "            if ordinal not in exact_scores:\n",
           "            if True:\n",
           ("tests/test_retrieval.py",)),
    Mutant("unscored-once-the-heap-is-full", RETRIEVAL,
           "            if ordinal not in exact_scores:\n",
           "            if ordinal not in exact_scores and len(top) < k:\n",
           ("tests/test_retrieval.py",)),
    Mutant("row-threshold-inverted", RETRIEVAL,
           "if _ROW_SHARE * (end - start) > self.doc_count:",
           "if _ROW_SHARE * (end - start) <= self.doc_count:",
           ("tests/test_retrieval.py",)),
    Mutant("second-file-object-in-load", RETRIEVAL,
           "file_bytes = os.fstat(handle.fileno()).st_size",
           "file_bytes = os.fstat(open(path, \"rb\").fileno()).st_size",
           ("tests/test_retrieval.py",), python_options=DEV_MODE),
    Mutant("section-left-out-of-the-crc", RETRIEVAL,
           "crc = zlib.crc32(values, crc)  # the file's bytes",
           "crc = zlib.crc32(values, crc) if name != \"dictionary\" else crc  # the file's bytes",
           ("tests/test_retrieval.py",)),
    Mutant("section-size-unchecked", RETRIEVAL,
           "if count * (array(typecode).itemsize if typecode else 1) > file_bytes - handle.tell():",
           "if False:",
           ("tests/test_retrieval.py",)),
    Mutant("any-typecode-accepted", RETRIEVAL,
           "section[0] == name and section[1] in typecodes",
           "section[0] == name",
           ("tests/test_retrieval.py",)),
    Mutant("term-bisection-off-by-one", RETRIEVAL,
           "max(0, end - _SAMPLED)",
           "max(0, end - _SAMPLED + 1)",
           ("tests/test_retrieval.py",)),
    Mutant("block-bisection-past-the-term", RETRIEVAL,
           "if blob[starts[middle]:starts[middle + 1]] < key:",
           "if blob[starts[middle]:starts[middle + 1]] <= key:",
           ("tests/test_retrieval.py",)),
    Mutant("absent-term-found", RETRIEVAL,
           "return low if low < count and blob[starts[low]:starts[low + 1]] == key else None",
           "return low if low < count else None",
           ("tests/test_retrieval.py",)),
]

# Mutants that change no result, with the reason; recorded, never run.
EQUIVALENT = [
    (Mutant("stop-rule-at-equality", RETRIEVAL,
            "top[0] > sum(map(bound, cursors)) * _PRUNE_SLACK",
            "top[0] >= sum(map(bound, cursors)) * _PRUNE_SLACK", ()),
     "with the margin, a k-th score equal to the bound already beats every "
     "score an unwalked document can reach, so stopping there drops no "
     "document, not even a tie"),
]


def mutated(mutant: Mutant, src: str) -> str:
    """The mutant's file under ``src`` with its text replaced; ValueError
    when the text does not occur there exactly once."""
    with open(os.path.join(src, mutant.path), encoding="utf-8") as handle:
        code = handle.read()
    found = code.count(mutant.text)
    if found != 1:
        raise ValueError(f"mutant {mutant.name}: its text occurs {found} times in src/{mutant.path}, not once")
    return code.replace(mutant.text, mutant.replacement)


def run(mutant: Mutant) -> str:
    """``killed``, ``survived`` or ``timed out``: the named tests run against
    a copy of ``src/`` with the mutant applied."""
    with tempfile.TemporaryDirectory() as scratch:
        src = os.path.join(scratch, "src")
        shutil.copytree(os.path.join(ROOT, "src"), src, ignore=shutil.ignore_patterns("__pycache__"))
        code = mutated(mutant, src)
        with open(os.path.join(src, mutant.path), "w", encoding="utf-8") as handle:
            handle.write(code)
        env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
        python = [sys.executable, *mutant.python_options]
        imported = subprocess.run(
            [*python, "-c", "import graphfc; print(graphfc.__file__)"],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        ).stdout.strip()
        if not imported.startswith(src + os.sep):
            raise RuntimeError(f"the tests would import graphfc from {imported}, not the mutated copy")
        # Its own session, so a timeout ends every process the tests started.
        tests = subprocess.Popen(
            [*python, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True,
        )
        try:
            status = tests.wait(timeout=mutant.seconds)
        except subprocess.TimeoutExpired:
            os.killpg(tests.pid, signal.SIGKILL)
            tests.wait()
            return "timed out"
    if status == 0:
        return "survived"
    if status in (1, 2):  # tests failed, or collection failed on the mutated code
        return "killed"
    raise RuntimeError(f"mutant {mutant.name}: pytest exited {status} (a usage error or no tests)")


def gate(mutants: Iterable[Mutant]) -> List[Tuple[Mutant, str]]:
    """Each mutant with its outcome, printed as it is known.  Every text is
    checked before any test runs."""
    mutants = list(mutants)
    for mutant in mutants:
        mutated(mutant, os.path.join(ROOT, "src"))
    outcomes = []
    for mutant in mutants:
        outcome = run(mutant)
        print(f"{mutant.name}: {outcome}", flush=True)
        outcomes.append((mutant, outcome))
    return outcomes


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description="graphfc mutation gate")
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    by_name = {mutant.name: mutant for mutant in MUTANTS}
    unknown = sorted(set(args.names) - set(by_name))
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    for mutant, reason in EQUIVALENT:
        print(f"{mutant.name}: equivalent, not run ({reason})")
    outcomes = gate(by_name[name] for name in args.names) if args.names else gate(MUTANTS)
    return 0 if all(outcome == "killed" for _, outcome in outcomes) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
