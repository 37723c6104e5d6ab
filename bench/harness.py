"""One benchmark run: prepare inputs, set up, time closed batches through
``run_eval``, check the outputs, and compute the metrics.

Imported by ``run.py`` once the checkout's ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import gc
import json
import logging
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from typing import List, Optional

from graphfc.backend import PURPOSES, BackendSuite, CostLedger, ResponseCache, ScriptedBackend
from graphfc.config import build_backends, load_config
from graphfc.evaluate import load_dataset, run_eval
from graphfc.infill import PathBudget
from graphfc.retrieval import load_index
from graphfc.verdict import DIRECT, DocStrategy, trace_to_dict

import answers
from tracing import Tracer
from workloads import BENCH_DIR, ROOT, STUB_LATENCY_MS, Workload, input_paths

K = 10
PATH_LIMIT = 5
# Setups per run, at least: half before the timed batches (each batch adds its
# own) and the rest after them, so the setup_s median spans the run rather
# than one moment of it.
MIN_SETUPS = 5
GATE_B_QUERIES = 6
MODEL = "bench-model"
PRICES = {MODEL: {"input_per_1k": 0.0005, "output_per_1k": 0.0015}}
# Tail percentile rule: the highest percentile with at least this many
# claims beyond it.
TAIL_BEYOND = 10


class Stub:
    """The stub chat-completions server, in a process of its own."""

    def __init__(self, latency_ms: float, direct_per_mille: int):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "stub.py"),
             "--latency-ms", str(latency_ms), "--direct-per-mille", str(direct_per_mille)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.stop()
            raise RuntimeError(f"stub server did not start: {line!r}")
        self.base = f"http://127.0.0.1:{int(line.split()[1])}"
        self.url = self.base + "/v1/chat/completions"

    def count(self) -> int:
        with urllib.request.urlopen(self.base + "/count", timeout=30) as response:
            return json.load(response)["requests"]

    def stop(self) -> None:
        self.proc.stdin.close()
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class _WarningCounter(logging.Handler):
    """Counts the backend's retry warnings."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


@dataclass
class Session:
    config: object
    records: list
    index: object
    suite: BackendSuite
    ledger: CostLedger
    caches: list


@dataclass
class PassResult:
    wall: float
    cpu: float
    traces: list
    sent: int  # requests that reached the stub or the scripted backends
    hits: int
    misses: int
    priced_input_tokens: int
    cache_file_bytes: int  # size of the on-disk response cache after the batch


@dataclass
class Phase:
    passes: List[PassResult] = field(default_factory=list)

    @property
    def claims(self) -> int:
        return sum(len(p.traces) for p in self.passes)

    @property
    def wall(self) -> float:
        return sum(p.wall for p in self.passes)

    @property
    def claims_per_s(self) -> float:
        return self.claims / self.wall


def _scripted_suite(ledger: CostLedger, direct_per_mille: int) -> BackendSuite:
    def backend(purpose: str) -> ScriptedBackend:
        scripted = ScriptedBackend(model=f"scripted-{purpose}", ledger=ledger)
        return scripted.register(lambda p: True, lambda p: answers.answer(p, direct_per_mille))

    return BackendSuite(backend("graph"), backend("infill"), backend("verify"), backend("select"))


def _pipeline_kwargs(config) -> dict:
    return {
        "mode": config.pipeline,
        "budget": PathBudget(config.path_limit, config.seed),
        "k": config.k,
        "direct_strategy": DocStrategy(config.direct_strategy),
        "graphcheck_strategy": DocStrategy(config.graphcheck_strategy),
        "blank_token": config.blank_token,
        "include_definitions": config.include_definitions,
        "truncation_chars": config.truncation_chars,
        "workers": config.workers,
    }


def _stripped(trace) -> dict:
    row = trace_to_dict(trace)
    row.pop("timings")
    return row


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def tail(values):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples
    above it, or the maximum when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


class Run:
    def __init__(self, spec: Workload, seed: int, seconds: float, trace: bool):
        self.spec = spec
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = os.path.join(ROOT, ".bench_work", f"{spec.name}-s{seed}-p{os.getpid()}")
        self.paths = input_paths(self.work)
        self.stub: Optional[Stub] = None
        self.session: Optional[Session] = None  # the latest; older ones are released
        self.setup_samples: List[float] = []
        self.load_samples: List[float] = []
        self.cache_load_samples: List[float] = []
        self.failures: List[str] = []
        self.failed_claims: set = set()
        self.attempted = 0
        self.peak_rss_mb: Optional[float] = None  # after the first timed batch
        self.warnings = _WarningCounter()

    # -- preparation -------------------------------------------------------

    def prepare(self) -> dict:
        os.makedirs(self.work)
        command = [sys.executable, os.path.join(BENCH_DIR, "prepare.py"),
                   "--workload", self.spec.name, "--seed", str(self.seed), "--dir", self.work]
        if self.trace:
            command.append("--stats")
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True, timeout=170)
        prepared = json.loads(done.stdout.strip().splitlines()[-1])
        if self.spec.backend != "scripted":
            latency = STUB_LATENCY_MS if self.spec.backend == "http" else 0.0
            self.stub = Stub(latency, self.spec.shape.direct_per_mille)
        config = {
            "corpus": self.paths["corpus"], "index_path": self.paths["index"],
            "dataset": self.paths["dataset"], "dataset_format": "generic",
            "k": K, "path_limit": PATH_LIMIT,
            "pipeline": "dp_graphcheck", "workers": self.spec.workers, "prices": PRICES,
        }
        if self.stub is not None:
            config["backends"] = {"default": {
                "type": "http", "endpoint": self.stub.url, "model": MODEL,
                "cache_path": self.paths["cache"],
            }}
        with open(self.paths["config"], "w", encoding="utf-8") as handle:
            json.dump(config, handle)
        return prepared

    def cleanup(self) -> None:
        if self.stub is not None:
            self.stub.stop()
        shutil.rmtree(self.work, ignore_errors=True)

    # -- setup and timed passes --------------------------------------------

    def setup(self, time_cache: bool = False) -> Session:
        """Everything between workload start and the first claim."""
        if self.spec.backend == "http" and os.path.exists(self.paths["cache"]):
            os.remove(self.paths["cache"])  # a fresh on-disk cache for every batch
        self.session = None
        gc.collect()
        started = time.perf_counter()
        config = load_config(self.paths["config"])
        records = load_dataset(config.dataset, config.dataset_format)
        loading = time.perf_counter()
        index = load_index(config.index_path)
        load_s = time.perf_counter() - loading
        ledger = CostLedger(config.prices)
        if self.spec.backend == "scripted":
            suite, caches = _scripted_suite(ledger, self.spec.shape.direct_per_mille), []
        else:
            suite, cache_map = build_backends(config, ledger)
            caches = list(cache_map.values())
        setup_s = time.perf_counter() - started
        self.setup_samples.append(setup_s)
        self.load_samples.append(load_s)
        if time_cache and caches:
            timed = time.perf_counter()
            ResponseCache(self.paths["cache"])
            self.cache_load_samples.append(time.perf_counter() - timed)
        self.session = Session(config, records, index, suite, ledger, caches)
        return self.session

    def run_pass(self, session: Session, tracer: Optional[Tracer] = None) -> PassResult:
        suite = session.suite
        if tracer is not None:
            suite = tracer.traced_suite(suite)
            for cache in session.caches:
                tracer.trace_cache(cache)
        stub_before = self.stub.count() if self.stub is not None else 0
        cpu_started = time.process_time()
        started = time.perf_counter()
        with tracer.install() if tracer is not None else contextlib.nullcontext():
            _, traces = run_eval(session.records, session.index, suite,
                                 ledger=session.ledger, **_pipeline_kwargs(session.config))
        wall = time.perf_counter() - started
        cpu = time.process_time() - cpu_started
        if self.stub is not None:
            sent = self.stub.count() - stub_before
        else:
            sent = sum(session.suite.backend_for(p).call_count for p in PURPOSES)
        result = PassResult(wall, cpu, traces, sent,
                            hits=sum(c.hits for c in session.caches),
                            misses=sum(c.misses for c in session.caches),
                            priced_input_tokens=session.ledger.totals().input_tokens,
                            cache_file_bytes=sum(os.path.getsize(c.path) for c in session.caches
                                                 if os.path.exists(c.path)))
        self.attempted += len(traces)
        for trace in traces:
            if trace.error:
                self.failed_claims.add(trace.claim_id)
                self.failures.append(f"claim {trace.claim_id} errored: {trace.error}")
        return result

    def phase(self, batches: int, tracer: Optional[Tracer] = None) -> Phase:
        """``batches`` closed batches of the whole claim set, each after its own setup."""
        phase = Phase()
        for _ in range(batches):
            phase.passes.append(self.run_pass(self.setup(time_cache=tracer is not None), tracer))
            if self.peak_rss_mb is None:
                # After one batch, so the figure does not grow with the batch count.
                self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return phase

    # -- the run -----------------------------------------------------------

    def execute(self) -> dict:
        logging.getLogger("graphfc.backend").addHandler(self.warnings)
        prepared = self.prepare()
        reference_phase = None
        if self.spec.backend == "replay":
            reference_phase = Phase([self.run_pass(self.setup())])
            self._gate_d(reference_phase)
            # That setup found no cache file; only setups that load it count.
            self.setup_samples.clear()
            self.load_samples.clear()
        for _ in range(MIN_SETUPS // 2):
            self.setup()
        # A traced run spends half of its seconds untraced and half traced.
        batches = self.spec.batches(self.seconds / 2 if self.trace else self.seconds)
        timed = self.phase(batches)
        traced, tracer = None, None
        if self.trace:
            tracer = Tracer()
            traced = self.phase(batches, tracer)
        while len(self.setup_samples) < MIN_SETUPS:
            self.setup()

        # numpy and the oracle are imported only now, after the timed batches,
        # so they stay out of peak_rss_mb.
        import numpy as np
        from oracle import ReferenceBM25

        rows = _read_jsonl(self.paths["corpus"])
        with np.load(self.paths["reference"]) as arrays:
            reference = ReferenceBM25(dict(arrays), rows)
        self.check(timed, traced, reference_phase, reference)
        metrics = self.end_to_end(timed, reference_phase)
        if self.trace:
            metrics = self.layers(prepared, timed, traced, tracer, reference)
            os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
            tracer.write(os.path.join(ROOT, ".bench_out", f"spans-{self.spec.name}-s{self.seed}.jsonl"))
        self.report(timed, prepared)
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failed_claims),
            "metrics": metrics,
        }

    # -- correctness gates -------------------------------------------------

    def check(self, timed: Phase, traced: Optional[Phase], reference_phase: Optional[Phase],
              reference) -> None:
        from oracle import Oracle, check_search, check_trace

        first = timed.passes[0]
        config = self.session.config
        # Every batch of the run must repeat the first one exactly.
        first_rows = [_stripped(t) for t in first.traces]
        for phase in (timed, traced):
            for result in (phase.passes if phase else ()):
                for want, trace in zip(first_rows, result.traces):
                    if _stripped(trace) != want:
                        self._fail(trace.claim_id, "trace differs between batches")
        # (a) brute-force oracle on every claim, from the generator's plans.
        oracle = Oracle(reference, config.k, config.path_limit, config.seed, config.blank_token,
                        self.spec.shape.direct_per_mille)
        plans = _read_jsonl(self.paths["plan"])
        if [p["id"] for p in plans] != [row["claim_id"] for row in first_rows]:
            self._fail(None, "(a) the batch's claims are not the generated claims")
        for plan, row in zip(plans, first_rows):
            problem = check_trace(oracle.decide(plan), row)
            if problem:
                self._fail(plan["id"], f"(a) claim {plan['id']}: {problem}")
        # (b) top-k and scores of a seeded sample of the issued queries.
        queries = sorted({q for t in first.traces for q in _queries(t)})
        sample = random.Random(self.seed).sample(queries, min(GATE_B_QUERIES, len(queries)))
        for query in sample:
            problem = check_search(self.session.index, reference, query, config.k)
            if problem:
                self._fail(None, "(b) " + problem)
        # (c) a replay equals the run that filled the cache, from the cache alone.
        if reference_phase is not None:
            filled = [_stripped(t) for t in reference_phase.passes[0].traces]
            if filled != first_rows:
                self._fail(None, "(c) replayed traces differ from the traces that filled the cache")
            for phase in (timed, traced):
                for result in (phase.passes if phase else ()):
                    if result.misses or not result.hits or result.sent:
                        self._fail(None, f"(c) replay: hits={result.hits} misses={result.misses} "
                                         f"stub requests={result.sent}")
        if self.spec.backend == "http":
            self._gate_d(timed)
            if traced:
                self._gate_d(traced)

    def _gate_d(self, phase: Phase) -> None:
        """(d) every cache miss, and nothing else, reached the stub."""
        for result in phase.passes:
            if result.sent != result.misses:
                self._fail(None, f"(d) stub requests {result.sent} != cache misses {result.misses}")

    def _fail(self, claim_id, message: str) -> None:
        if claim_id is not None:
            self.failed_claims.add(claim_id)
        self.failures.append(message)

    # -- metrics -----------------------------------------------------------

    def end_to_end(self, timed: Phase, fill: Optional[Phase]) -> dict:
        traces = [t for p in timed.passes for t in p.traces]
        claims = len(traces)
        latencies = [t.timings["total_s"] * 1000.0 for t in traces]
        tail_ms, tail_pct = tail(latencies)
        print(f"claim_ms_tail is the p{tail_pct:.1f} latency of {claims} claims")
        # Requests that reached a backend and the input tokens priced for them.
        # A replay's timed batches send none (gate (c)), so its figures are
        # those of the batch that filled the cache it replays.
        paying = (fill or timed).passes
        paid_claims = sum(len(p.traces) for p in paying)
        return {
            "claims_per_s": (timed.claims_per_s, "1/s"),
            "claim_ms_p50": (statistics.median(latencies), "ms"),
            "claim_ms_tail": (tail_ms, "ms"),
            "setup_s": (statistics.median(self.setup_samples), "s"),
            "backend_calls_per_claim": (sum(p.sent for p in paying) / paid_claims, "count"),
            "input_tokens_per_claim": (sum(p.priced_input_tokens for p in paying) / paid_claims, "count"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
            "index_mb": (os.path.getsize(self.paths["index"]) / 1e6, "MB"),
        }

    def layers(self, prepared: dict, timed: Phase, traced: Phase, tracer: Tracer, reference) -> dict:
        spans = tracer.spans
        by_name: dict = {}
        for span in spans:
            by_name.setdefault(span.name, []).append(span)
        claims = by_name.get("claim", [])
        n_claims = len(claims)
        claim_s = sum(s.duration for s in claims)
        retrieves = by_name.get("retrieval.retrieve", [])
        searches = by_name.get("retrieval.search", [])
        backend = [s for s in spans if s.name.startswith("backend.")]
        traces = [t for p in traced.passes for t in p.traces]
        steps = [len(r.outcome.per_entity) for t in traces for r in t.paths]
        degraded = [len(r.outcome.degraded) for t in traces for r in t.paths]

        def per_claim(value):
            return value / n_claims

        def ms(spans_, q):
            return percentile([s.duration * 1e3 for s in spans_], q)

        def us(spans_, q):
            return percentile([s.duration * 1e6 for s in spans_], q)

        hits = sum(p.hits for p in traced.passes)
        misses = sum(p.misses for p in traced.passes)
        timed_traces = [t for p in timed.passes for t in p.traces]
        metrics = {
            "retrieval.search_ms_p50": (ms(searches, 50), "ms"),
            "retrieval.search_ms_p95": (ms(searches, 95), "ms"),
            "retrieval.share": (sum(s.duration for s in retrieves) / claim_s, "ratio"),
            "retrieval.docs_scored_per_query": (
                statistics.mean(reference.touched(s.key) for s in searches) if searches else 0.0, "count"),
            "retrieval.calls_per_claim": (per_claim(len(retrieves)), "count"),
            "retrieval.repeat_ratio": (_repeat_ratio(retrieves), "ratio"),
            "retrieval.index_build_s": (prepared["index_build_s"], "s"),
            "retrieval.index_save_s": (prepared["index_save_s"], "s"),
            "retrieval.index_load_s": (statistics.median(self.load_samples), "s"),
        }
        for purpose in PURPOSES:
            metrics[f"backend.calls.{purpose}"] = (per_claim(len(by_name.get("backend." + purpose, []))), "count")
        metrics.update({
            "backend.repeat_ratio": (_repeat_ratio(backend), "ratio"),
            "backend.wait_ms_p50": (ms(backend, 50), "ms"),
            "backend.wait_ms_p95": (ms(backend, 95), "ms"),
            "backend.share": (sum(s.duration for s in backend) / claim_s, "ratio"),
            "backend.retries": (self.warnings.count, "count"),
            "backend.sent_per_claim": (sum(p.sent for p in traced.passes) / len(traces), "count"),
            "backend.suite_input_tokens_per_claim": (sum(t.input_tokens for t in traces) / len(traces), "count"),
            "cache.get_us_p50": (us(by_name.get("cache.get", []), 50), "us"),
            "cache.put_us_p50": (us(by_name.get("cache.put", []), 50), "us"),
            "cache.hit_rate": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
            "cache.load_s": (statistics.median(self.cache_load_samples) if self.cache_load_samples else 0.0, "s"),
            "cache.file_mb": (traced.passes[-1].cache_file_bytes / 1e6, "MB"),
            "infill.paths_per_claim": (per_claim(len(by_name.get("infill.path", []))), "count"),
            "infill.self_ms_per_claim": (
                per_claim(sum(s.self_time for s in by_name.get("infill.path", [])) * 1e3), "ms"),
            "infill.degraded_share": (sum(degraded) / sum(steps) if steps and sum(steps) else 0.0, "ratio"),
            "verdict.triplets_per_claim": (
                sum(len(r.judgments) for t in traces for r in t.paths) / len(traces), "count"),
            "verdict.direct_share": (sum(t.strategy.value == DIRECT for t in traces) / len(traces), "ratio"),
            "verdict.self_ms_per_claim": (per_claim(sum(s.self_time for s in claims) * 1e3), "ms"),
            "graph.parse_us_p50": (us(by_name.get("graph.parse", []), 50), "us"),
            "prompts.build_us_p50": (us(by_name.get("prompts.build", []), 50), "us"),
            "evaluate.cpu_per_wall": (sum(p.cpu for p in timed.passes) / timed.wall, "ratio"),
            "evaluate.worker_busy_share": (
                sum(t.timings["total_s"] for t in timed_traces) / (self.spec.workers * timed.wall), "ratio"),
            "evaluate.error_rate": (sum(bool(t.error) for t in timed_traces) / len(timed_traces), "ratio"),
            "trace.overhead": (1.0 - traced.claims_per_s / timed.claims_per_s, "ratio"),
        })
        return metrics

    def report(self, timed: Phase, prepared: dict) -> None:
        print(f"workload {self.spec.name}: seed {self.seed}, {len(timed.passes)} batch(es) of "
              f"{len(timed.passes[0].traces)} claims, workers={self.spec.workers}, "
              f"{len(self.setup_samples)} setups")
        if "top20_token_share" in prepared:
            print(f"corpus: top-20 terms hold {prepared['top20_token_share']:.1%} of all tokens")
        for message in self.failures:
            print("GATE FAILED: " + message)


def _repeat_ratio(spans) -> float:
    """Share of calls whose key already ran earlier in the same claim."""
    seen = set()
    repeats = 0
    for span in sorted(spans, key=lambda s: s.start):
        key = (id(span.root), span.key)
        repeats += key in seen
        seen.add(key)
    return repeats / len(spans) if spans else 0.0


def _read_jsonl(path: str) -> List[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def _queries(trace) -> List[str]:
    """Every BM25 query text a trace records."""
    found = [trace.claim_text]
    for record in trace.paths:
        found.extend(step.retrieval_query for step in record.outcome.per_entity)
        found.extend(j.sentence for j in record.judgments)
    return found
