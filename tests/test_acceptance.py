"""Acceptance suite: one test per release criterion, each printing a PASS line.

Expected values come from independent oracles: the published example strings
for the parser and query builders, hand-evaluated closed-form BM25 scores, an
enumeration oracle for gold merging, a hand-computed confusion matrix for
Macro-F1, and a brute-force no-short-circuit oracle for claim verdicts.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import time

import pytest

from graphfc.backend import CostLedger, GenRequest, HttpBackend
from graphfc.evaluate import macro_f1
from graphfc.graph import PlaceholderId, parse_graph, placeholders_of, serialize_graph
from graphfc.infill import PathBudget, build_infill_query, build_retrieval_query, enumerate_paths
from graphfc.prompts import FEW_SHOT_EXAMPLES
from graphfc.retrieval import Document, build_index, merge_gold, search
from graphfc.verdict import DIRECT, DocStrategy, Label, dp_graphcheck
from graphfc import cli

from clifixtures import build_eval_fixture
from conftest import BAND_CLAIM, MUSICIAN_GRAPH, band_suite
from scenarios import make_scenario, oracle_verdict, scenario_suite
from stub_server import StubServer

E1, E2 = PlaceholderId(1), PlaceholderId(2)


def report_pass(number: int, name: str) -> None:
    print(f"[acceptance] criterion {number} ({name}): PASS")


def test_criterion_1_parser_golden_suite(capsys):
    started = time.perf_counter()
    assert len(FEW_SHOT_EXAMPLES) == 10
    for _, graph_text in FEW_SHOT_EXAMPLES:
        graph, diagnostics = parse_graph(graph_text)
        assert graph is not None, diagnostics
        assert not diagnostics
        # Structural invariants.
        assert len(graph.triples) >= 1
        defined = set(graph.latent_defs)
        assert len({p.index for p in defined}) == len(defined)
        for triple in graph.triples:
            assert placeholders_of(triple) <= defined
        for p, definition in graph.latent_defs.items():
            assert len(definition.subject) == 1
            assert definition.subject[0] == p
        # Byte-identical re-serialization modulo surrounding whitespace.
        assert serialize_graph(graph).strip() == graph_text.strip()

    # Malformed inputs produce the designated diagnostic kinds.
    arity_graph, arity_diags = parse_graph("# Latent Entities:\n# Triples:\nA [SEP] b")
    assert arity_graph is None
    assert {d.kind for d in arity_diags if d.severity == "error"} == {"malformed_line"}

    undef_graph, undef_diags = parse_graph(
        "# Latent Entities:\n# Triples:\n(ENT3) [SEP] haunts [SEP] the archive"
    )
    assert undef_graph is None
    assert {d.kind for d in undef_diags if d.severity == "error"} == {"undefined_placeholder"}

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"parser golden suite took {elapsed:.3f}s"
    with capsys.disabled():
        report_pass(1, "parser golden suite")


def test_criterion_2_query_construction_bit_exactness(musician_graph, capsys):
    assert build_retrieval_query(musician_graph, E1, {}) == (
        "a musician is part of Tall Birds."
    )
    assert build_infill_query(musician_graph, E1, {}) == (
        "<extra_id_0> is part of Tall Birds. <extra_id_0> is a musician."
    )
    assert build_retrieval_query(musician_graph, E2, {E1: "Randall Nieman"}) == (
        "Randall Nieman is a percussionist for a band. "
        "a band formed in Issaquah, Washington."
    )
    assert build_infill_query(musician_graph, E2, {E1: "Randall Nieman"}) == (
        "Randall Nieman is a percussionist for <extra_id_0>. "
        "<extra_id_0> formed in Issaquah, Washington. <extra_id_0> is a band."
    )
    with capsys.disabled():
        report_pass(2, "query construction bit-exactness")


def _graph_with_latents(n: int):
    defs = "".join(f"(ENT{i}) [SEP] is [SEP] a thing {i}\n" for i in range(1, n + 1))
    triples = "\n".join(
        f"(ENT{i}) [SEP] touches [SEP] topic {i}" for i in range(1, n + 1)
    ) or "alpha [SEP] concerns [SEP] beta"
    graph, _ = parse_graph(f"# Latent Entities:\n{defs}# Triples:\n{triples}")
    assert graph is not None
    return graph


def test_criterion_3_path_enumeration(capsys):
    started = time.perf_counter()
    for n in (0, 1, 2, 3):
        graph = _graph_with_latents(n)
        paths = enumerate_paths(graph, PathBudget(limit=5, seed=0))
        expected = min(math.factorial(n), 5) if n else 1
        assert len(paths) == expected
        orders = {p.order for p in paths}
        assert len(orders) == expected
        for order in orders:
            assert sorted(order) == sorted(graph.latent_defs)
        if math.factorial(n) <= 5:
            assert [p.order for p in paths] == list(
                itertools.permutations(sorted(graph.latent_defs))
            )

    graph4 = _graph_with_latents(4)
    for seed in range(100):
        budget = PathBudget(limit=5, seed=seed)
        first = enumerate_paths(graph4, budget)
        second = enumerate_paths(graph4, budget)
        assert first == second
        orders = {p.order for p in first}
        assert len(first) == 5 and len(orders) == 5
        for order in orders:
            assert sorted(order) == sorted(graph4.latent_defs)

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"path enumeration took {elapsed:.3f}s"
    with capsys.disabled():
        report_pass(3, "path enumeration")


def _pipeline_verdict(scenario, strategy: str, judge=None) -> Label:
    suite = scenario_suite(scenario, judge)
    trace = dp_graphcheck(
        scenario.claim_text,
        scenario.index,
        suite,
        claim_id=str(scenario.seed),
        pregenerated_graph=scenario.graph_text,
        budget=PathBudget(limit=5, seed=0),
        k=2,
        graphcheck_strategy=DocStrategy(strategy),
    )
    return trace.final


def test_criterion_4_verdict_oracle_equivalence(capsys):
    started = time.perf_counter()
    budget = PathBudget(limit=5, seed=0)
    n_scenarios = 200
    supported_count = 0
    for seed in range(n_scenarios):
        scenario = make_scenario(seed)

        judged = []
        expected = oracle_verdict(scenario, budget, k=2, strategy="concat_each",
                                  judged_pairs=judged)
        actual = _pipeline_verdict(scenario, "concat_each")
        assert actual == expected, f"scenario {seed}: {actual} != oracle {expected}"
        supported_count += expected is Label.SUPPORTED

        # Monotonicity: flipping one NotSupported judgment to Supported never
        # flips the claim verdict from Supported to NotSupported.
        false_pairs = [(s, e) for s, e, verdict in judged if not verdict]
        if false_pairs:
            flip = false_pairs[seed % len(false_pairs)]

            def judge2(sentence, evidence, _flip=flip, _sc=scenario):
                if (sentence, evidence) == _flip:
                    return True
                return _sc.judge(sentence, evidence)

            flipped_actual = _pipeline_verdict(scenario, "concat_each", judge2)
            flipped_expected = oracle_verdict(
                scenario, budget, k=2, strategy="concat_each", judge=judge2
            )
            assert flipped_actual == flipped_expected
            if expected is Label.SUPPORTED:
                assert flipped_actual is Label.SUPPORTED

        # Document-strategy dominance.
        concat = _pipeline_verdict(scenario, "concat")
        each = _pipeline_verdict(scenario, "each")
        union = _pipeline_verdict(scenario, "concat_each")
        if concat is Label.SUPPORTED:
            assert union is Label.SUPPORTED
        if each is Label.SUPPORTED:
            assert union is Label.SUPPORTED

    # The random scenarios must exercise both outcomes.
    assert 0 < supported_count < n_scenarios
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"oracle equivalence took {elapsed:.3f}s"
    with capsys.disabled():
        report_pass(4, f"verdict oracle equivalence ({n_scenarios} scenarios)")


def test_criterion_5_call_accounting(band_index, capsys):
    # Direct-routed: exactly one selector call and one verifier call.
    suite = band_suite(route="direct")
    trace = dp_graphcheck(
        BAND_CLAIM, band_index, suite, pregenerated_graph=MUSICIAN_GRAPH,
        k=2, direct_strategy=DocStrategy.CONCAT,
    )
    assert trace.final is Label.SUPPORTED
    assert trace.strategy.value == DIRECT
    assert trace.calls == {
        "graph_construction": 0, "infilling": 0, "verification": 1, "selection": 1
    }

    # GraphCheck-routed, first path passing: the second path is never run.
    suite = band_suite(route="graphcheck", correct_first_path=True)
    trace = dp_graphcheck(
        BAND_CLAIM, band_index, suite, pregenerated_graph=MUSICIAN_GRAPH,
        k=2, graphcheck_strategy=DocStrategy.CONCAT,
    )
    assert trace.final is Label.SUPPORTED
    assert len(trace.paths) == 1
    assert trace.calls == {
        "graph_construction": 0,
        "infilling": 2,       # one per latent entity, first path only
        "verification": 5,    # 3 fact triplets + 2 definitional triplets
        "selection": 1,
    }

    # GraphCheck-routed, first path failing on its first triplet: exactly one
    # wasted verification call before the second path passes.
    suite = band_suite(route="graphcheck")
    trace = dp_graphcheck(
        BAND_CLAIM, band_index, suite, pregenerated_graph=MUSICIAN_GRAPH,
        k=2, graphcheck_strategy=DocStrategy.CONCAT,
    )
    assert trace.final is Label.SUPPORTED
    assert len(trace.paths) == 2
    assert trace.calls == {
        "graph_construction": 0,
        "infilling": 4,       # two per path
        "verification": 6,    # path 1: 1 failing, path 2: all 5
        "selection": 1,
    }
    with capsys.disabled():
        report_pass(5, "orchestrator call accounting")


def test_criterion_6_bm25_correctness(capsys):
    # Index text is title + " " + text: d1="alpha x x y" (4 tokens),
    # d2="beta x z z z" (5), d3="gamma y y q" (4); N=3, avgdl=13/3.
    index = build_index(
        [
            Document("d1", "alpha", "x x y"),
            Document("d2", "beta", "x z z z"),
            Document("d3", "gamma", "y y q"),
        ]
    )

    def closed_form(tf, df, doc_len):
        idf = math.log(1 + (3 - df + 0.5) / (df + 0.5))
        return idf * tf * (1.2 + 1) / (tf + 1.2 * (1 - 0.75 + 0.75 * doc_len / (13 / 3)))

    bundle = search(index, "x", k=10)
    assert bundle.doc_ids == ("d1", "d2")
    assert bundle.docs[0][1] == pytest.approx(closed_form(2, 2, 4), abs=1e-6)
    assert bundle.docs[1][1] == pytest.approx(closed_form(1, 2, 5), abs=1e-6)
    # Frozen hand-evaluated literals.
    assert bundle.docs[0][1] == pytest.approx(0.660545641102115, abs=1e-6)
    assert bundle.docs[1][1] == pytest.approx(0.4421744669877645, abs=1e-6)

    only = search(index, "q", k=10)
    assert only.doc_ids == ("d3",)
    assert only.docs[0][1] == pytest.approx(1.0126973514850315, abs=1e-6)
    assert only.docs[0][1] == pytest.approx(closed_form(1, 1, 4), abs=1e-6)

    combined = search(index, "x y", k=10)
    by_id = {doc.doc_id: score for doc, score in combined.docs}
    assert by_id["d1"] == pytest.approx(1.145820146388326, abs=1e-6)

    # Equal scores break ties by ascending doc_id.
    tie_index = build_index(
        [Document("zz", "a", "t t"), Document("aa", "b", "t t")]
    )
    assert search(tie_index, "t", k=2).doc_ids == ("aa", "zz")
    with capsys.disabled():
        report_pass(6, "BM25 closed-form correctness")


def test_criterion_7_merge_gold(capsys):
    k = 5
    corpus = [Document(f"r{i}", f"R{i}", f"shared text {i}") for i in range(6)]
    index = build_index(corpus)
    retrieved = search(index, "shared text", k=k)
    assert len(retrieved) == k
    gold_pool = [Document(f"g{i}", f"G{i}", "gold doc") for i in range(k)]
    # One gold document overlaps the retrieved set.
    overlap = retrieved.docs[1][0]

    for gold_size in range(k + 1):
        gold = gold_pool[: max(0, gold_size - 1)] + ([overlap] if gold_size else [])
        merged = merge_gold(retrieved, gold, k)

        # Enumeration oracle: gold ids sorted, then retrieved non-gold in
        # retrieval order, truncated to k.
        gold_ids = sorted({d.doc_id for d in gold})
        rest = [d.doc_id for d, _ in retrieved.docs if d.doc_id not in set(gold_ids)]
        expected = (gold_ids + rest)[:k]

        assert list(merged.doc_ids) == expected
        assert len(merged) <= k
        for doc in gold:
            assert list(merged.doc_ids).count(doc.doc_id) == 1
        for doc_id, (_, score) in zip(merged.doc_ids, merged.docs):
            if doc_id in set(gold_ids):
                assert score == float("inf")

    assert merge_gold(retrieved, [], k) == retrieved
    with capsys.disabled():
        report_pass(7, "gold-evidence merging")


def test_criterion_8_macro_f1_exactness(capsys):
    S, N = Label.SUPPORTED, Label.NOT_SUPPORTED
    assert macro_f1([S, N, N, N], [S, S, N, N]) == pytest.approx(11 / 15, abs=1e-9)
    assert macro_f1([S, N, S], [S, N, S]) == 1.0
    assert macro_f1([S, S, S], [N, N, N]) == 0.0
    with capsys.disabled():
        report_pass(8, "Macro-F1 exactness")


def _strip_timing(payload: dict) -> dict:
    cleaned = dict(payload)
    cleaned.pop("timing", None)
    return cleaned


def test_criterion_9_end_to_end_determinism(tmp_path, capsys):
    paths = build_eval_fixture(tmp_path / "fixture", n_direct=8, n_graph=12)
    assert cli.main(["index", "--config", paths["config"]]) == 0

    outputs = []
    for run in (1, 2):
        report_path = str(tmp_path / f"report{run}.json")
        traces_path = str(tmp_path / f"traces{run}.jsonl")
        code = cli.main([
            "eval", "--config", paths["config"],
            "--report", report_path, "--traces", traces_path,
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        stats = re.search(r"cache: hits=(\d+) misses=(\d+)", stdout)
        requests = re.search(r"backend requests: (\d+)", stdout)
        report = json.load(open(report_path))
        traces = [json.loads(line) for line in open(traces_path)]
        outputs.append(
            {
                "report": report,
                "traces": traces,
                "hits": int(stats.group(1)),
                "misses": int(stats.group(2)),
                "requests": int(requests.group(1)),
            }
        )

    first, second = outputs
    # Byte-identical report JSON once timing fields are excluded.
    assert json.dumps(_strip_timing(first["report"]), sort_keys=True) == json.dumps(
        _strip_timing(second["report"]), sort_keys=True
    )
    # Identical per-claim traces (timings aside).
    assert len(first["traces"]) == len(second["traces"]) == 20
    for a, b in zip(first["traces"], second["traces"]):
        a, b = dict(a), dict(b)
        a.pop("timings"), b.pop("timings")
        assert a == b
    # Second run answers every greedy request from the cache.
    assert first["misses"] > 0
    assert second["misses"] == 0
    assert second["hits"] == second["requests"]
    assert second["requests"] == first["requests"]
    with capsys.disabled():
        report_pass(9, "end-to-end determinism and cache reuse")


def test_criterion_10_live_protocol_conformance(capsys):
    server = StubServer().start()
    try:
        prices = {"stub-model": (0.25, 1.5)}
        ledger = CostLedger(prices)
        backend = HttpBackend(
            server.url, model="stub-model", api_key="k",
            max_attempts=3, retry_base_delay=0.01, ledger=ledger,
        )

        # Plain completion round-trip.
        server.plan(("first answer", 120, 30))
        out = backend.complete(GenRequest(prompt="p1", purpose="verification"))
        assert out.text == "first answer"
        assert (out.input_tokens, out.output_tokens) == (120, 30)

        # Injected 500s are retried; the third attempt succeeds.
        before = server.request_count
        server.plan(500, 500, ("recovered", 80, 8))
        out = backend.complete(GenRequest(prompt="p2", purpose="selection"))
        assert out.text == "recovered"
        assert server.request_count - before == 3

        # Exhausted retries surface status and body after exactly 3 attempts.
        before = server.request_count
        server.plan(500, 500, 500)
        try:
            backend.complete(GenRequest(prompt="p3", purpose="selection"))
            raise AssertionError("expected a backend error")
        except Exception as exc:  # noqa: BLE001
            assert getattr(exc, "status", None) == 500
            assert "injected" in getattr(exc, "body", "")
        assert server.request_count - before == 3

        # Ledger totals equal stub-reported usage times the price table.
        totals = ledger.totals()
        expected_cost = (
            120 / 1000 * 0.25 + 30 / 1000 * 1.5
            + 80 / 1000 * 0.25 + 8 / 1000 * 1.5
        )
        assert totals.input_tokens == 200
        assert totals.output_tokens == 38
        assert totals.cost == expected_cost
        assert totals.requests == 2  # failed request contributes no response
        backend.close()
    finally:
        server.stop()
    with capsys.disabled():
        report_pass(10, "live protocol conformance")
