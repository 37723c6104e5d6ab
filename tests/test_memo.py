"""The per-claim memo: repeated greedy completions and retrievals inside one
claim are answered once, and only what is actually sent is counted."""

from __future__ import annotations

import collections
from dataclasses import replace

import pytest

from graphfc import retrieval
from graphfc.backend import (
    DEFAULT_POLICIES,
    PURPOSES,
    RETRIEVAL,
    BackendError,
    BackendSuite,
    ClaimMemo,
    GenPolicy,
    ScriptedBackend,
    approx_token_count,
)
from graphfc.verdict import (
    DocStrategy,
    Label,
    PipelineOptions,
    dp_graphcheck,
    format_trace_dict,
    run_pipeline,
    trace_to_dict,
    verify_claim_graphcheck,
)

from conftest import (
    BAND_CLAIM,
    IQ_ENT1_AFTER,
    IQ_ENT1_FIRST,
    IQ_ENT2_AFTER_RIGHT,
    IQ_ENT2_FIRST,
    MUSICIAN_GRAPH,
)
from scenarios import NO_TRUNCATION, make_scenario, scenario_suite


class Recorder:
    """Passes requests on and keeps each one, and each response returned, for
    per-claim assertions."""

    def __init__(self, inner):
        self.inner = inner
        self.requests = []
        self.responses = []

    @property
    def model(self):
        return self.inner.model

    def complete(self, req):
        self.requests.append(req)
        response = self.inner.complete(req)
        self.responses.append(response)
        return response


@pytest.fixture
def search_counter(monkeypatch):
    """Counts BM25 searches by query text."""
    counts = collections.Counter()
    original = retrieval.search

    def counted(index, query, k):
        counts[query] += 1
        return original(index, query, k)

    monkeypatch.setattr(retrieval, "search", counted)
    return counts


class TestScenarios:
    def test_no_greedy_prompt_or_query_runs_twice_in_a_claim(self, search_counter):
        hits = collections.Counter()
        for seed in range(200):
            scenario = make_scenario(seed)
            roles = {p: Recorder(b) for p, b in zip(PURPOSES, _roles(scenario_suite(scenario)))}
            search_counter.clear()
            trace = run_pipeline(
                scenario.claim_text, scenario.index, BackendSuite(**roles),
                k=2, graphcheck_strategy="concat_each", truncation_chars=NO_TRUNCATION,
            )
            for purpose, recorder in roles.items():
                prompts = collections.Counter(req.prompt for req in recorder.requests)
                assert max(prompts.values(), default=1) == 1, (seed, purpose)
                assert trace.calls[purpose] == len(recorder.requests)
            assert max(search_counter.values()) == 1, seed
            assert trace.memo_hits[RETRIEVAL] == (
                _retrievals(trace) - sum(search_counter.values())
            )
            hits.update(trace.memo_hits)
        # The scenarios repeat work across paths, so the memo is exercised.
        assert hits["verification"] > 0 and hits["infilling"] > 0 and hits[RETRIEVAL] > 0

    def test_memo_changes_no_outcome_and_answers_every_repeat(self):
        options = PipelineOptions(
            mode="graphcheck", k=2, graphcheck_strategy="concat_each",
            truncation_chars=NO_TRUNCATION,
        )
        for seed in range(0, 200, 5):
            scenario = make_scenario(seed)
            plain = scenario_suite(scenario)
            label, records = verify_claim_graphcheck(
                scenario.graph, scenario.index, plain, options
            )
            trace = run_pipeline(
                scenario.claim_text, scenario.index, scenario_suite(scenario),
                pregenerated_graph=scenario.graph_text, **vars(options),
            )
            assert (trace.final, trace.paths) == (label, records), seed
            # Without a memo every repeat is sent: sent + answered from the
            # memo equals what the memo-less run sent.
            for purpose in ("infilling", "verification"):
                sent = plain.backend_for(purpose).call_count
                assert trace.calls[purpose] + trace.memo_hits[purpose] == sent, (seed, purpose)


def _roles(suite):
    return [suite.backend_for(p) for p in PURPOSES]


def _retrievals(trace) -> int:
    """Retrievals the pipeline asked for: the claim's, one per infilling
    step and one per judged triplet."""
    return 1 + sum(
        len(r.outcome.per_entity) + len(r.judgments) for r in trace.paths
    )


def same_bindings_suite(policies=None) -> BackendSuite:
    """Both identification orders of the musician graph bind (Davey
    Brozowski, Modest Mouse); the last definitional triplet is refuted, so
    both paths fail on the same five sentences."""
    selection = ScriptedBackend().register_contains(
        "Does the evidence contain sufficient information", response="no"
    )
    infilling = ScriptedBackend()
    for query, answer in ((IQ_ENT1_FIRST, "Davey Brozowski"),
                          (IQ_ENT2_AFTER_RIGHT, "Modest Mouse"),
                          (IQ_ENT2_FIRST, "Modest Mouse"),
                          (IQ_ENT1_AFTER, "Davey Brozowski")):
        infilling.register_contains(query, response=answer)
    verification = ScriptedBackend().register(
        lambda p: "Is the claim true or false?" in p,
        lambda p: "false" if "Claim: Modest Mouse is a band.\n" in p else "true",
    )
    construction = ScriptedBackend()
    suite = BackendSuite(construction, infilling, verification, selection)
    if policies:
        suite.policies = {**DEFAULT_POLICIES, **policies}
    return suite


def run_two_paths(band_index, suite):
    return dp_graphcheck(
        BAND_CLAIM, band_index, suite, pregenerated_graph=MUSICIAN_GRAPH, k=2,
        graphcheck_strategy=DocStrategy.CONCAT,
    )


class TestTwoPathsSameBindings:
    def test_second_path_is_answered_from_the_memo(self, band_index, search_counter):
        suite = same_bindings_suite()
        trace = run_two_paths(band_index, suite)
        assert trace.final is Label.NOT_SUPPORTED
        first, second = trace.paths
        assert first.outcome.bindings == second.outcome.bindings
        assert len(first.judgments) == len(second.judgments) == 5
        assert trace.calls == {
            "graph_construction": 0, "infilling": 4, "verification": 5, "selection": 1,
        }
        assert trace.memo_hits == {
            "graph_construction": 0, "infilling": 0, "verification": 5, "selection": 0,
            "retrieval": 5,
        }
        # The claim, four infilling steps and the first path's five sentences.
        assert sum(search_counter.values()) == 10
        assert suite.verification.call_count == 5

    def test_sampling_role_receives_every_repeat(self, band_index, search_counter):
        sampling = GenPolicy(temperature=0.7)
        suite = same_bindings_suite({"verification": sampling})
        trace = run_two_paths(band_index, suite)
        assert trace.final is Label.NOT_SUPPORTED
        assert suite.verification.call_count == 10
        assert trace.calls["verification"] == 10
        assert trace.memo_hits["verification"] == 0
        # Retrievals do not depend on the decoding policy.
        assert trace.memo_hits[RETRIEVAL] == 5
        assert sum(search_counter.values()) == 10

    def test_memo_ends_with_the_claim(self, band_index):
        suite = same_bindings_suite()
        first = run_two_paths(band_index, suite)
        second = run_two_paths(band_index, suite)
        assert first.calls == second.calls
        assert first.memo_hits == second.memo_hits
        assert suite.verification.call_count == 10

    def test_trace_reports_memo_hits(self, band_index):
        trace = run_two_paths(band_index, same_bindings_suite())
        row = trace_to_dict(trace)
        assert row["memo_hits"] == trace.memo_hits
        assert "memo_hits" not in row["calls"]
        assert "  memo hits: verification=5, retrieval=5" in format_trace_dict(row).splitlines()


class TestClaimMemo:
    def test_failures_are_not_stored(self):
        memo = ClaimMemo()

        def fail():
            raise BackendError("down")

        with pytest.raises(BackendError):
            memo.recall("verification", "p", fail)
        assert memo.recall("verification", "p", lambda: "answer") == "answer"
        assert memo.recall("verification", "p", fail) == "answer"
        assert memo.hits["verification"] == 1

    def test_kinds_do_not_share_keys(self):
        memo = ClaimMemo()
        assert memo.recall("verification", "p", lambda: "v") == "v"
        assert memo.recall("infilling", "p", lambda: "i") == "i"
        assert memo.hits == dict.fromkeys(PURPOSES + (RETRIEVAL,), 0)

    def test_suite_without_memo_always_sends(self):
        backend = ScriptedBackend().register(lambda p: True, "yes")
        suite = BackendSuite.single(backend)
        suite.complete("verification", "p")
        suite.complete("verification", "p")
        assert backend.call_count == 2


class TestViewAccounting:
    """A claim's view counts the requests that reached a backend and their
    tokens: not the repeats its memo answered, nor a request that failed."""

    @pytest.mark.parametrize("temperature", [0.0, 0.7], ids=["greedy", "sample"])
    def test_tokens_sum_the_requests_the_roles_received(self, band_index, temperature):
        suite = same_bindings_suite({"verification": GenPolicy(temperature=temperature)})
        roles = {p: Recorder(suite.backend_for(p)) for p in PURPOSES}
        trace = run_two_paths(band_index, replace(suite, **roles))
        sent = [req for recorder in roles.values() for req in recorder.requests]
        texts = [r.text for recorder in roles.values() for r in recorder.responses]
        assert trace.input_tokens == sum(approx_token_count(req.prompt) for req in sent)
        assert trace.output_tokens == sum(approx_token_count(text) for text in texts)
        assert trace.calls == {p: len(recorder.requests) for p, recorder in roles.items()}
        # Greedy: the second path's five sentences are memo hits, not sent.
        # Sampling: every repeat is sent and counted.
        repeats = 5 if temperature else 0
        assert trace.calls["verification"] == 5 + repeats
        assert trace.memo_hits["verification"] == 5 - repeats

    @pytest.mark.parametrize("temperature", [0.0, 0.7], ids=["greedy", "sample"])
    def test_a_failed_request_counts_in_neither_calls_nor_tokens(self, temperature):
        backend = Recorder(ScriptedBackend().register("known prompt", "yes"))
        view = BackendSuite.single(backend).counted()
        view.policies = {**DEFAULT_POLICIES, "verification": GenPolicy(temperature=temperature)}
        with pytest.raises(BackendError):
            view.complete("verification", "unknown prompt")
        view.complete("verification", "known prompt")
        assert len(backend.requests) == 2
        assert view.memo.calls == {
            "graph_construction": 0, "infilling": 0, "verification": 1, "selection": 0,
        }
        assert (view.memo.input_tokens, view.memo.output_tokens) == (2, 1)
