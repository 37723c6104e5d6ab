"""Verification semantics: answer parsing, document strategies, short-circuit
behavior, strategy selection, and the adaptive orchestrator."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphfc import infill, verdict
from graphfc.backend import BackendSuite, ScriptedBackend
from graphfc.graph import PlaceholderId, parse_graph, parse_triplet_line
from graphfc.infill import Path, PathBudget, infill_path
from graphfc.retrieval import GOLD_SCORE, Document, build_index, retrieve
from graphfc.verdict import (
    DIRECT,
    GRAPHCHECK,
    DocStrategy,
    Label,
    PipelineOptions,
    _judge_sentence,
    dp_graphcheck,
    evidence_texts,
    format_trace_dict,
    is_affirmative,
    normalize_answer,
    run_pipeline,
    select_strategy,
    trace_to_dict,
    truncated_concat,
    verify_claim_graphcheck,
    verify_path,
    verify_triplet,
)

from conftest import BAND_CLAIM, MUSICIAN_GRAPH, band_suite

E1, E2 = PlaceholderId(1), PlaceholderId(2)


def verifier(*answers):
    """A scripted backend answering verification prompts in sequence."""
    backend = ScriptedBackend()
    for answer in answers:
        backend.register_contains("Is the claim true or false?", response=answer)
    return backend


class TestNormalization:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("true", "true"),
            (" True. ", "true"),
            ("YES, definitely", "yes"),
            ("Not supported", "not"),
            ("", ""),
            ("  \n ", ""),
        ],
    )
    def test_normalize(self, raw, expected):
        assert normalize_answer(raw) == expected

    @given(st.text(max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_idempotent_and_case_insensitive(self, raw):
        once = normalize_answer(raw)
        assert normalize_answer(once) == once
        assert normalize_answer(raw.upper()) == normalize_answer(raw.lower())

    def test_affirmative_set(self):
        assert is_affirmative("True.")
        assert is_affirmative("yes")
        assert is_affirmative("Supported")
        assert not is_affirmative("false")
        assert not is_affirmative("maybe")


class TestVerifySentence:
    def test_second_evidence_supports(self):
        backend = verifier("false", "true")
        label = _judge_sentence("s", ["e1", "e2"], BackendSuite.single(backend))[0]
        assert label is Label.SUPPORTED
        assert backend.call_count == 2

    def test_all_negative(self):
        backend = verifier("false", "false", "no")
        assert _judge_sentence(
            "s", ["e1", "e2", "e3"], BackendSuite.single(backend)
        )[0] is Label.NOT_SUPPORTED
        assert backend.call_count == 3

    def test_normalization_and_short_circuit(self):
        backend = verifier("True.")
        assert _judge_sentence(
            "s", ["e1", "e2"], BackendSuite.single(backend)
        )[0] is Label.SUPPORTED
        assert backend.call_count == 1

    def test_prompt_format(self):
        backend = ScriptedBackend().register(
            "Evidence: the evidence\nClaim: the claim\nIs the claim true or false?\nAnswer:",
            "true",
        )
        assert _judge_sentence(
            "the claim", ["the evidence"], BackendSuite.single(backend)
        )[0] is Label.SUPPORTED


class TestEvidenceTexts:
    def bundle(self):
        index = build_index(
            [
                Document("a", "A", "x one"),
                Document("b", "B", "x two"),
                Document("c", "C", "x three"),
            ]
        )
        from graphfc.retrieval import search

        return search(index, "x", k=3)

    def test_concat_is_single_input(self):
        assert len(evidence_texts(self.bundle(), DocStrategy.CONCAT)) == 1

    def test_each_is_per_document(self):
        texts = evidence_texts(self.bundle(), DocStrategy.EACH)
        assert texts == ["A: x one", "B: x two", "C: x three"]

    def test_concat_each_union(self):
        texts = evidence_texts(self.bundle(), DocStrategy.CONCAT_EACH)
        assert len(texts) == 4
        assert texts[0] == "A: x one\nB: x two\nC: x three"

    def test_truncation_drops_whole_docs_from_tail(self):
        bundle = self.bundle()
        budget = len("A: x one") + 1 + len("B: x two")  # two docs + separator
        assert truncated_concat(bundle, budget) == "A: x one\nB: x two"

    def test_first_doc_hard_truncated(self):
        bundle = self.bundle()
        assert truncated_concat(bundle, 4) == "A: x"

    def test_each_texts_truncated(self):
        texts = evidence_texts(self.bundle(), DocStrategy.EACH, budget=4)
        assert texts == ["A: x", "B: x", "C: x"]


class TestVerifyTriplet:
    def setup_index(self):
        return build_index(
            [
                Document("a", "Tall Birds", "Davey Brozowski is part of Tall Birds."),
                Document("b", "Bands", "Bands like Tall Birds form in Washington."),
            ]
        )

    def test_concat_each_input_count(self):
        index = self.setup_index()
        backend = ScriptedBackend().register_contains(
            "Is the claim true or false?", response="false"
        )
        t = parse_triplet_line("Davey Brozowski [SEP] is part of [SEP] Tall Birds")
        judgment = verify_triplet(
            t, {}, index, BackendSuite.single(backend),
            PipelineOptions(k=2, graphcheck_strategy=DocStrategy.CONCAT_EACH),
        )
        assert judgment.label is Label.NOT_SUPPORTED
        # Both docs match the query: concat + each of 2 docs = 3 inputs.
        assert backend.call_count == 3

    def test_each_with_k1(self):
        index = self.setup_index()
        backend = verifier("true")
        t = parse_triplet_line("Davey Brozowski [SEP] is part of [SEP] Tall Birds")
        judgment = verify_triplet(
            t, {}, index, BackendSuite.single(backend),
            PipelineOptions(k=1, graphcheck_strategy=DocStrategy.EACH),
        )
        assert judgment.label is Label.SUPPORTED
        assert backend.call_count == 1
        assert judgment.evidence_index == 0

    def test_no_evidence_is_not_supported(self):
        index = self.setup_index()
        backend = verifier("true")
        t = parse_triplet_line("zzz [SEP] qqq [SEP] vvv")
        judgment = verify_triplet(t, {}, index, BackendSuite.single(backend), PipelineOptions(k=2))
        assert judgment.label is Label.NOT_SUPPORTED
        assert judgment.note == "no evidence retrieved"
        assert backend.call_count == 0

    def test_renders_bindings(self):
        index = self.setup_index()
        backend = ScriptedBackend().register_contains(
            "Claim: Davey Brozowski is part of Tall Birds.", response="true"
        )
        t = parse_triplet_line("(ENT1) [SEP] is part of [SEP] Tall Birds")
        judgment = verify_triplet(
            t, {E1: "Davey Brozowski"}, index, BackendSuite.single(backend),
            PipelineOptions(k=1, graphcheck_strategy=DocStrategy.CONCAT),
        )
        assert judgment.label is Label.SUPPORTED


class TestVerifyPath:
    def run_path(self, answers_by_sentence, musician_graph, band_index, order=(E2, E1)):
        suite = band_suite()
        verification = ScriptedBackend()
        for sentence, answer in answers_by_sentence.items():
            verification.register_contains(f"Claim: {sentence}\n", response=answer)
        suite = BackendSuite(
            suite.graph_construction, suite.infilling, verification, suite.selection
        )
        outcome = infill_path(musician_graph, Path(order), band_index, suite, k=2)
        return suite, verify_path(
            musician_graph, outcome, band_index, suite,
            PipelineOptions(k=2, graphcheck_strategy=DocStrategy.CONCAT),
        )

    def test_all_supported(self, musician_graph, band_index):
        answers = {
            "Davey Brozowski is part of Tall Birds.": "true",
            "Davey Brozowski is a percussionist for Modest Mouse.": "true",
            "Modest Mouse formed in Issaquah, Washington.": "true",
            "Davey Brozowski is a musician.": "true",
            "Modest Mouse is a band.": "true",
        }
        _, (label, judgments) = self.run_path(answers, musician_graph, band_index)
        assert label is Label.SUPPORTED
        assert len(judgments) == 5  # 3 fact triplets + 2 definitional

    def test_short_circuits_on_first_failure(self, musician_graph, band_index):
        answers = {
            "Davey Brozowski is part of Tall Birds.": "false",
            "Davey Brozowski is a percussionist for Modest Mouse.": "true",
            "Modest Mouse formed in Issaquah, Washington.": "true",
        }
        _, (label, judgments) = self.run_path(answers, musician_graph, band_index)
        assert label is Label.NOT_SUPPORTED
        assert len(judgments) == 1

    def test_definitions_can_be_excluded(self, musician_graph, band_index):
        suite = band_suite()
        outcome = infill_path(musician_graph, Path((E2, E1)), band_index, suite, k=2)
        label, judgments = verify_path(
            musician_graph, outcome, band_index, suite,
            PipelineOptions(
                k=2, graphcheck_strategy=DocStrategy.CONCAT, include_definitions=False
            ),
        )
        assert label is Label.SUPPORTED
        assert len(judgments) == 3

    def test_zero_latent_graph_single_triplet(self, band_index):
        graph, _ = parse_graph(
            "# Latent Entities:\n# Triples:\n"
            "Davey Brozowski [SEP] is part of [SEP] Tall Birds"
        )
        backend = verifier("true")
        outcome = infill_path(graph, Path(()), band_index, backend and band_suite(), k=2)
        label, judgments = verify_path(
            graph, outcome, band_index, BackendSuite.single(backend),
            PipelineOptions(k=2, graphcheck_strategy=DocStrategy.CONCAT),
        )
        assert label is Label.SUPPORTED
        assert len(judgments) == 1


class TestVerifyClaimGraphcheck:
    def test_second_path_passes(self, musician_graph, band_index):
        suite = band_suite()
        label, records = verify_claim_graphcheck(
            musician_graph, band_index, suite,
            PipelineOptions(
                budget=PathBudget(5, 0), k=2, graphcheck_strategy=DocStrategy.CONCAT
            ),
        )
        assert label is Label.SUPPORTED
        assert len(records) == 2
        assert records[0].label is Label.NOT_SUPPORTED
        assert records[1].label is Label.SUPPORTED
        assert records[1].outcome.bindings == {
            E2: "Modest Mouse", E1: "Davey Brozowski"
        }

    def test_first_path_passes_short_circuits(self, musician_graph, band_index):
        suite = band_suite(correct_first_path=True)
        label, records = verify_claim_graphcheck(
            musician_graph, band_index, suite,
            PipelineOptions(
                budget=PathBudget(5, 0), k=2, graphcheck_strategy=DocStrategy.CONCAT
            ),
        )
        assert label is Label.SUPPORTED
        assert len(records) == 1
        assert suite.infilling.call_count == 2  # only path 1 infilled
        assert suite.verification.call_count == 5

    def test_all_paths_fail(self, musician_graph, band_index):
        suite = band_suite()
        verification = ScriptedBackend().register_contains(
            "Is the claim true or false?", response="false"
        )
        suite = BackendSuite(
            suite.graph_construction, suite.infilling, verification, suite.selection
        )
        label, records = verify_claim_graphcheck(
            musician_graph, band_index, suite,
            PipelineOptions(
                budget=PathBudget(5, 0), k=2, graphcheck_strategy=DocStrategy.CONCAT
            ),
        )
        assert label is Label.NOT_SUPPORTED
        assert len(records) == 2


class TestDirectAndSelector:
    def test_direct_true(self, band_index):
        trace = run_pipeline(
            BAND_CLAIM, band_index, BackendSuite.single(verifier("true")), mode="direct", k=2
        )
        assert trace.final is Label.SUPPORTED
        assert len(trace.direct_evidence) >= 1

    def test_direct_false(self, band_index):
        trace = run_pipeline(
            BAND_CLAIM, band_index, BackendSuite.single(verifier("false")), mode="direct", k=2
        )
        assert trace.final is Label.NOT_SUPPORTED

    def test_direct_empty_retrieval(self, band_index):
        backend = verifier("true")
        trace = run_pipeline(
            "qqq zzz vvv", band_index, BackendSuite.single(backend), mode="direct", k=2
        )
        assert trace.final is Label.NOT_SUPPORTED
        assert len(trace.direct_evidence) == 0
        assert backend.call_count == 0

    @pytest.mark.parametrize(
        "answer,expected", [("yes", DIRECT), ("no", GRAPHCHECK), ("maybe", GRAPHCHECK)]
    )
    def test_selector_routing(self, band_index, answer, expected):
        backend = ScriptedBackend().register_contains(
            "Does the evidence contain sufficient information", response=answer
        )
        choice = select_strategy(
            BAND_CLAIM, retrieve(band_index, BAND_CLAIM, 2), BackendSuite.single(backend),
            PipelineOptions(k=2),
        )
        assert choice.value == expected
        assert choice.selector_answer == answer

    def test_selector_prompt_format(self, band_index):
        seen = {}

        def capture(prompt):
            seen["prompt"] = prompt
            return "yes"

        backend = ScriptedBackend().register(lambda p: True, capture)
        select_strategy(
            "short claim x", retrieve(band_index, "short claim x", 1),
            BackendSuite.single(backend), PipelineOptions(k=1),
        )
        prompt = seen["prompt"]
        assert prompt.startswith("Evidence: ")
        assert "\nClaim: short claim x\n" in prompt
        assert prompt.endswith(
            "Does the evidence contain sufficient information to support or refute the claim? "
            "Yes or no?\nAnswer:"
        )


class TestDpGraphcheck:
    def test_direct_route_call_accounting(self, band_index):
        suite = band_suite(route="direct")
        trace = dp_graphcheck(
            BAND_CLAIM, band_index, suite, claim_id="fig1",
            pregenerated_graph=MUSICIAN_GRAPH, k=2,
            direct_strategy=DocStrategy.CONCAT,
        )
        assert trace.final is Label.SUPPORTED
        assert trace.strategy.value == DIRECT
        assert trace.calls == {
            "graph_construction": 0, "infilling": 0, "verification": 1, "selection": 1
        }
        assert trace.paths == []

    def test_graphcheck_route_with_pregenerated_graph(self, band_index):
        suite = band_suite(route="graphcheck")
        trace = dp_graphcheck(
            BAND_CLAIM, band_index, suite, claim_id="fig1",
            pregenerated_graph=MUSICIAN_GRAPH, k=2,
            graphcheck_strategy=DocStrategy.CONCAT,
        )
        assert trace.final is Label.SUPPORTED
        assert trace.strategy.value == GRAPHCHECK
        assert len(trace.paths) == 2
        assert trace.calls["graph_construction"] == 0
        assert trace.calls["infilling"] == 4
        assert trace.calls["verification"] == 1 + 5  # path 1 fails at once, path 2 passes
        assert trace.calls["selection"] == 1

    def test_graphcheck_route_constructs_graph_when_missing(self, band_index):
        suite = band_suite(route="graphcheck")
        trace = dp_graphcheck(
            BAND_CLAIM, band_index, suite, k=2, graphcheck_strategy=DocStrategy.CONCAT
        )
        assert trace.final is Label.SUPPORTED
        assert trace.calls["graph_construction"] == 1

    def test_parse_failure_falls_back_to_direct(self, band_index):
        suite = band_suite(route="graphcheck")
        trace = dp_graphcheck(
            BAND_CLAIM, band_index, suite, pregenerated_graph="not a graph at all",
            k=2, direct_strategy=DocStrategy.CONCAT,
        )
        assert trace.strategy.value == DIRECT
        assert trace.final is Label.SUPPORTED  # direct verifier answers true
        assert any("falling back to Direct" in note for note in trace.notes)
        assert trace.calls["infilling"] == 0

    def test_unparseable_selector_answer_notes_and_uses_graphcheck(self, band_index):
        suite = band_suite(route="graphcheck")
        selection = ScriptedBackend().register_contains(
            "Does the evidence contain sufficient information", response="perhaps?"
        )
        suite = BackendSuite(
            suite.graph_construction, suite.infilling, suite.verification, selection
        )
        trace = dp_graphcheck(
            BAND_CLAIM, band_index, suite, pregenerated_graph=MUSICIAN_GRAPH, k=2,
            graphcheck_strategy=DocStrategy.CONCAT,
        )
        assert trace.strategy.value == GRAPHCHECK
        assert any("unparseable" in note for note in trace.notes)

    def test_token_accounting_sums_responses(self, band_index):
        suite = band_suite(route="direct")
        trace = dp_graphcheck(BAND_CLAIM, band_index, suite, k=2)
        assert trace.input_tokens > 0
        assert trace.output_tokens > 0

    @pytest.mark.parametrize("route", ["direct", "graphcheck"])
    def test_supported_verdict_is_witnessed(self, band_index, route):
        # A Supported trace must carry its witness: a supported direct check
        # under Direct, or a fully supported path under GraphCheck.
        trace = dp_graphcheck(
            BAND_CLAIM, band_index, band_suite(route=route),
            pregenerated_graph=MUSICIAN_GRAPH, k=2,
            direct_strategy=DocStrategy.CONCAT, graphcheck_strategy=DocStrategy.CONCAT,
        )
        assert trace.final is Label.SUPPORTED
        if trace.strategy.value == DIRECT:
            assert trace.direct_judgment.label is Label.SUPPORTED
        else:
            witnesses = [r for r in trace.paths if r.label is Label.SUPPORTED]
            assert witnesses
            for record in witnesses:
                assert all(j.label is Label.SUPPORTED for j in record.judgments)


class TestRunPipeline:
    def test_direct_mode_skips_selector(self, band_index):
        suite = band_suite(route="graphcheck")  # selector says no, but is unused
        trace = run_pipeline(BAND_CLAIM, band_index, suite, mode="direct", k=2)
        assert trace.strategy.value == DIRECT
        assert trace.strategy.selector_answer is None
        assert trace.calls["selection"] == 0
        assert trace.final is Label.SUPPORTED

    def test_graphcheck_mode_skips_selector(self, band_index):
        suite = band_suite(route="direct")  # selector says yes, but is unused
        trace = run_pipeline(
            BAND_CLAIM, band_index, suite, mode="graphcheck",
            pregenerated_graph=MUSICIAN_GRAPH, k=2,
            graphcheck_strategy=DocStrategy.CONCAT,
        )
        assert trace.strategy.value == GRAPHCHECK
        assert trace.calls["selection"] == 0
        assert len(trace.paths) == 2

    def test_graphcheck_mode_parse_failure_falls_back_to_direct(self, band_index):
        suite = band_suite(route="direct")  # selector says yes, but is unused
        trace = run_pipeline(
            BAND_CLAIM, band_index, suite, mode="graphcheck",
            pregenerated_graph="not a graph at all", k=2,
            direct_strategy=DocStrategy.CONCAT,
        )
        assert trace.strategy.value == DIRECT
        assert trace.strategy.selector_answer is None
        assert trace.calls["selection"] == 0
        assert trace.calls["infilling"] == 0
        assert any("falling back to Direct" in note for note in trace.notes)
        assert trace.final is Label.SUPPORTED  # direct verifier answers true

    def test_unknown_mode_rejected(self, band_index):
        with pytest.raises(ValueError):
            run_pipeline(BAND_CLAIM, band_index, band_suite(), mode="hybrid")


class TestGoldBinding:
    """``run_pipeline`` resolves ``gold_doc_ids`` once and merges the gold
    documents into every retrieval of the claim."""

    @staticmethod
    def run(band_index, gold_doc_ids):
        return run_pipeline(
            BAND_CLAIM, band_index, band_suite(), mode="graphcheck",
            pregenerated_graph=MUSICIAN_GRAPH, k=2, gold_doc_ids=gold_doc_ids,
        )

    @staticmethod
    def traced_bundles(trace):
        """The claim's evidence, then every infilling step's."""
        steps = [step for record in trace.paths for step in record.outcome.per_entity]
        return [trace.direct_evidence] + [step.evidence for step in steps]

    def test_gold_document_leads_every_retrieval(self, band_index, monkeypatch):
        fetched = {}  # query -> bundle, for each retrieval the memo did not answer

        def recording(index, query, k, gold):
            fetched[query] = retrieve(index, query, k, gold)
            return fetched[query]

        monkeypatch.setattr(verdict, "retrieve", recording)
        monkeypatch.setattr(infill, "retrieve", recording)
        trace = self.run(band_index, ["issaquah"])
        assert len(trace.paths) == 2
        bundles = self.traced_bundles(trace)
        assert len(bundles) == 5  # the claim, then two steps on each path
        assert "Modest Mouse formed in Issaquah, Washington." in fetched  # a triplet's
        gold = (band_index.get_document("issaquah"), GOLD_SCORE)
        for bundle in bundles + list(fetched.values()):
            assert bundle.docs[0] == gold

    def test_unknown_ids_are_dropped(self, band_index):
        trace = self.run(band_index, ["no-such-doc", "issaquah"])
        for bundle in self.traced_bundles(trace):
            assert [score for _, score in bundle.docs].count(GOLD_SCORE) == 1
            assert bundle.docs[0][0].doc_id == "issaquah"

    def test_only_unknown_ids_merge_nothing(self, band_index):
        unknown = self.run(band_index, ["no-such-doc"])
        for bundle in self.traced_bundles(unknown):
            assert GOLD_SCORE not in [score for _, score in bundle.docs]
        no_gold = self.run(band_index, ())
        assert trace_to_dict(unknown) | {"timings": {}} == trace_to_dict(no_gold) | {"timings": {}}


class TestDominance:
    def test_concat_implies_concat_each(self, musician_graph, band_index):
        # The verifier supports the concatenated evidence only; concat_each
        # must then also support (its first input is the concatenation).
        def concat_only(prompt):
            evidence = prompt[len("Evidence: "):prompt.rindex("\nClaim: ")]
            return "true" if "\n" in evidence else "false"

        for strategy, expected in (
            (DocStrategy.CONCAT, Label.SUPPORTED),
            (DocStrategy.CONCAT_EACH, Label.SUPPORTED),
        ):
            suite = band_suite()
            verification = ScriptedBackend().register(
                lambda p: "Is the claim true or false?" in p, concat_only
            )
            suite = BackendSuite(
                suite.graph_construction, suite.infilling, verification, suite.selection
            )
            label, _ = verify_claim_graphcheck(
                musician_graph, band_index, suite,
                PipelineOptions(budget=PathBudget(5, 0), k=2, graphcheck_strategy=strategy),
            )
            assert label is expected


class TestTraceSerialization:
    def test_trace_dict_shape(self, band_index):
        trace = dp_graphcheck(
            BAND_CLAIM, band_index, band_suite(), claim_id="fig1",
            pregenerated_graph=MUSICIAN_GRAPH, k=2,
            graphcheck_strategy=DocStrategy.CONCAT,
        )
        row = trace_to_dict(trace)
        assert row["claim_id"] == "fig1"
        assert row["final"] == "Supported"
        assert row["strategy"]["value"] == GRAPHCHECK
        assert len(row["paths"]) == 2
        path2 = row["paths"][1]
        assert path2["order"] == ["(ENT2)", "(ENT1)"]
        assert path2["bindings"] == {
            "(ENT2)": "Modest Mouse", "(ENT1)": "Davey Brozowski"
        }
        assert path2["label"] == "Supported"
        import json

        json.dumps(row)  # must be serializable

    def test_format_trace_tree(self, band_index):
        trace = dp_graphcheck(
            BAND_CLAIM, band_index, band_suite(), claim_id="fig1",
            pregenerated_graph=MUSICIAN_GRAPH, k=2,
            graphcheck_strategy=DocStrategy.CONCAT,
        )
        tree = format_trace_dict(trace_to_dict(trace))
        assert "strategy: GraphCheck" in tree
        assert "(ENT2) := 'Modest Mouse'" in tree
        assert "final: Supported" in tree
