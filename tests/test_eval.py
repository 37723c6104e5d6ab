"""Dataset loading, Macro-F1, and batch-harness tests.

The 4-claim direct-mode fixture freezes a hand-computed confusion matrix:
golds [S,S,N,N] vs preds [S,N,N,N] gives class-S F1 = 2/3, class-N F1 = 0.8,
macro = 11/15.
"""

from __future__ import annotations

import functools
import json
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphfc.backend import BackendSuite, CostLedger, ScriptedBackend
from graphfc.evaluate import (
    AbortThresholdError,
    ClaimRecord,
    DataError,
    _Tally,
    load_dataset,
    macro_f1,
    recall_at_k,
    run_eval,
)
from graphfc.retrieval import Document, EvidenceBundle, build_index, search
from graphfc.verdict import DIRECT, GRAPHCHECK, Label, StrategyChoice, VerdictTrace

from conftest import examples

S, N = Label.SUPPORTED, Label.NOT_SUPPORTED


def write_jsonl(path, rows):
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    return str(path)


class TestLoadDataset:
    def test_generic_fields(self, tmp_path):
        rows = [
            {
                "id": "c1",
                "text": "A claim.",
                "label": "Supported",
                "hops": 2,
                "gold_doc_ids": ["d1", "d2"],
                "pregenerated_graph": "# Latent Entities:\n# Triples:\na [SEP] b [SEP] c",
            }
        ]
        (record,) = load_dataset(write_jsonl(tmp_path / "d.jsonl", rows), "generic")
        assert record == ClaimRecord(
            "c1", "A claim.", S, 2, ("d1", "d2"), rows[0]["pregenerated_graph"]
        )

    def test_hover_labels_and_hops(self, tmp_path):
        rows = [
            {"uid": "h1", "claim": "x", "label": "SUPPORTED", "num_hops": 4,
             "supporting_facts": [["Doc A", 0], ["Doc B", 2], ["Doc A", 3]]},
            {"uid": "h2", "claim": "y", "label": "NOT_SUPPORTED", "num_hops": 2},
        ]
        records = load_dataset(write_jsonl(tmp_path / "d.jsonl", rows), "hover")
        assert records[0].label is S and records[0].hops == 4
        assert records[0].gold_doc_ids == ("Doc A", "Doc B")
        assert records[1].label is N

    def test_exfever_drops_nei(self, tmp_path, caplog):
        rows = (
            [{"id": f"s{i}", "claim": "x", "label": "SUPPORTS"} for i in range(3)]
            + [{"id": f"r{i}", "claim": "y", "label": "REFUTES"} for i in range(2)]
            + [{"id": "n0", "claim": "z", "label": "NEI"}]
        )
        with caplog.at_level("INFO"):
            records = load_dataset(write_jsonl(tmp_path / "d.jsonl", rows), "exfever")
        assert len(records) == 5
        assert sum(1 for r in records if r.label is S) == 3
        assert "dropped 1 NEI" in caplog.text

    def test_unknown_label_names_row(self, tmp_path):
        rows = [{"id": "bad", "claim": "x", "label": "MAYBE"}]
        with pytest.raises(DataError, match="bad"):
            load_dataset(write_jsonl(tmp_path / "d.jsonl", rows), "generic")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(DataError):
            load_dataset(write_jsonl(tmp_path / "d.jsonl", []), "fever2")

    def test_invalid_json_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("not json\n")
        with pytest.raises(DataError):
            load_dataset(str(path), "generic")

    def test_non_object_row_is_data_error(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('["a", "b"]\n')
        with pytest.raises(DataError, match=r"d\.jsonl:1: not a JSON object"):
            load_dataset(str(path), "generic")

    @pytest.mark.parametrize("key,value", [
        ("hops", "two"), ("num_hops", [2]), ("hops", {"n": 2}), ("hops", "2.5"),
    ])
    def test_hops_that_is_not_an_integer_names_the_row(self, tmp_path, key, value):
        rows = [
            {"id": "ok", "text": "x", "label": "Supported", "hops": 2},
            {"id": "bad", "text": "y", "label": "Supported", key: value},
        ]
        with pytest.raises(DataError, match=rf"d\.jsonl:2 \(id=bad\): {key} is not an integer"):
            load_dataset(write_jsonl(tmp_path / "d.jsonl", rows), "generic")

    @pytest.mark.parametrize("key,value", [
        ("gold_doc_ids", 5), ("gold_doc_ids", "d1"), ("gold_doc_ids", {"d1": 1}),
        ("supporting_facts", 3), ("supporting_facts", "Doc A"),
    ])
    def test_gold_ids_that_are_not_a_list_name_the_row(self, tmp_path, key, value):
        rows = [
            {"id": "ok", "text": "x", "label": "Supported", key: ["d1"]},
            {"id": "bad", "text": "y", "label": "Supported", key: value},
        ]
        with pytest.raises(DataError, match=rf"d\.jsonl:2 \(id=bad\): {key} is not a list"):
            load_dataset(write_jsonl(tmp_path / "d.jsonl", rows), "generic")

    @pytest.mark.parametrize("fact", [[], [5, 0], 5, None, {"title": "Doc A"}])
    def test_supporting_fact_without_a_title_names_the_row(self, tmp_path, fact):
        rows = [{"uid": "bad", "claim": "x", "label": "SUPPORTED", "supporting_facts": [["Doc A", 0], fact]}]
        with pytest.raises(DataError, match=r"d\.jsonl:1 \(id=bad\): supporting fact .* names no title"):
            load_dataset(write_jsonl(tmp_path / "d.jsonl", rows), "hover")

    @pytest.mark.parametrize("text", [5, ["a claim"], {"t": "a claim"}, "", None])
    def test_claim_text_that_is_not_a_non_empty_string_names_the_row(self, tmp_path, text):
        rows = [
            {"id": "ok", "text": "x", "label": "Supported"},
            {"id": "bad", "text": text, "label": "Supported"},
        ]
        with pytest.raises(DataError, match=r"d\.jsonl:2 \(id=bad\): claim text is not a non-empty string"):
            load_dataset(write_jsonl(tmp_path / "d.jsonl", rows), "generic")

    @pytest.mark.parametrize("graph", [5, ["# Triples:"], {"g": "# Triples:"}, True])
    def test_pregenerated_graph_that_is_not_a_string_names_the_row(self, tmp_path, graph):
        rows = [
            {"id": "ok", "text": "x", "label": "Supported", "pregenerated_graph": None},
            {"id": "bad", "text": "y", "label": "Supported", "pregenerated_graph": graph},
        ]
        with pytest.raises(DataError, match=r"d\.jsonl:2 \(id=bad\): pregenerated_graph is not a string"):
            load_dataset(write_jsonl(tmp_path / "d.jsonl", rows), "generic")

    def test_hops_accepts_what_int_accepts(self, tmp_path):
        rows = [
            {"id": f"c{i}", "text": "x", "label": "Supported", "hops": value}
            for i, value in enumerate(["3", 2.0, " 4 ", True])
        ]
        records = load_dataset(write_jsonl(tmp_path / "d.jsonl", rows), "generic")
        assert [r.hops for r in records] == [3, 2, 4, 1]

    @pytest.mark.parametrize("fmt,row", [
        ("hover", {"claim": "c", "text": "t", "label": "SUPPORTED"}),
        ("exfever", {"claim": "c", "text": "t", "label": "REFUTES"}),
        ("generic", {"claim": "c", "text": "t", "label": "NotSupported"}),
    ])
    def test_each_format_reads_its_text_key_first(self, tmp_path, fmt, row):
        (record,) = load_dataset(write_jsonl(tmp_path / "d.jsonl", [row]), fmt)
        assert record.text == ("t" if fmt == "generic" else "c")
        assert record.label is (S if fmt == "hover" else N)


class TestMacroF1:
    def test_hand_computed_fixture(self):
        golds = [S, S, N, N]
        preds = [S, N, N, N]
        assert macro_f1(preds, golds) == pytest.approx(11 / 15, abs=1e-9)

    def test_perfect(self):
        assert macro_f1([S, N], [S, N]) == 1.0

    def test_inverted(self):
        assert macro_f1([S, S], [N, N]) == 0.0

    def test_errors(self):
        with pytest.raises(ValueError):
            macro_f1([], [])
        with pytest.raises(ValueError):
            macro_f1([S], [S, N])

    @given(st.lists(st.booleans(), min_size=1, max_size=30), st.data())
    @settings(max_examples=60, deadline=None)
    def test_symmetric_under_class_relabeling(self, gold_bits, data):
        pred_bits = data.draw(
            st.lists(st.booleans(), min_size=len(gold_bits), max_size=len(gold_bits))
        )
        def to_labels(bits, flip=False):
            return [S if (b ^ flip) else N for b in bits]
        original = macro_f1(to_labels(pred_bits), to_labels(gold_bits))
        flipped = macro_f1(to_labels(pred_bits, True), to_labels(gold_bits, True))
        assert original == pytest.approx(flipped, abs=1e-12)


class TestRecallAtK:
    def bundle(self, ids):
        docs = [Document(i, i.upper(), f"text {i}") for i in ids]
        index = build_index(docs) if docs else None
        if index is None:
            from graphfc.retrieval import EMPTY_BUNDLE

            return EMPTY_BUNDLE
        return search(index, "text", k=10)

    def test_full(self):
        assert recall_at_k(self.bundle(["a", "b"]), ["a", "b"]) == 1.0

    def test_half(self):
        assert recall_at_k(self.bundle(["a", "x"]), ["a", "b"]) == 0.5

    def test_zero(self):
        assert recall_at_k(self.bundle(["x", "y"]), ["a", "b"]) == 0.0

    def test_empty_gold_rejected(self):
        with pytest.raises(ValueError):
            recall_at_k(self.bundle(["a"]), [])


def reference_group_metrics(rows):
    """The list-based metrics that the report was built from before it became
    a fold, kept as the fold's reference.  ``rows`` are (record, trace) pairs.

    It summed the recalls with ``sum()``, which before Python 3.12 adds left
    to right; ``functools.reduce`` keeps that order on every version.
    """
    def class_counts(preds, golds, cls):
        tp = sum(1 for p, g in zip(preds, golds) if p is cls and g is cls)
        fp = sum(1 for p, g in zip(preds, golds) if p is cls and g is not cls)
        fn = sum(1 for p, g in zip(preds, golds) if p is not cls and g is cls)
        tn = len(preds) - tp - fp - fn
        return {"tp": tp, "fp": fp, "fn": fn, "tn": tn}

    def f1(counts):
        tp, fp, fn = counts["tp"], counts["fp"], counts["fn"]
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        if precision + recall == 0:
            return 0.0
        return 2 * precision * recall / (precision + recall)

    def strategy_group(value, total):
        members = [(r, t) for r, t in rows if t.strategy.value == value]
        n = len(members)
        correct = sum(1 for r, t in members if t.final is r.label)
        recalls = [
            recall_at_k(t.direct_evidence, r.gold_doc_ids)
            for r, t in members
            if r.gold_doc_ids and t.direct_evidence is not None
        ]
        return {
            "n": n,
            "fraction": n / total if total else 0.0,
            "accuracy": correct / n if n else None,
            "recall_at_k": functools.reduce(operator.add, recalls, 0) / len(recalls) if recalls else None,
        }

    preds = [t.final for _, t in rows]
    golds = [r.label for r, _ in rows]
    n = len(rows)
    return {
        "n": n,
        "accuracy": sum(1 for p, g in zip(preds, golds) if p is g) / n,
        "macro_f1": sum(f1(class_counts(preds, golds, cls)) for cls in (S, N)) / 2.0,
        "counts": {cls.value: class_counts(preds, golds, cls) for cls in (S, N)},
        "strategy": {DIRECT: strategy_group(DIRECT, n), GRAPHCHECK: strategy_group(GRAPHCHECK, n)},
    }


_DOC_IDS = [f"d{i}" for i in range(7)]


@st.composite
def decided_claims(draw):
    """A (record, trace) pair: label, prediction, route, hops (or none), gold
    ids (or none) and the direct evidence's ids (or no direct evidence)."""
    gold = draw(st.none() | st.lists(st.sampled_from(_DOC_IDS), max_size=7).map(tuple))
    evidence = draw(st.none() | st.lists(st.sampled_from(_DOC_IDS), max_size=7, unique=True))
    record = ClaimRecord("c", "claim", draw(st.sampled_from([S, N])),
                         hops=draw(st.none() | st.integers(1, 4)), gold_doc_ids=gold)
    trace = VerdictTrace(
        "c", "claim", StrategyChoice(draw(st.sampled_from([DIRECT, GRAPHCHECK]))),
        final=draw(st.sampled_from([S, N])),
        direct_evidence=None if evidence is None else EvidenceBundle(
            tuple((Document(i, i, i), 1.0) for i in evidence)),
    )
    return record, trace


class TestTally:
    """The fold over decided claims gives the list-based metrics, float for
    float, overall and per hop group."""

    @given(st.lists(decided_claims(), min_size=1, max_size=60))
    @settings(max_examples=examples(100), deadline=None)
    def test_fold_equals_the_list_based_metrics(self, rows):
        overall, per_hop, groups = _Tally(), {}, {}
        for record, trace in rows:
            hop = str(record.hops) if record.hops is not None else "unknown"
            overall.add(record, trace)
            per_hop.setdefault(hop, _Tally()).add(record, trace)
            groups.setdefault(hop, []).append((record, trace))
        # json.dumps writes each float's repr, so equal text is equal bits.
        assert json.dumps(overall.metrics()) == json.dumps(reference_group_metrics(rows))
        assert list(per_hop) == list(groups)
        for hop, tally in per_hop.items():
            assert json.dumps(tally.metrics()) == json.dumps(reference_group_metrics(groups[hop]))

    @given(st.lists(st.tuples(st.sampled_from([S, N]), st.sampled_from([S, N])), min_size=1, max_size=60))
    @settings(max_examples=examples(100), deadline=None)
    def test_fold_matches_macro_f1_and_accuracy_from_lists(self, pairs):
        tally = _Tally()
        for pred, gold in pairs:
            tally.add(ClaimRecord("c", "claim", gold), VerdictTrace("c", "claim", StrategyChoice(DIRECT), pred))
        preds, golds = [p for p, _ in pairs], [g for _, g in pairs]
        metrics = tally.metrics()
        assert metrics["macro_f1"] == macro_f1(preds, golds)
        assert metrics["accuracy"] == sum(p is g for p, g in pairs) / len(pairs)
        assert metrics["n"] == metrics["strategy"][DIRECT]["n"] == len(pairs)


def eval_corpus():
    return [
        Document("d1", "Topic one", "claim one concerns topic one"),
        Document("d2", "Topic two", "claim two concerns topic two"),
        Document("d3", "Topic three", "claim three concerns topic three"),
        Document("d4", "Topic four", "claim four concerns topic four"),
    ]


def four_claim_records():
    # golds [S, S, N, N]; scripted answers will produce preds [S, N, N, N].
    return [
        ClaimRecord("c1", "claim one concerns topic one", S, hops=2, gold_doc_ids=("d1",)),
        ClaimRecord("c2", "claim two concerns topic two", S, hops=2, gold_doc_ids=("d2",)),
        ClaimRecord("c3", "claim three concerns topic three", N, hops=3, gold_doc_ids=("d3",)),
        ClaimRecord("c4", "claim four concerns topic four", N, hops=3, gold_doc_ids=("d4",)),
    ]


def direct_suite():
    verification = ScriptedBackend()
    for claim, answer in [
        ("claim one", "true"), ("claim two", "false"),
        ("claim three", "false"), ("claim four", "false"),
    ]:
        verification.register_contains(
            "Is the claim true or false?", f"Claim: {claim}", response=answer
        )
    unused = ScriptedBackend()
    return BackendSuite(unused, unused, verification, unused)


class TestRunEval:
    def test_four_claim_confusion_matrix(self):
        index = build_index(eval_corpus())
        report, traces = run_eval(
            four_claim_records(), index, direct_suite(), mode="direct", k=2
        )
        overall = report.overall
        assert overall["n"] == 4
        assert overall["macro_f1"] == pytest.approx(11 / 15, abs=1e-9)
        assert overall["accuracy"] == 0.75
        assert overall["counts"]["Supported"] == {"tp": 1, "fp": 0, "fn": 1, "tn": 2}
        assert overall["counts"]["NotSupported"] == {"tp": 2, "fp": 1, "fn": 0, "tn": 1}
        assert len(traces) == 4
        assert [t.final for t in traces] == [S, N, N, N]

    def test_direct_only_breakdown(self):
        index = build_index(eval_corpus())
        report, _ = run_eval(
            four_claim_records(), index, direct_suite(), mode="direct", k=2
        )
        strategy = report.overall["strategy"]
        assert strategy[DIRECT]["fraction"] == 1.0
        assert strategy[DIRECT]["n"] == 4
        assert strategy[GRAPHCHECK]["fraction"] == 0.0
        assert strategy[DIRECT]["recall_at_k"] == 1.0  # each claim retrieves its doc

    def test_per_hop_counts_sum(self):
        index = build_index(eval_corpus())
        report, _ = run_eval(
            four_claim_records(), index, direct_suite(), mode="direct", k=2
        )
        assert sum(m["n"] for m in report.per_hop.values()) == report.overall["n"]
        assert set(report.per_hop) == {"2", "3"}
        for metrics in report.per_hop.values():
            fractions = [g["fraction"] for g in metrics["strategy"].values()]
            assert sum(fractions) == pytest.approx(1.0)

    def test_gold_mode_injects_gold_docs(self):
        index = build_index(eval_corpus())
        records = [
            ClaimRecord("c1", "claim one concerns topic one", S, hops=2,
                        gold_doc_ids=("d3", "d4"))
        ]
        report, traces = run_eval(
            records, index, direct_suite(), mode="direct", k=3, gold_mode=True
        )
        ids = traces[0].direct_evidence.doc_ids
        assert "d3" in ids and "d4" in ids
        assert report.config["evidence_mode"] == "open_book_gold"

    def test_errored_claim_scored_not_supported(self):
        index = build_index(eval_corpus())
        records = four_claim_records() + [
            ClaimRecord(f"pad{i}", "claim one concerns topic one", S, hops=2)
            for i in range(6)
        ]
        suite = direct_suite()
        # One claim whose prompt has no registration errors out.
        records[1] = ClaimRecord("c2", "completely unscripted claim text topic two", S, hops=2)
        report, traces = run_eval(records, index, suite, mode="direct", k=2)
        errored = [t for t in traces if t.error]
        assert len(errored) == 1
        assert errored[0].final is N
        assert report.errors == ["c2"]

    def test_abort_threshold(self):
        index = build_index(eval_corpus())
        records = four_claim_records()
        suite = direct_suite()
        records[1] = ClaimRecord("c2", "unscripted claim alpha topic two", S, hops=2)
        records[2] = ClaimRecord("c3", "unscripted claim beta topic three", N, hops=3)
        with pytest.raises(AbortThresholdError):
            run_eval(records, index, suite, mode="direct", k=2)

    def test_empty_dataset_rejected(self):
        index = build_index(eval_corpus())
        with pytest.raises(DataError):
            run_eval([], index, direct_suite(), mode="direct")

    def test_deterministic_reports(self):
        index = build_index(eval_corpus())
        results = []
        for _ in range(2):
            report, traces = run_eval(
                four_claim_records(), index, direct_suite(), mode="direct", k=2
            )
            payload = report.to_dict()
            payload.pop("timing")
            results.append((json.dumps(payload, sort_keys=True),
                            [t.final for t in traces]))
        assert results[0] == results[1]

    def test_ledger_cost_flows_into_report(self):
        index = build_index(eval_corpus())
        ledger = CostLedger({"scripted": (1.0, 2.0)})
        suite = direct_suite()
        suite.verification.ledger = ledger
        report, _ = run_eval(
            four_claim_records(), index, suite, mode="direct", k=2, ledger=ledger
        )
        totals = ledger.totals()
        expected = totals.cost / 4 * 1000.0
        assert report.cost["total_usd_per_1k"] == pytest.approx(expected)
        assert report.cost["per_purpose_usd_per_1k"]["verification"] == pytest.approx(expected)

    def test_workers_parallel_same_result(self):
        index = build_index(eval_corpus())
        single_report, single_traces = run_eval(
            four_claim_records(), index, direct_suite(), mode="direct", k=2, workers=1
        )
        multi_report, multi_traces = run_eval(
            four_claim_records(), index, direct_suite(), mode="direct", k=2, workers=4
        )
        assert [t.final for t in single_traces] == [t.final for t in multi_traces]
        a, b = single_report.to_dict(), multi_report.to_dict()
        a.pop("timing"), b.pop("timing")
        assert a == b

    def test_table_rendering(self):
        index = build_index(eval_corpus())
        report, _ = run_eval(
            four_claim_records(), index, direct_suite(), mode="direct", k=2
        )
        table = report.to_table()
        assert "overall" in table
        assert "2-hop" in table
        assert "macro_f1" in table

    def test_interrupt_drains_to_partial_report(self):
        index = build_index(eval_corpus())
        verification = ScriptedBackend()
        verification.register_contains(
            "Is the claim true or false?", "claim one", response="true"
        )

        def interrupt(prompt):
            raise KeyboardInterrupt

        verification.register(lambda p: "claim two" in p, interrupt)
        suite = BackendSuite(verification, verification, verification, verification)
        report, traces = run_eval(
            four_claim_records(), index, suite, mode="direct", k=2
        )
        assert report.partial
        assert len(traces) == 1  # only the claim finished before the interrupt
        assert "partial report" in report.to_table()

    def test_interrupt_before_any_claim_finishes_propagates(self):
        index = build_index(eval_corpus())
        verification = ScriptedBackend()

        def interrupt(prompt):
            raise KeyboardInterrupt

        verification.register(lambda p: True, interrupt)
        with pytest.raises(KeyboardInterrupt):
            run_eval(
                four_claim_records(), index, BackendSuite.single(verification),
                mode="direct", k=2,
            )
