"""End-to-end CLI tests over the scripted file-based fixture."""

from __future__ import annotations

import gc
import json
import os
import re
import socket
import warnings
from pathlib import Path

import pytest

from graphfc import cli
from graphfc.evaluate import macro_f1

from clifixtures import build_eval_fixture, make_claims
from stub_server import StubServer
from test_retrieval import set_document_crcs, set_ordinal_top_bytes


# Each override flag of ``eval``: its argument, a valid value and the value
# parsed into that argument.
EVAL_FLAGS = {
    "--config": ("config", "c.json", "c.json"),
    "--corpus": ("corpus", "c.jsonl", "c.jsonl"),
    "--index": ("index_path", "i.json", "i.json"),
    "--dataset": ("dataset", "d.jsonl", "d.jsonl"),
    "--format": ("dataset_format", "hover", "hover"),
    "--k": ("k", "7", 7),
    "--path-limit": ("path_limit", "3", 3),
    "--seed": ("seed", "4", 4),
    "--pipeline": ("pipeline", "direct", "direct"),
    "--evidence-mode": ("evidence_mode", "open_book_gold", "open_book_gold"),
    "--direct-strategy": ("direct_strategy", "each", "each"),
    "--graphcheck-strategy": ("graphcheck_strategy", "concat", "concat"),
    "--blank-token": ("blank_token", "<X>", "<X>"),
    "--truncation-chars": ("truncation_chars", "500", 500),
    "--workers": ("workers", "2", 2),
    "--report": ("report_path", "r.json", "r.json"),
    "--traces": ("traces_path", "t.jsonl", "t.jsonl"),
}
EVAL_CHOICES = {
    "--format": ("hover", "exfever", "generic"),
    "--pipeline": ("dp_graphcheck", "graphcheck", "direct"),
    "--evidence-mode": ("open_book", "open_book_gold"),
    "--direct-strategy": ("concat", "each", "concat_each"),
    "--graphcheck-strategy": ("concat", "each", "concat_each"),
}


@pytest.fixture()
def fixture(tmp_path):
    paths = build_eval_fixture(tmp_path / "run")
    code = cli.main(["index", "--config", paths["config"]])
    assert code == 0
    return paths


class TestIndexCommand:
    def test_builds_and_reports(self, tmp_path, capsys):
        paths = build_eval_fixture(tmp_path / "run")
        code = cli.main(["index", "--config", paths["config"]])
        out = capsys.readouterr().out
        assert code == 0
        assert "20 documents indexed" in out

    def test_missing_corpus_is_config_error(self, tmp_path):
        code = cli.main([
            "index", "--corpus", str(tmp_path / "nope.jsonl"),
            "--index", str(tmp_path / "i.json"),
        ])
        assert code == 1

    def test_missing_index_path_is_config_error(self, tmp_path, capsys):
        paths = build_eval_fixture(tmp_path / "run")
        assert cli.main(["index", "--corpus", paths["corpus"]]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "config error: config is missing 'index_path'\n"

    def test_duplicate_ids_is_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            '{"id": "dup", "title": "A", "text": "a"}\n'
            '{"id": "dup", "title": "B", "text": "b"}\n'
        )
        code = cli.main([
            "index", "--corpus", str(corpus), "--index", str(tmp_path / "i.json"),
        ])
        assert code == 2
        assert "dup" in capsys.readouterr().err

    def test_non_object_corpus_row_is_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('["x"]\n')
        code = cli.main([
            "index", "--corpus", str(corpus), "--index", str(tmp_path / "i.json"),
        ])
        assert code == cli.EXIT_DATA == 2
        assert capsys.readouterr().err == f"data error: {corpus}:1: not a JSON object\n"

    def test_corpus_line_that_is_not_utf8_is_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes(b'{"id": "a", "title": "A", "text": "alpha"}\n{"id": "b", "title": "\xff"}\n')
        code = cli.main([
            "index", "--corpus", str(corpus), "--index", str(tmp_path / "i.json"),
        ])
        assert code == cli.EXIT_DATA == 2
        assert capsys.readouterr().err.startswith(f"data error: {corpus}:2: not UTF-8 (")

    def test_corpus_without_a_token_is_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"id": "a", "title": "", "text": "!!"}\n')
        code = cli.main([
            "index", "--corpus", str(corpus), "--index", str(tmp_path / "i.json"),
        ])
        assert code == cli.EXIT_DATA == 2
        assert capsys.readouterr().err == "data error: no document holds a token\n"

    def test_index_path_in_a_missing_directory_is_config_error_before_the_build(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "build_index", None)  # a build would be an internal error
        paths = build_eval_fixture(tmp_path / "run")
        missing = tmp_path / "nodir"
        code = cli.main(["index", "--config", paths["config"], "--index", str(missing / "i.json")])
        assert code == cli.EXIT_CONFIG == 1
        assert capsys.readouterr().err == f"config error: index_path: directory does not exist: {missing}\n"
        assert not missing.exists()

    def test_truncated_index_is_data_error(self, fixture, capsys):
        with open(fixture["index"], "r+b") as handle:
            handle.truncate(os.path.getsize(fixture["index"]) // 2)
        assert cli.main(["eval", "--config", fixture["config"]]) == cli.EXIT_DATA == 2
        assert capsys.readouterr().err == f"data error: {fixture['index']}: index file is truncated\n"

    def test_corrupt_ordinals_are_data_error(self, fixture, capsys):
        set_ordinal_top_bytes(Path(fixture["index"]))
        code = cli.main(["verify", "--config", fixture["config"], "--claim-id", "dir00"])
        assert code == cli.EXIT_DATA == 2
        assert capsys.readouterr().err.startswith("data error: corrupt index: term ")

    def test_corrupt_ordinals_fail_eval_as_data_error(self, fixture, capsys):
        set_ordinal_top_bytes(Path(fixture["index"]))
        assert cli.main(["eval", "--config", fixture["config"]]) == cli.EXIT_DATA == 2
        assert capsys.readouterr().err.startswith("data error: corrupt index: term ")

    def test_corrupt_documents_fail_eval_and_verify_as_data_error(self, fixture, capsys):
        set_document_crcs(Path(fixture["index"]))
        assert cli.main(["eval", "--config", fixture["config"]]) == cli.EXIT_DATA == 2
        assert capsys.readouterr().err.startswith(f"data error: {fixture['index']}: corrupt document ")
        code = cli.main(["verify", "--config", fixture["config"], "--claim-id", "dir00"])
        assert code == cli.EXIT_DATA == 2
        assert capsys.readouterr().err.startswith(f"data error: {fixture['index']}: corrupt document ")

    def test_usage_error_exits_1(self):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["index", "--k", "not-a-number"])
        assert exit_info.value.code == 1

    def test_unexpected_exception_is_an_internal_error(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "build_index", broken)
        paths = build_eval_fixture(tmp_path / "run")
        assert cli.main(["index", "--config", paths["config"]]) == cli.EXIT_INTERNAL == 5
        err = capsys.readouterr().err
        assert err == "internal error: RuntimeError: boom\n"


class TestVerifyCommand:
    def test_graph_claim_tree_and_trace(self, fixture, tmp_path, capsys):
        trace_out = str(tmp_path / "trace.json")
        code = cli.main([
            "verify", "--config", fixture["config"],
            "--claim-id", "gph02", "--trace-out", trace_out,
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "strategy: GraphCheck" in out
        assert "(ENT1) := 'Widget 2'" in out
        assert "(ENT2) := 'Gadget 2'" in out
        assert "final: Supported" in out
        row = json.loads(open(trace_out).read())
        assert row["claim_id"] == "gph02"
        assert row["final"] == "Supported"

    def test_gold_mode_puts_gold_document_first(self, fixture, tmp_path):
        trace_out = str(tmp_path / "trace.json")
        assert cli.main([
            "verify", "--config", fixture["config"], "--evidence-mode", "open_book_gold",
            "--claim-id", "gph02", "--trace-out", trace_out,
        ]) == 0
        row = json.loads(open(trace_out).read())
        gold = {"id": "doc-gph02", "score": "gold"}
        assert row["direct_evidence"][0] == gold
        steps = [step for path in row["paths"] for step in path["per_entity"]]
        assert steps and all(step["evidence"][0] == gold for step in steps)

    def test_direct_claim_has_no_paths(self, fixture, capsys):
        code = cli.main(["verify", "--config", fixture["config"], "--claim-id", "dir00"])
        out = capsys.readouterr().out
        assert code == 0
        assert "strategy: Direct" in out
        assert "path 1" not in out

    def test_trace_written_by_default(self, fixture, tmp_path):
        import os

        code = cli.main(["verify", "--config", fixture["config"], "--claim-id", "dir00"])
        assert code == 0
        default_path = os.path.join(os.path.dirname(fixture["traces"]), "trace-dir00.json")
        row = json.loads(open(default_path).read())
        assert row["claim_id"] == "dir00"

    def test_broken_pregenerated_graph_degrades(self, fixture, tmp_path, capsys):
        dataset = tmp_path / "broken.jsonl"
        dataset.write_text(json.dumps({
            "id": "broken",
            "text": "Graph fixture claim 0 mentioning marker0.",
            "label": "Supported",
            "pregenerated_graph": "no sections here",
        }) + "\n")
        code = cli.main([
            "verify", "--config", fixture["config"],
            "--dataset", str(dataset), "--claim-id", "broken",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "falling back to Direct" in out

    def test_unknown_claim_id(self, fixture):
        assert cli.main([
            "verify", "--config", fixture["config"], "--claim-id", "missing",
        ]) == 2

    def test_claim_text_without_dataset(self, fixture, capsys):
        code = cli.main([
            "verify", "--config", fixture["config"],
            "--claim", "Direct fixture claim 0 about subject 0.",
        ])
        assert code == 0
        assert "final: Supported" in capsys.readouterr().out

    def test_neither_claim_nor_claim_id_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["verify"])
        assert exit_info.value.code == cli.EXIT_CONFIG
        assert "verify requires --claim or --claim-id" in capsys.readouterr().err

    def test_trace_out_in_a_missing_directory_is_config_error_before_the_run(
            self, fixture, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_pipeline", None)  # a run would be an internal error
        missing = tmp_path / "nodir"
        code = cli.main([
            "verify", "--config", fixture["config"], "--claim-id", "gph02",
            "--trace-out", str(missing / "trace.json"),
        ])
        assert code == cli.EXIT_CONFIG == 1
        assert capsys.readouterr().err == f"config error: --trace-out: directory does not exist: {missing}\n"

    def test_backend_failure_exits_3(self, fixture, capsys):
        with socket.socket() as probe:  # a local port that nothing listens on
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        config = json.loads(Path(fixture["config"]).read_text())
        config["backends"] = {"default": {
            "type": "http", "endpoint": f"http://127.0.0.1:{port}/v1", "max_attempts": 1,
        }}
        Path(fixture["config"]).write_text(json.dumps(config))
        code = cli.main(["verify", "--config", fixture["config"], "--claim", "A claim."])
        assert code == cli.EXIT_BACKEND == 3
        assert capsys.readouterr().err.endswith("backend error: request failed after 1 attempt\n")


class TestEvalCommand:
    def test_report_and_traces(self, fixture, capsys):
        code = cli.main(["eval", "--config", fixture["config"]])
        out = capsys.readouterr().out
        assert code == 0
        report = json.load(open(fixture["report"]))
        claims = make_claims()
        preds = [c.pred for c in claims]
        golds = [c.label for c in claims]
        assert report["overall"]["macro_f1"] == pytest.approx(macro_f1(preds, golds))
        assert report["overall"]["n"] == 20
        traces = [json.loads(line) for line in open(fixture["traces"])]
        assert len(traces) == 20
        by_id = {t["claim_id"]: t for t in traces}
        assert by_id["gph00"]["strategy"]["value"] == "GraphCheck"
        assert by_id["dir00"]["strategy"]["value"] == "Direct"
        assert "report written" in out

    def test_direct_only_breakdown(self, fixture, capsys):
        code = cli.main(["eval", "--config", fixture["config"], "--pipeline", "direct"])
        assert code == 0
        report = json.load(open(fixture["report"]))
        assert report["overall"]["strategy"]["Direct"]["fraction"] == 1.0
        assert report["config"]["mode"] == "direct"

    def test_non_object_dataset_row_is_data_error(self, fixture, capsys):
        with open(fixture["dataset"], "a", encoding="utf-8") as handle:
            handle.write('["a", "b"]\n')
        assert cli.main(["eval", "--config", fixture["config"]]) == cli.EXIT_DATA == 2
        assert capsys.readouterr().err == (
            f"data error: {fixture['dataset']}:21: not a JSON object\n"
        )

    def test_dataset_line_that_is_not_utf8_is_data_error(self, fixture, capsys):
        with open(fixture["dataset"], "ab") as handle:
            handle.write(b'{"id": "x", "text": "caf\xff", "label": "Supported"}\n')
        assert cli.main(["eval", "--config", fixture["config"]]) == cli.EXIT_DATA == 2
        assert capsys.readouterr().err.startswith(f"data error: {fixture['dataset']}:21: not UTF-8 (")

    def test_hops_that_is_not_an_integer_is_data_error(self, fixture, capsys):
        rows = [json.loads(line) for line in open(fixture["dataset"])]
        rows[3]["hops"] = "two"
        Path(fixture["dataset"]).write_text("".join(json.dumps(row) + "\n" for row in rows))
        assert cli.main(["eval", "--config", fixture["config"]]) == cli.EXIT_DATA == 2
        assert capsys.readouterr().err == (
            f"data error: {fixture['dataset']}:4 (id={rows[3]['id']}): "
            "hops is not an integer: 'two'\n"
        )

    def test_pregenerated_graph_that_is_not_a_string_is_data_error(self, fixture, capsys):
        rows = [json.loads(line) for line in open(fixture["dataset"])]
        for row in rows:
            if row["id"] in ("gph00", "gph01", "gph02", "gph03"):
                row["pregenerated_graph"] = 5
        Path(fixture["dataset"]).write_text("".join(json.dumps(row) + "\n" for row in rows))
        line = 1 + [row["id"] for row in rows].index("gph00")
        expected = f"data error: {fixture['dataset']}:{line} (id=gph00): pregenerated_graph is not a string: 5\n"
        assert cli.main(["eval", "--config", fixture["config"]]) == cli.EXIT_DATA == 2
        assert capsys.readouterr().err == expected
        assert cli.main(["verify", "--config", fixture["config"], "--claim-id", "gph00"]) == cli.EXIT_DATA
        assert capsys.readouterr().err == expected

    @pytest.mark.parametrize("script,reason", [
        ("[{", "Expecting property name"),
        ('{"equals": "p", "response": "x"}', "a script must be a JSON list of entries"),
        ('[{"equals": "p", "response": "x"}, {"equals": "q"}]',
         "entry 1: not an object with a string 'response'"),
        ('[{"response": "x"}]', "entry 0: script entry has no matcher key"),
        ('[{"contains": ["a", 2], "response": "x"}]', "entry 0: 'contains' must hold strings"),
    ])
    def test_malformed_script_is_config_error(self, fixture, capsys, script, reason):
        Path(fixture["script"]).write_text(script)
        assert cli.main(["eval", "--config", fixture["config"]]) == cli.EXIT_CONFIG == 1
        err = capsys.readouterr().err
        assert err.startswith(
            f"config error: backend graph_construction: script {fixture['script']}: "
        )
        assert re.search(reason, err)

    def test_graphcheck_only_breakdown(self, fixture):
        code = cli.main(["eval", "--config", fixture["config"], "--pipeline", "graphcheck"])
        assert code == 0
        report = json.load(open(fixture["report"]))
        assert report["overall"]["strategy"]["GraphCheck"]["fraction"] == 1.0

    def test_flag_overrides_config(self, fixture):
        code = cli.main(["eval", "--config", fixture["config"], "--k", "2", "--seed", "9"])
        assert code == 0
        report = json.load(open(fixture["report"]))
        assert report["config"]["k"] == 2
        assert report["config"]["seed"] == 9

    def test_empty_dataset_is_data_error(self, fixture, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert cli.main([
            "eval", "--config", fixture["config"], "--dataset", str(empty),
        ]) == 2

    @pytest.mark.parametrize("flag, key", [("--report", "report_path"), ("--traces", "traces_path")])
    def test_output_in_a_missing_directory_is_config_error_before_any_claim(
            self, fixture, tmp_path, capsys, monkeypatch, flag, key):
        monkeypatch.setattr(cli, "run_eval", None)  # a run would be an internal error
        missing = tmp_path / "nodir"
        code = cli.main(["eval", "--config", fixture["config"], flag, str(missing / "out")])
        assert code == cli.EXIT_CONFIG == 1
        assert capsys.readouterr().err == f"config error: {key}: directory does not exist: {missing}\n"
        assert not os.path.exists(fixture["report"]) and not os.path.exists(fixture["traces"])

    def test_cache_in_a_missing_directory_is_config_error_before_any_request(
            self, fixture, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_eval", None)  # a run would be an internal error
        missing = tmp_path / "nodir"
        config = json.loads(Path(fixture["config"]).read_text())
        config["backends"]["default"]["cache_path"] = str(missing / "cache.jsonl")
        Path(fixture["config"]).write_text(json.dumps(config))
        assert cli.main(["eval", "--config", fixture["config"]]) == cli.EXIT_CONFIG == 1
        assert capsys.readouterr().err == (
            f"config error: backend default: cache_path: directory does not exist: {missing}\n"
        )

    def test_malformed_cache_line_is_data_error(self, fixture, capsys):
        row = {"key": "k1", "text": "v", "input_tokens": 1, "output_tokens": 1}
        for bad in ('{"key": "a"}', '["a", "b"]', json.dumps({**row, "input_tokens": "1"})):
            Path(fixture["cache"]).write_text(json.dumps(row) + "\n" + bad + "\n")
            assert cli.main(["eval", "--config", fixture["config"]]) == cli.EXIT_DATA == 2
            assert capsys.readouterr().err.startswith(f"data error: {fixture['cache']}:2: not a cache entry")

    def test_partial_trailing_cache_line_is_skipped(self, fixture):
        Path(fixture["cache"]).write_text('{"key": "k2", "tex')
        assert cli.main(["eval", "--config", fixture["config"]]) == 0

    def test_abort_threshold_exit_code(self, fixture, tmp_path):
        rows = [
            {"id": f"u{i}", "text": f"totally unscripted claim {i} marker0", "label": "Supported"}
            for i in range(5)
        ]
        dataset = tmp_path / "unscripted.jsonl"
        dataset.write_text("".join(json.dumps(r) + "\n" for r in rows))
        assert cli.main([
            "eval", "--config", fixture["config"], "--dataset", str(dataset),
        ]) == 4

    def test_http_backends_are_closed_when_eval_ends(self, fixture, capsys):
        server = StubServer().start()
        server.default = ("Supported", 7, 3)
        try:
            config = json.loads(Path(fixture["config"]).read_text())
            config["backends"]["default"].update(type="http", endpoint=server.url)
            Path(fixture["config"]).write_text(json.dumps(config))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ResourceWarning)
                assert cli.main(["eval", "--config", fixture["config"], "--pipeline", "direct"]) == 0
                gc.collect()
        finally:
            server.stop()
        assert server.request_count > 0
        assert [str(w.message) for w in caught if w.category is ResourceWarning] == []

    def test_roles_sharing_a_section_share_each_worker_connection(self, fixture):
        server = StubServer().start()
        server.default = ("Supported", 7, 3)
        try:
            config = json.loads(Path(fixture["config"]).read_text())
            config["backends"]["default"].update(type="http", endpoint=server.url)
            Path(fixture["config"]).write_text(json.dumps(config))
            assert cli.main(["eval", "--config", fixture["config"], "--workers", "2"]) == 0
        finally:
            server.stop()
        assert server.request_count > 20
        assert len(set(server.ports)) <= 2

    def test_gold_mode(self, fixture):
        code = cli.main([
            "eval", "--config", fixture["config"], "--evidence-mode", "open_book_gold",
        ])
        assert code == 0
        traces = [json.loads(line) for line in open(fixture["traces"])]
        for trace in traces:
            row = json.loads(json.dumps(trace))
            gold_id = f"doc-{row['claim_id']}"
            ids = [e["id"] for e in row["direct_evidence"]]
            assert gold_id in ids


class TestTraceCommand:
    def test_pretty_print(self, fixture, capsys):
        assert cli.main(["eval", "--config", fixture["config"]]) == 0
        capsys.readouterr()
        code = cli.main(["trace", "--file", fixture["traces"], "--claim-id", "gph02"])
        out = capsys.readouterr().out
        assert code == 0
        assert "claim gph02: Supported" in out
        assert "(ENT1) := 'Widget 2'" in out

    def test_unknown_claim(self, fixture):
        assert cli.main(["eval", "--config", fixture["config"]]) == 0
        assert cli.main([
            "trace", "--file", fixture["traces"], "--claim-id", "zzz",
        ]) == 2

    def test_missing_file(self, tmp_path):
        assert cli.main(["trace", "--file", str(tmp_path / "none.jsonl")]) == 2

    def test_single_object_trace_file(self, fixture, tmp_path, capsys):
        trace_out = str(tmp_path / "one.json")
        assert cli.main([
            "verify", "--config", fixture["config"],
            "--claim-id", "dir00", "--trace-out", trace_out,
        ]) == 0
        capsys.readouterr()
        assert cli.main(["trace", "--file", trace_out]) == 0
        assert "claim dir00" in capsys.readouterr().out

    @pytest.mark.parametrize("claim_id", ["dir00", "gph02"])
    def test_prints_the_tree_that_verify_printed(self, fixture, tmp_path, capsys, claim_id):
        trace_out = str(tmp_path / "one.json")
        assert cli.main([
            "verify", "--config", fixture["config"],
            "--claim-id", claim_id, "--trace-out", trace_out,
        ]) == 0
        printed = capsys.readouterr().out
        assert cli.main(["trace", "--file", trace_out]) == 0
        tree = capsys.readouterr().out
        assert f"claim {claim_id}: " in tree
        assert printed == tree.removesuffix("\n") + f"trace written to {trace_out}\n"

    def test_indented_single_object_file_is_data_error_at_line_1(self, fixture, tmp_path, capsys):
        trace_out = tmp_path / "one.json"
        assert cli.main([
            "verify", "--config", fixture["config"],
            "--claim-id", "gph02", "--trace-out", str(trace_out),
        ]) == 0
        trace_out.write_text(json.dumps(json.loads(trace_out.read_text()), indent=2))
        capsys.readouterr()
        assert cli.main(["trace", "--file", str(trace_out)]) == cli.EXIT_DATA == 2
        assert capsys.readouterr().err.startswith(f"data error: {trace_out}:1: invalid JSON (")

    @pytest.mark.parametrize("content", ["", "\n  \n"])
    def test_file_without_a_trace_is_data_error(self, tmp_path, capsys, content):
        path = tmp_path / "t.jsonl"
        path.write_text(content)
        assert cli.main(["trace", "--file", str(path)]) == cli.EXIT_DATA == 2
        assert capsys.readouterr().err == f"data error: trace file {path} holds no trace\n"

    def test_non_object_jsonl_row_is_data_error(self, fixture, capsys):
        assert cli.main(["eval", "--config", fixture["config"]]) == 0
        with open(fixture["traces"], "a", encoding="utf-8") as handle:
            handle.write("[1, 2]\n")
        capsys.readouterr()
        code = cli.main(["trace", "--file", fixture["traces"], "--claim-id", "gph02"])
        assert code == cli.EXIT_DATA == 2
        assert capsys.readouterr().err == f"data error: {fixture['traces']}:21: not a JSON object\n"

    def test_trace_line_that_is_not_utf8_is_data_error(self, fixture, capsys):
        assert cli.main(["eval", "--config", fixture["config"]]) == 0
        with open(fixture["traces"], "ab") as handle:
            handle.write(b'{"claim_id": "\xff"}\n')
        capsys.readouterr()
        assert cli.main(["trace", "--file", fixture["traces"]]) == cli.EXIT_DATA == 2
        assert capsys.readouterr().err.startswith(f"data error: {fixture['traces']}:21: not UTF-8 (")

    @pytest.mark.parametrize("content", ["[1, 2]", "[1, 2]\n", "7\n", '"trace"'])
    def test_json_that_is_not_an_object_is_data_error(self, tmp_path, capsys, content):
        path = tmp_path / "t.json"
        path.write_text(content)
        assert cli.main(["trace", "--file", str(path)]) == cli.EXIT_DATA == 2
        assert capsys.readouterr().err == f"data error: {path}:1: not a JSON object\n"

    @pytest.mark.parametrize("claim_id", [None, "a", "zzz"])
    def test_object_without_trace_fields_is_data_error(self, tmp_path, capsys, claim_id):
        path = tmp_path / "t.json"
        path.write_text('{"claim_id": "a"}')
        argv = ["trace", "--file", str(path)] + (["--claim-id", claim_id] if claim_id else [])
        assert cli.main(argv) == cli.EXIT_DATA == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {path}:1: not a graphfc trace (KeyError('final'))")

    @pytest.mark.parametrize("damage", [
        lambda row: row.pop("final"),
        lambda row: row["paths"][0].pop("label"),
        lambda row: row["paths"][0]["judgments"][0].pop("evidence_index"),
        lambda row: row.update(strategy="GraphCheck"),
        lambda row: row.update(paths=3),
    ])
    def test_eval_row_missing_a_field_is_data_error(self, fixture, capsys, damage):
        assert cli.main(["eval", "--config", fixture["config"]]) == 0
        rows = [json.loads(line) for line in open(fixture["traces"])]
        line = next(i for i, row in enumerate(rows) if row["paths"]) + 1
        damage(rows[line - 1])
        Path(fixture["traces"]).write_text("".join(json.dumps(row) + "\n" for row in rows))
        capsys.readouterr()
        code = cli.main(["trace", "--file", fixture["traces"], "--claim-id", "dir00"])
        assert code == cli.EXIT_DATA == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {fixture['traces']}:{line}: not a graphfc trace (")


class TestOverrideFlags:
    def test_eval_flags_are_pinned(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["eval", "--help"])
        assert exit_info.value.code == 0
        usage = capsys.readouterr().out.split("\n\n")[0]
        assert set(re.findall(r"--[a-z-]+", usage)) == set(EVAL_FLAGS)

    def test_each_eval_flag_parses_into_its_argument(self):
        argv = ["eval"] + [part for flag, (_, value, _) in EVAL_FLAGS.items()
                           for part in (flag, value)]
        args = cli.build_parser().parse_args(argv)
        for flag, (dest, _, parsed) in EVAL_FLAGS.items():
            assert getattr(args, dest) == parsed, flag
        assert set(vars(args)) == {dest for dest, _, _ in EVAL_FLAGS.values()} | {
            "command", "handler",
        }

    @pytest.mark.parametrize("flag,allowed", EVAL_CHOICES.items())
    def test_choices(self, flag, allowed):
        dest = EVAL_FLAGS[flag][0]
        for value in allowed:
            assert getattr(cli.build_parser().parse_args(["eval", flag, value]), dest) == value
        with pytest.raises(SystemExit) as exit_info:
            cli.build_parser().parse_args(["eval", flag, "bogus"])
        assert exit_info.value.code == 1
