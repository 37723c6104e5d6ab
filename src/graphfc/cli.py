"""Command-line interface: index, verify, eval, trace.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 backend failure,
4 errored-claim threshold exceeded, 5 internal error.  An interrupt during
``eval`` writes a report marked partial, or none if no claim has finished.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import signal
import sys
from typing import List, Optional

from .backend import BackendError, CacheFileError, CostLedger
from .config import (
    EVIDENCE_MODES,
    SCALAR_FIELDS,
    ConfigError,
    RunConfig,
    build_backends,
    check_output_dir,
    load_config,
)
from .evaluate import (
    DATASET_FORMATS,
    AbortThresholdError,
    DataError,
    load_dataset,
    run_eval,
)
from .retrieval import CorpusError, build_index, load_index, read_corpus, read_jsonl, save_index
from .verdict import (
    PIPELINE_MODES,
    DocStrategy,
    format_trace_dict,
    run_pipeline,
    trace_to_dict,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_BACKEND = 3
EXIT_ABORT = 4
EXIT_INTERNAL = 5


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


# Override flags not spelled after their config field.
_FLAG_NAMES = {
    "index_path": "--index",
    "dataset_format": "--format",
    "report_path": "--report",
    "traces_path": "--traces",
}
# The values an override flag accepts, where the set is fixed.
_STRATEGIES = tuple(s.value for s in DocStrategy)
_FLAG_CHOICES = {
    "dataset_format": DATASET_FORMATS,
    "pipeline": PIPELINE_MODES,
    "evidence_mode": EVIDENCE_MODES,
    "direct_strategy": _STRATEGIES,
    "graphcheck_strategy": _STRATEGIES,
}


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    """``--config`` plus one flag per scalar config field except
    ``include_definitions``."""
    parser.add_argument("--config", help="JSON config file")
    for name, kind in SCALAR_FIELDS.items():
        if kind is bool:
            continue
        flag = _FLAG_NAMES.get(name, "--" + name.replace("_", "-"))
        parser.add_argument(flag, dest=name, type=None if kind is str else kind,
                            choices=_FLAG_CHOICES.get(name), help=f"config field {name}")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    overrides = {name: getattr(args, name, None) for name in SCALAR_FIELDS}
    return load_config(args.config, overrides)


def cmd_index(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    corpus_path = config.require_path("corpus")
    if not config.index_path:
        raise ConfigError("config is missing 'index_path'")
    index = build_index(read_corpus(corpus_path))
    save_index(index, config.index_path)
    print(f"{index.doc_count} documents indexed (avg_doc_length={index.avg_doc_length:.2f})")
    print(f"index written to {config.index_path}")
    return EXIT_OK


def _resolve_claim(args: argparse.Namespace, config: RunConfig):
    if args.claim:
        return args.claim_id or "", args.claim, None, None
    dataset_path = config.require_path("dataset")
    records = load_dataset(dataset_path, config.dataset_format)
    for record in records:
        if record.id == args.claim_id:
            return record.id, record.text, record.pregenerated_graph, record.gold_doc_ids
    raise DataError(f"claim id {args.claim_id!r} not found in {dataset_path}")


def cmd_verify(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    check_output_dir("--trace-out", args.trace_out)
    claim_id, claim_text, pregenerated, gold_ids = _resolve_claim(args, config)
    index = load_index(config.require_path("index_path"))
    backends, _ = build_backends(config)
    try:
        trace = run_pipeline(
            claim_text,
            index,
            backends,
            claim_id=claim_id,
            pregenerated_graph=pregenerated,
            gold_doc_ids=gold_ids if config.evidence_mode == "open_book_gold" else (),
            **vars(config.pipeline_options()),
        )
    finally:
        backends.close()
    row = trace_to_dict(trace)
    print(format_trace_dict(row))
    trace_out = args.trace_out
    if not trace_out:
        stem = f"trace-{claim_id}.json" if claim_id else "trace.json"
        trace_out = os.path.join(os.path.dirname(config.traces_path) or ".", stem)
    with open(trace_out, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n")
    print(f"trace written to {trace_out}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    records = load_dataset(config.require_path("dataset"), config.dataset_format)
    index = load_index(config.require_path("index_path"))
    ledger = CostLedger(config.prices)
    backends, caches = build_backends(config, ledger)
    try:
        report, traces = run_eval(
            records,
            index,
            backends,
            gold_mode=config.evidence_mode == "open_book_gold",
            workers=config.workers,
            ledger=ledger,
            **vars(config.pipeline_options()),
        )
    finally:
        backends.close()
    with open(config.report_path, "w", encoding="utf-8") as handle:
        json.dump(report.to_dict(), handle, ensure_ascii=False, sort_keys=True, indent=2)
        handle.write("\n")
    with open(config.traces_path, "w", encoding="utf-8") as handle:
        for trace in traces:
            handle.write(json.dumps(trace_to_dict(trace), ensure_ascii=False, sort_keys=True) + "\n")
    print(report.to_table())
    totals = ledger.totals()
    hits = sum(cache.hits for cache in caches.values())
    misses = sum(cache.misses for cache in caches.values())
    print(
        f"backend requests: {totals.requests}  cache: hits={hits} misses={misses}  "
        f"cost: ${totals.cost:.4f}"
    )
    print(f"report written to {config.report_path}; traces to {config.traces_path}")
    return EXIT_OK


def cmd_trace(args: argparse.Namespace) -> int:
    """Print a JSON Lines trace file, as ``verify`` and ``eval`` write them."""
    try:
        rows = list(read_jsonl(args.file, DataError))
    except OSError as exc:
        raise DataError(f"cannot read trace file: {exc}") from exc
    if not rows:
        raise DataError(f"trace file {args.file} holds no trace")
    shown = 0
    for lineno, row in rows:
        try:
            tree = format_trace_dict(row)
        except (AttributeError, KeyError, TypeError) as exc:
            raise DataError(f"{args.file}:{lineno}: not a graphfc trace ({exc!r})") from exc
        if args.claim_id and row.get("claim_id") != args.claim_id:
            continue
        print(tree)
        print()
        shown += 1
    if args.claim_id and not shown:
        raise DataError(f"claim id {args.claim_id!r} not found in {args.file}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="graphfc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="build and serialize the BM25 index")
    _add_override_flags(p_index)
    p_index.set_defaults(handler=cmd_index)

    p_verify = sub.add_parser("verify", help="verify a single claim")
    _add_override_flags(p_verify)
    p_verify.add_argument("--claim", help="claim text to verify")
    p_verify.add_argument("--claim-id", dest="claim_id", default="",
                          help="claim id (looked up in the dataset unless --claim is given)")
    p_verify.add_argument("--trace-out", dest="trace_out", help="write the JSON trace here")
    p_verify.set_defaults(handler=cmd_verify)

    p_eval = sub.add_parser("eval", help="run batch evaluation")
    _add_override_flags(p_eval)
    p_eval.set_defaults(handler=cmd_eval)

    p_trace = sub.add_parser("trace", help="pretty-print a saved trace file")
    p_trace.add_argument("--file", required=True, help="JSON Lines trace file")
    p_trace.add_argument("--claim-id", dest="claim_id", help="only show this claim")
    p_trace.set_defaults(handler=cmd_trace)
    return parser


def _raise_interrupt(_signum, _frame):
    raise KeyboardInterrupt


def main(argv: Optional[List[str]] = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and not args.claim and not args.claim_id:
        parser.error("verify requires --claim or --claim-id")
    try:
        signal.signal(signal.SIGTERM, _raise_interrupt)
    except ValueError:
        pass  # not in the main thread (e.g. under a test harness)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, CorpusError, CacheFileError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except AbortThresholdError as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return EXIT_ABORT
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except Exception as exc:  # a defect, not bad input: one line, traceback at debug level
        logger.debug("internal error", exc_info=True)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
