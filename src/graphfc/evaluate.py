"""Dataset loading, Macro-F1 metrics, and the batch evaluation harness."""

from __future__ import annotations

import logging
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

from .backend import BackendSuite, CostLedger
from .retrieval import CorpusError, EvidenceBundle, Index, read_jsonl
from .verdict import (
    DIRECT,
    GRAPHCHECK,
    Label,
    PipelineOptions,
    StrategyChoice,
    VerdictTrace,
    run_pipeline,
)

logger = logging.getLogger(__name__)

# A run aborts once more than this share of its claims has errored.
ABORT_ERROR_FRACTION = 0.10


class DataError(ValueError):
    """Raised for malformed dataset rows (unknown labels, missing fields)."""


class AbortThresholdError(RuntimeError):
    """Raised when the errored-claim fraction exceeds the abort threshold."""


@dataclass(frozen=True)
class ClaimRecord:
    id: str
    text: str
    label: Label
    hops: Optional[int] = None
    gold_doc_ids: Optional[Tuple] = None
    pregenerated_graph: Optional[str] = None


_HOVER_LABELS = {"SUPPORTED": Label.SUPPORTED, "NOT_SUPPORTED": Label.NOT_SUPPORTED}
_EXFEVER_LABELS = {"SUPPORTS": Label.SUPPORTED, "REFUTES": Label.NOT_SUPPORTED}
_GENERIC_LABELS = {"Supported": Label.SUPPORTED, "NotSupported": Label.NOT_SUPPORTED}
# Per dataset format: the claim text's keys (the first present wins) and its labels.
_FORMATS = {
    "hover": (("claim", "text"), _HOVER_LABELS),
    "exfever": (("claim", "text"), _EXFEVER_LABELS),
    "generic": (("text", "claim"), _GENERIC_LABELS),
}
DATASET_FORMATS = tuple(_FORMATS)
_NEI_LABELS = {"NOT ENOUGH INFO", "NOT_ENOUGH_INFO", "NEI"}


def _gold_ids(row: dict, where: str) -> Optional[Tuple]:
    for key in ("gold_doc_ids", "supporting_facts"):
        if row.get(key) is not None and not isinstance(row[key], list):
            raise DataError(f"{where}: {key} is not a list: {row[key]!r}")
    if row.get("gold_doc_ids") is not None:
        return tuple(str(x) for x in row["gold_doc_ids"])
    facts = row.get("supporting_facts")
    if facts:
        seen = []
        for fact in facts:
            title = fact[0] if isinstance(fact, list) and fact else fact
            if not isinstance(title, str):
                raise DataError(f"{where}: supporting fact {fact!r} names no title")
            if title not in seen:
                seen.append(title)
        return tuple(seen)
    return None


def _row_id(row: dict, lineno: int) -> str:
    for key in ("id", "uid"):
        if key in row and row[key] is not None:
            return str(row[key])
    return str(lineno)


def _row_hops(row: dict, where: str) -> Optional[int]:
    for key in ("num_hops", "hops"):
        if key in row and row[key] is not None:
            try:
                return int(row[key])
            except (TypeError, ValueError, OverflowError) as exc:
                raise DataError(f"{where}: {key} is not an integer: {row[key]!r}") from exc
    return None


def load_dataset(path: str, fmt: str) -> List[ClaimRecord]:
    """Read a JSONL benchmark file into binary-labeled claim records.

    The "exfever" format drops NEI-labeled rows (the count is logged); an
    unknown label string raises DataError naming the offending row.
    """
    if fmt not in DATASET_FORMATS:
        raise DataError(f"unknown dataset format {fmt!r}")
    (first_key, second_key), labels = _FORMATS[fmt]
    records: List[ClaimRecord] = []
    dropped = 0
    for lineno, row in read_jsonl(path, DataError):
        rid = _row_id(row, lineno)
        where = f"{path}:{lineno} (id={rid})"
        raw_label = str(row.get("label", ""))
        if fmt == "exfever" and raw_label.upper() in _NEI_LABELS:
            dropped += 1
            continue
        text = row.get(first_key, row.get(second_key, ""))
        label = labels.get(raw_label)
        if label is None:
            raise DataError(f"{where}: unknown label {raw_label!r}")
        if not (isinstance(text, str) and text):
            raise DataError(f"{where}: claim text is not a non-empty string: {text!r}")
        graph = row.get("pregenerated_graph")
        if graph is not None and not isinstance(graph, str):
            raise DataError(f"{where}: pregenerated_graph is not a string: {graph!r}")
        records.append(
            ClaimRecord(
                id=rid,
                text=text,
                label=label,
                hops=_row_hops(row, where),
                gold_doc_ids=_gold_ids(row, where),
                pregenerated_graph=graph,
            )
        )
    if dropped:
        logger.info("dropped %d NEI-labeled rows from %s", dropped, path)
    return records


_CLASSES = (Label.SUPPORTED, Label.NOT_SUPPORTED)


def _class_counts(matrix: Counter) -> dict:
    """Each class's tp/fp/fn/tn, from a (prediction, label) confusion matrix."""
    return {cls.value: {"tp": matrix[cls, cls], "fp": matrix[cls, other],
                        "fn": matrix[other, cls], "tn": matrix[other, other]}
            for cls, other in (_CLASSES, _CLASSES[::-1])}


def _macro_f1(counts: dict) -> float:
    """Unweighted mean of the per-class F1 of ``_class_counts``."""
    def f1(tp, fp, fn, tn):
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        return 2 * precision * recall / (precision + recall) if precision + recall else 0.0

    return sum(f1(**c) for c in counts.values()) / 2.0


def macro_f1(preds: List[Label], golds: List[Label]) -> float:
    """Unweighted mean of the per-class F1 over both verdict classes.

    A class absent from preds and golds contributes an F1 of 0.
    """
    if not preds or len(preds) != len(golds):
        raise ValueError("preds and golds must be non-empty and of equal length")
    return _macro_f1(_class_counts(Counter(zip(preds, golds))))


def recall_at_k(evidence: EvidenceBundle, gold_doc_ids) -> float:
    """Fraction of the gold document ids present in the retrieved set."""
    gold = set(gold_doc_ids)
    if not gold:
        raise ValueError("gold_doc_ids must be non-empty")
    return len(set(evidence.doc_ids) & gold) / len(gold)


class _Tally:
    """One group's metrics (overall, or one hop count), folded claim by claim:
    the (prediction, label) confusion matrix and, per route, the claims, the
    correct ones, and the sum and count of the direct-evidence recalls (added
    one at a time, so the mean does not depend on how ``sum()`` rounds)."""

    def __init__(self) -> None:
        self.matrix: Counter = Counter()
        self.routed: Counter = Counter()
        self.correct: Counter = Counter()
        self.recall_sum: Counter = Counter()
        self.recalled: Counter = Counter()

    def add(self, record: ClaimRecord, trace: VerdictTrace) -> None:
        route = trace.strategy.value
        self.matrix[trace.final, record.label] += 1
        self.routed[route] += 1
        self.correct[route] += trace.final is record.label
        if record.gold_doc_ids and trace.direct_evidence is not None:
            self.recall_sum[route] += recall_at_k(trace.direct_evidence, record.gold_doc_ids)
            self.recalled[route] += 1

    def metrics(self) -> dict:
        n = sum(self.matrix.values())
        counts = _class_counts(self.matrix)
        return {
            "n": n,
            "accuracy": sum(self.matrix[cls, cls] for cls in _CLASSES) / n,
            "macro_f1": _macro_f1(counts),
            "counts": counts,
            "strategy": {route: {
                "n": self.routed[route],
                "fraction": self.routed[route] / n,
                "accuracy": self.correct[route] / self.routed[route] if self.routed[route] else None,
                "recall_at_k": (self.recall_sum[route] / self.recalled[route]
                                if self.recalled[route] else None),
            } for route in (DIRECT, GRAPHCHECK)},
        }


@dataclass
class EvalReport:
    config: dict
    overall: dict
    per_hop: Dict[str, dict]
    errors: List[str]
    cost: dict
    timing: dict
    partial: bool = False

    def to_dict(self) -> dict:
        return asdict(self)

    def to_table(self) -> str:
        cfg = self.config
        header = (
            f"pipeline: {cfg.get('mode')}  k={cfg.get('k')}  "
            f"path_limit={cfg.get('path_limit')}  seed={cfg.get('seed')}  "
            f"evidence={cfg.get('evidence_mode')}"
        )
        lines = [header, ""]
        lines.append(
            f"{'group':>8}  {'n':>5}  {'macro_f1':>8}  {'accuracy':>8}  "
            f"{'direct%':>8}  {'graphcheck%':>11}"
        )
        rows = [(f"{hop}-hop" if hop != "unknown" else hop, m)
                for hop, m in sorted(self.per_hop.items())]
        rows.append(("overall", self.overall))
        for name, m in rows:
            direct_pct = m["strategy"][DIRECT]["fraction"] * 100
            graph_pct = m["strategy"][GRAPHCHECK]["fraction"] * 100
            lines.append(
                f"{name:>8}  {m['n']:>5}  {m['macro_f1']:>8.4f}  {m['accuracy']:>8.4f}  "
                f"{direct_pct:>7.1f}%  {graph_pct:>10.1f}%"
            )
        lines.append("")
        lines.append(
            f"runtime: {self.timing['runtime_minutes_per_1k']:.2f} min/1k    "
            f"api cost: ${self.cost['total_usd_per_1k']:.4f}/1k"
        )
        if self.partial:
            lines.append("NOTE: partial report (run was interrupted)")
        return "\n".join(lines)


def run_eval(
    records: List[ClaimRecord],
    index: Index,
    backends: BackendSuite,
    *,
    gold_mode: bool = False,
    workers: int = 1,
    ledger: Optional[CostLedger] = None,
    **options,
) -> Tuple[EvalReport, List[VerdictTrace]]:
    """Run the pipeline over every record and aggregate metrics.

    ``options`` are the fields of ``PipelineOptions``, passed on to
    ``run_pipeline`` for each claim.

    Per-claim failures are recorded (the claim scores NotSupported, flagged in
    its trace); once errored claims exceed ``ABORT_ERROR_FRACTION`` of the
    dataset the whole run aborts with AbortThresholdError.  A CorpusError is
    not a per-claim failure: the index is at fault, so it ends the run.  A
    KeyboardInterrupt drains the pool and returns a report marked partial; if
    no claim has finished there is nothing to report, and it propagates.
    """
    if not records:
        raise DataError("dataset is empty")
    opts = PipelineOptions(**options)

    def evaluate_one(record: ClaimRecord) -> VerdictTrace:
        try:
            return run_pipeline(
                record.text, index, backends, claim_id=record.id,
                pregenerated_graph=record.pregenerated_graph,
                gold_doc_ids=record.gold_doc_ids if gold_mode else (), **options,
            )
        except CorpusError:
            raise
        except Exception as exc:  # noqa: BLE001 - errored claims are scored, not fatal
            logger.warning("claim %s failed: %s", record.id, exc)
            fallback = DIRECT if opts.mode == "direct" else GRAPHCHECK
            return VerdictTrace(
                claim_id=record.id,
                claim_text=record.text,
                strategy=StrategyChoice(fallback, None),
                final=Label.NOT_SUPPORTED,
                error=str(exc),
            )

    started = time.monotonic()
    abort_limit = ABORT_ERROR_FRACTION * len(records)
    overall = _Tally()
    per_hop: Dict[str, _Tally] = defaultdict(_Tally)
    traces: List[VerdictTrace] = []
    errored: List[str] = []
    partial = False

    executor = ThreadPoolExecutor(max_workers=max(1, workers))
    try:
        futures = [executor.submit(evaluate_one, record) for record in records]
        for record, future in zip(records, futures):
            try:
                trace = future.result()
            except KeyboardInterrupt:
                if not traces:
                    raise
                partial = True
                logger.warning("interrupted; draining workers and emitting partial report")
                break
            traces.append(trace)
            overall.add(record, trace)
            per_hop[str(record.hops) if record.hops is not None else "unknown"].add(record, trace)
            if trace.error:
                errored.append(record.id)
                if len(errored) > abort_limit:
                    raise AbortThresholdError(
                        f"{len(errored)} of {len(records)} claims errored "
                        f"(> {ABORT_ERROR_FRACTION:.0%} threshold)"
                    )
    finally:
        executor.shutdown(wait=False, cancel_futures=True)

    wall = time.monotonic() - started
    done = len(traces)
    totals = ledger.totals() if ledger is not None else None
    per_purpose = (
        {p: t.cost / done * 1000.0 for p, t in ledger.per_purpose().items()}
        if ledger is not None and done
        else {}
    )
    report = EvalReport(
        config={
            "mode": opts.mode,
            "k": opts.k,
            "path_limit": opts.budget.limit,
            "seed": opts.budget.seed,
            "evidence_mode": "open_book_gold" if gold_mode else "open_book",
            "direct_strategy": opts.direct_strategy.value,
            "graphcheck_strategy": opts.graphcheck_strategy.value,
            "n_claims": done,
        },
        overall=overall.metrics(),
        per_hop={hop: tally.metrics() for hop, tally in per_hop.items()},
        errors=errored,
        cost={
            "total_usd_per_1k": (totals.cost / done * 1000.0) if totals and done else 0.0,
            "per_purpose_usd_per_1k": per_purpose,
        },
        timing={
            "wall_seconds": wall,
            "runtime_minutes_per_1k": (wall / 60.0) / done * 1000.0 if done else 0.0,
        },
        partial=partial,
    )
    return report, traces
