"""Triplet, path, and claim verification, plus the adaptive orchestrator.

Verification is a conjunction over triplets within a path and a disjunction
over paths: a claim is Supported when at least one identification path yields
a fully supported graph.  Simple claims can skip all of that: a lightweight
selector routes them to direct verification against evidence retrieved with
the raw claim.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple

from .backend import PURPOSE_GRAPH, PURPOSE_SELECT, PURPOSE_VERIFY, BackendSuite
from .graph import ClaimGraph, Triplet, parse_graph, render_sentence
from .infill import (
    DEFAULT_BLANK_TOKEN,
    InfillOutcome,
    PathBudget,
    enumerate_paths,
    infill_path,
)
from .prompts import build_graph_prompt, build_select_prompt, build_verify_prompt
from .retrieval import CONCAT_SEPARATOR, EvidenceBundle, Index, retrieve


class Label(str, Enum):
    SUPPORTED = "Supported"
    NOT_SUPPORTED = "NotSupported"


class DocStrategy(str, Enum):
    """How retrieved documents are presented to the verifier."""

    CONCAT = "concat"
    EACH = "each"
    CONCAT_EACH = "concat_each"


DIRECT = "Direct"
GRAPHCHECK = "GraphCheck"

PIPELINE_MODES = ("dp_graphcheck", "graphcheck", "direct")

AFFIRMATIVE_ANSWERS = frozenset({"true", "yes", "supported"})
NEGATIVE_ANSWERS = frozenset({"false", "no", "not"})

_FIRST_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)


@dataclass(frozen=True)
class PipelineOptions:
    """The settings of one pipeline run.

    ``mode`` is one of "dp_graphcheck" (the selector routes each claim),
    "graphcheck" (always the graph pipeline) or "direct" (always one-shot
    verification).  Strategies may be given as ``DocStrategy`` values or
    their names.
    """

    mode: str = "dp_graphcheck"
    budget: PathBudget = PathBudget()
    k: int = 10
    direct_strategy: DocStrategy = DocStrategy.CONCAT
    graphcheck_strategy: DocStrategy = DocStrategy.CONCAT_EACH
    blank_token: str = DEFAULT_BLANK_TOKEN
    include_definitions: bool = True
    truncation_chars: int = 6000

    def __post_init__(self) -> None:
        if self.mode not in PIPELINE_MODES:
            raise ValueError(f"pipeline must be one of {PIPELINE_MODES}, got {self.mode!r}")
        for name in ("k", "truncation_chars"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("direct_strategy", "graphcheck_strategy"):
            try:
                object.__setattr__(self, name, DocStrategy(getattr(self, name)))
            except ValueError:
                raise ValueError(f"unknown document strategy {getattr(self, name)!r}") from None


def normalize_answer(text: str) -> str:
    """Case-folded first word of a model answer, punctuation stripped."""
    match = _FIRST_WORD_RE.search(text.strip().casefold())
    return match.group(0) if match else ""


def is_affirmative(text: str) -> bool:
    return normalize_answer(text) in AFFIRMATIVE_ANSWERS


@dataclass(frozen=True)
class StrategyChoice:
    value: str  # "Direct" | "GraphCheck"
    selector_answer: Optional[str] = None


@dataclass(frozen=True)
class TripletJudgment:
    sentence: str
    label: Label
    evidence_index: int = -1  # index of the deciding evidence input, -1 if none
    note: str = ""


@dataclass(frozen=True)
class PathRecord:
    outcome: InfillOutcome
    judgments: Tuple  # of TripletJudgment
    label: Label


@dataclass
class VerdictTrace:
    """Full decision record for one claim."""

    claim_id: str
    claim_text: str
    strategy: StrategyChoice
    final: Label
    direct_evidence: Optional[EvidenceBundle] = None
    direct_judgment: Optional[TripletJudgment] = None
    paths: List[PathRecord] = field(default_factory=list)
    timings: Dict[str, float] = field(default_factory=dict)
    input_tokens: int = 0
    output_tokens: int = 0
    calls: Dict[str, int] = field(default_factory=dict)  # requests sent, per purpose
    # Repeats the claim's memo answered, per purpose and for "retrieval".
    memo_hits: Dict[str, int] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    error: str = ""


def truncated_concat(bundle: EvidenceBundle, budget: int) -> str:
    """Concatenation capped at ``budget`` chars by dropping whole documents
    from the tail (the first document is hard-truncated if it alone overflows)."""
    texts = bundle.texts
    if not texts:
        return ""
    kept = [texts[0][:budget]]
    total = len(kept[0])
    for text in texts[1:]:
        extra = len(CONCAT_SEPARATOR) + len(text)
        if total + extra > budget:
            break
        kept.append(text)
        total += extra
    return CONCAT_SEPARATOR.join(kept)


def evidence_texts(
    bundle: EvidenceBundle,
    strategy: DocStrategy,
    budget: int = PipelineOptions.truncation_chars,
) -> List[str]:
    """Evidence inputs for the verifier under a document-level strategy."""
    each = [text[:budget] for text in bundle.texts]
    if strategy is DocStrategy.CONCAT:
        return [truncated_concat(bundle, budget)]
    if strategy is DocStrategy.EACH:
        return each
    return [truncated_concat(bundle, budget)] + each


def _judge_sentence(sentence: str, texts: List[str], backends: BackendSuite) -> Tuple[Label, int]:
    for i, evidence in enumerate(texts):
        response = backends.complete(PURPOSE_VERIFY, build_verify_prompt(evidence, sentence))
        if is_affirmative(response.text):
            return Label.SUPPORTED, i
    return Label.NOT_SUPPORTED, -1


def _judged(
    sentence: str,
    bundle: EvidenceBundle,
    backends: BackendSuite,
    strategy: DocStrategy,
    truncation_chars: int,
) -> TripletJudgment:
    """Verify a sentence against already retrieved evidence."""
    if not bundle.docs:
        return TripletJudgment(sentence, Label.NOT_SUPPORTED, -1, "no evidence retrieved")
    texts = evidence_texts(bundle, strategy, truncation_chars)
    label, deciding = _judge_sentence(sentence, texts, backends)
    return TripletJudgment(sentence, label, deciding)


def verify_triplet(
    t: Triplet,
    bindings: Dict,
    index: Index,
    backends: BackendSuite,
    options: PipelineOptions = PipelineOptions(),
) -> TripletJudgment:
    """Render the triplet, retrieve evidence with the rendered sentence as the
    query, and verify it under the GraphCheck document-level strategy."""
    sentence = render_sentence(t, bindings)
    bundle = backends.recall_retrieval(retrieve, index, sentence, options.k)
    return _judged(
        sentence, bundle, backends, options.graphcheck_strategy, options.truncation_chars
    )


def path_triplets(graph: ClaimGraph, include_definitions: bool = True) -> List[Triplet]:
    """Verification order: fact triplets first, then definitional triplets."""
    triplets = list(graph.triples)
    if include_definitions:
        triplets.extend(graph.latent_defs.values())
    return triplets


def verify_path(
    graph: ClaimGraph,
    outcome: InfillOutcome,
    index: Index,
    backends: BackendSuite,
    options: PipelineOptions = PipelineOptions(),
) -> Tuple[Label, List[TripletJudgment]]:
    """Verify every triplet under the path's bindings, stopping at the first
    failure."""
    judgments: List[TripletJudgment] = []
    for t in path_triplets(graph, options.include_definitions):
        judgment = verify_triplet(t, outcome.bindings, index, backends, options)
        judgments.append(judgment)
        if judgment.label is Label.NOT_SUPPORTED:
            return Label.NOT_SUPPORTED, judgments
    return Label.SUPPORTED, judgments


def verify_claim_graphcheck(
    graph: ClaimGraph,
    index: Index,
    backends: BackendSuite,
    options: PipelineOptions = PipelineOptions(),
) -> Tuple[Label, List[PathRecord]]:
    """Infill and verify each identification path, returning Supported as soon
    as one path passes."""
    records: List[PathRecord] = []
    for path in enumerate_paths(graph, options.budget):
        outcome = infill_path(graph, path, index, backends, options.k, options.blank_token)
        label, judgments = verify_path(graph, outcome, index, backends, options)
        records.append(PathRecord(outcome, tuple(judgments), label))
        if label is Label.SUPPORTED:
            return Label.SUPPORTED, records
    return Label.NOT_SUPPORTED, records


def select_strategy(
    claim_text: str,
    evidence: EvidenceBundle,
    backends: BackendSuite,
    options: PipelineOptions = PipelineOptions(),
) -> StrategyChoice:
    """Ask whether the claim's own evidence suffices; affirmative routes to
    Direct, anything else to the full graph pipeline."""
    concat = truncated_concat(evidence, options.truncation_chars)
    response = backends.complete(PURPOSE_SELECT, build_select_prompt(concat, claim_text))
    value = DIRECT if is_affirmative(response.text) else GRAPHCHECK
    return StrategyChoice(value, response.text)


def _obtain_graph(claim_text, pregenerated_graph, backends, notes):
    """Parse a pregenerated graph or construct one with the graph backend.

    Returns None (degraded mode) when the text does not parse.
    """
    if pregenerated_graph is not None:
        source = pregenerated_graph
    else:
        response = backends.complete(PURPOSE_GRAPH, build_graph_prompt(claim_text))
        source = response.text
    graph, diagnostics = parse_graph(source)
    for diag in diagnostics:
        notes.append(f"graph {diag}")
    return graph


def run_pipeline(
    claim_text: str,
    index: Index,
    backends: BackendSuite,
    *,
    claim_id: str = "",
    pregenerated_graph: Optional[str] = None,
    gold_doc_ids=(),
    **options,
) -> VerdictTrace:
    """Verify one claim: retrieve once with the claim, route it, and run the
    chosen branch.  ``options`` are the fields of ``PipelineOptions``.  The
    documents of ``gold_doc_ids`` that the index holds (unknown ids are
    dropped) are merged into every retrieval of the claim.

    Only mode "dp_graphcheck" asks the selector for the route; the other modes
    fix it.  A graph that fails to parse degrades to Direct with a trace note.
    """
    opts = PipelineOptions(**options)
    started = time.monotonic()
    # The claim's own view of the backends: its gold documents, and a memo
    # that ends with it.
    gold = (index.get_document(doc_id) for doc_id in gold_doc_ids or ())
    counted = backends.counted([doc for doc in gold if doc is not None])
    notes: List[str] = []

    bundle = counted.recall_retrieval(retrieve, index, claim_text, opts.k)
    route = DIRECT if opts.mode == "direct" else GRAPHCHECK
    selector_answer = None
    if opts.mode == "dp_graphcheck":
        choice = select_strategy(claim_text, bundle, counted, opts)
        route, selector_answer = choice.value, choice.selector_answer
        if route == GRAPHCHECK and normalize_answer(selector_answer) not in NEGATIVE_ANSWERS:
            notes.append(f"selector answer {selector_answer!r} unparseable; using GraphCheck")

    graph = None
    if route == GRAPHCHECK:
        graph = _obtain_graph(claim_text, pregenerated_graph, counted, notes)
        if graph is None:
            notes.append("graph unusable; falling back to Direct verification")
            route = DIRECT

    direct_judgment = None
    paths: List[PathRecord] = []
    if graph is None:
        direct_judgment = _judged(
            claim_text, bundle, counted, opts.direct_strategy, opts.truncation_chars
        )
        final = direct_judgment.label
    else:
        final, paths = verify_claim_graphcheck(graph, index, counted, opts)

    memo = counted.memo
    return VerdictTrace(
        claim_id=claim_id,
        claim_text=claim_text,
        strategy=StrategyChoice(route, selector_answer),
        final=final,
        direct_evidence=bundle,
        direct_judgment=direct_judgment,
        paths=paths,
        timings={"total_s": time.monotonic() - started},
        input_tokens=memo.input_tokens,
        output_tokens=memo.output_tokens,
        calls=dict(memo.calls),
        memo_hits=dict(memo.hits),
        notes=notes,
    )


def dp_graphcheck(claim_text: str, index: Index, backends: BackendSuite, **kwargs) -> VerdictTrace:
    """Adaptive verification: ``run_pipeline`` with the selector routing."""
    return run_pipeline(claim_text, index, backends, mode="dp_graphcheck", **kwargs)


def _bundle_to_dict(bundle: Optional[EvidenceBundle]) -> Optional[List[dict]]:
    if bundle is None:
        return None
    return [
        {"id": doc.doc_id, "score": EvidenceBundle.display_score(score)}
        for doc, score in bundle.docs
    ]


def _judgment_to_dict(judgment: Optional[TripletJudgment]) -> Optional[dict]:
    if judgment is None:
        return None
    row = {
        "sentence": judgment.sentence,
        "label": judgment.label.value,
        "evidence_index": judgment.evidence_index,
    }
    if judgment.note:
        row["note"] = judgment.note
    return row


def trace_to_dict(trace: VerdictTrace) -> dict:
    """JSON-serializable form of a trace (one object per claim)."""
    return {
        "claim_id": trace.claim_id,
        "claim": trace.claim_text,
        "strategy": {
            "value": trace.strategy.value,
            "selector_answer": trace.strategy.selector_answer,
        },
        "final": trace.final.value,
        "direct_evidence": _bundle_to_dict(trace.direct_evidence),
        "direct_judgment": _judgment_to_dict(trace.direct_judgment),
        "paths": [
            {
                "order": [p.surface for p in record.outcome.path.order],
                "bindings": {
                    p.surface: value for p, value in record.outcome.bindings.items()
                },
                "degraded": [p.surface for p in record.outcome.degraded],
                "per_entity": [
                    {
                        "target": step.target.surface,
                        "retrieval_query": step.retrieval_query,
                        "infill_query": step.infill_query,
                        "evidence": _bundle_to_dict(step.evidence),
                        "answer": step.answer,
                    }
                    for step in record.outcome.per_entity
                ],
                "judgments": [_judgment_to_dict(j) for j in record.judgments],
                "label": record.label.value,
            }
            for record in trace.paths
        ],
        "tokens": {"input": trace.input_tokens, "output": trace.output_tokens},
        "calls": dict(trace.calls),
        "memo_hits": dict(trace.memo_hits),
        "notes": list(trace.notes),
        "error": trace.error,
        "timings": dict(trace.timings),
    }


def format_trace_dict(row: dict) -> str:
    """Human-readable tree for a serialized trace object."""

    def mark(label: str) -> str:
        return "+" if label == Label.SUPPORTED.value else "x"

    lines = [f"claim {row.get('claim_id') or '-'}: {row['final']}"]
    strategy = row.get("strategy", {})
    answer = strategy.get("selector_answer")
    suffix = f' (selector answered "{answer}")' if answer is not None else ""
    lines.append(f"  strategy: {strategy.get('value', '?')}{suffix}")
    evidence = row.get("direct_evidence")
    if evidence is not None:
        shown = ", ".join(f"{e['id']}={e['score']}" for e in evidence[:5])
        lines.append(
            f"  claim evidence: {len(evidence)} docs" + (f" ({shown})" if shown else "")
        )
    judgment = row.get("direct_judgment")
    if judgment is not None:
        lines.append(f"  {mark(judgment['label'])} {judgment['sentence']}")
    for i, record in enumerate(row.get("paths", []), start=1):
        order = " -> ".join(record["order"]) if record["order"] else "(empty)"
        lines.append(f"  path {i}: {order}  [{record['label']}]")
        for step in record.get("per_entity", []):
            lines.append(f"    {step['target']} := {step['answer']!r}")
        for j in record.get("judgments", []):
            where = f"  (evidence {j['evidence_index']})" if j["evidence_index"] >= 0 else ""
            lines.append(f"    {mark(j['label'])} {j['sentence']}{where}")
    memo_hits = row.get("memo_hits")
    if memo_hits:
        shown = ", ".join(f"{kind}={n}" for kind, n in memo_hits.items() if n) or "none"
        lines.append(f"  memo hits: {shown}")
    for note in row.get("notes", []):
        lines.append(f"  note: {note}")
    if row.get("error"):
        lines.append(f"  error: {row['error']}")
    lines.append(f"  final: {row['final']}")
    return "\n".join(lines)
