"""Latent-entity identification: path enumeration and retrieval-backed infilling.

Latent entities are grounded one at a time along an identification path.  For
each target, a retrieval query is built from the fact triplets that mention it
(and no other still-unidentified placeholder), the top-k documents are fetched,
and the infilling model fills a sentinel-marked blank given that context.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .backend import PURPOSE_INFILL, BackendSuite
from .graph import (
    PLACEHOLDER_RE,
    ClaimGraph,
    PlaceholderId,
    Triplet,
    placeholders_of,
    render_segments,
    render_sentence,
)
from .prompts import build_infill_prompt
from .retrieval import EvidenceBundle, Index, retrieve

DEFAULT_BLANK_TOKEN = "<extra_id_0>"


@dataclass(frozen=True)
class Path:
    """One latent-entity identification order."""

    order: Tuple  # of PlaceholderId

    def __str__(self) -> str:
        return " -> ".join(p.surface for p in self.order) if self.order else "(empty)"


@dataclass(frozen=True)
class PathBudget:
    limit: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.limit < 1:
            raise ValueError(f"path_limit must be >= 1, got {self.limit}")


@dataclass(frozen=True)
class EntityStep:
    """Record of one infilling step."""

    target: PlaceholderId
    retrieval_query: str
    infill_query: str
    evidence: EvidenceBundle
    answer: str


@dataclass(frozen=True)
class InfillOutcome:
    path: Path
    bindings: dict  # PlaceholderId -> str
    per_entity: Tuple  # of EntityStep
    degraded: Tuple = ()  # placeholders bound via the empty-answer fallback


def enumerate_paths(graph: ClaimGraph, budget: PathBudget) -> List[Path]:
    """All identification orders, capped at the budget.

    With n placeholders, permutation ranks 0..n!-1 follow the order that
    ``itertools.permutations`` yields over the sorted placeholders.  Every
    rank is taken, in order, when n! fits the limit; otherwise ``limit``
    ranks drawn by ``random.Random(budget.seed).sample`` (the same draw as
    from the materialized list).  No latent entity gives one empty path.
    """
    keys = sorted(graph.latent_defs.keys())
    ranks = range(math.factorial(len(keys)))
    if len(ranks) > budget.limit:
        ranks = random.Random(budget.seed).sample(ranks, budget.limit)
    paths = []
    for rank in ranks:  # each rank's digits in the factorial base pick the next key
        remaining, order = keys[:], []
        for place in range(len(keys) - 1, -1, -1):
            digit, rank = divmod(rank, math.factorial(place))
            order.append(remaining.pop(digit))
        paths.append(Path(tuple(order)))
    return paths


def _qualifying(triples, target: PlaceholderId, bound) -> List[Triplet]:
    """Triplets mentioning the target and no other unbound placeholder."""
    allowed = {target, *bound}
    selected = []
    for t in triples:
        mentioned = placeholders_of(t)
        if target in mentioned and mentioned <= allowed:
            selected.append(t)
    return selected


def _values(
    t: Triplet, target: PlaceholderId, value: str, bindings: Dict[PlaceholderId, str]
) -> Dict[PlaceholderId, str]:
    """What each placeholder of ``t`` renders as: its binding, else ``value``
    for the target, else its surface form."""
    return {**{p: p.surface for p in placeholders_of(t)}, target: value, **bindings}


def reference_text(
    graph: ClaimGraph, target: PlaceholderId, bindings: Dict[PlaceholderId, str]
) -> str:
    """The target's definitional reference (e.g. "a musician"), with any bound
    placeholder inside it resolved."""
    definition = graph.latent_defs[target]
    values = _values(definition, target, target.surface, bindings)
    return render_segments(definition.object, values)


def build_retrieval_query(
    graph: ClaimGraph, target: PlaceholderId, bindings: Dict[PlaceholderId, str]
) -> str:
    """Concatenate the qualifying fact triplets with the target replaced by
    its definitional reference text (e.g. "a musician").

    May return an empty string when the target co-occurs only with other
    unidentified placeholders.
    """
    reference = reference_text(graph, target, bindings)
    return " ".join(
        render_sentence(t, _values(t, target, reference, bindings))
        for t in _qualifying(graph.triples, target, bindings)
    )


def build_infill_query(
    graph: ClaimGraph,
    target: PlaceholderId,
    bindings: Dict[PlaceholderId, str],
    blank_token: str = DEFAULT_BLANK_TOKEN,
) -> str:
    """Concatenate the qualifying fact triplets, then the target's own
    definitional triplet last, with the target rendered as ``blank_token``.

    The definitional sentence is appended unconditionally; any other
    still-unbound placeholder inside it renders in surface form.
    """
    triplets = _qualifying(graph.triples, target, bindings) + [graph.latent_defs[target]]
    return " ".join(
        render_sentence(t, _values(t, target, blank_token, bindings)) for t in triplets
    )


def extract_answer(text: str, blank_token: str) -> str:
    """First line of the model output, with a leading sentinel echo removed."""
    answer = text.strip().split("\n", 1)[0]
    if answer.startswith(blank_token):
        answer = answer[len(blank_token):]
    return answer.strip()


def _sanitize_binding(answer: str) -> str:
    """Bound strings must not contain placeholder surface forms."""
    cleaned = PLACEHOLDER_RE.sub("", answer)
    return " ".join(cleaned.split())


def infill_path(
    graph: ClaimGraph,
    path: Path,
    index: Index,
    backends: BackendSuite,
    k: int,
    blank_token: str = DEFAULT_BLANK_TOKEN,
) -> InfillOutcome:
    """Identify every placeholder along the path, threading bindings forward.

    An empty model answer degrades to the definitional reference text instead
    of failing; backend errors propagate.
    """
    expected = set(graph.latent_defs.keys())
    if set(path.order) != expected or len(path.order) != len(expected):
        raise ValueError(f"path {path} is not a permutation of the graph placeholders")
    bindings: Dict[PlaceholderId, str] = {}
    steps: List[EntityStep] = []
    degraded: List[PlaceholderId] = []
    for target in path.order:
        reference = reference_text(graph, target, bindings)
        retrieval_query = build_retrieval_query(graph, target, bindings)
        if not retrieval_query:
            # Isolated target: fall back to its definitional sentence.
            definition = graph.latent_defs[target]
            retrieval_query = render_sentence(
                definition, _values(definition, target, reference, bindings)
            )
        evidence = backends.recall_retrieval(retrieve, index, retrieval_query, k)
        infill_query = build_infill_query(graph, target, bindings, blank_token)
        prompt = build_infill_prompt(evidence.concat, infill_query)
        response = backends.complete(PURPOSE_INFILL, prompt)
        answer = _sanitize_binding(extract_answer(response.text, blank_token))
        if not answer:
            answer = _sanitize_binding(reference) or "unknown"
            degraded.append(target)
        bindings[target] = answer
        steps.append(EntityStep(target, retrieval_query, infill_query, evidence, answer))
    return InfillOutcome(path, bindings, tuple(steps), tuple(degraded))
