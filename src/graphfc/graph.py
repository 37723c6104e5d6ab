"""Claim graph data model and text-format parser.

A claim graph is the two-section plain-text structure produced by the
graph-construction prompt:

    # Latent Entities:
    (ENT1) [SEP] is [SEP] a musician
    # Triples:
    (ENT1) [SEP] is part of [SEP] Tall Birds

The "# Latent Entities" section defines each placeholder via a triplet whose
subject is the placeholder itself; the "# Triples" section holds the fact
triplets to verify.  Fields are separated by the literal token ``[SEP]``
(exactly three fields per line), and the object field may carry a trailing
prepositional phrase after a single ``[PREP]`` token.

Placeholders have the exact surface form ``(ENT<n>)`` with n >= 1 and no
leading zeros; anything else ("(ent1)", "(ENT 1)", "(ENT01)") is literal text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Optional

LATENT_HEADER = "# Latent Entities:"
TRIPLES_HEADER = "# Triples:"
SEP_TOKEN = "[SEP]"
PREP_TOKEN = "[PREP]"

# A placeholder in its surface form; group 1 is its index.
PLACEHOLDER_RE = re.compile(r"\(ENT([1-9][0-9]*)\)")
_SENTENCE_END = (".", "!", "?")
# Path sampling ranks the n! orders of n latent entities, and 21! is past the
# largest population that random.sample accepts (sys.maxsize).
MAX_LATENT_ENTITIES = 20


class UnboundPlaceholderError(ValueError):
    """Raised when rendering hits a placeholder with no value."""


@dataclass(frozen=True, order=True)
class PlaceholderId:
    """A latent-entity placeholder, identified by its 1-based index."""

    index: int

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError(f"placeholder index must be >= 1, got {self.index}")

    @property
    def surface(self) -> str:
        return f"(ENT{self.index})"

    def __str__(self) -> str:
        return self.surface


# A field of a triplet: literal text interleaved with placeholders.  The
# concatenation of all segments (placeholders in surface form) reproduces the
# source span exactly; adjacent literals are always merged.
Segments = tuple


def split_segments(text: str) -> Segments:
    """Split a field into literal/placeholder segments."""
    parts = PLACEHOLDER_RE.split(text)
    segments: list = []
    for i, part in enumerate(parts):
        if i % 2 == 1:
            segments.append(PlaceholderId(int(part)))
        elif part:
            segments.append(part)
    return tuple(segments)


def segments_surface(segments: Segments) -> str:
    """Re-render segments with placeholders in their surface form."""
    return "".join(s.surface if isinstance(s, PlaceholderId) else s for s in segments)


def render_segments(
    segments: Segments, values: Optional[Mapping[PlaceholderId, str]] = None
) -> str:
    """Render segments to text, each placeholder as its entry in ``values``.

    A placeholder without an entry raises UnboundPlaceholderError.
    """
    parts = []
    for seg in segments:
        if not isinstance(seg, PlaceholderId):
            parts.append(seg)
        elif values is not None and seg in values:
            parts.append(values[seg])
        else:
            raise UnboundPlaceholderError(f"unbound placeholder {seg.surface}")
    return "".join(parts)


@dataclass(frozen=True)
class Triplet:
    """One subject / relation / object fact, with an optional [PREP] tail."""

    subject: Segments
    relation: Segments
    object: Segments
    prep: Optional[Segments] = None

    @property
    def fields(self) -> tuple:
        if self.prep is None:
            return (self.subject, self.relation, self.object)
        return (self.subject, self.relation, self.object, self.prep)


def parse_triplet_line(line: str) -> Triplet:
    """Parse one ``a [SEP] b [SEP] c [PREP] d`` line.

    Raises ValueError with a human-readable reason on any format violation.
    """
    if line.count(PREP_TOKEN) > 1:
        raise ValueError(f"more than one {PREP_TOKEN} token")
    fields = line.split(SEP_TOKEN)
    if len(fields) != 3:
        raise ValueError(f"expected 3 {SEP_TOKEN}-delimited fields, got {len(fields)}")
    if PREP_TOKEN in fields[0] or PREP_TOKEN in fields[1]:
        raise ValueError(f"{PREP_TOKEN} must follow the object field")
    object_text = fields[2]
    prep_text = None
    if PREP_TOKEN in object_text:
        object_text, prep_text = object_text.split(PREP_TOKEN)
    parsed = []
    for name, text in (("subject", fields[0]), ("relation", fields[1]), ("object", object_text)):
        segments = split_segments(text.strip())
        if not segments:
            raise ValueError(f"empty {name} field")
        parsed.append(segments)
    prep = None
    if prep_text is not None:
        prep = split_segments(prep_text.strip())
        if not prep:
            raise ValueError("empty prepositional phrase after [PREP]")
    return Triplet(parsed[0], parsed[1], parsed[2], prep)


def triplet_to_line(t: Triplet) -> str:
    line = f" {SEP_TOKEN} ".join(
        segments_surface(s) for s in (t.subject, t.relation, t.object)
    )
    if t.prep is not None:
        line += f" {PREP_TOKEN} " + segments_surface(t.prep)
    return line


def placeholders_of(t: Triplet) -> set:
    """All placeholders occurring in subject, relation, object, and prep."""
    return {s for segments in t.fields for s in segments if isinstance(s, PlaceholderId)}


def render_sentence(
    t: Triplet, values: Optional[Mapping[PlaceholderId, str]] = None
) -> str:
    """Render a triplet as a natural-language sentence.

    Fields are joined by single spaces (prep appended last) and a terminal
    period is added unless the text already ends in '.', '!' or '?'.  Each
    placeholder renders as its entry in ``values``; a placeholder without one
    raises UnboundPlaceholderError.
    """
    sentence = " ".join(render_segments(segments, values) for segments in t.fields)
    if not sentence.endswith(_SENTENCE_END):
        sentence += "."
    return sentence


@dataclass(frozen=True)
class GraphDiagnostic:
    """One parser finding; "error" severity means no graph is produced."""

    severity: str  # "error" | "warning"
    kind: str  # malformed_line | undefined_placeholder | empty_section
    #            | duplicate_placeholder | orphan_latent_def | skipped_text
    #            | too_many_latents
    line: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line}: [{self.severity}] {self.kind}: {self.message}"


@dataclass(frozen=True)
class ClaimGraph:
    """Parsed claim graph: placeholder definitions plus fact triplets."""

    latent_defs: dict  # PlaceholderId -> Triplet, insertion-ordered
    triples: tuple  # of Triplet


def parse_graph(text: str):
    """Parse the two-section graph format.

    Returns ``(graph, diagnostics)``.  ``graph`` is None whenever at least one
    error-severity diagnostic was produced; warnings may accompany a valid
    graph.  Never raises on any input.
    """
    diagnostics: list = []
    latent_defs: dict = {}
    def_lines: dict = {}
    triples: list = []  # (line, Triplet); None for a malformed line, which still fills the section

    lines = text.split("\n")
    section = "preamble"
    skipped_preamble_at = None
    skipped_trailing_at = None

    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if section == "preamble":
            if line == LATENT_HEADER:
                section = "latent"
            elif skipped_preamble_at is None:
                skipped_preamble_at = lineno
            continue
        if section == "latent" and line == LATENT_HEADER:
            message = f"repeated {LATENT_HEADER!r} header"
            diagnostics.append(GraphDiagnostic("error", "malformed_line", lineno, message))
            continue
        if section == "latent" and line == TRIPLES_HEADER:
            section = "triples"
            continue
        if line.startswith("#"):
            # Unknown or out-of-place header: the graph region ends here.
            skipped_trailing_at = lineno
            break
        try:
            t = parse_triplet_line(line)
            if section == "latent" and (
                len(t.subject) != 1 or not isinstance(t.subject[0], PlaceholderId)
            ):
                raise ValueError("latent entity definition subject must be a single placeholder")
        except ValueError as exc:
            diagnostics.append(GraphDiagnostic("error", "malformed_line", lineno, str(exc)))
            t = None
        if section == "triples":
            triples.append((lineno, t))
        elif t is not None and t.subject[0] in latent_defs:
            message = f"{t.subject[0].surface} defined more than once"
            diagnostics.append(GraphDiagnostic("error", "duplicate_placeholder", lineno, message))
        elif t is not None:
            latent_defs[t.subject[0]] = t
            def_lines[t.subject[0]] = lineno

    for skipped_at, message in (
        (skipped_preamble_at, f"text before {LATENT_HEADER!r} was skipped"),
        (skipped_trailing_at, "text after the graph sections was skipped"),
    ):
        if skipped_at is not None:
            diagnostics.append(GraphDiagnostic("warning", "skipped_text", skipped_at, message))

    if section != "triples":
        header = LATENT_HEADER if section == "preamble" else TRIPLES_HEADER
        message = f"missing {header!r} header"
        diagnostics.append(GraphDiagnostic("error", "empty_section", len(lines), message))
        return None, diagnostics
    if not triples:
        message = f"{TRIPLES_HEADER!r} section is empty"
        diagnostics.append(GraphDiagnostic("error", "empty_section", len(lines), message))

    referenced: set = set()
    for at, t in triples:
        for p in sorted(placeholders_of(t)) if t is not None else ():
            referenced.add(p)
            if p not in latent_defs:
                message = f"{p.surface} used in {TRIPLES_HEADER!r} but never defined"
                diagnostics.append(GraphDiagnostic("error", "undefined_placeholder", at, message))
    for p, t in latent_defs.items():
        at = def_lines[p]
        # Placeholders referenced inside a definition body must be defined too.
        for q in sorted(placeholders_of(t) - {p}):
            if q not in latent_defs:
                message = f"{q.surface} used in the definition of {p.surface} but never defined"
                diagnostics.append(GraphDiagnostic("error", "undefined_placeholder", at, message))
        if p not in referenced:
            message = f"{p.surface} is defined but never used in {TRIPLES_HEADER!r}"
            diagnostics.append(GraphDiagnostic("warning", "orphan_latent_def", at, message))

    if len(latent_defs) > MAX_LATENT_ENTITIES:
        at = list(def_lines.values())[MAX_LATENT_ENTITIES]
        message = f"{len(latent_defs)} latent entities, more than {MAX_LATENT_ENTITIES}"
        diagnostics.append(GraphDiagnostic("error", "too_many_latents", at, message))
    if any(d.severity == "error" for d in diagnostics):
        return None, diagnostics
    return ClaimGraph(latent_defs, tuple(t for _, t in triples)), diagnostics


def serialize_graph(graph: ClaimGraph) -> str:
    """Render a graph back to its two-section text form."""
    lines = [LATENT_HEADER]
    lines.extend(triplet_to_line(t) for t in graph.latent_defs.values())
    lines.append(TRIPLES_HEADER)
    lines.extend(triplet_to_line(t) for t in graph.triples)
    return "\n".join(lines)
