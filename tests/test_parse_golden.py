"""Golden digest of ``parse_graph`` over seeded texts.

The texts come from ``random.Random(seed)``, not Hypothesis, so the digest
is stable.  Half are valid graphs (the few-shot examples and random
skeletons) with zero to two line mutations: a malformed triplet line, a
stray or repeated header, a removed or duplicated definition, text before or
after the sections, blank and padded lines.  The rest are random mixes of
headers, triplet lines, malformed lines and prose.

For every text the digest covers the serialized graph (or None) and every
diagnostic's severity, kind, line and message, in order.  A change that is
meant to keep the parser keeps the digest.
"""

from __future__ import annotations

import hashlib
import json
import random

from graphfc.graph import LATENT_HEADER, TRIPLES_HEADER, parse_graph, serialize_graph
from graphfc.prompts import FEW_SHOT_EXAMPLES

SEEDS = range(6000)

PARSE_DIGEST = "ad513e7f90e97d4e59585a51919c47a6d12dbe7feaaa435782ba892ae54ae669"
PARSE_TEXTS = 6000

LITERALS = ("Tall Birds", "Oslo", "a musician", "Modest Mouse", "1990", "(ent1)", "(ENT01)")
RELATIONS = ("is", "is part of", "formed in", "wrote", "was born in")
TAILS = ("in 1990", "together with Oslo", "during the tour")
HEADERS = (LATENT_HEADER, TRIPLES_HEADER, "# Notes:", "# Claim:", "#")
PROSE = ("Here is the graph.", "Sure!", "The claim is supported.", "(ENT1) is a band")

# Every reason parse_triplet_line gives, and the definition-subject check.
REASONS = (
    "expected 3 [SEP]-delimited fields, got 2",
    "expected 3 [SEP]-delimited fields, got 4",
    "more than one [PREP] token",
    "[PREP] must follow the object field",
    "empty subject field",
    "empty relation field",
    "empty object field",
    "empty prepositional phrase after [PREP]",
    "latent entity definition subject must be a single placeholder",
)
KINDS = (
    "malformed_line",
    "undefined_placeholder",
    "empty_section",
    "duplicate_placeholder",
    "orphan_latent_def",
    "skipped_text",
)


def placeholder(rng: random.Random, count: int) -> str:
    return f"(ENT{rng.randint(1, count)})"


def field(rng: random.Random, count: int) -> str:
    return placeholder(rng, count) if count and rng.random() < 0.4 else rng.choice(LITERALS)


def triplet_line(rng: random.Random, count: int, subject: str = "") -> str:
    line = f"{subject or field(rng, count)} [SEP] {rng.choice(RELATIONS)} [SEP] {field(rng, count)}"
    if rng.random() < 0.3:
        line += f" [PREP] {rng.choice(TAILS)}"
    return line


def malformed_line(rng: random.Random, count: int) -> str:
    a, b, c = field(rng, count), rng.choice(RELATIONS), field(rng, count)
    return rng.choice((
        f"{a} [SEP] {b}",
        f"{a} [SEP] {b} [SEP] {c} [SEP] {c}",
        f"{a} [SEP] {b} [SEP] {c} [PREP] x [PREP] y",
        f"{a} [PREP] x [SEP] {b} [SEP] {c}",
        f"{a} [SEP] {b} [PREP] x [SEP] {c}",
        f" [SEP] {b} [SEP] {c}",
        f"{a} [SEP]  [SEP] {c}",
        f"{a} [SEP] {b} [SEP] [PREP] x",
        f"{a} [SEP] {b} [SEP] {c} [PREP]  ",
        f"{rng.choice(LITERALS)} [SEP] {b} [SEP] {c}",
        f"(ENT1) and (ENT2) [SEP] {b} [SEP] {c}",
    ))


def skeleton(rng: random.Random) -> list:
    """A valid graph's lines: a few-shot example or 0-4 defined placeholders."""
    if rng.random() < 0.2:
        return rng.choice(FEW_SHOT_EXAMPLES)[1].split("\n")
    count = rng.randint(0, 4)
    lines = [LATENT_HEADER]
    for i in range(1, count + 1):
        lines.append(triplet_line(rng, count, subject=f"(ENT{i})"))
    lines.append(TRIPLES_HEADER)
    subjects = [f"(ENT{i})" for i in range(1, count + 1)] or [rng.choice(LITERALS)]
    for subject in subjects:
        lines.append(triplet_line(rng, count, subject=subject))
    return lines


def mutate(rng: random.Random, lines: list) -> None:
    """Apply one line mutation in place."""
    count = 4
    at = rng.randrange(len(lines) + 1)
    choice = rng.randrange(9)
    if choice == 0:
        lines.insert(at, malformed_line(rng, count))
    elif choice == 1:
        lines.insert(at, rng.choice(HEADERS))
    elif choice == 2 and len(lines) > 1:
        del lines[rng.randrange(len(lines))]
    elif choice == 3:
        lines.insert(0, rng.choice(PROSE))
    elif choice == 4:
        lines.extend([rng.choice(HEADERS[2:]), rng.choice(PROSE), triplet_line(rng, count)])
    elif choice == 5:
        lines.insert(at, rng.choice(("", "   ", "\t")))
    elif choice == 6 and lines:
        lines.insert(at, lines[rng.randrange(len(lines))])
    elif choice == 7 and lines:
        i = rng.randrange(len(lines))
        lines[i] = "  " + lines[i] + " "
    else:
        lines.insert(at, triplet_line(rng, count + 1))


def random_mix(rng: random.Random) -> list:
    lines = [LATENT_HEADER] if rng.random() < 0.7 else []
    for _ in range(rng.randint(0, 9)):
        kind = rng.random()
        if kind < 0.2:
            lines.append(rng.choice(HEADERS))
        elif kind < 0.6:
            lines.append(triplet_line(rng, 3))
        elif kind < 0.8:
            lines.append(malformed_line(rng, 3))
        elif kind < 0.9:
            lines.append(rng.choice(PROSE))
        else:
            lines.append("")
    return lines


def seeded_text(seed: int) -> str:
    rng = random.Random(seed)
    if seed % 2:
        return "\n".join(random_mix(rng))
    lines = skeleton(rng)
    for _ in range(rng.choice((0, 0, 1, 2))):
        mutate(rng, lines)
    return "\n".join(lines)


def outcome(text: str) -> list:
    graph, diagnostics = parse_graph(text)
    return [
        serialize_graph(graph) if graph is not None else None,
        [[d.severity, d.kind, d.line, d.message] for d in diagnostics],
    ]


def test_parse_graph_digest():
    outcomes = [outcome(seeded_text(seed)) for seed in SEEDS]
    parsed = sum(1 for graph, _ in outcomes if graph is not None)
    assert parsed >= 0.2 * len(outcomes)
    kinds = {kind for _, found in outcomes for _, kind, _, _ in found}
    assert kinds == set(KINDS)
    messages = {message for _, found in outcomes for _, _, _, message in found}
    assert set(REASONS) <= messages
    canonical = json.dumps(outcomes, ensure_ascii=False, sort_keys=True, separators=(",", ":"))
    assert (len(outcomes), hashlib.sha256(canonical.encode("utf-8")).hexdigest()) == (
        PARSE_TEXTS,
        PARSE_DIGEST,
    )
