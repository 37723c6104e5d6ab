"""Golden digest of query construction over seeded random graphs.

The graphs come from ``random.Random(seed)``, not Hypothesis, so the digest
is stable.  Their definitions, relations and ``[PREP]`` tails name other
placeholders (and sometimes the placeholder being defined), which is where
the rendering of a still-unbound placeholder decides the query text.  For
every target, every subset of the other placeholders bound and two blank
tokens, the digest covers ``reference_text``, ``build_retrieval_query`` and
``build_infill_query``; it also covers every step of ``infill_path`` along
the sampled paths, which includes the isolated-target fallback query.

A change that is meant to keep query construction keeps the digest.
"""

from __future__ import annotations

import hashlib
import itertools
import random

from graphfc.backend import BackendSuite, ScriptedBackend
from graphfc.graph import parse_graph
from graphfc.infill import (
    PathBudget,
    build_infill_query,
    build_retrieval_query,
    enumerate_paths,
    infill_path,
    reference_text,
)
from graphfc.retrieval import Document, build_index

SEEDS = range(300)
BLANK_TOKENS = ("<extra_id_0>", "[MASK]")

QUERY_DIGEST = "b35356e10a577306add6003ddced1335b0ba4f54d82aa9466997556b15d04830"
QUERY_CASES = 14544
PATH_DIGEST = "b865f8f5389bfbd70daa12498ebc1558afb6a5685aa9456db2a0f9eee3bd0253"
PATH_STEPS = 3840

NOUNS = ("musician", "band", "city", "river", "novel", "painter")
RELATIONS = ("is part of", "formed in", "wrote", "was born in", "plays for")
LITERALS = ("Tall Birds", "Issaquah, Washington", "Oslo", "Modest Mouse")
TAILS = ("in 1990", "together with", "during the tour of")


def random_graph(rng: random.Random):
    """A parseable graph of 1-4 latent entities whose fields name each other."""
    ids = [f"(ENT{i})" for i in range(1, rng.randint(1, 4) + 1)]

    def tail() -> str:
        if rng.random() < 0.35:
            return f" [PREP] {rng.choice(TAILS)} {rng.choice(ids + list(LITERALS))}"
        return ""

    lines = ["# Latent Entities:"]
    for p in ids:
        relation = "is" if rng.random() < 0.7 else f"is like {rng.choice(ids)}"
        obj = f"a {rng.choice(NOUNS)}"
        if rng.random() < 0.5:
            obj += f" of {rng.choice(ids)}"
        lines.append(f"{p} [SEP] {relation} [SEP] {obj}{tail()}")
    lines.append("# Triples:")
    for _ in range(rng.randint(1, 5)):
        subject = rng.choice(ids + [LITERALS[0]])
        relation = rng.choice(RELATIONS)
        if rng.random() < 0.2:
            relation += f" {rng.choice(ids)} and"
        obj = rng.choice(ids + list(LITERALS))
        if rng.random() < 0.1:
            obj += "?"
        lines.append(f"{subject} [SEP] {relation} [SEP] {obj}{tail()}")
    graph, diagnostics = parse_graph("\n".join(lines))
    assert graph is not None, diagnostics
    return graph


def _attempt(fn, *args) -> str:
    try:
        return fn(*args)
    except ValueError as exc:
        return f"error: {type(exc).__name__}"


def query_cases(graph):
    """(case, text) for every target, bound subset and blank token."""
    keys = sorted(graph.latent_defs)
    for target in keys:
        others = [p for p in keys if p != target]
        for size in range(len(others) + 1):
            for bound in itertools.combinations(others, size):
                bindings = {p: f"Name {p.index}" for p in bound}
                case = f"{target}|{','.join(str(p) for p in bound)}"
                yield f"{case}|reference", _attempt(reference_text, graph, target, bindings)
                yield f"{case}|retrieval", _attempt(build_retrieval_query, graph, target, bindings)
                for token in BLANK_TOKENS:
                    yield f"{case}|infill {token}", _attempt(
                        build_infill_query, graph, target, bindings, token
                    )


def _answer(prompt: str) -> str:
    """An answer fixed by the prompt: sometimes empty, sometimes naming a
    placeholder, so both the degraded and the sanitizing paths run."""
    choice = hashlib.sha256(prompt.encode("utf-8")).digest()[0] % 4
    return ("", "Davey Brozowski", "The (ENT1) of Oslo", "Modest Mouse\nextra")[choice]


def _index():
    words = NOUNS + RELATIONS + LITERALS + TAILS
    return build_index([
        Document(f"d{i}", f"Doc {i}", " ".join(words[j % len(words)] for j in range(i, i + 6)))
        for i in range(len(words))
    ])


def test_query_construction_matches_golden_digest():
    digest = hashlib.sha256()
    cases = 0
    for seed in SEEDS:
        graph = random_graph(random.Random(seed))
        for case, text in query_cases(graph):
            digest.update(f"{seed}|{case}\x00{text}\x01".encode("utf-8"))
            cases += 1
    assert (digest.hexdigest(), cases) == (QUERY_DIGEST, QUERY_CASES)


def test_infill_path_steps_match_golden_digest():
    index = _index()
    backend = ScriptedBackend().register(lambda p: True, _answer)
    digest = hashlib.sha256()
    steps = 0
    for seed in SEEDS:
        graph = random_graph(random.Random(seed))
        for path in enumerate_paths(graph, PathBudget(limit=3, seed=seed)):
            for token in BLANK_TOKENS:
                outcome = infill_path(
                    graph, path, index, BackendSuite.single(backend), 2, token
                )
                for step in outcome.per_entity:
                    digest.update(
                        f"{seed}|{path}|{token}|{step.target}\x00{step.retrieval_query}"
                        f"\x00{step.infill_query}\x00{step.answer}\x01".encode("utf-8")
                    )
                    steps += 1
    assert (digest.hexdigest(), steps) == (PATH_DIGEST, PATH_STEPS)
