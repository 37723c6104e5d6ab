"""Randomized scripted scenarios plus a brute-force verdict oracle.

A scenario is a random claim graph over a small corpus with two deterministic
answer functions: ``judge(sentence, evidence) -> bool`` for verification
prompts and a prompt-hash entity name for infilling prompts.  The oracle
recomputes the claim verdict by enumerating every path and every triplet
judgment with no short-circuiting anywhere.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from graphfc.backend import BackendSuite, ScriptedBackend
from graphfc.graph import ClaimGraph, parse_graph, parse_triplet_line, render_sentence
from graphfc.infill import PathBudget, enumerate_paths, infill_path
from graphfc.retrieval import Document, EvidenceBundle, Index, build_index, retrieve
from graphfc.verdict import Label, path_triplets

# Large enough that truncation never kicks in for these corpora.
NO_TRUNCATION = 10**9

_SUBJECTS = (
    "Alice Monroe", "the Harbor Bridge", "the Meridian Society", "Borealis Station",
    "the Copper Mill", "Eleanor Weiss", "the Juniper Quartet", "Halvard Point",
)
_RELATIONS = (
    "founded", "wrote about", "is located near", "collaborated with",
    "was named after", "restored",
)
_OBJECTS = (
    "the northern archive", "a winter festival", "the old tramway",
    "Selwyn College", "the tidal observatory", "a mapping expedition",
)
_REFERENCES = ("a painter", "a village", "a bridge", "a novel", "a society")


@dataclass
class Scenario:
    seed: int
    graph_text: str
    graph: ClaimGraph
    index: Index
    claim_text: str

    def judge(self, sentence: str, evidence: str) -> bool:
        digest = hashlib.sha1(
            f"{self.seed}|{sentence}|{evidence}".encode("utf-8")
        ).digest()
        return digest[0] % 2 == 0

    def infill_answer(self, prompt: str) -> str:
        digest = hashlib.sha1(f"{self.seed}|{prompt}".encode("utf-8")).hexdigest()
        return f"Entity {digest[:6]}"


def make_scenario(seed: int) -> Scenario:
    rng = random.Random(seed)
    n_latent = rng.randint(0, 3)
    placeholders = [f"(ENT{i})" for i in range(1, n_latent + 1)]
    refs = rng.sample(_REFERENCES, n_latent) if n_latent else []

    def_lines = [
        f"{p} [SEP] is [SEP] {ref}" for p, ref in zip(placeholders, refs)
    ]
    entities = placeholders + [rng.choice(_SUBJECTS)]
    triple_lines = []
    # Every placeholder appears in at least one fact triplet.
    for p in placeholders:
        other = rng.choice(entities)
        if rng.random() < 0.5 and other != p:
            triple_lines.append(f"{p} [SEP] {rng.choice(_RELATIONS)} [SEP] {other}")
        else:
            triple_lines.append(
                f"{p} [SEP] {rng.choice(_RELATIONS)} [SEP] {rng.choice(_OBJECTS)}"
            )
    for _ in range(rng.randint(1, 2)):
        subject = rng.choice(entities)
        obj = rng.choice(_OBJECTS)
        line = f"{subject} [SEP] {rng.choice(_RELATIONS)} [SEP] {obj}"
        if rng.random() < 0.25:
            line += " [PREP] during the spring survey"
        triple_lines.append(line)
    rng.shuffle(triple_lines)

    graph_text = (
        "# Latent Entities:\n"
        + "\n".join(def_lines)
        + ("\n" if def_lines else "")
        + "# Triples:\n"
        + "\n".join(triple_lines)
    )
    graph, diagnostics = parse_graph(graph_text)
    assert graph is not None, diagnostics

    docs = []
    for i, line in enumerate(def_lines + triple_lines):
        t = parse_triplet_line(line)
        surface = render_sentence(t, {
            p: ref for p, ref in zip(graph.latent_defs, refs)
        })
        docs.append(Document(f"s{i}", f"Note {i}", surface))
    docs.append(Document("misc", "Miscellany", "the archive festival tramway survey"))

    claim_text = f"Scenario {seed}: " + " ".join(triple_lines)[:120]
    return Scenario(seed, graph_text, graph, build_index(docs), claim_text)


def split_verify_prompt(prompt: str) -> Tuple[str, str]:
    """(sentence, evidence) from a rendered verification prompt."""
    body = prompt[len("Evidence: "):prompt.rindex("\nIs the claim true or false?")]
    evidence, sentence = body.rsplit("\nClaim: ", 1)
    return sentence, evidence


def scenario_suite(
    scenario: Scenario,
    judge: Optional[Callable[[str, str], bool]] = None,
    selector_answer: str = "no",
) -> BackendSuite:
    judge = judge or scenario.judge

    selection = ScriptedBackend(model="scenario-selector")
    selection.register_contains(
        "Does the evidence contain sufficient information", response=selector_answer
    )
    verification = ScriptedBackend(model="scenario-verifier")

    def answer_verify(prompt: str) -> str:
        sentence, evidence = split_verify_prompt(prompt)
        return "true" if judge(sentence, evidence) else "false"

    verification.register(lambda p: "Is the claim true or false?" in p, answer_verify)

    infilling = ScriptedBackend(model="scenario-infiller")
    infilling.register(
        lambda p: "fill in the blank with the correct entity" in p,
        scenario.infill_answer,
    )
    construction = ScriptedBackend(model="scenario-constructor")
    construction.register(lambda p: True, scenario.graph_text)
    return BackendSuite(construction, infilling, verification, selection)


def _oracle_texts(bundle: EvidenceBundle, strategy: str) -> List[str]:
    if strategy == "concat":
        return [bundle.concat]
    if strategy == "each":
        return list(bundle.texts)
    return [bundle.concat] + list(bundle.texts)


def oracle_verdict(
    scenario: Scenario,
    budget: PathBudget,
    k: int,
    strategy: str,
    judge: Optional[Callable[[str, str], bool]] = None,
    judged_pairs: Optional[list] = None,
) -> Label:
    """Brute-force claim verdict: all paths, all triplets, no short-circuits.

    ``judged_pairs`` (if given) collects every (sentence, evidence, verdict)
    triple the oracle examined.
    """
    judge = judge or scenario.judge
    suite = scenario_suite(scenario, judge)
    any_path_supported = False
    for path in enumerate_paths(scenario.graph, budget):
        outcome = infill_path(scenario.graph, path, scenario.index, suite, k)
        path_supported = True
        for t in path_triplets(scenario.graph, include_definitions=True):
            sentence = render_sentence(t, outcome.bindings)
            bundle = retrieve(scenario.index, sentence, k)
            if not bundle.docs:
                path_supported = False
                continue
            supported = False
            for evidence in _oracle_texts(bundle, strategy):
                verdict = judge(sentence, evidence)
                if judged_pairs is not None:
                    judged_pairs.append((sentence, evidence, verdict))
                supported = supported or verdict
            path_supported = path_supported and supported
        any_path_supported = any_path_supported or path_supported
    return Label.SUPPORTED if any_path_supported else Label.NOT_SUPPORTED
