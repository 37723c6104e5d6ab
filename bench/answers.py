"""Deterministic model answers, shared by the stub server, the scripted
backends and the oracle.

Each answer is a pure function of the prompt text (and, for the selector, of
the workload's Direct share), so every component that sees the same prompt
gives the same answer.  The four prompt kinds are told apart by the fixed
wording of graphfc's prompt templates.
"""

from __future__ import annotations

import hashlib
from typing import List

GRAPH_MARKER = "We are conducting fact-checking on multi-hop claims."
INFILL_MARKER = "\nBased on the above information, fill in the blank with the correct entity: "
VERIFY_MARKER = "\nIs the claim true or false?\nAnswer:"
SELECT_MARKER = "\nDoes the evidence contain sufficient information to support or refute the claim?"

# The verifier's knowledge: it refutes a sentence that states one of these
# relations and affirms any other, whatever the evidence.  Every relation
# reads "is <participle> in", so all fact sentences carry the same two
# stopwords and cost about the same to retrieve.
REFUTED_RELATIONS = ("is mentioned in", "is ranked in", "is buried in", "is printed in")
AFFIRMED_RELATIONS = (
    "is located in", "is based in", "is listed in", "is featured in",
    "is recorded in", "is named in", "is filmed in", "is taught in",
    "is held in", "is registered in", "is celebrated in", "is exhibited in",
)
# Chance that the infiller returns nothing, exercising the degraded binding.
INFILL_EMPTY_PER_MILLE = 50


def _hash(text: str) -> int:
    return int.from_bytes(hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "big")


def kind(prompt: str) -> str:
    if VERIFY_MARKER in prompt:
        return "verification"
    if SELECT_MARKER in prompt:
        return "selection"
    if INFILL_MARKER in prompt:
        return "infilling"
    if prompt.startswith(GRAPH_MARKER):
        return "graph_construction"
    raise ValueError(f"unrecognised prompt: {prompt[:80]!r}")


def verifies(sentence: str) -> bool:
    """The verifier's judgment of one sentence, whatever the evidence."""
    return not any(f" {relation} " in sentence for relation in REFUTED_RELATIONS)


def verify_answer(prompt: str) -> str:
    sentence = prompt[: prompt.rindex(VERIFY_MARKER)].rsplit("\nClaim: ", 1)[1]
    return "true" if verifies(sentence) else "false"


def select_claim(prompt: str) -> str:
    """The claim a selection prompt asks about."""
    body = prompt[: prompt.rindex(SELECT_MARKER)]
    return body.rsplit("\nClaim: ", 1)[1]


def routes_direct(claim: str, direct_per_mille: int) -> bool:
    return _hash("select|" + claim) % 1000 < direct_per_mille


def select_answer(prompt: str, direct_per_mille: int) -> str:
    return "yes" if routes_direct(select_claim(prompt), direct_per_mille) else "no"


def infill_choice(query: str, titles: List[str]) -> str:
    """The title of one of the top three evidence documents, or nothing,
    chosen by a hash of the infilling query."""
    h = _hash(query)
    if not titles or h % 1000 < INFILL_EMPTY_PER_MILLE:
        return ""
    return titles[(h // 1000) % min(3, len(titles))]


def infill_answer(prompt: str) -> str:
    """``infill_choice`` over the prompt's query and evidence titles.

    Evidence lines are ``title: text``; titles never contain ": ".
    """
    marker = prompt.index(INFILL_MARKER)
    context = prompt[:marker]
    query = prompt[marker + len(INFILL_MARKER):].rsplit("\nAnswer:", 1)[0]
    titles = [line.split(": ", 1)[0] for line in context.split("\n") if ": " in line]
    return infill_choice(query, titles)


def graph_answer(prompt: str) -> str:
    """A latent-free graph; unused when datasets carry pregenerated graphs."""
    claim = prompt.rsplit("# Claim:\n", 1)[1].strip()
    return f"# Latent Entities:\n# Triples:\n{claim} [SEP] is [SEP] stated"


def answer(prompt: str, direct_per_mille: int) -> str:
    purpose = kind(prompt)
    if purpose == "verification":
        return verify_answer(prompt)
    if purpose == "selection":
        return select_answer(prompt, direct_per_mille)
    if purpose == "infilling":
        return infill_answer(prompt)
    return graph_answer(prompt)
