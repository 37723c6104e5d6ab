"""Shared fixtures: the two-latent musician graph, its corpus, and scripted
backend suites for the band-claim scenario used across the suite."""

from __future__ import annotations

import pytest
from hypothesis import Phase, settings

from graphfc.backend import BackendSuite, ScriptedBackend
from graphfc.graph import parse_graph
from graphfc.retrieval import Document, build_index

# Hypothesis shrinks a failing example by rerunning the test on smaller
# ones, and a rerun here may build an index and run a reference scorer, so a
# broken search can shrink for ten minutes or more before it reports.  The
# suite's profiles leave shrinking out: a failure still fails, on the example
# as found.  ``pytest --hypothesis-profile=shrink`` puts it back, to debug
# one failure locally.  ``--hypothesis-profile=ci`` runs five times
# Hypothesis' default number of examples; tests that set their own count
# scale it to match through ``examples``.
_NO_SHRINK = [phase for phase in Phase if phase is not Phase.shrink]
settings.register_profile("default", phases=_NO_SHRINK)
settings.register_profile("ci", max_examples=5 * settings.get_profile("default").max_examples, phases=_NO_SHRINK)
settings.register_profile("shrink", phases=list(Phase))
settings.load_profile("default")


def examples(n):
    """``n`` Hypothesis examples, five times as many under the ``ci`` profile."""
    return n * settings.default.max_examples // settings.get_profile("default").max_examples


MUSICIAN_GRAPH = (
    "# Latent Entities:\n"
    "(ENT1) [SEP] is [SEP] a musician\n"
    "(ENT2) [SEP] is [SEP] a band\n"
    "# Triples:\n"
    "(ENT1) [SEP] is part of [SEP] Tall Birds\n"
    "(ENT1) [SEP] is a percussionist for [SEP] (ENT2)\n"
    "(ENT2) [SEP] formed in [SEP] Issaquah, Washington"
)

BAND_CLAIM = (
    "The musician, who is part of Tall Birds, is a percussionist for a band "
    "that formed in Issaquah, Washington."
)

# Infilling queries for both identification orders of the musician graph.
IQ_ENT1_FIRST = "<extra_id_0> is part of Tall Birds. <extra_id_0> is a musician."
IQ_ENT2_AFTER_WRONG = (
    "Randall Nieman is a percussionist for <extra_id_0>. "
    "<extra_id_0> formed in Issaquah, Washington. <extra_id_0> is a band."
)
IQ_ENT2_AFTER_RIGHT = (
    "Davey Brozowski is a percussionist for <extra_id_0>. "
    "<extra_id_0> formed in Issaquah, Washington. <extra_id_0> is a band."
)
IQ_ENT2_FIRST = "<extra_id_0> formed in Issaquah, Washington. <extra_id_0> is a band."
IQ_ENT1_AFTER = (
    "<extra_id_0> is part of Tall Birds. "
    "<extra_id_0> is a percussionist for Modest Mouse. <extra_id_0> is a musician."
)


@pytest.fixture(scope="session")
def musician_graph():
    graph, diagnostics = parse_graph(MUSICIAN_GRAPH)
    assert graph is not None and not diagnostics
    return graph


def band_corpus():
    return [
        Document(
            "tall-birds",
            "Tall Birds",
            "Tall Birds is an American rock band. Davey Brozowski is a musician "
            "and percussionist who is part of Tall Birds.",
        ),
        Document(
            "modest-mouse",
            "Modest Mouse",
            "Modest Mouse is a band that formed in Issaquah, Washington. "
            "Davey Brozowski played drums as a percussionist for Modest Mouse.",
        ),
        Document(
            "randall-nieman",
            "Randall Nieman",
            "Randall Nieman is a musician known for the band Fixtures.",
        ),
        Document("issaquah", "Issaquah", "Issaquah is a city in Washington state."),
    ]


@pytest.fixture(scope="session")
def band_index():
    return build_index(band_corpus())


# Verification answers for the rendered triplet sentences of the musician
# graph: the wrong-path bindings fail on the first sentence, the right-path
# bindings pass everywhere.
BAND_VERDICTS = {
    BAND_CLAIM: "true",
    "Randall Nieman is part of Tall Birds.": "false",
    "Davey Brozowski is part of Tall Birds.": "true",
    "Davey Brozowski is a percussionist for Modest Mouse.": "true",
    "Modest Mouse formed in Issaquah, Washington.": "true",
    "Davey Brozowski is a musician.": "true",
    "Modest Mouse is a band.": "true",
}


def band_suite(route: str = "graphcheck", correct_first_path: bool = False) -> BackendSuite:
    """Scripted backends reproducing the band-claim scenario.

    With ``route="direct"`` the selector answers yes; otherwise the claim is
    routed to the graph pipeline where the first identification order
    misidentifies the musician (unless ``correct_first_path``).
    """
    selection = ScriptedBackend(model="scripted-selector")
    selection.register_contains(
        "Does the evidence contain sufficient information",
        response="yes" if route == "direct" else "no",
    )

    infilling = ScriptedBackend(model="scripted-infiller")
    first_answer = "Davey Brozowski" if correct_first_path else "Randall Nieman"
    infilling.register_contains(IQ_ENT1_FIRST, response=first_answer)
    infilling.register_contains(IQ_ENT2_AFTER_WRONG, response="Modest Mouse")
    infilling.register_contains(IQ_ENT2_AFTER_RIGHT, response="Modest Mouse")
    infilling.register_contains(IQ_ENT2_FIRST, response="Modest Mouse")
    infilling.register_contains(IQ_ENT1_AFTER, response="Davey Brozowski")

    verification = ScriptedBackend(model="scripted-verifier")
    for sentence, answer in BAND_VERDICTS.items():
        verification.register_contains(
            "Is the claim true or false?", f"Claim: {sentence}\n", response=answer
        )

    construction = ScriptedBackend(model="scripted-constructor")
    construction.register_contains(f"# Claim:\n{BAND_CLAIM}", response=MUSICIAN_GRAPH)

    return BackendSuite(construction, infilling, verification, selection)
