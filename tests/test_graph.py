"""Parser, renderer, and round-trip tests for the claim-graph format."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphfc.graph import (
    MAX_LATENT_ENTITIES,
    ClaimGraph,
    PlaceholderId,
    Triplet,
    parse_graph,
    parse_triplet_line,
    placeholders_of,
    render_sentence,
    segments_surface,
    serialize_graph,
    split_segments,
)
from graphfc.prompts import FEW_SHOT_EXAMPLES

from conftest import MUSICIAN_GRAPH, examples

E1, E2 = PlaceholderId(1), PlaceholderId(2)


def must_parse(text: str) -> ClaimGraph:
    graph, diagnostics = parse_graph(text)
    errors = [d for d in diagnostics if d.severity == "error"]
    assert graph is not None, errors
    return graph


def error_kinds(text: str) -> set:
    graph, diagnostics = parse_graph(text)
    assert graph is None
    return {d.kind for d in diagnostics if d.severity == "error"}


class TestParseGraph:
    def test_musician_graph(self, musician_graph):
        assert len(musician_graph.latent_defs) == 2
        assert len(musician_graph.triples) == 3
        assert list(musician_graph.latent_defs) == [E1, E2]

    def test_zero_latent_graph(self):
        graph = must_parse(
            "# Latent Entities:\n"
            "# Triples:\n"
            "The fairy Queen Mab [SEP] originated with [SEP] William Shakespeare"
        )
        assert graph.latent_defs == {}
        assert len(graph.triples) == 1

    def test_two_field_line_is_malformed(self):
        assert error_kinds("# Latent Entities:\n# Triples:\nA [SEP] b") == {"malformed_line"}

    def test_four_field_line_is_malformed(self):
        text = "# Latent Entities:\n# Triples:\na [SEP] b [SEP] c [SEP] d"
        assert error_kinds(text) == {"malformed_line"}

    def test_prep_tail_is_parsed(self):
        graph = must_parse(
            "# Latent Entities:\n"
            "(ENT1) [SEP] is [SEP] a Dutch man\n"
            "# Triples:\n"
            "(ENT1) [SEP] was acquired in [SEP] the 1993-94 Inter Milan season "
            "[PREP] along with Dennis Bergkamp"
        )
        (triple,) = graph.triples
        assert triple.prep is not None
        assert segments_surface(triple.prep) == "along with Dennis Bergkamp"

    def test_double_prep_is_malformed(self):
        text = "# Latent Entities:\n# Triples:\na [SEP] b [SEP] c [PREP] d [PREP] e"
        assert error_kinds(text) == {"malformed_line"}

    def test_prep_before_object_is_malformed(self):
        text = "# Latent Entities:\n# Triples:\na [PREP] x [SEP] b [SEP] c"
        assert error_kinds(text) == {"malformed_line"}

    def test_undefined_placeholder(self):
        text = "# Latent Entities:\n# Triples:\n(ENT1) [SEP] visited [SEP] Oslo"
        assert error_kinds(text) == {"undefined_placeholder"}

    def test_duplicate_placeholder_definition(self):
        text = (
            "# Latent Entities:\n"
            "(ENT1) [SEP] is [SEP] a city\n"
            "(ENT1) [SEP] is [SEP] a town\n"
            "# Triples:\n"
            "(ENT1) [SEP] hosts [SEP] a festival"
        )
        assert error_kinds(text) == {"duplicate_placeholder"}

    @pytest.mark.parametrize("n", [MAX_LATENT_ENTITIES + 1, 30])
    def test_more_latents_than_the_maximum_is_an_error(self, n):
        text = (
            "# Latent Entities:\n"
            + "".join(f"(ENT{i}) [SEP] is [SEP] a city\n" for i in range(1, n + 1))
            + "# Triples:\n"
            + "\n".join(f"(ENT{i}) [SEP] hosts [SEP] a festival" for i in range(1, n + 1))
        )
        graph, diagnostics = parse_graph(text)
        assert graph is None
        assert [str(d) for d in diagnostics] == [
            f"line 22: [error] too_many_latents: {n} latent entities, more than 20"
        ]

    def test_empty_triples_section(self):
        assert error_kinds("# Latent Entities:\n# Triples:\n") == {"empty_section"}

    def test_missing_triples_header(self):
        text = "# Latent Entities:\n(ENT1) [SEP] is [SEP] a city"
        assert error_kinds(text) == {"empty_section"}

    def test_missing_latent_header(self):
        assert error_kinds("just some text") == {"empty_section"}

    def test_preamble_is_skipped_with_warning(self):
        graph, diagnostics = parse_graph(
            "Sure, here is the graph.\n" + MUSICIAN_GRAPH
        )
        assert graph is not None
        warnings = [d for d in diagnostics if d.severity == "warning"]
        assert [w.kind for w in warnings] == ["skipped_text"]
        assert warnings[0].line == 1

    def test_trailing_text_after_unknown_header_is_skipped(self):
        graph, diagnostics = parse_graph(
            MUSICIAN_GRAPH + "\n# Claim:\nSomething else entirely"
        )
        assert graph is not None
        assert len(graph.triples) == 3
        assert any(d.kind == "skipped_text" for d in diagnostics)

    def test_orphan_latent_def_warns_but_parses(self):
        graph, diagnostics = parse_graph(
            "# Latent Entities:\n"
            "(ENT1) [SEP] is [SEP] a city\n"
            "(ENT2) [SEP] is [SEP] a river\n"
            "# Triples:\n"
            "(ENT1) [SEP] lies on [SEP] the coast"
        )
        assert graph is not None
        assert [d.kind for d in diagnostics] == ["orphan_latent_def"]
        assert E2 in graph.latent_defs

    def test_undefined_placeholder_inside_definition(self):
        text = (
            "# Latent Entities:\n"
            "(ENT1) [SEP] is [SEP] a friend of (ENT2)\n"
            "# Triples:\n"
            "(ENT1) [SEP] visited [SEP] Oslo"
        )
        assert "undefined_placeholder" in error_kinds(text)

    def test_definition_subject_must_be_placeholder(self):
        text = (
            "# Latent Entities:\n"
            "a city [SEP] is [SEP] nice\n"
            "# Triples:\n"
            "x [SEP] y [SEP] z"
        )
        assert error_kinds(text) == {"malformed_line"}

    def test_loose_placeholder_forms_are_literal_text(self):
        graph = must_parse(
            "# Latent Entities:\n"
            "# Triples:\n"
            "(ent1) [SEP] met [SEP] (ENT 1)\n"
            "(ENT01) [SEP] met [SEP] (ENT0)"
        )
        for t in graph.triples:
            assert placeholders_of(t) == set()


class TestDiagnosticsInvariants:
    @pytest.mark.parametrize(
        "text",
        [
            "# Latent Entities:\n# Triples:\nA [SEP] b",
            "# Latent Entities:\n# Triples:\n(ENT9) [SEP] is [SEP] lost",
        ],
    )
    def test_hard_kinds_are_errors(self, text):
        _, diagnostics = parse_graph(text)
        for d in diagnostics:
            if d.kind in ("malformed_line", "undefined_placeholder"):
                assert d.severity == "error"


class TestPlaceholdersOf:
    def test_two_placeholders(self):
        t = parse_triplet_line("(ENT1) [SEP] is a percussionist for [SEP] (ENT2)")
        assert placeholders_of(t) == {E1, E2}

    def test_no_placeholders(self):
        t = parse_triplet_line(
            "The fairy Queen Mab [SEP] originated with [SEP] William Shakespeare"
        )
        assert placeholders_of(t) == set()

    def test_placeholder_in_prep(self):
        t = parse_triplet_line(
            "(ENT1) [SEP] manages [SEP] Cruyff Football [PREP] together with (ENT2)"
        )
        assert placeholders_of(t) == {E1, E2}


class TestRenderSentence:
    def test_bound_and_blank(self):
        t = parse_triplet_line("(ENT1) [SEP] is a percussionist for [SEP] (ENT2)")
        out = render_sentence(t, {E1: "Randall Nieman", E2: "<extra_id_0>"})
        assert out == "Randall Nieman is a percussionist for <extra_id_0>."

    def test_blank_subject(self):
        t = parse_triplet_line("(ENT2) [SEP] formed in [SEP] Issaquah, Washington")
        assert render_sentence(t, {E2: "<extra_id_0>"}) == "<extra_id_0> formed in Issaquah, Washington."

    def test_plain_join_with_period(self):
        t = parse_triplet_line(
            "The fairy Queen Mab [SEP] originated with [SEP] William Shakespeare"
        )
        assert render_sentence(t) == "The fairy Queen Mab originated with William Shakespeare."

    def test_existing_terminal_punctuation_is_kept(self):
        t = parse_triplet_line("She [SEP] asked [SEP] why?")
        assert render_sentence(t) == "She asked why?"

    def test_prep_is_appended(self):
        t = parse_triplet_line("a [SEP] b [SEP] c [PREP] d")
        assert render_sentence(t) == "a b c d."

    def test_unbound_placeholder_raises(self):
        t = parse_triplet_line("(ENT1) [SEP] visited [SEP] Oslo")
        with pytest.raises(ValueError):
            render_sentence(t, {})

    def test_custom_blank_token(self):
        t = parse_triplet_line("(ENT1) [SEP] visited [SEP] Oslo")
        assert render_sentence(t, {E1: "[MASK]"}) == "[MASK] visited Oslo."


class TestRoundTrip:
    @pytest.mark.parametrize("claim,graph_text", FEW_SHOT_EXAMPLES,
                             ids=[f"example{i}" for i in range(len(FEW_SHOT_EXAMPLES))])
    def test_few_shot_graphs_round_trip(self, claim, graph_text):
        graph = must_parse(graph_text)
        assert serialize_graph(graph).strip() == graph_text.strip()
        # Re-parsing the serialization reproduces the same structure.
        again = must_parse(serialize_graph(graph))
        assert again.latent_defs == graph.latent_defs
        assert again.triples == graph.triples

    def test_musician_graph_round_trip(self, musician_graph):
        assert serialize_graph(musician_graph) == MUSICIAN_GRAPH


# Literal words that can never be confused with headers or separator tokens.
_WORDS = st.sampled_from(
    ["alpha", "beta", "gamma", "delta", "harbor", "novel", "quartet", "survey"]
)


@st.composite
def field_text(draw, allow_placeholder=True):
    parts = draw(st.lists(_WORDS, min_size=1, max_size=3))
    text = " ".join(parts)
    if allow_placeholder and draw(st.booleans()):
        index = draw(st.integers(min_value=1, max_value=3))
        text = f"{text} (ENT{index})" if draw(st.booleans()) else f"(ENT{index}) {text}"
    return text


@st.composite
def graph_texts(draw):
    n = draw(st.integers(min_value=0, max_value=3))
    defs = [
        f"(ENT{i}) [SEP] is [SEP] " + draw(field_text(allow_placeholder=False))
        for i in range(1, n + 1)
    ]
    lines = []
    for i in range(1, n + 1):
        lines.append(f"(ENT{i}) [SEP] relates to [SEP] " + draw(field_text(False)))
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        line = (
            draw(field_text(False))
            + " [SEP] "
            + draw(field_text(False))
            + " [SEP] "
            + (f"(ENT{draw(st.integers(min_value=1, max_value=n))}" + ")" if n and draw(st.booleans()) else draw(field_text(False)))
        )
        if draw(st.booleans()):
            line += " [PREP] " + draw(field_text(False))
        lines.append(line)
    return "# Latent Entities:\n" + "".join(d + "\n" for d in defs) + "# Triples:\n" + "\n".join(lines)


class TestProperties:
    @given(st.text(max_size=300))
    @settings(max_examples=examples(150), deadline=None)
    def test_parse_is_total_and_exclusive(self, text):
        graph, diagnostics = parse_graph(text)
        has_error = any(d.severity == "error" for d in diagnostics)
        assert (graph is None) == has_error

    @given(graph_texts())
    @settings(max_examples=examples(100), deadline=None)
    def test_generated_graphs_round_trip(self, text):
        graph = must_parse(text)
        assert serialize_graph(graph).strip() == text.strip()
        for t in graph.triples:
            assert placeholders_of(t) <= set(graph.latent_defs)

    @given(graph_texts())
    @settings(max_examples=examples(50), deadline=None)
    def test_parse_is_deterministic(self, text):
        first = parse_graph(text)
        second = parse_graph(text)
        assert first == second

    @given(field_text(False), field_text(False), field_text(False))
    @settings(max_examples=examples(50), deadline=None)
    def test_render_is_identity_join_without_placeholders(self, a, b, c):
        t = Triplet(split_segments(a), split_segments(b), split_segments(c))
        rendered = render_sentence(t)
        position = 0
        for chunk in (a, b, c):
            found = rendered.find(chunk, position)
            assert found >= position
            position = found + len(chunk)
