"""Path enumeration and query-construction tests.

The expected retrieval/infilling query strings for the two-latent musician
graph are the published example pairs and must reproduce byte-for-byte.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphfc.backend import BackendSuite, ScriptedBackend
from graphfc.graph import MAX_LATENT_ENTITIES, PlaceholderId, parse_graph
from graphfc.infill import (
    Path,
    PathBudget,
    build_infill_query,
    build_retrieval_query,
    enumerate_paths,
    extract_answer,
    infill_path,
)

from conftest import (
    IQ_ENT1_AFTER,
    IQ_ENT1_FIRST,
    IQ_ENT2_AFTER_WRONG,
    IQ_ENT2_FIRST,
    band_suite,
    examples,
)

E1, E2, E3, E4 = (PlaceholderId(i) for i in range(1, 5))


def graph_with_n_latents(n: int):
    defs = "".join(f"(ENT{i}) [SEP] is [SEP] a thing {i}\n" for i in range(1, n + 1))
    triples = "\n".join(
        f"(ENT{i}) [SEP] relates to [SEP] topic {i}" for i in range(1, n + 1)
    ) or "alpha [SEP] concerns [SEP] beta"
    graph, diagnostics = parse_graph(f"# Latent Entities:\n{defs}# Triples:\n{triples}")
    assert graph is not None, diagnostics
    return graph


class TestEnumeratePaths:
    def test_two_latents_all_orders_lexicographic(self):
        paths = enumerate_paths(graph_with_n_latents(2), PathBudget(limit=5))
        assert [p.order for p in paths] == [(E1, E2), (E2, E1)]

    def test_zero_latents_single_empty_path(self):
        assert enumerate_paths(graph_with_n_latents(0), PathBudget(limit=5)) == [Path(())]

    def test_one_latent(self):
        paths = enumerate_paths(graph_with_n_latents(1), PathBudget(limit=5))
        assert [p.order for p in paths] == [(E1,)]

    def test_three_latents_sampled_to_limit(self):
        paths = enumerate_paths(graph_with_n_latents(3), PathBudget(limit=5, seed=7))
        orders = [p.order for p in paths]
        assert len(orders) == 5
        assert len(set(orders)) == 5
        for order in orders:
            assert sorted(order) == [E1, E2, E3]

    def test_three_latents_full_when_limit_allows(self):
        paths = enumerate_paths(graph_with_n_latents(3), PathBudget(limit=6))
        assert [p.order for p in paths] == list(itertools.permutations([E1, E2, E3]))

    def test_sampling_is_seed_stable(self):
        graph = graph_with_n_latents(4)
        for seed in range(20):
            budget = PathBudget(limit=5, seed=seed)
            first = enumerate_paths(graph, budget)
            second = enumerate_paths(graph, budget)
            assert first == second
            assert len({p.order for p in first}) == 5

    def test_different_seeds_can_differ(self):
        graph = graph_with_n_latents(4)
        outcomes = {
            tuple(p.order for p in enumerate_paths(graph, PathBudget(5, seed)))
            for seed in range(10)
        }
        assert len(outcomes) > 1

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            PathBudget(limit=0)

    @pytest.mark.parametrize("n", range(9))
    def test_equals_a_seeded_sample_of_all_permutations(self, n):
        # The definition the benchmark's oracle checks paths against; every
        # permutation, in lexicographic order, when n! fits the limit.
        graph = graph_with_n_latents(n)
        permutations = list(itertools.permutations(sorted(graph.latent_defs)))
        for limit in (1, 2, 5, 24, 100, math.factorial(n)):
            for seed in range(5):
                expected = permutations
                if len(permutations) > limit:
                    expected = random.Random(seed).sample(permutations, limit)
                orders = [p.order for p in enumerate_paths(graph, PathBudget(limit, seed))]
                assert orders == expected
                assert len(permutations) > limit or orders == sorted(orders)

    def test_the_most_latents_a_graph_may_have_are_sampled(self):
        graph = graph_with_n_latents(MAX_LATENT_ENTITIES)
        paths = enumerate_paths(graph, PathBudget(limit=5, seed=1))
        assert len({p.order for p in paths}) == 5
        assert all(sorted(p.order) == sorted(graph.latent_defs) for p in paths)

    @given(st.integers(min_value=0, max_value=8), st.integers(min_value=1, max_value=10),
           st.integers(min_value=0, max_value=999))
    @settings(max_examples=examples(60), deadline=None)
    def test_min_factorial_limit_distinct_permutations(self, n, limit, seed):
        graph = graph_with_n_latents(n)
        paths = enumerate_paths(graph, PathBudget(limit=limit, seed=seed))
        expected = min(math.factorial(n), limit) if n else 1
        assert len(paths) == expected
        orders = {p.order for p in paths}
        assert len(orders) == len(paths)
        for order in orders:
            assert sorted(order) == sorted(graph.latent_defs)


class TestQueryConstruction:
    def test_retrieval_query_first_target(self, musician_graph):
        assert (
            build_retrieval_query(musician_graph, E1, {})
            == "a musician is part of Tall Birds."
        )

    def test_infill_query_first_target(self, musician_graph):
        assert build_infill_query(musician_graph, E1, {}) == IQ_ENT1_FIRST

    def test_retrieval_query_second_target(self, musician_graph):
        query = build_retrieval_query(musician_graph, E2, {E1: "Randall Nieman"})
        assert query == (
            "Randall Nieman is a percussionist for a band. "
            "a band formed in Issaquah, Washington."
        )

    def test_infill_query_second_target(self, musician_graph):
        assert (
            build_infill_query(musician_graph, E2, {E1: "Randall Nieman"})
            == IQ_ENT2_AFTER_WRONG
        )

    def test_isolated_target_yields_empty_retrieval_query(self):
        graph, _ = parse_graph(
            "# Latent Entities:\n"
            "(ENT1) [SEP] is [SEP] a singer\n"
            "(ENT2) [SEP] is [SEP] a label\n"
            "# Triples:\n"
            "(ENT1) [SEP] signed with [SEP] (ENT2)"
        )
        assert build_retrieval_query(graph, E1, {}) == ""

    def test_infill_query_falls_back_to_definition(self):
        graph, _ = parse_graph(
            "# Latent Entities:\n"
            "(ENT1) [SEP] is [SEP] a singer\n"
            "(ENT2) [SEP] is [SEP] a label\n"
            "# Triples:\n"
            "(ENT1) [SEP] signed with [SEP] (ENT2)"
        )
        assert build_infill_query(graph, E1, {}) == "<extra_id_0> is a singer."

    def test_custom_blank_token(self, musician_graph):
        query = build_infill_query(musician_graph, E1, {}, blank_token="[MASK]")
        assert query == "[MASK] is part of Tall Birds. [MASK] is a musician."

    def test_queries_are_pure(self, musician_graph):
        bindings = {E1: "Randall Nieman"}
        for _ in range(3):
            assert build_retrieval_query(musician_graph, E2, bindings) == (
                build_retrieval_query(musician_graph, E2, bindings)
            )
        assert bindings == {E1: "Randall Nieman"}


class TestAnswerExtraction:
    def test_first_line_and_trim(self):
        assert extract_answer("  Modest Mouse \nextra", "<extra_id_0>") == "Modest Mouse"

    def test_sentinel_echo_is_stripped(self):
        assert extract_answer("<extra_id_0> Randall Nieman", "<extra_id_0>") == "Randall Nieman"

    def test_empty(self):
        assert extract_answer("   \n\n", "<extra_id_0>") == ""


class TestInfillPath:
    def test_right_order_binds_correct_entities(self, musician_graph, band_index):
        suite = band_suite()
        outcome = infill_path(musician_graph, Path((E2, E1)), band_index, suite, k=2)
        assert outcome.bindings == {E2: "Modest Mouse", E1: "Davey Brozowski"}
        assert [step.target for step in outcome.per_entity] == [E2, E1]
        assert outcome.per_entity[0].infill_query == IQ_ENT2_FIRST
        assert outcome.per_entity[1].infill_query == IQ_ENT1_AFTER
        assert not outcome.degraded

    def test_wrong_order_keeps_wrong_binding(self, musician_graph, band_index):
        suite = band_suite()
        outcome = infill_path(musician_graph, Path((E1, E2)), band_index, suite, k=2)
        assert outcome.bindings[E1] == "Randall Nieman"
        assert outcome.bindings[E2] == "Modest Mouse"

    def test_empty_path_makes_no_calls(self, band_index):
        graph = graph_with_n_latents(0)
        suite = band_suite()
        outcome = infill_path(graph, Path(()), band_index, suite, k=2)
        assert outcome.bindings == {}
        assert suite.infilling.call_count == 0

    def test_invalid_path_rejected(self, musician_graph, band_index):
        with pytest.raises(ValueError):
            infill_path(musician_graph, Path((E1,)), band_index, band_suite(), k=2)

    def test_empty_answer_degrades_to_reference(self, musician_graph, band_index):
        infilling = ScriptedBackend().register(lambda p: True, "")
        suite = band_suite()
        suite = BackendSuite(
            suite.graph_construction, infilling, suite.verification, suite.selection
        )
        outcome = infill_path(musician_graph, Path((E1, E2)), band_index, suite, k=2)
        assert outcome.bindings == {E1: "a musician", E2: "a band"}
        assert outcome.degraded == (E1, E2)

    def test_placeholder_surfaces_are_sanitized_from_answers(
        self, musician_graph, band_index
    ):
        infilling = ScriptedBackend().register(lambda p: True, "(ENT2) The Band (ENT2)")
        suite = band_suite()
        suite = BackendSuite(
            suite.graph_construction, infilling, suite.verification, suite.selection
        )
        outcome = infill_path(musician_graph, Path((E1, E2)), band_index, suite, k=2)
        assert outcome.bindings[E1] == "The Band"

    def test_evidence_recorded_per_step(self, musician_graph, band_index):
        outcome = infill_path(musician_graph, Path((E2, E1)), band_index, band_suite(), k=2)
        for step in outcome.per_entity:
            assert len(step.evidence) >= 1

    def test_orphan_definition_is_still_infilled(self, band_index):
        # A placeholder defined but never used in the fact triplets is part of
        # every path; its retrieval query falls back to the definitional
        # sentence.
        graph, diagnostics = parse_graph(
            "# Latent Entities:\n"
            "(ENT1) [SEP] is [SEP] a musician\n"
            "(ENT2) [SEP] is [SEP] a band\n"
            "# Triples:\n"
            "(ENT1) [SEP] is part of [SEP] Tall Birds"
        )
        assert graph is not None
        assert any(d.kind == "orphan_latent_def" for d in diagnostics)
        paths = enumerate_paths(graph, PathBudget(limit=5))
        assert all(sorted(p.order) == [E1, E2] for p in paths)
        infilling = ScriptedBackend()
        infilling.register_contains("is part of Tall Birds", response="Davey Brozowski")
        infilling.register_contains("<extra_id_0> is a band.", response="Modest Mouse")
        suite = BackendSuite(infilling, infilling, infilling, infilling)
        outcome = infill_path(graph, paths[0], band_index, suite, k=2)
        assert outcome.bindings[E2] == "Modest Mouse"
        orphan_step = next(s for s in outcome.per_entity if s.target == E2)
        assert orphan_step.retrieval_query == "a band is a band."


_literals = st.sampled_from(["harbor", "quartet", "ledger", "tramway", "meridian"])


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    defs = "".join(
        f"(ENT{i}) [SEP] is [SEP] a kind {i}\n" for i in range(1, n + 1)
    )
    lines = []
    for i in range(1, n + 1):
        lines.append(f"(ENT{i}) [SEP] touches [SEP] {draw(_literals)}")
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        a = draw(st.integers(min_value=1, max_value=n))
        b = draw(st.integers(min_value=1, max_value=n))
        lines.append(f"(ENT{a}) [SEP] links to [SEP] (ENT{b})" if a != b
                     else f"(ENT{a}) [SEP] links to [SEP] {draw(_literals)}")
    graph, diagnostics = parse_graph(
        "# Latent Entities:\n" + defs + "# Triples:\n" + "\n".join(lines)
    )
    assert graph is not None, diagnostics
    return graph


class TestQueryProperties:
    @given(random_graphs(), st.integers(min_value=1, max_value=3), st.booleans())
    @settings(max_examples=examples(80), deadline=None)
    def test_unbound_others_are_excluded(self, graph, target_index, bind_one):
        keys = sorted(graph.latent_defs)
        target = keys[(target_index - 1) % len(keys)]
        bindings = {}
        if bind_one:
            for key in keys:
                if key != target:
                    bindings[key] = "Bound Entity"
                    break
        unbound = [k for k in keys if k != target and k not in bindings]
        retrieval = build_retrieval_query(graph, target, bindings)
        infill = build_infill_query(graph, target, bindings)
        for p in unbound:
            assert p.surface not in retrieval
            assert p.surface not in infill
        # The definitional sentence is always present and last.
        definition = f"<extra_id_0> is a kind {target.index}."
        assert infill.endswith(definition)

    @given(random_graphs())
    @settings(max_examples=examples(40), deadline=None)
    def test_bindings_cover_path(self, graph):
        from graphfc.retrieval import Document, build_index

        index = build_index([Document("d", "Doc", "harbor quartet ledger tramway meridian kind")])
        infilling = ScriptedBackend().register(lambda p: True, "Some Entity")
        suite = BackendSuite(infilling, infilling, infilling, infilling)
        for path in enumerate_paths(graph, PathBudget(limit=2, seed=1)):
            outcome = infill_path(graph, path, index, suite, k=1)
            assert set(outcome.bindings) == set(path.order)
