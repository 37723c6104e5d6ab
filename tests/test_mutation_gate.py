"""Tests of the mutation gate in ``tests/mutation_gate.py``."""

from __future__ import annotations

import os

import pytest

import mutation_gate
from mutation_gate import EQUIVALENT, MUTANTS, Mutant, gate, mutated

_QUICK_TESTS = ("tests/test_retrieval.py::TestTokenize",)


def test_a_mutant_that_changes_nothing_survives():
    unchanged = Mutant("unchanged", mutation_gate.RETRIEVAL, "_PRUNE_SLACK = 1.0 + 1e-9", "_PRUNE_SLACK = 1.0 + 1e-9",
                       _QUICK_TESTS, seconds=120)
    assert gate([unchanged]) == [(unchanged, "survived")]


def test_a_mutant_that_breaks_the_tests_is_killed():
    broken = Mutant("lowercase-dropped", mutation_gate.RETRIEVAL, "_TOKEN_RE.findall(text.lower())",
                    "_TOKEN_RE.findall(text)", _QUICK_TESTS, seconds=120)
    assert gate([broken]) == [(broken, "killed")]


def test_a_text_that_does_not_occur_is_an_error():
    gone = Mutant("gone", mutation_gate.RETRIEVAL, "no such text", "x", _QUICK_TESTS)
    with pytest.raises(ValueError, match="gone: its text occurs 0 times"):
        gate([gone])


def test_every_recorded_text_occurs_once():
    mutants = MUTANTS + [mutant for mutant, _ in EQUIVALENT]
    assert len({mutant.name for mutant in mutants}) == len(mutants)
    for mutant in mutants:
        assert mutated(mutant, os.path.join(mutation_gate.ROOT, "src")) != mutant.text
