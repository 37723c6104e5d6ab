"""BM25 index, search, and gold-merge tests.

Expected scores were hand-evaluated from the closed-form Okapi formula
(k1=1.2, b=0.75, IDF = ln(1 + (N - df + 0.5)/(df + 0.5))) on the tiny corpus
below, independently of the index implementation, and frozen here.
"""

from __future__ import annotations

import collections
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import threading
import zlib
from array import array
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphfc import retrieval
from graphfc.retrieval import (
    CorpusError,
    Document,
    bm25_term_score,
    build_index,
    load_index,
    merge_gold,
    read_jsonl,
    read_corpus,
    retrieve,
    save_index,
    search,
    tokenize,
)

from conftest import examples


# Index text is "title + ' ' + text":
#   d1 -> "alpha x x y"   (4 tokens)
#   d2 -> "beta x z z z"  (5 tokens)
#   d3 -> "gamma y y q"   (4 tokens)
TINY = [
    Document("d1", "alpha", "x x y"),
    Document("d2", "beta", "x z z z"),
    Document("d3", "gamma", "y y q"),
]

# Hand-evaluated closed-form values (see module docstring).
SCORE_X_D1 = 0.660545641102115
SCORE_X_D2 = 0.4421744669877645
SCORE_Q_D3 = 1.0126973514850315
SCORE_Y_D1 = 0.48527450528621086
SCORE_Y_D3 = 0.660545641102115


@pytest.fixture()
def tiny_index():
    return build_index(TINY)


def closed_form(tf, df, doc_len, n_docs=3, avgdl=13 / 3, k1=1.2, b=0.75):
    idf = math.log(1 + (n_docs - df + 0.5) / (df + 0.5))
    return idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * doc_len / avgdl))


def impact_ordered(index, term):
    """``term``'s postings as an ordinal -> weight dict in impact order: its
    stored ordinals, each with its weight read from ``index.postings``,
    whichever form that keeps the weights in."""
    weights = index.postings(term)
    number = index.terms[term]
    return {o: weights[o] for o in index.ordinals[index.bounds[number]:index.bounds[number + 1]]}


class TestTokenize:
    def test_punctuation_split(self):
        assert tokenize("Issaquah, Washington") == ["issaquah", "washington"]

    def test_lowercases(self):
        assert tokenize("Tall Birds") == ["tall", "birds"]

    def test_empty(self):
        assert tokenize("") == []

    def test_unicode_and_digits(self):
        assert tokenize("Café au lait, 1993-94!") == ["café", "au", "lait", "1993", "94"]

    def test_underscore_splits(self):
        assert tokenize("extra_id_0") == ["extra", "id", "0"]


class TestBuildIndex:
    def test_counts_and_average(self, tiny_index):
        assert tiny_index.doc_count == 3
        assert tiny_index.avg_doc_length == (4 + 5 + 4) / 3

    def test_duplicate_id_errors(self):
        docs = [Document("d1", "a", "x"), Document("d1", "b", "y")]
        with pytest.raises(CorpusError, match="d1"):
            build_index(docs)

    def test_empty_corpus_errors(self):
        with pytest.raises(CorpusError):
            build_index([])

    def test_corpus_without_a_token_errors(self):
        # The average document length would be 0, and every norm divides by it.
        with pytest.raises(CorpusError, match="no document holds a token"):
            build_index([Document("a", "", "!!"), Document("b", "", "")])

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            build_index(TINY, k1=0)
        with pytest.raises(ValueError):
            build_index(TINY, b=1.5)

    def test_title_is_indexed(self):
        # Hand count: "shakespeare" appears once in the Queen Mab sentence.
        # The documents hold 10 and 9 tokens, titles included: 9.5 on average.
        docs = [
            Document("mab", "Queen Mab", "The fairy Queen Mab originated with William Shakespeare."),
            Document("geragos", "Mark Geragos", "Mark Geragos was involved in the scandal."),
        ]
        index = build_index(docs)
        assert impact_ordered(index, "shakespeare") == {0: bm25_term_score(1, 1, 2, 10, 9.5)}
        # once in title, once in text
        assert impact_ordered(index, "mab") == {0: bm25_term_score(2, 1, 2, 10, 9.5)}


class TestSearch:
    def test_single_doc_match_closed_form(self, tiny_index):
        bundle = search(tiny_index, "q", k=10)
        assert bundle.doc_ids == ("d3",)
        score = bundle.docs[0][1]
        assert score == pytest.approx(SCORE_Q_D3, abs=1e-6)
        assert score == pytest.approx(closed_form(tf=1, df=1, doc_len=4), abs=1e-12)

    def test_multi_doc_scores_and_order(self, tiny_index):
        bundle = search(tiny_index, "x", k=10)
        assert bundle.doc_ids == ("d1", "d2")
        assert bundle.docs[0][1] == pytest.approx(SCORE_X_D1, abs=1e-6)
        assert bundle.docs[1][1] == pytest.approx(SCORE_X_D2, abs=1e-6)

    def test_query_term_occurrences_accumulate(self, tiny_index):
        once = search(tiny_index, "x", k=10).docs[0][1]
        twice = search(tiny_index, "x x", k=10).docs[0][1]
        assert twice == pytest.approx(2 * once, abs=1e-9)

    def test_multi_term_sum(self, tiny_index):
        bundle = search(tiny_index, "x y", k=10)
        by_id = {doc.doc_id: score for doc, score in bundle.docs}
        assert by_id["d1"] == pytest.approx(SCORE_X_D1 + SCORE_Y_D1, abs=1e-6)
        assert by_id["d3"] == pytest.approx(SCORE_Y_D3, abs=1e-6)

    def test_no_match_yields_empty_bundle(self, tiny_index):
        bundle = search(tiny_index, "zebra", k=10)
        assert len(bundle) == 0 and bundle.concat == ""

    def test_empty_query_yields_empty_bundle(self, tiny_index):
        assert len(search(tiny_index, "  ,;! ", k=3)) == 0

    def test_k_larger_than_matches(self, tiny_index):
        assert search(tiny_index, "q", k=50).doc_ids == ("d3",)

    def test_k_truncates(self, tiny_index):
        assert search(tiny_index, "x", k=1).doc_ids == ("d1",)

    def test_tie_break_by_doc_id(self):
        docs = [
            Document("zz", "a", "t t"),
            Document("aa", "b", "t t"),
        ]
        index = build_index(docs)
        assert search(index, "t", k=2).doc_ids == ("aa", "zz")

    def test_deterministic(self, tiny_index):
        first = search(tiny_index, "x y q", k=3)
        second = search(tiny_index, "x y q", k=3)
        assert first == second

    def test_concat_joins_display_texts(self, tiny_index):
        bundle = search(tiny_index, "x", k=2)
        assert bundle.concat == "alpha: x x y\nbeta: x z z z"

    def test_invalid_k(self, tiny_index):
        with pytest.raises(ValueError):
            search(tiny_index, "x", k=0)


class TestMergeGold:
    def make(self, n):
        return [Document(f"g{i}", f"G{i}", f"gold {i}") for i in range(n)]

    def test_union_then_truncate(self, tiny_index):
        retrieved = search(tiny_index, "x y", k=4)  # d1, d3 (+d2 via x)
        gold = [TINY[0], Document("g1", "G1", "gold")]
        merged = merge_gold(retrieved, gold, k=4)
        assert merged.doc_ids[:2] == ("d1", "g1")
        assert set(merged.doc_ids) >= {"d1", "g1"}
        assert len(merged) <= 4

    def test_example_enumeration(self):
        from graphfc.retrieval import _bundle

        g1, g2 = Document("g1", "G1", "a"), Document("g2", "G2", "b")
        r1, r2, r3 = (Document(f"r{i}", f"R{i}", "c") for i in range(1, 4))
        retrieved_docs = ((g1, 3.0), (r1, 2.0), (r2, 1.0), (r3, 0.5))
        merged = merge_gold(_bundle(retrieved_docs), [g1, g2], k=4)
        assert merged.doc_ids == ("g1", "g2", "r1", "r2")
        assert merged.docs[0][1] == float("inf")

    def test_no_gold_is_identity(self, tiny_index):
        retrieved = search(tiny_index, "x", k=10)
        assert merge_gold(retrieved, [], k=10) == retrieved

    def test_gold_saturation(self, tiny_index):
        retrieved = search(tiny_index, "x", k=2)
        gold = self.make(2)
        merged = merge_gold(retrieved, gold, k=2)
        assert merged.doc_ids == ("g0", "g1")

    def test_oversized_gold_errors(self, tiny_index):
        with pytest.raises(ValueError):
            merge_gold(search(tiny_index, "x", k=2), self.make(3), k=2)

    def test_repeated_gold_id_counts_once(self, tiny_index):
        gold = self.make(1)
        merged = merge_gold(search(tiny_index, "x", k=2), gold * 3, k=2)
        assert merged.doc_ids[0] == "g0"
        assert merged.doc_ids.count("g0") == 1
        assert len(merged) == 2

    @given(st.integers(min_value=0, max_value=5))
    @settings(max_examples=examples(20), deadline=None)
    def test_every_gold_id_exactly_once(self, n_gold):
        index = build_index(TINY)
        retrieved = search(index, "x y q", k=5)
        gold = self.make(n_gold)
        merged = merge_gold(retrieved, gold, k=5)
        ids = list(merged.doc_ids)
        for doc in gold:
            assert ids.count(doc.doc_id) == 1
        assert len(merged) <= 5

    def test_retrieve_helper_merges(self, tiny_index):
        gold = [TINY[2]]
        bundle = retrieve(tiny_index, "x", k=3, gold_docs=gold)
        assert bundle.doc_ids[0] == "d3"
        assert retrieve(tiny_index, "x", k=3).doc_ids == ("d1", "d2")


class TestProperties:
    def test_postings_isolation(self):
        # Hand counts: each term's (ordinals, tfs), and the document lengths.
        counted = {"x": ([0, 1], [2, 1]), "y": ([0, 2], [1, 2]), "q": ([2], [1])}
        lengths = [4, 5, 4, 4]
        for docs in (TINY, TINY + [Document("d4", "noise", "unrelated words here")]):
            index = build_index(docs)
            n = len(docs)
            avg = sum(lengths[:n]) / n
            for term, (ordinals, tfs) in counted.items():
                weights = [
                    bm25_term_score(tf, len(ordinals), n, lengths[o], avg)
                    for o, tf in zip(ordinals, tfs)
                ]
                assert impact_ordered(index, term) == dict(zip(ordinals, weights))

    @given(st.integers(min_value=1, max_value=50))
    @settings(max_examples=examples(30), deadline=None)
    def test_score_monotone_in_tf(self, tf):
        low = bm25_term_score(tf, doc_freq=2, doc_count=10, doc_len=20, avg_doc_len=15.0)
        high = bm25_term_score(tf + 1, doc_freq=2, doc_count=10, doc_len=20, avg_doc_len=15.0)
        assert high >= low


def brute_force_search(index, query, k):
    """Reference scorer: bm25_term_score summed per matching document, full
    sort.  Term frequencies, document frequencies and document lengths are
    counted from ``index.documents``, not read from the index."""
    tfs = [collections.Counter(tokenize(doc.title + " " + doc.text)) for doc in index.documents]
    lengths = [sum(counts.values()) for counts in tfs]
    avg_doc_length = sum(lengths) / len(lengths)
    scores = {}
    for term in tokenize(query):
        ordinals = [o for o, counts in enumerate(tfs) if term in counts]
        for ordinal in ordinals:
            contribution = bm25_term_score(
                tfs[ordinal][term], len(ordinals), len(tfs), lengths[ordinal],
                avg_doc_length, index.k1, index.b,
            )
            scores[ordinal] = scores.get(ordinal, 0.0) + contribution
    ranked = sorted(scores.items(), key=lambda item: (-item[1], index.documents[item[0]].doc_id))
    return [(index.documents[o].doc_id, s) for o, s in ranked[:k]]


def round_trip(index):
    """``index`` saved to a file and loaded back."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "index")
        save_index(index, path)
        return load_index(path)


def built_and_loaded(docs):
    """The index of ``docs`` as built, and after a round trip through a file."""
    index = build_index(docs)
    return index, round_trip(index)


_WORDS = st.sampled_from(["a", "b", "c", "d", "e", "f"])
_TEXTS = st.lists(_WORDS, min_size=1, max_size=8).map(" ".join)


@st.composite
def corpora(draw):
    """Small corpora over a six-word vocabulary, with verbatim duplicates so
    that distinct documents score exactly alike."""
    texts = draw(st.lists(_TEXTS, min_size=1, max_size=12))
    texts += draw(st.lists(st.sampled_from(texts), max_size=4))
    ids = draw(st.permutations([f"doc{i:02d}" for i in range(len(texts))]))
    return [Document(doc_id, "", text) for doc_id, text in zip(ids, texts)]


class TestSearchMatchesReference:
    @given(corpora(), st.lists(_WORDS, min_size=1, max_size=6).map(" ".join),
           st.integers(min_value=1, max_value=20))
    @settings(max_examples=examples(200), deadline=None)
    def test_same_ranking_and_bit_equal_scores(self, docs, query, k):
        for index in built_and_loaded(docs):
            got = [(doc.doc_id, score) for doc, score in search(index, query, k).docs]
            assert got == brute_force_search(index, query, k)


_RARE = st.sampled_from(["zeta", "eta", "theta"])
_FREQUENT = st.sampled_from(["the", "of", "and"])


@st.composite
def skewed_corpora(draw):
    """Frequent words in most documents, rare words in about one in five, and
    verbatim duplicates, so that rare terms often cover fewer than k
    documents, the k-th score is often an exact tie, and pruning fires."""
    texts = []
    for _ in range(draw(st.integers(min_value=1, max_value=24))):
        words = ["filler"] + draw(st.lists(_FREQUENT, max_size=6))
        if draw(st.integers(min_value=0, max_value=4)) == 0:
            words += draw(st.lists(_RARE, min_size=1, max_size=2))
        texts.append(" ".join(words))
    texts += draw(st.lists(st.sampled_from(texts), max_size=4))
    ids = draw(st.permutations([f"doc{i:02d}" for i in range(len(texts))]))
    return [Document(doc_id, "", text) for doc_id, text in zip(ids, texts)]


@st.composite
def long_list_corpora(draw):
    """Corpora of 20-80 documents whose frequent words' posting lists span
    several chunks at the default first-chunk size, with rare words in a few
    documents and verbatim duplicates."""
    texts = []
    for _ in range(draw(st.integers(min_value=20, max_value=80))):
        words = ["filler"] + draw(st.lists(_FREQUENT, min_size=1, max_size=5))
        if draw(st.integers(min_value=0, max_value=9)) == 0:
            words += draw(st.lists(_RARE, min_size=1, max_size=2))
        texts.append(" ".join(words))
    texts += draw(st.lists(st.sampled_from(texts), max_size=6))
    ids = draw(st.permutations([f"doc{i:03d}" for i in range(len(texts))]))
    return [Document(doc_id, "", text) for doc_id, text in zip(ids, texts)]


# A first chunk of 1 checks whether search may stop after every posting of
# a term's first chunks, the most often it can; at the default it checks
# less often and, on corpora this small, often walks every list.
_FIRST_CHUNKS = pytest.mark.parametrize("first_chunk", [1, 2, retrieval._FIRST_CHUNK])
_QUERIES = st.lists(st.one_of(_RARE, _FREQUENT, st.just("filler")), min_size=1, max_size=8).map(" ".join)


def _mixed_forms_corpus():
    """80 documents: "the" in all, "of" in 40, "iota" in 11, "kappa" in 10,
    "zeta" in 4 and "eta" in 1, at varied term frequencies and lengths."""
    docs = []
    for i in range(80):
        words = ["the"] * (1 + i % 3) + ["of"] * (i % 2 == 0) + ["pad"] * (i % 11)
        words += ["iota"] * (i % 7 == 3 and i < 77) + ["kappa"] * (1 + i % 2) * (i % 8 == 5)
        words += ["zeta"] * (i in (2, 9, 40, 41)) * (1 + i % 2) + ["eta"] * (i == 50)
        docs.append(Document(f"m{i:02d}", "", " ".join(words)))
    return docs


class SliceCounter:
    """Stands in for ``Index.ordinals`` and counts the postings that slices
    of it hold: the postings ``search`` walks."""

    def __init__(self, ordinals):
        self.ordinals = ordinals
        self.read = 0

    def __getitem__(self, key):
        got = self.ordinals[key]
        if isinstance(key, slice):
            self.read += len(got)
        return got


def pruned_search(index, query, k, first_chunk):
    with mock.patch.object(retrieval, "_FIRST_CHUNK", first_chunk):
        return [(doc.doc_id, score) for doc, score in search(index, query, k).docs]


class TestPrunedSearchMatchesReference:
    @_FIRST_CHUNKS
    @given(skewed_corpora(), st.lists(st.one_of(_RARE, _FREQUENT), min_size=1, max_size=8).map(" ".join),
           st.integers(min_value=1, max_value=5))
    @settings(max_examples=examples(150), deadline=None)
    def test_same_ranking_and_bit_equal_scores(self, first_chunk, docs, query, k):
        for index in built_and_loaded(docs):
            assert pruned_search(index, query, k, first_chunk) == brute_force_search(index, query, k)

    @_FIRST_CHUNKS
    @given(long_list_corpora(), _QUERIES, st.data())
    @settings(max_examples=examples(25), deadline=None)
    def test_lists_longer_than_a_chunk_and_k_up_to_the_corpus(self, first_chunk, docs, query, data):
        k = data.draw(st.integers(min_value=1, max_value=len(docs)), label="k")
        index = build_index(docs)
        assert pruned_search(index, query, k, first_chunk) == brute_force_search(index, query, k)

    @_FIRST_CHUNKS
    def test_rare_terms_in_fewer_than_k_documents(self, first_chunk):
        # "zeta" is in 3 documents; the rest of the top k comes from the
        # frequent words' lists, whose heads hold the short documents.
        docs = [Document("z1", "", "zeta the of"), Document("z2", "", "zeta and"),
                Document("z3", "", "zeta zeta the")]
        docs += [
            Document(f"f{i:02d}", "", " ".join(["the", "of", "and", "filler"][: 1 + i % 4] + ["pad"] * (i % 7)))
            for i in range(60)
        ]
        for index in built_and_loaded(docs):
            for query in ("zeta the zeta", "zeta of the and", "the zeta"):
                for k in (1, 3, 4, 10, 30, 63, 100):
                    got = pruned_search(index, query, k, first_chunk)
                    assert got == brute_force_search(index, query, k)

    def test_top_k_filled_from_the_heads_of_stopword_lists(self):
        # "zeta" is in 3 documents, so 7 of the top 10 hold only "is" and
        # "in": the shortest documents, at the heads of those lists.  The
        # search rescores them exactly and stops; it does not walk the tails.
        docs = [Document(f"z{i}", "", "zeta is mentioned in zeta") for i in range(3)]
        docs += [
            Document(f"d{i:03d}", "", " ".join(["is", "in"] + ["pad"] * (i % 13) + ["mentioned"] * (i % 10 == 0)))
            for i in range(300)
        ]
        index = build_index(docs)
        for query in ("zeta is in", "zeta is mentioned in zeta."):
            search(index, query, 10)  # each term's first use reads its whole list
            walked = SliceCounter(index.ordinals)
            with mock.patch.object(index, "ordinals", walked):
                got = [(doc.doc_id, score) for doc, score in search(index, query, 10).docs]
            assert got == brute_force_search(index, query, 10)
            # "is" and "in" hold 303 postings each
            assert walked.read < 303 / 4

    @_FIRST_CHUNKS
    def test_rows_and_dicts_in_one_query(self, first_chunk):
        # "the", "of" and "iota" are held as rows, "kappa", "zeta" and "eta"
        # as dicts, and the query repeats "the" and "zeta".
        docs = _mixed_forms_corpus()
        query = "zeta the kappa of eta the iota zeta"
        for index in built_and_loaded(docs):
            assert {type(index.postings(term)) for term in ("the", "of", "iota")} == {list}
            assert {type(index.postings(term)) for term in ("kappa", "zeta", "eta")} == {dict}
            for k in (1, 10, len(docs)):
                assert pruned_search(index, query, k, first_chunk) == brute_force_search(index, query, k)

    def test_a_term_in_more_than_an_eighth_of_the_documents_is_a_row(self):
        # 80 documents: "iota" is in 11 of them, "kappa" in 10, one eighth.
        index = build_index(_mixed_forms_corpus())
        assert index.doc_count == 80
        the = index.postings("the")  # in every document
        assert type(the) is list and len(the) == index.doc_count and 0.0 not in the
        iota = index.postings("iota")
        assert type(iota) is list and len(iota) == index.doc_count
        assert sum(weight > 0.0 for weight in iota) == 11
        assert type(index.postings("kappa")) is dict and len(index.postings("kappa")) == 10
        assert type(index.postings("eta")) is dict and len(index.postings("eta")) == 1  # in one document

    @_FIRST_CHUNKS
    def test_every_walked_document_is_scored_once_the_top_k_is_full(self, first_chunk):
        # "a" heads the list of "x", the term walked first, and fills the top
        # 1 at once.  "b", next in that list, weighs less on "x" but more in
        # all: a rule that stopped scoring walked documents once the top k is
        # full, without a bound on what they could still score, returns "a".
        docs = [Document("a", "", "x"), Document("b", "", "x y")]
        docs += [Document(f"p{i}", "", "y pad pad") for i in range(4)]
        for index in built_and_loaded(docs):
            x_a, x_b = impact_ordered(index, "x")[0], impact_ordered(index, "x")[1]
            assert x_a > x_b and x_a > max(impact_ordered(index, "y").values())
            got = pruned_search(index, "x y", 1, first_chunk)
            assert got == brute_force_search(index, "x y", 1)
            assert got[0][0] == "b"

    @_FIRST_CHUNKS
    def test_stopword_only_query(self, first_chunk):
        for index in built_and_loaded([
            Document("a", "", "the of of and"), Document("b", "", "the the"),
            Document("c", "", "of and and the"), Document("d", "", "the of"),
            Document("e", "", "zeta"),
        ]):
            for k in (1, 2, 4, 10):
                got = pruned_search(index, "the of the and", k, first_chunk)
                assert got == brute_force_search(index, "the of the and", k)

    @_FIRST_CHUNKS
    def test_repeated_terms_count_in_the_bounds(self, first_chunk):
        # Once, "the" weighs less than "zeta"; three times, it outweighs it.
        for index in built_and_loaded([
            Document("rare", "", "zeta"), Document("busy", "", "the the the"),
            Document("mid", "", "the of"), Document("none", "", "of and"),
            Document("pad", "", "and of"),
        ]):
            for query in ("zeta the the the", "the zeta the"):
                got = pruned_search(index, query, 1, first_chunk)
                assert got == brute_force_search(index, query, 1)
                assert got[0][0] == "busy"

    @_FIRST_CHUNKS
    def test_unwalked_tie_hidden_by_the_order_of_the_sum(self, first_chunk):
        # "a" and "b" score alike, and "b" is walked first.  In floats,
        # (x + y) + x, "b"'s exact score, exceeds 2x + y, the bound on what
        # the unwalked "a" can score, by an ulp; only the margin keeps the
        # search walking until "a" is found and wins the tie.
        docs = [Document("b", "", "x y"), Document("a", "", "x y")]
        docs += [Document(f"f{i}", "", "y " + "q " * (i + 3)) for i in range(3)]
        docs += [Document(f"n{i}", "", "n " * (i + 1)) for i in range(3)]
        for index in built_and_loaded(docs):
            x, y = impact_ordered(index, "x")[0], impact_ordered(index, "y")[0]
            assert (x + y) + x > 2 * x + y
            got = pruned_search(index, "x y x", 1, first_chunk)
            assert got == brute_force_search(index, "x y x", 1) == [("a", (x + y) + x)]

    @_FIRST_CHUNKS
    def test_near_ties_separated_only_by_rounding(self, first_chunk):
        # Equal idf and length, tfs permuted: the scores agree to the last
        # ulp or two, and which one is larger depends on the order of the sum.
        for index in built_and_loaded([
            Document("d1", "", "x y z z z"), Document("d0", "", "x y y y z"),
            Document("d4", "", "x x x y z"), Document("d2", "", "x y z z z"),
            Document("d3", "", "x y z z z"),
        ]):
            for query in ("y x z", "x y z", "z y x"):
                for k in (1, 2):
                    got = pruned_search(index, query, k, first_chunk)
                    assert got == brute_force_search(index, query, k)


class TestPersistence:
    def test_round_trip(self, tmp_path, tiny_index):
        path = tmp_path / "index.json"
        save_index(tiny_index, str(path))
        loaded = load_index(str(path))
        assert loaded.doc_count == tiny_index.doc_count
        assert search(loaded, "x y", k=3) == search(tiny_index, "x y", k=3)
        assert loaded.get_document("d2") == TINY[1]

    def test_magic_header_is_checked(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"documents": []}')
        with pytest.raises(CorpusError, match="not a graphfc index"):
            load_index(str(path))

    def test_empty_index_is_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        ids = zlib.compress(b"[]")
        header = {
            "version": retrieval.INDEX_VERSION, "k1": 1.2, "b": 0.75, "doc_count": 0, "avg_doc_length": 0.0,
            "weight_count": 0, "run_count": 0, "widths": {"ordinals": 1, "codes": 1, "lengths": 1},
            "terms_bytes": 0, "ids_bytes": len(ids), "dictionary_bytes": 0,
        }
        path.write_bytes(b"graphfc-index\n" + json.dumps(header).encode() + b"\n" + ids)
        with pytest.raises(CorpusError, match="index has no documents"):
            load_index(str(path))

    def test_version_1_file_is_rejected(self, tmp_path):
        path = tmp_path / "v1.json"
        path.write_text(json.dumps({
            "magic": "graphfc-index", "version": 1, "k1": 1.2, "b": 0.75,
            "documents": [["d1", "alpha", "x"]], "doc_lengths": [2],
            "postings": {"alpha": [[0, 1]], "x": [[0, 1]]},
        }))
        with pytest.raises(CorpusError, match="re-run `graphfc index`"):
            load_index(str(path))

    def test_version_2_file_is_rejected(self, tmp_path):
        path = tmp_path / "v2.json"
        path.write_text(json.dumps({
            "magic": "graphfc-index", "version": 2, "k1": 1.2, "b": 0.75,
            "documents": [["d1", "alpha", "x"]], "doc_lengths": [2],
            "postings": {"alpha": [[0], [1]], "x": [[0], [1]]},
        }))
        with pytest.raises(CorpusError, match="version 2 .*re-run `graphfc index`"):
            load_index(str(path))

    def test_binary_file_without_magic_is_rejected(self, tmp_path):
        path = tmp_path / "noise.bin"
        path.write_bytes(bytes(range(256)))
        with pytest.raises(CorpusError, match="not a graphfc index"):
            load_index(str(path))

    def test_newer_version_is_rejected(self, tmp_path, tiny_index):
        path = tmp_path / "index"
        save_index(tiny_index, str(path))
        newer = retrieval.INDEX_VERSION + 1
        rewrite_header(path, version=newer)
        with pytest.raises(CorpusError, match=f"version {newer} .*re-run `graphfc index`"):
            load_index(str(path))

    def test_version_6_file_is_rejected(self, tmp_path, tiny_index):
        # v6 stored a float64 weight and a uint32 end per run, where v7 stores
        # a code into one table of the distinct weights and a length per run.
        path = tmp_path / "index"
        save_index(tiny_index, str(path))
        rewrite_header(path, version=6)
        with pytest.raises(CorpusError, match="version 6 .*re-run `graphfc index`"):
            load_index(str(path))

    def test_version_5_file_is_rejected(self, tmp_path, tiny_index):
        # v5 stored every posting's weight, where v6 stores runs of equal weight.
        path = tmp_path / "index"
        save_index(tiny_index, str(path))
        rewrite_header(path, version=5)
        with pytest.raises(CorpusError, match="version 5 .*re-run `graphfc index`"):
            load_index(str(path))

    def test_version_4_file_is_rejected(self, tmp_path, tiny_index):
        # v4 kept the terms in the header and the documents in one zlib blob.
        path = tmp_path / "index"
        save_index(tiny_index, str(path))
        rewrite_header(path, version=4)
        with pytest.raises(CorpusError, match="version 4 .*re-run `graphfc index`"):
            load_index(str(path))

    def test_version_3_file_is_rejected(self, tmp_path, tiny_index):
        # v3 had the same layout with each term's postings in ordinal order.
        path = tmp_path / "index"
        save_index(tiny_index, str(path))
        rewrite_header(path, version=3)
        with pytest.raises(CorpusError, match="version 3 .*re-run `graphfc index`"):
            load_index(str(path))

    @given(corpora())
    @settings(max_examples=examples(50), deadline=None)
    def test_postings_are_stored_in_impact_order(self, docs):
        # The weight table holds each run's weight once, in strictly
        # descending order; each term's runs partition its postings with
        # codes strictly rising, so within a term each run's weight is below
        # the one before; each integer array is at its narrowest width.
        for index in built_and_loaded(docs):
            table = list(index.weight_table)
            assert all(map(float.__gt__, table, table[1:]))
            assert set(index.run_codes) == set(range(len(table)))
            assert index.run_starts[0] == 0 and index.run_starts[-1] == len(index.run_codes) == len(index.run_lengths)
            for values, largest in (
                (index.ordinals, index.doc_count - 1),
                (index.run_codes, len(table) - 1),
                (index.run_lengths, max(index.run_lengths)),
            ):
                assert values.itemsize == retrieval._width(largest)
            for term, number in index.terms.items():
                start, end = index.bounds[number], index.bounds[number + 1]
                first, last = index.run_starts[number], index.run_starts[number + 1]
                codes, lengths = list(index.run_codes[first:last]), list(index.run_lengths[first:last])
                assert codes and min(lengths) >= 1 and sum(lengths) == end - start
                assert all(map(int.__lt__, codes, codes[1:]))
                expanded = [table[code] for code, length in zip(codes, lengths) for _ in range(length)]
                stored = list(zip(expanded, index.ordinals[start:end]))
                assert stored == sorted(stored, key=lambda p: (-p[0], p[1]))
                assert list(impact_ordered(index, term).items()) == [(o, w) for w, o in stored]

    def test_width_is_the_narrowest_that_holds_the_largest_value(self):
        widths = [retrieval._width(largest) for largest in (0, 255, 256, 65_535, 65_536, 2 ** 32 - 1)]
        assert widths == [1, 1, 2, 2, 4, 4]
        assert [array(retrieval._TYPECODES[width]).itemsize for width in (1, 2, 4)] == [1, 2, 4]

    def test_round_trip_with_two_byte_ordinals(self, tmp_path):
        words = ["the", "of", "and", "zeta", "eta", "theta", "iota", "kappa"]
        docs = [
            Document(f"d{i:03d}", f"t{i % 7}", " ".join(words[(i * j) % 8] for j in range(1, 2 + i % 9)))
            for i in range(300)
        ]
        index = build_index(docs)
        path = tmp_path / "index"
        save_index(index, str(path))
        header, _ = index_sections(path.read_bytes())
        assert header["widths"]["ordinals"] == 2  # 300 documents: ordinals up to 299
        loaded = load_index(str(path))
        assert loaded.ordinals.typecode == index.ordinals.typecode == "H"
        for query in ("the zeta", "zeta eta of", "theta the and t3", "iota kappa t1", "of of kappa", "t6"):
            for k in (1, 10, 300):
                assert search(loaded, query, k) == search(index, query, k)
        assert all(loaded.postings(term) == index.postings(term) for term in index.terms)

    def test_failed_save_keeps_the_old_file(self, tmp_path, tiny_index, monkeypatch):
        path = tmp_path / "index"
        save_index(build_index(TINY[:1]), str(path))
        old = path.read_bytes()
        calls = []

        def fail_on_the_weights(values):
            calls.append(values)
            if len(calls) == 3:  # everything up to the term ends and the ordinals is written
                raise OSError("disk full")
            return values

        monkeypatch.setattr(retrieval, "_little_endian", fail_on_the_weights)
        with pytest.raises(OSError, match="disk full"):
            save_index(tiny_index, str(path))
        assert [values.typecode for values in calls] == ["I", "B", "d"]
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["index"]
        monkeypatch.undo()
        save_index(tiny_index, str(path))
        assert os.listdir(tmp_path) == ["index"]
        assert search(load_index(str(path)), "x y", k=3) == search(tiny_index, "x y", k=3)

    def test_same_corpus_saves_identical_bytes(self, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        save_index(build_index(TINY), str(first))
        save_index(build_index(TINY), str(second))
        assert first.read_bytes() == second.read_bytes()
        save_index(load_index(str(first)), str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_any_text_round_trips(self):
        docs = [
            Document("id\x00nul", "Café ☕", "an emoji 🎉, a lone surrogate \ud800 and a NUL \x00."),
            Document("d2", "", "plain"),
            Document("lone \udfff\n", "a NUL \x00, a lone \ud800 and\na newline", "text"),
        ]
        index = build_index(docs)
        loaded = round_trip(index)
        assert list(loaded.documents) == list(index.documents) == docs
        assert loaded.documents[-1] == docs[-1]
        assert loaded.get_document("id\x00nul") == docs[0]
        assert loaded.get_document("lone \udfff\n") == docs[2]
        with pytest.raises(IndexError):
            loaded.documents[3]

    def test_load_builds_and_inflates_no_document(self, tmp_path):
        path = tmp_path / "index"
        save_index(build_index(TINY), str(path))
        with mock.patch.object(retrieval, "Document", side_effect=AssertionError("built")), \
                mock.patch.object(retrieval.zlib, "decompressobj", side_effect=AssertionError("inflated")):
            loaded = load_index(str(path))
        with mock.patch.object(retrieval.zlib, "decompressobj", wraps=zlib.decompressobj) as inflaters:
            assert loaded.documents[1] == loaded.documents[1] == TINY[1]
            assert loaded.get_document("d2") == TINY[1]
            assert inflaters.call_count == 1  # on the first read only

    def test_truncated_file_is_rejected(self, tmp_path, tiny_index):
        path = tmp_path / "index"
        save_index(tiny_index, str(path))
        data = path.read_bytes()
        header_end = data.index(b"\n", len(b"graphfc-index\n")) + 1
        for size in range(len(data)):
            path.write_bytes(data[:size])
            if size < len(b"graphfc-index\n"):
                problem = "not a graphfc index"
            elif size < header_end - 1:  # the header's JSON is cut
                problem = "corrupt index header"
            else:
                problem = "index file is truncated"
            with pytest.raises(CorpusError, match=f"{re.escape(str(path))}: {problem}"):
                load_index(str(path))

    def test_header_lengths_must_match_the_file(self, tmp_path, tiny_index):
        path = tmp_path / "index"
        save_index(tiny_index, str(path))
        header, _ = index_sections(path.read_bytes())
        for changes, problem in (
            ({"doc_count": header["doc_count"] + 1}, "corrupt doc_id list"),
            ({"doc_count": header["doc_count"] - 1}, "corrupt doc_id list"),
            ({"ids_bytes": header["ids_bytes"] - 1}, "corrupt doc_id list"),
            ({"terms_bytes": header["terms_bytes"] + 10 ** 12}, "index file is truncated"),
            ({"dictionary_bytes": -1}, "corrupt index header"),
            ({"doc_count": "3"}, "corrupt index header"),
        ):
            save_index(tiny_index, str(path))
            rewrite_header(path, **changes)
            with pytest.raises(CorpusError, match=f"{re.escape(str(path))}: {problem}"):
                load_index(str(path))
        save_index(tiny_index, str(path))
        with open(path, "ab") as handle:
            handle.write(b"\0")
        with pytest.raises(CorpusError, match=f"{re.escape(str(path))}: index file is longer than its header says"):
            load_index(str(path))

    @pytest.mark.parametrize("widths", [
        {"ordinals": 1, "codes": 3, "lengths": 1},
        {"ordinals": 8, "codes": 1, "lengths": 1},
        {"ordinals": 1, "codes": 1, "lengths": True},
        {"ordinals": 1, "codes": 1},
        [1, 1, 1],
    ])
    def test_widths_must_be_1_2_or_4(self, tmp_path, tiny_index, widths):
        path = tmp_path / "index"
        save_index(tiny_index, str(path))
        rewrite_header(path, widths=widths)
        with pytest.raises(CorpusError, match=f"{re.escape(str(path))}: corrupt index header"):
            load_index(str(path))

    def test_term_list_is_checked(self, tmp_path, tiny_index):
        path = tmp_path / "index"
        save_index(tiny_index, str(path))
        data = path.read_bytes()
        _, sections = index_sections(data)
        terms_at, ends_at = sections["terms"][0], sections["ends"][0]
        terms = data[slice(*sections["terms"])].split(b"\n")
        ends = array("I", data[slice(*sections["ends"])])
        z = terms.index(b"z")
        for position, replacement in (
            (ends_at, bytes(4)),  # the first term holds no posting
            (ends_at + 4, data[ends_at:ends_at + 4]),  # the second term holds no posting
            (ends_at + 4 * (len(ends) - 1), bytes(4)),  # the ends decrease
            (terms_at + len(b"\n".join(terms[:z])) + 1, b"x"),  # "z" becomes a second "x"
            (terms_at, b"\xff"),  # not UTF-8
        ):
            corrupt = bytearray(data)
            corrupt[position:position + len(replacement)] = replacement
            path.write_bytes(bytes(corrupt))
            with pytest.raises(CorpusError, match=f"{re.escape(str(path))}: corrupt term list"):
                load_index(str(path))

    @pytest.mark.parametrize("section", ["streams", "crcs"])
    def test_corrupt_document_is_rejected_on_first_read(self, tmp_path, section):
        path = tmp_path / "index"
        save_index(build_index(TINY), str(path))
        data = path.read_bytes()
        _, sections = index_sections(data)
        for ordinal in range(len(TINY)):
            corrupt = bytearray(data)
            offset = document_start(data, sections, ordinal) if section == "streams" else 4 * ordinal
            corrupt[sections[section][0] + offset] ^= 0x20
            path.write_bytes(bytes(corrupt))
            loaded = load_index(str(path))  # no document is read at load
            for _ in range(2):  # a failed first read keeps nothing
                with pytest.raises(CorpusError, match=f"{re.escape(str(path))}: corrupt document {ordinal} "):
                    loaded.documents[ordinal]
            others = [o for o in range(len(TINY)) if o != ordinal]
            assert [loaded.documents[o] for o in others] == [TINY[o] for o in others]

    def test_built_index_checks_each_document_on_first_read(self):
        for ordinal in range(len(TINY)):
            index = build_index(TINY)  # reads documents the way a loaded index does
            index.documents.crcs[ordinal] ^= 1
            for _ in range(2):
                with pytest.raises(CorpusError, match=f"index: corrupt document {ordinal} "):
                    index.documents[ordinal]
            others = [o for o in range(len(TINY)) if o != ordinal]
            assert [index.documents[o] for o in others] == [TINY[o] for o in others]

    def test_out_of_range_ordinal_is_rejected_on_first_use(self, tmp_path, tiny_index):
        path = tmp_path / "index"
        save_index(tiny_index, str(path))
        set_ordinal_top_bytes(path)
        loaded = load_index(str(path))  # ordinals are checked per term, on first use
        with pytest.raises(CorpusError, match="corrupt index: term 'x' names document"):
            search(loaded, "x", k=3)
        with pytest.raises(CorpusError, match="corrupt index: term 'x'"):
            loaded.postings("x")  # a failed first use caches nothing

    # "x" is in 2 of TINY's 3 documents, so its weights are held as a row,
    # and in 2 of the 16 documents here, so as a dict.
    @pytest.mark.parametrize("docs", [TINY, TINY + [Document(f"p{i:02d}", "", "pad") for i in range(13)]],
                             ids=["row", "dict"])
    @pytest.mark.parametrize("section,values,problem", [
        ("run_lengths", [0, 2], "has weight runs that do not partition its postings"),  # a run of no postings
        ("run_lengths", [1, 2], "has weight runs that do not partition its postings"),  # 3 postings, not 2
        ("run_starts", [0, 5], "has weight runs that do not partition its postings"),  # x's runs end before they start
        ("ordinals", [0, 0], "names a document twice"),
        ("run_codes", [5, 3], "has weight runs out of impact order"),  # the weights rise
        ("run_codes", [3, "weight_count"], "has weight runs out of impact order"),  # a code past the table
        ("ordinals", [1, "doc_count"], "names document {doc_count}, past the last of {doc_count}"),
    ])
    def test_corrupt_term_is_rejected_on_first_use(self, tmp_path, docs, section, values, problem):
        # "x", the second term, holds postings 1 and 2, each its own weight
        # run (runs 1 and 2, codes 3 and 5 of the 6 distinct weights, or 1
        # and 5 of 7 with the padding); the first three terms' runs end at
        # run 1, 3 and 5.  A value named by a string is that count of the
        # index.
        index, row = build_index(docs), docs is TINY
        assert index.terms["x"] == 1 and list(index.bounds[1:3]) == [1, 3]
        assert list(index.run_lengths[1:3]) == [1, 1]
        assert list(index.run_codes[1:3]) == [3 if row else 1, 5] and len(index.weight_table) == 6 + (not row)
        assert list(index.run_starts[1:4]) == [1, 3, 5]
        assert type(index.postings("x")) is (list if row else dict)
        counts = {"doc_count": index.doc_count, "weight_count": len(index.weight_table)}
        values = [counts.get(value, value) for value in values]
        problem = problem.format(**counts)
        path = tmp_path / "index"
        save_index(index, str(path))
        data = bytearray(path.read_bytes())
        header, sections = index_sections(bytes(data))
        width = item_width(header, section)
        start = sections[section][0] + width  # the second item of the section
        data[start:start + 2 * width] = b"".join(value.to_bytes(width, "little") for value in values)
        path.write_bytes(bytes(data))
        loaded = load_index(str(path))  # runs and ordinals are checked per term, on first use
        for _ in range(2):  # a failed first use caches nothing
            with pytest.raises(CorpusError, match=f"corrupt index: term 'x' {problem}, in {re.escape(str(path))}$"):
                search(loaded, "x y", k=3)
        assert search(loaded, "q", k=3) == search(index, "q", k=3)

    def test_last_run_must_end_the_postings(self, tmp_path, tiny_index):
        path = tmp_path / "index"
        save_index(tiny_index, str(path))
        data = bytearray(path.read_bytes())
        end = index_sections(bytes(data))[1]["run_starts"][1]
        data[end - 4:end] = (len(tiny_index.run_codes) - 1).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(CorpusError, match=f"{re.escape(str(path))}: corrupt weight runs"):
            load_index(str(path))


def rewrite_header(path, **changes):
    """Replace keys of a saved index's JSON header; the rest of the file stays."""
    magic, header, rest = path.read_bytes().split(b"\n", 2)
    fields = json.loads(header)
    fields.update(changes)
    path.write_bytes(b"\n".join([magic, json.dumps(fields).encode(), rest]))


def index_sections(data: bytes):
    """The header of a saved index and each section's ``(start, end)`` byte
    offsets in ``data``, read independently of load_index."""
    header_start = len(b"graphfc-index\n")
    header_end = data.index(b"\n", header_start) + 1
    header = json.loads(data[header_start:header_end])
    sections, at = {}, header_end

    def section(name, size):
        nonlocal at
        sections[name] = (at, at + size)
        at += size
        return data[at - 4:at]

    def uint32(raw):
        return int.from_bytes(raw, "little")

    terms = data[header_end:header_end + header["terms_bytes"]]
    term_count = len(terms.split(b"\n"))
    section("terms", len(terms))
    postings = uint32(section("ends", 4 * term_count))
    section("ordinals", item_width(header, "ordinals") * postings)
    section("weight_table", 8 * header["weight_count"])
    section("run_starts", 4 * term_count)
    section("run_codes", item_width(header, "run_codes") * header["run_count"])
    section("run_lengths", item_width(header, "run_lengths") * header["run_count"])
    section("ids", header["ids_bytes"])
    section("dictionary", header["dictionary_bytes"])
    streams = uint32(section("document_ends", 4 * header["doc_count"]))
    section("crcs", 4 * header["doc_count"])
    section("streams", streams)
    assert at == len(data)
    return header, sections


def item_width(header: dict, section: str) -> int:
    """Bytes per item of one of the integer sections ``index_sections``
    names, in a saved index with this header."""
    widths = header["widths"]
    return {"ordinals": widths["ordinals"], "run_codes": widths["codes"], "run_lengths": widths["lengths"]}.get(section, 4)


def document_start(data: bytes, sections: dict, ordinal: int) -> int:
    """Where document ``ordinal``'s stream starts among the streams."""
    at = sections["document_ends"][0] + 4 * (ordinal - 1)
    return int.from_bytes(data[at:at + 4], "little") if ordinal else 0


def set_ordinal_top_bytes(path, value: int = 0xFF):
    """Set the most significant byte of every posting ordinal in a saved
    index to ``value``; everything else stays."""
    data = bytearray(path.read_bytes())
    header, sections = index_sections(bytes(data))
    start, end = sections["ordinals"]
    width = item_width(header, "ordinals")
    data[start + width - 1:end:width] = bytes([value]) * ((end - start) // width)  # little-endian
    path.write_bytes(bytes(data))


def set_document_crcs(path, value: int = 0):
    """Set every document's CRC-32 in a saved index to ``value``."""
    data = bytearray(path.read_bytes())
    start, end = index_sections(bytes(data))[1]["crcs"]
    data[start:end] = value.to_bytes(4, "little") * ((end - start) // 4)
    path.write_bytes(bytes(data))


class TestConcurrentFirstTouch:
    def test_threads_searching_a_fresh_index_agree(self, tmp_path):
        words = ["the", "of", "and", "zeta", "eta", "theta", "iota", "kappa"]
        docs = [
            Document(f"d{i:03d}", f"t{i % 5}", " ".join(words[(i * j) % 8] for j in range(1, 9)))
            for i in range(2000)
        ]
        queries = ["the zeta", "zeta eta of", "theta the and", "iota kappa t1", "of of kappa"]
        expected = [search(build_index(docs), q, 5) for q in queries]
        path = tmp_path / "index"
        save_index(build_index(docs), str(path))
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the GIL over as often as possible
        try:
            for _ in range(20):  # each round touches every term of a fresh index
                index = load_index(str(path))
                start = threading.Barrier(4, timeout=30)
                results = [None] * 4

                def run(slot):
                    start.wait()
                    results[slot] = [search(index, q, 5) for q in queries]

                threads = [threading.Thread(target=run, args=(slot,)) for slot in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert results == [expected] * 4
        finally:
            sys.setswitchinterval(switch)

    def test_threads_reading_documents_of_a_fresh_index_agree(self, tmp_path):
        docs = [Document(f"d{i:03d}", f"title {i}", f"text {i} " * (i % 7 + 1)) for i in range(500)]
        path = tmp_path / "index"
        save_index(build_index(docs), str(path))
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):  # each round reads every document of a fresh index first
                index = load_index(str(path))
                start = threading.Barrier(4, timeout=30)
                results = [None] * 4

                def run(slot):
                    order = list(range(len(docs)))[slot % 2::2] + list(range(len(docs)))[1 - slot % 2::2]
                    start.wait()
                    read = {ordinal: index.documents[ordinal] for ordinal in order}
                    results[slot] = [read[ordinal] for ordinal in range(len(docs))]

                threads = [threading.Thread(target=run, args=(slot,)) for slot in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert results == [docs] * 4
                assert list(index.documents) == docs
        finally:
            sys.setswitchinterval(switch)


def test_importing_retrieval_loads_no_backend_or_pipeline():
    code = (
        "import sys, graphfc.retrieval; "
        "print(sorted(name for name in ('graphfc.backend', 'graphfc.verdict') if name in sys.modules))"
    )
    src_dir = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src_dir},
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"


class TestReadCorpus:
    def test_reads_jsonl(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            '{"id": "a", "title": "A", "text": "alpha"}\n'
            '\n'
            '{"id": "b", "title": "B", "text": "beta"}\n'
        )
        docs = list(read_corpus(str(path)))
        assert [d.doc_id for d in docs] == ["a", "b"]

    def test_missing_key_errors(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a", "title": "A"}\n')
        with pytest.raises(CorpusError):
            list(read_corpus(str(path)))

    def test_empty_text_errors(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a", "title": "A", "text": ""}\n')
        with pytest.raises(CorpusError):
            list(read_corpus(str(path)))

    def test_non_object_row_errors(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a", "title": "A", "text": "alpha"}\n["x"]\n')
        with pytest.raises(CorpusError, match=r"corpus\.jsonl:2: not a JSON object"):
            list(read_corpus(str(path)))


class TestReadJsonl:
    def test_yields_line_numbers_and_objects(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n\n  \n{"b": [2]}\n')
        assert list(read_jsonl(str(path), ValueError)) == [(1, {"a": 1}), (4, {"b": [2]})]

    @pytest.mark.parametrize("line,reason", [
        ("{not json", "invalid JSON"),
        ('["x"]', "not a JSON object"),
        ("7", "not a JSON object"),
        ("null", "not a JSON object"),
    ])
    def test_bad_line_raises_the_given_error(self, tmp_path, line, reason):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n' + line + "\n")
        with pytest.raises(CorpusError, match=rf"rows\.jsonl:2: {reason}"):
            list(read_jsonl(str(path), CorpusError))
