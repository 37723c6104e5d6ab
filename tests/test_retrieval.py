"""BM25 index, search, and gold-merge tests.

Expected scores were hand-evaluated from the closed-form Okapi formula
(k1=1.2, b=0.75, IDF = ln(1 + (N - df + 0.5)/(df + 0.5))) on the tiny corpus
below, independently of the index implementation, and frozen here.
"""

from __future__ import annotations

import json
import math
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
    read_corpus,
    retrieve,
    save_index,
    search,
    tokenize,
)

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

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            build_index(TINY, k1=0)
        with pytest.raises(ValueError):
            build_index(TINY, b=1.5)

    def test_title_is_indexed(self):
        # Hand count: "shakespeare" appears once in the Queen Mab sentence.
        docs = [
            Document("mab", "Queen Mab", "The fairy Queen Mab originated with William Shakespeare."),
            Document("geragos", "Mark Geragos", "Mark Geragos was involved in the scandal."),
        ]
        index = build_index(docs)
        assert index.postings["shakespeare"] == ([0], [1])
        assert index.postings["mab"] == ([0], [2])  # once in title, once in text


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

    @given(st.integers(min_value=0, max_value=5))
    @settings(max_examples=20, deadline=None)
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
        base = build_index(TINY)
        extended = build_index(TINY + [Document("d4", "noise", "unrelated words here")])
        for term in ("x", "y", "q"):
            assert base.postings[term] == extended.postings[term]

    @given(st.integers(min_value=1, max_value=50))
    @settings(max_examples=30, deadline=None)
    def test_score_monotone_in_tf(self, tf):
        low = bm25_term_score(tf, doc_freq=2, doc_count=10, doc_len=20, avg_doc_len=15.0)
        high = bm25_term_score(tf + 1, doc_freq=2, doc_count=10, doc_len=20, avg_doc_len=15.0)
        assert high >= low


def brute_force_search(index, query, k):
    """Reference scorer: bm25_term_score summed per posting, full sort."""
    scores = {}
    for term in tokenize(query):
        ordinals, tfs = index.postings.get(term, ((), ()))
        for ordinal, tf in zip(ordinals, tfs):
            contribution = bm25_term_score(
                tf, len(ordinals), index.doc_count, index.doc_lengths[ordinal],
                index.avg_doc_length, index.k1, index.b,
            )
            scores[ordinal] = scores.get(ordinal, 0.0) + contribution
    ranked = sorted(scores.items(), key=lambda item: (-item[1], index.documents[item[0]].doc_id))
    return [(index.documents[o].doc_id, s) for o, s in ranked[:k]]


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
    @settings(max_examples=200, deadline=None)
    def test_same_ranking_and_bit_equal_scores(self, docs, query, k):
        index = build_index(docs)
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


# ``_LOOKUP_COST`` 0 makes search stop walking postings at the first point
# the bounds allow, the most pruning it can do; at the default it stops
# later, or on corpora this small often not at all.
_LOOKUP_COSTS = pytest.mark.parametrize("lookup_cost", [0, retrieval._LOOKUP_COST])


def pruned_search(index, query, k, lookup_cost):
    with mock.patch.object(retrieval, "_LOOKUP_COST", lookup_cost):
        return [(doc.doc_id, score) for doc, score in search(index, query, k).docs]


class TestPrunedSearchMatchesReference:
    @_LOOKUP_COSTS
    @given(skewed_corpora(), st.lists(st.one_of(_RARE, _FREQUENT), min_size=1, max_size=8).map(" ".join),
           st.integers(min_value=1, max_value=5))
    @settings(max_examples=300, deadline=None)
    def test_same_ranking_and_bit_equal_scores(self, lookup_cost, docs, query, k):
        index = build_index(docs)
        assert pruned_search(index, query, k, lookup_cost) == brute_force_search(index, query, k)

    @_LOOKUP_COSTS
    def test_stopword_only_query(self, lookup_cost):
        index = build_index([
            Document("a", "", "the of of and"), Document("b", "", "the the"),
            Document("c", "", "of and and the"), Document("d", "", "the of"),
            Document("e", "", "zeta"),
        ])
        for k in (1, 2, 4, 10):
            got = pruned_search(index, "the of the and", k, lookup_cost)
            assert got == brute_force_search(index, "the of the and", k)

    @_LOOKUP_COSTS
    def test_repeated_terms_count_in_the_bounds(self, lookup_cost):
        # Once, "the" weighs less than "zeta"; three times, it outweighs it.
        index = build_index([
            Document("rare", "", "zeta"), Document("busy", "", "the the the"),
            Document("mid", "", "the of"), Document("none", "", "of and"),
            Document("pad", "", "and of"),
        ])
        for query in ("zeta the the the", "the zeta the"):
            got = pruned_search(index, query, 1, lookup_cost)
            assert got == brute_force_search(index, query, 1)
            assert got[0][0] == "busy"

    @_LOOKUP_COSTS
    def test_near_ties_separated_only_by_rounding(self, lookup_cost):
        # Equal idf and length, tfs permuted: the scores agree to the last
        # ulp or two, and which one is larger depends on the order of the sum.
        index = build_index([
            Document("d1", "", "x y z z z"), Document("d0", "", "x y y y z"),
            Document("d4", "", "x x x y z"), Document("d2", "", "x y z z z"),
            Document("d3", "", "x y z z z"),
        ])
        for query in ("y x z", "x y z", "z y x"):
            for k in (1, 2):
                got = pruned_search(index, query, k, lookup_cost)
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

    def test_empty_index_is_rejected(self, tmp_path, tiny_index):
        path = tmp_path / "empty.json"
        save_index(tiny_index, str(path))
        payload = json.loads(path.read_text())
        payload.update(documents=[], doc_lengths=[], postings={})
        path.write_text(json.dumps(payload))
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
