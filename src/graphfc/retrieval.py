"""BM25 inverted index over a JSONL document corpus, plus evidence assembly.

The index is built in one pass, held in memory, and immutable afterwards, so
concurrent searches are safe.  Scoring is classic Okapi BM25 with the
+1-smoothed natural-log IDF.  Search is exact top-k with MaxScore pruning
(Turtle & Flood, 1995): each term's largest weight bounds what it can add to
a score, so once the terms left cannot lift a new document into the top k,
their long posting lists (the stopwords') are not walked, and the few
documents still in contention are rescored exactly.
"""

from __future__ import annotations

import bisect
import collections
import heapq
import itertools
import json
import math
import re
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75
CONCAT_SEPARATOR = "\n"
GOLD_SCORE = float("inf")
# Relative margin on both pruning comparisons in ``search``.  A float sum of
# n positive weights is within n ulps of any reordering of it, so 1e-9 covers
# queries of millions of terms and is far below the score gaps that matter.
_PRUNE_SLACK = 1.0 + 1e-9
# One bisect lookup of a document in a posting list costs about as much as
# accumulating this many postings (measured in CPython 3.11 at 20k documents).
_LOOKUP_COST = 6
_SAMPLE_STEP = 16

INDEX_MAGIC = "graphfc-index"
INDEX_VERSION = 2

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


class CorpusError(ValueError):
    """Raised for malformed corpora (duplicate ids, empty corpus, bad rows)."""


def tokenize(text: str) -> List[str]:
    """Lowercase and split on non-alphanumeric runs; no stemming or stopwords."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class Document:
    doc_id: str
    title: str
    text: str

    @property
    def display_text(self) -> str:
        """How the document is shown inside prompts."""
        return f"{self.title}: {self.text}"


@dataclass(frozen=True)
class EvidenceBundle:
    """Top-k retrieved documents.

    ``docs`` is ordered by score descending (ties by ascending doc_id); gold
    documents injected by merge_gold carry an infinite score sentinel and are
    displayed as "gold".
    """

    docs: Tuple  # of (Document, float)

    def __len__(self) -> int:
        return len(self.docs)

    @property
    def doc_ids(self) -> Tuple:
        return tuple(doc.doc_id for doc, _ in self.docs)

    @property
    def texts(self) -> Tuple:
        return tuple(doc.display_text for doc, _ in self.docs)

    @property
    def concat(self) -> str:
        """The documents' display texts joined by ``CONCAT_SEPARATOR``."""
        return CONCAT_SEPARATOR.join(self.texts)

    @staticmethod
    def display_score(score: float) -> str:
        return "gold" if score == GOLD_SCORE else f"{score:.6f}"


def _bundle(scored_docs: Iterable[Tuple[Document, float]]) -> EvidenceBundle:
    return EvidenceBundle(tuple(scored_docs))


EMPTY_BUNDLE = _bundle(())


def bm25_idf(doc_count: int, doc_freq: int) -> float:
    return math.log(1.0 + (doc_count - doc_freq + 0.5) / (doc_freq + 0.5))


def bm25_term_score(
    tf: int, doc_freq: int, doc_count: int, doc_len: int, avg_doc_len: float,
    k1: float = DEFAULT_K1, b: float = DEFAULT_B,
) -> float:
    """Okapi BM25 contribution of one term occurrence in the query."""
    idf = bm25_idf(doc_count, doc_freq)
    norm = k1 * (1.0 - b + b * doc_len / avg_doc_len)
    return idf * tf * (k1 + 1.0) / (tf + norm)


class Index:
    """Immutable inverted index with BM25 search.

    ``postings`` maps each term to parallel ``(ordinals, tfs)`` lists in
    ascending ordinal order.  ``weights`` maps it to the matching
    query-independent BM25 weights, computed here once with the operations of
    ``bm25_term_score`` in the same order, so a search only adds them up and
    its scores are bit-identical to summing ``bm25_term_score`` per posting.
    ``max_weights`` maps it to the largest of those weights, the most one
    occurrence of the term in a query can add to a score.
    """

    def __init__(self, documents, postings, doc_lengths, k1, b):
        self.documents: Tuple = tuple(documents)
        if not self.documents:
            raise CorpusError("index has no documents")
        self.postings: dict = postings  # term -> (ordinals, tfs)
        self.doc_lengths: Tuple = tuple(doc_lengths)
        self.k1 = k1
        self.b = b
        self.doc_count = len(self.documents)
        self.avg_doc_length = sum(self.doc_lengths) / self.doc_count
        self._by_id = {doc.doc_id: doc for doc in self.documents}
        norms = [k1 * (1.0 - b + b * n / self.avg_doc_length) for n in self.doc_lengths]
        scale = k1 + 1.0
        idfs: dict = {}  # doc_freq -> idf; most terms of a large vocabulary share a few
        self.weights: dict = {}  # term -> weights, parallel to postings[term]
        for term, (ordinals, tfs) in postings.items():
            idf = idfs.get(len(ordinals))
            if idf is None:
                idf = idfs[len(ordinals)] = bm25_idf(self.doc_count, len(ordinals))
            self.weights[term] = [
                idf * tf * scale / (tf + norms[o]) for o, tf in zip(ordinals, tfs)
            ]
        self.max_weights: dict = dict(zip(self.weights, map(max, self.weights.values())))

    def get_document(self, doc_id: str) -> Optional[Document]:
        return self._by_id.get(doc_id)


def build_index(corpus: Iterable[Document], k1: float = DEFAULT_K1, b: float = DEFAULT_B) -> Index:
    """Index ``title + " " + text`` of every document.

    Raises CorpusError on an empty corpus or a duplicate doc_id, and
    ValueError for out-of-range BM25 parameters.
    """
    if k1 <= 0:
        raise ValueError(f"k1 must be > 0, got {k1}")
    if not 0 <= b <= 1:
        raise ValueError(f"b must be in [0, 1], got {b}")
    documents: List[Document] = []
    postings: dict = {}
    doc_lengths: List[int] = []
    seen = set()
    for ordinal, doc in enumerate(corpus):
        if doc.doc_id in seen:
            raise CorpusError(f"duplicate doc_id {doc.doc_id!r}")
        seen.add(doc.doc_id)
        tokens = tokenize(doc.title + " " + doc.text)
        counts: dict = {}
        for tok in tokens:
            counts[tok] = counts.get(tok, 0) + 1
        for term, tf in counts.items():
            entry = postings.get(term)
            if entry is None:
                entry = postings[term] = ([], [])
            entry[0].append(ordinal)
            entry[1].append(tf)
        documents.append(doc)
        doc_lengths.append(len(tokens))
    return Index(documents, postings, doc_lengths, k1, b)


def search(index: Index, query: str, k: int) -> EvidenceBundle:
    """Exact top-k Okapi BM25 search with MaxScore pruning.

    Only documents containing at least one query term are scored; duplicate
    query terms contribute once per occurrence.  Results are ordered by score
    descending with ties broken by ascending doc_id.  An empty query yields an
    empty bundle.

    The distinct query terms are accumulated term at a time in descending
    upper bound, a term's multiplicity times its largest weight.  A partial
    score never exceeds its document's score, so the k-th best partial score
    is at most the k-th best score.  Once the bounds of the terms not yet
    accumulated sum to less than it, a document not yet seen cannot reach the
    top k, not even in a tie, and neither can an accumulated document whose
    partial score plus those bounds falls below it.  From then on the search
    stops walking posting lists as soon as rescoring those survivors costs
    less than walking the rest.  The survivors are rescored exactly, term by
    term in query order by bisecting the posting lists, so every returned
    score is bit-identical to summing ``bm25_term_score`` per posting, and
    ranked exactly.  Both comparisons carry the relative margin
    ``_PRUNE_SLACK``: partial sums add in another order than the exact ones,
    so a near tie may swap sides by rounding, and the margin keeps both sides.
    A query whose terms have similar bounds, such as stopwords only, prunes
    little and costs about what summing every posting does.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    terms = [term for term in tokenize(query) if term in index.postings]
    counts = collections.Counter(terms)
    by_bound = sorted(
        ((m * index.max_weights[term], term) for term, m in counts.items()), reverse=True,
    )
    scores: dict = {}
    cut = 0.0
    seen = 0.0
    for i, (bound, term) in enumerate(by_bound):
        ordinals = index.postings[term][0]
        weights = index.weights[term]
        if counts[term] > 1:
            weights = [counts[term] * w for w in weights]
        if scores:
            get = scores.get
            for ordinal, weight in zip(ordinals, weights):
                scores[ordinal] = get(ordinal, 0.0) + weight
        else:
            scores = dict(zip(ordinals, weights))
        seen += bound
        rest = sum(b for b, _ in by_bound[i + 1:])
        # No partial score exceeds ``seen``, so the k-th cannot beat ``rest`` yet.
        if len(scores) < k or rest * _PRUNE_SLACK >= seen:
            continue
        kth = heapq.nlargest(k, scores.values())[-1]
        if rest * _PRUNE_SLACK >= kth:
            continue  # a document not yet seen could still reach the top k
        cut = kth / _PRUNE_SLACK - rest
        # Stop walking once one lookup per query term for each survivor costs
        # less than the postings left; every _SAMPLE_STEP-th partial score
        # estimates how many survive.
        left = sum(len(index.postings[t][0]) for _, t in by_bound[i + 1:])
        sample = itertools.islice(scores.values(), 0, None, _SAMPLE_STEP)
        if left and left > _SAMPLE_STEP * _LOOKUP_COST * len(terms) * sum(s >= cut for s in sample):
            break
    survivors = [ordinal for ordinal, score in scores.items() if score >= cut]
    if not survivors:
        return EMPTY_BUNDLE
    lists = [(index.postings[term][0], index.weights[term]) for term in terms]

    def exact(ordinal: int) -> float:
        score = 0.0
        for ordinals, weights in lists:
            j = bisect.bisect_left(ordinals, ordinal)
            if j < len(ordinals) and ordinals[j] == ordinal:
                score += weights[j]
        return score

    exact_scores = {ordinal: exact(ordinal) for ordinal in survivors}
    # Every document scoring at or above the k-th best score, ranked exactly.
    kth = heapq.nlargest(k, exact_scores.values())[-1]
    documents = index.documents
    ranked = sorted(
        (item for item in exact_scores.items() if item[1] >= kth),
        key=lambda item: (-item[1], documents[item[0]].doc_id),
    )
    return _bundle((documents[o], s) for o, s in ranked[:k])


def merge_gold(retrieved: EvidenceBundle, gold: List[Document], k: int) -> EvidenceBundle:
    """Merge a gold document set into a retrieved bundle.

    Gold documents come first (deduplicated by doc_id, ordered by doc_id, with
    an infinite score sentinel), followed by the top retrieved non-gold
    documents; the result is truncated to at most k entries.
    """
    if len(gold) > k:
        raise ValueError(f"gold set size {len(gold)} exceeds k={k}")
    gold_by_id = {}
    for doc in gold:
        gold_by_id.setdefault(doc.doc_id, doc)
    merged = [(doc, GOLD_SCORE) for _, doc in sorted(gold_by_id.items())]
    for doc, score in retrieved.docs:
        if doc.doc_id not in gold_by_id:
            merged.append((doc, score))
    return _bundle(merged[:k])


def retrieve(index: Index, query: str, k: int, gold_docs: Optional[List[Document]] = None) -> EvidenceBundle:
    """Top-k search, with the gold document set merged in when supplied."""
    bundle = search(index, query, k)
    if gold_docs:
        bundle = merge_gold(bundle, list(gold_docs), k)
    return bundle


def read_corpus(path: str) -> Iterable[Document]:
    """Stream a JSONL corpus with keys "id", "title", "text"."""
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}:{lineno}: invalid JSON ({exc})") from exc
            try:
                doc = Document(str(row["id"]), str(row["title"]), str(row["text"]))
            except KeyError as exc:
                raise CorpusError(f"{path}:{lineno}: missing key {exc}") from exc
            if not doc.text:
                raise CorpusError(f"{path}:{lineno}: document text is empty")
            yield doc


def save_index(index: Index, path: str) -> None:
    """Write the index as JSON, format v2.

    Postings are saved per term as ``[ordinals, tfs]``; the BM25 weights are
    recomputed on load rather than stored as float text.
    """
    payload = {
        "magic": INDEX_MAGIC,
        "version": INDEX_VERSION,
        "k1": index.k1,
        "b": index.b,
        "documents": [[d.doc_id, d.title, d.text] for d in index.documents],
        "doc_lengths": list(index.doc_lengths),
        "postings": index.postings,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, ensure_ascii=False)


def load_index(path: str) -> Index:
    """Read an index written by save_index.

    Raises CorpusError for a file that is not a graphfc index, for another
    format version (older files must be rebuilt), and for an index with no
    documents.
    """
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("magic") != INDEX_MAGIC:
        raise CorpusError(f"{path}: not a graphfc index file")
    version = payload.get("version")
    if version != INDEX_VERSION:
        raise CorpusError(
            f"{path}: unsupported index format version {version} (this graphfc reads "
            f"version {INDEX_VERSION}); re-run `graphfc index` to rebuild it"
        )
    documents = [Document(*row) for row in payload["documents"]]
    postings = {term: (ordinals, tfs) for term, (ordinals, tfs) in payload["postings"].items()}
    return Index(documents, postings, payload["doc_lengths"], payload["k1"], payload["b"])
