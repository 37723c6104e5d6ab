"""BM25 inverted index over a JSONL document corpus, plus evidence assembly.

The index is built in one pass and immutable afterwards, apart from caches
that are safe to fill concurrently, so concurrent searches are safe.  Scoring
is classic Okapi BM25 with the +1-smoothed natural-log IDF.  Every posting's
query-independent BM25 weight is computed once, when the index is built, and
stored in the index file (format v3), so loading an index computes nothing
per posting.  Search is exact top-k with MaxScore pruning (Turtle & Flood,
1995): each term's largest weight bounds what it can add to a score, so once
the terms left cannot lift a new document into the top k, their long posting
lists (the stopwords') are not walked, and the few documents still in
contention are rescored exactly.
"""

from __future__ import annotations

import bisect
import collections
import heapq
import itertools
import json
import math
import re
import sys
import zlib
from array import array
from dataclasses import dataclass
from collections.abc import Sequence
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
INDEX_VERSION = 3
# An index file starts with this line, then one line of JSON header.
_MAGIC_LINE = (INDEX_MAGIC + "\n").encode()
# zlib level of the document blob: at 20k documents, level 6 makes it 18%
# smaller than level 1 but takes five times as long to write.
_ZLIB_LEVEL = 1

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


def _little_endian(values: array) -> array:
    """``values`` with its items in little-endian byte order: itself on a
    little-endian host, a byte-swapped copy otherwise (swapping is its own
    inverse, so this serves reading and writing alike)."""
    if sys.byteorder == "big":
        values = array(values.typecode, values)
        values.byteswap()
    return values


class DocumentTable(Sequence):
    """The indexed documents in ordinal order, stored as the UTF-8 bytes of
    every document's id, title and text, one after another.  A document is
    built the first time it is read and kept (see ``Index`` on why that is
    safe from any thread).  ``ids`` holds every doc_id, decoded up front."""

    def __init__(self, data: bytes, ends: List[int]):
        self._data = data
        self._ends = ends  # field i is data[ends[i]:ends[i + 1]]; three per document
        self.ids: List[str] = [
            data[start:end].decode("utf-8", "surrogatepass")
            for start, end in zip(ends[0::3], ends[1::3])
        ]
        self._built: List[Optional[Document]] = [None] * len(self.ids)

    @classmethod
    def of(cls, documents: Iterable[Document]) -> "DocumentTable":
        """The table of ``documents``, in order."""
        fields = [
            field.encode("utf-8", "surrogatepass")
            for doc in documents for field in (doc.doc_id, doc.title, doc.text)
        ]
        return cls(b"".join(fields), list(itertools.accumulate(map(len, fields), initial=0)))

    def to_bytes(self) -> bytes:
        """Every field's byte length as a little-endian uint32, then the
        fields' bytes."""
        ends = self._ends
        lengths = array("I", map(int.__sub__, ends[1:], ends[:-1]))
        return _little_endian(lengths).tobytes() + self._data[ends[0]:]

    @classmethod
    def from_bytes(cls, raw: bytes, doc_count: int) -> "DocumentTable":
        """The table ``to_bytes`` wrote; ValueError if ``raw`` is not one."""
        lengths = array("I", raw[:12 * doc_count])
        ends = list(itertools.accumulate(_little_endian(lengths), initial=12 * doc_count))
        if len(lengths) != 3 * doc_count or ends[-1] != len(raw):
            raise ValueError("field lengths disagree with the blob")
        return cls(raw, ends)

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, ordinal: int) -> Document:
        doc = self._built[ordinal]  # IndexError past either end
        if doc is None:
            ordinal %= len(self._built)
            data, ends, i = self._data, self._ends, 3 * ordinal
            doc = self._built[ordinal] = Document(
                self.ids[ordinal],
                data[ends[i + 1]:ends[i + 2]].decode("utf-8", "surrogatepass"),
                data[ends[i + 2]:ends[i + 3]].decode("utf-8", "surrogatepass"),
            )
        return doc


class Index:
    """Inverted index with BM25 search, one representation whether built or
    loaded.

    ``spans`` maps each term to its ``(start, end)`` slice of the flat
    ``ordinals`` (uint32) and ``weights`` (float64) arrays: the documents
    holding the term, in ascending ordinal order, and the term's
    query-independent BM25 weight in each.  ``end - start`` is the term's
    document frequency.  build_index computes the weights with the operations
    of ``bm25_term_score`` in the same order, so a search only adds them up
    and its scores are bit-identical to summing ``bm25_term_score`` per
    posting.  The weights are stored in the index file, so they are fixed at
    build time.

    The index is immutable after construction apart from two caches: the
    lists ``postings`` builds for a term the first time the term is used, and
    the documents ``documents`` builds when first read.  Filling them is
    idempotent: two threads touching a term or a document at once build equal
    values and either may keep its own, so concurrent searches are safe.
    """

    def __init__(self, documents: DocumentTable, spans, ordinals, weights, k1, b, avg_doc_length):
        self.documents = documents
        if not documents:
            raise CorpusError("index has no documents")
        self.spans: dict = spans  # term -> (start, end) in ordinals and weights
        self.ordinals: array = ordinals
        self.weights: array = weights
        self.k1 = k1
        self.b = b
        self.doc_count = len(self.documents)
        self.avg_doc_length = avg_doc_length
        self._by_id = dict(zip(documents.ids, range(self.doc_count)))  # doc_id -> ordinal
        self._lists: dict = {}  # term -> (ordinals, weights, max weight)

    def postings(self, term: str) -> Optional[Tuple[list, list, float]]:
        """``(ordinals, weights, max weight)`` of ``term`` as lists, or None
        for a term no document holds.  Raises CorpusError, on the term's first
        use rather than at load, if an ordinal names no document (a corrupt
        file)."""
        entry = self._lists.get(term)
        if entry is None:
            span = self.spans.get(term)
            if span is None:
                return None
            ordinals = self.ordinals[span[0]:span[1]].tolist()
            if max(ordinals) >= self.doc_count:
                raise CorpusError(
                    f"corrupt index: term {term!r} names document {max(ordinals)}, "
                    f"past the last of {self.doc_count}"
                )
            weights = self.weights[span[0]:span[1]].tolist()
            entry = (ordinals, weights, max(weights))
            self._lists[term] = entry
        return entry

    def get_document(self, doc_id: str) -> Optional[Document]:
        ordinal = self._by_id.get(doc_id)
        return None if ordinal is None else self.documents[ordinal]


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
    if not documents:
        raise CorpusError("index has no documents")
    avg_doc_length = sum(doc_lengths) / len(documents)
    norms = [k1 * (1.0 - b + b * n / avg_doc_length) for n in doc_lengths]
    scale = k1 + 1.0
    idfs: dict = {}  # doc_freq -> idf; most terms of a large vocabulary share a few
    spans: dict = {}
    ordinals, weights = array("I"), array("d")
    for term, (term_ordinals, tfs) in postings.items():
        idf = idfs.get(len(term_ordinals))
        if idf is None:
            idf = idfs[len(term_ordinals)] = bm25_idf(len(documents), len(term_ordinals))
        spans[term] = (len(ordinals), len(ordinals) + len(term_ordinals))
        ordinals.extend(term_ordinals)
        weights.extend([idf * tf * scale / (tf + norms[o]) for o, tf in zip(term_ordinals, tfs)])
    return Index(DocumentTable.of(documents), spans, ordinals, weights, k1, b, avg_doc_length)


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
    terms = [term for term in tokenize(query) if term in index.spans]
    counts = collections.Counter(terms)
    lists = {term: index.postings(term) for term in counts}
    by_bound = sorted(
        ((m * lists[term][2], term) for term, m in counts.items()), reverse=True,
    )
    scores: dict = {}
    cut = 0.0
    seen = 0.0
    for i, (bound, term) in enumerate(by_bound):
        ordinals, weights, _ = lists[term]
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
        left = sum(index.spans[t][1] - index.spans[t][0] for _, t in by_bound[i + 1:])
        sample = itertools.islice(scores.values(), 0, None, _SAMPLE_STEP)
        if left and left > _SAMPLE_STEP * _LOOKUP_COST * len(terms) * sum(s >= cut for s in sample):
            break
    survivors = [ordinal for ordinal, score in scores.items() if score >= cut]
    if not survivors:
        return EMPTY_BUNDLE
    in_query_order = [lists[term] for term in terms]

    def exact(ordinal: int) -> float:
        score = 0.0
        for ordinals, weights, _ in in_query_order:
            j = bisect.bisect_left(ordinals, ordinal)
            if j < len(ordinals) and ordinals[j] == ordinal:
                score += weights[j]
        return score

    exact_scores = {ordinal: exact(ordinal) for ordinal in survivors}
    # Every document scoring at or above the k-th best score, ranked exactly.
    kth = heapq.nlargest(k, exact_scores.values())[-1]
    doc_ids = index.documents.ids
    ranked = sorted(
        (item for item in exact_scores.items() if item[1] >= kth),
        key=lambda item: (-item[1], doc_ids[item[0]]),
    )
    return _bundle((index.documents[o], s) for o, s in ranked[:k])


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
    """Write the index in format v3, one file holding, in this order:

    - the line ``graphfc-index``;
    - one line of JSON header: ``version`` 3, ``k1``, ``b``, ``doc_count``,
      ``avg_doc_length``, the ``terms`` and each term's posting ``ends`` (its
      postings are those from the previous term's end to its own), and the
      byte length of the document blob, ``documents_bytes``;
    - every posting's ordinal as one little-endian uint32 array, in term order;
    - the postings' BM25 weights as one little-endian float64 array;
    - the document blob: zlib-compressed, the byte length of every document's
      id, title and text as little-endian uint32s, then those fields' UTF-8
      bytes (DocumentTable.to_bytes).

    Term frequencies and document lengths are not stored: the weights are
    all a search reads.  The same index always gives the same bytes.
    """
    blob = zlib.compress(index.documents.to_bytes(), _ZLIB_LEVEL)
    header = {
        "version": INDEX_VERSION,
        "k1": index.k1,
        "b": index.b,
        "doc_count": index.doc_count,
        "avg_doc_length": index.avg_doc_length,
        "terms": list(index.spans),
        "ends": [end for _, end in index.spans.values()],
        "documents_bytes": len(blob),
    }
    with open(path, "wb") as handle:
        handle.write(_MAGIC_LINE)
        handle.write(json.dumps(header, ensure_ascii=False).encode("utf-8") + b"\n")
        _little_endian(index.ordinals).tofile(handle)
        _little_endian(index.weights).tofile(handle)
        handle.write(blob)


def _rebuild_error(path: str, version) -> CorpusError:
    return CorpusError(
        f"{path}: unsupported index format version {version} (this graphfc reads "
        f"version {INDEX_VERSION}); re-run `graphfc index` to rebuild it"
    )


def _foreign_file_error(path: str, data: bytes) -> CorpusError:
    """The error for a file without the v3 magic line, whose content is
    ``data``: an index of an older format when it is JSON carrying the
    graphfc magic, otherwise not an index at all."""
    try:
        payload = json.loads(data)
    except ValueError:
        payload = None
    if isinstance(payload, dict) and payload.get("magic") == INDEX_MAGIC:
        return _rebuild_error(path, payload.get("version"))
    return CorpusError(f"{path}: not a graphfc index file")


def _read_header(path: str, line: bytes) -> dict:
    """The v3 header, checked for the keys and value types load_index uses."""
    try:
        header = json.loads(line)
    except ValueError:
        header = None
    if not isinstance(header, dict):
        raise CorpusError(f"{path}: corrupt index header")
    if header.get("version") != INDEX_VERSION:
        raise _rebuild_error(path, header.get("version"))
    terms, ends = header.get("terms"), header.get("ends")
    sizes = [header.get("doc_count"), header.get("documents_bytes")]
    if not (
        isinstance(terms, list) and isinstance(ends, list) and len(terms) == len(ends)
        and set(map(type, sizes + ends)) <= {int} and min(sizes) >= 0
        and all(map(int.__lt__, [0, *ends], ends))  # every term holds a posting
        and set(map(type, terms)) <= {str} and len(set(terms)) == len(terms)
        and {type(header.get(key)) for key in ("k1", "b", "avg_doc_length")} <= {int, float}
    ):
        raise CorpusError(f"{path}: corrupt index header")
    return header


def load_index(path: str) -> Index:
    """Read an index written by save_index.

    Raises CorpusError naming ``path`` for a file that is not a graphfc
    index, for another format version (older files, JSON ones included, must
    be rebuilt), for a file that is truncated, longer than its header says or
    otherwise corrupt, and for an index with no documents.
    """
    with open(path, "rb") as handle:
        magic = handle.read(len(_MAGIC_LINE))
        if magic != _MAGIC_LINE:  # read the rest only if it may be a JSON index
            raise _foreign_file_error(path, magic + handle.read() if magic[:1] == b"{" else b"")
        header = _read_header(path, handle.readline())
        postings = header["ends"][-1] if header["ends"] else 0
        ordinals, weights = array("I"), array("d")
        try:
            ordinals.fromfile(handle, postings)
            weights.fromfile(handle, postings)
        except (EOFError, ValueError):  # ValueError: it ends inside an item
            raise CorpusError(f"{path}: index file is truncated") from None
        blob = handle.read(header["documents_bytes"])
        if len(blob) < header["documents_bytes"]:
            raise CorpusError(f"{path}: index file is truncated")
        if handle.read(1):
            raise CorpusError(f"{path}: index file is longer than its header says")
    try:
        documents = DocumentTable.from_bytes(zlib.decompress(blob), header["doc_count"])
    except (zlib.error, ValueError) as exc:
        raise CorpusError(f"{path}: corrupt document blob ({exc})") from None
    spans = dict(zip(header["terms"], itertools.pairwise([0, *header["ends"]])))
    return Index(
        documents, spans, _little_endian(ordinals), _little_endian(weights),
        header["k1"], header["b"], header["avg_doc_length"],
    )
