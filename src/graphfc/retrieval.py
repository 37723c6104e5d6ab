"""BM25 inverted index over a JSONL document corpus, plus evidence assembly.

The index is built in one pass and immutable afterwards, apart from caches
that are safe to fill concurrently, so concurrent searches are safe.  Scoring
is classic Okapi BM25 with the +1-smoothed natural-log IDF.  Every posting's
query-independent BM25 weight is computed once, when the index is built, and
stored in the index file (format v4), so loading an index computes nothing
per posting.  Each term's postings are stored in impact order, largest weight
first (Anh & Moffat, 2006), so the unwalked rest of a list is bounded by its
next weight.  Search is exact top-k with an early stop in the manner of the
threshold algorithm (Fagin, Lotem & Naor, 2003): it walks the lists a chunk
at a time, rescores the documents still in contention exactly, and stops
once the k-th best exact score beats everything the unwalked postings could
add, so the tails of long lists (the stopwords') are not walked.
"""

from __future__ import annotations

import collections
import heapq
import itertools
import json
import math
import operator
import os
import re
import sys
import zlib
from array import array
from dataclasses import dataclass
from collections.abc import Sequence
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75
CONCAT_SEPARATOR = "\n"
GOLD_SCORE = float("inf")
# Relative margin on both pruning comparisons in ``search``.  A float sum of
# n positive weights is within n ulps of any reordering of it, so 1e-9 covers
# queries of millions of terms and is far below the score gaps that matter.
_PRUNE_SLACK = 1.0 + 1e-9
# Postings in a term's first chunk in ``search``; each later chunk of the
# same term is twice the size of the one before.
_FIRST_CHUNK = 8

INDEX_MAGIC = "graphfc-index"
INDEX_VERSION = 4
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
    holding the term and the term's query-independent BM25 weight in each,
    in impact order (descending weight, ties by ascending ordinal), so a
    term's first weight is its largest.  ``end - start`` is the term's
    document frequency.  build_index computes the weights with the operations
    of ``bm25_term_score`` in the same order, so a search only adds them up
    and its scores are bit-identical to summing ``bm25_term_score`` per
    posting.  The weights are stored in the index file, so they are fixed at
    build time.

    The index is immutable after construction apart from two caches: the
    ordinal -> weight dicts ``postings`` builds for a term the first time the
    term is used, and the documents ``documents`` builds when first read.
    Filling them is idempotent: two threads touching a term or a document at
    once build equal values and either may keep its own, so concurrent
    searches are safe.
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
        self._postings: dict = {}  # term -> {ordinal: weight}

    def postings(self, term: str) -> Optional[dict]:
        """``term``'s weight in each document holding it, as an ordinal ->
        weight dict in impact order, or None for a term no document holds.
        Raises CorpusError, on the term's first use rather than at load, if
        an ordinal names no document (a corrupt file)."""
        entry = self._postings.get(term)
        if entry is None:
            span = self.spans.get(term)
            if span is None:
                return None
            ordinals = self.ordinals[span[0]:span[1]]
            if max(ordinals) >= self.doc_count:
                raise CorpusError(
                    f"corrupt index: term {term!r} names document {max(ordinals)}, "
                    f"past the last of {self.doc_count}"
                )
            entry = self._postings[term] = dict(zip(ordinals, self.weights[span[0]:span[1]]))
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
        # Impact order: a stable sort keeps equal weights in ascending ordinal order.
        ranked = sorted(
            zip([idf * tf * scale / (tf + norms[o]) for o, tf in zip(term_ordinals, tfs)], term_ordinals),
            key=operator.itemgetter(0), reverse=True,
        )
        weights.extend([weight for weight, _ in ranked])
        ordinals.extend([ordinal for _, ordinal in ranked])
    return Index(DocumentTable.of(documents), spans, ordinals, weights, k1, b, avg_doc_length)


def search(index: Index, query: str, k: int) -> EvidenceBundle:
    """Exact top-k Okapi BM25 search that stops before the tails of long
    posting lists.

    Only documents containing at least one query term are scored; duplicate
    query terms contribute once per occurrence.  Results are ordered by score
    descending with ties broken by ascending doc_id.  An empty query yields an
    empty bundle.

    A term's postings are in impact order, so what its unwalked postings can
    add to a score is bounded by its multiplicity times its next weight.  The
    search walks one chunk of postings at a time (``_FIRST_CHUNK``, then
    twice the size of the term's previous chunk) from the term whose unwalked
    postings have the largest bound, and sums each document's partial score.
    A walked document whose partial score plus the unwalked bounds could
    still reach the k-th best exact score found so far is rescored exactly,
    term by term in query order, from the ordinal -> weight dicts
    ``Index.postings`` builds on each term's first use; so every returned
    score is bit-identical to summing ``bm25_term_score`` per posting.  The
    search stops once the k-th best exact score beats the sum of the unwalked
    bounds: a document not yet seen cannot reach the top k, not even in a
    tie, and neither can a walked one left unrescored, because the k-th best
    exact score only rises and the unwalked bounds only fall.  Both
    comparisons carry the relative margin ``_PRUNE_SLACK``: partial sums add
    in another order than the exact ones, so a near tie may swap sides by
    rounding, and the margin keeps both sides.  A query of stopwords only
    walks most of its postings and rescores most of the documents it meets.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    terms = [term for term in tokenize(query) if term in index.spans]
    counts = collections.Counter(terms)
    postings = {term: index.postings(term) for term in counts}
    in_query_order = [postings[term] for term in terms]
    ordinals, weights = index.ordinals, index.weights
    # Per term not yet walked to its end: [next position, end, chunk size, multiplicity].
    cursors = [[*index.spans[term], _FIRST_CHUNK, m] for term, m in counts.items()]

    def bound(cursor: list) -> float:
        return cursor[3] * weights[cursor[0]]

    def exact(ordinal: int) -> float:
        score = 0.0
        for weight_of in in_query_order:
            score += weight_of.get(ordinal, 0.0)
        return score

    partial: dict = {}  # ordinal -> sum of its walked postings' weights
    exact_scores: dict = {}  # ordinal -> score, for the documents rescored
    top: list = []  # min-heap of the k best exact scores
    while cursors:
        cursor = max(cursors, key=bound)
        start, end, size, m = cursor
        stop = min(start + size, end)
        if stop == end:
            cursors.remove(cursor)
        else:
            cursor[0], cursor[2] = stop, 2 * size
        rest = sum(map(bound, cursors))
        get = partial.get
        for ordinal, weight in zip(ordinals[start:stop], weights[start:stop]):
            if ordinal in exact_scores:
                continue
            partial[ordinal] = score = get(ordinal, 0.0) + m * weight
            if len(top) < k or (score + rest) * _PRUNE_SLACK >= top[0]:
                exact_scores[ordinal] = score = exact(ordinal)
                (heapq.heappush if len(top) < k else heapq.heappushpop)(top, score)
        if len(top) == k and top[0] > rest * _PRUNE_SLACK:
            break
    if not top:
        return EMPTY_BUNDLE
    # Every document scoring at or above the k-th best score, ranked exactly.
    kth = top[0]
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
    documents; the result is truncated to at most k entries.  More than k
    distinct gold documents raise ValueError.
    """
    gold_by_id = {}
    for doc in gold:
        gold_by_id.setdefault(doc.doc_id, doc)
    if len(gold_by_id) > k:
        raise ValueError(f"gold set size {len(gold_by_id)} exceeds k={k}")
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


def read_jsonl(path: str, error: Callable[[str], Exception]) -> Iterator[Tuple[int, dict]]:
    """Yield ``(line number, object)`` for each non-blank line of a JSON Lines
    file; a line that is not a JSON object raises ``error`` naming the line."""
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise error(f"{path}:{lineno}: invalid JSON ({exc})") from exc
            if not isinstance(row, dict):
                raise error(f"{path}:{lineno}: not a JSON object")
            yield lineno, row


def read_corpus(path: str) -> Iterable[Document]:
    """Stream a JSONL corpus with keys "id", "title", "text"."""
    for lineno, row in read_jsonl(path, CorpusError):
        try:
            doc = Document(str(row["id"]), str(row["title"]), str(row["text"]))
        except KeyError as exc:
            raise CorpusError(f"{path}:{lineno}: missing key {exc}") from exc
        if not doc.text:
            raise CorpusError(f"{path}:{lineno}: document text is empty")
        yield doc


def save_index(index: Index, path: str) -> None:
    """Write the index in format v4, one file holding, in this order:

    - the line ``graphfc-index``;
    - one line of JSON header: ``version`` 4, ``k1``, ``b``, ``doc_count``,
      ``avg_doc_length``, the ``terms`` and each term's posting ``ends`` (its
      postings are those from the previous term's end to its own), and the
      byte length of the document blob, ``documents_bytes``;
    - every posting's ordinal as one little-endian uint32 array, in term order
      and, within a term, in impact order: descending weight, ties by
      ascending ordinal;
    - the postings' BM25 weights as one little-endian float64 array, in the
      same order;
    - the document blob: zlib-compressed, the byte length of every document's
      id, title and text as little-endian uint32s, then those fields' UTF-8
      bytes (DocumentTable.to_bytes).

    Term frequencies and document lengths are not stored: the weights are
    all a search reads.  The same index always gives the same bytes.  The
    file is written under a temporary name in the same directory and then
    renamed over ``path``, so a failed write leaves any old file as it was.
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
    partial = f"{path}.{os.getpid()}-{os.urandom(4).hex()}.tmp"
    handle = open(partial, "xb")
    try:
        with handle:
            handle.write(_MAGIC_LINE)
            handle.write(json.dumps(header, ensure_ascii=False).encode("utf-8") + b"\n")
            _little_endian(index.ordinals).tofile(handle)
            _little_endian(index.weights).tofile(handle)
            handle.write(blob)
        os.replace(partial, path)
    except BaseException:
        os.remove(partial)
        raise


def _rebuild_error(path: str, version) -> CorpusError:
    return CorpusError(
        f"{path}: unsupported index format version {version} (this graphfc reads "
        f"version {INDEX_VERSION}); re-run `graphfc index` to rebuild it"
    )


def _foreign_file_error(path: str, data: bytes) -> CorpusError:
    """The error for a file without the magic line of the binary formats,
    whose content is ``data``: an index of an older format when it is JSON
    carrying the graphfc magic, otherwise not an index at all."""
    try:
        payload = json.loads(data)
    except ValueError:
        payload = None
    if isinstance(payload, dict) and payload.get("magic") == INDEX_MAGIC:
        return _rebuild_error(path, payload.get("version"))
    return CorpusError(f"{path}: not a graphfc index file")


def _read_header(path: str, line: bytes) -> dict:
    """The header, checked for the keys and value types load_index uses."""
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
