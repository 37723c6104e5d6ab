"""BM25 inverted index over a JSONL document corpus, plus evidence assembly.

The index is built in one pass and immutable afterwards, apart from caches
that are safe to fill concurrently, so concurrent searches are safe.  Scoring
is classic Okapi BM25 with the +1-smoothed natural-log IDF.  Every posting's
query-independent BM25 weight is computed once, when the index is built, and
stored in the index file (format v7), so loading an index computes nothing
per posting.  Each term's postings are stored in impact order, largest weight
first (Anh & Moffat, 2006), so the unwalked rest of a list is bounded by its
next weight, and equal weights sit next to each other: each run of them is
stored as its length and the position of its weight in one table of every
distinct weight.  Search is exact top-k by the threshold algorithm (Fagin,
Lotem & Naor, 2003): it walks the lists a chunk at a time, scores every
document it reaches exactly, and stops once the k-th best score beats
everything the unwalked postings could add, so the tails of long lists (the
stopwords') are not walked.  Scoring a document reads its weight in every
query term, so each term's weights are held for lookup by ordinal, built on
the term's first use: a common term's as one slot per document, a rarer
term's as a dict of the documents that hold it.  A loaded index leaves the
documents' compressed streams in its file and reads each on first use.
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
import weakref
import zlib
from array import array
from dataclasses import dataclass
from collections.abc import Sequence
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75
CONCAT_SEPARATOR = "\n"
GOLD_SCORE = float("inf")
# Relative margin on the stop rule in ``search``, which compares exact scores
# summed in query order with bounds summed in another order.  A float sum of
# n positive weights is within n ulps of any reordering of it, so 1e-9 covers
# queries of millions of terms and is far below the score gaps that matter.
_PRUNE_SLACK = 1.0 + 1e-9
# Postings in a term's first chunk in ``search``; each later chunk of the
# same term is twice the size of the one before.
_FIRST_CHUNK = 8
# ``Index.postings`` holds a term's weights as a row, a list of one slot per
# document, when the term is in more than one document in _ROW_SHARE.  A row
# costs 8 bytes per document, a pointer per slot (the weights are shared
# float objects), so 64 bytes per posting for a term in one document in 8.
# An ordinal -> weight dict costs 60 to 90 bytes per posting: 30 to 60 in
# its hash table, by how full the table is, and 32 for the boxed ordinal key.
_ROW_SHARE = 8

INDEX_MAGIC = "graphfc-index"
INDEX_VERSION = 7
# An index file starts with this line, then one line of JSON header.
_MAGIC_LINE = (INDEX_MAGIC + "\n").encode()
# How the document streams are compressed.  Deflate's fixed Huffman codes
# spare each first read the decoding of its stream's own code tables, which
# cuts the time to inflate a document by a third or more; at 20k documents
# the streams are 3.5% larger than with dynamic codes.  Level 6 makes them 1%
# smaller than level 5 and 6% smaller than level 4.
_ZLIB_LEVEL = 6
_ZLIB_STRATEGY = zlib.Z_FIXED
# The shared deflate dictionary fills deflate's 32 KiB window, from the words
# of at most about this many documents.
_DICTIONARY_BYTES = 32 * 1024
_DICTIONARY_SAMPLE = 2000

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


# The array typecode of each width, in bytes, that an index file stores
# integers at.
_TYPECODES = {1: "B", 2: "H", 4: "I"}


def _width(largest: int) -> int:
    """The fewest bytes, of 1, 2 or 4, that hold every integer from 0 to
    ``largest``."""
    return 1 if largest < 1 << 8 else 2 if largest < 1 << 16 else 4


def _little_endian(values: array) -> array:
    """``values`` with its items in little-endian byte order: itself on a
    little-endian host, a byte-swapped copy otherwise (swapping is its own
    inverse, so this serves reading and writing alike)."""
    if sys.byteorder == "big":
        values = array(values.typecode, values)
        values.byteswap()
    return values


def _encode(text: str) -> bytes:
    return text.encode("utf-8", "surrogatepass")


def _deflate_dictionary(documents: Sequence[Document]) -> bytes:
    """The dictionary every document's stream is primed with: the words of
    an evenly spaced sample of ``documents``, each followed by a space, most
    frequent first until ``_DICTIONARY_BYTES``, then reversed, because
    deflate reaches the end of its window with the shortest distances.
    Ties go by word, so the same corpus gives the same dictionary."""
    counts: collections.Counter = collections.Counter()
    for doc in documents[::max(1, len(documents) // _DICTIONARY_SAMPLE)]:
        counts.update(doc.title.split())
        counts.update(doc.text.split())
    words, size = [], 0
    for word in sorted(counts, key=lambda word: (-counts[word], word)):
        entry = _encode(word + " ")
        if size + len(entry) > _DICTIONARY_BYTES:
            break
        words.append(entry)
        size += len(entry)
    return b"".join(reversed(words))


class DocumentTable(Sequence):
    """The indexed documents in ordinal order.

    ``ids`` holds every doc_id.  Each document's title and text are stored
    as one raw-deflate stream primed with ``dictionary``: inflated, the
    title's UTF-8 byte length as a little-endian uint32, then the title's
    and the text's UTF-8 bytes.  ``ends[i]`` is where document i's stream
    ends among the streams (it starts where document i - 1's ends), and
    ``crcs[i]`` is the CRC-32 of its inflated bytes.  ``read(start, end)``
    returns the streams' bytes from ``start`` to ``end``: a table made by
    ``of`` slices them in memory, and a loaded one (``in_file``) reads them
    from its index file, where they stay.  A document is read, inflated,
    checked and built the first time it is read, then kept (see ``Index`` on
    why that is safe from any thread).  ``source`` names the file in the
    errors raised for a corrupt document or posting.
    """

    def __init__(self, ids: List[str], dictionary: bytes, ends: array, crcs: array,
                 read: Callable[[int, int], bytes], source: str):
        self.ids = ids
        self.dictionary = dictionary
        self.ends = ends
        self.crcs = crcs
        self.read = read
        self.source = source
        self._built: List[Optional[Document]] = [None] * len(ids)

    @classmethod
    def of(cls, documents: Sequence[Document]) -> "DocumentTable":
        """The table of ``documents``, in order, each compressed."""
        dictionary = _deflate_dictionary(documents)
        primed = zlib.compressobj(_ZLIB_LEVEL, zlib.DEFLATED, -15, 8, _ZLIB_STRATEGY, zdict=dictionary)
        streams, crcs = [], array("I")
        for doc in documents:
            title = _encode(doc.title)
            raw = len(title).to_bytes(4, "little") + title + _encode(doc.text)
            deflater = primed.copy()
            streams.append(deflater.compress(raw) + deflater.flush())
            crcs.append(zlib.crc32(raw))
        ends = array("I", itertools.accumulate(map(len, streams)))
        joined = b"".join(streams)
        return cls([doc.doc_id for doc in documents], dictionary, ends, crcs,
                   lambda start, end: joined[start:end], "index")

    @classmethod
    def in_file(cls, handle, source: str, ids: List[str], dictionary: bytes, ends: array,
                crcs: array) -> "DocumentTable":
        """The table whose streams lie in the open index file ``handle``,
        from its current position on.  The table reads a stream with one
        ``os.pread`` from its own duplicate of the file's descriptor, which
        it closes when it is collected.  So it keeps reading the file it was
        loaded from after that file is renamed over or deleted, and reads
        from any thread, or forked process, share no file offset and need no
        lock.  A read that fails or comes up short (the file was cut in
        place) raises CorpusError naming ``source``."""
        offset = handle.tell()
        descriptor = os.dup(handle.fileno())

        def read(start: int, end: int) -> bytes:
            try:
                data = os.pread(descriptor, end - start, offset + start)
            except OSError as exc:
                raise CorpusError(f"{source}: cannot read the document streams ({exc})") from None
            if len(data) != end - start:
                raise CorpusError(f"{source}: index file is truncated")
            return data

        table = cls(ids, dictionary, ends, crcs, read, source)
        weakref.finalize(table, os.close, descriptor)
        return table

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, ordinal: int) -> Document:
        doc = self._built[ordinal]  # IndexError past either end
        if doc is None:
            ordinal %= len(self._built)
            stream = self.read(self.ends[ordinal - 1] if ordinal else 0, self.ends[ordinal])
            inflater = zlib.decompressobj(-15, zdict=self.dictionary)
            try:
                raw = inflater.decompress(stream)
                if not inflater.eof or inflater.unused_data or zlib.crc32(raw) != self.crcs[ordinal]:
                    raise ValueError("its CRC-32 does not match")
                title_end = 4 + int.from_bytes(raw[:4], "little")
                doc = Document(
                    self.ids[ordinal],
                    raw[4:title_end].decode("utf-8", "surrogatepass"),
                    raw[title_end:].decode("utf-8", "surrogatepass"),
                )
            except (zlib.error, ValueError) as exc:  # UnicodeDecodeError is a ValueError
                raise CorpusError(f"{self.source}: corrupt document {ordinal} ({exc})") from None
            self._built[ordinal] = doc
        return doc


class Index:
    """Inverted index with BM25 search, one representation whether built or
    loaded.

    ``terms`` numbers every term, and term i's postings are the slice
    ``bounds[i]:bounds[i + 1]`` of the flat array ``ordinals``: the
    documents holding the term, in impact order (descending
    query-independent BM25 weight, ties by ascending ordinal); the slice's
    length is the term's document frequency.  The weights are stored as runs
    of equal weight: ``weight_table`` (float64) holds every distinct weight
    once, largest first; run j covers ``run_lengths[j]`` postings and holds
    the weight ``weight_table[run_codes[j]]``; term i's runs are
    ``run_starts[i]:run_starts[i + 1]`` (uint32), and cover its postings in
    order.  Runs never cross a term's end, and within a term each run's
    weight is below the one before, so a term's first run holds its largest
    weight.  ``ordinals``, ``run_codes`` and ``run_lengths`` are each held at
    the narrowest of 1, 2 or 4 bytes that holds their largest value
    (``_width``).  build_index computes the weights with the operations of
    ``bm25_term_score`` in the same order, so a search only adds them up and
    its scores are bit-identical to summing ``bm25_term_score`` per posting.
    The weights are stored in the index file, so they are fixed at build
    time.

    The index is immutable after construction apart from three caches: the
    weights ``postings`` lays out for lookup by ordinal the first time a term
    is used, the documents ``documents`` inflates when first read, and
    the doc_id -> ordinal dict ``get_document`` builds on its first call.
    Filling them is idempotent: two threads touching a term, a document or
    the dict at once build equal values and either may keep its own, so
    concurrent searches are safe.
    """

    def __init__(self, documents: DocumentTable, terms, bounds, ordinals, weight_table, run_starts,
                 run_codes, run_lengths, k1, b, avg_doc_length):
        self.documents = documents
        if not documents:
            raise CorpusError("index has no documents")
        self.terms: dict = terms  # term -> its number
        self.bounds: array = bounds  # uint32: 0, then each term's end in ordinals
        self.ordinals: array = ordinals
        self.weight_table: array = weight_table
        self.run_starts: array = run_starts  # uint32: each term's first run, then the run count
        self.run_codes: array = run_codes
        self.run_lengths: array = run_lengths
        self.k1 = k1
        self.b = b
        self.doc_count = len(self.documents)
        self.avg_doc_length = avg_doc_length
        self._by_id: Optional[dict] = None  # doc_id -> ordinal
        self._postings: dict = {}  # term -> its weights by ordinal, a row or a dict

    def postings(self, term: str) -> Optional[list | dict]:
        """``term``'s weights by ordinal, or None for a term no document
        holds.  A term in more than one document in ``_ROW_SHARE`` gets a
        row: a list of one slot per document, holding 0.0 for a document
        without the term.  Any other term gets an ordinal -> weight dict of
        the documents holding it, in impact order.  Either way the postings
        of one run share its weight's float object, and every weight is
        above 0.0, so looking a document up in the row, or in the dict with
        0.0 as the default, gives the same float.  Raises
        CorpusError naming the file, on the term's first use rather than at
        load, if the term's runs do not partition its postings, if its
        weights do not strictly fall from run to run and stay above 0.0 or a
        code lies past the weight table, or if it names a document twice or
        names no document (a corrupt file)."""
        entry = self._postings.get(term)
        if entry is None:
            number = self.terms.get(term)
            if number is None:
                return None
            start, end = self.bounds[number], self.bounds[number + 1]
            first, last = self.run_starts[number], self.run_starts[number + 1]
            codes, lengths = self.run_codes[first:last], self.run_lengths[first:last]
            if not codes or sum(lengths) != end - start or not all(lengths):
                raise self._corrupt(term, "has weight runs that do not partition its postings")
            table = self.weight_table
            try:
                weights = [table[code] for code in codes]
            except IndexError:  # a code past the table
                weights = []
            # Strictly falling and above 0.0, which a NaN also fails.
            if len(weights) != len(codes) or not all(map(operator.gt, weights, [*weights[1:], 0.0])):
                raise self._corrupt(term, "has weight runs out of impact order")
            ordinals = self.ordinals[start:end]
            weighted = itertools.chain.from_iterable(map(itertools.repeat, weights, lengths))
            if _ROW_SHARE * (end - start) > self.doc_count:
                entry = [0.0] * self.doc_count
                try:  # the deque only drives the map, which fills the row
                    collections.deque(map(entry.__setitem__, ordinals, weighted), maxlen=0)
                except IndexError:  # an ordinal past the row
                    raise self._past_the_end(term, ordinals) from None
                held = self.doc_count - entry.count(0.0)  # every stored weight is > 0
            else:
                entry = dict(zip(ordinals, weighted))
                if max(entry) >= self.doc_count:  # the keys, already boxed, are quicker to scan
                    raise self._past_the_end(term, ordinals)
                held = len(entry)
            if held != end - start:
                raise self._corrupt(term, "names a document twice")
            self._postings[term] = entry
        return entry

    def _past_the_end(self, term: str, ordinals: array) -> CorpusError:
        return self._corrupt(term, f"names document {max(ordinals)}, past the last of {self.doc_count}")

    def _corrupt(self, term: str, problem: str) -> CorpusError:
        return CorpusError(f"corrupt index: term {term!r} {problem}, in {self.documents.source}")

    def get_document(self, doc_id: str) -> Optional[Document]:
        if self._by_id is None:  # only gold evidence looks documents up by id
            self._by_id = dict(zip(self.documents.ids, range(self.doc_count)))
        ordinal = self._by_id.get(doc_id)
        return None if ordinal is None else self.documents[ordinal]


def build_index(corpus: Iterable[Document], k1: float = DEFAULT_K1, b: float = DEFAULT_B) -> Index:
    """Index ``title + " " + text`` of every document.

    Raises CorpusError on an empty corpus, one in which no document holds a
    token, or a duplicate doc_id, and ValueError for out-of-range BM25
    parameters.
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
    if not postings:
        raise CorpusError("no document holds a token")
    avg_doc_length = sum(doc_lengths) / len(documents)
    norms = [k1 * (1.0 - b + b * n / avg_doc_length) for n in doc_lengths]
    scale = k1 + 1.0
    bounds, run_starts = array("I", [0]), array("I", [0])
    ordinals = array(_TYPECODES[_width(len(documents) - 1)])
    run_weights: List[float] = []
    run_ends: List[int] = []
    for term_ordinals, tfs in postings.values():
        idf = bm25_idf(len(documents), len(term_ordinals))
        # Impact order: a stable sort keeps equal weights in ascending ordinal order.
        ranked = sorted(
            zip([idf * tf * scale / (tf + norms[o]) for o, tf in zip(term_ordinals, tfs)], term_ordinals),
            key=operator.itemgetter(0), reverse=True,
        )
        ordinals.extend([ordinal for _, ordinal in ranked])
        weights = [weight for weight, _ in ranked]
        # A run ends where the next weight differs, and at the term's end.
        run_last = [*map(operator.ne, weights, itertools.islice(weights, 1, None)), True]
        run_weights.extend(itertools.compress(weights, run_last))
        run_ends.extend(itertools.compress(itertools.count(bounds[-1] + 1), run_last))
        bounds.append(bounds[-1] + len(term_ordinals))
        run_starts.append(len(run_ends))
    # Every distinct weight once, largest first, so each term's codes rise.
    weight_table = array("d", sorted(set(run_weights), reverse=True))
    code_of = dict(zip(weight_table, itertools.count()))
    run_lengths = list(map(operator.sub, run_ends, itertools.chain((0,), run_ends)))
    terms = dict(zip(postings, itertools.count()))
    return Index(
        DocumentTable.of(documents), terms, bounds, ordinals, weight_table, run_starts,
        array(_TYPECODES[_width(len(weight_table) - 1)], map(code_of.__getitem__, run_weights)),
        array(_TYPECODES[_width(max(run_lengths))], run_lengths), k1, b, avg_doc_length,
    )


def search(index: Index, query: str, k: int) -> EvidenceBundle:
    """Exact top-k Okapi BM25 search that stops before the tails of long
    posting lists.

    Only documents containing at least one query term are scored; duplicate
    query terms contribute once per occurrence.  Results are ordered by score
    descending with ties broken by ascending doc_id.  An empty query yields an
    empty bundle.

    A term's postings are in impact order, so what its unwalked postings can
    add to a score is bounded by its multiplicity times its next weight.  The
    search walks each term's stored ordinals, one chunk at a time
    (``_FIRST_CHUNK``, then twice the size of the term's previous chunk),
    from the term whose unwalked postings have the largest bound.  Every
    document the walk reaches is scored exactly once, term by term in query
    order, by looking it up in each term's weights from ``Index.postings``
    (a row's slot, or a dict's entry with 0.0 for a missing one; adding 0.0
    changes no score), so every returned score is bit-identical to summing
    ``bm25_term_score`` per posting.  The search stops once the k-th best
    score beats the sum of the unwalked bounds: a document not yet reached
    cannot score more than that sum, so it cannot reach the top k, not even
    in a tie.  The comparison carries the relative margin ``_PRUNE_SLACK``,
    because the bounds add in another order than the exact scores and a near
    tie may swap sides by rounding.  A query of stopwords only walks most of
    its postings.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    terms = [term for term in tokenize(query) if term in index.terms]
    counts = collections.Counter(terms)
    postings = {term: index.postings(term) for term in counts}
    in_query_order = [postings[term] for term in terms]
    ordinals, bounds = index.ordinals, index.bounds
    # Per term not yet walked to its end: [the bound on its unwalked
    # postings, the position in ordinals of its next posting, its end there,
    # chunk size, multiplicity, its weights].
    cursors = []
    for term, m in counts.items():
        number, weights = index.terms[term], postings[term]
        start = bounds[number]
        cursors.append([m * weights[ordinals[start]], start, bounds[number + 1], _FIRST_CHUNK, m, weights])
    bound = operator.itemgetter(0)

    def exact(ordinal: int) -> float:
        score = 0.0
        for weight_of in in_query_order:  # a row's absent slots hold 0.0, as get's default
            score += weight_of[ordinal] if weight_of.__class__ is list else weight_of.get(ordinal, 0.0)
        return score

    exact_scores: dict = {}  # ordinal -> exact score, for every walked document
    top: list = []  # min-heap of the k best exact scores
    while cursors:
        cursor = max(cursors, key=bound)
        _, start, end, size, m, weights = cursor
        stop = min(start + size, end)
        if stop == end:
            cursors.remove(cursor)
        else:
            cursor[:4] = m * weights[ordinals[stop]], stop, end, 2 * size
        for ordinal in ordinals[start:stop]:
            if ordinal not in exact_scores:
                exact_scores[ordinal] = score = exact(ordinal)
                (heapq.heappush if len(top) < k else heapq.heappushpop)(top, score)
        if len(top) == k and top[0] > sum(map(bound, cursors)) * _PRUNE_SLACK:
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
    file; a line that is not UTF-8 or not a JSON object raises ``error``
    naming the line."""
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise error(f"{path}:{lineno}: not UTF-8 ({exc})") from exc
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
    """Write the index in format v7, one file holding, in this order:

    - the line ``graphfc-index``;
    - one line of JSON header: ``version`` 7, ``k1``, ``b``, ``doc_count``,
      ``avg_doc_length``, ``weight_count`` (the number of distinct weights),
      ``run_count`` (the number of weight runs), ``widths`` (the bytes per
      item, 1, 2 or 4, of the ``ordinals``, the run ``codes`` and the run
      ``lengths``), and the byte lengths of the sections whose length
      nothing else gives: ``terms_bytes``, ``ids_bytes`` and
      ``dictionary_bytes``;
    - the terms' UTF-8 bytes, joined by ``\\n`` (no term holds whitespace);
    - each term's posting end as one little-endian uint32 array: its
      postings are those from the previous term's end to its own;
    - every posting's ordinal as one little-endian array of unsigned
      integers of the ordinals' width, in term order and, within a term, in
      impact order: descending weight, ties by ascending ordinal;
    - the postings' BM25 weights as runs of equal weight, in the same order.
      A run ends at every change of weight and at every term's end.  They
      are stored as the weight table, every distinct weight once as one
      little-endian float64 array in strictly descending order; each term's
      run end (the next term's first run number) as one little-endian uint32
      array: its runs are those from the previous term's end to its own;
      then each run's code, the position of its weight in the table, and
      each run's length, its number of postings, as two little-endian arrays
      of unsigned integers of their widths;
    - the doc_ids, in ordinal order, as a zlib-compressed ASCII JSON array;
    - the deflate dictionary the document streams are primed with;
    - each document stream's end, then each document's CRC-32, as two
      little-endian uint32 arrays of ``doc_count`` items;
    - the document streams, one after another (see DocumentTable); a loaded
      index's are read from the file it was loaded from.

    Each width is the narrowest of 1, 2 or 4 bytes that holds the largest
    value of its array: ``doc_count - 1`` for the ordinals.  Term frequencies
    and document lengths are not stored: the weights are all a search reads.
    A run costs its code and its length (3 bytes for a 2-byte code and a
    1-byte length) where a weight stored per posting cost 8, plus 8 bytes
    per distinct weight and 4 per term.  The same index always gives the
    same bytes.  The file is written under a temporary name in the same
    directory and then renamed over ``path``, so a failed write leaves any
    old file as it was.
    """
    documents = index.documents
    terms = "\n".join(index.terms).encode("utf-8")
    ids = zlib.compress(json.dumps(documents.ids).encode("ascii"))
    header = {
        "version": INDEX_VERSION,
        "k1": index.k1,
        "b": index.b,
        "doc_count": index.doc_count,
        "avg_doc_length": index.avg_doc_length,
        "weight_count": len(index.weight_table),
        "run_count": len(index.run_codes),
        "widths": {
            "ordinals": index.ordinals.itemsize,
            "codes": index.run_codes.itemsize,
            "lengths": index.run_lengths.itemsize,
        },
        "terms_bytes": len(terms),
        "ids_bytes": len(ids),
        "dictionary_bytes": len(documents.dictionary),
    }
    partial = f"{path}.{os.getpid()}-{os.urandom(4).hex()}.tmp"
    handle = open(partial, "xb")
    try:
        with handle:
            handle.write(_MAGIC_LINE)
            handle.write(json.dumps(header).encode("ascii") + b"\n")
            handle.write(terms)
            _little_endian(index.bounds[1:]).tofile(handle)
            _little_endian(index.ordinals).tofile(handle)
            _little_endian(index.weight_table).tofile(handle)
            _little_endian(index.run_starts[1:]).tofile(handle)
            _little_endian(index.run_codes).tofile(handle)
            _little_endian(index.run_lengths).tofile(handle)
            handle.write(ids)
            handle.write(documents.dictionary)
            _little_endian(documents.ends).tofile(handle)
            _little_endian(documents.crcs).tofile(handle)
            handle.write(documents.read(0, documents.ends[-1]))
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
    sizes = [header.get(key) for key in (
        "doc_count", "weight_count", "run_count", "terms_bytes", "ids_bytes", "dictionary_bytes",
    )]
    widths = header.get("widths")
    if not (
        set(map(type, sizes)) <= {int} and min(sizes) >= 0
        and {type(header.get(key)) for key in ("k1", "b", "avg_doc_length")} <= {int, float}
        and isinstance(widths, dict) and sorted(widths) == ["codes", "lengths", "ordinals"]
        and all(type(width) is int and width in _TYPECODES for width in widths.values())
    ):
        raise CorpusError(f"{path}: corrupt index header")
    return header


def load_index(path: str) -> Index:
    """Read an index in format v7, as written by save_index.

    Raises CorpusError naming ``path`` for a file that is not a graphfc
    index, for another format version (older files, JSON ones included, must
    be rebuilt), for a file that is truncated, longer than its header says or
    otherwise corrupt, and for an index with no documents.  The document
    streams are left in the file: the index keeps the file open and reads
    each document's stream when that document is first read
    (``DocumentTable.in_file``).  So the file must not be rewritten in place
    while the index is in use; save_index replaces it by a rename, which is
    safe.  A corrupt or unreadable document stream raises CorpusError when
    that document is first read, and a term whose weight runs do not
    partition its postings or are out of impact order, or whose postings
    name a document twice or name no document, when the term is first used.
    """
    with open(path, "rb") as handle:
        magic = handle.read(len(_MAGIC_LINE))
        if magic != _MAGIC_LINE:  # read the rest only if it may be a JSON index
            raise _foreign_file_error(path, magic + handle.read() if magic[:1] == b"{" else b"")
        header = _read_header(path, handle.readline())
        file_bytes = os.fstat(handle.fileno()).st_size

        def check_left(size: int) -> None:  # before allocating what a corrupt size asks for
            if size > file_bytes - handle.tell():
                raise CorpusError(f"{path}: index file is truncated")

        def read(size: int) -> bytes:
            check_left(size)
            return handle.read(size)

        def read_array(typecode: str, count: int) -> array:
            zero = array(typecode, [0])
            check_left(count * zero.itemsize)
            values = zero * count
            handle.readinto(values)  # in place: fromfile reads a copy first, 5x slower here
            return _little_endian(values)

        try:
            terms_blob = read(header["terms_bytes"]).decode("utf-8")
        except UnicodeDecodeError:
            raise CorpusError(f"{path}: corrupt term list") from None
        terms = terms_blob.split("\n") if terms_blob else []
        bounds = array("I", [0]) + read_array("I", len(terms))
        if not all(map(operator.lt, bounds, itertools.islice(bounds, 1, None))):
            raise CorpusError(f"{path}: corrupt term list")  # a term without postings
        widths = header["widths"]
        ordinals = read_array(_TYPECODES[widths["ordinals"]], bounds[-1])
        weight_table = read_array("d", header["weight_count"])
        run_starts = array("I", [0]) + read_array("I", len(terms))
        if run_starts[-1] != header["run_count"]:
            raise CorpusError(f"{path}: corrupt weight runs")  # the last term's runs must end the runs
        run_codes = read_array(_TYPECODES[widths["codes"]], header["run_count"])
        run_lengths = read_array(_TYPECODES[widths["lengths"]], header["run_count"])
        ids_blob = read(header["ids_bytes"])
        try:
            ids = json.loads(zlib.decompress(ids_blob))
        except (zlib.error, ValueError):
            ids = None
        if not (isinstance(ids, list) and len(ids) == header["doc_count"] and set(map(type, ids)) <= {str}):
            raise CorpusError(f"{path}: corrupt doc_id list")
        dictionary = read(header["dictionary_bytes"])
        document_ends = read_array("I", len(ids))
        crcs = read_array("I", len(ids))
        streams_bytes = document_ends[-1] if ids else 0
        check_left(streams_bytes)
        if streams_bytes < file_bytes - handle.tell():
            raise CorpusError(f"{path}: index file is longer than its header says")
        numbers = dict(zip(terms, itertools.count()))
        if len(numbers) != len(terms):
            raise CorpusError(f"{path}: corrupt term list")  # a term listed twice
        documents = DocumentTable.in_file(handle, path, ids, dictionary, document_ends, crcs)
    return Index(
        documents, numbers, bounds, ordinals, weight_table, run_starts, run_codes, run_lengths,
        header["k1"], header["b"], header["avg_doc_length"],
    )
