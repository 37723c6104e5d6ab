"""BM25 inverted index over a JSONL document corpus, plus evidence assembly.

The index is built in one pass and immutable afterwards, apart from caches
that are safe to fill concurrently, so concurrent searches are safe.  Scoring
is classic Okapi BM25 with the +1-smoothed natural-log IDF.  Every posting's
query-independent BM25 weight is computed once, when the index is built, and
stored in the index file (``save_index`` gives its layout), so loading an
index computes nothing per posting.  Each term's postings are stored in
impact order, largest weight first (Anh & Moffat, 2006), so the unwalked rest
of a list is bounded by its next weight.  Search is exact top-k by the
threshold algorithm (Fagin, Lotem & Naor, 2003): it walks the lists a chunk
at a time, scores every document it reaches exactly, and stops once the k-th
best score beats everything the unwalked postings could add, so the tails of
long lists (the stopwords') are not walked.  Scoring a document reads its
weight in every query term, so each term's weights are held for lookup by
ordinal, built on the term's first use: a common term's as one slot per
document, a rarer term's as a dict of the documents that hold it.  The
terms and the doc_ids are held as string tables, one ``bytes`` each, so an
index holds no Python object per term or document until one is used.  A
loaded index leaves the documents' compressed streams in its file and reads
each on first use.
"""

from __future__ import annotations

import bisect
import collections
import functools
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
INDEX_VERSION = 10
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
# The sections of an index file, in file order, each with the typecodes its
# items may have: "B", "H" or "I" (``_NARROWEST``: the narrowest that holds
# the section's largest item), "I" or "d" alone, or "" for bytes.  The
# header gives each section's typecode and item count.
_NARROWEST = tuple(_TYPECODES.values())
_SECTIONS = (
    ("term_lengths", _NARROWEST), ("terms", ("",)), ("term_ends", ("I",)), ("ordinals", _NARROWEST),
    ("weights", ("d",)), ("run_ends", ("I",)), ("run_codes", _NARROWEST), ("run_lengths", _NARROWEST),
    ("id_lengths", _NARROWEST), ("ids", ("",)), ("dictionary", ("",)), ("document_ends", ("I",)),
    ("document_crcs", ("I",)),
)
# ``StringTable.find`` bisects a list of every _SAMPLED-th string's bytes in
# C, then the one block of strings that can hold the key.
_SAMPLED = 64


def _width(largest: int) -> int:
    """The fewest bytes, of 1, 2 or 4, that hold every integer from 0 to
    ``largest``."""
    return 1 if largest < 1 << 8 else 2 if largest < 1 << 16 else 4


def _little_endian(values):
    """``values`` with its items in little-endian byte order: itself when
    it is bytes or the host is little-endian, a byte-swapped copy otherwise
    (swapping is its own inverse, so this serves reading and writing
    alike)."""
    if sys.byteorder == "big" and isinstance(values, array):
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


class StringTable(Sequence):
    """Strings held as one ``bytes``, ``blob``, of their UTF-8 encodings one
    after another, and an array of where each starts, so that the table
    holds no Python object per string: string i is
    ``blob[starts[i]:starts[i + 1]]``, decoded each time it is read.  The
    encoding passes lone surrogates through, so any str round-trips.
    ``find`` looks a string up by bisection, so it needs the strings in
    ascending order; UTF-8 byte order is code point order, ``sorted``'s
    order for str.  ``sampled`` holds every ``_SAMPLED``-th string's bytes,
    for ``find``.
    """

    def __init__(self, blob: bytes, lengths: Iterable[int]):
        self.blob = blob
        self.starts = array("I", itertools.accumulate(lengths, initial=0))
        self.sampled = [self.encoded(position) for position in range(0, len(self), _SAMPLED)]

    @classmethod
    def of(cls, strings: Iterable[str]) -> "StringTable":
        encoded = list(map(_encode, strings))
        return cls(b"".join(encoded), map(len, encoded))

    def lengths(self) -> array:
        """Each string's UTF-8 byte length, at the narrowest width that
        holds the longest."""
        lengths = list(map(operator.sub, itertools.islice(self.starts, 1, None), self.starts))
        return array(_TYPECODES[_width(max(lengths, default=0))], lengths)

    def __len__(self) -> int:
        return len(self.starts) - 1

    def encoded(self, position: int) -> bytes:
        """The UTF-8 bytes of string ``position``, from 0 to ``len - 1``."""
        return self.blob[self.starts[position]:self.starts[position + 1]]

    def __getitem__(self, position: int) -> str:
        starts = self.starts
        if not 0 <= position < len(starts) - 1:
            position = range(len(starts) - 1)[position]  # from the end, or IndexError
        return self.blob[starts[position]:starts[position + 1]].decode("utf-8", "surrogatepass")

    def find(self, string: str) -> Optional[int]:
        """The position of ``string``, or None for a string not in the table."""
        key = _encode(string)
        blob, starts, count = self.blob, self.starts, len(self)
        end = bisect.bisect_right(self.sampled, key) * _SAMPLED  # past the block that may hold it
        low, high = max(0, end - _SAMPLED), min(end, count)
        while low < high:  # bisect_left over the block, slicing in line: a call per probe costs more
            middle = (low + high) // 2
            if blob[starts[middle]:starts[middle + 1]] < key:
                low = middle + 1
            else:
                high = middle
        return low if low < count and blob[starts[low]:starts[low + 1]] == key else None


class DocumentTable(Sequence):
    """The indexed documents in ordinal order.

    ``ids`` holds every doc_id, as a ``StringTable``, and ``dictionary``,
    ``ends`` and ``crcs`` the streams' deflate dictionary, ends and CRC-32s
    as ``save_index`` lays them out: document i's stream ends at
    ``ends[i]`` among the streams and starts where document i - 1's ends.  ``read(start, end)``
    returns the streams' bytes from ``start`` to ``end``: a table made by
    ``of`` slices them in memory, and a loaded one (``in_file``) reads them
    from its index file, where they stay.  A document is read, inflated,
    checked and built the first time it is read, then kept (see ``Index`` on
    why that is safe from any thread).  ``source`` names the file in the
    errors raised for a corrupt document.
    """

    def __init__(self, ids: StringTable, dictionary: bytes, ends: array, crcs: array,
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
        return cls(StringTable.of(doc.doc_id for doc in documents), dictionary, ends, crcs,
                   lambda start, end: joined[start:end], "index")

    @classmethod
    def in_file(cls, handle, source: str, ids: StringTable, dictionary: bytes, ends: array,
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

    ``terms`` holds every term in UTF-8 byte order, a term's number being
    its position there, and the arrays hold the postings as
    ``save_index`` lays them out, with a 0 before the term ends (``bounds``)
    and before the run ends (``run_starts``): term i's postings are
    ``ordinals[bounds[i]:bounds[i + 1]]``, in impact order, and its weight
    runs are ``run_starts[i]:run_starts[i + 1]``, run j covering
    ``run_lengths[j]`` postings that hold ``weight_table[run_codes[j]]``.
    build_index computes the weights with the operations of
    ``bm25_term_score`` in the same order, at ``DEFAULT_K1`` and
    ``DEFAULT_B``, so a search only adds them up and its scores are
    bit-identical to summing ``bm25_term_score`` per posting.  The weights
    are stored in the index file, so they are fixed at build time.

    The index is immutable after construction apart from three caches: each
    term's number and the weights ``postings`` lays out for lookup by
    ordinal, found the first time the term is used (or that no document
    holds it), the documents ``documents`` inflates when first read, and
    the doc_id -> ordinal dict ``get_document`` builds on its first call.
    Filling them is idempotent: two threads touching a term, a document or
    the dict at once build equal values and either may keep its own, so
    concurrent searches are safe.
    """

    def __init__(self, documents: DocumentTable, terms, bounds, ordinals, weight_table, run_starts,
                 run_codes, run_lengths, avg_doc_length):
        self.documents = documents
        if not documents:
            raise CorpusError("index has no documents")
        self.terms: StringTable = terms
        self.bounds: array = bounds  # uint32: 0, then each term's end in ordinals
        self.ordinals: array = ordinals
        self.weight_table: array = weight_table
        self.run_starts: array = run_starts  # uint32: each term's first run, then the run count
        self.run_codes: array = run_codes
        self.run_lengths: array = run_lengths
        self.doc_count = len(self.documents)
        self.avg_doc_length = avg_doc_length
        self._by_id: Optional[dict] = None  # doc_id -> ordinal
        # term -> its number and its weights by ordinal (a row or a dict), or
        # None for a term no document holds
        self._postings: dict = {}

    def postings(self, term: str) -> Optional[Tuple[int, list | dict]]:
        """``term``'s number and its weights by ordinal, or None for a term
        no document holds.  The number is found by bisection in ``terms``
        the first time, and kept with the weights; a term no document holds
        is kept as None, since queries repeat such tokens (an infilling
        query's mask, say).  A term in more than one document in
        ``_ROW_SHARE`` gets a row: a list of one slot per document, holding
        0.0 for a document without the term.  Any other term gets an
        ordinal -> weight dict of the documents holding it, in impact order.  Either way the postings
        of one run share its weight's float object, and every weight is
        above 0.0, so looking a document up in the row, or in the dict with
        0.0 as the default, gives the same float."""
        if term in self._postings:
            return self._postings[term]
        entry = number = self.terms.find(term)
        if number is not None:
            start, end = self.bounds[number], self.bounds[number + 1]
            first, last = self.run_starts[number], self.run_starts[number + 1]
            weights = map(self.weight_table.__getitem__, self.run_codes[first:last])
            weighted = itertools.chain.from_iterable(map(itertools.repeat, weights, self.run_lengths[first:last]))
            if _ROW_SHARE * (end - start) > self.doc_count:
                weights = [0.0] * self.doc_count
                # The deque only drives the map, which fills the row.
                collections.deque(map(weights.__setitem__, self.ordinals[start:end], weighted), maxlen=0)
            else:
                weights = dict(zip(self.ordinals[start:end], weighted))
            entry = (number, weights)
        self._postings[term] = entry
        return entry

    def get_document(self, doc_id: str) -> Optional[Document]:
        if self._by_id is None:  # only gold evidence looks documents up by id
            self._by_id = dict(zip(self.documents.ids, range(self.doc_count)))
        ordinal = self._by_id.get(doc_id)
        return None if ordinal is None else self.documents[ordinal]


def build_index(corpus: Iterable[Document]) -> Index:
    """Index ``title + " " + text`` of every document.

    Raises CorpusError on an empty corpus, one in which no document holds a
    token, or a duplicate doc_id.
    """
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
    k1, b = DEFAULT_K1, DEFAULT_B
    norms = [k1 * (1.0 - b + b * n / avg_doc_length) for n in doc_lengths]
    scale = k1 + 1.0
    bounds, run_starts = array("I", [0]), array("I", [0])
    ordinals = array(_TYPECODES[_width(len(documents) - 1)])
    run_weights: List[float] = []
    run_ends: List[int] = []
    terms = sorted(postings)  # in UTF-8 byte order, so a term's number is its rank
    for term_ordinals, tfs in map(postings.__getitem__, terms):
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
    return Index(
        DocumentTable.of(documents), StringTable.of(terms), bounds, ordinals, weight_table, run_starts,
        array(_TYPECODES[_width(len(weight_table) - 1)], map(code_of.__getitem__, run_weights)),
        array(_TYPECODES[_width(max(run_lengths))], run_lengths), avg_doc_length,
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
    tokens = tokenize(query)
    counts = collections.Counter(tokens)
    found = {term: entry for term in counts if (entry := index.postings(term)) is not None}
    in_query_order = [found[term][1] for term in tokens if term in found]
    ordinals, bounds = index.ordinals, index.bounds
    # Per term not yet walked to its end: [the bound on its unwalked
    # postings, the position in ordinals of its next posting, its end there,
    # chunk size, multiplicity, its weights].
    cursors = []
    for term, (number, weights) in found.items():
        start, m = bounds[number], counts[term]
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
    # Every document scoring at or above the k-th best score, ranked exactly:
    # by score descending, then by doc_id (UTF-8 byte order is doc_id order).
    kth = top[0]
    ids, starts = index.documents.ids.blob, index.documents.ids.starts
    ranked = sorted(
        (item for item in exact_scores.items() if item[1] >= kth),
        key=lambda item: (-item[1], ids[starts[item[0]]:starts[item[0] + 1]]),
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
    """Write the index in format v10, one file holding, in this order:

    - the line ``graphfc-index``;
    - one line of JSON header: ``version`` 10, ``avg_doc_length``,
      ``sections``, one ``[name, typecode, count]`` per section below, in
      file order as ``_SECTIONS`` names them, and ``crc``, the CRC-32 of
      every byte from the first section through the document CRC-32s, as
      the file holds them.  A section of typecode "" holds ``count`` bytes,
      any other ``count`` little-endian items of the ``array`` typecode.  So
      the header alone sizes every section before the document streams;
    - the terms, in UTF-8 byte order, as a string table: each term's UTF-8
      byte length (``term_lengths``), then the terms' UTF-8 bytes, one after
      another (``terms``).  A term's number is its rank;
    - each term's posting end (``term_ends``): its postings are those from
      the previous term's end to its own;
    - every posting's ordinal (``ordinals``), in term order and, within a
      term, in impact order: descending weight, ties by ascending ordinal;
    - the postings' BM25 weights as runs of equal weight, in the same order.
      A run ends at every change of weight and at every term's end.  They
      are stored as the weight table (``weights``), every distinct weight
      once, in strictly descending order; each term's run end, the next
      term's first run number (``run_ends``): its runs are those from the
      previous term's end to its own; then each run's code, the position of
      its weight in the table (``run_codes``), and each run's length, its
      number of postings (``run_lengths``);
    - the doc_ids, in ordinal order, as a string table laid out as the
      terms' (their UTF-8 passing lone surrogates through), its bytes
      zlib-compressed (``id_lengths``, then ``ids``);
    - the deflate dictionary the document streams are primed with
      (``dictionary``);
    - each document stream's end (``document_ends``), then each document's
      CRC-32 (``document_crcs``);
    - the document streams, one after another: each document's is one
      raw-deflate stream primed with the dictionary, whose inflated bytes,
      the ones its CRC-32 covers, are the title's UTF-8 byte length as a
      little-endian uint32, then the title's and the text's UTF-8 bytes.

    The lengths, the ordinals, the codes and the run lengths are unsigned
    integers of the narrowest width, 1, 2 or 4 bytes, that holds the
    largest of their values (``doc_count - 1`` for the ordinals).  Term
    frequencies and document lengths are not stored: the weights are all a
    search reads.  A run costs its code and its length (3 bytes for a 2-byte
    code and a 1-byte length) where a weight stored per posting cost 8, plus
    8 bytes per distinct weight and 4 per term.  The same index always gives
    the same bytes.  The file is written under a temporary name in the same
    directory and then renamed over ``path``, so a failed write leaves any
    old file as it was.
    """
    documents = index.documents
    sections = {
        "term_lengths": index.terms.lengths(), "terms": index.terms.blob, "term_ends": index.bounds[1:],
        "ordinals": index.ordinals, "weights": index.weight_table, "run_ends": index.run_starts[1:],
        "run_codes": index.run_codes, "run_lengths": index.run_lengths, "id_lengths": documents.ids.lengths(),
        "ids": zlib.compress(documents.ids.blob), "dictionary": documents.dictionary,
        "document_ends": documents.ends, "document_crcs": documents.crcs,
    }
    stored = [_little_endian(sections[name]) for name, _ in _SECTIONS]
    header = {
        "version": INDEX_VERSION,
        "avg_doc_length": index.avg_doc_length,
        "sections": [[name, getattr(section, "typecode", ""), len(section)]
                     for (name, _), section in zip(_SECTIONS, stored)],
        "crc": functools.reduce(lambda crc, section: zlib.crc32(section, crc), stored, 0),
    }
    partial = f"{path}.{os.getpid()}-{os.urandom(4).hex()}.tmp"
    handle = open(partial, "xb")
    try:
        with handle:
            handle.write(_MAGIC_LINE)
            handle.write(json.dumps(header).encode("ascii") + b"\n")
            for section in stored:
                handle.write(section)
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
    """The header, checked for the keys and value types load_index uses:
    ``sections`` names ``_SECTIONS`` in order, each with one of its
    typecodes and a count."""
    try:
        header = json.loads(line)
    except ValueError:
        header = None
    if not isinstance(header, dict):
        raise CorpusError(f"{path}: corrupt index header")
    if header.get("version") != INDEX_VERSION:
        raise _rebuild_error(path, header.get("version"))
    sections = header.get("sections")
    if not (
        type(header.get("crc")) is int and type(header.get("avg_doc_length")) in (int, float)
        and isinstance(sections, list) and len(sections) == len(_SECTIONS)
        and all(
            isinstance(section, list) and len(section) == 3 and section[0] == name and section[1] in typecodes
            and type(section[2]) is int and section[2] >= 0
            for section, (name, typecodes) in zip(sections, _SECTIONS)
        )
    ):
        raise CorpusError(f"{path}: corrupt index header")
    return header


def load_index(path: str) -> Index:
    """Read an index in format v10, as written by save_index.

    Raises CorpusError naming ``path`` for a file that is not a graphfc
    index, for another format version (older files, JSON ones included, must
    be rebuilt), for a file that is truncated, longer than its header says,
    whose header is corrupt, whose sections do not match their CRC-32 or do
    not add up, and for an index with no documents.  The header sizes every
    read before the CRC-32 is compared, so a corrupt byte in any section is
    reported as such.  The terms and the doc_ids are kept as the bytes they
    were read as (``StringTable``), nothing is built per term, document or
    posting.  The document streams are left in the file: the index keeps
    the file open and reads each document's stream when that document is
    first read (``DocumentTable.in_file``).  So the file must not be
    rewritten in place while the index is in use; save_index replaces it by
    a rename, which is safe.  A corrupt or unreadable document stream raises
    CorpusError when that document is first read.
    """
    with open(path, "rb") as handle:
        magic = handle.read(len(_MAGIC_LINE))
        if magic != _MAGIC_LINE:  # read the rest only if it may be a JSON index
            raise _foreign_file_error(path, magic + handle.read() if magic[:1] == b"{" else b"")
        header = _read_header(path, handle.readline())
        file_bytes = os.fstat(handle.fileno()).st_size
        sections, crc = {}, 0
        for name, typecode, count in header["sections"]:
            # Sized before allocating what a corrupt count asks for.
            if count * (array(typecode).itemsize if typecode else 1) > file_bytes - handle.tell():
                raise CorpusError(f"{path}: index file is truncated")
            if typecode:
                values = array(typecode, [0]) * count
                handle.readinto(values)  # in place: fromfile reads a copy first, 5x slower here
            else:
                values = handle.read(count)
            crc = zlib.crc32(values, crc)  # the file's bytes, before any byte swap
            sections[name] = _little_endian(values)
        if crc != header["crc"]:
            raise CorpusError(f"{path}: corrupt index (its CRC-32 does not match)")
        bounds = array("I", [0]) + sections["term_ends"]
        run_starts = array("I", [0]) + sections["run_ends"]
        ends, crcs = sections["document_ends"], sections["document_crcs"]
        try:
            terms = StringTable(sections["terms"], sections["term_lengths"])
            ids = StringTable(zlib.decompress(sections["ids"]), sections["id_lengths"])
        except (zlib.error, OverflowError):  # the ids do not inflate, or lengths add up past 4 GiB
            ids = None
        if ids is None or not (
            terms.starts[-1] == len(terms.blob) and ids.starts[-1] == len(ids.blob)
            and len(terms) == len(bounds) - 1 == len(run_starts) - 1 and bounds[-1] == len(sections["ordinals"])
            and run_starts[-1] == len(sections["run_codes"]) == len(sections["run_lengths"])
            and len(ids) == len(ends) == len(crcs)
        ):
            raise CorpusError(f"{path}: corrupt index (its sections do not add up)")
        streams_bytes = ends[-1] if ends else 0
        if streams_bytes > file_bytes - handle.tell():
            raise CorpusError(f"{path}: index file is truncated")
        if streams_bytes < file_bytes - handle.tell():
            raise CorpusError(f"{path}: index file is longer than its header says")
        documents = DocumentTable.in_file(handle, path, ids, sections["dictionary"], ends, crcs)
    return Index(
        documents, terms, bounds, sections["ordinals"], sections["weights"], run_starts, sections["run_codes"],
        sections["run_lengths"], header["avg_doc_length"],
    )
