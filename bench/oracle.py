"""Reference BM25 and brute-force verdict oracle for the correctness gates.

The reference scorer works from the raw document text through ``tokenize``
and the closed-form Okapi BM25 formula; it never reads ``Index.postings``.
Per-term contributions are computed with the same float operations in the
same order as graphfc's scorer, so scores agree to the last bit unless the
program's arithmetic changes, and the 1e-9 tolerance of gate (b) allows for
a reordered sum.

The oracle recomputes each claim's outcome from the generator's plan alone
(the facts and latent entities it wrote into the claim), with every
identification path and every triplet judged and no short-circuit anywhere,
using the same answer functions the backends use.  It builds its own path
orders, queries and sentences and calls no graphfc code but ``tokenize``,
so a change to graphfc's path enumeration, query building or rendering
cannot change the oracle with it.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from graphfc.retrieval import DEFAULT_B, DEFAULT_K1, search, tokenize

import answers

SCORE_RTOL = 1e-9


class ReferenceBM25:
    """Closed-form BM25 over raw document text, with numpy accumulation.

    Postings are stored as one CSR block: the documents and term frequencies
    of ``terms[i]`` are ``docs[offsets[i]:offsets[i + 1]]`` and the same slice
    of ``tfs``.
    """

    def __init__(self, arrays: Dict[str, np.ndarray], corpus_rows: List[dict],
                 k1: float = DEFAULT_K1, b: float = DEFAULT_B):
        self.k1, self.b = k1, b
        self.titles = [row["title"] for row in corpus_rows]
        self.texts = [row["text"] for row in corpus_rows]
        self.doc_ids = [row["id"] for row in corpus_rows]
        self.id_rank = np.empty(len(self.doc_ids), dtype=np.int64)
        self.id_rank[sorted(range(len(self.doc_ids)), key=self.doc_ids.__getitem__)] = np.arange(len(self.doc_ids))
        self._slot = {term: i for i, term in enumerate(arrays["terms"].tolist())}
        self._offsets = arrays["offsets"]
        self._docs = arrays["docs"]
        self._tfs = arrays["tfs"]
        lengths = arrays["lengths"]
        self.doc_count = len(lengths)
        avg = sum(lengths.tolist()) / self.doc_count
        self.norm = k1 * (1.0 - b + b * lengths.astype(np.float64) / avg)

    @staticmethod
    def build_arrays(corpus_rows: List[dict]) -> Dict[str, np.ndarray]:
        postings: Dict[str, Tuple[list, list]] = {}
        lengths = []
        for ordinal, row in enumerate(corpus_rows):
            tokens = tokenize(row["title"] + " " + row["text"])
            lengths.append(len(tokens))
            counts: Dict[str, int] = {}
            for token in tokens:
                counts[token] = counts.get(token, 0) + 1
            for term, tf in counts.items():
                docs, tfs = postings.setdefault(term, ([], []))
                docs.append(ordinal)
                tfs.append(tf)
        terms = list(postings)
        sizes = [len(postings[t][0]) for t in terms]
        return {
            "terms": np.array(terms),
            "offsets": np.concatenate(([0], np.cumsum(sizes))).astype(np.int64),
            "docs": np.fromiter((o for t in terms for o in postings[t][0]), dtype=np.int64),
            "tfs": np.fromiter((f for t in terms for f in postings[t][1]), dtype=np.float64),
            "lengths": np.asarray(lengths, dtype=np.int64),
        }

    def _term(self, term: str):
        slot = self._slot.get(term)
        if slot is None:
            return None
        lo, hi = self._offsets[slot], self._offsets[slot + 1]
        return self._docs[lo:hi], self._tfs[lo:hi]

    def touched(self, query: str) -> int:
        """Number of documents holding at least one query term."""
        mask = np.zeros(self.doc_count, dtype=bool)
        for term in set(tokenize(query)):
            found = self._term(term)
            if found is not None:
                mask[found[0]] = True
        return int(mask.sum())

    def search(self, query: str, k: int) -> List[Tuple[int, float]]:
        """Top-k (ordinal, score), score descending, ties by ascending doc_id."""
        scores = np.zeros(self.doc_count, dtype=np.float64)
        mask = np.zeros(self.doc_count, dtype=bool)
        for term in tokenize(query):
            found = self._term(term)
            if found is None:
                continue
            docs, tf = found
            df = len(docs)
            idf = math.log(1.0 + (self.doc_count - df + 0.5) / (df + 0.5))
            scores[docs] += idf * tf * (self.k1 + 1.0) / (tf + self.norm[docs])
            mask[docs] = True
        candidates = np.flatnonzero(mask)
        order = np.lexsort((self.id_rank[candidates], -scores[candidates]))[:k]
        return [(int(candidates[i]), float(scores[candidates[i]])) for i in order]

    def display(self, ordinal: int) -> str:
        return f"{self.titles[ordinal]}: {self.texts[ordinal]}"


def check_search(index, reference: ReferenceBM25, query: str, k: int) -> str:
    """Gate (b) for one query: '' when graphfc's top-k matches the reference."""
    got = [(doc.doc_id, score) for doc, score in search(index, query, k).docs]
    want = [(reference.doc_ids[o], s) for o, s in reference.search(query, k)]
    if [d for d, _ in got] != [d for d, _ in want]:
        return f"top-{k} ids differ for {query!r}: {[d for d, _ in got]} != {[d for d, _ in want]}"
    for (doc_id, a), (_, b) in zip(got, want):
        if abs(a - b) > SCORE_RTOL * abs(b):
            return f"score of {doc_id} for {query!r}: {a!r} != {b!r}"
    return ""


class PathOutcome(NamedTuple):
    order: List[str]
    bindings: Dict[str, str]
    steps: List[tuple]  # (retrieval query, infill query, evidence ids) per target
    judgments: List[tuple]  # (sentence, label) for every triplet
    label: str


class Decision(NamedTuple):
    label: str
    route: str  # "Direct" or "GraphCheck", as graphfc serialises them
    paths: List[PathOutcome]  # every enumerated path


def _label(ok: bool) -> str:
    return "Supported" if ok else "NotSupported"


_PLACEHOLDER_SURFACE_RE = re.compile(r"\(ENT[1-9][0-9]*\)")


def _sanitize(answer: str) -> str:
    return " ".join(_PLACEHOLDER_SURFACE_RE.sub("", answer).split())


def _render(fact, values: Dict[str, str]) -> str:
    """A fact as a sentence: fields joined by spaces, placeholders replaced
    by ``values``, a final period unless one is there."""
    subject, relation, obj, prep = fact
    sentence = " ".join([values.get(subject, subject), relation, values.get(obj, obj)] + ([prep] if prep else []))
    return sentence if sentence.endswith((".", "!", "?")) else sentence + "."


def path_orders(placeholders: List[str], limit: int, seed: int) -> List[List[str]]:
    """Identification orders: every permutation in lexicographic order when
    they fit the limit, else ``limit`` of them sampled with
    ``random.Random(seed)``; one empty order without latent entities."""
    orders = [list(p) for p in itertools.permutations(placeholders)]
    if len(orders) <= limit:
        return orders
    return random.Random(seed).sample(orders, limit)


class Oracle:
    """Brute-force decision for one claim of a dp_graphcheck run."""

    def __init__(self, reference: ReferenceBM25, k: int, path_limit: int, path_seed: int,
                 blank_token: str, direct_per_mille: int):
        self.ref = reference
        self.k = k
        self.path_limit = path_limit
        self.path_seed = path_seed
        self.blank = blank_token
        self.direct_per_mille = direct_per_mille
        self._memo: Dict[str, List[int]] = {}

    def _evidence(self, query: str) -> List[int]:
        """Top-k ordinals of the reference scorer."""
        found = self._memo.get(query)
        if found is None:
            found = [o for o, _ in self.ref.search(query, self.k)]
            self._memo[query] = found
        return found

    def _judge(self, sentence: str) -> bool:
        return bool(self._evidence(sentence)) and answers.verifies(sentence)

    def decide(self, plan: dict) -> Decision:
        claim = plan["text"]
        if answers.routes_direct(claim, self.direct_per_mille):
            return Decision(_label(self._judge(claim)), "Direct", [])
        placeholders = [p for p, _ in plan["latents"]]
        paths = [self._path(plan, order) for order in path_orders(placeholders, self.path_limit, self.path_seed)]
        supported = any(p.label == "Supported" for p in paths)
        return Decision(_label(supported), "GraphCheck", paths)

    def _path(self, plan: dict, order: List[str]) -> PathOutcome:
        latents = {p for p, _ in plan["latents"]}
        definitions = {p: (p, "is", f"a {category}", "") for p, category in plan["latents"]}
        bindings: Dict[str, str] = {}
        steps = []
        for target in order:
            reference = definitions[target][2]
            qualifying = [
                f for f in plan["facts"]
                if target in (f[0], f[2])
                and all(x == target or x in bindings for x in (f[0], f[2]) if x in latents)
            ]
            query = " ".join(_render(f, {**bindings, target: reference}) for f in qualifying)
            if not query:
                query = _render(definitions[target], {**bindings, target: reference})
            infill_query = " ".join(
                _render(f, {**bindings, target: self.blank}) for f in qualifying + [definitions[target]]
            )
            evidence = self._evidence(query)
            answer = _sanitize(answers.infill_choice(infill_query, [self.ref.titles[o] for o in evidence]))
            bindings[target] = answer or _sanitize(reference) or "unknown"
            steps.append((query, infill_query, [self.ref.doc_ids[o] for o in evidence]))
        sentences = [_render(f, bindings) for f in plan["facts"]]
        sentences += [_render(definitions[p], bindings) for p, _ in plan["latents"]]
        judgments = [(s, _label(self._judge(s))) for s in sentences]
        ok = all(label == "Supported" for _, label in judgments)
        return PathOutcome(order, bindings, steps, judgments, _label(ok))


def check_trace(decision: Decision, row: dict) -> str:
    """Gate (a) for one claim: '' when a serialised trace agrees with the
    oracle's label and route and, path by path in enumeration order up to the
    first supported one, with its order, bindings, queries, evidence ids,
    judged sentences (up to the first refuted one) and label."""
    if row["final"] != decision.label:
        return f"label {row['final']} != oracle {decision.label}"
    if row["strategy"]["value"] != decision.route:
        return f"route {row['strategy']['value']} != oracle {decision.route}"
    expected = []
    for path in decision.paths:
        judged = path.judgments
        for i, (_, label) in enumerate(judged):
            if label != "Supported":
                judged = judged[: i + 1]  # graphfc stops at the first refuted triplet
                break
        expected.append((path.order, path.bindings, path.steps, judged, path.label))
        if path.label == "Supported":
            break
    explored = [
        (p["order"], p["bindings"],
         [(s["retrieval_query"], s["infill_query"], [e["id"] for e in s["evidence"]]) for s in p["per_entity"]],
         [(j["sentence"], j["label"]) for j in p["judgments"]],
         p["label"])
        for p in row["paths"]
    ]
    if len(explored) != len(expected):
        return f"explored {len(explored)} paths, oracle {len(expected)}"
    fields = ("order", "bindings", "steps", "judgments", "label")
    for number, (got, want) in enumerate(zip(explored, expected)):
        for name, a, b in zip(fields, got, want):
            if a != b:
                return f"path {number} {name}: {a} != oracle {b}"
    return ""
