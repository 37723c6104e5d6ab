"""Seeded input generator: a Zipf corpus with realistic stopword frequency and
HoVer-shaped claim graphs whose entities and relations are written into it.

Everything here is a pure function of the seed and the workload shape, so the
same seed always yields byte-identical corpus and dataset files.
"""

from __future__ import annotations

import collections
import itertools
import json
import random
from dataclasses import dataclass
from typing import List

import answers

# English function words with roughly their share of running text.  Together
# they make up STOPWORD_SHARE of every filler sentence; a corpus with rare
# stopwords makes BM25 look hundreds of times cheaper than it is.
STOPWORDS = (
    ("the", 6.2), ("of", 3.6), ("and", 3.1), ("in", 2.6), ("a", 2.3),
    ("is", 1.3), ("to", 1.2), ("was", 1.1), ("for", 0.9), ("as", 0.8),
    ("by", 0.8), ("on", 0.7), ("with", 0.7), ("he", 0.6), ("it", 0.6),
    ("at", 0.5), ("from", 0.5), ("his", 0.5), ("an", 0.4), ("that", 0.4),
    ("which", 0.3), ("also", 0.3), ("are", 0.3), ("be", 0.3), ("this", 0.3),
    ("first", 0.2), ("were", 0.2), ("her", 0.2), ("after", 0.2), ("has", 0.2),
)
STOPWORD_SHARE = 0.42
ZIPF_EXPONENT = 1.07
CONTENT_VOCABULARY = 30000
FILLER_TOKENS = (40, 90)  # filler words per document, uniform

# One-word categories, so every definition sentence reads "<name> is a <category>".
CATEGORIES = (
    "musician", "band", "village", "painter", "novel", "society", "film",
    "river", "composer", "bridge", "magazine", "poet", "university",
    "airline", "festival", "ship", "album", "stadium",
)
PREP_PHRASES = (
    "during the spring survey", "in the early years", "before the war",
    "after the merger", "on the first tour",
)

_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v",
           "z", "br", "dr", "gl", "kr", "st", "th", "tr", "sh", "ch", "pl")
_VOWELS = ("a", "e", "i", "o", "u", "ae", "ei", "ou", "ia")
_CODAS = ("", "", "n", "r", "s", "l", "th", "nd", "rk", "st", "x")


@dataclass(frozen=True)
class WorkloadShape:
    """Input parameters of one workload family."""

    documents: int
    claims: int
    latent_choices: tuple  # latent-entity counts, cycled claim by claim
    distractors_per_entity: int  # other documents sharing an entity's category
    direct_per_mille: int  # claims whose text the selector routes to Direct


@dataclass
class Inputs:
    corpus_rows: List[dict]
    dataset_rows: List[dict]
    # What the generator wrote into each claim, for the oracle of gate (a):
    # {"id", "text", "latents": [[placeholder, category], ...],
    #  "facts": [[subject, relation, object, prep], ...]}, where subject and
    # object are placeholders or entity names and prep may be "".
    plans: List[dict]

    def write(self, corpus_path: str, dataset_path: str, plan_path: str) -> None:
        for path, rows in ((corpus_path, self.corpus_rows), (dataset_path, self.dataset_rows),
                           (plan_path, self.plans)):
            with open(path, "w", encoding="utf-8") as handle:
                for row in rows:
                    handle.write(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n")


def _syllable_word(rng: random.Random, syllables: int) -> str:
    parts = []
    for _ in range(syllables):
        parts.append(rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS))
    return "".join(parts)


def _unique_words(rng: random.Random, count: int, syllables: tuple, taken: set) -> List[str]:
    words: List[str] = []
    while len(words) < count:
        word = _syllable_word(rng, rng.randint(*syllables))
        if word not in taken:
            taken.add(word)
            words.append(word)
    return words


class _Filler:
    """Draws filler text: stopwords at STOPWORD_SHARE, content words by Zipf rank."""

    def __init__(self, rng: random.Random, vocabulary: List[str]):
        self.rng = rng
        self.words = [w for w, _ in STOPWORDS] + vocabulary
        stop_total = sum(share for _, share in STOPWORDS)
        weights = [STOPWORD_SHARE * share / stop_total for _, share in STOPWORDS]
        zipf = [1.0 / (rank ** ZIPF_EXPONENT) for rank in range(1, len(vocabulary) + 1)]
        zipf_total = sum(zipf)
        weights += [(1.0 - STOPWORD_SHARE) * w / zipf_total for w in zipf]
        self.cum_weights = list(itertools.accumulate(weights))

    def text(self, n_tokens: int) -> str:
        tokens = self.rng.choices(self.words, cum_weights=self.cum_weights, k=n_tokens)
        sentences = []
        for start in range(0, n_tokens, 12):
            chunk = tokens[start:start + 12]
            chunk[0] = chunk[0].capitalize()
            sentences.append(" ".join(chunk) + ".")
        return " ".join(sentences)


def _render(subject: str, relation: str, obj: str) -> str:
    return f"{subject} {relation} {obj}."


def generate(seed: int, shape: WorkloadShape) -> Inputs:
    """Corpus rows and generic-format dataset rows for one seed.

    Claims follow fixed skeletons and the seed changes only names, filler
    text and relation phrases, so every seed asks the program for the same
    amount of work: claim i has ``latent_choices[i % len]`` latent entities
    chained to one named entity, every third claim of a latent count is
    Supported, and the claims whose text hashes to Direct are the same
    positions for every seed (found by drawing names until the hash agrees).
    A NotSupported claim's first or last fact uses a relation the verifier
    refutes, so every identification path fails there.
    """
    rng = random.Random(seed)
    taken: set = set(w for w, _ in STOPWORDS)
    for phrase in CATEGORIES + answers.AFFIRMED_RELATIONS + answers.REFUTED_RELATIONS + PREP_PHRASES:
        taken.update(phrase.split())
    # Word lengths by Zipf rank follow one fixed pattern, so the text size
    # (and with it index size and prompt tokens) does not drift with the seed.
    vocabulary = sorted(_unique_words(rng, CONTENT_VOCABULARY, (1, 3), taken), key=len)
    random.Random(0).shuffle(vocabulary)
    filler = _Filler(rng, vocabulary)

    # Entity names are two capitalised words from their own pool, so they are
    # rare terms with a high IDF, as proper names are in a real corpus.
    name_words = _unique_words(rng, max(64, shape.documents // 2), (2, 3), taken)
    used_names: set = set()

    def fresh_name() -> str:
        while True:
            name = f"{rng.choice(name_words).capitalize()} {rng.choice(name_words).capitalize()}"
            if name not in used_names:
                used_names.add(name)
                return name

    facts: dict = collections.defaultdict(list)  # entity name -> fact sentences
    categories: dict = {}
    dataset_rows = []
    plans = []
    for claim_no in range(shape.claims):
        n_latent = shape.latent_choices[claim_no % len(shape.latent_choices)]
        position = claim_no // len(shape.latent_choices)
        supported = position % 3 == 1
        direct = position * shape.direct_per_mille % 1000 < shape.direct_per_mille
        refs = rng.sample(CATEGORIES, n_latent)
        placeholders = [f"(ENT{i})" for i in range(1, n_latent + 1)]
        relations = [rng.choice(answers.AFFIRMED_RELATIONS) for _ in range(max(2, n_latent + 1))]
        if not supported:
            # Refuting the first fact fails each path at once; refuting the
            # last makes the path verify every fact first.
            relations[0 if position % 3 == 0 else -1] = rng.choice(answers.REFUTED_RELATIONS)
        prep_phrase = rng.choice(PREP_PHRASES) if claim_no % 4 == 3 else ""
        prep = f" [PREP] {prep_phrase}" if prep_phrase else ""
        while True:
            surface = {p: fresh_name() for p in placeholders}
            named, other, last = fresh_name(), fresh_name(), fresh_name()
            if n_latent:
                chain = [("(ENT1)", named)]
                chain += [(f"(ENT{i})", f"(ENT{i - 1})") for i in range(2, n_latent + 1)]
                chain.append((f"(ENT{n_latent})", last))
            else:
                chain = [(named, other), (named, last)]
            triple_lines = [f"{s} [SEP] {r} [SEP] {o}" for (s, o), r in zip(chain, relations)]
            triple_lines[-1] += prep
            claim_text = _claim_text(triple_lines, dict(zip(placeholders, refs)))
            if answers.routes_direct(claim_text, shape.direct_per_mille) == direct:
                break
        for name in (named, other, last):
            surface[name] = name
            categories[name] = rng.choice(CATEGORIES)
            facts.setdefault(name, [])
        for p, ref in zip(placeholders, refs):
            categories[surface[p]] = ref
            facts[surface[p]].append(_render(surface[p], "is", f"a {ref}"))
        for (subject, obj), relation in zip(chain, relations):
            if relation in answers.AFFIRMED_RELATIONS:
                facts[surface[subject]].append(_render(surface[subject], relation, surface[obj]))
        def_lines = [f"{p} [SEP] is [SEP] a {ref}" for p, ref in zip(placeholders, refs)]
        graph_text = (
            "# Latent Entities:\n" + "".join(line + "\n" for line in def_lines)
            + "# Triples:\n" + "\n".join(triple_lines)
        )
        dataset_rows.append({
            "id": f"c{claim_no:04d}",
            "text": claim_text,
            "label": "Supported" if supported else "NotSupported",
            "hops": n_latent + 1,
            "gold_doc_ids": sorted(_doc_id(surface[p]) for p in placeholders + [named]),
            "pregenerated_graph": graph_text,
        })
        plans.append({
            "id": f"c{claim_no:04d}",
            "text": claim_text,
            "latents": [[p, ref] for p, ref in zip(placeholders, refs)],
            "facts": [[s, r, o, ""] for (s, o), r in zip(chain, relations)],
        })
        plans[-1]["facts"][-1][3] = prep_phrase

    corpus_rows = []
    for name in sorted(facts):
        corpus_rows.append(_entity_row(name, facts[name], filler, rng))
        # Distractors share the category, so the definitional query alone
        # cannot pick the right entity out of the top k.
        for _ in range(shape.distractors_per_entity):
            other = fresh_name()
            corpus_rows.append(_entity_row(other, [_render(other, "is", f"a {categories[name]}")], filler, rng))
    if len(corpus_rows) > shape.documents:
        raise ValueError(f"{len(corpus_rows)} entity documents exceed {shape.documents}")
    while len(corpus_rows) < shape.documents:
        corpus_rows.append(_entity_row(fresh_name(), [], filler, rng))
    rng.shuffle(corpus_rows)
    return Inputs(corpus_rows, dataset_rows, plans)


def _doc_id(name: str) -> str:
    return "d-" + name.lower().replace(" ", "-")


def _entity_row(name: str, sentences: List[str], filler: _Filler, rng: random.Random) -> dict:
    text = " ".join(sentences + [filler.text(rng.randint(*FILLER_TOKENS))])
    return {"id": _doc_id(name), "title": name, "text": text}


def _claim_text(triple_lines: List[str], refs: dict) -> str:
    clauses = []
    for line in triple_lines:
        body, _, prep = line.partition(" [PREP] ")
        subject, relation, obj = body.split(" [SEP] ")
        subject = f"the {refs[subject]}" if subject in refs else subject
        obj = f"the {refs[obj]}" if obj in refs else obj
        clauses.append(f"{subject} {relation} {obj}" + (f" {prep}" if prep else ""))
    text = ", and ".join(clauses)
    return text[0].upper() + text[1:] + "."


def top_term_share(corpus_rows: List[dict], tokenize, top: int = 20) -> float:
    """Token share of the ``top`` most frequent terms, as the index sees them."""
    counts: collections.Counter = collections.Counter()
    for row in corpus_rows:
        counts.update(tokenize(row["title"] + " " + row["text"]))
    total = sum(counts.values())
    return sum(c for _, c in counts.most_common(top)) / total
