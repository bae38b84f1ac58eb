"""Deterministic synthetic grammar for desk-scale experiments.

Generates UD-flavored sentences with a small closed tagset, suffix-bearing
open-class words, genuinely ambiguous "-s" forms (noun plural vs. verb 3sg),
Zipf-distributed stems so held-out data contains unseen forms, and optional
extraposed (non-projective) prepositional phrases. All randomness comes from
the seed.
"""

from __future__ import annotations

import numpy as np

from stackprop.corpus import Sentence, Token

DETS = ["the", "a", "this", "that", "each", "some"]
PRONS = ["i", "you", "he", "she", "they", "we"]
ADPS = ["in", "on", "at", "with", "under", "near", "of"]
PUNCTS = [".", "!", "?"]

Words = list[tuple[str, str]]  # (form, UPOS)
Arcs = list[tuple[int, int, str]]  # (head offset, dependent offset, label)
Phrase = tuple[Words, int, Arcs]  # words, head offset, arcs

_SYLLABLES = [
    "ba", "do", "ki", "lu", "mer", "pon", "sa", "ti", "vor", "zen",
    "gra", "fel", "nim", "rus", "tol", "wid", "hov", "pel", "dar", "mok",
]


def _stems(count: int) -> list[str]:
    """Two-syllable stems; past the 400 pairs, stem i repeats pair i % 400 plus i."""
    pairs = [a + b for b in _SYLLABLES for a in _SYLLABLES]
    return pairs[:count] + [pairs[i % len(pairs)] + str(i) for i in range(len(pairs), count)]


def _cdf(p: np.ndarray) -> np.ndarray:
    """The CDF ``Generator.choice(n, p=p)`` builds, computed the same way."""
    cdf = p.cumsum()
    return cdf / cdf[-1]


def _draw(cdf: np.ndarray, rng: np.random.Generator) -> int:
    """``int(rng.choice(len(cdf), p=p))``: the same index from the same one double."""
    return int(cdf.searchsorted(rng.random(), side="right"))


_ADJ_COUNT_CDF = _cdf(np.array([0.6, 0.3, 0.1]))


class Grammar:
    """Lexicon plus generation probabilities.

    ``zipf`` sets the stem frequency decay: ~1.1 gives a natural long tail
    (held-out data will contain unseen forms); values near 0 spread usage
    almost uniformly, which realizes large vocabularies quickly.
    """

    def __init__(self, lexicon_size: int = 120, p_nonproj: float = 0.0, zipf: float = 1.1):
        self.p_nonproj = p_nonproj
        stems = _stems(max(lexicon_size, 10))
        n = len(stems)
        # 50% noun-only, 30% verb-only, 20% ambiguous
        self.noun_stems = stems[: n // 2] + stems[int(n * 0.8) :]
        self.verb_stems = stems[n // 2 : int(n * 0.8)] + stems[int(n * 0.8) :]
        self.adj_stems = [s + "y" for s in stems[: max(n // 6, 4)]]
        self.adv_forms = [s + "ly" for s in stems[: max(n // 8, 3)]]
        self._noun_cdf = _cdf(self._zipf(len(self.noun_stems), zipf))
        self._verb_cdf = _cdf(self._zipf(len(self.verb_stems), zipf))

    @staticmethod
    def _zipf(n: int, exponent: float) -> np.ndarray:
        w = 1.0 / np.power(np.arange(1, n + 1), exponent)
        return w / w.sum()

    def noun(self, rng) -> str:
        stem = self.noun_stems[_draw(self._noun_cdf, rng)]
        return stem + "s" if rng.random() < 0.3 else stem

    def verb(self, rng) -> str:
        stem = self.verb_stems[_draw(self._verb_cdf, rng)]
        r = rng.random()
        if r < 0.4:
            return stem + "ed"
        if r < 0.7:
            return stem + "s"
        return stem


def _np(g: Grammar, rng, allow_pp: bool) -> Phrase:
    """Noun phrase as (words, head offset, arcs); arcs are offset-relative."""
    words: Words = []
    arcs: Arcs = []
    if rng.random() < 0.25:
        words.append((PRONS[rng.integers(len(PRONS))], "PRON"))
        return words, 0, arcs
    det = rng.random() < 0.7
    if det:
        words.append((DETS[rng.integers(len(DETS))], "DET"))
    n_adj = _draw(_ADJ_COUNT_CDF, rng)
    for _ in range(n_adj):
        words.append((g.adj_stems[rng.integers(len(g.adj_stems))], "ADJ"))
    head = len(words)
    words.append((g.noun(rng), "NOUN"))
    for i in range(head):
        arcs.append((head, i, "det" if words[i][1] == "DET" else "amod"))
    if allow_pp and rng.random() < 0.15:
        arcs.append((head, _splice(words, arcs, _pp(g, rng)), "nmod"))
    return words, head, arcs


def _pp(g: Grammar, rng) -> Phrase:
    words = [(ADPS[rng.integers(len(ADPS))], "ADP")]
    arcs: Arcs = []
    head = _splice(words, arcs, _np(g, rng, allow_pp=False))
    arcs.append((head, 0, "case"))
    return words, head, arcs


def _splice(words: Words, arcs: Arcs, phrase: Phrase) -> int:
    """Append a (words, head offset, arcs) phrase to ``words`` and ``arcs``,
    shifting its offsets by the words already there; returns its head's offset."""
    sub_words, sub_head, sub_arcs = phrase
    base = len(words)
    words += sub_words
    arcs += [(base + h, base + d, l) for h, d, l in sub_arcs]
    return base + sub_head


def generate_sentence(g: Grammar, rng: np.random.Generator, idx: int) -> Sentence:
    words: Words = []
    arcs: Arcs = []

    subj = _splice(words, arcs, _np(g, rng, allow_pp=True))

    verb = len(words)
    words.append((g.verb(rng), "VERB"))
    arcs.append((verb, subj, "nsubj"))

    if rng.random() < 0.7:
        arcs.append((verb, _splice(words, arcs, _np(g, rng, allow_pp=False)), "obj"))

    if rng.random() < 0.3:
        pp = _splice(words, arcs, _pp(g, rng))
        # extraposed PP attaches to the subject noun across the verb
        arcs.append((subj if rng.random() < g.p_nonproj else verb, pp, "nmod"))

    if rng.random() < 0.3:
        adv = len(words)
        words.append((g.adv_forms[rng.integers(len(g.adv_forms))], "ADV"))
        arcs.append((verb, adv, "advmod"))

    punct = len(words)
    words.append((PUNCTS[rng.integers(len(PUNCTS))], "PUNCT"))
    arcs.append((verb, punct, "punct"))

    heads = [0] * len(words)
    labels = ["root"] * len(words)
    for h, d, l in arcs:
        heads[d] = h + 1
        labels[d] = l
    tokens = []
    for i, (form, tag) in enumerate(words):
        if i == 0:
            form = form[0].upper() + form[1:]
        tokens.append(
            Token(
                index=i + 1,
                form=form,
                gold_upos=tag,
                gold_head=heads[i],
                gold_deprel=labels[i],
            )
        )
    return Sentence(tokens, id=f"synth-{idx}")


def generate_corpus(
    n_sentences: int,
    seed: int = 0,
    lexicon_size: int = 120,
    p_nonproj: float = 0.0,
    zipf: float = 1.1,
) -> list[Sentence]:
    g = Grammar(lexicon_size=lexicon_size, p_nonproj=p_nonproj, zipf=zipf)
    rng = np.random.default_rng(seed)
    return [generate_sentence(g, rng, i + 1) for i in range(n_sentences)]
