"""Window-based POS tagger: feature extraction and the tagging network.

Per-token features come from a small window around the target: character
symbols on the target itself, capitalization shape and 2/3-character affixes
at distance <= 1, and lowercased word forms at distance <= 3. Positions
outside the sentence contribute the reserved NULL id. The tagger's hidden
activations double as the parser's token representation, so ``tag_sentence``
always returns them.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from typing import Optional

import numpy as np

from stackprop.corpus import NULL_ID, Sentence, Vocab
from stackprop.errors import StackpropError
from stackprop.nnkernel import (
    FeatureGroupSpec,
    Network,
    forward_batch,
    softmax_batch,
)

# capitalization shape values (0 is NULL)
CAP_LOWER, CAP_INITIAL, CAP_ALLCAPS, CAP_MIXED, CAP_NOLETTERS = 1, 2, 3, 4, 5
N_CAP_VALUES = 6
# symbol indicator values (0 is NULL, never used for the target token)
SYM_ABSENT, SYM_PRESENT = 1, 2
N_SYM_VALUES = 3

WORD_WINDOW = 3
SHAPE_WINDOW = 1

GROUP_ORDER = ("symbols", "caps", "prefix2", "prefix3", "suffix2", "suffix3", "words")


@dataclass
class TaggerConfig:
    hidden: int = 128
    d_symbols: int = 8
    d_caps: int = 4
    d_affix: int = 16
    d_words: int = 64


@dataclass
class TaggerVocabs:
    """Feature-template vocabularies built from the training corpus."""

    words: Vocab
    prefix2: Vocab
    prefix3: Vocab
    suffix2: Vocab
    suffix3: Vocab


@dataclass
class TaggerActivations:
    hidden: Optional[np.ndarray]  # (n_tokens, H); absent for jackknifed distributions
    probs: Optional[np.ndarray] = None  # (n_tokens, n_tags)


def cap_shape(form: str) -> int:
    letters = [ch for ch in form if ch.isalpha()]
    if not letters:
        return CAP_NOLETTERS
    if all(ch.isupper() for ch in letters):
        return CAP_ALLCAPS
    if form[0].isupper() and all(ch.islower() for ch in letters[1:]):
        return CAP_INITIAL
    if all(ch.islower() for ch in letters):
        return CAP_LOWER
    return CAP_MIXED


def symbol_flags(form: str) -> tuple[int, int, int]:
    """(has-hyphen, has-digit, has-punctuation) indicator values."""
    has_hyphen = "-" in form
    has_digit = any(ch.isdigit() for ch in form)
    has_punct = any(unicodedata.category(ch).startswith("P") for ch in form)
    return tuple(SYM_PRESENT if f else SYM_ABSENT for f in (has_hyphen, has_digit, has_punct))


def affixes(form: str) -> tuple[str, str, str, str]:
    """(prefix2, prefix3, suffix2, suffix3) of the lowercased form; short
    tokens contribute the whole form."""
    low = form.lower()
    return low[:2], low[:3], low[-2:], low[-3:]


def build_tagger_vocabs(sentences: list[Sentence], words: Vocab) -> TaggerVocabs:
    p2, p3, s2, s3 = Vocab(), Vocab(), Vocab(), Vocab()
    for sent in sentences:
        for t in sent.tokens:
            a2, a3, b2, b3 = affixes(t.form)
            p2.add(a2)
            p3.add(a3)
            s2.add(b2)
            s3.add(b3)
    return TaggerVocabs(words, p2, p3, s2, s3)


def tagger_groups(vocabs: TaggerVocabs, cfg: TaggerConfig) -> list[FeatureGroupSpec]:
    shape_f = 2 * SHAPE_WINDOW + 1
    return [
        FeatureGroupSpec("symbols", 3, N_SYM_VALUES, cfg.d_symbols),
        FeatureGroupSpec("caps", shape_f, N_CAP_VALUES, cfg.d_caps),
        FeatureGroupSpec("prefix2", shape_f, vocabs.prefix2.size, cfg.d_affix),
        FeatureGroupSpec("prefix3", shape_f, vocabs.prefix3.size, cfg.d_affix),
        FeatureGroupSpec("suffix2", shape_f, vocabs.suffix2.size, cfg.d_affix),
        FeatureGroupSpec("suffix3", shape_f, vocabs.suffix3.size, cfg.d_affix),
        FeatureGroupSpec("words", 2 * WORD_WINDOW + 1, vocabs.words.size, cfg.d_words),
    ]


def extract_tagger_ids(
    sentence: Sentence, j: int, vocabs: TaggerVocabs
) -> dict[str, np.ndarray]:
    """Feature ids per group for token ``j`` (1-based)."""
    n = len(sentence)
    if not 1 <= j <= n:
        raise StackpropError(f"token index {j} out of range 1..{n}")
    out: dict[str, np.ndarray] = {}
    out["symbols"] = np.array(symbol_flags(sentence.token(j).form), dtype=np.int64)

    caps = []
    pre2, pre3, suf2, suf3 = [], [], [], []
    for k in range(j - SHAPE_WINDOW, j + SHAPE_WINDOW + 1):
        if 1 <= k <= n:
            form = sentence.token(k).form
            caps.append(cap_shape(form))
            a2, a3, b2, b3 = affixes(form)
            pre2.append(vocabs.prefix2.id_of(a2))
            pre3.append(vocabs.prefix3.id_of(a3))
            suf2.append(vocabs.suffix2.id_of(b2))
            suf3.append(vocabs.suffix3.id_of(b3))
        else:
            caps.append(NULL_ID)
            for acc in (pre2, pre3, suf2, suf3):
                acc.append(NULL_ID)
    out["caps"] = np.array(caps, dtype=np.int64)
    out["prefix2"] = np.array(pre2, dtype=np.int64)
    out["prefix3"] = np.array(pre3, dtype=np.int64)
    out["suffix2"] = np.array(suf2, dtype=np.int64)
    out["suffix3"] = np.array(suf3, dtype=np.int64)

    words = []
    for k in range(j - WORD_WINDOW, j + WORD_WINDOW + 1):
        if 1 <= k <= n:
            words.append(vocabs.words.id_of(sentence.token(k).form.lower()))
        else:
            words.append(NULL_ID)
    out["words"] = np.array(words, dtype=np.int64)
    return out


def encode_sentence(sentence: Sentence, vocabs: TaggerVocabs) -> dict[str, np.ndarray]:
    """Stacked feature ids for every token of one sentence: group -> (n, F)."""
    per_token = [extract_tagger_ids(sentence, j, vocabs) for j in range(1, len(sentence) + 1)]
    return {name: np.stack([ids[name] for ids in per_token]) for name in GROUP_ORDER}


def tag_sentence(
    sentence: Sentence,
    net: Network,
    vocabs: TaggerVocabs,
    tags: Vocab,
    averaged: bool = True,
    want_probs: bool = False,
) -> tuple[list[str], TaggerActivations]:
    """Predicted tag strings plus cached hidden activations for the parser.

    One network evaluation per token; argmax ties break toward the lowest
    tag id.
    """
    inputs = encode_sentence(sentence, vocabs)
    cache = forward_batch(net, inputs, net.inference_params(averaged))
    probs = softmax_batch(cache.logits)
    pred = [tags.class_string(int(k)) for k in probs.argmax(axis=1)]
    acts = TaggerActivations(cache.h1, probs if want_probs else None)
    return pred, acts


def load_pretrained_embeddings(path: str, vocab: Vocab, matrix: np.ndarray) -> tuple[int, int]:
    """Initialize word-embedding rows from a text file of "form v1 .. vD"
    lines. Rows are written only when the dimensionality matches; returns
    (rows initialized, vocabulary size)."""
    loaded = 0
    dim = matrix.shape[1]
    with open(path, encoding="utf-8") as f:
        for line in f:
            parts = line.rstrip("\n").split(" ")
            if len(parts) != dim + 1:
                continue
            form = parts[0].lower()
            if form in vocab:
                matrix[vocab.id_of(form)] = np.array([float(x) for x in parts[1:]])
                loaded += 1
    return loaded, vocab.size
