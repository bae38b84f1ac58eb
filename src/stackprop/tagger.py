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
from typing import Callable, Optional

import numpy as np

from stackprop.corpus import NULL_ID, Sentence, Vocab
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

# affix feature groups: name -> cut of the lowercased form (short tokens
# contribute the whole form)
AFFIXES: dict[str, Callable[[str], str]] = {
    "prefix2": lambda low: low[:2],
    "prefix3": lambda low: low[:3],
    "suffix2": lambda low: low[-2:],
    "suffix3": lambda low: low[-3:],
}
GROUP_ORDER = ("symbols", "caps", *AFFIXES, "words")


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
    affixes: dict[str, Vocab]  # in AFFIXES order


@dataclass
class TaggerActivations:
    hidden: Optional[np.ndarray]  # (n_tokens, H); absent for jackknifed distributions
    probs: Optional[np.ndarray]  # (n_tokens, n_tags)
    words: np.ndarray  # (n_tokens,) centre column of the word window: lowercased-form ids


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


def build_tagger_vocabs(sentences: list[Sentence], words: Vocab) -> TaggerVocabs:
    lows = [t.form.lower() for sent in sentences for t in sent.tokens]
    return TaggerVocabs(words, {name: Vocab(map(cut, lows)) for name, cut in AFFIXES.items()})


def tagger_groups(vocabs: TaggerVocabs, cfg: TaggerConfig) -> list[FeatureGroupSpec]:
    shape_f = 2 * SHAPE_WINDOW + 1
    return [
        FeatureGroupSpec("symbols", 3, N_SYM_VALUES, cfg.d_symbols),
        FeatureGroupSpec("caps", shape_f, N_CAP_VALUES, cfg.d_caps),
        *(
            FeatureGroupSpec(name, shape_f, vocabs.affixes[name].size, cfg.d_affix)
            for name in AFFIXES
        ),
        FeatureGroupSpec("words", 2 * WORD_WINDOW + 1, vocabs.words.size, cfg.d_words),
    ]


def _windows(ids: list[int], radius: int) -> np.ndarray:
    """(n, 2 * radius + 1): row j holds the ids of tokens j - radius .. j + radius."""
    padded = np.array([NULL_ID] * radius + ids + [NULL_ID] * radius, dtype=np.int64)
    return np.stack([padded[k : k + len(ids)] for k in range(2 * radius + 1)], axis=1)


def encode_sentence(sentence: Sentence, vocabs: TaggerVocabs) -> dict[str, np.ndarray]:
    """Feature ids of every token of one sentence, group -> (n, F).

    Each token's values are computed once and then cut into windows; window
    positions outside the sentence hold NULL_ID.
    """
    forms = [t.form for t in sentence.tokens]
    lows = [form.lower() for form in forms]
    out = {
        "symbols": np.array([symbol_flags(form) for form in forms], dtype=np.int64),
        "caps": _windows([cap_shape(form) for form in forms], SHAPE_WINDOW),
    }
    for name, cut in AFFIXES.items():
        out[name] = _windows([vocabs.affixes[name].id_of(cut(low)) for low in lows], SHAPE_WINDOW)
    out["words"] = _windows([vocabs.words.id_of(low) for low in lows], WORD_WINDOW)
    return out


def tag_sentence(
    sentence: Sentence,
    net: Network,
    vocabs: TaggerVocabs,
    tags: Vocab,
    averaged: bool = True,
) -> tuple[list[str], TaggerActivations]:
    """Predicted tag strings plus the activations the parser reads: hidden
    rows, tag distributions and word ids.

    One network evaluation per token; argmax ties break toward the lowest
    tag id.
    """
    inputs = encode_sentence(sentence, vocabs)
    cache = forward_batch(net, inputs, net.inference_params(averaged))
    probs = softmax_batch(cache.logits)
    pred = [tags.class_string(int(k)) for k in probs.argmax(axis=1)]
    return pred, TaggerActivations(cache.h1, probs, inputs["words"][:, WORD_WINDOW])


def load_pretrained_embeddings(path: str, vocab: Vocab, matrix: np.ndarray) -> tuple[int, int]:
    """Initialize word-embedding rows from a text file of "form v1 .. vD"
    lines. Rows are written only when the dimensionality matches; returns
    (rows initialized, vocabulary size)."""
    loaded = 0
    dim = matrix.shape[1]
    with open(path, encoding="utf-8") as f:
        for line in f:
            parts = line.rstrip().split(" ")  # word2vec ends lines with a space
            if len(parts) != dim + 1:
                continue
            form = parts[0].lower()
            if form in vocab:
                matrix[vocab.id_of(form)] = np.array([float(x) for x in parts[1:]])
                loaded += 1
    return loaded, vocab.size
