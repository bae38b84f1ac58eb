"""Window-based POS tagger: feature extraction and the tagging network.

Per-token features come from a small window around the target: character
symbols on the target itself, capitalization shape and 2/3-character affixes
at distance <= 1, and lowercased word forms at distance <= 3. Positions
outside the sentence contribute the reserved NULL id. The tagger's hidden
activations double as the parser's token representation, so ``tag_sentences``
always returns them, one row per token of the batch.
"""

from __future__ import annotations

import unicodedata
from dataclasses import astuple, dataclass
from typing import Callable, Optional

import numpy as np

from stackprop.corpus import NULL_ID, Sentence, Vocab
from stackprop.errors import CorpusError, StackpropError
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

    def __post_init__(self):
        if min(astuple(self)) < 1:
            raise StackpropError(f"bad tagger config {self}")


@dataclass
class TaggerVocabs:
    """Feature-template vocabularies built from the training corpus."""

    words: Vocab
    affixes: dict[str, Vocab]  # in AFFIXES order


@dataclass
class TaggerActivations:
    """Per-token rows of a batch of sentences, in token order."""

    hidden: Optional[np.ndarray]  # (n_tokens, H); absent for jackknifed distributions
    probs: Optional[np.ndarray]  # (n_tokens, n_tags); absent while training a stacked parser
    words: np.ndarray  # (n_tokens,) centre column of the word window: lowercased-form ids


def cap_shape(form: str) -> int:
    letters = list(filter(str.isalpha, form))
    if not letters:
        return CAP_NOLETTERS
    if all(map(str.isupper, letters)):
        return CAP_ALLCAPS
    if form[0].isupper() and all(map(str.islower, letters[1:])):
        return CAP_INITIAL
    if all(map(str.islower, letters)):
        return CAP_LOWER
    return CAP_MIXED


def symbol_flags(form: str) -> tuple[int, int, int]:
    """(has-hyphen, has-digit, has-punctuation) indicator values."""
    if form.isalpha():  # letters are none of the three
        return SYM_ABSENT, SYM_ABSENT, SYM_ABSENT
    has_digit = any(map(str.isdigit, form))
    has_punct = any(unicodedata.category(ch)[0] == "P" for ch in form)
    return tuple(SYM_PRESENT if f else SYM_ABSENT for f in ("-" in form, has_digit, has_punct))


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


def encode_sentence(sentences: list[Sentence], vocabs: TaggerVocabs) -> dict[str, np.ndarray]:
    """Feature ids of every token of a batch of sentences, group -> (N, F),
    rows in token order.

    Each distinct form's values are computed once; each group's windows are
    then cut once over the whole batch, with NULL_ID at window positions
    outside the token's own sentence.
    """
    distinct: dict[str, int] = {}
    inverse = np.array(
        [distinct.setdefault(t.form, len(distinct)) for s in sentences for t in s.tokens],
        dtype=np.int64,
    )
    lows = [form.lower() for form in distinct]
    values = {"caps": list(map(cap_shape, distinct))}
    for name, cut in AFFIXES.items():
        values[name] = vocabs.affixes[name].ids_of(map(cut, lows))
    values["words"] = vocabs.words.ids_of(lows)
    symbols = np.array(list(map(symbol_flags, distinct)), dtype=np.int64).reshape(-1, 3)
    # WORD_WINDOW NULL slots before every sentence and after the last keep
    # every window inside its token's sentence
    sentence_of = np.repeat(np.arange(len(sentences)), [len(s) for s in sentences])
    slots = np.arange(len(inverse)) + WORD_WINDOW * (sentence_of + 1)
    n_slots = len(inverse) + WORD_WINDOW * (len(sentences) + 1)
    out = {"symbols": symbols[inverse]}
    for name, per_form in values.items():
        radius = WORD_WINDOW if name == "words" else SHAPE_WINDOW
        padded = np.full(n_slots, NULL_ID, dtype=np.int64)
        padded[slots] = np.array(per_form, dtype=np.int64)[inverse]
        out[name] = padded[slots[:, None] + np.arange(-radius, radius + 1)]
    return out


def tag_sentence(
    inputs: dict[str, np.ndarray], net: Network, tags: Vocab
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Predicted tag strings, hidden rows and tag distributions of one
    sentence, from its rows of an ``encode_sentence`` batch: one network
    evaluation per token; argmax ties break toward the lowest tag id."""
    cache = forward_batch(net, inputs, net.inference_params())
    probs = softmax_batch(cache.logits)
    return [tags.class_string(int(k)) for k in probs.argmax(axis=1)], cache.h1, probs


def tag_sentences(
    sentences: list[Sentence], net: Network, vocabs: TaggerVocabs, tags: Vocab
) -> tuple[list[list[str]], TaggerActivations]:
    """Each sentence's predicted tags, and the activations the parser reads
    for the whole batch: hidden rows, tag distributions and word ids.

    One ``encode_sentence`` of the batch, then ``tag_sentence`` per sentence,
    so every hidden row is bitwise the one a lone sentence gets (BLAS may
    round a different row count apart)."""
    inputs = encode_sentence(sentences, vocabs)
    bounds = np.cumsum([0] + [len(s) for s in sentences]).tolist()
    # empty leading tables keep the widths when there are no sentences
    preds, hidden, probs = [], [np.empty((0, net.n_hidden))], [np.empty((0, net.n_out))]
    for lo, hi in zip(bounds, bounds[1:]):
        pred, h, prob = tag_sentence({k: v[lo:hi] for k, v in inputs.items()}, net, tags)
        preds.append(pred)
        hidden.append(h)
        probs.append(prob)
    acts = TaggerActivations(
        np.concatenate(hidden), np.concatenate(probs), inputs["words"][:, WORD_WINDOW]
    )
    return preds, acts


@dataclass(frozen=True)
class PretrainedVectors:
    """The numbered lines of a UTF-8 text file of "form v1 .. vD" lines that
    can fill a row over some vocabulary (``read_pretrained_vectors``)."""

    path: str
    lines: list[tuple[int, bytes]]


def read_pretrained_vectors(path: str, forms: Vocab) -> PretrainedVectors:
    """One read of a word-vector file: the lines whose lowercased form is in
    ``forms``, up to and including the first line that does not decode
    (every fill raises at or before it). They fill blocks over ``forms`` or
    any vocabulary within it as the whole file would."""
    lines = []
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, start=1):
            try:
                form = raw.decode("utf-8").rstrip().split(" ", 1)[0].lower()
            except UnicodeDecodeError:
                lines.append((lineno, raw))
                break
            if form in forms:
                lines.append((lineno, raw))
    return PretrainedVectors(path, lines)


def load_pretrained_embeddings(
    vectors: PretrainedVectors, vocab: Vocab, matrix: np.ndarray
) -> tuple[int, int]:
    """Initialize word-embedding rows from the lines of ``vectors``. Lines of
    another width are skipped, and a row is written only for a form in
    ``vocab``; returns (rows initialized, vocabulary size). Bytes that do not
    decode, or a written row with a value that is not a finite number, raise
    ``CorpusError`` naming the line."""
    loaded = 0
    dim = matrix.shape[1]
    for lineno, raw in vectors.lines:
        try:
            parts = raw.decode("utf-8").rstrip().split(" ")  # word2vec ends lines with a space
            form = parts[0].lower()
            if len(parts) != dim + 1 or form not in vocab:
                continue
            row = np.array([float(x) for x in parts[1:]])
        except ValueError as e:  # undecodable bytes, or a value float() rejects
            raise CorpusError(f"embeddings {vectors.path} line {lineno}: {e}") from None
        if not np.isfinite(row).all():
            raise CorpusError(f"embeddings {vectors.path} line {lineno}: non-finite value {row}")
        matrix[vocab.id_of(form)] = row
        loaded += 1
    return loaded, vocab.size
