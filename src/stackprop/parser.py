"""Greedy transition parser over the tagger's hidden activations.

Feature templates (``transition.featurize``) index tokens in the
configuration; the selected tokens' tagger activations form the parser's
dense input group (discrete label ids of already-built arcs form the other).
Sentences are decoded in lockstep groups. Each group is tagged once
(``tag_sentences``) and its per-token tables built once. A step at which
some live configuration has a choice of action featurizes every live
configuration of the group and scores them all with one parser forward,
through the two calls a PARSER update makes: ``parser_input`` over those
tables, then ``forward_batch``. A step at which each has a single legal
action applies them without one: outside the joint system, a SHIFT from
``[ROOT]``, or from ``[ROOT, x]`` while the buffer is not empty; under a
root-exclusive label, the last attachment to the root.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import partial
from itertools import islice
from typing import Iterable, Iterator, Optional

import numpy as np

from stackprop.corpus import NULL_ID, Sentence
from stackprop.errors import StackpropError
from stackprop.model import StackedModel
from stackprop.nnkernel import DTYPE, forward_batch
from stackprop.tagger import TaggerActivations, tag_sentences
from stackprop.transition import apply, featurize, initial
from stackprop.transition import feature_tokens, is_terminal, label_features  # noqa: F401

# sentences decoded in lockstep: their configurations share each parser
# forward, and the group bounds the concatenated tagger activations
LOCKSTEP_SENTENCES = 64


def token_tables(
    model: StackedModel, params: dict[str, np.ndarray], acts: TaggerActivations
) -> dict[str, np.ndarray]:
    """The per-token table each token-slot input group of the parser reads,
    one row per token of ``acts`` and the empty-slot row last, so a template
    row of -1 (``transition.NULL_TOKEN``) selects it. Stacked variants read
    tagger activations, with ``params["null_input"]`` for an empty slot; the
    pipeline reads tag distributions (zeros) and word ids (NULL_ID)."""
    if model.variant.stacked:
        return {"implicit": np.vstack([acts.hidden, params["null_input"]])}
    return {
        "tagdist": np.vstack([acts.probs, np.zeros(acts.probs.shape[1], dtype=DTYPE)]),
        "pwords": np.append(acts.words, NULL_ID),
    }


def gather_activation_rows(rows: np.ndarray, table: np.ndarray) -> np.ndarray:
    """(B, 20, ...) rows of a per-token table (``token_tables``), one per
    template slot of ``rows``."""
    return table[rows]


def parser_input(
    tables: dict[str, np.ndarray], rows: np.ndarray, labels: np.ndarray
) -> dict[str, np.ndarray]:
    """The parser's input for B configurations, in training and decoding
    alike: ``rows`` (B, 20) index the ``token_tables`` (-1 for an empty
    slot) and ``labels`` (B, 12) are label ids."""
    inputs = {name: gather_activation_rows(rows, table) for name, table in tables.items()}
    inputs["labels"] = labels
    return inputs


@dataclass
class ParseStats:
    sentences: int = 0
    tokens: int = 0  # also the tagger evaluations: one per token
    parser_evals: int = 0  # configurations scored
    parser_batches: int = 0  # parser forward calls
    transitions: int = 0  # actions applied, with or without a parser forward

    def add(self, other: "ParseStats") -> None:
        self.sentences += other.sentences
        self.tokens += other.tokens
        self.parser_evals += other.parser_evals
        self.parser_batches += other.parser_batches
        self.transitions += other.transitions


def with_tags(sentence: Sentence, tags: list[Optional[str]]) -> Sentence:
    """``sentence`` as ``tag`` writes it: ``tags`` (one per token, None for
    none) as its predicted UPOS, its input heads and labels as predicted."""
    tokens = [replace(t, pred_upos=tags[t.index - 1], pred_head=t.gold_head,
                      pred_deprel=t.gold_deprel) for t in sentence.tokens]
    return Sentence(tokens, id=sentence.id)


def _decode(
    sentences: list[Sentence],
    model: StackedModel,
    fill_tags: Optional[bool],
    tag_only: bool = False,
) -> tuple[list[Sentence], list[np.ndarray], ParseStats]:
    """Greedy lockstep decode of a group of sentences: the group is tagged
    once and its token tables built once. At every step each configuration
    still live applies its best legal action, and a configuration is retired
    once terminal. One parser forward scores all of them, unless each has
    a single legal action, which it applies unscored. Returns the
    parsed sentences, each one's tagger hidden rows and the group's counts.
    ``tag_only`` stops after tagging and returns ``with_tags`` sentences."""
    if any(len(s) == 0 for s in sentences):
        raise StackpropError("cannot parse an empty sentence")
    pred_tags, acts = tag_sentences(sentences, model.tagger, model.tvocabs, model.tags)
    bounds = np.cumsum([0] + [len(s) for s in sentences]).tolist()
    hidden = [acts.hidden[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    stats = ParseStats(sentences=len(sentences), tokens=bounds[-1])
    if tag_only:
        return list(map(with_tags, sentences, pred_tags)), hidden, stats
    params = model.parser.inference_params()
    tables = token_tables(model, params, acts)
    configs = [initial(s) for s in sentences]
    live = list(range(len(sentences)))
    actions = model.actions
    while live:
        mask = np.stack([actions.legal_mask(configs[i]) for i in live])
        n_legal = mask.sum(1)
        if not n_legal.all():
            i = live[int(np.argmin(n_legal))]
            raise StackpropError(f"non-terminal configuration with no legal action: {configs[i]}")
        if (n_legal == 1).all():
            picks = mask.argmax(1)  # every configuration is forced: nothing to score
        else:
            # every live configuration is a row, forced ones too: fewer rows
            # would move the product to other BLAS kernels and change bits
            rows, labels = featurize([configs[i] for i in live], [bounds[i] for i in live])
            inputs = parser_input(tables, rows, labels)
            logits = forward_batch(model.parser, inputs, params).logits
            picks = np.where(mask, logits, -np.inf).argmax(1)
            stats.parser_evals += len(live)
            stats.parser_batches += 1
        for i, a in zip(live, picks.tolist()):
            apply(configs[i], actions.decode(a), model.system)
        stats.transitions += len(live)
        live = [i for i in live if not is_terminal(configs[i])]
    if fill_tags is None:
        fill_tags = not model.variant.stacked
    out = []
    for sentence, c, tags in zip(sentences, configs, pred_tags):
        tokens = []
        for t in sentence.tokens:
            pred_upos = t.pred_upos
            if model.system.joint:
                pred_upos = model.tags.string_of(c.tags[t.index])
            elif fill_tags:
                pred_upos = tags[t.index - 1]
            head, label = c.head[t.index], model.labels.string_of(c.label[t.index])
            tokens.append(replace(t, pred_head=head, pred_deprel=label, pred_upos=pred_upos))
        out.append(Sentence(tokens, id=sentence.id))
    return out, hidden, stats


def parse_sentence(
    sentence: Sentence, model: StackedModel, fill_tags: Optional[bool] = None
) -> Sentence:
    """Greedy decode of one sentence: one tagger pass for activations, then
    repeatedly score, mask illegal actions, and apply the argmax until
    terminal. A step with a single legal action applies it unscored.

    Returns a copy with pred_head/pred_deprel set (and pred_upos in the joint
    system, or from the tagger softmax when ``fill_tags`` is true, which is
    the default for a variant that is not stacked).
    """
    return _decode([sentence], model, fill_tags)[0][0]


def decode_groups(
    sentences: Iterable[Sentence],
    model: StackedModel,
    threads: int = 1,
    fill_tags: Optional[bool] = None,
    tag_only: bool = False,
) -> Iterator[tuple[list[Sentence], list[np.ndarray], ParseStats]]:
    """Decode a stream in lockstep groups of consecutive sentences
    (``LOCKSTEP_SENTENCES`` each), yielding each group's parsed sentences,
    each sentence's tagger hidden rows and the group's counts, in input
    order. The stream is read ``threads`` groups at a time, and each batch
    is decoded on one thread pool that lasts for the whole stream when
    ``threads > 1``. The groups do not depend on the thread count.
    ``tag_only`` tags without parsing (see ``_decode``)."""
    stream = iter(sentences)
    groups = iter(lambda: list(islice(stream, LOCKSTEP_SENTENCES)), [])
    work = partial(_decode, model=model, fill_tags=fill_tags, tag_only=tag_only)
    with ThreadPoolExecutor(threads) if threads > 1 else nullcontext() as pool:
        for batch in iter(lambda: list(islice(groups, max(threads, 1))), []):
            yield from (pool.map if pool else map)(work, batch)


def parse_corpus(
    sentences: list[Sentence],
    model: StackedModel,
    threads: int = 1,
    fill_tags: Optional[bool] = None,
) -> tuple[list[Sentence], ParseStats]:
    """Parse a corpus through ``decode_groups``; the output order matches
    the input order."""
    parsed: list[Sentence] = []
    stats = ParseStats()
    for group, _, group_stats in decode_groups(sentences, model, threads, fill_tags):
        parsed += group
        stats.add(group_stats)
    return parsed, stats
