"""Greedy transition parser over the tagger's hidden activations.

Feature templates (``transition.featurize``) index tokens in the
configuration; the selected tokens' tagger activations form the parser's
dense input group (discrete label ids of already-built arcs form the other).
Sentences are decoded in lockstep groups. Each group's tagger features are
encoded once and its tagger activations computed once per sentence; every
step re-indexes those cached rows and scores every live configuration of the
group with one parser forward.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from stackprop.corpus import NULL_ID, Sentence
from stackprop.errors import StackpropError
from stackprop.model import StackedModel
from stackprop.nnkernel import DTYPE, forward_batch
from stackprop.tagger import TaggerActivations, tag_sentences
from stackprop.transition import NULL_TOKEN, ParserConfiguration, apply, featurize, initial
from stackprop.transition import feature_tokens, is_terminal, label_features  # noqa: F401

# sentences decoded in lockstep: their configurations share each parser
# forward, and the group bounds the concatenated tagger activations
LOCKSTEP_SENTENCES = 64


def gather_activation_rows(
    rows: np.ndarray, hidden: np.ndarray, null_row: np.ndarray
) -> np.ndarray:
    """(B, 20, H) dense input: the tagger activation ``hidden[row]`` of each
    template token, or the learned null row for empty slots (row -1)."""
    dense = np.empty(rows.shape + (hidden.shape[1],), dtype=DTYPE)
    real = rows != NULL_TOKEN
    dense[real] = hidden[rows[real]]
    dense[~real] = null_row
    return dense


def parser_input(
    model: StackedModel,
    params: dict[str, np.ndarray],
    rows: np.ndarray,
    labels: np.ndarray,
    acts: TaggerActivations,
) -> dict[str, np.ndarray]:
    """The parser's input for B configurations, in training and decoding alike.

    ``rows`` (B, 20) index the per-token rows of ``acts`` (-1 for an empty
    slot); ``labels`` (B, 12) are label ids. Stacked variants read tagger
    activations, with ``params["null_input"]`` in empty slots. The pipeline
    reads tag distributions (zeros in empty slots) and word ids (NULL_ID in
    empty slots).
    """
    if model.variant.stacked:
        dense = gather_activation_rows(rows, acts.hidden, params["null_input"])
        return {"implicit": dense, "labels": labels}
    if acts.probs is None:
        raise StackpropError("pipeline parser input needs tag distributions")
    real = rows != NULL_TOKEN
    dist = np.zeros(rows.shape + (model.tags.n_classes,), dtype=DTYPE)
    dist[real] = acts.probs[rows[real]]
    words = np.full(rows.shape, NULL_ID, dtype=np.int64)
    words[real] = acts.words[rows[real]]
    return {"tagdist": dist, "pwords": words, "labels": labels}


def score_actions(
    configs: list[ParserConfiguration],
    bases: list[int],
    model: StackedModel,
    acts: TaggerActivations,
    params: dict[str, np.ndarray],
) -> np.ndarray:
    """(B, n_actions) logits over the full action space (unmasked), one row
    per configuration; ``configs[i]`` belongs to the sentence whose first
    token is row ``bases[i]`` of ``acts``. One parser forward for all B."""
    rows, labels = featurize(configs, bases)
    inputs = parser_input(model, params, rows, labels, acts)
    return forward_batch(model.parser, inputs, params).logits


@dataclass
class ParseStats:
    sentences: int = 0
    tokens: int = 0
    tagger_evals: int = 0
    parser_evals: int = 0  # configurations scored
    parser_batches: int = 0  # parser forward calls (one per lockstep step)
    seconds: float = 0.0

    def add(self, other: "ParseStats") -> None:
        self.sentences += other.sentences
        self.tokens += other.tokens
        self.tagger_evals += other.tagger_evals
        self.parser_evals += other.parser_evals
        self.parser_batches += other.parser_batches


def _decode(
    sentences: list[Sentence],
    model: StackedModel,
    averaged: bool,
    fill_tags: Optional[bool],
    stats: Optional[ParseStats],
    tag_only: bool = False,
) -> tuple[list[Sentence], list[np.ndarray]]:
    """Greedy lockstep decode of a group of sentences: one tagger encoding of
    the group and one tagger pass per sentence, then at every step one parser
    forward over all configurations still live; each applies its best legal
    action, and a configuration is retired once terminal. Returns the parsed
    sentences and each one's tagger hidden rows. ``tag_only`` stops after
    tagging: each sentence gets the tagger's tags and keeps its input heads
    and labels."""
    if any(len(s) == 0 for s in sentences):
        raise StackpropError("cannot parse an empty sentence")
    tagged = tag_sentences(sentences, model.tagger, model.tvocabs, model.tags, averaged)
    acts = TaggerActivations(
        np.concatenate([a.hidden for _, a in tagged]),
        np.concatenate([a.probs for _, a in tagged]),
        np.concatenate([a.words for _, a in tagged]),
    )
    bases = np.cumsum([0] + [len(s) for s in sentences[:-1]]).tolist()
    params = model.parser.inference_params(averaged)
    configs = [initial(s) for s in sentences]
    live = [] if tag_only else list(range(len(sentences)))
    n_steps = n_batches = 0
    while live:
        logits = score_actions(
            [configs[i] for i in live], [bases[i] for i in live], model, acts, params
        )
        for i, scores in zip(live, logits):
            mask = model.actions.legal_mask(configs[i])
            if not mask.any():
                raise StackpropError(
                    f"non-terminal configuration with no legal action: {configs[i]}"
                )
            scores[~mask] = -np.inf
            apply(configs[i], model.actions.decode(int(np.argmax(scores))), model.system)
        n_steps += len(live)
        n_batches += 1
        live = [i for i in live if not is_terminal(configs[i])]
    if fill_tags is None:
        fill_tags = not model.variant.stacked
    out = []
    for sentence, c, (pred_tags, _) in zip(sentences, configs, tagged):
        tokens = []
        for t in sentence.tokens:
            pred_upos = t.pred_upos
            if tag_only:
                tokens.append(replace(t, pred_upos=pred_tags[t.index - 1],
                                      pred_head=t.gold_head, pred_deprel=t.gold_deprel))
                continue
            if model.system.joint:
                pred_upos = model.tags.string_of(c.tags[t.index])
            elif fill_tags:
                pred_upos = pred_tags[t.index - 1]
            head, label = c.head[t.index], model.labels.string_of(c.label[t.index])
            tokens.append(replace(t, pred_head=head, pred_deprel=label, pred_upos=pred_upos))
        out.append(Sentence(tokens, id=sentence.id))
    if stats is not None:
        n_tokens = sum(len(s) for s in sentences)
        stats.sentences += len(sentences)
        stats.tokens += n_tokens
        stats.tagger_evals += n_tokens
        stats.parser_evals += n_steps
        stats.parser_batches += n_batches
    return out, [a.hidden for _, a in tagged]


def parse_sentence(
    sentence: Sentence,
    model: StackedModel,
    averaged: bool = True,
    fill_tags: Optional[bool] = None,
    stats: Optional[ParseStats] = None,
) -> Sentence:
    """Greedy decode of one sentence: one tagger pass for activations, then
    repeatedly score, mask illegal actions, and apply the argmax until
    terminal.

    Returns a copy with pred_head/pred_deprel set (and pred_upos in the joint
    system, or from the tagger softmax when ``fill_tags`` is true, which is
    the default for a variant that is not stacked).
    """
    return _decode([sentence], model, averaged, fill_tags, stats)[0][0]


def parse_corpus(
    sentences: list[Sentence],
    model: StackedModel,
    threads: int = 1,
    averaged: bool = True,
    fill_tags: Optional[bool] = None,
    activations: Optional[list[np.ndarray]] = None,
    tag_only: bool = False,
) -> tuple[list[Sentence], ParseStats]:
    """Parse a corpus in lockstep groups of consecutive sentences
    (``LOCKSTEP_SENTENCES`` each), mapped over a thread pool when
    ``threads > 1``. The groups do not depend on the thread count, and the
    output order matches the input order. When ``activations`` is a list,
    each sentence's (n, H) tagger hidden rows, computed for decoding, are
    appended to it in input order. ``tag_only`` tags without parsing (see
    ``_decode``)."""
    t0 = time.perf_counter()
    groups = [
        sentences[i : i + LOCKSTEP_SENTENCES]
        for i in range(0, len(sentences), LOCKSTEP_SENTENCES)
    ]

    def work(group: list[Sentence]) -> tuple[list[Sentence], list[np.ndarray], ParseStats]:
        local = ParseStats()
        return (*_decode(group, model, averaged, fill_tags, local, tag_only), local)

    if threads <= 1:
        results = [work(g) for g in groups]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, groups))
    parsed: list[Sentence] = []
    stats = ParseStats()
    for group_parsed, hidden, local in results:
        parsed += group_parsed
        if activations is not None:
            activations += hidden
        stats.add(local)
    stats.seconds = time.perf_counter() - t0
    return parsed, stats
