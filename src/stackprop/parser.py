"""Greedy transition parser over the tagger's hidden activations.

Feature templates index tokens in the configuration; the selected tokens'
tagger activations form the parser's dense input group (discrete label ids of
already-built arcs form the other). Decoding computes tagger activations once
per sentence and re-indexes the cached rows at every step.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from stackprop.corpus import NULL_ID, Sentence
from stackprop.errors import StackpropError
from stackprop.model import N_LABEL_TEMPLATES, N_TOKEN_TEMPLATES, StackedModel
from stackprop.nnkernel import DTYPE, forward_batch
from stackprop.tagger import TaggerActivations, tag_sentence
from stackprop.transition import (
    ParserConfiguration,
    apply,
    initial,
    is_terminal,
)

NULL_TOKEN = -1  # template slot with no token (or the root sentinel)


def _side_children(c: ParserConfiguration, token: int) -> tuple[list[int], list[int]]:
    if token <= 0:
        return [], []
    left = sorted(d for (h, _, d) in c.arcs if h == token and d < token)
    right = sorted(d for (h, _, d) in c.arcs if h == token and d > token)
    return left, right


def feature_tokens(c: ParserConfiguration) -> np.ndarray:
    """The 20 template token indices for a configuration (-1 for NULL).

    Layout: four top stack slots, four buffer slots, then for each of the two
    top stack tokens the leftmost/rightmost and second-leftmost/-rightmost
    children, then leftmost-of-leftmost and rightmost-of-rightmost.
    """
    out = np.full(N_TOKEN_TEMPLATES, NULL_TOKEN, dtype=np.int64)

    def put(i: int, token: Optional[int]) -> None:
        if token is not None and token > 0:
            out[i] = token

    stack, buf = c.stack, c.buffer
    for i in range(4):
        put(i, stack[-1 - i] if len(stack) > i else None)
        put(4 + i, buf[i] if len(buf) > i else None)
    for si in range(2):
        token = stack[-1 - si] if len(stack) > si else 0
        left, right = _side_children(c, token)
        base = 8 + 4 * si
        put(base, left[0] if left else None)
        put(base + 1, right[-1] if right else None)
        put(base + 2, left[1] if len(left) > 1 else None)
        put(base + 3, right[-2] if len(right) > 1 else None)
        ll, _ = _side_children(c, left[0] if left else 0)
        _, rr = _side_children(c, right[-1] if right else 0)
        put(16 + 2 * si, ll[0] if ll else None)
        put(17 + 2 * si, rr[-1] if rr else None)
    return out


def label_features(c: ParserConfiguration, tokens: Optional[np.ndarray] = None) -> np.ndarray:
    """Label vocab ids of the 12 child template slots (NULL id when empty)."""
    if tokens is None:
        tokens = feature_tokens(c)
    child_slots = tokens[8:]
    out = np.full(N_LABEL_TEMPLATES, NULL_ID, dtype=np.int64)
    by_dep = {d: l for (_, l, d) in c.arcs}
    for i, tok in enumerate(child_slots):
        if tok != NULL_TOKEN:
            out[i] = by_dep.get(int(tok), NULL_ID)
    return out


def featurize(c: ParserConfiguration, base: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(20,) template token rows and (12,) label ids of one configuration.

    Token ``t`` of the sentence is row ``base + t - 1`` of the per-token
    tables (``base`` is the sentence's first row); empty slots are -1.
    """
    tokens = feature_tokens(c)
    rows = np.where(tokens != NULL_TOKEN, tokens + (base - 1), NULL_TOKEN)
    return rows, label_features(c, tokens)


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
    c: ParserConfiguration,
    model: StackedModel,
    acts: TaggerActivations,
    params: dict[str, np.ndarray],
) -> np.ndarray:
    """Logits over the full action space (unmasked) for one configuration of
    a sentence with tagger output ``acts``."""
    rows, labels = featurize(c)
    inputs = parser_input(model, params, rows[None], labels[None], acts)
    return forward_batch(model.parser, inputs, params).logits[0]


@dataclass
class ParseStats:
    sentences: int = 0
    tokens: int = 0
    tagger_evals: int = 0
    parser_evals: int = 0
    seconds: float = 0.0

    def add(self, other: "ParseStats") -> None:
        self.sentences += other.sentences
        self.tokens += other.tokens
        self.tagger_evals += other.tagger_evals
        self.parser_evals += other.parser_evals


def parse_sentence(
    sentence: Sentence,
    model: StackedModel,
    averaged: bool = True,
    fill_tags: Optional[bool] = None,
    stats: Optional[ParseStats] = None,
) -> Sentence:
    """Greedy decode: one tagger pass for activations, then repeatedly score,
    mask illegal actions, and apply the argmax until terminal.

    Returns a copy with pred_head/pred_deprel set (and pred_upos in the joint
    system, or from the tagger softmax when ``fill_tags`` is true, which is
    the default for a variant that is not stacked).
    """
    if len(sentence) == 0:
        raise StackpropError("cannot parse an empty sentence")
    pred_tags, acts = tag_sentence(
        sentence, model.tagger, model.tvocabs, model.tags, averaged=averaged
    )
    params = model.parser.inference_params(averaged)
    c = initial(sentence)
    n_steps = 0
    while not is_terminal(c):
        logits = score_actions(c, model, acts, params)
        mask = model.actions.legal_mask(c)
        if not mask.any():
            raise StackpropError(f"non-terminal configuration with no legal action: {c}")
        logits[~mask] = -np.inf
        c = apply(c, model.actions.decode(int(np.argmax(logits))), model.system)
        n_steps += 1
    heads = {d: (h, l) for (h, l, d) in c.arcs}
    if fill_tags is None:
        fill_tags = not model.variant.stacked
    joint_tags = dict(c.tags)
    tokens = []
    for t in sentence.tokens:
        h, l = heads[t.index]
        pred_upos = t.pred_upos
        if model.system.joint:
            pred_upos = model.tags.string_of(joint_tags[t.index])
        elif fill_tags:
            pred_upos = pred_tags[t.index - 1]
        tokens.append(
            replace(t, pred_head=h, pred_deprel=model.labels.string_of(l), pred_upos=pred_upos)
        )
    if stats is not None:
        stats.sentences += 1
        stats.tokens += len(sentence)
        stats.tagger_evals += len(sentence)
        stats.parser_evals += n_steps
    return Sentence(tokens, id=sentence.id)


def parse_corpus(
    sentences: list[Sentence],
    model: StackedModel,
    threads: int = 1,
    averaged: bool = True,
    fill_tags: Optional[bool] = None,
) -> tuple[list[Sentence], ParseStats]:
    """Parse a corpus with an optional thread pool; output order matches
    input order regardless of thread count."""
    stats = ParseStats()
    t0 = time.perf_counter()

    def work(s: Sentence) -> tuple[Sentence, ParseStats]:
        local = ParseStats()
        parsed = parse_sentence(s, model, averaged=averaged, fill_tags=fill_tags, stats=local)
        return parsed, local

    if threads <= 1:
        results = [work(s) for s in sentences]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, sentences))
    for _, local in results:
        stats.add(local)
    stats.seconds = time.perf_counter() - t0
    return [parsed for parsed, _ in results], stats
