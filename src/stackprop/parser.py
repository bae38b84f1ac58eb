"""Greedy transition parser over the tagger's hidden activations.

Feature templates (``transition.featurize``) index tokens in the
configuration; the selected tokens' tagger activations form the parser's
dense input group (discrete label ids of already-built arcs form the other).
Sentences are decoded in lockstep groups. Each group is tagged once
(``tag_sentences``) and its per-token tables built once; every step indexes
those tables and scores every live configuration of the group with one
parser forward.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from stackprop.corpus import NULL_ID, Sentence
from stackprop.errors import StackpropError
from stackprop.model import StackedModel
from stackprop.nnkernel import DTYPE, forward_batch
from stackprop.tagger import TaggerActivations, tag_sentences
from stackprop.transition import ParserConfiguration, apply, featurize, initial
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


def score_actions(
    configs: list[ParserConfiguration],
    bases: list[int],
    model: StackedModel,
    tables: dict[str, np.ndarray],
    params: dict[str, np.ndarray],
) -> np.ndarray:
    """(B, n_actions) logits over the full action space (unmasked), one row
    per configuration; ``configs[i]`` belongs to the sentence whose first
    token is row ``bases[i]`` of the ``tables``. One parser forward for all B."""
    rows, labels = featurize(configs, bases)
    return forward_batch(model.parser, parser_input(tables, rows, labels), params).logits


@dataclass
class ParseStats:
    sentences: int = 0
    tokens: int = 0  # also the tagger evaluations: one per token
    parser_evals: int = 0  # configurations scored
    parser_batches: int = 0  # parser forward calls (one per lockstep step)

    def add(self, other: "ParseStats") -> None:
        self.sentences += other.sentences
        self.tokens += other.tokens
        self.parser_evals += other.parser_evals
        self.parser_batches += other.parser_batches


def _decode(
    sentences: list[Sentence],
    model: StackedModel,
    fill_tags: Optional[bool],
    stats: ParseStats,
    tag_only: bool = False,
) -> tuple[list[Sentence], list[np.ndarray]]:
    """Greedy lockstep decode of a group of sentences: the group is tagged
    once and its token tables built once, then at every step one parser
    forward scores all configurations still live; each applies its best
    legal action, and a configuration is retired once terminal. Returns the
    parsed sentences and each one's tagger hidden rows, and adds to
    ``stats``. ``tag_only`` stops after tagging: each sentence gets the
    tagger's tags and keeps its input heads and labels."""
    if any(len(s) == 0 for s in sentences):
        raise StackpropError("cannot parse an empty sentence")
    pred_tags, acts = tag_sentences(sentences, model.tagger, model.tvocabs, model.tags)
    bounds = np.cumsum([0] + [len(s) for s in sentences]).tolist()
    params = model.parser.inference_params()
    tables = token_tables(model, params, acts)
    configs = [initial(s) for s in sentences]
    live = [] if tag_only else list(range(len(sentences)))
    n_steps = n_batches = 0
    while live:
        logits = score_actions(
            [configs[i] for i in live], [bounds[i] for i in live], model, tables, params
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
    for sentence, c, tags in zip(sentences, configs, pred_tags):
        tokens = []
        for t in sentence.tokens:
            pred_upos = t.pred_upos
            if tag_only:
                tokens.append(replace(t, pred_upos=tags[t.index - 1],
                                      pred_head=t.gold_head, pred_deprel=t.gold_deprel))
                continue
            if model.system.joint:
                pred_upos = model.tags.string_of(c.tags[t.index])
            elif fill_tags:
                pred_upos = tags[t.index - 1]
            head, label = c.head[t.index], model.labels.string_of(c.label[t.index])
            tokens.append(replace(t, pred_head=head, pred_deprel=label, pred_upos=pred_upos))
        out.append(Sentence(tokens, id=sentence.id))
    stats.sentences += len(sentences)
    stats.tokens += bounds[-1]
    stats.parser_evals += n_steps
    stats.parser_batches += n_batches
    return out, [acts.hidden[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def parse_sentence(
    sentence: Sentence, model: StackedModel, fill_tags: Optional[bool] = None
) -> Sentence:
    """Greedy decode of one sentence: one tagger pass for activations, then
    repeatedly score, mask illegal actions, and apply the argmax until
    terminal.

    Returns a copy with pred_head/pred_deprel set (and pred_upos in the joint
    system, or from the tagger softmax when ``fill_tags`` is true, which is
    the default for a variant that is not stacked).
    """
    return _decode([sentence], model, fill_tags, ParseStats())[0][0]


def parse_corpus(
    sentences: list[Sentence],
    model: StackedModel,
    threads: int = 1,
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
    groups = [
        sentences[i : i + LOCKSTEP_SENTENCES]
        for i in range(0, len(sentences), LOCKSTEP_SENTENCES)
    ]

    def work(group: list[Sentence]) -> tuple[list[Sentence], list[np.ndarray], ParseStats]:
        local = ParseStats()
        return (*_decode(group, model, fill_tags, local, tag_only), local)

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
    return parsed, stats
