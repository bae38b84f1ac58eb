"""Training loops: interleaved tagging/parsing updates over a stacked model,
the pipeline and joint comparison regimes, and k-fold jackknife tagging.

The interleaving draws a TAGGER or PARSER mini-batch with probability
proportional to the remaining per-objective budget, so a 10/5 epoch schedule
is honored in expectation without phase boundaries. TAGGER updates touch only
the tagger's blocks; PARSER updates backpropagate the parsing loss through
the parser and into the tagger's hidden layer and embeddings while leaving
the tagger's softmax blocks untouched.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from stackprop.corpus import Sentence, Vocab, build_vocabs, is_projective, projectivize
from stackprop.errors import StackpropError, UnrollError
from stackprop.evaluator import attachment_scores
from stackprop.model import (
    JOINT,
    JOINT_STACKPROP,
    PIPELINE,
    STACKPROP,
    ParserNetworkConfig,
    StackedModel,
    build_model,
)
from stackprop.nnkernel import (
    DTYPE,
    OptimizerConfig,
    asgd_step,
    backward_batch,
    backward_from_hidden,
    forward_batch,
    scatter_rows,
    softmax_xent_batch,
)
from stackprop.parser import parse_corpus, parser_input, token_tables, with_tags
from stackprop.tagger import (
    GROUP_ORDER,
    WORD_WINDOW,
    PretrainedVectors,
    TaggerActivations,
    TaggerConfig,
    encode_sentence,
    load_pretrained_embeddings,
    read_pretrained_vectors,
    tag_sentences,
)
from stackprop.transition import N_LABEL_TEMPLATES, template_rows, unroll

log = logging.getLogger("stackprop")

TAGGER_SOFTMAX_BLOCKS = ("W2", "b2")


@dataclass
class TrainingSchedule:
    parser_epochs: int = 10
    tagger_epochs: int = 5
    tagger_pretrain_epochs: int = 1
    lambda_weight: float = 1.0
    seed: int = 0
    patience: int = 3

    def __post_init__(self):
        if min(self.parser_epochs, self.tagger_epochs, self.tagger_pretrain_epochs) < 0:
            raise StackpropError("epoch counts must be non-negative")
        if not 0 <= self.lambda_weight < math.inf or self.patience < 1 or self.seed < 0:
            raise StackpropError(f"bad training schedule {self}")


@dataclass
class TrainSettings:
    schedule: TrainingSchedule = field(default_factory=TrainingSchedule)
    tagger_cfg: TaggerConfig = field(default_factory=TaggerConfig)
    parser_cfg: ParserNetworkConfig = field(default_factory=ParserNetworkConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    swap: bool = False
    embeddings_path: str = ""  # pretrained word vectors; empty for none
    jackknife_folds: int = 5

    def __post_init__(self):
        if self.jackknife_folds < 2:
            raise StackpropError("jackknifing needs k >= 2 folds")


@dataclass
class EncodedCorpus:
    """Offline training examples: per-token tagger features and the unrolled
    gold derivations, with template tokens resolved to global token rows."""

    sentences: list[Sentence]
    tag_inputs: dict[str, np.ndarray]
    tag_gold: np.ndarray
    deriv_tokens: np.ndarray
    deriv_labels: np.ndarray
    deriv_gold: np.ndarray
    skipped: int
    projectivized: int

    @property
    def n_tag_examples(self) -> int:
        return int(self.tag_gold.shape[0])

    @property
    def n_parse_examples(self) -> int:
        return int(self.deriv_gold.shape[0])


def encode_training_data(sentences: list[Sentence], model: StackedModel) -> EncodedCorpus:
    """Projectivize (unless SWAP handles non-projectivity), unroll every
    sentence once, and stack all features into flat arrays."""
    base = skipped = projectivized = 0
    tokens: list[int] = []  # N_TOKEN_TEMPLATES per step
    labels: list[int] = []  # N_LABEL_TEMPLATES per step
    gold: list[int] = []
    step_bases: list[int] = []
    kept: list[Sentence] = []
    encode = model.actions.encode
    for s in sentences:
        if not model.system.swap and not is_projective(s):
            s = projectivize(s)
            projectivized += 1
        try:
            deriv = unroll(s, model.system, model.labels, model.tags, model.actions)
        except UnrollError as e:
            skipped += 1
            log.warning("skipping unrollable sentence: %s", e)
            continue
        kept.append(s)
        for step_tokens, step_labels, action in deriv.steps:
            tokens += step_tokens
            labels += step_labels
            gold.append(encode(action))
        step_bases += [base] * len(deriv)
        base += len(s)
    if not kept:
        raise StackpropError("no trainable sentences after unrolling")
    return EncodedCorpus(
        sentences=kept,
        tag_inputs=encode_sentence(kept, model.tvocabs),
        tag_gold=np.array(
            [model.tags.class_index(t.gold_upos) for s in kept for t in s.tokens], dtype=np.int64
        ),
        deriv_tokens=template_rows(tokens, step_bases),
        deriv_labels=np.array(labels, dtype=np.int64).reshape(-1, N_LABEL_TEMPLATES),
        deriv_gold=np.array(gold, dtype=np.int64),
        skipped=skipped,
        projectivized=projectivized,
    )


def tagger_batch_update(
    model: StackedModel,
    data: EncodedCorpus,
    idx: np.ndarray,
    opt: OptimizerConfig,
    lam: float = 1.0,
) -> float:
    """One TAGGER update: tag cross-entropy backpropagated through the whole
    tagger network (softmax included)."""
    inputs = {name: data.tag_inputs[name][idx] for name in GROUP_ORDER}
    cache = forward_batch(model.tagger, inputs)
    _, losses, dlogits = softmax_xent_batch(cache.logits, data.tag_gold[idx])
    dlogits *= lam / len(idx)
    grads, _ = backward_batch(model.tagger, cache, dlogits)
    asgd_step(model.tagger, grads, opt)
    return float(losses.mean())


def parser_batch_update(
    model: StackedModel,
    data: EncodedCorpus,
    idx: np.ndarray,
    opt: OptimizerConfig,
    train_dists: Optional[np.ndarray] = None,
) -> float:
    """One PARSER update.

    The batch's template tokens are reduced to their distinct rows. A stacked
    variant runs the tagger forward on those rows, the parser reads its
    activations (and the learned null row), and the parsing loss is
    backpropagated into the parser and into the tagger's hidden/embedding
    blocks, skipping the tagger softmax. The pipeline reads the jackknifed
    tag distributions ``train_dists`` per token row instead and never
    touches the tagger.
    """
    batch = len(idx)
    toks = data.deriv_tokens[idx]
    gold = data.deriv_gold[idx]
    uniq, inv = np.unique(toks.ravel(), return_inverse=True)
    has_null = int(uniq[0] == -1)
    real_rows = uniq[has_null:]
    words = data.tag_inputs["words"][real_rows, WORD_WINDOW]
    stacked = model.variant.stacked
    if stacked:
        tcache = forward_batch(
            model.tagger, {name: data.tag_inputs[name][real_rows] for name in GROUP_ORDER}
        )
        acts = TaggerActivations(tcache.h1, None, words)
    elif train_dists is None:
        raise StackpropError("a pipeline parser update needs jackknifed tag distributions")
    else:
        acts = TaggerActivations(None, train_dists[real_rows], words)
    tables = token_tables(model, model.parser.params, acts)
    inputs = parser_input(tables, (inv - has_null).reshape(toks.shape), data.deriv_labels[idx])
    cache = forward_batch(model.parser, inputs)
    _, losses, dlogits = softmax_xent_batch(cache.logits, gold)
    dlogits /= batch
    grads, dense_grads = backward_batch(model.parser, cache, dlogits)
    if stacked:
        h_tagger = model.tagger_cfg.hidden
        dx = dense_grads["implicit"].reshape(-1, h_tagger)
        acc = scatter_rows(inv, dx, uniq.size)
        grads["null_input"] = acc[0] if has_null else np.zeros(h_tagger, dtype=DTYPE)
    asgd_step(model.parser, grads, opt)
    if stacked:
        tgrads, _ = backward_from_hidden(model.tagger, tcache, acc[has_null:])
        scope = [b for b in model.tagger.block_names if b not in TAGGER_SOFTMAX_BLOCKS]
        asgd_step(model.tagger, tgrads, opt, scope=scope)
    return float(losses.mean())


class _Stream:
    """Cyclic shuffled index stream; reshuffles at each pass boundary."""

    def __init__(self, n: int, rng: np.random.Generator):
        self.n = n
        self.rng = rng
        self.order = np.empty(0, dtype=np.int64)
        self.pos = 0

    def take(self, b: int) -> np.ndarray:
        parts = []
        need = b
        while need > 0:
            if self.pos >= len(self.order):
                self.order = self.rng.permutation(self.n)
                self.pos = 0
            chunk = self.order[self.pos : self.pos + need]
            self.pos += len(chunk)
            need -= len(chunk)
            parts.append(chunk)
        return np.concatenate(parts) if len(parts) > 1 else parts[0]


def _snapshot_inference(model: StackedModel) -> dict:
    return {
        name: {k: v.copy() for k, v in net.inference_params().items()}
        for name, net in (("tagger", model.tagger), ("parser", model.parser))
    }


def _restore_inference(model: StackedModel, snap: dict) -> None:
    for name, net in (("tagger", model.tagger), ("parser", model.parser)):
        for k, v in snap[name].items():
            net.set_average(k, v)


def _dev_scores(model: StackedModel, dev: list[Sentence]) -> tuple[float, float]:
    # the averages are read once per sentence; settled, they are read in place
    model.tagger.settle_averages()
    model.parser.settle_averages()
    parsed, _ = parse_corpus(dev, model)
    report = attachment_scores(dev, parsed, include_punct=True)
    return report.uas, report.las


def _finite(loss: float, objective: str, update: int) -> float:
    """The loss of an update, or a StackpropError once training diverged."""
    if not math.isfinite(loss):
        raise StackpropError(
            f"training diverged: {objective} loss is {loss} at update {update} (lower eta0?)"
        )
    return loss


def run_interleaved(
    model: StackedModel,
    data: EncodedCorpus,
    dev: Optional[list[Sentence]],
    schedule: TrainingSchedule,
    opt: OptimizerConfig,
    rng: np.random.Generator,
    tag_supervision: bool,
    train_dists: Optional[np.ndarray] = None,
    log_fn: Optional[Callable[[str], None]] = None,
) -> StackedModel:
    """Pretrain the tagger, then interleave TAGGER/PARSER mini-batches with
    probability proportional to the remaining budgets; evaluate dev UAS every
    epoch-equivalent and keep the best averaged parameters. Raises
    StackpropError at the first update whose loss is not finite."""
    emit = log_fn or (lambda s: log.info("%s", s))
    n_tag = data.n_tag_examples if tag_supervision else 0
    n_par = data.n_parse_examples
    tag_stream = _Stream(max(data.n_tag_examples, 1), rng)
    par_stream = _Stream(max(n_par, 1), rng)

    updates = 0
    if tag_supervision:
        for _ in range(schedule.tagger_pretrain_epochs):  # a batch never spans two passes
            updates += train_tagger_only(model, data, 1, opt, rng, schedule.lambda_weight)

    remaining_t = schedule.tagger_epochs * n_tag
    remaining_p = schedule.parser_epochs * n_par
    epoch_unit = max(n_tag + n_par, 1)
    consumed = 0
    next_eval = epoch_unit
    eq = 0
    best_uas = -1.0
    best_snap = None
    streak = 0
    loss_t, loss_p, nb_t, nb_p = 0.0, 0.0, 0, 0
    while remaining_t + remaining_p > 0:
        updates += 1
        if rng.random() < remaining_t / (remaining_t + remaining_p):
            b = min(opt.batch_size, remaining_t)
            loss = tagger_batch_update(model, data, tag_stream.take(b), opt, schedule.lambda_weight)
            loss_t += _finite(loss, "TAGGER", updates)
            nb_t += 1
            remaining_t -= b
        else:
            b = min(opt.batch_size, remaining_p)
            loss = parser_batch_update(model, data, par_stream.take(b), opt, train_dists)
            loss_p += _finite(loss, "PARSER", updates)
            nb_p += 1
            remaining_p -= b
        consumed += b
        if consumed >= next_eval:
            eq += 1
            next_eval += epoch_unit
            line = (
                f"epoch_eq={eq} consumed={consumed}"
                f" tag_loss={loss_t / max(nb_t, 1):.4f} parse_loss={loss_p / max(nb_p, 1):.4f}"
            )
            loss_t, loss_p, nb_t, nb_p = 0.0, 0.0, 0, 0
            if dev:
                uas, las = _dev_scores(model, dev)
                line += f" dev_uas={uas:.4f} dev_las={las:.4f}"
                emit(line)
                if uas > best_uas:
                    best_uas = uas
                    best_snap = _snapshot_inference(model)
                    streak = 0
                else:
                    streak += 1
                    if streak >= schedule.patience:
                        emit(f"early_stop=1 best_dev_uas={best_uas:.4f}")
                        break
            else:
                emit(line)
    if best_snap is not None:
        _restore_inference(model, best_snap)
    model.tagger.settle_averages()
    model.parser.settle_averages()
    return model


def train_tagger_only(
    model: StackedModel,
    data: EncodedCorpus,
    epochs: int,
    opt: OptimizerConfig,
    rng: np.random.Generator,
    lam: float = 1.0,
) -> int:
    """``epochs`` passes of TAGGER updates, whose batches run on across
    passes; returns the update count. The averages are left unsettled."""
    stream = _Stream(data.n_tag_examples, rng)
    budget = epochs * data.n_tag_examples
    updates = 0
    while budget > 0:
        b = min(opt.batch_size, budget)
        updates += 1
        _finite(tagger_batch_update(model, data, stream.take(b), opt, lam), "TAGGER", updates)
        budget -= b
    return updates


def stackprop_train(
    train: list[Sentence],
    dev: Optional[list[Sentence]],
    settings: TrainSettings,
    log_fn: Optional[Callable[[str], None]] = None,
) -> StackedModel:
    return train_variant(STACKPROP, train, dev, settings, log_fn)


def joint_train(
    train: list[Sentence],
    dev: Optional[list[Sentence]],
    settings: TrainSettings,
    with_stackprop: bool = False,
    log_fn: Optional[Callable[[str], None]] = None,
) -> StackedModel:
    """Tag-augmented SHIFT system; with ``with_stackprop`` the interleaved
    TAGGER updates are kept, so tag supervision is used twice."""
    return train_variant(JOINT_STACKPROP if with_stackprop else JOINT, train, dev, settings, log_fn)


def _fresh_model(
    mode: str,
    sentences: list[Sentence],
    settings: TrainSettings,
    rng: np.random.Generator,
    vectors: Optional[PretrainedVectors],
) -> tuple[StackedModel, EncodedCorpus]:
    """A model for ``sentences`` seeded from ``rng``, its word-embedding
    blocks filled from ``vectors`` (when given), and the sentences encoded
    for it."""
    model = build_model(
        mode,
        sentences,
        settings.tagger_cfg,
        settings.parser_cfg,
        swap=settings.swap,
        seed=int(rng.integers(2**31)),
    )
    for net, block in ((model.tagger, "E_words"), (model.parser, "E_pwords")):
        if vectors is not None and block in net.params:
            loaded, total = load_pretrained_embeddings(vectors, model.forms, net.params[block])
            log.info("pretrained embeddings: initialized %d of %d rows of %s", loaded, total, block)
    return model, encode_training_data(sentences, model)


def _read_vectors(
    settings: TrainSettings, sentences: list[Sentence]
) -> Optional[PretrainedVectors]:
    """The configured pretrained word vectors, read once for the forms of
    ``sentences``: every model trained on a part of them fills its blocks
    from this read. None when no file is configured."""
    if not settings.embeddings_path:
        return None
    forms, _, _ = build_vocabs(sentences)
    return read_pretrained_vectors(settings.embeddings_path, forms)


def jackknife_tags(
    sentences: list[Sentence],
    settings: TrainSettings,
    seed: int = 0,
    global_tags: Optional[Vocab] = None,
    vectors: Optional[PretrainedVectors] = None,
) -> tuple[list[Sentence], np.ndarray, list[StackedModel]]:
    """Tag a corpus with k-fold jackknifed tags, k being
    ``settings.jackknife_folds``.

    Each contiguous fold is tagged by a tagger trained only on the other
    folds (its own vocabularies included) and starts from the pretrained
    ``vectors``, read here when not given. Returns the corpus tagged as
    ``tag`` writes it (``parser.with_tags``: each token's pred_upos from
    its fold's tagger, its input head and label as the predicted ones), the
    per-token tag distributions mapped into ``global_tags`` class order, and
    the fold models.
    """
    n, k = len(sentences), settings.jackknife_folds
    if n < k:
        raise StackpropError(f"corpus of {n} sentences cannot be split into {k} folds")
    if global_tags is None:
        _, global_tags, _ = build_vocabs(sentences)
    if vectors is None:
        vectors = _read_vectors(settings, sentences)
    bounds = [round(i * n / k) for i in range(k + 1)]
    rng = np.random.default_rng(seed)
    annotated: list[Sentence] = list(sentences)
    dists = np.zeros((sum(len(s) for s in sentences), global_tags.n_classes), dtype=DTYPE)
    offsets = np.cumsum([0] + [len(s) for s in sentences])
    fold_models = []
    epochs = settings.schedule.tagger_pretrain_epochs + settings.schedule.tagger_epochs
    for lo, hi in zip(bounds, bounds[1:]):
        held_out = sentences[lo:hi]
        rest = sentences[:lo] + sentences[hi:]
        fold_model, data = _fresh_model(STACKPROP, rest, settings, rng, vectors)
        train_tagger_only(fold_model, data, epochs, settings.optimizer, rng)
        fold_model.tagger.settle_averages()
        fold_models.append(fold_model)
        class_map = np.array(
            [
                global_tags.class_index(t) if t in global_tags else -1
                for t in fold_model.tags.entries()
            ],
            dtype=np.int64,
        )
        known = class_map >= 0
        preds, acts = tag_sentences(
            held_out, fold_model.tagger, fold_model.tvocabs, fold_model.tags
        )
        dists[offsets[lo] : offsets[hi], class_map[known]] = acts.probs[:, known]
        annotated[lo:hi] = map(with_tags, held_out, preds)
    return annotated, dists, fold_models


def pipeline_train(
    train: list[Sentence],
    dev: Optional[list[Sentence]],
    settings: TrainSettings,
    log_fn: Optional[Callable[[str], None]] = None,
) -> StackedModel:
    """The stacking baseline: an independent tagger plus a parser fed by
    predicted tag distributions and word embeddings."""
    return train_variant(PIPELINE, train, dev, settings, log_fn)


def train_variant(
    mode: str,
    train: list[Sentence],
    dev: Optional[list[Sentence]],
    settings: TrainSettings,
    log_fn: Optional[Callable[[str], None]] = None,
) -> StackedModel:
    """Train one variant of ``model.VARIANTS``. A variant that is not stacked
    trains its tagger alone first; its parser trains on jackknifed tag
    distributions and decodes with the final tagger's."""
    schedule = settings.schedule
    rng = np.random.default_rng(schedule.seed)
    vectors = _read_vectors(settings, train)
    model, data = _fresh_model(mode, train, settings, rng, vectors)
    if data.skipped or data.projectivized:
        (log.warning if data.skipped else log.info)(
            "training sentences: %d projectivized, %d unrollable skipped",
            data.projectivized, data.skipped,
        )
    train_dists = None
    if not model.variant.stacked:
        # the encoder may have projectivized/dropped sentences; jackknife the kept ones
        _, train_dists, _ = jackknife_tags(
            data.sentences, settings, seed=int(rng.integers(2**31)), global_tags=model.tags,
            vectors=vectors,
        )
        epochs = schedule.tagger_pretrain_epochs + schedule.tagger_epochs
        train_tagger_only(model, data, epochs, settings.optimizer, rng)
    return run_interleaved(
        model, data, dev, schedule, settings.optimizer, rng,
        model.variant.tag_supervision, train_dists=train_dists, log_fn=log_fn,
    )
