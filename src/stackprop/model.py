"""The stacked tagger+parser bundle: construction, sizing, serialization."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import BinaryIO, Union

import numpy as np

from stackprop.corpus import Sentence, Vocab, build_vocabs, root_label_of
from stackprop.errors import ModelError, StackpropError
from stackprop.nnkernel import (
    FeatureGroupSpec,
    Network,
    load_model as _load_container,
    save_model as _save_container,
)
from stackprop.tagger import TaggerConfig, TaggerVocabs, build_tagger_vocabs, tagger_groups
from stackprop.transition import ActionSpace, TransitionSystem

# training variants
STACKPROP = "stackprop"
PIPELINE = "pipeline"
JOINT = "joint"
JOINT_STACKPROP = "joint_stackprop"
WINDOW = "window"
MODES = (STACKPROP, PIPELINE, JOINT, JOINT_STACKPROP, WINDOW)

N_TOKEN_TEMPLATES = 20
N_LABEL_TEMPLATES = 12


@dataclass
class ParserNetworkConfig:
    hidden: int = 1024
    d_implicit: int = 64  # embedding applied to each tagger-activation row
    d_label: int = 32
    d_word: int = 64  # pipeline variant only


@dataclass
class StackedModel:
    """Everything needed to tag and parse: vocabularies, both networks, and
    the transition-system wiring."""

    mode: str
    system: TransitionSystem
    forms: Vocab
    tags: Vocab
    labels: Vocab
    tvocabs: TaggerVocabs
    tagger_cfg: TaggerConfig
    parser_cfg: ParserNetworkConfig
    root_label: int
    root_exclusive: bool
    tagger: Network
    parser: Network
    actions: ActionSpace = field(init=False)

    def __post_init__(self):
        self.actions = ActionSpace(
            self.labels, self.tags, self.system, self.root_label, self.root_exclusive
        )

    def count_parameters(self) -> int:
        return self.tagger.count_parameters() + self.parser.count_parameters()


def parser_group_specs(
    mode: str,
    tagger_cfg: TaggerConfig,
    parser_cfg: ParserNetworkConfig,
    tags: Vocab,
    labels: Vocab,
    forms: Vocab,
) -> list[FeatureGroupSpec]:
    """Parser input layout per variant: stacked modes read 20 dense tagger
    activations; the pipeline reads 20 raw tag distributions plus 20 word
    embeddings. Both keep 12 discrete label features."""
    label_group = FeatureGroupSpec(
        "labels", N_LABEL_TEMPLATES, labels.size, parser_cfg.d_label
    )
    if mode == PIPELINE:
        return [
            FeatureGroupSpec(
                "tagdist",
                N_TOKEN_TEMPLATES,
                tags.n_classes,
                tags.n_classes,
                dense=True,
                embedded=False,
            ),
            FeatureGroupSpec("pwords", N_TOKEN_TEMPLATES, forms.size, parser_cfg.d_word),
            label_group,
        ]
    return [
        FeatureGroupSpec(
            "implicit",
            N_TOKEN_TEMPLATES,
            tagger_cfg.hidden,
            parser_cfg.d_implicit,
            dense=True,
        ),
        label_group,
    ]


def build_model(
    mode: str,
    train_sentences: list[Sentence],
    tagger_cfg: TaggerConfig,
    parser_cfg: ParserNetworkConfig,
    swap: bool = False,
    seed: int = 0,
) -> StackedModel:
    """Initialize a fresh model: vocabularies from the training corpus,
    uniformly initialized parameters from the seed."""
    if mode not in MODES:
        raise StackpropError(f"unknown mode {mode!r}")
    forms, tags, labels = build_vocabs(train_sentences)
    tvocabs = build_tagger_vocabs(train_sentences, forms)
    root_label, root_exclusive = root_label_of(train_sentences, labels)
    system = TransitionSystem(swap=swap, joint=mode in (JOINT, JOINT_STACKPROP))
    rng = np.random.default_rng(seed)
    tagger = Network(
        tagger_groups(tvocabs, tagger_cfg), tagger_cfg.hidden, tags.n_classes, rng
    )
    space = ActionSpace(labels, tags, system, root_label, root_exclusive)
    extra = None if mode == PIPELINE else {"null_input": (tagger_cfg.hidden,)}
    parser = Network(
        parser_group_specs(mode, tagger_cfg, parser_cfg, tags, labels, forms),
        parser_cfg.hidden,
        space.size,
        rng,
        extra_blocks=extra,
    )
    return StackedModel(
        mode,
        system,
        forms,
        tags,
        labels,
        tvocabs,
        tagger_cfg,
        parser_cfg,
        root_label,
        root_exclusive,
        tagger,
        parser,
    )


def parameter_count(
    mode: str,
    tagger_cfg: TaggerConfig,
    parser_cfg: ParserNetworkConfig,
    forms: Vocab,
    tags: Vocab,
    labels: Vocab,
    tvocabs: TaggerVocabs,
    swap: bool = False,
) -> int:
    """Parameter count of a would-be model, computed from shapes alone."""

    def net_count(groups: list[FeatureGroupSpec], h: int, k: int, extra: int) -> int:
        emb = sum(g.vocab_size * g.embed_dim for g in groups if g.embedded)
        width = sum(g.width for g in groups)
        return emb + width * h + h + h * k + k + extra

    system = TransitionSystem(swap=swap, joint=mode in (JOINT, JOINT_STACKPROP))
    n_actions = ActionSpace(labels, tags, system, labels.id_of("root")).size
    tagger = net_count(
        tagger_groups(tvocabs, tagger_cfg), tagger_cfg.hidden, tags.n_classes, 0
    )
    parser = net_count(
        parser_group_specs(mode, tagger_cfg, parser_cfg, tags, labels, forms),
        parser_cfg.hidden,
        n_actions,
        0 if mode == PIPELINE else tagger_cfg.hidden,
    )
    return tagger + parser


def save(
    model: StackedModel,
    dest: Union[str, BinaryIO],
    training_meta: Union[dict, None] = None,
) -> None:
    """Write the model container; ``training_meta`` (e.g. the resolved
    optimizer/schedule settings) rides along in the header."""
    meta = {
        "mode": model.mode,
        "swap": model.system.swap,
        "root_label": model.root_label,
        "root_exclusive": model.root_exclusive,
        "tagger_cfg": vars(model.tagger_cfg),
        "parser_cfg": vars(model.parser_cfg),
        "training": training_meta or {},
        "vocabs": {
            "forms": model.forms.entries(),
            "tags": model.tags.entries(),
            "labels": model.labels.entries(),
            "prefix2": model.tvocabs.prefix2.entries(),
            "prefix3": model.tvocabs.prefix3.entries(),
            "suffix2": model.tvocabs.suffix2.entries(),
            "suffix3": model.tvocabs.suffix3.entries(),
        },
    }
    _save_container(dest, {"tagger": model.tagger, "parser": model.parser}, meta)


def load(src: Union[str, BinaryIO]) -> StackedModel:
    networks, meta = _load_container(src)
    try:
        v = meta["vocabs"]
        forms = Vocab(v["forms"])
        tags = Vocab(v["tags"])
        labels = Vocab(v["labels"])
        tvocabs = TaggerVocabs(
            forms,
            Vocab(v["prefix2"]),
            Vocab(v["prefix3"]),
            Vocab(v["suffix2"]),
            Vocab(v["suffix3"]),
        )
        return StackedModel(
            meta["mode"],
            TransitionSystem(
                swap=meta["swap"], joint=meta["mode"] in (JOINT, JOINT_STACKPROP)
            ),
            forms,
            tags,
            labels,
            tvocabs,
            TaggerConfig(**meta["tagger_cfg"]),
            ParserNetworkConfig(**meta["parser_cfg"]),
            meta["root_label"],
            meta["root_exclusive"],
            networks["tagger"],
            networks["parser"],
        )
    except KeyError as e:
        raise ModelError(f"model header missing field {e}")
