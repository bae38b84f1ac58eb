"""The stacked tagger+parser bundle: construction, sizing, serialization."""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field
from typing import BinaryIO, Union

import numpy as np

from stackprop.corpus import Sentence, Vocab, build_vocabs, root_label_of
from stackprop.errors import ModelError, StackpropError
from stackprop.nnkernel import (
    FeatureGroupSpec,
    Network,
    block_shapes,
    from_header,
    load_model as _load_container,
    save_model as _save_container,
)
from stackprop.tagger import AFFIXES, TaggerConfig, TaggerVocabs, build_tagger_vocabs, tagger_groups
from stackprop.transition import N_LABEL_TEMPLATES, N_TOKEN_TEMPLATES, ActionSpace, TransitionSystem

# training variants
STACKPROP = "stackprop"
PIPELINE = "pipeline"
JOINT = "joint"
JOINT_STACKPROP = "joint_stackprop"
WINDOW = "window"


@dataclass(frozen=True)
class Variant:
    """Where the training variants differ: a ``stacked`` parser reads (and
    trains) the tagger's hidden activations, otherwise the tagger trains alone
    and the parser reads its tag distributions and word embeddings; ``joint``
    tags in SHIFT; ``tag_supervision`` interleaves TAGGER updates."""

    stacked: bool
    joint: bool
    tag_supervision: bool


VARIANTS = {
    STACKPROP: Variant(stacked=True, joint=False, tag_supervision=True),
    PIPELINE: Variant(stacked=False, joint=False, tag_supervision=False),
    JOINT: Variant(stacked=True, joint=True, tag_supervision=False),
    JOINT_STACKPROP: Variant(stacked=True, joint=True, tag_supervision=True),
    WINDOW: Variant(stacked=True, joint=False, tag_supervision=False),
}
MODES = tuple(VARIANTS)

@dataclass
class ParserNetworkConfig:
    hidden: int = 1024
    d_implicit: int = 64  # embedding applied to each tagger-activation row
    d_label: int = 32
    d_word: int = 64  # pipeline variant only

    def __post_init__(self):
        if min(astuple(self)) < 1:
            raise StackpropError(f"bad parser network config {self}")


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

    @property
    def variant(self) -> Variant:
        return VARIANTS[self.mode]

    def count_parameters(self) -> int:
        return self.tagger.count_parameters() + self.parser.count_parameters()


def network_layouts(
    mode: str,
    swap: bool,
    tagger_cfg: TaggerConfig,
    parser_cfg: ParserNetworkConfig,
    forms: Vocab,
    tags: Vocab,
    labels: Vocab,
    tvocabs: TaggerVocabs,
) -> dict[str, tuple[list[FeatureGroupSpec], int, int, dict[str, tuple[int, ...]]]]:
    """The tagger's and the parser's layout for a model of ``mode`` over
    these vocabularies and configs: feature groups, hidden width, output
    width and extra blocks, as ``Network`` and ``block_shapes`` take them.
    Stacked variants' parsers read 20 dense tagger activations, with a
    learned ``null_input`` row for empty slots; the pipeline's reads 20 raw
    tag distributions plus 20 word embeddings. Both keep 12 discrete label
    features and score every action."""
    variant = VARIANTS[mode]
    system = TransitionSystem(swap=swap, joint=variant.joint)
    # the action count does not depend on which label is the root one
    n_actions = ActionSpace(labels, tags, system, labels.id_of("root")).size
    label_group = FeatureGroupSpec(
        "labels", N_LABEL_TEMPLATES, labels.size, parser_cfg.d_label
    )
    if variant.stacked:
        implicit = FeatureGroupSpec(
            "implicit", N_TOKEN_TEMPLATES, tagger_cfg.hidden, parser_cfg.d_implicit, dense=True
        )
        groups, extra = [implicit, label_group], {"null_input": (tagger_cfg.hidden,)}
    else:
        tagdist = FeatureGroupSpec("tagdist", N_TOKEN_TEMPLATES, tags.n_classes, tags.n_classes,
                                   dense=True, embedded=False)
        pwords = FeatureGroupSpec("pwords", N_TOKEN_TEMPLATES, forms.size, parser_cfg.d_word)
        groups, extra = [tagdist, pwords, label_group], {}
    return {
        "tagger": (tagger_groups(tvocabs, tagger_cfg), tagger_cfg.hidden, tags.n_classes, {}),
        "parser": (groups, parser_cfg.hidden, n_actions, extra),
    }


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
    if mode not in VARIANTS:
        raise StackpropError(f"unknown mode {mode!r}")
    forms, tags, labels = build_vocabs(train_sentences)
    tvocabs = build_tagger_vocabs(train_sentences, forms)
    root_label, root_exclusive = root_label_of(train_sentences, labels)
    rng = np.random.default_rng(seed)
    layouts = network_layouts(mode, swap, tagger_cfg, parser_cfg, forms, tags, labels, tvocabs)
    tagger, parser = (
        Network(groups, hidden, n_out, rng, extra)
        for groups, hidden, n_out, extra in layouts.values()
    )
    return StackedModel(
        mode,
        TransitionSystem(swap=swap, joint=VARIANTS[mode].joint),
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
    layouts = network_layouts(mode, swap, tagger_cfg, parser_cfg, forms, tags, labels, tvocabs)
    return sum(math.prod(s) for lay in layouts.values() for s in block_shapes(*lay).values())


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
            **{name: model.tvocabs.affixes[name].entries() for name in AFFIXES},
        },
    }
    _save_container(dest, {"tagger": model.tagger, "parser": model.parser}, meta)


def load(src: Union[str, BinaryIO]) -> StackedModel:
    """Read a model container. Each network must have the layout that
    ``network_layouts`` derives from the header's vocabularies and configs;
    a header that contradicts its networks is a ``ModelError``."""
    networks, meta = _load_container(src)
    try:
        mode = meta["mode"]
        if mode not in VARIANTS:
            raise ModelError(f"unknown mode {mode!r} in model header")
        v = meta["vocabs"]
        forms = Vocab(v["forms"])
        tags = Vocab(v["tags"])
        labels = Vocab(v["labels"])
        tvocabs = TaggerVocabs(forms, {name: Vocab(v[name]) for name in AFFIXES})
        tagger_cfg = from_header(TaggerConfig, meta["tagger_cfg"])
        parser_cfg = from_header(ParserNetworkConfig, meta["parser_cfg"])
        if not all(isinstance(meta[k], bool) for k in ("swap", "root_exclusive")):
            raise ModelError("swap and root_exclusive must be true or false in the model header")
        layouts = network_layouts(
            mode, meta["swap"], tagger_cfg, parser_cfg, forms, tags, labels, tvocabs
        )
        for name, layout in layouts.items():
            net = networks[name]
            shapes = {b: net.params[b].shape for b in net.block_names}
            if net.groups != layout[0] or shapes != block_shapes(*layout):
                raise ModelError(
                    f"network {name!r} does not match the vocabularies and configs in the header"
                )
        return StackedModel(
            mode,
            TransitionSystem(swap=meta["swap"], joint=VARIANTS[mode].joint),
            forms,
            tags,
            labels,
            tvocabs,
            tagger_cfg,
            parser_cfg,
            meta["root_label"],
            meta["root_exclusive"],
            networks["tagger"],
            networks["parser"],
        )
    except ModelError:
        raise
    except (KeyError, IndexError, TypeError, ValueError, AttributeError, StackpropError) as e:
        raise ModelError(f"malformed model header: {e!r}") from None
