"""Shared corpus builders and enumeration helpers."""

import itertools
from dataclasses import replace

import pytest

from stackprop.corpus import Sentence, Token, Vocab
from stackprop.model import ParserNetworkConfig
from stackprop.nnkernel import OptimizerConfig
from stackprop.tagger import TaggerConfig
from stackprop.trainer import TrainSettings, TrainingSchedule


def make_sentence(heads, forms=None, tags=None, labels=None, sid="s"):
    n = len(heads)
    forms = forms or [f"w{i+1}" for i in range(n)]
    tags = tags or ["X"] * n
    if labels is None:
        labels = ["root" if h == 0 else "dep" for h in heads]
    tokens = [
        Token(i + 1, forms[i], gold_upos=tags[i], gold_head=heads[i], gold_deprel=labels[i])
        for i in range(n)
    ]
    return Sentence(tokens, id=sid)


def all_trees(n):
    """Every head vector over n tokens that forms a tree rooted at the
    artificial root (any number of root attachments)."""
    for heads in itertools.product(range(n + 1), repeat=n):
        if any(heads[i] == i + 1 for i in range(n)):
            continue
        ok = True
        for start in range(1, n + 1):
            seen = set()
            node = start
            while node != 0:
                if node in seen:
                    ok = False
                    break
                seen.add(node)
                node = heads[node - 1]
            if not ok:
                break
        if ok:
            yield list(heads)


def random_tree(n, rng):
    while True:
        heads = [int(rng.integers(0, n + 1)) for _ in range(n)]
        if any(heads[i] == i + 1 for i in range(n)):
            continue
        ok = True
        for start in range(1, n + 1):
            seen = set()
            node = start
            while node != 0:
                if node in seen:
                    ok = False
                    break
                seen.add(node)
                node = heads[node - 1]
            if not ok:
                break
        if ok:
            return heads


def chain_sentences(sentences, sid="chain"):
    """One sentence made of ``sentences`` in order, each later root attached
    to the first sentence's root."""
    tokens, root = [], 0
    for s in sentences:
        base = len(tokens)
        for t in s.tokens:
            head = base + t.gold_head if t.gold_head else root
            tokens.append(replace(t, index=base + t.index, gold_head=head))
        root = root or next(base + t.index for t in s.tokens if t.gold_head == 0)
    return Sentence(tokens, id=sid)


# "I ate fish": heads 2, 0, 2 -- the worked example used across modules
I_ATE_FISH = make_sentence(
    [2, 0, 2],
    forms=["I", "ate", "fish"],
    tags=["PRON", "VERB", "NOUN"],
    labels=["nsubj", "root", "obj"],
    sid="i-ate-fish",
)


def tiny_settings(seed=0, parser_epochs=3, tagger_epochs=2, **opt):
    optimizer = dict(eta0=0.03, gamma=5000.0, mu=0.9, batch_size=16)
    optimizer.update(opt)
    return TrainSettings(
        schedule=TrainingSchedule(
            parser_epochs=parser_epochs, tagger_epochs=tagger_epochs, seed=seed
        ),
        tagger_cfg=TaggerConfig(hidden=16, d_symbols=2, d_caps=2, d_affix=4, d_words=8),
        parser_cfg=ParserNetworkConfig(hidden=24, d_implicit=8, d_label=4, d_word=8),
        optimizer=OptimizerConfig(**optimizer),
    )


@pytest.fixture
def simple_vocabs():
    labels = Vocab(["root", "dep", "nsubj", "obj"])
    tags = Vocab(["PRON", "VERB", "NOUN", "X"])
    return labels, tags
