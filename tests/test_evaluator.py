from dataclasses import replace

import numpy as np
import pytest

from stackprop.corpus import Sentence
from stackprop.errors import StackpropError
from stackprop.evaluator import (
    attachment_scores,
    cascade_breakdown,
    is_punctuation,
    nearest_neighbors,
    tag_accuracy,
)

from conftest import make_sentence


def with_predictions(sent, heads=None, labels=None, tags=None):
    tokens = []
    for t in sent.tokens:
        tokens.append(
            replace(
                t,
                pred_head=heads[t.index - 1] if heads else t.gold_head,
                pred_deprel=labels[t.index - 1] if labels else t.gold_deprel,
                pred_upos=tags[t.index - 1] if tags else None,
            )
        )
    return Sentence(tokens, id=sent.id)


def test_perfect_prediction():
    g = make_sentence([2, 0, 2])
    r = attachment_scores([g], [with_predictions(g)])
    assert r.uas == 1.0 and r.las == 1.0
    assert r.n_tokens == 3


def test_heads_right_labels_wrong():
    g = make_sentence([2, 0, 2], labels=["a", "b", "c"])
    p = with_predictions(g, labels=["x", "y", "z"])
    r = attachment_scores([g], [p])
    assert r.uas == 1.0 and r.las == 0.0


def test_hand_counted_five_tokens():
    # 3 correct heads of 5; of those, 2 also carry the right label
    g = make_sentence([2, 0, 2, 3, 3], labels=["a", "root", "b", "c", "d"])
    p = with_predictions(g, heads=[2, 0, 2, 2, 5], labels=["a", "root", "x", "c", "d"])
    r = attachment_scores([g], [p])
    assert r.uas == pytest.approx(0.6)
    assert r.las == pytest.approx(0.4)


def test_punctuation_exclusion():
    g = make_sentence([2, 0, 2], tags=["NOUN", "VERB", "PUNCT"], forms=["a", "b", "."])
    p = with_predictions(g, heads=[2, 0, 1])  # punct head wrong
    all_tokens = attachment_scores([g], [p], include_punct=True)
    content = attachment_scores([g], [p], include_punct=False)
    assert all_tokens.uas == pytest.approx(2 / 3)
    assert content.uas == 1.0 and content.n_tokens == 2


def test_punctuation_fallback_on_untagged_corpus():
    g = make_sentence([2, 0, 2], tags=["_", "_", "_"], forms=["a", "b", "?!"])
    assert is_punctuation(g.tokens[2])
    assert not is_punctuation(g.tokens[0])


def test_include_punct_equals_exclude_on_punctfree_corpus():
    g = make_sentence([2, 0, 2], tags=["N", "V", "N"])
    p = with_predictions(g, heads=[2, 0, 1])
    a = attachment_scores([g], [p], include_punct=True)
    b = attachment_scores([g], [p], include_punct=False)
    assert (a.uas, a.las) == (b.uas, b.las)


def test_tokenization_mismatch_errors():
    g = make_sentence([0, 1], forms=["a", "b"], sid="g1")
    p = with_predictions(make_sentence([0, 1], forms=["a", "DIFFERENT"], sid="g1"))
    with pytest.raises(StackpropError, match="g1"):
        attachment_scores([g], [p])


def test_missing_prediction_errors():
    g = make_sentence([0])
    with pytest.raises(StackpropError):
        attachment_scores([g], [g])


def test_pos_accuracy_reported_when_tagged():
    g = make_sentence([0, 1], tags=["A", "B"])
    p = with_predictions(g, tags=["A", "A"])
    r = attachment_scores([g], [p])
    assert r.pos_acc == pytest.approx(0.5)
    assert tag_accuracy([g], [p]) == pytest.approx(0.5)


def test_tag_accuracy_rejects_unaligned_corpora():
    g1, g2 = make_sentence([0, 1], tags=["A", "B"], sid="a"), make_sentence([0], sid="b")
    p1 = with_predictions(g1, tags=["A", "B"])
    with pytest.raises(StackpropError, match="corpus size mismatch"):
        tag_accuracy([g1, g2], [p1])
    short = with_predictions(make_sentence([0], tags=["A"], sid="a"), tags=["A"])
    with pytest.raises(StackpropError, match="tokenization mismatch in sentence a"):
        tag_accuracy([g1], [short])


def test_permutation_invariance():
    g1, g2 = make_sentence([0, 1], sid="a"), make_sentence([2, 0], sid="b")
    p1, p2 = with_predictions(g1, heads=[0, 2]), with_predictions(g2)
    r12 = attachment_scores([g1, g2], [p1, p2])
    r21 = attachment_scores([g2, g1], [p2, p1])
    assert r12.uas == r21.uas and r12.las == r21.las


def test_cascade_perfect_reference_tagger():
    g = make_sentence([2, 0, 2], tags=["N", "V", "N"])
    p = with_predictions(g, heads=[2, 0, 1])
    las_err, las_rest = cascade_breakdown([g], [p], [["N", "V", "N"]])
    overall = attachment_scores([g], [p]).las
    assert las_err == 0.0
    assert las_rest == pytest.approx(overall)


def test_cascade_hand_counted():
    # 2 mistagged tokens, 1 of them parsed correctly -> 0.5 on the error side
    g = make_sentence([2, 0, 2, 2], tags=["N", "V", "N", "N"])
    p = with_predictions(g, heads=[2, 0, 2, 3])  # token 4 wrong
    ref = [["X", "V", "N", "X"]]  # tokens 1 and 4 mistagged
    las_err, las_rest = cascade_breakdown([g], [p], ref)
    assert las_err == pytest.approx(0.5)
    assert las_rest == pytest.approx(1.0)


def test_cascade_partitions_recombine_to_overall():
    rng = np.random.default_rng(4)
    g = make_sentence(list([0] + [1] * 9), tags=["T"] * 10)
    heads = [0] + [1 if rng.random() < 0.6 else 2 for _ in range(9)]
    p = with_predictions(g, heads=heads)
    ref = [["T" if rng.random() < 0.5 else "Z" for _ in range(10)]]
    n_err = sum(1 for r, t in zip(ref[0], g.tokens) if r != t.gold_upos)
    n_rest = 10 - n_err
    las_err, las_rest = cascade_breakdown([g], [p], ref)
    overall = attachment_scores([g], [p]).las
    assert (las_err * n_err + las_rest * n_rest) / 10 == pytest.approx(overall)


def test_cascade_alignment_mismatch_errors():
    g = make_sentence([0, 1])
    p = with_predictions(g)
    with pytest.raises(StackpropError, match="misaligned"):
        cascade_breakdown([g], [p], [["N"]])


def test_cascade_rejects_a_parse_shorter_than_the_gold():
    """A parsed sentence with fewer tokens than its gold sentence is refused,
    not scored over the tokens they share."""
    g = make_sentence([0, 1], tags=["V", "N"], sid="a")
    short = with_predictions(make_sentence([0], tags=["V"], sid="a"))
    with pytest.raises(StackpropError, match="tokenization mismatch in sentence a"):
        cascade_breakdown([g], [short], [["V", "N"]])


@pytest.mark.parametrize("short", ["gold", "parsed", "reference"])
def test_cascade_corpus_size_mismatch_errors(short):
    """A corpus one sentence short is refused, not scored over the
    sentences the others share."""
    gold = [make_sentence([2, 0], sid="a"), make_sentence([0, 1], sid="b")]
    corpora = {"gold": gold, "parsed": [with_predictions(g) for g in gold],
               "reference": [["N", "V"], ["V", "N"]]}
    corpora[short] = corpora[short][:1]
    with pytest.raises(StackpropError, match="corpus size mismatch"):
        cascade_breakdown(corpora["gold"], corpora["parsed"], corpora["reference"])


def overfit_tagger_model():
    from stackprop.synthetic import generate_corpus
    from stackprop.trainer import stackprop_train

    from conftest import tiny_settings

    corpus = generate_corpus(12, seed=40)
    model = stackprop_train(corpus, None, tiny_settings(seed=1, parser_epochs=1, tagger_epochs=2))
    return model, corpus


def test_nearest_neighbors_exact_match_and_bounds():
    model, corpus = overfit_tagger_model()
    # duplicate a sentence so the query token has an exact twin
    corpus = corpus + [Sentence(list(corpus[0].tokens), id="twin")]
    hits = nearest_neighbors(model, corpus, (0, 1), k=5)
    assert hits[0][0] == len(corpus) - 1 and hits[0][1] == 1
    assert hits[0][2] == pytest.approx(1.0)
    assert all(-1.0 - 1e-9 <= sim <= 1.0 + 1e-9 for _, _, sim in hits)
    # query token itself never appears
    assert (0, 1) not in {(si, tj) for si, tj, _ in hits}


def test_nearest_neighbors_k_larger_than_corpus():
    model, corpus = overfit_tagger_model()
    total = sum(len(s) for s in corpus)
    hits = nearest_neighbors(model, corpus, (0, 1), k=10 * total)
    assert len(hits) == total - 1


def test_nearest_neighbors_deterministic_tiebreak():
    model, corpus = overfit_tagger_model()
    corpus = corpus + [Sentence(list(corpus[0].tokens), id="t1"), Sentence(list(corpus[0].tokens), id="t2")]
    hits = nearest_neighbors(model, corpus, (0, 1), k=2)
    assert hits[0][0] < hits[1][0]  # equal similarity resolves in corpus order


def test_nearest_neighbors_empty_corpus_errors():
    model, _ = overfit_tagger_model()
    with pytest.raises(StackpropError):
        nearest_neighbors(model, [], (0, 1), 3)


def test_neighbors_prefer_matching_context_over_matching_form():
    """With a trained tagger, an ambiguous form queried in noun context finds
    other nouns before its own verb-context twin: the embedding is contextual,
    not lexical."""
    from stackprop.model import ParserNetworkConfig
    from stackprop.nnkernel import OptimizerConfig
    from stackprop.synthetic import generate_corpus
    from stackprop.tagger import TaggerConfig
    from stackprop.trainer import TrainSettings, TrainingSchedule, stackprop_train

    corpus = generate_corpus(60, seed=80)
    model = stackprop_train(
        corpus,
        None,
        TrainSettings(
            schedule=TrainingSchedule(parser_epochs=30, tagger_epochs=30, seed=0),
            tagger_cfg=TaggerConfig(hidden=24, d_symbols=4, d_caps=4, d_affix=6, d_words=12),
            parser_cfg=ParserNetworkConfig(hidden=32, d_implicit=8, d_label=4),
            optimizer=OptimizerConfig(eta0=0.04, gamma=20000.0, mu=0.9, batch_size=16),
        ),
    )
    # a form attested as both NOUN and VERB in this corpus
    spots = {}
    for si, sent in enumerate(corpus):
        for t in sent.tokens:
            spots.setdefault(t.form.lower(), {})[t.gold_upos] = (si, t.index)
    form, places = next(
        (f, p) for f, p in spots.items() if {"NOUN", "VERB"} <= set(p)
    )
    hits = nearest_neighbors(model, corpus, places["NOUN"], k=10**6)
    ranks = {(si, tj): r for r, (si, tj, _) in enumerate(hits)}

    def tag_at(si, tj):
        return corpus[si].tokens[tj - 1].gold_upos

    best_other_noun = min(
        r for (si, tj), r in ranks.items()
        if tag_at(si, tj) == "NOUN" and corpus[si].tokens[tj - 1].form.lower() != form
    )
    assert best_other_noun < ranks[places["VERB"]]
