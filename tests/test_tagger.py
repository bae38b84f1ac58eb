import numpy as np
import pytest

from stackprop.corpus import NULL_ID, UNKNOWN_ID, build_vocabs
from stackprop.errors import StackpropError
from stackprop.tagger import (
    CAP_ALLCAPS,
    CAP_INITIAL,
    CAP_LOWER,
    CAP_MIXED,
    CAP_NOLETTERS,
    GROUP_ORDER,
    SYM_ABSENT,
    SYM_PRESENT,
    TaggerConfig,
    affixes,
    build_tagger_vocabs,
    cap_shape,
    encode_sentence,
    extract_tagger_ids,
    load_pretrained_embeddings,
    tag_sentence,
    tagger_groups,
)

from conftest import I_ATE_FISH, make_sentence


def build(sentences):
    forms, tags, labels = build_vocabs(sentences)
    tv = build_tagger_vocabs(sentences, forms)
    return tv, tags


def test_cap_shape_values():
    assert cap_shape("hello") == CAP_LOWER
    assert cap_shape("Hello") == CAP_INITIAL
    assert cap_shape("USA") == CAP_ALLCAPS
    assert cap_shape("iPhone") == CAP_MIXED
    assert cap_shape("123!") == CAP_NOLETTERS
    assert cap_shape("Re-enter") == CAP_INITIAL


def test_affixes_short_tokens_use_whole_form():
    assert affixes("a") == ("a", "a", "a", "a")
    assert affixes("ab") == ("ab", "ab", "ab", "ab")
    assert affixes("Enter") == ("en", "ent", "er", "ter")


def test_template_inventory():
    s = make_sentence([0], forms=["x"])
    tv, _ = build([s])
    groups = tagger_groups(tv, TaggerConfig())
    assert [g.name for g in groups] == list(GROUP_ORDER)
    assert sum(g.num_templates for g in groups) == 25  # 3 + 3 + 12 + 7
    by_name = {g.name: g for g in groups}
    assert by_name["symbols"].embed_dim == 8
    assert by_name["caps"].embed_dim == 4
    assert by_name["prefix2"].embed_dim == 16
    assert by_name["words"].embed_dim == 64
    assert by_name["words"].num_templates == 7


def test_boundary_positions_are_null_not_unknown():
    s = make_sentence([0], forms=["word"])
    tv, _ = build([s])
    ids = extract_tagger_ids(s, 1, tv)
    for name in ("caps", "prefix2", "prefix3", "suffix2", "suffix3"):
        assert ids[name][0] == NULL_ID and ids[name][2] == NULL_ID
    assert ids["caps"][1] == CAP_LOWER
    # affix vocabularies follow the NULL/UNKNOWN convention
    for name in ("prefix2", "prefix3", "suffix2", "suffix3"):
        assert ids[name][1] not in (NULL_ID, UNKNOWN_ID)
    assert list(ids["words"][:3]) == [NULL_ID] * 3
    assert list(ids["words"][4:]) == [NULL_ID] * 3
    assert ids["words"][3] not in (NULL_ID, UNKNOWN_ID)


def test_unknown_form_maps_to_unknown_not_null():
    train = make_sentence([0], forms=["known"])
    tv, _ = build([train])
    test = make_sentence([0], forms=["mystery"])
    ids = extract_tagger_ids(test, 1, tv)
    assert ids["words"][3] == UNKNOWN_ID
    assert ids["prefix2"][1] == UNKNOWN_ID


def test_re_enter_feature_case():
    s = make_sentence([0, 1], forms=["Re-enter", "now"])
    tv, _ = build([s])
    ids = extract_tagger_ids(s, 1, tv)
    assert list(ids["symbols"]) == [SYM_PRESENT, SYM_ABSENT, SYM_PRESENT]
    assert ids["caps"][1] == CAP_INITIAL
    assert ids["prefix2"][1] == tv.prefix2.id_of("re")
    assert ids["suffix3"][1] == tv.suffix3.id_of("ter")


def test_symbol_digit_detection():
    s = make_sentence([0], forms=["x42"])
    tv, _ = build([s])
    ids = extract_tagger_ids(s, 1, tv)
    assert list(ids["symbols"]) == [SYM_ABSENT, SYM_PRESENT, SYM_ABSENT]


def test_out_of_range_token_errors():
    s = make_sentence([0])
    tv, _ = build([s])
    with pytest.raises(StackpropError):
        extract_tagger_ids(s, 2, tv)
    with pytest.raises(StackpropError):
        extract_tagger_ids(s, 0, tv)


def make_net(sentences, cfg=None, seed=0):
    cfg = cfg or TaggerConfig(hidden=8, d_symbols=2, d_caps=2, d_affix=3, d_words=4)
    tv, tags = build(sentences)
    from stackprop.nnkernel import Network

    net = Network(tagger_groups(tv, cfg), cfg.hidden, tags.n_classes, np.random.default_rng(seed))
    return net, tv, tags


def hidden(sentence, net, tv, tags):
    """Raw-parameter tagger activations of every token, (n, H)."""
    return tag_sentence(sentence, net, tv, tags, averaged=False)[1].hidden


def test_zero_weights_give_uniform_tag_distribution():
    net, tv, tags = make_net([I_ATE_FISH])
    for k in ("W2", "b2"):
        net.params[k][:] = 0.0
    _, acts = tag_sentence(I_ATE_FISH, net, tv, tags, averaged=False, want_probs=True)
    assert np.allclose(acts.probs, 1.0 / tags.n_classes)


def test_hidden_nonnegative_and_deterministic():
    net, tv, tags = make_net([I_ATE_FISH])
    h1a = hidden(I_ATE_FISH, net, tv, tags)
    h1b = hidden(I_ATE_FISH, net, tv, tags)
    assert (h1a >= 0).all()
    assert np.array_equal(h1a, h1b)


def test_tag_sentence_shapes_and_ties():
    net, tv, tags = make_net([I_ATE_FISH])
    pred, acts = tag_sentence(I_ATE_FISH, net, tv, tags)
    assert len(pred) == 3
    assert acts.hidden.shape == (3, 8)
    for k in ("W2", "b2"):
        net.params[k][:] = 0.0
        net.average[k][:] = 0.0
    pred, _ = tag_sentence(I_ATE_FISH, net, tv, tags)
    # uniform scores tie-break to the lowest tag id
    assert all(p == tags.class_string(0) for p in pred)


def test_activations_independent_of_softmax_parameters():
    net, tv, tags = make_net([I_ATE_FISH])
    _, acts1 = tag_sentence(I_ATE_FISH, net, tv, tags, averaged=False)
    net.params["W2"] += 7.5
    net.params["b2"] -= 2.0
    _, acts2 = tag_sentence(I_ATE_FISH, net, tv, tags, averaged=False)
    assert np.array_equal(acts1.hidden, acts2.hidden)


def test_activations_identical_with_or_without_probs():
    net, tv, tags = make_net([I_ATE_FISH])
    _, a1 = tag_sentence(I_ATE_FISH, net, tv, tags, want_probs=False)
    _, a2 = tag_sentence(I_ATE_FISH, net, tv, tags, want_probs=True)
    assert np.array_equal(a1.hidden, a2.hidden)
    assert a1.probs is None and a2.probs is not None


def test_window_locality_radius_three():
    forms = [f"w{i}" for i in range(1, 10)]
    s1 = make_sentence([0] + [1] * 8, forms=forms)
    edited = list(forms)
    edited[5] = "CHANGED"  # token 6 = position j+4 for j=2
    s2 = make_sentence([0] + [1] * 8, forms=edited)
    both = [s1, s2]
    net, tv, tags = make_net(both)
    h1a = hidden(s1, net, tv, tags)
    h1b = hidden(s2, net, tv, tags)
    assert np.array_equal(h1a[1], h1b[1])
    # but a token inside the window does change
    assert not np.array_equal(h1a[2], h1b[2])


def test_encode_sentence_stacks_per_token():
    net, tv, _ = make_net([I_ATE_FISH])
    enc = encode_sentence(I_ATE_FISH, tv)
    for name, arr in enc.items():
        assert arr.shape[0] == 3
    per = extract_tagger_ids(I_ATE_FISH, 2, tv)
    for name in GROUP_ORDER:
        assert np.array_equal(enc[name][1], per[name])


def test_pretrained_embedding_loading(tmp_path):
    s = make_sentence([0, 1], forms=["alpha", "beta"])
    tv, _ = build([s])
    path = tmp_path / "vecs.txt"
    path.write_text(
        "alpha 1.0 2.0 3.0\n"
        "missingword 9.0 9.0 9.0\n"
        "beta 4.0 5.0\n"  # wrong width: skipped
    )
    matrix = np.zeros((tv.words.size, 3))
    loaded, total = load_pretrained_embeddings(str(path), tv.words, matrix)
    assert loaded == 1 and total == tv.words.size
    assert np.allclose(matrix[tv.words.id_of("alpha")], [1.0, 2.0, 3.0])
    assert np.allclose(matrix[tv.words.id_of("beta")], 0.0)
