import unicodedata

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stackprop.corpus import NULL_ID, UNKNOWN_ID, build_vocabs
from stackprop.errors import CorpusError
from stackprop.nnkernel import softmax_batch
from stackprop.tagger import (
    AFFIXES,
    CAP_ALLCAPS,
    CAP_INITIAL,
    CAP_LOWER,
    CAP_MIXED,
    CAP_NOLETTERS,
    GROUP_ORDER,
    SYM_ABSENT,
    SYM_PRESENT,
    TaggerConfig,
    build_tagger_vocabs,
    cap_shape,
    encode_sentence,
    load_pretrained_embeddings,
    read_pretrained_vectors,
    symbol_flags,
    tag_sentences,
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


def reference_cap_shape(form):
    """Capitalization shape decided one letter at a time."""
    letters = [ch for ch in form if ch.isalpha()]
    if not letters:
        return CAP_NOLETTERS
    if all(ch.isupper() for ch in letters):
        return CAP_ALLCAPS
    if form[0].isupper() and all(ch.islower() for ch in letters[1:]):
        return CAP_INITIAL
    if all(ch.islower() for ch in letters):
        return CAP_LOWER
    return CAP_MIXED


def reference_symbol_flags(form):
    """Symbol indicators decided one character at a time."""
    flags = (
        "-" in form,
        any(ch.isdigit() for ch in form),
        any(unicodedata.category(ch).startswith("P") for ch in form),
    )
    return tuple(SYM_PRESENT if f else SYM_ABSENT for f in flags)


ODD_FORMS = ["ǅemal", "Ⅻ", "中文", "Aä¸­", "ÄB", "İs", "ß", "ﬁne", "٣", "x²", "½", "A-1", "3.5", "...", ""]


@settings(max_examples=300, deadline=None)
@given(form=st.one_of(st.text(max_size=8), st.sampled_from(ODD_FORMS)))
def test_form_features_match_a_per_character_reference(form):
    assert cap_shape(form) == reference_cap_shape(form)
    assert symbol_flags(form) == reference_symbol_flags(form)


def token_ids(sentence, j, tv):
    """Feature ids of token ``j`` (1-based), group -> (F,)."""
    return {name: ids[j - 1] for name, ids in encode_sentence([sentence], tv).items()}


def test_affixes_short_tokens_use_whole_form():
    def cuts(form):
        return tuple(cut(form.lower()) for cut in AFFIXES.values())

    assert tuple(AFFIXES) == ("prefix2", "prefix3", "suffix2", "suffix3")
    assert cuts("a") == ("a", "a", "a", "a")
    assert cuts("ab") == ("ab", "ab", "ab", "ab")
    assert cuts("Enter") == ("en", "ent", "er", "ter")
    tv, _ = build([make_sentence([0], forms=["Enter"])])
    assert [tv.affixes[name].entries() for name in AFFIXES] == [["en"], ["ent"], ["er"], ["ter"]]


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
    ids = token_ids(s, 1, tv)
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
    ids = token_ids(test, 1, tv)
    assert ids["words"][3] == UNKNOWN_ID
    assert ids["prefix2"][1] == UNKNOWN_ID


def test_re_enter_feature_case():
    s = make_sentence([0, 1], forms=["Re-enter", "now"])
    tv, _ = build([s])
    ids = token_ids(s, 1, tv)
    assert list(ids["symbols"]) == [SYM_PRESENT, SYM_ABSENT, SYM_PRESENT]
    assert ids["caps"][1] == CAP_INITIAL
    assert ids["prefix2"][1] == tv.affixes["prefix2"].id_of("re")
    assert ids["suffix3"][1] == tv.affixes["suffix3"].id_of("ter")


def test_symbol_digit_detection():
    s = make_sentence([0], forms=["x42"])
    tv, _ = build([s])
    ids = token_ids(s, 1, tv)
    assert list(ids["symbols"]) == [SYM_ABSENT, SYM_PRESENT, SYM_ABSENT]


def make_net(sentences, cfg=None, seed=0):
    cfg = cfg or TaggerConfig(hidden=8, d_symbols=2, d_caps=2, d_affix=3, d_words=4)
    tv, tags = build(sentences)
    from stackprop.nnkernel import Network

    net = Network(tagger_groups(tv, cfg), cfg.hidden, tags.n_classes, np.random.default_rng(seed))
    return net, tv, tags


def hidden(sentence, net, tv, tags):
    """Tagger activations of every token, (n, H)."""
    return tag_sentences([sentence], net, tv, tags)[1].hidden


def test_zero_weights_give_uniform_tag_distribution():
    net, tv, tags = make_net([I_ATE_FISH])
    for k in ("W2", "b2"):
        net.params[k][:] = 0.0
    _, acts = tag_sentences([I_ATE_FISH], net, tv, tags)
    assert np.allclose(acts.probs, 1.0 / tags.n_classes)


def test_hidden_nonnegative_and_deterministic():
    net, tv, tags = make_net([I_ATE_FISH])
    h1a = hidden(I_ATE_FISH, net, tv, tags)
    h1b = hidden(I_ATE_FISH, net, tv, tags)
    assert (h1a >= 0).all()
    assert np.array_equal(h1a, h1b)


def test_tag_sentence_shapes_and_ties():
    net, tv, tags = make_net([I_ATE_FISH])
    (pred,), acts = tag_sentences([I_ATE_FISH], net, tv, tags)
    assert len(pred) == 3
    assert acts.hidden.shape == (3, 8)
    for k in ("W2", "b2"):
        net.params[k][:] = 0.0
        net.set_average(k, 0.0)
    (pred,), _ = tag_sentences([I_ATE_FISH], net, tv, tags)
    # uniform scores tie-break to the lowest tag id
    assert all(p == tags.class_string(0) for p in pred)


def test_activations_independent_of_softmax_parameters():
    net, tv, tags = make_net([I_ATE_FISH])
    _, acts1 = tag_sentences([I_ATE_FISH], net, tv, tags)
    net.params["W2"] += 7.5
    net.params["b2"] -= 2.0
    _, acts2 = tag_sentences([I_ATE_FISH], net, tv, tags)
    assert np.array_equal(acts1.hidden, acts2.hidden)


def test_probs_are_the_softmax_of_the_hidden_rows():
    net, tv, tags = make_net([I_ATE_FISH])
    (pred,), acts = tag_sentences([I_ATE_FISH], net, tv, tags)
    avg = net.inference_params()
    expected = softmax_batch(acts.hidden @ avg["W2"] + avg["b2"])
    assert np.allclose(acts.probs, expected, rtol=1e-12, atol=0)
    assert pred == [tags.class_string(int(k)) for k in expected.argmax(axis=1)]


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


def reference_ids(sentence, j, tv):
    """Token ``j``'s feature ids, computed position by position over its
    windows (NULL_ID outside the sentence)."""
    n = len(sentence)

    def window(radius, value):
        return [
            value(sentence.tokens[k - 1].form) if 1 <= k <= n else NULL_ID
            for k in range(j - radius, j + radius + 1)
        ]

    cuts = {
        "prefix2": lambda f: f.lower()[:2],
        "prefix3": lambda f: f.lower()[:3],
        "suffix2": lambda f: f.lower()[-2:],
        "suffix3": lambda f: f.lower()[-3:],
    }
    out = {"symbols": list(symbol_flags(sentence.tokens[j - 1].form)), "caps": window(1, cap_shape)}
    for name, cut in cuts.items():
        out[name] = window(1, lambda f, name=name, cut=cut: tv.affixes[name].id_of(cut(f)))
    out["words"] = window(3, lambda f: tv.words.id_of(f.lower()))
    return out


def test_encode_sentence_stacks_per_token():
    """A batch's rows are its sentences' tokens in order, and no window
    reaches across a sentence boundary."""
    other = make_sentence([0, 1], forms=["Fish", "ate"])
    net, tv, _ = make_net([I_ATE_FISH])
    enc = encode_sentence([I_ATE_FISH, other, I_ATE_FISH], tv)
    assert list(enc) == list(GROUP_ORDER)
    rows = [(s, j) for s in (I_ATE_FISH, other, I_ATE_FISH) for j in range(1, len(s) + 1)]
    for row, (s, j) in enumerate(rows):
        ref = reference_ids(s, j, tv)
        for name in GROUP_ORDER:
            assert enc[name].shape[0] == 8
            assert list(enc[name][row]) == ref[name]


# forms that stress casing, affix cuts and the symbol flags: one character,
# digits, hyphens, and letters whose lowercase form changes length
ODD_FORMS = ["a", "-", "7", "x-1", "42", "Re-enter", "İstanbul", "ẞ", "ǅemal", "ΣΑΣ", "ﬁne",
             "Ⅻ", "٣٤", "ß", "e\u0301", "日本", "!?", "co-op", "A"]
FORM = st.one_of(
    st.sampled_from(ODD_FORMS),
    st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp")),
            min_size=1, max_size=5),
)


SENTENCE_FORMS = st.lists(st.lists(FORM, min_size=1, max_size=12), min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(forms=SENTENCE_FORMS, known=st.lists(st.booleans(), min_size=12, max_size=12))
def test_encode_sentence_matches_per_token_windows(forms, known):
    """One pass over a batch gives every token's per-position window ids,
    and the tagger's word ids are the form vocabulary ids of its tokens."""
    sents = [make_sentence([0] * len(f), forms=f) for f in forms]
    train_forms = [f for f, keep in zip(forms[0], known) if keep] or ["other"]
    net, tv, tags = make_net([make_sentence([0] * len(train_forms), forms=train_forms)])
    enc = encode_sentence(sents, tv)
    rows = [(s, j) for s in sents for j in range(1, len(s) + 1)]
    for row, (sent, j) in enumerate(rows):
        ref = reference_ids(sent, j, tv)
        for name in GROUP_ORDER:
            assert enc[name].dtype == np.int64
            assert enc[name].shape[0] == len(rows)
            assert list(enc[name][row]) == ref[name], (name, row)
    _, acts = tag_sentences(sents, net, tv, tags)
    assert list(acts.words) == [tv.words.id_of(t.form.lower()) for s in sents for t in s.tokens]


def per_sentence_encoding(sentence, vocabs):
    """The per-sentence encoder the batch one replaced: each token's values,
    then one ``np.stack`` of 2r + 1 shifted slices per group."""

    def windows(ids, radius):
        padded = np.array([NULL_ID] * radius + ids + [NULL_ID] * radius, dtype=np.int64)
        return np.stack([padded[k : k + len(ids)] for k in range(2 * radius + 1)], axis=1)

    forms = [t.form for t in sentence.tokens]
    lows = [form.lower() for form in forms]
    out = {
        "symbols": np.array([symbol_flags(form) for form in forms], dtype=np.int64),
        "caps": windows([cap_shape(form) for form in forms], 1),
    }
    for name, cut in AFFIXES.items():
        out[name] = windows([vocabs.affixes[name].id_of(cut(low)) for low in lows], 1)
    out["words"] = windows([vocabs.words.id_of(low) for low in lows], 3)
    return out


# forms built to repeat: case variants, digits, hyphens and Unicode punctuation
VARIANT_FORM = st.builds(
    lambda stem, case, mark: case(stem) + mark,
    st.sampled_from(["fish", "ate", "re-enter", "x1", "İstanbul", "ǅemal", "ß"]),
    st.sampled_from([str, str.upper, str.title, str.swapcase]),
    st.sampled_from(["", "-", "7", "\u2014", "\u00bf", "\u300c", "\u2026", "'s"]),
)


@settings(max_examples=80, deadline=None)
@given(
    forms=st.lists(
        st.lists(st.one_of(VARIANT_FORM, FORM), min_size=1, max_size=11), min_size=1, max_size=6
    ),
    vocab_share=st.integers(0, 3),
)
def test_batch_encoding_matches_per_sentence_encoding(forms, vocab_share):
    """The batch encoder's rows equal the per-sentence encoder's, sentence
    after sentence: one-token sentences, sentences longer than the word
    window, repeated and case-variant forms, and forms outside the
    vocabularies (only every ``vocab_share``-th sentence builds them)."""
    sents = [make_sentence([0] * len(f), forms=f) for f in forms]
    vocab_sents = sents[::vocab_share] if vocab_share else [make_sentence([0], forms=["other"])]
    tv, _ = build(vocab_sents)
    enc = encode_sentence(sents, tv)
    expected = [per_sentence_encoding(s, tv) for s in sents]
    for name in GROUP_ORDER:
        want = np.concatenate([e[name] for e in expected])
        assert enc[name].dtype == want.dtype and enc[name].flags.c_contiguous
        assert np.array_equal(enc[name], want), name


def test_tag_sentences_equals_tagging_each_sentence_alone():
    """One batch encoding with a tagger pass per sentence gives bitwise the
    tags and activations of tagging each sentence on its own, its rows in
    token order."""
    sents = [I_ATE_FISH, make_sentence([0], forms=["Fish"]),
             make_sentence([0] + [1] * 8, forms=[f"w{i}" for i in range(9)])]
    net, tv, tags = make_net(sents)
    preds, acts = tag_sentences(sents, net, tv, tags)
    assert acts.hidden.shape == (13, 8) and acts.probs.shape == (13, tags.n_classes)
    lo = 0
    for sent, pred in zip(sents, preds):
        (alone_pred,), alone = tag_sentences([sent], net, tv, tags)
        assert pred == alone_pred
        hi = lo + len(sent)
        for field in ("hidden", "probs", "words"):
            assert np.array_equal(getattr(acts, field)[lo:hi], getattr(alone, field)), field
        lo = hi


def test_tag_sentences_of_no_sentences_gives_empty_tables():
    net, tv, tags = make_net([I_ATE_FISH])
    preds, acts = tag_sentences([], net, tv, tags)
    assert preds == []
    assert acts.hidden.shape == (0, 8) and acts.hidden.dtype == np.float64
    assert acts.probs.shape == (0, tags.n_classes) and acts.probs.dtype == np.float64
    assert acts.words.shape == (0,) and acts.words.dtype == np.int64


def load_vectors(path, vocab, matrix):
    """One read of the file at ``path``, then the rows it fills."""
    return load_pretrained_embeddings(read_pretrained_vectors(str(path), vocab), vocab, matrix)


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
    loaded, total = load_vectors(path, tv.words, matrix)
    assert loaded == 1 and total == tv.words.size
    assert np.allclose(matrix[tv.words.id_of("alpha")], [1.0, 2.0, 3.0])
    assert np.allclose(matrix[tv.words.id_of("beta")], 0.0)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_pretrained_embeddings_reject_non_finite_values(tmp_path, value):
    s = make_sentence([0, 1], forms=["alpha", "beta"])
    tv, _ = build([s])
    path = tmp_path / "vecs.txt"
    path.write_text(f"alpha 1.0 2.0 3.0\nbeta 4.0 {value} 6.0\n")
    with pytest.raises(CorpusError) as e:
        load_vectors(path, tv.words, np.zeros((tv.words.size, 3)))
    assert str(e.value).startswith(f"embeddings {path} line 2: non-finite value")


def test_pretrained_embeddings_with_trailing_space_or_crlf(tmp_path):
    """The C word2vec tool ends each line with a space; files edited on
    Windows end lines with CRLF. Both load like plain lines."""
    s = make_sentence([0, 1], forms=["alpha", "beta"])
    tv, _ = build([s])
    for name, text in (
        ("space.txt", "2 3\nalpha 1.0 2.0 3.0 \nbeta 4.0 5.0 6.0 \n"),
        ("crlf.txt", "alpha 1.0 2.0 3.0\r\nbeta 4.0 5.0 6.0\r\n"),
    ):
        path = tmp_path / name
        path.write_bytes(text.encode("utf-8"))
        matrix = np.zeros((tv.words.size, 3))
        loaded, _ = load_vectors(path, tv.words, matrix)
        assert loaded == 2, name
        assert np.array_equal(matrix[tv.words.id_of("alpha")], [1.0, 2.0, 3.0])
        assert np.array_equal(matrix[tv.words.id_of("beta")], [4.0, 5.0, 6.0])
