import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stackprop.parser as parser_mod
import stackprop.tagger as tagger_mod
from stackprop.corpus import NULL_ID, Sentence, emit_conllu
from stackprop.errors import StackpropError
from stackprop.model import (
    JOINT,
    JOINT_STACKPROP,
    MODES,
    PIPELINE,
    STACKPROP,
    ParserNetworkConfig,
    build_model,
)
from stackprop.nnkernel import forward_batch
from stackprop.parser import (
    decode_groups,
    feature_tokens,
    featurize,
    label_features,
    parse_corpus,
    parse_sentence,
    parser_input,
    token_tables,
)
from stackprop.synthetic import generate_corpus
from stackprop.tagger import TaggerConfig, tag_sentences
from stackprop.transition import (
    NULL_TOKEN,
    SHIFT,
    Action,
    ActionSpace,
    TransitionSystem,
    apply,
    initial,
    is_terminal,
    replay,
    unroll,
)

from conftest import I_ATE_FISH, make_sentence

STD = TransitionSystem()
TCFG = TaggerConfig(hidden=8, d_symbols=2, d_caps=2, d_affix=3, d_words=4)
PCFG = ParserNetworkConfig(hidden=12, d_implicit=5, d_label=3, d_word=4)


def tiny_model(sentences=None, mode=STACKPROP, seed=0):
    sentences = sentences or [I_ATE_FISH]
    return build_model(mode, sentences, TCFG, PCFG, seed=seed)


def test_feature_tokens_initial_config():
    c = initial(I_ATE_FISH)
    toks = feature_tokens(c)
    assert len(toks) == 20
    # stack slots (incl. the root sentinel) are NULL
    assert list(toks[:4]) == [NULL_TOKEN] * 4
    # buffer slots b0..b3
    assert list(toks[4:8]) == [1, 2, 3, NULL_TOKEN]
    assert list(toks[8:]) == [NULL_TOKEN] * 12


def test_feature_tokens_after_two_shifts():
    c = replay(I_ATE_FISH, [Action(SHIFT), Action(SHIFT)], STD)
    toks = feature_tokens(c)
    assert toks[0] == 2  # s0
    assert toks[1] == 1  # s1
    assert toks[4] == 3  # b0
    # the three classic templates (stack top, stack second, buffer front)
    # are slots 0, 1, and 4 of the template set
    assert [toks[0], toks[1], toks[4]] == [2, 1, 3]


def test_feature_tokens_children():
    m = tiny_model()
    deriv = unroll(I_ATE_FISH, STD, m.labels)
    # replay up to the configuration where 2 heads {1,3}: after RIGHT_ARC(obj)
    c = replay(I_ATE_FISH, deriv.actions()[:5], STD)
    toks = feature_tokens(c)
    assert c.stack == [0, 2]
    assert toks[0] == 2
    assert toks[8] == 1  # leftmost child of s0
    assert toks[9] == 3  # rightmost child of s0


def test_label_features_track_arcs():
    m = tiny_model()
    deriv = unroll(I_ATE_FISH, STD, m.labels)
    c = replay(I_ATE_FISH, deriv.actions()[:5], STD)
    labs = label_features(c, feature_tokens(c))
    assert labs[0] == m.labels.id_of("nsubj")  # leftmost child of s0
    assert labs[1] == m.labels.id_of("obj")  # rightmost child of s0
    assert all(l == NULL_ID for l in labs[2:])


def decode_input(c, sentence, m):
    """The parser input the decoder builds for configuration ``c``."""
    _, acts = tag_sentences([sentence], m.tagger, m.tvocabs, m.tags)
    rows, labels = featurize([c], [0])
    return parser_input(token_tables(m, m.parser.inference_params(), acts), rows, labels)


@pytest.mark.parametrize("mode", [STACKPROP, PIPELINE])
def test_token_tables_end_with_the_empty_slot_row(mode):
    """One row per token, then the empty-slot row, which row -1 selects."""
    m = tiny_model(mode=mode)
    _, acts = tag_sentences([I_ATE_FISH], m.tagger, m.tvocabs, m.tags)
    params = m.parser.inference_params()
    tables = token_tables(m, params, acts)
    if mode == STACKPROP:
        expected = {"implicit": (acts.hidden, params["null_input"])}
    else:
        expected = {"tagdist": (acts.probs, np.zeros(m.tags.n_classes)),
                    "pwords": (acts.words, NULL_ID)}
    assert set(tables) == set(expected)
    for name, (token_rows, empty_row) in expected.items():
        table = tables[name]
        assert len(table) == len(I_ATE_FISH) + 1
        assert np.array_equal(table[:-1], token_rows)
        assert np.array_equal(table[-1], empty_row)
        assert np.array_equal(table[NULL_TOKEN], empty_row)


def test_featurize_rows_are_zero_based_and_offset():
    c = replay(I_ATE_FISH, [Action(SHIFT)], STD)
    toks = np.array(feature_tokens(c))
    rows, labels = featurize([c], [0])
    assert rows.shape == (1, 20) and labels.shape == (1, 12)
    assert np.array_equal(rows[0], np.where(toks == NULL_TOKEN, -1, toks - 1))
    assert np.array_equal(labels[0], label_features(c, feature_tokens(c)))
    shifted, _ = featurize([c, c], [10, 0])
    assert np.array_equal(shifted[0], np.where(rows[0] == -1, -1, rows[0] + 10))
    assert np.array_equal(shifted[1], rows[0])


def test_assemble_parser_input_null_rows():
    m = tiny_model()
    # the terminal configuration: every template slot is empty
    c = replay(I_ATE_FISH, unroll(I_ATE_FISH, STD, m.labels).actions(), STD)
    assert c.stack == [0] and not c.buffer
    inputs = decode_input(c, I_ATE_FISH, m)
    dense = inputs["implicit"][0]
    assert dense.shape == (20, TCFG.hidden)
    assert np.array_equal(dense, np.tile(m.parser.params["null_input"], (20, 1)))
    assert np.array_equal(inputs["labels"][0], np.full(12, NULL_ID))


def test_assemble_identical_tokens_identical_rows():
    m = tiny_model()
    c = replay(I_ATE_FISH, [Action(SHIFT)], STD)
    toks = feature_tokens(c)
    rows = decode_input(c, I_ATE_FISH, m)["implicit"][0]
    idx = [i for i, t in enumerate(toks) if t == 1]
    assert len(idx) >= 1
    for i in idx[1:]:
        assert np.array_equal(rows[idx[0]], rows[i])


def test_parser_input_pipeline_layout():
    m = tiny_model(mode=PIPELINE)
    c = replay(I_ATE_FISH, [Action(SHIFT)], STD)
    toks = feature_tokens(c)
    _, acts = tag_sentences([I_ATE_FISH], m.tagger, m.tvocabs, m.tags)
    inputs = decode_input(c, I_ATE_FISH, m)
    assert set(inputs) == {"tagdist", "pwords", "labels"}
    for i, tok in enumerate(toks):
        if tok == NULL_TOKEN:
            assert not inputs["tagdist"][0, i].any()
            assert inputs["pwords"][0, i] == NULL_ID
        else:
            assert np.array_equal(inputs["tagdist"][0, i], acts.probs[tok - 1])
            form = I_ATE_FISH.tokens[tok - 1].form.lower()
            assert inputs["pwords"][0, i] == m.forms.id_of(form)


def test_parser_input_width_assertion():
    m = tiny_model()
    # W1 has one row per input unit
    assert m.parser.params["W1"].shape[0] == 20 * PCFG.d_implicit + 12 * PCFG.d_label


def test_embedding_perturbation_sensitivity():
    """Perturbing a word's embedding changes the parser input iff that word
    sits inside some template token's tagger window."""
    s = make_sentence(
        [2, 0, 2, 3, 4, 5, 6, 7, 8, 9],  # right-branching 10-token chain
        forms=[f"w{i}" for i in range(10)],
    )
    m = tiny_model([s])
    c = initial(s)  # templates select only b0..b3 = tokens 1..4

    def parser_h0():
        return forward_batch(m.parser, decode_input(c, s, m)).h0

    base = parser_h0()
    # token 10's form is outside every selected window (max selected token 4, radius 3)
    far_id = m.forms.id_of("w9")
    m.tagger.params["E_words"][far_id] += 1.0
    assert np.array_equal(parser_h0(), base)
    # token 4 is selected (b3): perturbing its form changes the input
    near_id = m.forms.id_of("w3")
    m.tagger.params["E_words"][near_id] += 1.0
    assert not np.array_equal(parser_h0(), base)


def test_zero_weights_uniform_over_legal_actions():
    m = tiny_model()
    for k in list(m.parser.params):
        m.parser.params[k][:] = 0.0
    _, acts = tag_sentences([I_ATE_FISH], m.tagger, m.tvocabs, m.tags)
    c = initial(I_ATE_FISH)
    params = m.parser.inference_params()
    rows, labels = featurize([c], [0])
    inputs = parser_input(token_tables(m, params, acts), rows, labels)
    (logits,) = forward_batch(m.parser, inputs, params).logits
    assert np.allclose(logits, logits[0])
    mask = m.actions.legal_mask(c)
    masked = logits.copy()
    masked[~mask] = -np.inf
    probs = np.exp(masked - masked.max())
    probs /= probs.sum()
    assert np.allclose(probs[mask], 1.0 / mask.sum())


def test_argmax_invariant_to_constant_shift():
    m = tiny_model(seed=3)
    _, acts = tag_sentences([I_ATE_FISH], m.tagger, m.tvocabs, m.tags)
    c = initial(I_ATE_FISH)
    params = m.parser.inference_params()
    rows, labels = featurize([c], [0])
    inputs = parser_input(token_tables(m, params, acts), rows, labels)
    (logits,) = forward_batch(m.parser, inputs, params).logits
    mask = m.actions.legal_mask(c)
    a = logits.copy()
    a[~mask] = -np.inf
    b = logits + 17.5
    b[~mask] = -np.inf
    assert np.argmax(a) == np.argmax(b)


def test_shift_never_selected_with_empty_buffer():
    m = tiny_model()
    c = replay(I_ATE_FISH, [Action(SHIFT)] * 3, STD)
    assert not c.buffer
    mask = m.actions.legal_mask(c)
    assert not mask[m.actions.encode(Action(SHIFT))]


def test_parse_single_token_forced_derivation():
    s = make_sentence([0], forms=["Solo"], labels=["root"])
    m = tiny_model([s])
    out = parse_sentence(s, m)
    assert out.tokens[0].pred_head == 0
    assert out.tokens[0].pred_deprel == "root"


def test_no_legal_action_raises(monkeypatch):
    m = tiny_model()
    monkeypatch.setattr(
        ActionSpace, "legal_mask", lambda self, c: np.zeros(self.size, dtype=bool)
    )
    with pytest.raises(StackpropError, match="no legal action"):
        parse_sentence(I_ATE_FISH, m)


def test_parse_full_tree_and_stats():
    m = tiny_model()
    (out,), stats = parse_corpus([I_ATE_FISH], m)
    assert all(t.pred_head is not None for t in out.tokens)
    heads = {t.index: t.pred_head for t in out.tokens}
    # a full tree: every token has a head, exactly reachable set
    assert set(heads) == {1, 2, 3}
    assert stats.tokens == 3  # one tagger pass per token
    assert stats.parser_evals <= 4 * 3


def is_one_rooted_tree(heads):
    """Heads (0 for the root) of tokens 1..n form one tree with one root."""
    if sum(h == 0 for h in heads) != 1:
        return False
    for start in range(1, len(heads) + 1):
        seen, node = set(), start
        while node != 0:
            if node in seen:
                return False
            seen.add(node)
            node = heads[node - 1]
    return True


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    swap=st.booleans(),
    mode=st.sampled_from([STACKPROP, PIPELINE, JOINT]),
    scale=st.sampled_from([0.01, 1.0, 10.0]),
)
def test_decode_yields_one_rooted_tree(seed, swap, mode, scale):
    """Random sentences and random parser weights: every greedy decode is a
    tree with exactly one root attachment."""
    corpus = generate_corpus(6, seed=seed, p_nonproj=0.3)
    m = build_model(mode, corpus, TCFG, PCFG, swap=swap, seed=seed)
    rng = np.random.default_rng(seed)
    for block in m.parser.params.values():
        block[...] = rng.normal(scale=scale, size=block.shape)
    for s in corpus:
        heads = [t.pred_head for t in parse_sentence(s, m).tokens]
        assert is_one_rooted_tree(heads), heads


def test_parser_ignores_tagger_softmax_in_stacked_mode():
    m = tiny_model(seed=5)
    before = parse_sentence(I_ATE_FISH, m)
    m.tagger.params["W2"][:] = np.random.default_rng(0).normal(size=m.tagger.params["W2"].shape)
    m.tagger.params["b2"][:] = 3.3
    m.tagger.set_average("W2", 9.9)
    after = parse_sentence(I_ATE_FISH, m)
    assert [t.pred_head for t in before.tokens] == [t.pred_head for t in after.tokens]
    assert [t.pred_deprel for t in before.tokens] == [t.pred_deprel for t in after.tokens]


def test_tagger_runs_once_per_sentence(monkeypatch):
    """Decoding re-indexes cached activations: the tagger evaluates exactly
    one row per token for the whole greedy loop."""
    m = tiny_model()
    rows_seen = []
    real_forward = tagger_mod.forward_batch

    def counting_forward(net, inputs, params=None):
        if net is m.tagger:
            rows_seen.append(next(iter(inputs.values())).shape[0])
        return real_forward(net, inputs, params)

    monkeypatch.setattr(tagger_mod, "forward_batch", counting_forward)
    parse_sentence(I_ATE_FISH, m)
    assert sum(rows_seen) == len(I_ATE_FISH)


def test_parse_corpus_threaded_identical_output():
    corpus = generate_corpus(12, seed=21)
    m = tiny_model(corpus, seed=2)
    seq, _ = parse_corpus(corpus, m, threads=1)
    par, _ = parse_corpus(corpus, m, threads=4)
    assert emit_conllu(seq, use_predicted=True) == emit_conllu(par, use_predicted=True)
    inline, _ = parse_corpus(corpus, m, threads=0)  # below 1 runs inline, as 1 does
    assert emit_conllu(seq, use_predicted=True) == emit_conllu(inline, use_predicted=True)


def _row_counter(module, rows):
    """``module.forward_batch`` that records the rows of every call."""
    real = module.forward_batch

    def counting(net, inputs, params=None):
        rows.append(next(iter(inputs.values())).shape[0])
        return real(net, inputs, params)

    return counting


def test_lockstep_one_parser_forward_per_step(monkeypatch):
    """A group's parser forwards are the steps at which some live
    configuration has a choice of action, not the sum over derivations; each
    scores every still-live configuration, so the rows only shrink, and a
    step at which every configuration has one legal action scores nothing."""
    corpus = generate_corpus(12, seed=21, p_nonproj=0.3)
    m = tiny_model(corpus, seed=2)
    n_legal = []
    real_mask = m.actions.legal_mask

    def counting_mask(c):
        mask = real_mask(c)
        n_legal.append(mask.sum())
        return mask

    monkeypatch.setattr(m.actions, "legal_mask", counting_mask)
    steps, choices = [], set()
    for s in corpus:
        n_legal.clear()
        _, one = parse_corpus([s], m)
        assert one.transitions == len(n_legal)
        assert one.parser_batches == one.parser_evals == sum(k > 1 for k in n_legal)
        steps.append(len(n_legal))
        choices |= {t for t, k in enumerate(n_legal) if k > 1}
    parser_rows, tagger_rows = [], []
    monkeypatch.setattr(parser_mod, "forward_batch", _row_counter(parser_mod, parser_rows))
    monkeypatch.setattr(tagger_mod, "forward_batch", _row_counter(tagger_mod, tagger_rows))
    _, stats = parse_corpus(corpus, m)
    live = [sum(n > t for n in steps) for t in sorted(choices)]
    assert parser_rows == live
    assert len(parser_rows) == stats.parser_batches < max(steps)
    assert sum(parser_rows) == stats.parser_evals < stats.transitions == sum(steps)
    assert parser_rows == sorted(parser_rows, reverse=True)
    assert sum(tagger_rows) == stats.tokens == sum(len(s) for s in corpus)


def reference_decode(sentences, m):
    """The lockstep loop that scores every step: one parser forward over all
    live configurations, then each row's masked argmax. Returns the final
    configurations, each sentence's tagger hidden rows and the number of
    steps at which some live configuration had two or more legal actions."""
    _, acts = tag_sentences(sentences, m.tagger, m.tvocabs, m.tags)
    bounds = np.cumsum([0] + [len(s) for s in sentences]).tolist()
    params = m.parser.inference_params()
    tables = token_tables(m, params, acts)
    configs = [initial(s) for s in sentences]
    live = list(range(len(sentences)))
    choice_steps = 0
    while live:
        rows, labels = featurize([configs[i] for i in live], [bounds[i] for i in live])
        logits = forward_batch(m.parser, parser_input(tables, rows, labels), params).logits
        masks = [m.actions.legal_mask(configs[i]) for i in live]
        choice_steps += any(mask.sum() > 1 for mask in masks)
        for i, scores, mask in zip(live, logits, masks):
            scores[~mask] = -np.inf
            apply(configs[i], m.actions.decode(int(np.argmax(scores))), m.system)
        live = [i for i in live if not is_terminal(configs[i])]
    return configs, [acts.hidden[lo:hi] for lo, hi in zip(bounds, bounds[1:])], choice_steps


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 12),
    seed=st.integers(0, 2**31 - 1),
    swap=st.booleans(),
    mode=st.sampled_from(MODES),
    scale=st.sampled_from([0.01, 1.0, 10.0]),
    group=st.sampled_from([1, 3, parser_mod.LOCKSTEP_SENTENCES]),
    threads=st.sampled_from([1, 3]),
    data=st.data(),
)
def test_decode_matches_the_loop_that_scores_every_step(
    n, seed, swap, mode, scale, group, threads, data
):
    """Random corpora of mixed lengths, 1-token sentences among them, and
    random parser weights: skipping the forward at steps where every live
    configuration has one legal action gives the parses and hidden rows of
    the loop that scores every step, and a forward at every other step."""
    corpus = generate_corpus(n, seed=seed, p_nonproj=0.3)
    for k in data.draw(st.lists(st.integers(0, n), max_size=4), label="1-token at"):
        corpus.insert(k, make_sentence([0], forms=[f"solo{k}"], tags=["NOUN"]))
    m = build_model(mode, corpus, TCFG, PCFG, swap=swap, seed=seed)
    rng = np.random.default_rng(seed)
    for block in m.parser.params.values():
        block[...] = rng.normal(scale=scale, size=block.shape)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(parser_mod, "LOCKSTEP_SENTENCES", group)
        decoded = list(decode_groups(iter(corpus), m, threads=threads))
    assert len(decoded) == -(-len(corpus) // group)
    for k, (parsed, hidden, stats) in enumerate(decoded):
        configs, ref_hidden, choice_steps = reference_decode(
            corpus[k * group : (k + 1) * group], m
        )
        assert stats.parser_batches == choice_steps
        for s, h, c, ref_h in zip(parsed, hidden, configs, ref_hidden, strict=True):
            assert h.tobytes() == ref_h.tobytes()
            assert [t.pred_head for t in s.tokens] == c.head[1:]
            assert [t.pred_deprel for t in s.tokens] == [
                m.labels.string_of(c.label[t.index]) for t in s.tokens
            ]
            if m.system.joint:
                assert [t.pred_upos for t in s.tokens] == [
                    m.tags.string_of(c.tags[t.index]) for t in s.tokens
                ]


def test_empty_sentence_in_corpus_raises_before_decoding(monkeypatch):
    corpus = generate_corpus(5, seed=21)
    m = tiny_model(corpus, seed=2)
    tagger_rows = []
    monkeypatch.setattr(tagger_mod, "forward_batch", _row_counter(tagger_mod, tagger_rows))
    with pytest.raises(StackpropError, match="cannot parse an empty sentence"):
        parse_corpus(corpus[:2] + [Sentence([], id="empty")] + corpus[2:], m)
    assert tagger_rows == []


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 20),
    seed=st.integers(0, 2**31 - 1),
    swap=st.booleans(),
    mode=st.sampled_from([STACKPROP, PIPELINE, JOINT, JOINT_STACKPROP]),
    scale=st.sampled_from([0.01, 1.0, 10.0]),
    group=st.sampled_from([1, 3, parser_mod.LOCKSTEP_SENTENCES]),
    data=st.data(),
)
def test_decode_output_independent_of_batching(n, seed, swap, mode, scale, group, data):
    """Random corpora and random parser weights: lockstep decoding gives the
    same CoNLL-U whether sentences go one at a time, as one corpus, over
    threads, in groups of any size, split into two corpora, or streamed
    group by group."""
    corpus = generate_corpus(n, seed=seed, p_nonproj=0.3)
    m = build_model(mode, corpus, TCFG, PCFG, swap=swap, seed=seed)
    rng = np.random.default_rng(seed)
    for block in m.parser.params.values():
        block[...] = rng.normal(scale=scale, size=block.shape)
    k = data.draw(st.integers(0, n), label="split")

    def conllu(parsed):
        return emit_conllu(parsed, use_predicted=True)

    expected = conllu([parse_sentence(s, m) for s in corpus])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(parser_mod, "LOCKSTEP_SENTENCES", group)
        assert conllu(parse_corpus(corpus, m)[0]) == expected
        assert conllu(parse_corpus(corpus, m, threads=3)[0]) == expected
        head, _ = parse_corpus(corpus[:k], m)
        tail, _ = parse_corpus(corpus[k:], m)
        assert conllu(head + tail) == expected
        for threads in (1, 3):
            groups = decode_groups(iter(corpus), m, threads=threads)
            assert conllu([s for parsed, _, _ in groups for s in parsed]) == expected


def test_decode_groups_reads_one_batch_ahead(monkeypatch):
    """A stream is read ``threads`` groups at a time: the first group comes
    out before more than ``threads * LOCKSTEP_SENTENCES`` sentences are
    pulled, and one thread pool serves the whole stream."""
    corpus = generate_corpus(20, seed=21)
    m = tiny_model(corpus, seed=2)
    monkeypatch.setattr(parser_mod, "LOCKSTEP_SENTENCES", 3)
    pools = []
    real_pool = parser_mod.ThreadPoolExecutor

    def counting_pool(*args, **kwargs):
        pools.append(args)
        return real_pool(*args, **kwargs)

    monkeypatch.setattr(parser_mod, "ThreadPoolExecutor", counting_pool)
    for threads in (1, 2):
        pulled = []

        def stream():
            for s in corpus:
                pulled.append(s)
                yield s

        groups = decode_groups(stream(), m, threads=threads)
        first, hidden, stats = next(groups)
        assert len(first) == len(hidden) == stats.sentences == 3
        assert len(first) <= len(pulled) <= threads * 3
        rest = [parsed for parsed, _, _ in groups]
        assert [len(g) for g in rest] == [3] * 5 + [2]
        assert len(pulled) == len(corpus)
    assert pools == [(2,)]
