import io
import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stackprop.trainer as trainer_mod

from stackprop.errors import StackpropError
from stackprop.model import (
    JOINT,
    JOINT_STACKPROP,
    PIPELINE,
    STACKPROP,
    WINDOW,
    build_model,
    save,
)
from stackprop.nnkernel import OptimizerConfig, forward_batch
from stackprop.parser import parse_corpus, parse_sentence, parser_input, token_tables
from stackprop.synthetic import generate_corpus
from stackprop.tagger import tag_sentences
from stackprop.trainer import (
    TAGGER_SOFTMAX_BLOCKS,
    encode_training_data,
    jackknife_tags,
    joint_train,
    parser_batch_update,
    pipeline_train,
    run_interleaved,
    stackprop_train,
    tagger_batch_update,
    train_variant,
)
from stackprop.transition import apply, featurize, initial, unroll

from conftest import make_sentence, random_tree, tiny_settings

CORPUS = generate_corpus(24, seed=31)


def fresh(mode=STACKPROP, corpus=CORPUS, seed=0):
    s = tiny_settings(seed=seed)
    model = build_model(mode, corpus, s.tagger_cfg, s.parser_cfg, seed=seed)
    data = encode_training_data(corpus, model)
    return model, data, s


def net_state(net):
    return {
        k: (net.params[k].copy(), net.velocity[k].copy(), net.average[k].copy(), net.avg_count[k])
        for k in net.block_names
    }


def assert_blocks_identical(net, before, blocks):
    for k in blocks:
        p, v, a, c = before[k]
        assert np.array_equal(net.params[k], p), k
        assert np.array_equal(net.velocity[k], v), k
        assert np.array_equal(net.average[k], a), k
        assert net.avg_count[k] == c, k


def test_encoded_corpus_shapes():
    model, data, _ = fresh()
    n_tokens = sum(len(s) for s in CORPUS)
    assert data.n_tag_examples == n_tokens
    assert data.n_parse_examples == 2 * n_tokens  # arc-standard: 2n steps
    assert data.deriv_tokens.shape == (2 * n_tokens, 20)
    assert data.deriv_labels.shape == (2 * n_tokens, 12)
    assert all(x.shape[0] == n_tokens for x in data.tag_inputs.values())
    assert data.deriv_tokens.min() == -1 and data.deriv_tokens.max() == n_tokens - 1
    assert data.skipped == 0


def test_encoding_a_deprel_the_model_has_not_seen_raises():
    """A gold label outside the model's label vocabulary is refused, not
    encoded as another action's index."""
    model, _, _ = fresh()
    s = make_sentence([2, 0], forms=["a", "b"], labels=["never-seen", "root"])
    with pytest.raises(StackpropError, match="action space"):
        encode_training_data([s], model)


def test_parser_update_leaves_tagger_softmax_untouched():
    model, data, s = fresh()
    rng = np.random.default_rng(0)
    for _ in range(20):
        before = net_state(model.tagger)
        idx = rng.integers(0, data.n_parse_examples, size=8)
        parser_batch_update(model, data, idx, s.optimizer)
        assert_blocks_identical(model.tagger, before, TAGGER_SOFTMAX_BLOCKS)
        # but the shared blocks do move
        assert not np.array_equal(model.tagger.params["W1"], before["W1"][0])


def test_tagger_update_leaves_parser_untouched():
    model, data, s = fresh()
    rng = np.random.default_rng(1)
    for _ in range(20):
        before = net_state(model.parser)
        idx = rng.integers(0, data.n_tag_examples, size=8)
        tagger_batch_update(model, data, idx, s.optimizer)
        assert_blocks_identical(model.parser, before, model.parser.block_names)
        assert model.parser.step == 0


def test_parser_update_moves_null_row_only_when_selected():
    model, data, s = fresh()
    # initial configurations have NULL templates, so the null row trains
    before = model.parser.params["null_input"].copy()
    first_steps = np.array([0])  # first derivation step of the corpus = initial config
    parser_batch_update(model, data, first_steps, s.optimizer)
    assert not np.array_equal(model.parser.params["null_input"], before)


def test_pipeline_update_needs_jackknifed_distributions():
    """The variant picks the update's path: a pipeline update without tag
    distributions is an error, and it leaves both networks as they were."""
    model, data, s = fresh(PIPELINE)
    before = net_state(model.parser), net_state(model.tagger)
    with pytest.raises(StackpropError, match="jackknifed tag distributions"):
        parser_batch_update(model, data, np.array([0, 1]), s.optimizer)
    assert_blocks_identical(model.parser, before[0], model.parser.block_names)
    assert_blocks_identical(model.tagger, before[1], model.tagger.block_names)


def test_gradient_reaches_selected_word_embeddings_only():
    # 10-token chain: the initial configuration selects b0..b3 = tokens 1..4,
    # whose windows cover tokens 1..7; forms of tokens 8..10 must see no update
    s = make_sentence([0] + list(range(1, 10)), forms=[f"u{i}" for i in range(10)])
    model, data, st = fresh(corpus=[s])
    emb_before = model.tagger.params["E_words"].copy()
    parser_batch_update(model, data, np.array([0]), st.optimizer)
    emb_after = model.tagger.params["E_words"]
    changed = {
        i for i in range(emb_before.shape[0]) if not np.array_equal(emb_before[i], emb_after[i])
    }
    in_window = {model.forms.id_of(f"u{i}") for i in range(0, 7)}
    out_window = {model.forms.id_of(f"u{i}") for i in range(7, 10)}
    # boundary window slots select the learned NULL row, which also trains
    from stackprop.corpus import NULL_ID

    assert changed <= in_window | {NULL_ID}
    assert changed & in_window
    assert not (changed & out_window)


def _recording(module, net, seen):
    """A forward_batch for ``module`` that records the inputs given to ``net``."""
    real = module.forward_batch

    def forward(n, inputs, params=None):
        if n is net:
            seen.append(inputs)
        return real(n, inputs, params)

    return forward


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 7), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
    swap=st.booleans(),
    mode=st.sampled_from([STACKPROP, PIPELINE]),
)
def test_decode_input_matches_training_batch(sizes, seed, swap, mode):
    """At every oracle step, the parser input the decoder builds equals the
    matching row of the batch a PARSER update builds from the encoded corpus:
    sentence-local token rows, global rows and the batch's distinct rows all
    resolve to the same token."""
    rng = np.random.default_rng(seed)
    corpus = [
        make_sentence(
            random_tree(n, rng),
            forms=[f"f{rng.integers(10)}" for _ in range(n)],
            tags=[str(rng.choice(["A", "B", "C"])) for _ in range(n)],
            sid=f"s{i}",
        )
        for i, n in enumerate(sizes)
    ]
    s = tiny_settings()
    model = build_model(mode, corpus, s.tagger_cfg, s.parser_cfg, swap=swap, seed=0)
    data = encode_training_data(corpus, model)
    params = model.parser.inference_params()

    decoded, dists = [], []
    for sent in data.sentences:
        _, acts = tag_sentences([sent], model.tagger, model.tvocabs, model.tags)
        dists.append(acts.probs)
        tables = token_tables(model, params, acts)
        c = initial(sent)
        for a in unroll(sent, model.system, model.labels, model.tags).actions():
            decoded.append(parser_input(tables, *featurize([c], [0])))
            apply(c, a, model.system)
    assert len(decoded) == data.n_parse_examples

    n = data.n_parse_examples
    idx = np.concatenate([rng.permutation(n), rng.integers(0, n, size=3)])
    train_dists = np.concatenate(dists) if mode == PIPELINE else None
    batches = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trainer_mod, "forward_batch", _recording(trainer_mod, model.parser, batches))
        parser_batch_update(model, data, idx, OptimizerConfig(), train_dists)
    (batch,) = batches

    assert set(batch) == set(decoded[0])
    for j, k in enumerate(idx):
        for name, x in batch.items():
            # tagger activations come from differently sized matrix products
            # on the two sides, so they may differ in the last bits
            np.testing.assert_allclose(x[j], decoded[k][name][0], rtol=1e-12, atol=1e-15)


def test_budget_accounting_message():
    lines = []
    model, data, s = fresh()
    run_interleaved(
        model, data, None, s.schedule, s.optimizer,
        np.random.default_rng(0), tag_supervision=True,
        log_fn=lines.append,
    )
    total = s.schedule.parser_epochs * data.n_parse_examples + (
        s.schedule.tagger_epochs * data.n_tag_examples
    )
    consumed = [int(tok.split("=")[1]) for line in lines for tok in line.split() if tok.startswith("consumed=")]
    assert consumed and consumed[-1] <= total
    # the loop runs the budgets exactly to zero
    assert total - consumed[-1] < data.n_tag_examples + data.n_parse_examples


def test_tagger_epochs_zero_equals_window_training():
    s0 = tiny_settings(seed=4)
    s0.schedule.tagger_epochs = 0
    s0.schedule.tagger_pretrain_epochs = 0
    m_sp = stackprop_train(CORPUS, None, s0)
    m_w = train_variant(WINDOW, CORPUS, None, tiny_settings(seed=4))
    for k in m_sp.parser.block_names:
        assert np.array_equal(m_sp.parser.params[k], m_w.parser.params[k])
    for k in m_sp.tagger.block_names:
        assert np.array_equal(m_sp.tagger.params[k], m_w.tagger.params[k])


def record_tagger_batches(monkeypatch) -> list[np.ndarray]:
    """The example indices of every TAGGER update from now on, in order."""
    batches = []
    real = trainer_mod.tagger_batch_update

    def recording(model, data, idx, *args, **kwargs):
        batches.append(idx.copy())
        return real(model, data, idx, *args, **kwargs)

    monkeypatch.setattr(trainer_mod, "tagger_batch_update", recording)
    return batches


def is_permutation(idx: np.ndarray, n: int) -> bool:
    return sorted(idx.tolist()) == list(range(n))


def test_pretraining_passes_never_share_a_batch(monkeypatch):
    """Each pretraining pass is a permutation of every tag example and ends
    in its own short batch."""
    model, data, s = fresh()
    b, n = s.optimizer.batch_size, data.n_tag_examples
    assert n % b  # each pass ends in a short batch
    batches = record_tagger_batches(monkeypatch)
    schedule = trainer_mod.TrainingSchedule(
        parser_epochs=0, tagger_epochs=0, tagger_pretrain_epochs=2
    )
    run_interleaved(model, data, None, schedule, s.optimizer, np.random.default_rng(0), True)
    per_pass = -(-n // b)
    assert [len(idx) for idx in batches] == 2 * ([b] * (per_pass - 1) + [n % b])
    assert is_permutation(np.concatenate(batches[:per_pass]), n)
    assert is_permutation(np.concatenate(batches[per_pass:]), n)


def test_tagger_only_batches_run_on_across_passes(monkeypatch):
    """Tagger-only training fills every batch but the last, so one batch
    spans the boundary between two passes."""
    model, data, s = fresh()
    b, n = s.optimizer.batch_size, data.n_tag_examples
    batches = record_tagger_batches(monkeypatch)
    updates = trainer_mod.train_tagger_only(model, data, 2, s.optimizer, np.random.default_rng(0))
    assert [len(idx) for idx in batches] == [b] * (2 * n // b) + [2 * n % b]
    ends = np.cumsum([len(idx) for idx in batches])
    assert n not in ends
    flat = np.concatenate(batches)
    assert is_permutation(flat[:n], n) and is_permutation(flat[n:], n)
    assert updates == len(batches)


def test_training_determinism_bitwise():
    a = stackprop_train(CORPUS, None, tiny_settings(seed=5))
    b = stackprop_train(CORPUS, None, tiny_settings(seed=5))
    ba, bb = io.BytesIO(), io.BytesIO()
    save(a, ba)
    save(b, bb)
    assert ba.getvalue() == bb.getvalue()
    c = stackprop_train(CORPUS, None, tiny_settings(seed=6))
    bc = io.BytesIO()
    save(c, bc)
    assert bc.getvalue() != ba.getvalue()


def test_jackknife_bookkeeping():
    sents = generate_corpus(10, seed=8)
    settings = tiny_settings(seed=0, parser_epochs=1, tagger_epochs=2)
    annotated, dists, folds = jackknife_tags(sents, settings, seed=1)
    assert len(folds) == 5
    assert all(t.pred_upos is not None for s in annotated for t in s.tokens)
    # tagged as ``tag`` writes it: the input heads and labels are the predictions
    assert all(
        (t.pred_head, t.pred_deprel) == (t.gold_head, t.gold_deprel)
        for s in annotated for t in s.tokens
    )
    n_tokens = sum(len(s) for s in sents)
    assert dists.shape[0] == n_tokens
    assert np.allclose(dists.sum(axis=1), 1.0, atol=1e-9)


def test_jackknife_fold_models_never_see_their_fold():
    # two sentences with disjoint vocabulary: each fold tagger must not know
    # the other sentence's words
    s1 = make_sentence([0, 1], forms=["aaa", "bbb"], tags=["N", "V"])
    s2 = make_sentence([0, 1], forms=["ccc", "ddd"], tags=["N", "V"])
    settings = tiny_settings(parser_epochs=1, tagger_epochs=1)
    settings.jackknife_folds = 2
    annotated, _, folds = jackknife_tags([s1, s2], settings, seed=0)
    # fold 0 holds out s1 and trains on s2, and vice versa
    assert "ccc" in folds[0].forms and "aaa" not in folds[0].forms
    assert "aaa" in folds[1].forms and "ccc" not in folds[1].forms


def test_jackknife_too_few_sentences_errors():
    with pytest.raises(StackpropError):
        jackknife_tags(generate_corpus(3, seed=0), tiny_settings())  # 5 folds


def test_jackknife_folds_partition_corpus():
    sents = generate_corpus(11, seed=9)
    bounds = [round(i * 11 / 4) for i in range(5)]
    pieces = [sents[bounds[i] : bounds[i + 1]] for i in range(4)]
    assert sum(len(p) for p in pieces) == 11
    seen = [s.id for p in pieces for s in p]
    assert seen == [s.id for s in sents]


def test_fold_taggers_track_full_data_tagger():
    """Jackknifed fold taggers stay within 5 points of a full-data tagger."""
    from stackprop.model import ParserNetworkConfig
    from stackprop.nnkernel import OptimizerConfig
    from stackprop.tagger import TaggerConfig
    from stackprop.trainer import TrainSettings, TrainingSchedule, train_tagger_only

    corpus = generate_corpus(90, seed=80)
    dev = generate_corpus(30, seed=81)
    settings = TrainSettings(
        schedule=TrainingSchedule(parser_epochs=1, tagger_epochs=50, seed=0),
        tagger_cfg=TaggerConfig(hidden=24, d_symbols=4, d_caps=4, d_affix=6, d_words=12),
        parser_cfg=ParserNetworkConfig(hidden=24, d_implicit=8, d_label=4),
        optimizer=OptimizerConfig(
            eta0=0.05, gamma=20000.0, mu=0.9, batch_size=16, averaging_start=200
        ),
        jackknife_folds=3,
    )
    annotated, _, _ = jackknife_tags(corpus, settings, seed=3)
    bounds = [round(i * 90 / 3) for i in range(4)]
    fold_accs = []
    for i in range(3):
        held = corpus[bounds[i] : bounds[i + 1]]
        ann = annotated[bounds[i] : bounds[i + 1]]
        ok = sum(
            t.pred_upos == g.gold_upos
            for hs, as_ in zip(held, ann)
            for g, t in zip(hs.tokens, as_.tokens)
        )
        fold_accs.append(ok / sum(len(x) for x in held))
    full = build_model(STACKPROP, corpus, settings.tagger_cfg, settings.parser_cfg, seed=7)
    data = encode_training_data(corpus, full)
    train_tagger_only(full, data, 51, settings.optimizer, np.random.default_rng(5))
    ok = tot = 0
    preds, _ = tag_sentences(dev, full.tagger, full.tvocabs, full.tags)
    for d, pred in zip(dev, preds):
        for g, p in zip(d.tokens, pred):
            tot += 1
            ok += g.gold_upos == p
    full_acc = ok / tot
    assert full_acc > 0.9  # both sides are real taggers, not degenerate ones
    assert all(abs(a - full_acc) < 0.05 for a in fold_accs)


def test_pipeline_parser_input_width():
    s = tiny_settings()
    model = build_model(PIPELINE, CORPUS, s.tagger_cfg, s.parser_cfg, seed=0)
    t = model.tags.n_classes
    expected = 20 * (t + s.parser_cfg.d_word) + 12 * s.parser_cfg.d_label
    assert model.parser.params["W1"].shape[0] == expected  # one W1 row per input unit
    assert "null_input" not in model.parser.params


def test_pipeline_single_tag_degenerates_to_word_features():
    sents = [
        make_sentence([0, 1], forms=["aa", "bb"], tags=["X", "X"]),
        make_sentence([0, 1], forms=["cc", "dd"], tags=["X", "X"]),
    ]
    settings = tiny_settings(parser_epochs=1, tagger_epochs=1)
    settings.jackknife_folds = 2
    model = pipeline_train(sents, None, settings)
    assert model.tags.n_classes == 1
    out = parse_sentence(sents[0], model)
    assert all(t.pred_head is not None for t in out.tokens)


def test_pipeline_decodes_with_its_own_tagger_not_jackknife():
    settings = tiny_settings(seed=2, parser_epochs=2, tagger_epochs=2)
    model = pipeline_train(CORPUS, None, settings)
    dev = generate_corpus(4, seed=32)[0]
    def first_logits():
        _, acts = tag_sentences([dev], model.tagger, model.tvocabs, model.tags)
        params = model.parser.inference_params()
        rows, labels = featurize([initial(dev)], [0])
        inputs = parser_input(token_tables(model, params, acts), rows, labels)
        return forward_batch(model.parser, inputs, params).logits[0]

    before = first_logits()
    # the decode-time distributions come from the model's tagger, not from any
    # cached jackknife output: corrupting the tagger must move the scores
    rng = np.random.default_rng(0)
    model.tagger.set_average("W1", rng.normal(size=model.tagger.params["W1"].shape))
    model.tagger.params["W1"][:] = model.tagger.average["W1"]
    assert not np.allclose(before, first_logits())


def test_joint_output_dimension_and_tags():
    s = tiny_settings(seed=1, parser_epochs=2, tagger_epochs=1)
    model = joint_train(CORPUS, None, s, with_stackprop=False)
    t, l = model.tags.n_classes, model.labels.n_classes
    assert model.actions.size == t + 2 * l
    out = parse_sentence(generate_corpus(3, seed=33)[0], model)
    assert all(t_.pred_upos is not None for t_ in out.tokens)


def test_joint_stackprop_uses_tag_supervision():
    lines_a, lines_b = [], []
    joint_train(CORPUS, None, tiny_settings(seed=3, parser_epochs=1, tagger_epochs=1),
                with_stackprop=False, log_fn=lines_a.append)
    joint_train(CORPUS, None, tiny_settings(seed=3, parser_epochs=1, tagger_epochs=1),
                with_stackprop=True, log_fn=lines_b.append)
    # without stackprop no tagger batches run, so tag_loss stays 0
    assert all("tag_loss=0.0000" in l for l in lines_a if "tag_loss" in l)
    assert any("tag_loss=0.0000" not in l for l in lines_b if "tag_loss" in l)


def test_trained_network_reads_its_averages_without_computing_them():
    """Training ends by dividing each running sum into its mean in place, so
    a trained network holds one copy of its averages and decoding reads them
    as stored, allocating nothing block-sized."""
    model = stackprop_train(CORPUS, None, tiny_settings(seed=8, parser_epochs=1, tagger_epochs=1))
    net = model.parser
    tracemalloc.start()
    try:
        params = net.inference_params()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < net.params["W1"].nbytes // 4, peak
    for k in net.block_names:
        assert net.avg_count[k] > 0
        assert np.array_equal(params[k], net.average[k]), k


def test_dev_evaluation_reads_the_averages_in_place(monkeypatch):
    """A dev evaluation first divides the running sums into their means in
    place, so decoding the dev set holds no second copy of the averages
    beside the sums."""
    peaks = []
    real_parse_corpus = trainer_mod.parse_corpus

    def measured(sentences, model, **kw):
        tracemalloc.start()
        try:
            for net in (model.tagger, model.parser):
                net.inference_params()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return real_parse_corpus(sentences, model, **kw)

    monkeypatch.setattr(trainer_mod, "parse_corpus", measured)
    s = tiny_settings(seed=8, parser_epochs=2, tagger_epochs=2)
    model = stackprop_train(CORPUS, generate_corpus(6, seed=34), s)
    assert len(peaks) >= 2
    assert max(peaks) < model.parser.params["W1"].nbytes // 4, peaks


def test_early_stopping_restores_best_snapshot():
    dev = generate_corpus(8, seed=34)
    s = tiny_settings(seed=7, parser_epochs=6, tagger_epochs=3)
    s.schedule.patience = 2
    lines = []
    model = stackprop_train(CORPUS, dev, s, log_fn=lines.append)
    assert any("dev_uas=" in l for l in lines)
    parsed, _ = parse_corpus(dev, model)
    from stackprop.evaluator import attachment_scores

    best_seen = max(
        float(tok.split("=")[1])
        for line in lines
        for tok in line.split()
        if tok.startswith("dev_uas=")
    )
    assert attachment_scores(dev, parsed).uas == pytest.approx(best_seen, abs=1e-9)


def test_train_variant_dispatch():
    with pytest.raises(StackpropError):
        train_variant("bogus", CORPUS, None, tiny_settings())
    for mode in (STACKPROP, WINDOW, JOINT, JOINT_STACKPROP, PIPELINE):
        m = train_variant(mode, CORPUS, None, tiny_settings(parser_epochs=1, tagger_epochs=1))
        assert m.mode == mode


def test_divergence_raises_at_first_nonfinite_loss():
    s = tiny_settings(eta0=1e6)
    with np.errstate(all="ignore"), pytest.raises(
        StackpropError, match=r"diverged: PARSER loss is nan at update \d+"
    ):
        train_variant(WINDOW, generate_corpus(8, seed=1), None, s)


def test_tagger_alone_divergence_raises():
    """Tagger-alone training (each jackknife fold, and a pipeline's own
    tagger) checks its losses as the interleaved loop does."""
    s = tiny_settings(eta0=1e6)
    s.jackknife_folds = 2
    with np.errstate(all="ignore"), pytest.raises(
        StackpropError, match=r"diverged: TAGGER loss is nan at update \d+"
    ):
        jackknife_tags(generate_corpus(30, seed=1), s)


def test_pipeline_reads_the_embeddings_file_once(tmp_path, monkeypatch, caplog):
    """One read of the word-vector file fills the model's word blocks and
    every jackknife fold tagger's."""
    corpus = generate_corpus(12, seed=4)
    forms = sorted({t.form.lower() for sent in corpus for t in sent.tokens})
    path = tmp_path / "vecs.txt"
    path.write_text("".join(f"{f} " + " ".join(["0.5"] * 8) + "\n" for f in forms))
    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        if str(file) == str(path):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    s = tiny_settings(parser_epochs=1, tagger_epochs=1)
    s.jackknife_folds = 2
    s.embeddings_path = str(path)
    with caplog.at_level(logging.INFO, logger="stackprop"):
        pipeline_train(corpus, None, s)
    fills = [r.getMessage() for r in caplog.records if "pretrained embeddings" in r.getMessage()]
    assert len(opened) == 1
    # E_words and E_pwords of the model, then E_words of each fold tagger
    assert [m.rsplit(" ", 1)[1] for m in fills] == ["E_words", "E_pwords", "E_words", "E_words"]
    assert all(f"initialized {len(forms)} of" in m for m in fills[:2])


def test_swap_training_on_nonprojective_corpus():
    corpus = generate_corpus(16, seed=12, p_nonproj=0.5)
    from stackprop.corpus import is_projective

    assert any(not is_projective(s) for s in corpus)
    s = tiny_settings(seed=0, parser_epochs=2, tagger_epochs=1)
    s.swap = True
    model = stackprop_train(corpus, None, s)
    assert model.system.swap
    out = parse_sentence(corpus[0], model)
    assert all(t.pred_head is not None for t in out.tokens)


def test_nonprojective_corpus_projectivized_without_swap():
    corpus = generate_corpus(16, seed=12, p_nonproj=0.5)
    model, data, _ = fresh(corpus=corpus)
    from stackprop.corpus import is_projective

    assert all(is_projective(s) for s in data.sentences)
    assert len(data.sentences) == len(corpus)  # projectivized, never dropped


def test_encoding_counts_and_training_logs_projectivized_sentences(caplog):
    """``projectivized`` counts the sentences the encoder lifted (none under
    SWAP, which keeps them), and training logs it beside the skipped count."""
    from stackprop.corpus import is_projective

    corpus = generate_corpus(30, seed=13, p_nonproj=0.3)
    n_lifted = sum(not is_projective(s) for s in corpus)
    assert 0 < n_lifted < len(corpus)
    assert fresh(corpus=corpus)[1].projectivized == n_lifted
    s = tiny_settings(seed=0, parser_epochs=1, tagger_epochs=1)
    swap_model = build_model(STACKPROP, corpus, s.tagger_cfg, s.parser_cfg, swap=True, seed=0)
    assert encode_training_data(corpus, swap_model).projectivized == 0
    assert fresh()[1].projectivized == 0  # CORPUS is projective

    caplog.set_level(logging.INFO, logger="stackprop")
    train_variant(STACKPROP, corpus, None, s)
    assert f"training sentences: {n_lifted} projectivized, 0 unrollable skipped" in caplog.text
    caplog.clear()
    train_variant(STACKPROP, CORPUS, None, s)
    assert "training sentences:" not in caplog.text
