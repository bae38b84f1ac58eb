import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import stackprop
from stackprop import nnkernel
from stackprop.errors import ModelError, StackpropError
from stackprop.nnkernel import (
    FeatureGroupSpec,
    Network,
    OptimizerConfig,
    asgd_step,
    backward_batch,
    backward_from_hidden,
    forward_batch,
    load_model,
    save_model,
    scatter_rows,
    softmax_xent_batch,
)


def small_net(seed=0, groups=None, n_hidden=3, n_out=4, **kw):
    groups = groups or [
        FeatureGroupSpec("ids", 2, 5, 3),
        FeatureGroupSpec("vecs", 2, 4, 3, dense=True),
    ]
    return Network(groups, n_hidden, n_out, np.random.default_rng(seed), **kw)


def test_group_spec_validation():
    with pytest.raises(StackpropError):
        FeatureGroupSpec("g", 0, 5, 3)
    with pytest.raises(StackpropError):
        FeatureGroupSpec("g", 1, 1, 3)
    with pytest.raises(StackpropError):
        FeatureGroupSpec("g", 1, 5, 0)
    with pytest.raises(StackpropError):
        FeatureGroupSpec("g", 1, 5, 3, dense=False, embedded=False)


def test_embed_forward_row_selection():
    g = FeatureGroupSpec("g", 1, 2, 2)
    net = Network([g], 2, 2, np.random.default_rng(0))
    net.params["E_g"] = np.array([[1.0, 2.0], [3.0, 4.0]])
    h0 = forward_batch(net, {"g": np.array([[0]])}).h0[0]
    assert np.allclose(h0, [1.0, 2.0])


def test_embed_forward_dense_matmul():
    g = FeatureGroupSpec("g", 1, 2, 2, dense=True)
    net = Network([g], 2, 2, np.random.default_rng(0))
    net.params["E_g"] = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = forward_batch(net, {"g": np.array([[[0.0, 1.0]]])}).h0[0]
    assert np.allclose(out, [3.0, 4.0])
    out = forward_batch(net, {"g": np.array([[[0.5, 0.5]]])}).h0[0]
    assert np.allclose(out, [2.0, 3.0])


def test_embed_forward_concatenates_in_declaration_order():
    g1 = FeatureGroupSpec("a", 2, 4, 3)
    g2 = FeatureGroupSpec("b", 3, 4, 2)
    net = Network([g1, g2], 2, 2, np.random.default_rng(0))
    h0 = forward_batch(net, {"b": np.array([[0, 1, 3]]), "a": np.array([[1, 2]])}).h0[0]
    assert h0.shape == (2 * 3 + 3 * 2,)
    assert np.allclose(h0[:3], net.params["E_a"][1])
    assert np.allclose(h0[6:8], net.params["E_b"][0])


def test_embed_forward_unembedded_dense_passthrough():
    g = FeatureGroupSpec("raw", 2, 3, 3, dense=True, embedded=False)
    net = Network([g], 2, 2, np.random.default_rng(0))
    rows = np.array([[0.1, 0.2, 0.7], [1.0, 0.0, 0.0]])
    h0 = forward_batch(net, {"raw": rows[None]}).h0[0]
    assert np.allclose(h0, rows.ravel())
    assert "E_raw" not in net.params


def test_missing_group_errors():
    net = small_net()
    with pytest.raises(StackpropError, match="ids"):
        forward_batch(net, {"vecs": np.zeros((1, 2, 4))})


def test_hidden_forward_zero_weights():
    net = small_net()
    net.params["W1"][:] = 0.0
    net.params["b1"][:] = 0.0
    h1 = forward_batch(net, _example(net, np.random.default_rng(0))).h1[0]
    assert np.allclose(h1, 0.0)


def test_hidden_forward_relu_clips():
    g = FeatureGroupSpec("g", 1, 2, 2)
    net = Network([g], 2, 2, np.random.default_rng(0))
    net.params["W1"][:] = 0.0
    net.params["b1"] = np.array([-1.0, 1.0])
    assert np.allclose(forward_batch(net, {"g": np.array([[0]])}).h1[0], [0.0, 1.0])


def test_hidden_forward_hand_computation():
    # an unembedded dense group feeds h0 straight to the hidden layer
    g = FeatureGroupSpec("g", 1, 3, 3, dense=True, embedded=False)
    net = Network([g], 2, 2, np.random.default_rng(0))
    net.params["W1"] = np.array([[1.0, -1.0], [2.0, 0.5], [0.0, 3.0]])
    net.params["b1"] = np.array([0.5, -0.25])
    h0 = np.array([1.0, 2.0, -1.0])
    # z = [1+4+0+0.5, -1+1-3-0.25] = [5.5, -3.25] -> relu
    assert np.allclose(forward_batch(net, {"g": h0[None, None]}).h1[0], [5.5, 0.0])


def test_softmax_uniform_when_logits_equal():
    net = small_net(n_out=4)
    net.params["W1"][:] = 0.0
    net.params["b1"][:] = 0.0
    cache = forward_batch(net, _example(net, np.random.default_rng(0)))
    probs, losses, _ = softmax_xent_batch(cache.logits, np.array([2]))
    # zero hidden activations make the logits equal to b2 = 0
    assert np.allclose(probs, 0.25)
    assert math.isclose(losses[0], math.log(4.0), rel_tol=1e-12)


def test_softmax_dominant_logit():
    logits = np.array([[50.0, 0.0, 0.0]])
    probs, losses, _ = softmax_xent_batch(logits, np.array([0]))
    assert probs[0, 0] > 0.999999
    assert losses[0] < 1e-6
    assert math.isclose(probs.sum(), 1.0, abs_tol=1e-6)


def test_softmax_stable_at_extreme_logits():
    logits = np.array([[-50.0, 50.0, 0.0]])
    probs, _, _ = softmax_xent_batch(logits, np.array([1]))
    assert np.all(probs >= 0.0)
    assert math.isclose(probs.sum(), 1.0, abs_tol=1e-6)


def test_softmax_gradient_finite_difference():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(1, 6))
    gold = np.array([3])
    _, _, dlogits = softmax_xent_batch(logits, gold)
    eps = 1e-5
    for k in range(6):
        up, down = logits.copy(), logits.copy()
        up[0, k] += eps
        down[0, k] -= eps
        fd = (
            softmax_xent_batch(up, gold)[1][0] - softmax_xent_batch(down, gold)[1][0]
        ) / (2 * eps)
        assert abs(fd - dlogits[0, k]) / max(abs(fd), 1e-8) < 1e-4


def _example(net, rng):
    """A batch of one random input for every group of ``net``."""
    inputs = {}
    for g in net.groups:
        if g.dense:
            inputs[g.name] = rng.normal(size=(1, g.num_templates, g.vocab_size))
        else:
            inputs[g.name] = rng.integers(0, g.vocab_size, size=(1, g.num_templates))
    return inputs


def _backprop(net, inputs, gold):
    """Loss, block gradients and dense input gradients for a batch of one."""
    cache = forward_batch(net, inputs)
    _, losses, dlogits = softmax_xent_batch(cache.logits, np.array([gold]))
    grads, dense = backward_batch(net, cache, dlogits)
    return float(losses[0]), grads, dense


def test_backprop_zero_upstream_gradient():
    net = small_net()
    rng = np.random.default_rng(2)
    cache = forward_batch(net, _example(net, rng))
    grads, dense = backward_from_hidden(net, cache, np.zeros_like(cache.h1))
    for v in grads.values():
        assert not v.any()
    for v in dense.values():
        assert not v.any()


def test_backprop_full_finite_difference():
    net = small_net(seed=4)
    rng = np.random.default_rng(5)
    # healthy parameter scale keeps true gradients well above FD noise
    for k in net.params:
        net.params[k] = rng.uniform(-0.7, 0.7, size=net.params[k].shape)
    inputs = _example(net, rng)
    gold = 1

    def loss():
        return _backprop(net, inputs, gold)[0]

    _, grads, _ = _backprop(net, inputs, gold)
    eps = 1e-5
    for name, p in net.params.items():
        flat = p.ravel()
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + eps
            lp = loss()
            flat[i] = old - eps
            lm = loss()
            flat[i] = old
            fd = (lp - lm) / (2 * eps)
            an = grads[name].ravel()[i]
            assert abs(fd - an) / max(abs(fd), abs(an), 1e-8) < 1e-4, name


def test_backprop_dense_input_finite_difference():
    net = small_net(seed=6)
    rng = np.random.default_rng(7)
    for k in net.params:
        net.params[k] = rng.uniform(-0.7, 0.7, size=net.params[k].shape)
    inputs = _example(net, rng)
    gold = 0
    _, _, dense = _backprop(net, inputs, gold)
    dvec = inputs["vecs"][0]
    eps = 1e-5
    for f in range(dvec.shape[0]):
        for v in range(dvec.shape[1]):
            old = dvec[f, v]
            dvec[f, v] = old + eps
            lp = _backprop(net, inputs, gold)[0]
            dvec[f, v] = old - eps
            lm = _backprop(net, inputs, gold)[0]
            dvec[f, v] = old
            fd = (lp - lm) / (2 * eps)
            an = dense["vecs"][0, f, v]
            assert abs(fd - an) / max(abs(fd), abs(an), 1e-8) < 1e-4


def zero_grads(net):
    return {k: np.zeros_like(v) for k, v in net.params.items()}


def test_asgd_plain_sgd_reduction():
    net = small_net(seed=8)
    cfg = OptimizerConfig(eta0=0.1, gamma=100.0, mu=0.0, batch_size=1)
    grads = {k: np.ones_like(v) for k, v in net.params.items()}
    before = {k: v.copy() for k, v in net.params.items()}
    asgd_step(net, grads, cfg)
    for k in net.params:
        assert np.allclose(net.params[k], before[k] - 0.1)


def test_asgd_zero_gradient_velocity_decays():
    net = small_net(seed=9)
    cfg = OptimizerConfig(eta0=0.1, gamma=1e9, mu=0.5, batch_size=1)
    grads = {k: np.ones_like(v) for k, v in net.params.items()}
    asgd_step(net, grads, cfg)
    z = zero_grads(net)
    last = net.params["W1"].copy()
    moves = []
    for _ in range(8):
        asgd_step(net, z, cfg)
        moves.append(np.abs(net.params["W1"] - last).max())
        last = net.params["W1"].copy()
    assert all(m2 < m1 for m1, m2 in zip(moves, moves[1:]))
    assert moves[-1] < 1e-3


def test_asgd_two_steps_hand_unrolled():
    net = small_net(seed=10)
    cfg = OptimizerConfig(eta0=0.2, gamma=4.0, mu=0.9, batch_size=1)
    w0 = net.params["W1"].copy()
    g1 = np.full_like(w0, 0.5)
    g2 = np.full_like(w0, -1.0)
    # asgd_step scales the gradients it is handed in place
    asgd_step(net, {**zero_grads(net), "W1": g1.copy()}, cfg, scope=["W1"])
    asgd_step(net, {**zero_grads(net), "W1": g2.copy()}, cfg, scope=["W1"])
    lr1 = 0.2 / (1 + 0 / 4.0)
    lr2 = 0.2 / (1 + 1 / 4.0)
    v1 = -lr1 * g1
    v2 = 0.9 * v1 - lr2 * g2
    assert np.allclose(net.params["W1"], w0 + v1 + v2)
    # running average over the two iterates
    assert np.allclose(net.average["W1"], ((w0 + v1) + (w0 + v1 + v2)) / 2)


def test_asgd_scope_isolation_bit_level():
    net = small_net(seed=11)
    cfg = OptimizerConfig(eta0=0.1, gamma=10.0, mu=0.9, batch_size=1)
    grads = {k: np.ones_like(v) for k, v in net.params.items()}
    outside = [b for b in net.block_names if b not in ("W1", "b1")]
    before = {
        k: (net.params[k].copy(), net.velocity[k].copy(), net.average[k].copy(), net.avg_count[k])
        for k in outside
    }
    for _ in range(5):
        asgd_step(net, grads, cfg, scope=["W1", "b1"])
    for k in outside:
        p, v, a, c = before[k]
        assert np.array_equal(net.params[k], p)
        assert np.array_equal(net.velocity[k], v)
        assert np.array_equal(net.average[k], a)
        assert net.avg_count[k] == c


def optimizer_state(net):
    return net.step, {
        k: (net.params[k].copy(), net.velocity[k].copy(), net.average[k].copy(), net.avg_count[k])
        for k in net.block_names
    }


def assert_same_state(net, state):
    step, blocks = state
    assert net.step == step
    for k, (p, v, a, c) in blocks.items():
        assert np.array_equal(net.params[k], p), k
        assert np.array_equal(net.velocity[k], v), k
        assert np.array_equal(net.average[k], a), k
        assert net.avg_count[k] == c, k


def test_asgd_missing_scope_gradient_errors():
    net = small_net(seed=12)
    cfg = OptimizerConfig()
    before = optimizer_state(net)
    with pytest.raises(StackpropError, match="W2"):
        asgd_step(net, {"W1": np.ones_like(net.params["W1"])}, cfg, scope=["W1", "W2"])
    assert_same_state(net, before)


def test_asgd_wrong_shape_gradient_errors_and_changes_nothing():
    net = small_net(seed=17)
    grads = {k: np.ones_like(v) for k, v in net.params.items()}
    # broadcastable into W1, but a row-constant update is not a W1 gradient
    grads["W1"] = np.ones(net.n_hidden)
    before = optimizer_state(net)
    with pytest.raises(StackpropError, match="W1"):
        asgd_step(net, grads, OptimizerConfig())
    assert_same_state(net, before)
    grads["W1"] = np.ones(net.params["W1"].shape, dtype=np.float32)
    with pytest.raises(StackpropError, match="W1"):
        asgd_step(net, grads, OptimizerConfig())
    assert_same_state(net, before)


@pytest.fixture
def split_workers(request, monkeypatch):
    """Makes the kernel split over ``request.param`` workers (the caller and
    a pool of helpers), whatever the machine's core count."""
    pool = ThreadPoolExecutor(request.param - 1) if request.param > 1 else None
    monkeypatch.setattr(nnkernel, "_POOL", pool)
    yield request.param
    if pool is not None:
        pool.shutdown()


def count_splits(monkeypatch) -> list[int]:
    """The piece count of every split run from now on: each ``_run`` call
    with two or more pieces (a whole product or update is one piece)."""
    counts = []
    run = nnkernel._run

    def counted(pieces):
        if len(pieces) > 1:
            counts.append(len(pieces))
        run(pieces)

    monkeypatch.setattr(nnkernel, "_run", counted)
    return counts


SWEEP_ROWS = [*range(1, 65), 100, 250, 640]


@pytest.mark.parametrize("split_workers", [1, 2, 4], indirect=True)
@pytest.mark.parametrize("product", ["forward", "weight_grad", "input_grad"])
def test_split_w1_products_equal_the_whole_products(product, split_workers, monkeypatch):
    """Each W1 product, run whole on 1 worker or split over 2 or 4, is
    bitwise ``a @ b`` at the parser's default W1 shape (1664x1024), for
    every row count from 1 up: the smallest counts are where a piece on
    OpenBLAS's small-matrix path would round differently."""
    rng = np.random.default_rng(5)
    w1 = rng.uniform(-0.01, 0.01, size=(1664, 1024))
    splits = count_splits(monkeypatch)
    split_rows = []
    for rows in SWEEP_ROWS:
        h0 = rng.normal(size=(rows, 1664))
        dz1 = rng.normal(size=(rows, 1024))
        a, b, axis = {
            "forward": (h0, w1, 1),
            "weight_grad": (h0.T, dz1, 0),
            "input_grad": (dz1, w1.T, 1),
        }[product]
        before = len(splits)
        assert np.array_equal(nnkernel._matmul(a, b, axis), a @ b), rows
        if len(splits) > before:
            split_rows.append(rows)
    if split_workers == 1:
        assert split_rows == []
        return
    # every row count from a handful up was split
    assert split_rows and split_rows[0] <= 5
    assert split_rows == [r for r in SWEEP_ROWS if r >= split_rows[0]]


@pytest.mark.parametrize("split_workers", [2, 3], indirect=True)
def test_asgd_step_split_equals_unsplit(split_workers, monkeypatch):
    """Steps with row slices of the large blocks on the pool leave the same
    parameters, velocities, averages and counts as steps with no pool."""
    groups = [FeatureGroupSpec("ids", 4, 5001, 64), FeatureGroupSpec("vecs", 2, 32, 64, dense=True)]
    cfg = OptimizerConfig(eta0=0.1, gamma=100.0, mu=0.9, averaging_start=1)

    def train():
        net = small_net(seed=21, groups=groups, n_hidden=1024)
        rng = np.random.default_rng(4)
        for _ in range(3):
            asgd_step(net, {k: rng.normal(size=v.shape) for k, v in net.params.items()}, cfg)
        asgd_step(net, {k: rng.normal(size=v.shape) for k, v in net.params.items()}, cfg,
                  scope=["E_ids", "b1"])
        return net

    splits = count_splits(monkeypatch)
    split = train()
    # W1 (384x1024) and E_ids (5001 rows, cut unequally) split on every step
    # that updates them
    assert len(splits) == 3 * 2 + 1 and min(splits) >= 2, splits
    monkeypatch.setattr(nnkernel, "_POOL", None)
    whole = train()
    assert len(splits) == 7
    assert_same_state(split, optimizer_state(whole))
    assert _dump(split) == _dump(whole)


@pytest.mark.parametrize("split_workers", [1, 2], ids=["whole", "split"], indirect=True)
def test_asgd_step_allocates_no_block_sized_temporaries(split_workers, monkeypatch):
    """Also with ``W1`` above the split floor and cut over two workers: the
    row slices and the pool's handoff make no block-sized copy either."""
    n_hidden = 512 if split_workers == 1 else 2048
    groups = [FeatureGroupSpec("ids", 4, 40, 16), FeatureGroupSpec("vecs", 4, 32, 16, dense=True)]
    net = small_net(seed=18, groups=groups, n_hidden=n_hidden)
    splits = count_splits(monkeypatch)
    rng = np.random.default_rng(3)
    cfg = OptimizerConfig(eta0=0.1, gamma=100.0, mu=0.9, averaging_start=0)

    def grads():
        return {k: rng.normal(size=v.shape) for k, v in net.params.items()}

    # warm-up: the first averaged step turns the stored averages into sums
    asgd_step(net, grads(), cfg)
    g = grads()
    tracemalloc.start()
    try:
        asgd_step(net, g, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    largest = max(v.nbytes for v in net.params.values())
    assert largest == 128 * n_hidden * 8
    assert peak < 0.01 * largest, peak
    assert len(splits) == 2 * (split_workers - 1), splits  # W1 in both steps


SCOPES = (None, ("W1", "b1"), ("E_ids", "W2", "b2"), ("E_vecs",))
READS = ("inference", "average", "save")


def _dump(net):
    buf = io.BytesIO()
    save_model(buf, {"net": net}, {})
    return buf.getvalue()


def _run_plan(plan, cfg, seed, reads):
    """Scoped steps with random gradients; after each step, optionally one
    read of the averages. Also returns a float64 reference: the incremental
    mean of each block's iterates and its count."""
    net = small_net(seed=19)
    rng = np.random.default_rng(seed)
    ref = {k: v.copy() for k, v in net.params.items()}
    ref_n = {k: 0 for k in net.block_names}
    scale = max(np.abs(v).max() for v in net.params.values())
    for scope, read in plan:
        grads = {k: rng.normal(size=v.shape) for k, v in net.params.items()}
        asgd_step(net, grads, cfg, scope=scope)
        for k in scope or net.block_names:
            scale = max(scale, np.abs(net.params[k]).max())
            if net.step > cfg.averaging_start:
                ref_n[k] += 1
                ref[k] += (net.params[k] - ref[k]) / ref_n[k]
        if reads and read == "inference":
            net.inference_params()
        elif reads and read == "average":
            net.average["W1"].sum()
        elif reads and read == "save":
            _dump(net)
    return net, ref, ref_n, scale


@settings(max_examples=40, deadline=None)
@given(
    plan=st.lists(st.tuples(st.sampled_from(SCOPES), st.sampled_from(READS)), min_size=1, max_size=12),
    averaging_start=st.integers(0, 5),
    mu=st.floats(0.0, 0.95),
    seed=st.integers(0, 2**16),
)
def test_averages_are_running_means_and_reads_change_nothing(plan, averaging_start, mu, seed):
    cfg = OptimizerConfig(eta0=0.1, gamma=10.0, mu=mu, batch_size=1, averaging_start=averaging_start)
    net, ref, ref_n, scale = _run_plan(plan, cfg, seed, reads=True)
    for k in net.block_names:
        assert net.avg_count[k] == ref_n[k], k
        # the sum and the incremental mean round differently: compare to
        # 1e-12 of the largest iterate, not of each (possibly cancelled) mean
        np.testing.assert_allclose(net.average[k], ref[k], rtol=1e-12, atol=1e-12 * scale)
        expected = net.average[k] if ref_n[k] else net.params[k]
        assert np.array_equal(net.inference_params()[k], expected), k
    quiet, *_ = _run_plan(plan, cfg, seed, reads=False)
    assert net.step == quiet.step
    for k in net.block_names:
        assert np.array_equal(net.params[k], quiet.params[k]), k
        assert np.array_equal(net.velocity[k], quiet.velocity[k]), k
    assert _dump(net) == _dump(quiet)


def test_settle_averages_keeps_values_and_training_resumes():
    net = small_net(seed=20)
    cfg = OptimizerConfig(eta0=0.1, gamma=10.0, mu=0.9, batch_size=1)
    rng = np.random.default_rng(4)
    for _ in range(5):
        asgd_step(net, {k: rng.normal(size=v.shape) for k, v in net.params.items()}, cfg)
    before = _dump(net)
    means = {k: net.average[k].copy() for k in net.block_names}
    net.settle_averages()
    assert _dump(net) == before
    last = {k: v.copy() for k, v in net.params.items()}
    asgd_step(net, {k: rng.normal(size=v.shape) for k, v in net.params.items()}, cfg)
    for k in net.block_names:
        assert np.allclose(net.average[k], (5 * means[k] + net.params[k]) / 6, rtol=1e-12)
        assert not np.array_equal(net.params[k], last[k])


def test_average_is_read_only_and_set_average_writes_it():
    net = small_net(seed=21)
    with pytest.raises(ValueError):
        net.average["W1"][:] = 1.0
    assert net.avg_count["b1"] == 0
    net.set_average("b1", 0.5)
    assert np.array_equal(net.average["b1"], np.full(net.n_hidden, 0.5))
    assert net.avg_count["b1"] == 1
    assert np.array_equal(net.inference_params()["b1"], net.average["b1"])
    with pytest.raises(StackpropError):
        net.set_average("nope", 0.0)


@st.composite
def scatters(draw):
    """(ids, rows, n): Zipf-skewed ids in [0, n), id 0 the most repeated,
    and (N, D) rows of either sign spanning 1e-8 to 1e8 in magnitude, some
    of them zeros of either sign."""
    n = draw(st.integers(1, 8000))
    d = draw(st.integers(1, 130))
    count = draw(st.integers(0, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = (rng.zipf(draw(st.floats(1.1, 3.0)), size=count) - 1) % n
    magnitudes = 10.0 ** rng.uniform(-8, 8, size=(count, d))
    magnitudes[rng.random((count, d)) < draw(st.floats(0.0, 0.5))] = 0.0
    return ids, rng.choice([-1.0, 1.0], size=(count, d)) * magnitudes, n


def assert_scatter_matches_add_at(ids, rows, n):
    expected = np.zeros((n, rows.shape[1]))
    np.add.at(expected, ids, rows)
    got = scatter_rows(ids, rows, n)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "ids, n",
    [
        ([3, 1, 3, 0, 3, 1], 5),  # duplicates, interleaved
        ([0, 0, 2, 0], 3),  # the null row, repeated
        ([2], 4),  # a single id
        (list(np.random.default_rng(5).integers(0, 50, size=400)), 60),
    ],
)
def test_scatter_rows_is_bit_identical_to_add_at(ids, n):
    ids = np.array(ids, dtype=np.int64)
    rows = np.random.default_rng(len(ids)).normal(size=(len(ids), 7))
    assert_scatter_matches_add_at(ids, rows, n)


@settings(deadline=None)
@given(case=scatters())
@example(case=(np.zeros(0, dtype=np.int64), np.zeros((0, 7)), 3))  # no rows
def test_scatter_rows_is_bit_identical_to_add_at_on_drawn_cases(case):
    assert_scatter_matches_add_at(*case)


def test_dense_embedding_gradient_matches_einsum():
    net = small_net(seed=22)
    rng = np.random.default_rng(6)
    inputs = {
        "ids": rng.integers(0, 5, size=(9, 2)),
        "vecs": rng.normal(size=(9, 2, 4)),
    }
    cache = forward_batch(net, inputs)
    dlogits = rng.normal(size=cache.logits.shape)
    grads, _ = backward_batch(net, cache, dlogits)
    dz1 = (dlogits @ net.params["W2"].T) * (cache.z1 > 0)
    seg = (dz1 @ net.params["W1"].T)[:, 6:].reshape(9, 2, 3)
    assert np.allclose(grads["E_vecs"], np.einsum("bfv,bfd->vd", inputs["vecs"], seg))


def test_averaging_start_skips_early_steps():
    net = small_net(seed=13)
    cfg = OptimizerConfig(eta0=0.1, gamma=1e9, mu=0.0, batch_size=1, averaging_start=2)
    grads = {k: np.ones_like(v) for k, v in net.params.items()}
    asgd_step(net, grads, cfg)
    asgd_step(net, grads, cfg)
    assert net.avg_count["W1"] == 0
    asgd_step(net, grads, cfg)
    assert net.avg_count["W1"] == 1
    assert np.allclose(net.average["W1"], net.params["W1"])


def test_inference_params_averaged_switch():
    """Inference reads a block's raw parameters until it has an average,
    then the average."""
    net = small_net(seed=14)
    cfg = OptimizerConfig(eta0=0.1, gamma=1e9, mu=0.0, batch_size=1)
    rng = np.random.default_rng(0)
    inputs = _example(net, rng)
    assert all(v is net.params[k] for k, v in net.inference_params().items())
    for _ in range(3):
        grads = {k: rng.normal(size=v.shape) for k, v in net.params.items()}
        asgd_step(net, grads, cfg)
    raw = forward_batch(net, inputs, net.params).logits
    avg = forward_batch(net, inputs, net.inference_params()).logits
    assert not np.allclose(raw, avg)
    assert np.array_equal(avg, forward_batch(net, inputs, dict(net.average)).logits)


def test_save_load_roundtrip_fresh_and_trained():
    net = small_net(seed=15)
    cfg = OptimizerConfig(eta0=0.05, gamma=100.0, mu=0.9, batch_size=1)
    rng = np.random.default_rng(1)

    def dump():
        buf = io.BytesIO()
        save_model(buf, {"net": net}, {"note": "x"})
        return buf.getvalue()

    fresh = dump()
    loaded, meta = load_model(io.BytesIO(fresh))
    assert meta == {"note": "x"}
    for k in net.params:
        assert np.array_equal(loaded["net"].params[k], net.params[k])
    for _ in range(100):
        grads = {k: rng.normal(size=v.shape) for k, v in net.params.items()}
        asgd_step(net, grads, cfg)
    trained = dump()
    loaded, _ = load_model(io.BytesIO(trained))
    again = io.BytesIO()
    save_model(again, {"net": loaded["net"]}, {"note": "x"})
    assert again.getvalue() == trained
    assert loaded["net"].step == 100


def test_load_rejects_corruption():
    net = small_net(seed=16)
    buf = io.BytesIO()
    save_model(buf, {"net": net}, {})
    raw = buf.getvalue()
    with pytest.raises(ModelError):
        load_model(io.BytesIO(raw[: len(raw) // 2]))
    with pytest.raises(ModelError):
        load_model(io.BytesIO(b"XXXX" + raw[4:]))
    flipped = bytearray(raw)
    flipped[60] ^= 0xFF
    with pytest.raises(ModelError):
        load_model(io.BytesIO(bytes(flipped)))
    with pytest.raises(ModelError):
        load_model(io.BytesIO(raw[:10]))


def test_a_block_with_no_dimension_is_rejected():
    with pytest.raises(StackpropError, match="dimension"):
        small_net(extra_blocks={"s": ()})


def test_load_rejects_a_block_with_no_dimension():
    """A header shape [] in place of [1] keeps the block's byte count, so
    only the shape check stands between it and a 0-d block."""
    from test_model import rechecksum, split_container

    buf = io.BytesIO()
    save_model(buf, {"net": small_net(seed=17, extra_blocks={"s": (1,)})}, {})
    header, blocks = split_container(buf.getvalue())
    (entry,) = [b for b in header["networks"][0]["blocks"] if b["name"] == "s"]
    entry["shape"] = []
    with pytest.raises(ModelError, match="dimension"):
        load_model(io.BytesIO(rechecksum(header, blocks)))


CORE_COUNT_RUN = r"""
import hashlib, io, json, os, sys

cpus = json.loads(sys.argv[1])
if cpus:
    os.sched_setaffinity(0, cpus)  # before the kernel sizes its pool
from stackprop import corpus, model, nnkernel, parser, synthetic, trainer

splits = []
run = nnkernel._run
nnkernel._run = lambda pieces: (len(pieces) > 1 and splits.append(len(pieces)), run(pieces))


def digest(data):
    return hashlib.sha256(data).hexdigest()


settings = trainer.TrainSettings(
    schedule=trainer.TrainingSchedule(parser_epochs=1, tagger_epochs=1, seed=7)
)
m = trainer.train_variant("stackprop", synthetic.generate_corpus(40, seed=3), None, settings)
buf = io.BytesIO()
model.save(m, buf)
test = synthetic.generate_corpus(70, seed=5)
out = {"workers": nnkernel.kernel_workers(), "model": digest(buf.getvalue())}
sys.setswitchinterval(1e-5)  # hand the interpreter between decode threads often
for threads in (1, 3):
    parsed, _ = parser.parse_corpus(test, m, threads=threads)
    out[f"threads{threads}"] = digest(corpus.emit_conllu(parsed, use_predicted=True).encode())
out["splits"] = len(splits)
print(json.dumps(out))
"""


@pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2,
    reason="a single usable CPU: there is no second core count to compare with",
)
def test_outputs_do_not_depend_on_the_core_count():
    """Default-dims training and decoding, where the kernel splits, give the
    same model bytes and CoNLL-U in a process pinned to one CPU as in one
    with every usable CPU, with or without an OpenBLAS thread count in the
    environment; decoding over 3 threads, each splitting on the shared
    pool, gives the threads=1 output and does not hang."""
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(stackprop.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    )

    def run(cpus, **blas_env):
        done = subprocess.run(
            [sys.executable, "-c", CORE_COUNT_RUN, json.dumps(cpus)],
            env={**env, **blas_env}, capture_output=True, text=True, timeout=600,
        )
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout)

    usable = sorted(os.sched_getaffinity(0))
    one, every = run(usable[:1]), run([])
    blas_threads = run([], OPENBLAS_NUM_THREADS="2")
    assert one["workers"] == 1 and one["splits"] == 0
    for all_cores in (every, blas_threads):
        assert all_cores["workers"] == len(usable) and all_cores["splits"] > 0
        for key in ("model", "threads1", "threads3"):
            assert one[key] == all_cores[key], key
    assert every["threads3"] == every["threads1"]
