import hashlib
import io
import json
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stackprop.corpus import build_vocabs
from stackprop.errors import ModelError
from stackprop.model import (
    MODES,
    VARIANTS,
    ParserNetworkConfig,
    build_model,
    load,
    parameter_count,
    save,
)
from stackprop.nnkernel import MAGIC, OptimizerConfig, block_shapes
from stackprop.synthetic import generate_corpus
from stackprop.tagger import TaggerConfig, build_tagger_vocabs
from stackprop.trainer import encode_training_data, parser_batch_update

from conftest import tiny_settings

CORPUS = generate_corpus(12, seed=61)
TINY = tiny_settings()


def test_modes_are_the_variant_table():
    assert MODES == ("stackprop", "pipeline", "joint", "joint_stackprop", "window")
    assert MODES == tuple(VARIANTS)


@pytest.mark.parametrize("swap", [False, True])
@pytest.mark.parametrize("mode", MODES)
def test_parameter_count_matches_built_model(mode, swap):
    m = build_model(mode, CORPUS, TINY.tagger_cfg, TINY.parser_cfg, swap=swap)
    forms, tags, labels = build_vocabs(CORPUS)
    tv = build_tagger_vocabs(CORPUS, forms)
    expected = parameter_count(mode, TINY.tagger_cfg, TINY.parser_cfg, forms, tags, labels, tv, swap)
    assert m.count_parameters() == expected
    for net in (m.tagger, m.parser):
        extra = {b: net.params[b].shape for b in net.block_names if b == "null_input"}
        shapes = block_shapes(net.groups, net.n_hidden, net.n_out, extra)
        assert list(shapes) == net.block_names
        assert all(net.params[b].shape == s for b, s in shapes.items())


@pytest.fixture(scope="module")
def saved():
    buf = io.BytesIO()
    save(build_model("stackprop", CORPUS, TINY.tagger_cfg, TINY.parser_cfg), buf)
    return buf.getvalue()


def split_container(raw):
    (n,) = struct.unpack("<Q", raw[8:16])
    return json.loads(raw[16 : 16 + n]), raw[16 + n : -32]


def rechecksum(header, blocks):
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    payload = MAGIC + struct.pack("<I", 1) + struct.pack("<Q", len(head)) + head + blocks
    return payload + hashlib.sha256(payload).digest()


def test_rechecksum_roundtrip(saved):
    assert rechecksum(*split_container(saved)) == saved
    load(io.BytesIO(saved))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_truncated_or_bit_flipped_model_raises_model_error(saved, data):
    if data.draw(st.booleans()):
        corrupt = saved[: data.draw(st.integers(0, len(saved) - 1))]
    else:
        bit = data.draw(st.integers(0, 8 * len(saved) - 1))
        flipped = bytearray(saved)
        flipped[bit // 8] ^= 1 << (bit % 8)
        corrupt = bytes(flipped)
    with pytest.raises(ModelError):
        load(io.BytesIO(corrupt))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_header_missing_group_field_raises_model_error(saved, data):
    header, blocks = split_container(saved)
    net = data.draw(st.sampled_from(header["networks"]))
    group = data.draw(st.sampled_from(net["groups"]))
    del group[data.draw(st.sampled_from(sorted(group)))]
    with pytest.raises(ModelError):
        load(io.BytesIO(rechecksum(header, blocks)))


DROP = object()


def _edit(*path, value=DROP):
    """A header edit: set the entry at ``path`` to ``value``, or drop it."""

    def edit(header):
        *parents, last = path
        for key in parents:
            header = header[key]
        if value is DROP:
            del header[last]
        else:
            header[last] = value

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _edit("networks", 0, "groups", 0, "colour", value="red"),
        _edit("networks", 0, "groups", 0, "num_templates", value="seven"),
        _edit("networks", 0, "groups", 0, "embed_dim", value=0),
        _edit("networks", 1, "groups", 0, "embed_dim", value=9),
        _edit("networks", 1, "n_hidden", value="24"),
        _edit("networks", 0, "blocks", 0, "shape", value=[3, "x"]),
        _edit("networks", 1, "name", value="other"),
        _edit("networks", 0, value=[]),
        _edit("networks", 0, "step"),
        _edit("meta", "mode", value="bogus"),
        _edit("meta", "mode", value=["stackprop"]),
        _edit("meta", "tagger_cfg", "colour", value=1),
        _edit("meta", "parser_cfg"),
        _edit("meta", "tagger_cfg", "hidden"),
        _edit("meta", "parser_cfg", "hidden", value=0),
        _edit("meta", "vocabs", "prefix3"),
        _edit("meta", value=7),
        _edit("meta", "vocabs", "labels", -1),
        _edit("meta", "vocabs", "tags", -1),
        _edit("meta", "vocabs", "forms", -1),
        _edit("meta", "tagger_cfg", "hidden", value=TINY.tagger_cfg.hidden + 1),
        _edit("meta", "root_label", value=999),
    ],
    ids=[
        "extra-group-key", "group-field-type", "bad-group-value", "group-vs-block-shape",
        "hidden-type", "shape-type", "missing-network", "network-not-object",
        "missing-step", "unknown-mode", "mode-type", "extra-config-key",
        "missing-config", "missing-config-field", "config-value-below-one", "missing-vocab",
        "meta-not-object", "label-dropped", "tag-dropped", "form-dropped",
        "tagger-hidden-vs-networks", "root-label-out-of-range",
    ],
)
def test_malformed_header_raises_model_error(saved, edit):
    header, blocks = split_container(saved)
    edit(header)
    with pytest.raises(ModelError):
        load(io.BytesIO(rechecksum(header, blocks)))


def test_trailing_bytes_raise_model_error(saved):
    header, blocks = split_container(saved)
    with pytest.raises(ModelError):
        load(io.BytesIO(rechecksum(header, blocks + b"\0" * 8)))


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_save_and_load_make_no_whole_file_copies(tmp_path):
    """Saving streams each block into the checksum and the destination, and
    loading copies each block once out of the file's bytes: the save peak
    (a BytesIO destination included) stays within 1.3x of the file and the
    load peak within 2.2x. Averages held as running sums are saved as the
    same bytes as their settled means."""
    m = build_model(
        "stackprop", CORPUS, TaggerConfig(hidden=64), ParserNetworkConfig(hidden=256), seed=0
    )
    data = encode_training_data(CORPUS, m)
    parser_batch_update(m, data, np.arange(16), OptimizerConfig(averaging_start=0))
    assert m.parser._summed  # the averages are running sums
    path = str(tmp_path / "model.bin")
    save_peak = _traced_peak(lambda: save(m, path))
    size = os.path.getsize(path)
    assert size > 4_000_000
    buf = io.BytesIO()
    buffer_peak = _traced_peak(lambda: save(m, buf))
    load_peak = _traced_peak(lambda: load(path))
    assert save_peak <= 0.3 * size
    assert buffer_peak <= 1.3 * size
    assert load_peak <= 2.2 * size
    m.parser.settle_averages()
    settled = io.BytesIO()
    save(m, settled)
    with open(path, "rb") as f:
        assert f.read() == buf.getvalue() == settled.getvalue()
