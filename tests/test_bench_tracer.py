"""The benchmark's span tracer must keep resolving against the library.

``perfbench/spans.py`` wraps library functions by name; a renamed or deleted
function, or a hot path that stops calling one, should fail here rather than
only in a traced benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from stackprop import parser as parser_mod, trainer as trainer_mod
from stackprop.model import STACKPROP, build_model
from stackprop.synthetic import generate_corpus

from conftest import tiny_settings

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stackprop_bindings():
    """Every module-level name in a loaded stackprop module, by (module, name)."""
    return {
        (mod_name, key): value
        for mod_name, mod in list(sys.modules.items())
        if mod_name == "stackprop" or mod_name.startswith("stackprop.")
        for key, value in vars(mod).items()
    }


def test_tracer_wraps_every_target_and_restores():
    spans = load_spans()
    for mod_name, _, _ in spans.TARGETS:
        importlib.import_module(mod_name)
    before = stackprop_bindings()
    methods = [(cls, attr, cls.__dict__[attr]) for cls, attr, _ in spans.METHOD_TARGETS]

    tracer = spans.Tracer()
    tracer.install()
    try:
        for mod_name, attr, _ in spans.TARGETS:
            traced = getattr(importlib.import_module(mod_name), attr)
            assert traced.__wrapped__ is before[(mod_name, attr)], f"{mod_name}.{attr}"
        for cls, attr, original in methods:
            assert cls.__dict__[attr].__wrapped__ is original
    finally:
        tracer.restore()

    after = stackprop_bindings()
    assert all(after[key] is value for key, value in before.items())
    for cls, attr, original in methods:
        assert cls.__dict__[attr] is original


def test_tracer_reaches_every_transition_and_feature_span(monkeypatch):
    """Traced encoding and decoding reach the feature, apply, unroll and
    oracle spans the per-layer split is built from, once per configuration
    featurized or action applied, and the tagger encoder once per encode
    call and once per lockstep group."""
    spans = load_spans()
    corpus = generate_corpus(6, seed=3, p_nonproj=0.3)
    s = tiny_settings()
    m = build_model(STACKPROP, corpus, s.tagger_cfg, s.parser_cfg)
    monkeypatch.setattr(parser_mod, "LOCKSTEP_SENTENCES", 4)  # two groups: 4 + 2
    tracer = spans.Tracer()
    with tracer:
        with tracer.phase("run"):
            data = trainer_mod.encode_training_data(corpus, m)
            _, stats = parser_mod.parse_corpus(corpus, m)
    counts = {}
    for rec in tracer.spans:
        counts[rec[spans.NAME]] = counts.get(rec[spans.NAME], 0) + 1
    steps = data.n_parse_examples
    assert counts["transition.unroll"] == len(corpus)
    assert counts["transition.oracle"] == steps
    assert counts["transition.apply"] == steps + stats.parser_evals
    # feature_tokens and label_features per configuration, one gather per forward
    assert counts["parser.feature"] == 2 * (steps + stats.parser_evals) + stats.parser_batches
    assert counts["tagger.encode_sentence"] == 1 + 2
    assert counts["tagger.tag_sentence"] == len(corpus)
    metrics = spans.layer_metrics(tracer.spans)
    for name in ("parser.feature_s", "transition.apply_s", "transition.unroll_s",
                 "trainer.encode_s", "tagger.encode_sentence_s", "tagger.tag_sentence_s"):
        assert metrics[name] > 0, name
    assert metrics["transition.oracle_calls"] == steps
