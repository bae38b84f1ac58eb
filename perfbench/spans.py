"""Span tracing for the per-layer split, installed from outside the library.

The tracer wraps public functions of the stackprop modules by rebinding every
module-level name that refers to them (``stackprop.trainer.forward_batch``,
``stackprop.parser.forward_batch``, ...) and the ``ActionSpace.legal_mask``
method, and restores the original names when it is closed. Nothing under
``src/`` changes. Spans are kept in memory and written out after the run.

A span's layer is the part of its name before the first dot. Spans named
``bench.*`` are the benchmark's own phases; their self time is the
unattributed remainder.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import sys
import time
from typing import Callable

import numpy as np

from stackprop.transition import ActionSpace

LAYERS = ("corpus", "transition", "nnkernel", "tagger", "parser", "trainer", "evaluator", "model")


def _static(name: str) -> Callable:
    return lambda args, kwargs: (name, None)


def _forward_name(args, kwargs):
    net, inputs = args[0], args[1]
    which = "parser" if any(g.name == "labels" for g in net.groups) else "tagger"
    rows = next(iter(inputs.values())).shape[0]
    return f"nnkernel.forward.{which}", rows


def _asgd_name(args, kwargs):
    net = args[0]
    scope = args[3] if len(args) > 3 else kwargs.get("scope")
    blocks = net.block_names if scope is None else scope
    # gradient read, velocity, parameter and running average: four arrays
    # of each block's size pass through one step (computed, not measured)
    return "nnkernel.asgd", 4 * sum(net.params[b].nbytes for b in blocks)


def _examples_name(name: str) -> Callable:
    return lambda args, kwargs: (name, len(args[2]))


def _parse_sentence_name(args, kwargs):
    return "parser.parse_sentence", len(args[0])


# (defining module, attribute, span namer); each namer returns (name, extra)
TARGETS = (
    ("stackprop.trainer", "train_variant", _static("trainer.train_variant")),
    ("stackprop.trainer", "run_interleaved", _static("trainer.run_interleaved")),
    ("stackprop.trainer", "encode_training_data", _static("trainer.encode")),
    ("stackprop.trainer", "parser_batch_update", _examples_name("trainer.parser_update")),
    ("stackprop.trainer", "tagger_batch_update", _examples_name("trainer.tagger_update")),
    ("stackprop.nnkernel", "forward_batch", _forward_name),
    ("stackprop.nnkernel", "backward_batch", _static("nnkernel.backward")),
    ("stackprop.nnkernel", "backward_from_hidden", _static("nnkernel.backward")),
    ("stackprop.nnkernel", "asgd_step", _asgd_name),
    ("stackprop.nnkernel", "softmax_xent_batch", _static("nnkernel.softmax_xent")),
    ("stackprop.nnkernel", "softmax_batch", _static("nnkernel.softmax")),
    ("stackprop.tagger", "tag_sentence", _static("tagger.tag_sentence")),
    ("stackprop.tagger", "encode_sentence", _static("tagger.encode_sentence")),
    ("stackprop.parser", "feature_tokens", _static("parser.feature")),
    ("stackprop.parser", "label_features", _static("parser.feature")),
    ("stackprop.parser", "gather_activation_rows", _static("parser.feature")),
    ("stackprop.parser", "parse_sentence", _parse_sentence_name),
    ("stackprop.parser", "parse_corpus", _static("parser.parse_corpus")),
    ("stackprop.transition", "apply", _static("transition.apply")),
    ("stackprop.transition", "unroll", _static("transition.unroll")),
    ("stackprop.transition", "oracle", _static("transition.oracle")),
    ("stackprop.corpus", "parse_conllu", _static("corpus.parse_conllu")),
    ("stackprop.corpus", "emit_conllu", _static("corpus.emit_conllu")),
    ("stackprop.corpus", "projectivize", _static("corpus.projectivize")),
    ("stackprop.corpus", "is_projective", _static("corpus.projectivize")),
    ("stackprop.model", "build_model", _static("model.build")),
    ("stackprop.model", "save", _static("model.save")),
    ("stackprop.model", "load", _static("model.load")),
    ("stackprop.evaluator", "attachment_scores", _static("evaluator.attachment_scores")),
)
METHOD_TARGETS = ((ActionSpace, "legal_mask", _static("transition.legal_mask")),)

# span record fields
NAME, START, END, PARENT, OP, EXTRA = range(6)


class Tracer:
    """Records nested spans (name, start, end, parent, operation id, extra)
    around the wrapped library functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._open = [-1]
        self._next_op = 0
        self._patches: list[tuple[object, str, object]] = []

    def _begin(self, name: str, extra) -> list:
        parent = self._open[-1]
        if parent < 0 or self.spans[parent][PARENT] < 0:
            # children of the root span start a new operation
            self._next_op += 1
            op = self._next_op
        else:
            op = self.spans[parent][OP]
        rec = [name, 0.0, 0.0, parent, op, extra]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _end(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def phase(self, name: str):
        """A benchmark phase span named ``bench.<name>``."""
        rec = self._begin(f"bench.{name}", None)
        try:
            yield
        finally:
            self._end(rec)

    def _wrap(self, fn: Callable, namer: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            name, extra = namer(args, kwargs)
            rec = tracer._begin(name, extra)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._end(rec)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self) -> None:
        modules = [
            m for k, m in list(sys.modules.items())
            if k == "stackprop" or k.startswith("stackprop.")
        ]
        for mod_name, attr, namer in TARGETS:
            original = getattr(importlib.import_module(mod_name), attr)
            wrapper = self._wrap(original, namer)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, value))
                        setattr(mod, key, wrapper)
        for cls, attr, namer in METHOD_TARGETS:
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, namer))

    def restore(self) -> None:
        while self._patches:
            owner, key, value = self._patches.pop()
            setattr(owner, key, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def write(self, path) -> None:
        """Write the spans as gzipped TSV: id, parent, op, name, start, end
        (seconds from the first span), extra."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as f:
            f.write("id\tparent\top\tname\tstart_s\tend_s\textra\n")
            for i, s in enumerate(self.spans):
                extra = "" if s[EXTRA] is None else s[EXTRA]
                f.write(
                    f"{i}\t{s[PARENT]}\t{s[OP]}\t{s[NAME]}\t"
                    f"{s[START] - t0:.9f}\t{s[END] - t0:.9f}\t{extra}\n"
                )


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer figures from one traced region whose root is the first span."""
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    covered = [0.0] * n
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            covered[s[PARENT]] += dur[i]
    own = [dur[i] - covered[i] for i in range(n)]

    total: dict[str, float] = {}
    count: dict[str, int] = {}
    self_by_name: dict[str, float] = {}
    extra: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    self_by_layer = {layer: 0.0 for layer in LAYERS}
    unattributed = 0.0
    for i, s in enumerate(spans):
        name = s[NAME]
        if s[PARENT] < 0 or spans[s[PARENT]][NAME] != name:
            # a call nested in a span of the same name is already inside it
            total[name] = total.get(name, 0.0) + dur[i]
        count[name] = count.get(name, 0) + 1
        self_by_name[name] = self_by_name.get(name, 0.0) + own[i]
        if s[EXTRA] is not None:
            extra[name] = extra.get(name, 0.0) + s[EXTRA]
        durations.setdefault(name, []).append(dur[i])
        layer = name.split(".", 1)[0]
        if layer == "bench":
            unattributed += own[i]
        else:
            self_by_layer[layer] += own[i]

    # decode steps: applies made directly by parse_sentence
    steps = sum(
        1
        for s in spans
        if s[NAME] == "transition.apply" and s[PARENT] >= 0
        and spans[s[PARENT]][NAME] == "parser.parse_sentence"
    )
    parsed_tokens = extra.get("parser.parse_sentence", 0.0)

    def t(name):
        return total.get(name, 0.0)

    def c(name):
        return count.get(name, 0)

    def rate(name):
        return extra.get(name, 0.0) / t(name) if t(name) > 0 else 0.0

    parser_updates = durations.get("trainer.parser_update", [])
    tagger_updates = durations.get("trainer.tagger_update", [])
    fwd_calls = c("nnkernel.forward.parser")
    out = {
        "trainer.encode_s": t("trainer.encode"),
        "trainer.parser_update_ms.p50": 1000 * _pct(parser_updates, 50),
        "trainer.parser_update_ms.p90": 1000 * _pct(parser_updates, 90),
        "trainer.parser_updates": float(len(parser_updates)),
        "trainer.tagger_update_ms.p50": 1000 * _pct(tagger_updates, 50),
        "trainer.tagger_updates": float(len(tagger_updates)),
        "trainer.parser_update_self_s": self_by_name.get("trainer.parser_update", 0.0),
        "trainer.parse_examples_per_s": rate("trainer.parser_update"),
        "trainer.tag_examples_per_s": rate("trainer.tagger_update"),
        "nnkernel.forward_s.parser": t("nnkernel.forward.parser"),
        "nnkernel.forward_calls.parser": float(fwd_calls),
        "nnkernel.forward_rows_per_call.parser": (
            extra.get("nnkernel.forward.parser", 0.0) / fwd_calls if fwd_calls else 0.0
        ),
        "nnkernel.forward_s.tagger": t("nnkernel.forward.tagger"),
        "nnkernel.backward_s": t("nnkernel.backward"),
        "nnkernel.asgd_s": t("nnkernel.asgd"),
        "nnkernel.asgd_calls": float(c("nnkernel.asgd")),
        "nnkernel.asgd_bytes": extra.get("nnkernel.asgd", 0.0),
        "nnkernel.softmax_xent_s": t("nnkernel.softmax_xent"),
        "tagger.tag_sentence_s": t("tagger.tag_sentence"),
        "tagger.encode_sentence_s": t("tagger.encode_sentence"),
        "parser.feature_s": t("parser.feature"),
        "parser.feature_calls": float(c("parser.feature")),
        "parser.parse_sentence_self_s": self_by_name.get("parser.parse_sentence", 0.0),
        "parser.steps_per_token": steps / parsed_tokens if parsed_tokens else 0.0,
        "transition.apply_s": t("transition.apply"),
        "transition.apply_calls": float(c("transition.apply")),
        "transition.legal_mask_s": t("transition.legal_mask"),
        "transition.unroll_s": t("transition.unroll"),
        "transition.oracle_calls": float(c("transition.oracle")),
        "corpus.parse_conllu_s": t("corpus.parse_conllu"),
        "corpus.emit_conllu_s": t("corpus.emit_conllu"),
        "corpus.projectivize_s": t("corpus.projectivize"),
        "model.save_s": t("model.save"),
        "model.load_s": t("model.load"),
        "evaluator.attachment_scores_s": t("evaluator.attachment_scores"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_by_layer[layer]
    out["bench.unattributed_s"] = unattributed
    return out
