"""The benchmark workloads: seeded inputs, set-up, one unit of measured work,
and the checks on every output.

A workload has an optional ``fixture`` (a model trained from a fixed seed
during set-up, so that seed-to-seed differences measure the code under test
rather than training luck), a ``prepare`` step that builds the seeded inputs,
and a ``unit`` of measured work. Every library call goes through the module
attributes of ``stackprop`` (``parser.parse_corpus``, ``trainer.train_variant``,
...), so the tracer in ``spans.py`` sees it.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import math
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from stackprop import corpus, evaluator, model as model_mod, parser, synthetic, trainer
from stackprop.corpus import Sentence
from stackprop.errors import StackpropError
from stackprop.model import STACKPROP, ParserNetworkConfig, StackedModel
from stackprop.nnkernel import OptimizerConfig
from stackprop.tagger import TaggerConfig
from stackprop.trainer import TrainSettings, TrainingSchedule

# seed of every fixture and of the train-bigvocab training run
FIXED_SEED = 1603
# smallest chunk of sentences timed on its own
CHUNK_TOKENS = 100

# self-test dimensions
TINY_TAGGER = dict(hidden=8, d_symbols=2, d_caps=2, d_affix=4, d_words=4)
TINY_PARSER = dict(hidden=12, d_implicit=4, d_label=4, d_word=4)

Phase = Callable[[str], contextlib.AbstractContextManager]


def no_phase(name: str) -> contextlib.AbstractContextManager:
    return contextlib.nullcontext()


def settle() -> None:
    """Collect garbage left by earlier work before a timed section, so that
    a collection it triggered does not land inside the next one."""
    gc.collect()


def subseed(seed: int, stream: int) -> int:
    """Independent generator seed for one input stream of a workload seed."""
    return int(np.random.SeedSequence([seed % 2**32, stream]).generate_state(1)[0])


def n_tokens(sentences: list[Sentence]) -> int:
    return sum(len(s) for s in sentences)


class Checks:
    """Operations attempted and failed. A failed output check is a failed
    operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


class UpdateCounter:
    """Counts TAGGER/PARSER updates and their examples, and times each
    update, by rebinding the two update functions in ``stackprop.trainer``.
    An update whose loss is not finite is a failed operation."""

    NAMES = ("tagger_batch_update", "parser_batch_update")

    def __init__(self, checks: Checks):
        self.checks = checks
        self.examples = 0
        self.update_times: list[float] = []
        self._saved: dict[str, Callable] = {}

    def _counting(self, fn: Callable, name: str) -> Callable:
        def counted(model, data, idx, *args, **kwargs):
            t0 = time.perf_counter()
            loss = fn(model, data, idx, *args, **kwargs)
            self.update_times.append(time.perf_counter() - t0)
            self.examples += len(idx)
            self.checks.record(math.isfinite(loss), f"{name}: loss {loss}")
            return loss

        return counted

    def __enter__(self) -> "UpdateCounter":
        for name in self.NAMES:
            self._saved[name] = getattr(trainer, name)
            setattr(trainer, name, self._counting(self._saved[name], name))
        return self

    def __exit__(self, *exc) -> None:
        for name, fn in self._saved.items():
            setattr(trainer, name, fn)


def tree_problem(block: str, gold: Sentence) -> Optional[str]:
    """Why one CoNLL-U output block is not a single-rooted tree with one head
    per token and every input form kept; None when it is."""
    rows = [line.split("\t") for line in block.split("\n") if line and not line.startswith("#")]
    n = len(gold)
    if len(rows) != n:
        return f"{len(rows)} rows for {n} tokens"
    heads = []
    for k, (row, tok) in enumerate(zip(rows, gold.tokens), start=1):
        if len(row) != 10 or row[0] != str(k) or row[1] != tok.form or not row[6].isdigit():
            return f"row {k} is not token {k} {tok.form!r} with a numeric head"
        heads.append(int(row[6]))
    if any(h > n or h == d for d, h in enumerate(heads, start=1)):
        return "head out of range or self-loop"
    roots = sum(h == 0 for h in heads)
    if roots != 1:
        return f"{roots} root attachments"
    children: list[list[int]] = [[] for _ in range(n + 1)]
    for d, h in enumerate(heads, start=1):
        children[h].append(d)
    reached, stack = 0, [0]
    while stack:
        for d in children[stack.pop()]:
            reached += 1
            stack.append(d)
    return None if reached == n else f"{n - reached} tokens not connected to the root"


def check_output(text: str, gold: list[Sentence], checks: Checks) -> None:
    blocks = [b for b in text.split("\n\n") if b.strip()]
    for i, g in enumerate(gold):
        problem = tree_problem(blocks[i], g) if i < len(blocks) else "missing from the output"
        checks.record(problem is None, f"sentence {g.id} ({len(g)} tokens): {problem}")
    if len(blocks) > len(gold):
        checks.record(False, f"{len(blocks) - len(gold)} extra output sentences")


@dataclass
class EvalSet:
    """Gold sentences to decode and encode, cut into consecutive chunks of at
    least CHUNK_TOKENS tokens (a long sentence is a chunk of its own). Times
    are kept per chunk over repeated passes, and a total is the sum of each
    chunk's median time: the work is identical and deterministic, and on a
    shared host Python-heavy code slows by up to 1.6x for seconds at a time.
    A median per chunk over a run follows the host's typical speed, while
    the fastest pass of a chunk follows its rare fast moments; in a trial
    on the machine in BASELINE.md, the fastest pass spread two to ten times
    more from run to run."""

    gold: list[Sentence]
    chunks: list[list[Sentence]]
    texts: list[str]

    @property
    def tokens(self) -> int:
        return n_tokens(self.gold)


def eval_set(gold: list[Sentence]) -> EvalSet:
    chunks: list[list[Sentence]] = [[]]
    for s in gold:
        if n_tokens(chunks[-1]) >= CHUNK_TOKENS:
            chunks.append([])
        chunks[-1].append(s)
    return EvalSet(gold, chunks, [corpus.emit_conllu(c) for c in chunks])


def chunk_total(samples: list[list[list[float]]]) -> float:
    """Sum over chunks of the median time of that chunk; each element of
    ``samples`` holds one unit's per-chunk sample lists."""
    return sum(
        statistics.median(t for unit in samples for t in unit[i])
        for i in range(len(samples[0]))
    )


@dataclass
class Decoded:
    times: list[list[float]]  # per chunk, one sample per pass
    text: str
    scores: Optional[evaluator.EvalReport]


def decode(
    ev: EvalSet, m: StackedModel, checks: Checks, phase: Phase, seconds: float = 0.0
) -> Decoded:
    """Each chunk as CoNLL-U text in, single-threaded ``parse_corpus``,
    CoNLL-U text out, in passes until ``seconds`` have been measured (at
    least one); then check every output sentence, check that the passes
    agree, and score the output against the gold."""
    times: list[list[float]] = [[] for _ in ev.chunks]
    outputs = []
    while not outputs or sum(map(sum, times)) < seconds:
        settle()
        parts, parsed_all = [], []
        for i, text in enumerate(ev.texts):
            with phase("decode"):
                t0 = time.perf_counter()
                parsed, _ = parser.parse_corpus(corpus.parse_conllu(text), m, fill_tags=True)
                parts.append(corpus.emit_conllu(parsed, use_predicted=True))
                times[i].append(time.perf_counter() - t0)
            parsed_all += parsed
        outputs.append("".join(parts))
    with phase("check"):
        check_output(outputs[0], ev.gold, checks)
        for out in outputs[1:]:
            checks.record(out == outputs[0], "repeated decode gave different output")
    with phase("score"):
        try:
            scores = evaluator.attachment_scores(ev.gold, parsed_all)
        except StackpropError as e:
            checks.record(False, f"scoring failed: {e}")
            scores = None
    return Decoded(times, outputs[0], scores)


def roundtrip(m: StackedModel, checks: Checks, phase: Phase) -> tuple[bytes, StackedModel]:
    """save -> load -> save must reproduce the saved bytes exactly."""
    with phase("roundtrip"):
        first = io.BytesIO()
        model_mod.save(m, first)
        data = first.getvalue()
        loaded = model_mod.load(io.BytesIO(data))
        again = io.BytesIO()
        model_mod.save(loaded, again)
    checks.record(again.getvalue() == data, "model save -> load -> save is not byte-identical")
    return data, loaded


def encode(ev: EvalSet, m: StackedModel, phase: Phase, seconds: float = 0.0) -> list[list[float]]:
    """Oracle unroll and featurization of each chunk's gold trees, in passes
    until ``seconds`` have been measured (at least one); per-chunk seconds."""
    times: list[list[float]] = [[] for _ in ev.chunks]
    while not times[0] or sum(map(sum, times)) < seconds:
        settle()
        for i, chunk in enumerate(ev.chunks):
            with phase("encode"):
                t0 = time.perf_counter()
                trainer.encode_training_data(chunk, m)
                times[i].append(time.perf_counter() - t0)
    return times


@dataclass
class Fixture:
    model: StackedModel
    train_s: float
    train_examples: int
    update_times: list[float]


@dataclass
class Unit:
    """Raw figures of one unit of work."""

    train_s: Optional[float] = None
    train_examples: int = 0
    update_times: Optional[list[float]] = None
    encode_times: Optional[list[list[float]]] = None
    decoded: Optional[Decoded] = None
    digest: str = ""


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else p.encode("utf-8"))
    return h.hexdigest()


def _train_fixture(sentences, settings, counter, phase) -> Fixture:
    settle()
    with phase("fixture"):
        before, first = counter.examples, len(counter.update_times)
        t0 = time.perf_counter()
        m = trainer.train_variant(STACKPROP, sentences, None, settings, log_fn=lambda line: None)
        return Fixture(m, time.perf_counter() - t0, counter.examples - before,
                       counter.update_times[first:])


class Workload:
    name = ""
    layer = ""
    params: dict = {}
    tiny: dict = {}

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.p = {**self.params, **(self.tiny if tiny else {})}
        # one pass per decode and encode, for the traced run's fixed work
        self.single_pass = False

    def pass_seconds(self, seconds: float) -> float:
        return 0.0 if self.single_pass else seconds

    def record(self) -> dict:
        """Seed, corpus parameters and target layer, written with every result."""
        return {"workload": self.name, "seed": self.seed, "layer": self.layer, "params": self.p}

    def fixture(self, counter: UpdateCounter, phase: Phase) -> Optional[Fixture]:
        return None

    def score_sentences(self) -> list[Sentence]:
        """Fixed sentences that ``uas``/``las``/``pos_acc`` are scored on. The
        workload's model does not depend on the seed, so the scores are one
        exact value per version of the code."""
        raise NotImplementedError

    def prepare(self, fixture: Optional[Fixture], checks: Checks, phase: Phase) -> dict:
        """Seeded inputs; the returned state holds the ``EvalSet`` that is
        decoded under "eval", the one that is encoded under "encode_set", and,
        after a unit or a fixture, the loaded model under "model" and its
        saved size under "model_bytes"."""
        raise NotImplementedError

    def unit(self, state: dict, checks: Checks, counter: UpdateCounter, phase: Phase) -> Unit:
        raise NotImplementedError


class TrainBigVocab(Workload):
    """A fixed update budget at default dims with a large word table: build,
    encode and one interleaved run, no dev set; then one pass of decoding a
    seeded held-out set, and passes for ``encode_seconds`` of encoding the
    first ``n_encode`` sentences of the corpus the vocabularies come from.
    The training corpus and seed are fixed, so every run does the same
    updates; the held-out set comes from the workload seed. The budget is
    small, so that a run holds several trainings."""

    name = "train-bigvocab"
    layer = "nnkernel"
    params = dict(
        n_vocab=2000, lexicon_size=40000, zipf=0.2, n_train=150, n_encode=500, n_heldout=120,
        n_score=150, encode_seconds=2.0,
        parser_epochs=1, tagger_epochs=1, pretrain_epochs=1,
        optimizer=dict(eta0=0.3, gamma=10000.0, mu=0.9, batch_size=32, averaging_start=0),
    )
    tiny = dict(n_vocab=60, n_train=20, n_encode=30, n_heldout=8, n_score=8,
                tagger=TINY_TAGGER, parser=TINY_PARSER)

    def score_sentences(self):
        p = self.p
        return synthetic.generate_corpus(
            p["n_score"], seed=subseed(FIXED_SEED, 1),
            lexicon_size=p["lexicon_size"], zipf=p["zipf"],
        )

    def prepare(self, fixture, checks, phase):
        p = self.p
        big = dict(lexicon_size=p["lexicon_size"], zipf=p["zipf"])
        with phase("setup"):
            heldout = synthetic.generate_corpus(p["n_heldout"], seed=subseed(self.seed, 1), **big)
            vocab = synthetic.generate_corpus(p["n_vocab"], seed=FIXED_SEED, **big)
            return dict(vocab=vocab, encode_set=eval_set(vocab[: p["n_encode"]]),
                        eval=eval_set(heldout))

    def unit(self, state, checks, counter, phase):
        p = self.p
        schedule = TrainingSchedule(
            parser_epochs=p["parser_epochs"], tagger_epochs=p["tagger_epochs"],
            tagger_pretrain_epochs=p["pretrain_epochs"], seed=FIXED_SEED,
        )
        train = state["vocab"][: p["n_train"]]
        # drop the previous unit's model first, so every unit peaks alike
        state.pop("model", None)
        settle()
        with phase("train"):
            before, first = counter.examples, len(counter.update_times)
            t0 = time.perf_counter()
            m = model_mod.build_model(
                STACKPROP, state["vocab"], TaggerConfig(**p.get("tagger", {})),
                ParserNetworkConfig(**p.get("parser", {})), seed=FIXED_SEED,
            )
            data = trainer.encode_training_data(train, m)
            trainer.run_interleaved(
                m, data, None, schedule, OptimizerConfig(**p["optimizer"]),
                np.random.default_rng(FIXED_SEED), True, log_fn=lambda line: None,
            )
            train_s = time.perf_counter() - t0
        data_bytes, loaded = roundtrip(m, checks, phase)
        state.update(model=loaded, model_bytes=len(data_bytes))
        decoded = decode(state["eval"], loaded, checks, phase)
        encode_times = encode(
            state["encode_set"], loaded, phase, self.pass_seconds(p["encode_seconds"])
        )
        return Unit(train_s, counter.examples - before, counter.update_times[first:],
                    encode_times, decoded, _digest(data_bytes, decoded.text))


class ParseDefault(Workload):
    """Many short sentences decoded with a default-dims model: one single-row
    parser forward per transition. The model is a fixture, trained, saved
    and loaded during set-up; the unit encodes and decodes seeded inputs."""

    name = "parse-default"
    layer = "nnkernel"
    params = dict(
        n_fixture=150, fixture_epochs=1, n_parse=250, n_score=150, encode_seconds=0.5,
        optimizer=dict(eta0=0.05, gamma=10000.0, mu=0.9, batch_size=16, averaging_start=100),
    )
    tiny = dict(n_fixture=20, n_parse=8, n_score=8, tagger=TINY_TAGGER, parser=TINY_PARSER)

    def score_sentences(self):
        return synthetic.generate_corpus(self.p["n_score"], seed=subseed(FIXED_SEED, 1))

    def fixture(self, counter, phase):
        p = self.p
        settings = TrainSettings(
            schedule=TrainingSchedule(
                parser_epochs=p["fixture_epochs"], tagger_epochs=p["fixture_epochs"],
                seed=FIXED_SEED,
            ),
            tagger_cfg=TaggerConfig(**p.get("tagger", {})),
            parser_cfg=ParserNetworkConfig(**p.get("parser", {})),
            optimizer=OptimizerConfig(**p["optimizer"]),
        )
        sentences = synthetic.generate_corpus(p["n_fixture"], seed=FIXED_SEED)
        return _train_fixture(sentences, settings, counter, phase)

    def prepare(self, fixture, checks, phase):
        data, loaded = roundtrip(fixture.model, checks, phase)
        with phase("setup"):
            inputs = eval_set(
                synthetic.generate_corpus(self.p["n_parse"], seed=subseed(self.seed, 1))
            )
            return dict(model=loaded, model_bytes=len(data), eval=inputs, encode_set=inputs)

    def unit(self, state, checks, counter, phase):
        encode_times = encode(
            state["encode_set"], state["model"], phase, self.pass_seconds(self.p["encode_seconds"])
        )
        decoded = decode(state["eval"], state["model"], checks, phase)
        return Unit(encode_times=encode_times, decoded=decoded, digest=_digest(decoded.text))


WORKLOADS = {w.name: w for w in (TrainBigVocab, ParseDefault)}
