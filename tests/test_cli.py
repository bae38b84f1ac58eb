import dataclasses
import hashlib
import io
import json
import logging
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stackprop
from stackprop import cli as cli_mod, trainer
from stackprop.cli import (
    SETTING_FIELDS,
    TRAIN_DEFAULTS,
    load_corpus,
    main,
    settings_field,
    settings_from_config,
)
from stackprop.corpus import emit_conllu, parse_conllu, read_conllu
from stackprop.errors import CorpusError
from stackprop.model import load
from stackprop.nnkernel import blas_build, kernel_workers
from stackprop.parser import parse_corpus
from stackprop.synthetic import generate_corpus
from test_model import rechecksum, split_container

TINY_FLAGS = [
    "--h-tagger", "16", "--h-parser", "24", "--d-implicit", "8", "--d-label", "4",
    "--d-word", "8", "--d-affix", "4", "--d-caps", "2", "--d-symbols", "2",
    "--parser-epochs", "2", "--tagger-epochs", "1", "--pretrain-epochs", "1",
    "--eta0", "0.03", "--gamma", "5000", "--batch-size", "16",
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    train = d / "train.conllu"
    dev = d / "dev.conllu"
    train.write_text(emit_conllu(generate_corpus(20, seed=50)), encoding="utf-8")
    dev.write_text(emit_conllu(generate_corpus(6, seed=51)), encoding="utf-8")
    return d


@pytest.fixture(scope="module")
def trained_model(workdir):
    model = workdir / "m.model"
    rc = main(
        ["train", "--train", str(workdir / "train.conllu"), "--dev",
         str(workdir / "dev.conllu"), "--model", str(model), "--seed", "3"]
        + TINY_FLAGS
    )
    assert rc == 0
    return model


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_train_writes_model_and_manifest(trained_model, workdir):
    assert trained_model.exists()
    manifest_path = trained_model.with_name(trained_model.name + ".manifest.json")
    manifest = json.loads(manifest_path.read_text())
    assert manifest["config"]["mode"] == "stackprop"
    assert manifest["config"]["seed"] == 3
    assert manifest["model"]["sha256"] == sha(trained_model)
    assert "train" in manifest["inputs"] and "dev" in manifest["inputs"]
    # run facts sit beside the config, which --replay reads
    assert manifest["kernel_workers"] == kernel_workers() >= 1
    assert manifest["blas"] == blas_build()
    assert "kernel_workers" not in manifest["config"] and "blas" not in manifest["config"]


def test_manifest_replay_reproduces_model_bytes(trained_model, workdir):
    manifest_path = trained_model.with_name(trained_model.name + ".manifest.json")
    replayed = workdir / "replayed.model"
    rc = main(["train", "--replay", str(manifest_path), "--model", str(replayed)])
    assert rc == 0
    assert sha(replayed) == sha(trained_model)


def test_parse_roundtrip_and_threads(trained_model, workdir, capsys):
    out1 = workdir / "out1.conllu"
    out4 = workdir / "out4.conllu"
    for threads, out in (("1", out1), ("4", out4)):
        rc = main(
            ["parse", "--model", str(trained_model), "--input",
             str(workdir / "dev.conllu"), "--output", str(out), "--threads", threads]
        )
        assert rc == 0
    assert out1.read_bytes() == out4.read_bytes()
    reparsed = parse_conllu(out1.read_text())
    assert len(reparsed) == 6


def test_parse_logs_configurations_per_parser_forward(trained_model, workdir, caplog):
    """The stats line also gives the share of actions applied at steps where
    every configuration had one legal action; in this (non-joint) mode every
    derivation starts with such a step, a SHIFT from ``[ROOT]``."""
    caplog.set_level(logging.INFO, logger="stackprop")
    rc = main(["parse", "--model", str(trained_model), "--input",
               str(workdir / "dev.conllu"), "--output", os.devnull])
    assert rc == 0
    assert "configurations per parser forward" in caplog.text
    assert f"{kernel_workers()} kernel workers)" in caplog.text
    share = re.search(r"([\d.]+)% of transitions taken without a parser forward", caplog.text)
    _, stats = parse_corpus(load_corpus(str(workdir / "dev.conllu")), load(str(trained_model)))
    unscored = stats.transitions - stats.parser_evals
    assert 0 < unscored < stats.transitions
    assert share and share.group(1) == f"{100 * unscored / stats.transitions:.1f}"


def test_tag_logs_kernel_workers(trained_model, workdir, caplog):
    caplog.set_level(logging.INFO, logger="stackprop")
    rc = main(["tag", "--model", str(trained_model), "--input",
               str(workdir / "dev.conllu"), "--output", os.devnull])
    assert rc == 0
    assert f"{kernel_workers()} kernel workers)" in caplog.text


@pytest.mark.parametrize("command", ["parse", "tag"])
@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_is_a_usage_error(command, threads, capsys):
    with pytest.raises(SystemExit) as e:
        main([command, "--model", "unused.model", "--input", os.devnull,
              "--output", os.devnull, "--threads", threads])
    assert e.value.code == 1
    assert "--threads" in capsys.readouterr().err


def test_parse_empty_input_empty_output(trained_model, workdir):
    empty_in = workdir / "empty.conllu"
    empty_in.write_text("")
    out = workdir / "empty_out.conllu"
    rc = main(["parse", "--model", str(trained_model), "--input", str(empty_in),
               "--output", str(out)])
    assert rc == 0
    assert out.read_text() == ""


def test_tag_fills_upos(trained_model, workdir):
    out = workdir / "tagged.conllu"
    rc = main(["tag", "--model", str(trained_model), "--input",
               str(workdir / "dev.conllu"), "--output", str(out)])
    assert rc == 0
    tagged = parse_conllu(out.read_text())
    gold = parse_conllu((workdir / "dev.conllu").read_text())
    assert all(t.gold_upos != "_" for s in tagged for t in s.tokens)
    # heads preserved from the input
    assert [t.gold_head for s in tagged for t in s.tokens] == [
        t.gold_head for s in gold for t in s.tokens
    ]


def test_emit_activations(trained_model, workdir):
    acts = workdir / "acts.tsv"
    rc = main(["parse", "--model", str(trained_model), "--input",
               str(workdir / "dev.conllu"), "--output", os.devnull,
               "--emit-activations", str(acts)])
    assert rc == 0
    lines = acts.read_text().strip().split("\n")
    n_tokens = sum(len(s) for s in parse_conllu((workdir / "dev.conllu").read_text()))
    assert len(lines) == n_tokens
    assert len(lines[0].split("\t")) == 3 + 16  # id, index, form, H floats


def test_emit_activations_tags_each_token_once(trained_model, workdir, monkeypatch):
    """The dumped rows are the ones decoding computed: the tagger evaluates
    one row per token, and each row (after its sentence id) equals a
    separate tagging pass."""
    from stackprop import model as model_mod, tagger as tagger_mod

    text = emit_conllu(generate_corpus(30, seed=52))
    (workdir / "many.conllu").write_text(text, encoding="utf-8")
    sentences = parse_conllu(text)
    m = model_mod.load(str(trained_model))
    expected = []
    for s in sentences:
        _, acts = tagger_mod.tag_sentences([s], m.tagger, m.tvocabs, m.tags)
        for t in s.tokens:
            vec = "\t".join(f"{x:.6g}" for x in acts.hidden[t.index - 1])
            expected.append(f"{t.index}\t{t.form}\t{vec}")

    rows = []
    real_forward = tagger_mod.forward_batch

    def counting_forward(net, inputs, params=None):
        if not any(g.name == "labels" for g in net.groups):
            rows.append(next(iter(inputs.values())).shape[0])
        return real_forward(net, inputs, params)

    monkeypatch.setattr(tagger_mod, "forward_batch", counting_forward)
    acts = workdir / "many_acts.tsv"
    rc = main(["parse", "--model", str(trained_model), "--input",
               str(workdir / "many.conllu"), "--output", os.devnull,
               "--emit-activations", str(acts)])
    assert rc == 0
    assert sum(rows) == sum(len(s) for s in sentences)
    dumped = acts.read_text().strip().split("\n")
    assert [line.split("\t", 1)[1] for line in dumped] == expected


def test_emit_activations_numbers_streamed_sentences(trained_model, workdir):
    """A streamed sentence without ``# sent_id`` is named by its position in
    the stream, as ``load_corpus`` names it by its position in the file."""
    text = emit_conllu(generate_corpus(30, seed=52))
    assert "sent_id" not in text
    (workdir / "unnamed.conllu").write_text(text, encoding="utf-8")
    acts = workdir / "unnamed_acts.tsv"
    rc = main(["parse", "--model", str(trained_model), "--input",
               str(workdir / "unnamed.conllu"), "--output", os.devnull,
               "--emit-activations", str(acts)])
    assert rc == 0
    ids = [line.split("\t", 1)[0] for line in acts.read_text().strip().split("\n")]
    assert sorted(set(ids), key=int) == [str(i) for i in range(1, 31)]
    assert ids == sorted(ids, key=int)

    # an explicit sent_id is kept and still counts toward the positions
    named = text.replace("1\t", "# sent_id = first\n1\t", 1)
    with open(workdir / "named.conllu", "w", encoding="utf-8") as f:
        f.write(named)
    with open(workdir / "named.conllu", encoding="utf-8") as f:
        streamed = [s.id for s in read_conllu(f)]
    assert streamed == [s.id for s in load_corpus(str(workdir / "named.conllu"))]
    assert streamed == ["first"] + [str(i) for i in range(2, 31)]


SEPARATORS = st.sampled_from(["", " ", "\t", "  \t "])
FORMS = st.text(
    st.characters(exclude_characters="\t\n\r", exclude_categories=("Cs",)),
    min_size=1, max_size=4,
)
EMPTY_ROW = "\t".join(["_"] * 8)


@st.composite
def conllu_corpora(draw):
    """(lines, token_rows): the lines of a CoNLL-U corpus of 1-5 blocks that
    mixes ``# sent_id`` comments, multiword ranges, empty nodes and
    whitespace-only separators, and each block's token rows as indices into
    ``lines``."""
    lines, token_rows = draw(st.lists(SEPARATORS, max_size=1)), []
    for k in range(draw(st.integers(1, 5))):
        if k:
            lines += draw(st.lists(SEPARATORS, min_size=1, max_size=2))
        if draw(st.booleans()):
            lines.append(f"# sent_id = s{k}")
        if draw(st.booleans()):
            lines.append("# text = anything")
        n = draw(st.integers(1, 5))
        if n > 1 and draw(st.booleans()):
            lines.append(f"1-2\tab\t{EMPTY_ROW}")
        rows = []
        for i in range(1, n + 1):
            head, deprel = (0, "root") if i == 1 else (draw(st.integers(1, i - 1)), "dep")
            rows.append(len(lines))
            lines.append(f"{i}\t{draw(FORMS)}\t_\tX\t_\t_\t{head}\t{deprel}\t_\t_")
            if i == 1 and draw(st.booleans()):
                lines.append(f"1.1\tghost\t{EMPTY_ROW}")
        token_rows.append(rows)
    return lines, token_rows


def read_three_ways(path, text):
    """What ``parse_conllu`` reads from ``text``, and ``load_corpus`` and
    ``read_conllu`` from the file at ``path``: sentences, or an error."""
    def outcome(read):
        try:
            return read()
        except CorpusError as e:
            return str(e)

    def stream():
        with open(path, encoding="utf-8") as f:
            return list(read_conllu(f))

    return [outcome(lambda: parse_conllu(text)), outcome(lambda: load_corpus(str(path))),
            outcome(stream)]


@settings(max_examples=150, deadline=None)
@given(corpus=conllu_corpora(), data=st.data())
def test_a_file_and_its_text_read_alike(workdir, corpus, data):
    """A file read through ``load_corpus`` or streamed by ``read_conllu``
    gives the sentences ``parse_conllu`` gives for its text, CRLF line ends
    included; a bad HEAD in block k is reported at the same line by all
    three."""
    lines, token_rows = corpus
    ends = data.draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines),
                              max_size=len(lines)))
    path = workdir / "read_alike.conllu"

    def write(lines):
        text = "".join(line + end for line, end in zip(lines, ends))
        if data.draw(st.booleans()):
            text = text.rstrip("\r\n")
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        return text

    text = write(lines)
    whole, loaded, streamed = read_three_ways(path, text)
    assert len(whole) == len(token_rows)
    assert loaded == whole and streamed == whole

    k = data.draw(st.integers(0, len(token_rows) - 1))
    row = data.draw(st.sampled_from(token_rows[k]))
    cols = lines[row].split("\t")
    cols[6] = "x"
    text = write(lines[:row] + ["\t".join(cols)] + lines[row + 1:])
    errors = read_three_ways(path, text)
    assert errors == [f"line {row + 1}: bad ID or HEAD field: "
                      "invalid literal for int() with base 10: 'x'"] * 3


BARE_CR = b"1\ta\rb\t_\tX\t_\t_\t0\troot\t_\t_\n"


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_input_splits_lines_on_newline_only(trained_model, workdir, monkeypatch, source):
    """A file or stdin splits lines on "\\n" only, as ``parse_conllu`` splits
    a text: a bare CR inside a field stays in the field, a CRLF line end
    reads as "\\n", and stdin is left open."""
    def parse(data: bytes, name: str) -> bytes:
        path = workdir / f"{name}.conllu"
        path.write_bytes(data)
        out = workdir / f"{name}_{source}_out.conllu"
        argv = ["parse", "--model", str(trained_model), "--output", str(out)]
        if source == "file":
            assert main(argv + ["--input", str(path)]) == 0
        else:
            with open(path, encoding="utf-8") as stdin:
                monkeypatch.setattr(sys, "stdin", stdin)
                assert main(argv) == 0
                os.fstat(stdin.fileno())  # the descriptor is still open
        return out.read_bytes()

    parsed = parse_conllu(parse(BARE_CR, "bare_cr").decode())
    assert [t.form for t in parsed[0].tokens] == ["a\rb"]
    loaded = load_corpus(str(workdir / "bare_cr.conllu"))
    assert loaded == parse_conllu(BARE_CR.decode()) and loaded[0].tokens[0].form == "a\rb"

    text = emit_conllu(generate_corpus(8, seed=54))
    crlf = text.replace("\n", "\r\n").encode()
    assert parse(crlf, "crlf") == parse(text.encode(), "lf")


def test_tag_and_parse_dump_identical_activations(trained_model, workdir):
    """``tag`` reads tokens through the same batch encoding and per-sentence
    tagger pass as ``parse``: both dump the same rows, and ``tag`` keeps the
    input heads."""
    text = emit_conllu(generate_corpus(70, seed=53))  # more than one lockstep group
    (workdir / "both.conllu").write_text(text, encoding="utf-8")
    dumps, outputs = {}, {}
    for command in ("tag", "parse"):
        acts = workdir / f"{command}_acts.tsv"
        out = workdir / f"{command}_out.conllu"
        rc = main([command, "--model", str(trained_model), "--input",
                   str(workdir / "both.conllu"), "--output", str(out),
                   "--emit-activations", str(acts)])
        assert rc == 0
        dumps[command] = acts.read_text()
        outputs[command] = parse_conllu(out.read_text())
    assert dumps["tag"] == dumps["parse"]
    assert dumps["tag"].count("\n") == sum(len(s) for s in outputs["tag"])
    gold = parse_conllu(text)
    assert [s.id for s in outputs["tag"]] == [s.id for s in outputs["parse"]]
    for tagged, g in zip(outputs["tag"], gold):
        assert [t.gold_head for t in tagged.tokens] == [t.gold_head for t in g.tokens]
        assert [t.gold_deprel for t in tagged.tokens] == [t.gold_deprel for t in g.tokens]


def test_eval_identical_files(workdir, capsys):
    rc = main(["eval", "--gold", str(workdir / "dev.conllu"), "--system",
               str(workdir / "dev.conllu"), "--machine"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "uas=1.0000" in out and "las=1.0000" in out


def test_eval_reads_a_system_files_upos_as_its_predicted_tags(workdir, capsys):
    """With k of n UPOS changed, pos_acc is 1 - k/n; with every UPOS ``_``
    there are no predicted tags and no pos_acc line."""
    gold = parse_conllu((workdir / "dev.conllu").read_text(encoding="utf-8"))
    n = sum(len(s) for s in gold)

    def retag(upos, which):
        return [
            dataclasses.replace(s, tokens=[
                dataclasses.replace(t, gold_upos=upos) if which(t) else t for t in s.tokens
            ])
            for s in gold
        ]

    k = sum(t.gold_upos != "X" for s in gold for t in s.tokens if t.index <= 2)
    assert 0 < k < n
    retagged = retag("X", lambda t: t.index <= 2)
    untagged = retag("_", lambda t: True)
    for name, sentences, pos_line in (
        ("retagged", retagged, f"pos_acc={1 - k / n:.4f}"),
        ("untagged", untagged, None),
    ):
        system = workdir / f"{name}.conllu"
        system.write_text(emit_conllu(sentences), encoding="utf-8")
        rc = main(["eval", "--gold", str(workdir / "dev.conllu"), "--system", str(system),
                   "--machine"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "uas=1.0000" in out and "las=1.0000" in out
        if pos_line:
            assert pos_line in out.splitlines()
        else:
            assert "pos_acc" not in out


def test_eval_parsed_output(trained_model, workdir, capsys):
    out = workdir / "out1.conllu"
    rc = main(["eval", "--gold", str(workdir / "dev.conllu"), "--system", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "uas" in text and "las" in text


def test_eval_cascade_breakdown(workdir, capsys):
    rc = main(["eval", "--gold", str(workdir / "dev.conllu"), "--system",
               str(workdir / "dev.conllu"), "--reference-tags",
               str(workdir / "dev.conllu"), "--machine"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "las_on_rest=1.0000" in out


def test_eval_reference_tags_of_fewer_sentences_is_a_data_error(workdir, capsys):
    """A reference file one sentence short is refused, not scored over the
    sentences it covers."""
    short = workdir / "dev_short.conllu"
    short.write_text(emit_conllu(generate_corpus(6, seed=51)[:5]), encoding="utf-8")
    rc = main(["eval", "--gold", str(workdir / "dev.conllu"), "--system",
               str(workdir / "dev.conllu"), "--reference-tags", str(short)])
    assert rc == 2
    assert "las_on_rest" not in capsys.readouterr().out


def test_jackknife_writes_folds_and_corpus(workdir):
    merged = workdir / "jk.conllu"
    prefix = workdir / "jk"
    rc = main(["jackknife", "--train", str(workdir / "train.conllu"), "--output",
               str(merged), "--jackknife-folds", "2", "--model-prefix", str(prefix), "--seed", "2"]
              + TINY_FLAGS)
    assert rc == 0
    assert (workdir / "jk.fold0.model").exists()
    assert (workdir / "jk.fold1.model").exists()
    tagged = parse_conllu(merged.read_text())
    assert len(tagged) == 20


def test_jackknife_to_stdout_leaves_it_open(workdir, monkeypatch):
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    rc = main(["jackknife", "--train", str(workdir / "train.conllu"), "--output", "-",
               "--jackknife-folds", "2", "--seed", "2"] + TINY_FLAGS)
    assert rc == 0
    assert not out.closed
    assert len(parse_conllu(out.getvalue())) == 20


def test_jackknife_divergence_is_a_data_error(workdir):
    out = workdir / "diverged.conllu"
    with np.errstate(all="ignore"):
        rc = main(["jackknife", "--train", str(workdir / "train.conllu"), "--output", str(out),
                   "--jackknife-folds", "2"] + TINY_FLAGS + ["--eta0", "1e6"])
    assert rc == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "jackknife"])
def test_one_jackknife_fold_is_a_config_error(workdir, monkeypatch, command):
    """A single fold is rejected with the settings, before any model is built."""
    calls = []
    for name in ("train_variant", "jackknife_tags"):
        monkeypatch.setattr(trainer, name, lambda *a, name=name, **k: calls.append(name))
    out = workdir / "one_fold.out"
    first = {
        "train": ["train", "--mode", "pipeline", "--model", str(out)],
        "jackknife": ["jackknife", "--output", str(out)],
    }[command]
    rc = main(first + ["--train", str(workdir / "train.conllu"), "--jackknife-folds", "1"])
    assert rc == 1
    assert calls == []
    assert not out.exists()


def test_neighbors_prints_rows(trained_model, workdir, capsys):
    rc = main(["neighbors", "--model", str(trained_model), "--corpus",
               str(workdir / "dev.conllu"), "--sentence", "1", "--token", "2", "-k", "3"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("query:")
    assert len(lines) == 4


REPLAY = ["train", "--replay", "{file}", "--model", "{model}"]
MANIFEST = '{"config": {"mode": "MODE"}, "inputs": {"train": {"path": "TRAIN"}}}'
MALFORMED = {
    # a config-file value that is not of its key's type
    "config-value-type": (["train", "--config", "{file}", "--train", "{train}", "--model",
                           "{model}"], "batch_size = many\n", "batch_size"),
    # a replayed manifest without the fields a training manifest has
    "replay-empty-object": (REPLAY, "{}", "malformed manifest"),
    "replay-list": (REPLAY, "[]", "malformed manifest"),
    # a replayed manifest's config goes through the config-file checks
    "replay-unknown-key": (REPLAY, MANIFEST.replace('"mode": "MODE"', '"no_such_key": 1'),
                           "no_such_key"),
    "replay-bad-mode": (REPLAY, MANIFEST.replace("MODE", "tagless"), "tagless"),
    "replay-value-type": (REPLAY, MANIFEST.replace('"mode": "MODE"', '"batch_size": 16.5'),
                          "batch_size"),
    # two config layers for one slot
    "replay-and-config": (REPLAY + ["--config", "{file}"], MANIFEST.replace("MODE", "stackprop"),
                          "--config"),
    # fewer than one neighbour
    "neighbors-k-0": (["neighbors", "--model", "{trained}", "--corpus", "{dev}", "--sentence",
                       "1", "--token", "2", "-k", "0"], None, "-k"),
    "neighbors-k-negative": (["neighbors", "--model", "{trained}", "--corpus", "{dev}",
                              "--sentence", "1", "--token", "2", "-k", "-2"], None, "-k"),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_invocation_exits_1_without_traceback(case, trained_model, workdir, capsys,
                                                         caplog):
    template, content, says = MALFORMED[case]
    train = str(workdir / "train.conllu")
    path, model = workdir / f"{case}.in", workdir / f"{case}.model"
    if content is not None:
        path.write_text(content.replace("TRAIN", train), encoding="utf-8")
    argv = [a.format(file=path, train=train, model=model, trained=trained_model,
                     dev=workdir / "dev.conllu") for a in template]
    try:
        rc = main(argv)
    except SystemExit as e:
        rc = e.code
    err = capsys.readouterr().err
    assert rc == 1
    assert "Traceback" not in err
    assert says in err + caplog.text
    assert not model.exists()


def test_inspect_model(trained_model, capsys):
    rc = main(["inspect-model", "--model", str(trained_model)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mode          stackprop" in out
    assert "total_params" in out


def test_exit_code_usage_on_bad_path(workdir):
    rc = main(["train", "--train", str(workdir / "nope.conllu"), "--model",
               str(workdir / "x.model")] + TINY_FLAGS)
    assert rc == 1


@pytest.mark.parametrize("missing", ["--input", "--output"])
def test_unopenable_file_leaves_no_file_open(workdir, trained_model, monkeypatch, missing):
    opened = []

    def tracking_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(cli_mod, "open", tracking_open, raising=False)
    paths = {"--input": str(workdir / "dev.conllu"), "--output": os.devnull}
    paths[missing] = str(workdir / "no_such_dir" / "x.conllu")
    rc = main(["parse", "--model", str(trained_model), "--input", paths["--input"],
               "--output", paths["--output"], "--emit-activations",
               str(workdir / "unopened_acts.tsv")])
    assert rc == 1
    assert all(f.closed for f in opened)


def test_exit_code_data_on_malformed_corpus(workdir, trained_model):
    bad = workdir / "bad.conllu"
    bad.write_text("1\tonly\tthree\n")
    rc = main(["parse", "--model", str(trained_model), "--input", str(bad),
               "--output", os.devnull])
    assert rc == 2


def test_parse_names_the_input_line_of_a_bad_block(workdir, trained_model, caplog):
    """A bad HEAD in the third block is reported at its line of the input
    file, as ``parse_conllu`` reports it in the whole text."""
    block = "1\ta\t_\tX\t_\t_\t0\troot\t_\t_\n2\tb\t_\tX\t_\t_\t1\tdep\t_\t_\n\n"
    text = block * 2 + block.replace("\t0\t", "\tx\t") + block
    bad = workdir / "bad_third_block.conllu"
    bad.write_text(text, encoding="utf-8")
    with pytest.raises(CorpusError, match="^line 7: bad ID or HEAD field"):
        parse_conllu(text)
    rc = main(["parse", "--model", str(trained_model), "--input", str(bad),
               "--output", os.devnull])
    assert rc == 2
    assert "line 7: bad ID or HEAD field" in caplog.text


@pytest.mark.parametrize("command", ["eval", "parse"])
def test_non_utf8_input_is_a_data_error(command, workdir, trained_model, capsys, caplog):
    latin1 = workdir / "latin1.conllu"
    latin1.write_bytes("1\tcafé\t_\tNOUN\t_\t_\t0\troot\t_\t_\n\n".encode("latin-1"))
    argv = {
        "eval": ["eval", "--gold", str(latin1), "--system", str(latin1)],
        "parse": ["parse", "--model", str(trained_model), "--input", str(latin1),
                  "--output", os.devnull],
    }[command]
    rc = main(argv)
    assert rc == 2
    assert "Traceback" not in capsys.readouterr().err
    assert "line 1 or later is not UTF-8" in caplog.text


def test_exit_code_model_on_corrupt_model(workdir):
    bogus = workdir / "bogus.model"
    bogus.write_bytes(b"not a model at all")
    rc = main(["parse", "--model", str(bogus), "--input", os.devnull,
               "--output", os.devnull])
    assert rc == 3


def test_parse_with_a_header_contradicting_its_networks_exits_3(trained_model, workdir, capsys,
                                                                caplog):
    """A header with one label fewer than the parser scores is a model error
    at load, not a broadcast error at the first scored step."""
    header, blocks = split_container(trained_model.read_bytes())
    del header["meta"]["vocabs"]["labels"][-1]
    doctored = workdir / "label_dropped.model"
    doctored.write_bytes(rechecksum(header, blocks))
    rc = main(["parse", "--model", str(doctored), "--input", str(workdir / "dev.conllu"),
               "--output", os.devnull])
    assert rc == 3
    assert "Traceback" not in capsys.readouterr().err
    assert "network 'parser' does not match" in caplog.text


def test_parse_with_a_count_that_is_not_a_number_exits_3(trained_model, workdir, capsys,
                                                          caplog):
    """A parser block's average count of "x" is refused at load with one
    error line, not a TypeError traceback at the first decode."""
    header, blocks = split_container(trained_model.read_bytes())
    header["networks"][1]["blocks"][0]["avg_count"] = "x"
    doctored = workdir / "count_not_a_number.model"
    doctored.write_bytes(rechecksum(header, blocks))
    rc = main(["parse", "--model", str(doctored), "--input", str(workdir / "dev.conllu"),
               "--output", os.devnull])
    assert rc == 3
    assert "Traceback" not in capsys.readouterr().err
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "not a whole number" in errors[0], errors


def test_exit_code_usage_on_unknown_flag():
    with pytest.raises(SystemExit) as e:
        main(["train", "--frobnicate"])
    assert e.value.code == 1


def test_config_file_with_cli_override(workdir):
    cfg = workdir / "run.cfg"
    cfg.write_text(
        "mode = stackprop\n"
        "h_tagger = 16\nh_parser = 24\nd_implicit = 8\nd_label = 4\n"
        "d_word = 8\nd_affix = 4\nd_caps = 2\nd_symbols = 2\n"
        "parser_epochs = 1\ntagger_epochs = 1\npretrain_epochs = 0\n"
        "eta0 = 0.03\nbatch_size = 16\nseed = 9\n"
    )
    model = workdir / "cfg.model"
    rc = main(["train", "--config", str(cfg), "--train", str(workdir / "train.conllu"),
               "--model", str(model), "--seed", "11"])
    assert rc == 0
    manifest = json.loads(model.with_name(model.name + ".manifest.json").read_text())
    assert manifest["config"]["seed"] == 11  # CLI wins over config file
    assert manifest["config"]["h_tagger"] == 16


def test_unknown_config_key_rejected(workdir):
    cfg = workdir / "bad.cfg"
    cfg.write_text("no_such_key = 1\n")
    rc = main(["train", "--config", str(cfg), "--train",
               str(workdir / "train.conllu"), "--model", str(workdir / "y.model")])
    assert rc == 1


def test_config_file_eta0_zero_still_fails(workdir):
    cfg = workdir / "zero.cfg"
    cfg.write_text("eta0 = 0\n")
    model = workdir / "zero.model"
    rc = main(["train", "--config", str(cfg), "--train", str(workdir / "train.conllu"),
               "--model", str(model)])
    assert rc == 1
    assert not model.exists()


@pytest.mark.parametrize("flags", [["--eta0", "0"], ["--mu", "1.5"]], ids=["eta0", "mu"])
def test_optimizer_flag_rejected_by_its_config_exits_1(workdir, flags):
    model = workdir / "bad.model"
    rc = main(["train", "--train", str(workdir / "train.conllu"), "--model", str(model)] + flags)
    assert rc == 1
    assert not model.exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--h-parser", "0"], ["--h-parser", "-5"], ["--h-tagger", "0"], ["--d-label", "0"],
        ["--eta0", "nan"], ["--gamma", "nan"], ["--lambda-weight", "nan"],
        ["--lambda-weight", "-1"], ["--patience", "0"], ["--patience", "-2"], ["--seed", "-1"],
    ],
    ids=[
        "h-parser-0", "h-parser-negative", "h-tagger-0", "d-label-0",
        "eta0-nan", "gamma-nan", "lambda-weight-nan",
        "lambda-weight-negative", "patience-0", "patience-negative", "seed-negative",
    ],
)
def test_network_dimension_below_one_exits_1_before_reading(workdir, monkeypatch, flags):
    """A network dimension below 1, a learning rate or decay that is not
    finite, a negative or non-finite tag-loss weight, a patience below 1 or
    a negative seed is rejected with the settings, before any corpus is
    read."""
    reads = []
    monkeypatch.setattr(cli_mod, "load_corpus", lambda path: reads.append(path))
    model = workdir / "bad_dims.model"
    rc = main(["train", "--train", str(workdir / "train.conllu"), "--model", str(model)] + flags)
    assert rc == 1
    assert reads == []
    assert not model.exists()


@pytest.mark.parametrize("case", ["not-a-number", "not-utf8"])
def test_malformed_embeddings_file_is_a_data_error(workdir, capsys, caplog, case):
    form = parse_conllu((workdir / "train.conllu").read_text(encoding="utf-8"))[0].tokens[0].form
    good = f"{form.lower()} " + " ".join(["0.1"] * 8) + "\n"
    bad = {
        "not-a-number": f"{form.lower()} 0.1 x " + " ".join(["0.3"] * 6) + "\n",
        "not-utf8": "caf\xe9 " + " ".join(["0.2"] * 8) + "\n",
    }[case]
    vectors = workdir / f"{case}.vec"
    vectors.write_bytes(good.encode("utf-8") + bad.encode("latin-1"))
    model = workdir / f"{case}.model"
    rc = main(["train", "--train", str(workdir / "train.conllu"), "--model", str(model),
               "--embeddings", str(vectors)] + TINY_FLAGS)
    assert rc == 2
    assert "Traceback" not in capsys.readouterr().err
    assert f"embeddings {vectors} line 2:" in caplog.text
    assert not model.exists()


def test_importing_the_cli_leaves_scipy_unloaded():
    """numpy is the one runtime dependency: no command imports scipy."""
    src = os.path.dirname(os.path.dirname(stackprop.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c", "import stackprop.cli, sys; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == "False"


def _leaf_fields(obj, prefix=""):
    out = set()
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            out |= _leaf_fields(value, f"{prefix}{f.name}.")
        else:
            out.add(prefix + f.name)
    return out


def test_every_setting_key_lands_in_every_field_it_names():
    cfg = dict(TRAIN_DEFAULTS)
    for i, (key, default) in enumerate(TRAIN_DEFAULTS.items()):
        if isinstance(default, bool):
            cfg[key] = not default
        elif isinstance(default, int):
            cfg[key] = 100 + i
        elif isinstance(default, float):
            cfg[key] = (i + 1) / 100
        else:
            cfg[key] = f"value-{i}"
    settings = settings_from_config(cfg)
    named = set()
    for key, paths in SETTING_FIELDS.items():
        for path in paths:
            assert settings_field(settings, path) == cfg[key], path
            named.add(path)
    assert named == _leaf_fields(settings)  # no field is left at its default
