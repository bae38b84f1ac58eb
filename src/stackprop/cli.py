"""Single executable with subcommands wiring the library together.

Data flows through stdin/stdout (or files); logs go to stderr only. Every
training run emits a JSON manifest with the fully resolved configuration and
input hashes so the exact model bytes can be reproduced.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
import time
from contextlib import ExitStack, nullcontext
from dataclasses import replace
from typing import ContextManager, Optional, TextIO

import numpy as np

from stackprop import corpus as corpus_mod
from stackprop import evaluator, model as model_mod, parser as parser_mod, trainer
from stackprop.corpus import Sentence, read_conllu
from stackprop.errors import (
    ConfigError,
    CorpusError,
    ModelError,
    StackpropError,
)
from stackprop.model import MODES, STACKPROP
from stackprop.nnkernel import blas_build, kernel_workers
from stackprop.trainer import TrainSettings

log = logging.getLogger("stackprop")

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_MODEL = 0, 1, 2, 3

# flat config key (file key and --flag) -> the TrainSettings fields it sets
SETTING_FIELDS: dict[str, tuple[str, ...]] = {
    "swap": ("swap",),
    "parser_epochs": ("schedule.parser_epochs",),
    "tagger_epochs": ("schedule.tagger_epochs",),
    "pretrain_epochs": ("schedule.tagger_pretrain_epochs",),
    "lambda_weight": ("schedule.lambda_weight",),
    "eta0": ("optimizer.eta0",),
    "gamma": ("optimizer.gamma",),
    "mu": ("optimizer.mu",),
    "batch_size": ("optimizer.batch_size",),
    "averaging_start": ("optimizer.averaging_start",),
    "patience": ("schedule.patience",),
    "seed": ("schedule.seed",),
    "h_tagger": ("tagger_cfg.hidden",),
    "h_parser": ("parser_cfg.hidden",),
    "d_implicit": ("parser_cfg.d_implicit",),
    "d_label": ("parser_cfg.d_label",),
    "d_word": ("tagger_cfg.d_words", "parser_cfg.d_word"),
    "d_affix": ("tagger_cfg.d_affix",),
    "d_caps": ("tagger_cfg.d_caps",),
    "d_symbols": ("tagger_cfg.d_symbols",),
    "jackknife_folds": ("jackknife_folds",),
    "embeddings": ("embeddings_path",),
}


def settings_field(settings: TrainSettings, path: str):
    for name in path.split("."):
        settings = getattr(settings, name)
    return settings


TRAIN_DEFAULTS: dict[str, object] = {
    "mode": STACKPROP,
    **{key: settings_field(TrainSettings(), paths[0]) for key, paths in SETTING_FIELDS.items()},
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def read_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as f:
            for i, line in enumerate(f, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{i}: expected 'key = value'")
                key, value = line.split("=", 1)
                out[key.strip().replace("-", "_")] = value.strip()
    except OSError as e:
        raise ConfigError(f"cannot read config file: {e}")
    return out


def _coerce(key: str, value):
    """``value`` as the type of ``key``'s default, or a ConfigError. A value
    is read from its text, so a manifest's JSON value converts as the same
    text in a config file would (``16.5`` is no int)."""
    template = TRAIN_DEFAULTS[key]
    if isinstance(template, bool):
        if isinstance(value, bool):
            return value
        if str(value).lower() in ("1", "true", "yes", "on"):
            return True
        if str(value).lower() in ("0", "false", "no", "off"):
            return False
    else:
        try:
            return type(template)(str(value))
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"bad {type(template).__name__} value {value!r} for {key}")


def resolve_config(args: argparse.Namespace, file_layer: Optional[dict] = None) -> dict:
    """defaults < file layer < explicit CLI flags. The file layer is
    ``file_layer`` when given (a replayed manifest's config), else the
    ``--config`` file."""
    if file_layer is None:
        file_layer = read_config_file(args.config) if args.config else {}
    resolved = dict(TRAIN_DEFAULTS)
    for key, raw in file_layer.items():
        if key not in resolved:
            raise ConfigError(f"unknown config key {key!r}")
        resolved[key] = _coerce(key, raw)
    for key in resolved:
        cli = getattr(args, key, None)
        if cli is not None:
            resolved[key] = _coerce(key, cli)
    if resolved["mode"] not in MODES:
        raise ConfigError(f"unknown mode {resolved['mode']!r}")
    return resolved


def settings_from_config(cfg: dict) -> TrainSettings:
    """TrainSettings from a resolved flat config; every sub-config is rebuilt
    through ``replace`` so its own validation runs, and a value it rejects
    is a config error."""
    fields: dict[str, dict] = {}
    for key, paths in SETTING_FIELDS.items():
        for path in paths:
            owner, _, name = path.rpartition(".")
            fields.setdefault(owner, {})[name] = cfg[key]
    base = TrainSettings()
    try:
        subs = {
            owner: replace(getattr(base, owner), **f) for owner, f in fields.items() if owner
        }
        return replace(base, **fields[""], **subs)
    except StackpropError as e:
        raise ConfigError(str(e)) from None


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def load_corpus(path: str) -> list[Sentence]:
    try:
        with open(path, encoding="utf-8", newline="\n") as f:
            return list(read_conllu(f))
    except OSError as e:
        raise ConfigError(f"cannot read corpus {path}: {e}")


# subcommands


def cmd_train(args: argparse.Namespace) -> int:
    if args.replay:
        if args.config:
            raise ConfigError("--replay takes its config from the manifest, not --config")
        try:
            with open(args.replay, encoding="utf-8") as f:
                manifest = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read manifest {args.replay}: {e}")
        try:
            config, inputs = dict(manifest["config"]), manifest["inputs"]
            train_path = args.train or inputs["train"]["path"]
            dev_path = args.dev or inputs.get("dev", {}).get("path")
        except (KeyError, TypeError, ValueError, AttributeError) as e:
            raise ConfigError(f"malformed manifest {args.replay}: {e!r}") from None
        cfg = resolve_config(args, config)
    else:
        cfg = resolve_config(args)
        train_path, dev_path = args.train, args.dev
    if not train_path:
        raise ConfigError("--train is required")
    if not args.model:
        raise ConfigError("--model output path is required")
    settings = settings_from_config(cfg)
    train_sents = load_corpus(train_path)
    dev_sents = load_corpus(dev_path) if dev_path else None
    t0 = time.perf_counter()
    trained = trainer.train_variant(
        cfg["mode"], train_sents, dev_sents, settings,
        log_fn=lambda s: print(s, file=sys.stderr),
    )
    seconds = time.perf_counter() - t0
    model_mod.save(trained, args.model, training_meta=cfg)
    manifest = {
        "command": "train",
        "config": cfg,
        "seed": cfg["seed"],
        "inputs": {"train": {"path": train_path, "sha256": sha256_file(train_path)}},
        "model": {"path": args.model, "sha256": sha256_file(args.model)},
        "seconds": round(seconds, 3),
        "kernel_workers": kernel_workers(),
        "blas": blas_build(),
    }
    if dev_path:
        manifest["inputs"]["dev"] = {"path": dev_path, "sha256": sha256_file(dev_path)}
    manifest_path = args.manifest or args.model + ".manifest.json"
    with open(manifest_path, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    log.info("model written to %s (%.1fs)", args.model, seconds)
    return EXIT_OK


def _open_in(path: Optional[str]) -> TextIO:
    """Input split on "\n" only, as ``parse_conllu`` splits a text; stdin stays open."""
    if path in (None, "-"):
        return open(sys.stdin.fileno(), encoding="utf-8", newline="\n", closefd=False)
    return open(path, encoding="utf-8", newline="\n")


def _open_out(path: Optional[str]) -> ContextManager[TextIO]:
    return nullcontext(sys.stdout) if path in (None, "-") else open(path, "w", encoding="utf-8")


def _annotate_stream(args: argparse.Namespace, tag_only: bool) -> int:
    m = model_mod.load(args.model)
    oov = total_forms = 0
    stats = parser_mod.ParseStats()
    t0 = time.perf_counter()
    with ExitStack() as files:
        fin = files.enter_context(_open_in(args.input))
        fout = files.enter_context(_open_out(args.output))
        acts_out = (
            files.enter_context(open(args.emit_activations, "w", encoding="utf-8"))
            if args.emit_activations else None
        )
        for parsed, hidden, group_stats in parser_mod.decode_groups(
            read_conllu(fin), m, threads=args.threads, tag_only=tag_only
        ):
            stats.add(group_stats)
            for s, h in zip(parsed, hidden):
                total_forms += len(s)
                oov += sum(t.form.lower() not in m.forms for t in s.tokens)
                if acts_out:
                    _dump_activations(acts_out, s, h)
            fout.write(corpus_mod.emit_conllu(parsed, use_predicted=True))
            fout.flush()
    seconds = time.perf_counter() - t0
    if total_forms and oov / total_forms > 0.5:
        log.warning(
            "input vocabulary barely overlaps the model's (%.0f%% unknown forms); "
            "proceeding with UNKNOWN mapping", 100 * oov / total_forms,
        )
    if stats.sentences and seconds > 0:
        evals = stats.tokens + stats.parser_evals
        batching = (
            f", {stats.parser_evals / stats.parser_batches:.1f} configurations per parser forward"
            if stats.parser_batches else ""
        )
        unscored = (
            f", {100 * (stats.transitions - stats.parser_evals) / stats.transitions:.1f}%"
            " of transitions taken without a parser forward"
            if stats.transitions else ""
        )
        log.info(
            "processed %d sentences in %.2fs (%.1f sentences/s, %.1f network evals/s%s%s, "
            "%d kernel workers)",
            stats.sentences, seconds, stats.sentences / seconds, evals / seconds, batching,
            unscored, kernel_workers(),
        )
    return EXIT_OK


def _dump_activations(out: TextIO, sentence: Sentence, hidden: np.ndarray) -> None:
    for t in sentence.tokens:
        vec = "\t".join(f"{x:.6g}" for x in hidden[t.index - 1])
        out.write(f"{sentence.id}\t{t.index}\t{t.form}\t{vec}\n")


def cmd_parse(args: argparse.Namespace) -> int:
    return _annotate_stream(args, tag_only=False)


def cmd_tag(args: argparse.Namespace) -> int:
    return _annotate_stream(args, tag_only=True)


def _as_predicted(system: list[Sentence]) -> list[Sentence]:
    """Re-read a system output file: its gold columns are the predictions."""
    out = []
    for s in system:
        out.append(
            Sentence(
                [
                    replace(
                        t,
                        pred_head=t.gold_head,
                        pred_deprel=t.gold_deprel,
                        pred_upos=None if t.gold_upos == "_" else t.gold_upos,
                    )
                    for t in s.tokens
                ],
                id=s.id,
            )
        )
    return out


def cmd_eval(args: argparse.Namespace) -> int:
    gold = load_corpus(args.gold)
    system = _as_predicted(load_corpus(args.system))
    report = evaluator.attachment_scores(
        gold, system, include_punct=not args.exclude_punct
    )
    pairs = [("tokens", report.n_tokens), ("uas", f"{report.uas:.4f}"), ("las", f"{report.las:.4f}")]
    if report.pos_acc is not None:
        pairs.append(("pos_acc", f"{report.pos_acc:.4f}"))
    if args.reference_tags:
        ref = load_corpus(args.reference_tags)
        tags = [[t.gold_upos for t in s.tokens] for s in ref]
        las_err, las_rest = evaluator.cascade_breakdown(gold, system, tags)
        n_tag_errors = sum(
            1 for s, ts in zip(gold, tags) for t, r in zip(s.tokens, ts) if t.gold_upos != r
        )
        pairs.append(("las_on_tag_errors", f"{las_err:.4f}"))
        pairs.append(("las_on_rest", f"{las_rest:.4f}"))
        pairs.append(("n_tag_errors", n_tag_errors))
    if args.machine:
        for k, v in pairs:
            print(f"{k}={v}")
    else:
        width = max(len(k) for k, _ in pairs)
        for k, v in pairs:
            print(f"{k:<{width}}  {v}")
    return EXIT_OK


def cmd_jackknife(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    settings = settings_from_config(cfg)
    sentences = load_corpus(args.train)
    annotated, _, fold_models = trainer.jackknife_tags(sentences, settings, seed=cfg["seed"])
    if args.model_prefix:
        for i, fm in enumerate(fold_models):
            model_mod.save(fm, f"{args.model_prefix}.fold{i}.model")
    writable = [
        Sentence(
            [replace(t, pred_head=t.gold_head, pred_deprel=t.gold_deprel) for t in s.tokens],
            id=s.id,
        )
        for s in annotated
    ]
    with _open_out(args.output) as fout:
        fout.write(corpus_mod.emit_conllu(writable, use_predicted=True))
    return EXIT_OK


def cmd_neighbors(args: argparse.Namespace) -> int:
    m = model_mod.load(args.model)
    corpus = load_corpus(args.corpus)
    hits = evaluator.nearest_neighbors(
        m, corpus, (args.sentence - 1, args.token), args.k
    )
    q_sent = corpus[args.sentence - 1]
    print(f"query: {_context(q_sent, args.token)}")
    for rank, (si, tj, sim) in enumerate(hits, 1):
        print(f"{rank}\t{sim:+.4f}\t{_context(corpus[si], tj)}")
    return EXIT_OK


def _context(sentence: Sentence, j: int, window: int = 3) -> str:
    words = []
    for t in sentence.tokens:
        if abs(t.index - j) <= window:
            words.append(f"[{t.form}]" if t.index == j else t.form)
    return " ".join(words)


def cmd_inspect(args: argparse.Namespace) -> int:
    m = model_mod.load(args.model)
    print(f"mode          {m.mode}")
    print(f"swap          {m.system.swap}")
    print(f"joint         {m.system.joint}")
    print(f"forms         {m.forms.n_classes}")
    print(f"tags          {m.tags.n_classes}")
    print(f"labels        {m.labels.n_classes}")
    print(f"actions       {m.actions.size}")
    print(f"tagger_hidden {m.tagger_cfg.hidden}")
    print(f"parser_hidden {m.parser_cfg.hidden}")
    print(f"tagger_params {m.tagger.count_parameters()}")
    print(f"parser_params {m.parser.count_parameters()}")
    print(f"total_params  {m.count_parameters()}")
    print(f"tagger_steps  {m.tagger.step}")
    print(f"parser_steps  {m.parser.step}")
    return EXIT_OK


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_arg_parser() -> _Parser:
    p = _Parser(prog="stackprop", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_train_flags(sp):
        sp.add_argument("--config", help="key = value config file")
        sp.add_argument("--mode", choices=MODES)
        for key, paths in SETTING_FIELDS.items():
            flag, default = f"--{key.replace('_', '-')}", TRAIN_DEFAULTS[key]
            sets = f"sets {', '.join(paths)} (default {default!r})"
            if isinstance(default, bool):
                sp.add_argument(flag, dest=key, action="store_const", const=True, help=sets)
            else:
                sp.add_argument(flag, dest=key, type=type(default), help=sets)

    sp = sub.add_parser("train", help="train a model")
    sp.add_argument("--train", help="training CoNLL-U file")
    sp.add_argument("--dev", help="development CoNLL-U file (early stopping)")
    sp.add_argument("--model", help="output model path")
    sp.add_argument("--manifest", help="manifest path (default: <model>.manifest.json)")
    sp.add_argument("--replay", help="re-run from a training manifest")
    add_train_flags(sp)
    sp.set_defaults(func=cmd_train)

    for name, func, help_text in (
        ("parse", cmd_parse, "parse CoNLL-U, writing predicted heads/labels"),
        ("tag", cmd_tag, "tag CoNLL-U, writing predicted UPOS"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--model", required=True)
        sp.add_argument("--input", help="input file (default stdin)")
        sp.add_argument("--output", help="output file (default stdout)")
        sp.add_argument("--threads", type=positive_int, default=1)
        sp.add_argument("--emit-activations", dest="emit_activations",
                        help="dump per-token hidden vectors to this file")
        sp.set_defaults(func=func)

    sp = sub.add_parser("eval", help="score a system output against gold")
    sp.add_argument("--gold", required=True)
    sp.add_argument("--system", required=True)
    sp.add_argument("--exclude-punct", action="store_true")
    sp.add_argument("--machine", action="store_true", help="key=value output")
    sp.add_argument("--reference-tags",
                    help="CoNLL-U with reference tags for the cascade breakdown")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("jackknife", help="k-fold jackknife tagging")
    sp.add_argument("--train", required=True)
    sp.add_argument("--output", required=True, help="merged tagged corpus")
    sp.add_argument("--model-prefix", dest="model_prefix",
                    help="write fold models as <prefix>.foldN.model")
    add_train_flags(sp)
    sp.set_defaults(func=cmd_jackknife)

    sp = sub.add_parser("neighbors", help="nearest tokens in activation space")
    sp.add_argument("--model", required=True)
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--sentence", type=int, required=True, help="1-based sentence number")
    sp.add_argument("--token", type=int, required=True, help="1-based token index")
    sp.add_argument("-k", type=positive_int, default=3, help="neighbours to print (at least 1)")
    sp.set_defaults(func=cmd_neighbors)

    sp = sub.add_parser("inspect-model", help="print model metadata")
    sp.add_argument("--model", required=True)
    sp.set_defaults(func=cmd_inspect)
    return p


def main(argv: Optional[list[str]] = None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s"
    )
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        log.error("%s", e)
        return EXIT_USAGE
    except ModelError as e:
        log.error("%s", e)
        return EXIT_MODEL
    except (CorpusError, StackpropError) as e:
        log.error("%s", e)
        return EXIT_DATA
    except OSError as e:
        log.error("%s", e)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
