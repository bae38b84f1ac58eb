"""Stacked tagger+parser: a greedy transition-based dependency parser whose
token representations are the hidden activations of a window-based POS
tagger, trained with interleaved tagging and parsing updates."""

__version__ = "0.1.0"

from stackprop.corpus import Sentence, Token, Vocab, emit_conllu, parse_conllu, read_conllu
from stackprop.model import StackedModel, build_model, load, save
from stackprop.parser import parse_corpus, parse_sentence
from stackprop.trainer import TrainSettings, TrainingSchedule, train_variant

__all__ = [
    "Sentence",
    "Token",
    "Vocab",
    "parse_conllu",
    "read_conllu",
    "emit_conllu",
    "StackedModel",
    "build_model",
    "save",
    "load",
    "parse_sentence",
    "parse_corpus",
    "TrainSettings",
    "TrainingSchedule",
    "train_variant",
    "__version__",
]
