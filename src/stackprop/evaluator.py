"""Attachment/tagging metrics, cascaded-error breakdown, significance
testing, and nearest neighbors in the tagger's contextual embedding space."""

from __future__ import annotations

import math
import unicodedata
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.stats import t as student_t

from stackprop.corpus import Sentence
from stackprop.errors import StackpropError
from stackprop.model import StackedModel
from stackprop.tagger import tag_sentences


@dataclass
class EvalReport:
    uas: float
    las: float
    pos_acc: Optional[float]
    n_tokens: int
    per_sentence: list[tuple[float, float]]  # (uas, las) per sentence
    # LAS split by whether a reference tagger erred on the token
    las_on_tag_errors: Optional[float] = None
    las_on_rest: Optional[float] = None
    n_tag_errors: int = 0


def is_punctuation(token) -> bool:
    """PUNCT by gold tag, else a token made only of Unicode P* characters."""
    if token.gold_upos not in ("", "_"):
        return token.gold_upos == "PUNCT"
    return bool(token.form) and all(
        unicodedata.category(ch).startswith("P") for ch in token.form
    )


def _check_aligned(gold: list[Sentence], predicted: list[Sentence]) -> None:
    """A StackpropError unless both corpora hold the same sentences of the
    same forms."""
    if len(gold) != len(predicted):
        raise StackpropError(
            f"corpus size mismatch: {len(gold)} gold vs {len(predicted)} predicted"
        )
    for g, p in zip(gold, predicted):
        if len(g) != len(p) or any(gt.form != pt.form for gt, pt in zip(g.tokens, p.tokens)):
            raise StackpropError(f"tokenization mismatch in sentence {g.id}")


def attachment_scores(
    gold: list[Sentence], predicted: list[Sentence], include_punct: bool = True
) -> EvalReport:
    """UAS/LAS (and POS accuracy when predicted tags are present) over a
    corpus; punctuation tokens are dropped when ``include_punct`` is off."""
    _check_aligned(gold, predicted)
    n_tokens = 0
    head_ok = 0
    both_ok = 0
    tag_ok = 0
    tag_seen = 0
    per_sentence = []
    for g, p in zip(gold, predicted):
        s_total = s_head = s_both = 0
        for gt, pt in zip(g.tokens, p.tokens):
            if not include_punct and is_punctuation(gt):
                continue
            if pt.pred_head is None or pt.pred_deprel is None:
                raise StackpropError(
                    f"sentence {g.id}: token {pt.index} has no predicted head"
                )
            s_total += 1
            if pt.pred_head == gt.gold_head:
                s_head += 1
                if pt.pred_deprel == gt.gold_deprel:
                    s_both += 1
            if pt.pred_upos is not None:
                tag_seen += 1
                if pt.pred_upos == gt.gold_upos:
                    tag_ok += 1
        n_tokens += s_total
        head_ok += s_head
        both_ok += s_both
        per_sentence.append(
            (s_head / s_total, s_both / s_total) if s_total else (1.0, 1.0)
        )
    if n_tokens == 0:
        raise StackpropError("no scorable tokens")
    return EvalReport(
        uas=head_ok / n_tokens,
        las=both_ok / n_tokens,
        pos_acc=tag_ok / tag_seen if tag_seen else None,
        n_tokens=n_tokens,
        per_sentence=per_sentence,
    )


def tag_accuracy(gold: list[Sentence], predicted: list[Sentence]) -> float:
    _check_aligned(gold, predicted)
    total = ok = 0
    for g, p in zip(gold, predicted):
        for gt, pt in zip(g.tokens, p.tokens):
            if pt.pred_upos is None:
                raise StackpropError(f"sentence {g.id}: token {pt.index} untagged")
            total += 1
            ok += pt.pred_upos == gt.gold_upos
    if total == 0:
        raise StackpropError("no tokens to score")
    return ok / total


def cascade_breakdown(
    gold: list[Sentence],
    parsed: list[Sentence],
    reference_tags: list[list[str]],
) -> tuple[float, float]:
    """LAS partitioned by whether a reference tagger mistagged the token.

    Returns (LAS on mistagged tokens, LAS on the rest); an empty partition
    scores 0 (by convention there is nothing to get right there).
    """
    sizes = (len(gold), len(parsed), len(reference_tags))
    if len(set(sizes)) > 1:
        raise StackpropError(f"corpus size mismatch: {sizes} gold/parsed/reference sentences")
    err_total = err_ok = rest_total = rest_ok = 0
    for g, p, tags in zip(gold, parsed, reference_tags):
        if len(tags) != len(g):
            raise StackpropError(f"sentence {g.id}: reference tags misaligned")
        for gt, pt, ref in zip(g.tokens, p.tokens, tags):
            correct = pt.pred_head == gt.gold_head and pt.pred_deprel == gt.gold_deprel
            if ref != gt.gold_upos:
                err_total += 1
                err_ok += correct
            else:
                rest_total += 1
                rest_ok += correct
    return (
        err_ok / err_total if err_total else 0.0,
        rest_ok / rest_total if rest_total else 0.0,
    )


def paired_t_statistic(diffs: np.ndarray) -> tuple[float, int]:
    """Classic paired t statistic and degrees of freedom for a difference
    vector."""
    n = diffs.shape[0]
    mean = diffs.mean()
    sd = math.sqrt(diffs.var(ddof=1))
    if sd == 0.0:
        return 0.0, n - 1
    return mean / (sd / math.sqrt(n)), n - 1


def paired_significance(report_a: EvalReport, report_b: EvalReport) -> float:
    """Two-sided paired t-test p-value on per-sentence LAS differences.

    Zero-variance differences are degenerate for the t statistic: identical
    reports yield p = 1.0, a constant nonzero difference yields p = 0.0.
    """
    if len(report_a.per_sentence) != len(report_b.per_sentence):
        raise StackpropError("reports cover different sentence sets")
    if len(report_a.per_sentence) < 2:
        raise StackpropError("need at least 2 sentences for a paired test")
    diffs = np.array(
        [a[1] - b[1] for a, b in zip(report_a.per_sentence, report_b.per_sentence)]
    )
    if diffs.var(ddof=1) == 0.0:
        return 1.0 if diffs.mean() == 0.0 else 0.0
    stat, dof = paired_t_statistic(diffs)
    return float(2.0 * student_t.sf(abs(stat), dof))


def nearest_neighbors(
    model: StackedModel,
    corpus: list[Sentence],
    query: tuple[int, int],
    k: int,
) -> list[tuple[int, int, float]]:
    """The k corpus tokens most similar to the query token under cosine
    similarity of tagger hidden activations.

    ``query`` is (sentence index, 1-based token index). The query token
    itself is excluded; ties break toward corpus order.
    """
    if not corpus:
        raise StackpropError("empty corpus")
    keys = [(si, tj) for si, sent in enumerate(corpus) for tj in range(1, len(sent) + 1)]
    try:
        q_row = keys.index(query)
    except ValueError:
        raise StackpropError(f"query token {query} not in corpus")
    _, acts = tag_sentences(corpus, model.tagger, model.tvocabs, model.tags)
    mat = acts.hidden
    q = mat[q_row]
    norms = np.linalg.norm(mat, axis=1) * max(np.linalg.norm(q), 1e-12)
    norms = np.maximum(norms, 1e-12)
    sims = (mat @ q) / norms
    order = sorted(
        (i for i in range(len(keys)) if i != q_row),
        key=lambda i: (-sims[i], i),
    )
    return [(keys[i][0], keys[i][1], float(sims[i])) for i in order[:k]]
