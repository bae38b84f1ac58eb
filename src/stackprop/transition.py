"""Arc-standard transition system with optional SWAP and tag-augmented SHIFT.

A configuration is one mutable record: ``apply`` changes it in place, and
every read that featurization or the oracle makes costs O(1). The static
oracle unrolls gold trees into derivations whose steps carry the featurized
configuration (template tokens and label ids) and the gold action, the
offline training examples.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from stackprop.corpus import NULL_ID, Sentence, Vocab, projective_order
from stackprop.errors import StackpropError, UnrollError

SHIFT = "SHIFT"
LEFT_ARC = "LEFT_ARC"
RIGHT_ARC = "RIGHT_ARC"
SWAP = "SWAP"
SHIFT_TAG = "SHIFT_TAG"

ROOT = 0  # stack sentinel; never a token index
NULL_TOKEN = -1  # template slot with no token (or the root sentinel)
N_TOKEN_TEMPLATES = 20
N_LABEL_TEMPLATES = 12


@dataclass(frozen=True)
class TransitionSystem:
    swap: bool = False
    joint: bool = False


@dataclass(frozen=True)
class Action:
    kind: str
    label: Optional[int] = None  # label vocab id, arc actions only
    tag: Optional[int] = None  # tag vocab id, SHIFT_TAG only

    def __post_init__(self):
        if (self.label is not None) != (self.kind in (LEFT_ARC, RIGHT_ARC)):
            raise StackpropError(f"label mismatch for action kind {self.kind}")
        if (self.tag is not None) != (self.kind == SHIFT_TAG):
            raise StackpropError(f"tag mismatch for action kind {self.kind}")


class ParserConfiguration:
    """Stack (bottom..top, sentinel 0 at bottom), buffer and partial tree of
    an ``n``-token sentence. ``queue`` holds the buffer front last, so SHIFT
    and SWAP are O(1). ``head``/``label`` are indexed by token (-1 and
    NULL_ID while unattached); ``left``/``right`` list each head's
    dependents on either side in surface order. ``tags`` maps each token to
    the tag its last SHIFT_TAG assigned in the joint system."""

    __slots__ = ("stack", "queue", "head", "label", "left", "right", "tags")

    def __init__(self, n: int):
        self.stack = [ROOT]
        self.queue = list(range(n, 0, -1))
        self.head = [-1] * (n + 1)
        self.label = [NULL_ID] * (n + 1)
        self.left: list[list[int]] = [[] for _ in range(n + 1)]
        self.right: list[list[int]] = [[] for _ in range(n + 1)]
        self.tags: dict[int, int] = {}

    @property
    def buffer(self) -> tuple[int, ...]:
        return tuple(reversed(self.queue))

    @property
    def arcs(self) -> frozenset[tuple[int, int, int]]:
        """The (head, label_id, dependent) triples built so far."""
        return frozenset((h, self.label[d], d) for d, h in enumerate(self.head) if h >= 0)

    def __repr__(self) -> str:
        return f"ParserConfiguration(stack={self.stack}, buffer={list(self.buffer)})"


def initial(sentence: Sentence) -> ParserConfiguration:
    if len(sentence) == 0:
        raise StackpropError("cannot initialize a configuration for an empty sentence")
    return ParserConfiguration(len(sentence))


def is_terminal(c: ParserConfiguration) -> bool:
    return len(c.stack) == 1 and not c.queue


def legal_actions(c: ParserConfiguration, system: TransitionSystem) -> set[str]:
    """Legal action kinds for a configuration.

    SWAP permissibility follows the surface-order rule: the second-top element
    must be a non-root token that precedes the top in the original sentence,
    which bounds the number of swaps and is decidable without gold trees.
    """
    kinds: set[str] = set()
    if c.queue:
        kinds.add(SHIFT_TAG if system.joint else SHIFT)
    if len(c.stack) >= 2:
        s0, s1 = c.stack[-1], c.stack[-2]
        if s1 != ROOT:
            kinds.add(LEFT_ARC)
        kinds.add(RIGHT_ARC)
        if system.swap and s1 != ROOT and s1 < s0:
            kinds.add(SWAP)
    return kinds


def apply(c: ParserConfiguration, a: Action, system: TransitionSystem) -> ParserConfiguration:
    """Apply a legal action to ``c`` in place; returns ``c``."""
    kind = a.kind
    if kind not in legal_actions(c, system):
        raise StackpropError(f"illegal action {a} in configuration {c}")
    stack = c.stack
    if kind == SHIFT or kind == SHIFT_TAG:
        token = c.queue.pop()
        stack.append(token)
        if kind == SHIFT_TAG:
            c.tags[token] = a.tag
        return c
    if kind == SWAP:  # second-top goes back to the buffer front
        c.queue.append(stack.pop(-2))
        return c
    dep = stack.pop(-2) if kind == LEFT_ARC else stack.pop()
    head = stack[-1]
    c.head[dep] = head
    c.label[dep] = a.label
    insort(c.left[head] if dep < head else c.right[head], dep)
    return c


def feature_tokens(c: ParserConfiguration) -> list[int]:
    """The 20 template token indices for a configuration (-1 for NULL).

    Layout: four top stack slots, four buffer slots, then for each of the two
    top stack tokens the leftmost/rightmost and second-leftmost/-rightmost
    children, then leftmost-of-leftmost and rightmost-of-rightmost.
    """
    stack, queue, left, right = c.stack, c.queue, c.left, c.right
    out = [NULL_TOKEN] * N_TOKEN_TEMPLATES
    for i, token in enumerate(reversed(stack[-4:])):
        if token != ROOT:
            out[i] = token
    for i, token in enumerate(reversed(queue[-4:])):
        out[4 + i] = token
    for si, token in enumerate(reversed(stack[-2:])):
        if token == ROOT:
            continue
        base = 8 + 4 * si
        lc, rc = left[token], right[token]
        if lc:
            out[base] = lc[0]
            if len(lc) > 1:
                out[base + 2] = lc[1]
            if left[lc[0]]:
                out[16 + 2 * si] = left[lc[0]][0]
        if rc:
            out[base + 1] = rc[-1]
            if len(rc) > 1:
                out[base + 3] = rc[-2]
            if right[rc[-1]]:
                out[17 + 2 * si] = right[rc[-1]][-1]
    return out


def label_features(c: ParserConfiguration, tokens: Optional[list[int]] = None) -> list[int]:
    """Label vocab ids of the 12 child template slots (NULL id when empty)."""
    if tokens is None:
        tokens = feature_tokens(c)
    label = c.label
    return [NULL_ID if t == NULL_TOKEN else label[t] for t in tokens[8:]]


def template_rows(tokens: Sequence[Sequence[int]], bases: Sequence[int]) -> np.ndarray:
    """(B, 20) rows of the per-token tables: token ``t`` of step ``i`` is
    row ``bases[i] + t - 1`` (``bases[i]`` is its sentence's first row);
    empty slots stay -1."""
    t = np.array(tokens, dtype=np.int64).reshape(-1, N_TOKEN_TEMPLATES)
    shift = np.asarray(bases, dtype=np.int64)[:, None] - 1
    return np.where(t != NULL_TOKEN, t + shift, NULL_TOKEN)


def featurize(
    configs: Sequence[ParserConfiguration], bases: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """(B, 20) template rows (``template_rows``) and (B, 12) label ids of B
    configurations; ``configs[i]`` belongs to the sentence whose first token
    is row ``bases[i]`` of the per-token tables."""
    tokens = [feature_tokens(c) for c in configs]
    labels = [label_features(c, t) for c, t in zip(configs, tokens)]
    labels = np.array(labels, dtype=np.int64).reshape(-1, N_LABEL_TEMPLATES)
    return template_rows(tokens, bases), labels


def oracle(
    c: ParserConfiguration,
    gold: Sentence,
    system: TransitionSystem,
    labels: Vocab,
    tags: Optional[Vocab] = None,
    porder: Optional[dict[int, int]] = None,
    n_deps: Optional[Counter] = None,
) -> Action:
    """Static-oracle action for a configuration reachable from gold replay.

    Priority: LEFT_ARC/RIGHT_ARC once the dependent-to-be has collected all
    of its own dependents, then (eagerly) SWAP when the top two tokens are
    inverted with respect to the projective order, then SHIFT. The guard on
    LEFT_ARC matters only under SWAP, where stack order can put a token next
    to its head before the token's buffer-side dependents have attached.
    ``porder`` (``projective_order``) and ``n_deps`` (gold dependents per
    head) are computed when not given. A gold replay builds gold arcs only,
    so a token with as many dependents as in the gold tree is complete.
    """
    if n_deps is None:
        n_deps = Counter(t.gold_head for t in gold.tokens)

    def complete(token: int) -> bool:
        return len(c.left[token]) + len(c.right[token]) == n_deps[token]

    if len(c.stack) >= 2:
        s0, s1 = c.stack[-1], c.stack[-2]
        if s1 != ROOT and gold.token(s1).gold_head == s0 and complete(s1):
            return Action(LEFT_ARC, label=labels.id_of(gold.token(s1).gold_deprel))
        if gold.token(s0).gold_head == s1 and complete(s0):
            return Action(RIGHT_ARC, label=labels.id_of(gold.token(s0).gold_deprel))
        if system.swap and s1 != ROOT and s1 < s0:
            if porder is None:
                porder = projective_order(gold)
            if porder[s1] > porder[s0]:
                return Action(SWAP)
    if c.queue:
        if system.joint:
            if tags is None:
                raise StackpropError("joint oracle needs a tag vocabulary")
            return Action(SHIFT_TAG, tag=tags.id_of(gold.token(c.queue[-1]).gold_upos))
        return Action(SHIFT)
    raise UnrollError(
        f"no oracle action for sentence {gold.id} at {c} "
        "(non-projective tree without SWAP?)"
    )


@dataclass
class Derivation:
    """An oracle derivation: each step is the configuration's template
    tokens (``feature_tokens``), its label ids (``label_features``) and the
    gold action taken from it."""

    sentence_id: str
    steps: list[tuple[list[int], list[int], Action]]

    def __len__(self) -> int:
        return len(self.steps)

    def actions(self) -> list[Action]:
        return [a for _, _, a in self.steps]


def unroll(
    gold: Sentence,
    system: TransitionSystem,
    labels: Vocab,
    tags: Optional[Vocab] = None,
) -> Derivation:
    """Unroll a gold tree into its oracle derivation, featurizing each
    configuration before its action is applied.

    Arc-standard derivations have exactly 2n steps; SWAP adds at most one
    step per inverted token pair, which bounds the loop.
    """
    n = len(gold)
    porder = projective_order(gold) if system.swap else None
    n_deps = Counter(t.gold_head for t in gold.tokens)
    limit = 2 * n + n * (n - 1) // 2 + 1
    c = initial(gold)
    steps: list[tuple[list[int], list[int], Action]] = []
    while not is_terminal(c):
        if len(steps) >= limit:
            raise UnrollError(f"derivation for sentence {gold.id} did not terminate")
        a = oracle(c, gold, system, labels, tags, porder, n_deps)
        tokens = feature_tokens(c)
        steps.append((tokens, label_features(c, tokens), a))
        apply(c, a, system)
    return Derivation(gold.id, steps)


def replay(
    gold: Sentence, actions: list[Action], system: TransitionSystem
) -> ParserConfiguration:
    """Apply an action sequence from the initial configuration."""
    c = initial(gold)
    for a in actions:
        apply(c, a, system)
    return c


class ActionSpace:
    """Fixed enumeration of scorable actions for one transition system.

    Index layout: the shift block first (a single SHIFT, or one SHIFT_TAG per
    tag class in the joint system), then LEFT_ARC per label class, then
    RIGHT_ARC per label class, then SWAP when enabled.
    """

    def __init__(
        self,
        labels: Vocab,
        tag_vocab: Optional[Vocab],
        system: TransitionSystem,
        root_label: int,
        root_exclusive: bool = False,
    ):
        self.system = system
        self.labels = labels
        self.tags = tag_vocab
        self.root_label = root_label
        self.root_exclusive = root_exclusive
        self.n_shift = tag_vocab.n_classes if system.joint else 1
        if system.joint and tag_vocab is None:
            raise StackpropError("joint action space needs a tag vocabulary")
        self.n_labels = labels.n_classes
        self.size = self.n_shift + 2 * self.n_labels + (1 if system.swap else 0)
        self._left0 = self.n_shift
        self._right0 = self.n_shift + self.n_labels
        self._swap = self.size - 1 if system.swap else -1

    def encode(self, a: Action) -> int:
        if a.kind == SHIFT:
            return 0
        if a.kind == SHIFT_TAG:
            return a.tag - 2
        if a.kind == LEFT_ARC:
            return self._left0 + (a.label - 2)
        if a.kind == RIGHT_ARC:
            return self._right0 + (a.label - 2)
        return self._swap

    def decode(self, idx: int) -> Action:
        if idx < self.n_shift:
            if self.system.joint:
                return Action(SHIFT_TAG, tag=idx + 2)
            return Action(SHIFT)
        if idx < self._right0:
            return Action(LEFT_ARC, label=idx - self._left0 + 2)
        if self.system.swap and idx == self._swap:
            return Action(SWAP)
        return Action(RIGHT_ARC, label=idx - self._right0 + 2)

    def legal_mask(self, c: ParserConfiguration) -> np.ndarray:
        """Boolean mask over action indices, including root rules: a token
        attaches under the sentinel only once the buffer is empty, so a
        greedy decode yields a single root; that attachment takes the
        dedicated root label, and a root-exclusive label is masked everywhere
        else. ``legal_actions`` keeps the unrestricted kinds, so gold trees
        with several root attachments still unroll."""
        mask = np.zeros(self.size, dtype=bool)
        kinds = legal_actions(c, self.system)
        if SHIFT in kinds or SHIFT_TAG in kinds:
            mask[: self.n_shift] = True
        if LEFT_ARC in kinds or RIGHT_ARC in kinds:
            s1 = c.stack[-2]
            label_ok = np.ones(self.n_labels, dtype=bool)
            if self.root_exclusive and self.root_label >= 2:
                label_ok[self.root_label - 2] = False
            if LEFT_ARC in kinds:
                mask[self._left0 : self._left0 + self.n_labels] = label_ok
            if s1 != ROOT:
                mask[self._right0 : self._right0 + self.n_labels] = label_ok
            elif not c.queue:
                if self.root_exclusive and self.root_label >= 2:
                    mask[self._right0 + self.root_label - 2] = True
                else:
                    mask[self._right0 : self._right0 + self.n_labels] = label_ok
        if SWAP in kinds:
            mask[self._swap] = True
        return mask
