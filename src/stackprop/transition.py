"""Arc-standard transition system with optional SWAP and tag-augmented SHIFT.

A configuration is one mutable record: ``apply`` changes it in place, and
every read that featurization or the oracle makes costs O(1). The static
oracle unrolls gold trees into derivations whose steps carry the featurized
configuration (template tokens and label ids) and the gold action, the
offline training examples.
"""

from __future__ import annotations

from bisect import insort
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
KINDS = (SHIFT, SHIFT_TAG, LEFT_ARC, RIGHT_ARC, SWAP)

ROOT = 0  # stack sentinel; never a token index
NULL_TOKEN = -1  # template slot with no token (or the root sentinel)
N_TOKEN_TEMPLATES = 20
N_LABEL_TEMPLATES = 12
_NULLS = [NULL_TOKEN] * N_TOKEN_TEMPLATES


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


# the actions that carry no label or tag, shared by every derivation and space
SHIFT_ACTION = Action(SHIFT)
SWAP_ACTION = Action(SWAP)


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


def is_legal(c: ParserConfiguration, kind: str, system: TransitionSystem) -> bool:
    """Whether an action of ``kind`` applies to ``c``: the one legality rule
    that ``apply`` and ``ActionSpace.legal_mask`` read.

    SWAP permissibility follows the surface-order rule: the second-top element
    must be a non-root token that precedes the top in the original sentence,
    which bounds the number of swaps and is decidable without gold trees.
    """
    if kind == SHIFT or kind == SHIFT_TAG:
        return bool(c.queue) and (kind == SHIFT_TAG) == system.joint
    stack = c.stack
    if len(stack) < 2:
        return False
    if kind == RIGHT_ARC:
        return True
    s1 = stack[-2]
    if kind == LEFT_ARC:
        return s1 != ROOT
    return kind == SWAP and system.swap and ROOT != s1 < stack[-1]


def apply(c: ParserConfiguration, a: Action, system: TransitionSystem) -> ParserConfiguration:
    """Apply a legal action to ``c`` in place; returns ``c``."""
    kind = a.kind
    if not is_legal(c, kind, system):
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
    depth = len(stack)
    out = stack[:-5:-1]  # the top four stack slots, top first
    if depth <= 4:  # the root sentinel is among the top four
        out[depth - 1 :] = _NULLS[: 5 - depth]
    out += queue[:-5:-1]
    out += _NULLS[: N_TOKEN_TEMPLATES - len(out)]
    for si in (0, 1)[: depth - 1]:  # the top two stack slots that hold tokens
        token = out[si]
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


def label_features(c: ParserConfiguration, tokens: list[int]) -> list[int]:
    """Label vocab ids of the 12 child template slots (NULL id when empty),
    from the configuration's ``feature_tokens``."""
    label = c.label
    return [NULL_ID if t == NULL_TOKEN else label[t] for t in tokens[8:]]


def template_rows(tokens: Sequence[int], bases: Sequence[int]) -> np.ndarray:
    """(B, 20) rows of the per-token tables from B steps' template tokens,
    concatenated: token ``t`` of step ``i`` is row ``bases[i] + t - 1``
    (``bases[i]`` is its sentence's first row); empty slots stay -1."""
    t = np.array(tokens, dtype=np.int64).reshape(-1, N_TOKEN_TEMPLATES)
    shift = np.asarray(bases, dtype=np.int64)[:, None] - 1
    return np.where(t != NULL_TOKEN, t + shift, NULL_TOKEN)


def featurize(
    configs: Sequence[ParserConfiguration], bases: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """(B, 20) template rows (``template_rows``) and (B, 12) label ids of B
    configurations; ``configs[i]`` belongs to the sentence whose first token
    is row ``bases[i]`` of the per-token tables."""
    tokens: list[int] = []
    labels: list[int] = []
    for c in configs:
        step_tokens = feature_tokens(c)
        tokens += step_tokens
        labels += label_features(c, step_tokens)
    return (
        template_rows(tokens, bases),
        np.array(labels, dtype=np.int64).reshape(-1, N_LABEL_TEMPLATES),
    )


@dataclass
class GoldRecord:
    """What the static oracle reads of one gold tree, indexed by token (0 is
    the root sentinel): gold heads, each head's number of gold dependents,
    the LEFT_ARC and RIGHT_ARC actions that attach each token with its gold
    label, the action that shifts each token (SHIFT, or SHIFT_TAG with its
    gold tag in the joint system) and, under SWAP only, each token's
    ``projective_order`` rank. The actions are those of an ``ActionSpace``,
    so a derivation builds none."""

    head: list[int]
    n_deps: list[int]
    left_arc: list[Optional[Action]]
    right_arc: list[Optional[Action]]
    shift: list[Optional[Action]]
    porder: Optional[list[int]]


def gold_record(gold: Sentence, space: ActionSpace) -> GoldRecord:
    """The oracle's ``GoldRecord`` of a sentence over ``space``; a gold label
    or tag outside the space raises ``StackpropError``."""
    system, actions, index = space.system, space.actions, space.index
    n = len(gold)
    head, n_deps = [-1], [0] * (n + 1)
    # the sentinel (index 0) is never attached or shifted
    left_arc: list[Optional[Action]] = [None]
    right_arc: list[Optional[Action]] = [None]
    shift: list[Optional[Action]] = [None] + [SHIFT_ACTION] * n
    for d, t in enumerate(gold.tokens, start=1):
        head.append(t.gold_head)
        n_deps[t.gold_head] += 1
        label = space.labels.id_of(t.gold_deprel)
        left_arc.append(actions[index(LEFT_ARC, label=label)])
        right_arc.append(actions[index(RIGHT_ARC, label=label)])
        if system.joint:
            shift[d] = actions[index(SHIFT_TAG, tag=space.tags.id_of(t.gold_upos))]
    porder = None
    if system.swap:
        porder = [0] * (n + 1)
        for token, rank in projective_order(gold).items():
            porder[token] = rank
    return GoldRecord(head, n_deps, left_arc, right_arc, shift, porder)


def oracle(
    c: ParserConfiguration, gold: Sentence, system: TransitionSystem, record: GoldRecord
) -> Action:
    """Static-oracle action for a configuration reachable from gold replay.

    Priority: LEFT_ARC/RIGHT_ARC once the dependent-to-be has collected all
    of its own dependents, then (eagerly) SWAP when the top two tokens are
    inverted with respect to the projective order, then SHIFT. The guard on
    LEFT_ARC matters only under SWAP, where stack order can put a token next
    to its head before the token's buffer-side dependents have attached.
    The oracle reads ``record``, the ``gold_record`` of ``gold``. A gold
    replay builds gold arcs only, so a token with as many dependents as in
    the gold tree is complete.
    """
    stack = c.stack
    if len(stack) >= 2:
        s0, s1 = stack[-1], stack[-2]
        head, n_deps, left, right = record.head, record.n_deps, c.left, c.right
        if s1 != ROOT and head[s1] == s0 and len(left[s1]) + len(right[s1]) == n_deps[s1]:
            return record.left_arc[s1]
        if head[s0] == s1 and len(left[s0]) + len(right[s0]) == n_deps[s0]:
            return record.right_arc[s0]
        if system.swap and ROOT != s1 < s0 and record.porder[s1] > record.porder[s0]:
            return SWAP_ACTION
    if c.queue:
        return record.shift[c.queue[-1]]
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
    space: Optional[ActionSpace] = None,
) -> Derivation:
    """Unroll a gold tree into its oracle derivation, featurizing each
    configuration before its action is applied. The steps carry the actions
    of ``space``, the ``ActionSpace`` over ``labels``, ``tags`` and
    ``system`` (built when not given).

    Arc-standard derivations have exactly 2n steps; SWAP adds at most one
    step per inverted token pair, which bounds the loop.
    """
    n = len(gold)
    record = gold_record(gold, space or ActionSpace(labels, tags, system, NULL_ID))
    limit = 2 * n + n * (n - 1) // 2 + 1
    c = initial(gold)
    steps: list[tuple[list[int], list[int], Action]] = []
    while len(c.stack) > 1 or c.queue:  # not is_terminal(c)
        if len(steps) >= limit:
            raise UnrollError(f"derivation for sentence {gold.id} did not terminate")
        a = oracle(c, gold, system, record)
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
    RIGHT_ARC per label class, then SWAP when enabled. ``actions`` holds
    each action once, in index order.
    """

    def __init__(
        self,
        labels: Vocab,
        tag_vocab: Optional[Vocab],
        system: TransitionSystem,
        root_label: int,
        root_exclusive: bool = False,
    ):
        if system.joint and tag_vocab is None:
            raise StackpropError("joint action space needs a tag vocabulary")
        self.system = system
        self.labels = labels
        self.tags = tag_vocab
        self.root_label = root_label
        self.root_exclusive = root_exclusive
        self.n_shift = tag_vocab.n_classes if system.joint else 1
        self.n_labels = labels.n_classes
        label_ids = range(2, 2 + self.n_labels)
        self.actions = [
            *([Action(SHIFT_TAG, tag=k) for k in range(2, 2 + self.n_shift)]
              if system.joint else [SHIFT_ACTION]),
            *(Action(LEFT_ARC, label=k) for k in label_ids),
            *(Action(RIGHT_ARC, label=k) for k in label_ids),
            *([SWAP_ACTION] if system.swap else []),
        ]
        self.size = len(self.actions)
        self._index = {(a.kind, a.label, a.tag): i for i, a in enumerate(self.actions)}
        self._shift_kind = SHIFT_TAG if system.joint else SHIFT
        self._left0 = self.n_shift
        self._right0 = self.n_shift + self.n_labels
        # the labels an arc may take: all but a root-exclusive root label,
        # and an attachment under the sentinel takes only that label
        exclusive = root_exclusive and root_label >= 2
        self._arc_labels = np.ones(self.n_labels, dtype=bool)
        self._root_labels = np.ones(self.n_labels, dtype=bool)
        if exclusive:
            self._arc_labels[root_label - 2] = False
            self._root_labels[:] = ~self._arc_labels

    def index(self, kind: str, label: Optional[int] = None, tag: Optional[int] = None) -> int:
        """Index of the action with these fields; ``StackpropError`` when
        the space has none (an UNKNOWN or unseen label or tag, SWAP without
        SWAP, a SHIFT kind of the other system)."""
        i = self._index.get((kind, label, tag))
        if i is None:
            raise StackpropError(
                f"no {kind} action with label id {label} and tag id {tag} in the action space"
            )
        return i

    def encode(self, a: Action) -> int:
        return self.index(a.kind, a.label, a.tag)

    def decode(self, idx: int) -> Action:
        return self.actions[idx]

    def legal_mask(self, c: ParserConfiguration) -> np.ndarray:
        """Boolean mask over action indices, including root rules: a token
        attaches under the sentinel only once the buffer is empty, so a
        greedy decode yields a single root; that attachment takes the
        dedicated root label, and a root-exclusive label is masked everywhere
        else. ``is_legal`` keeps the unrestricted kinds, so gold trees with
        several root attachments still unroll."""
        mask = np.zeros(self.size, dtype=bool)
        system = self.system
        if is_legal(c, self._shift_kind, system):
            mask[: self.n_shift] = True
        if is_legal(c, LEFT_ARC, system):
            mask[self._left0 : self._right0] = self._arc_labels
        if is_legal(c, RIGHT_ARC, system):
            if c.stack[-2] != ROOT:
                mask[self._right0 : self._right0 + self.n_labels] = self._arc_labels
            elif not c.queue:
                mask[self._right0 : self._right0 + self.n_labels] = self._root_labels
        if is_legal(c, SWAP, system):
            mask[-1] = True
        return mask
