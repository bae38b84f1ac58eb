"""Arc-standard transition system with optional SWAP and tag-augmented SHIFT.

Configurations are immutable values; ``apply`` returns a new configuration.
The static oracle unrolls gold trees into (configuration, action) derivations
used as offline training examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from stackprop.corpus import Sentence, Vocab
from stackprop.errors import StackpropError, UnrollError

SHIFT = "SHIFT"
LEFT_ARC = "LEFT_ARC"
RIGHT_ARC = "RIGHT_ARC"
SWAP = "SWAP"
SHIFT_TAG = "SHIFT_TAG"

ROOT = 0  # stack sentinel; never a token index


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


@dataclass(frozen=True)
class ParserConfiguration:
    """Stack (bottom..top, sentinel 0 at bottom), buffer queue, arc set.

    Arcs are (head, label_id, dependent) triples. ``tags`` records the
    (token, tag_id) assignments made by SHIFT_TAG in the joint system.
    """

    stack: tuple[int, ...]
    buffer: tuple[int, ...]
    arcs: frozenset[tuple[int, int, int]]
    tags: tuple[tuple[int, int], ...] = ()

    def attached(self) -> set[int]:
        return {d for (_, _, d) in self.arcs}


def initial(sentence: Sentence) -> ParserConfiguration:
    if len(sentence) == 0:
        raise StackpropError("cannot initialize a configuration for an empty sentence")
    return ParserConfiguration(
        stack=(ROOT,),
        buffer=tuple(range(1, len(sentence) + 1)),
        arcs=frozenset(),
    )


def is_terminal(c: ParserConfiguration) -> bool:
    return len(c.stack) == 1 and not c.buffer


def legal_actions(c: ParserConfiguration, system: TransitionSystem) -> set[str]:
    """Legal action kinds for a configuration.

    SWAP permissibility follows the surface-order rule: the second-top element
    must be a non-root token that precedes the top in the original sentence,
    which bounds the number of swaps and is decidable without gold trees.
    """
    kinds: set[str] = set()
    if c.buffer:
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
    if a.kind not in legal_actions(c, system):
        raise StackpropError(f"illegal action {a} in configuration {c}")
    if a.kind in (SHIFT, SHIFT_TAG):
        token = c.buffer[0]
        tags = c.tags + ((token, a.tag),) if a.kind == SHIFT_TAG else c.tags
        return ParserConfiguration(c.stack + (token,), c.buffer[1:], c.arcs, tags)
    s0, s1 = c.stack[-1], c.stack[-2]
    if a.kind == LEFT_ARC:
        arcs = c.arcs | {(s0, a.label, s1)}
        return ParserConfiguration(c.stack[:-2] + (s0,), c.buffer, arcs, c.tags)
    if a.kind == RIGHT_ARC:
        arcs = c.arcs | {(s1, a.label, s0)}
        return ParserConfiguration(c.stack[:-1], c.buffer, arcs, c.tags)
    # SWAP: second-top goes back to the buffer front
    return ParserConfiguration(
        c.stack[:-2] + (s0,), (s1,) + c.buffer, c.arcs, c.tags
    )


def projective_order(sentence: Sentence) -> dict[int, int]:
    """Rank of each token in the in-order traversal of the gold tree.

    Children are visited in surface order with the head taking its own
    surface slot between its left and right children. For projective trees
    the ranks equal the surface order.
    """
    heads = sentence.gold_heads()
    n = len(heads)
    children: list[list[int]] = [[] for _ in range(n + 1)]
    for d in range(1, n + 1):
        children[heads[d - 1]].append(d)
    order: dict[int, int] = {}
    rank = 0
    # explicit stack: (node, emit) where emit means "assign rank now"
    work: list[tuple[int, bool]] = [(ROOT, False)]
    while work:
        node, emit = work.pop()
        if emit:
            rank += 1
            order[node] = rank
            continue
        left = [c for c in children[node] if c < node]
        right = [c for c in children[node] if c > node]
        items: list[tuple[int, bool]] = [(c, False) for c in left]
        if node != ROOT:
            items.append((node, True))
        items += [(c, False) for c in right]
        work.extend(reversed(items))
    return order


def oracle(
    c: ParserConfiguration,
    gold: Sentence,
    system: TransitionSystem,
    labels: Vocab,
    tags: Optional[Vocab] = None,
    porder: Optional[dict[int, int]] = None,
) -> Action:
    """Static-oracle action for a configuration reachable from gold replay.

    Priority: LEFT_ARC/RIGHT_ARC once the dependent-to-be has collected all
    of its own dependents, then (eagerly) SWAP when the top two tokens are
    inverted with respect to the projective order, then SHIFT. The guard on
    LEFT_ARC matters only under SWAP, where stack order can put a token next
    to its head before the token's buffer-side dependents have attached.
    """
    heads = gold.gold_heads()

    def complete(token: int) -> bool:
        deps = [d for d in range(1, len(gold) + 1) if heads[d - 1] == token]
        return all(d in c.attached() for d in deps)

    if len(c.stack) >= 2:
        s0, s1 = c.stack[-1], c.stack[-2]
        if s1 != ROOT and heads[s1 - 1] == s0 and complete(s1):
            return Action(LEFT_ARC, label=labels.id_of(gold.token(s1).gold_deprel))
        if heads[s0 - 1] == s1 and complete(s0):
            return Action(RIGHT_ARC, label=labels.id_of(gold.token(s0).gold_deprel))
        if system.swap and s1 != ROOT and s1 < s0:
            if porder is None:
                porder = projective_order(gold)
            if porder[s1] > porder[s0]:
                return Action(SWAP)
    if c.buffer:
        if system.joint:
            if tags is None:
                raise StackpropError("joint oracle needs a tag vocabulary")
            return Action(SHIFT_TAG, tag=tags.id_of(gold.token(c.buffer[0]).gold_upos))
        return Action(SHIFT)
    raise UnrollError(
        f"no oracle action for sentence {gold.id} at {c} "
        "(non-projective tree without SWAP?)"
    )


@dataclass
class Derivation:
    sentence_id: str
    steps: list[tuple[ParserConfiguration, Action]]

    def __len__(self) -> int:
        return len(self.steps)

    def actions(self) -> list[Action]:
        return [a for _, a in self.steps]


def unroll(
    gold: Sentence,
    system: TransitionSystem,
    labels: Vocab,
    tags: Optional[Vocab] = None,
) -> Derivation:
    """Unroll a gold tree into its oracle derivation.

    Arc-standard derivations have exactly 2n steps; SWAP adds at most one
    step per inverted token pair, which bounds the loop.
    """
    n = len(gold)
    porder = projective_order(gold) if system.swap else None
    limit = 2 * n + n * (n - 1) // 2 + 1
    c = initial(gold)
    steps: list[tuple[ParserConfiguration, Action]] = []
    while not is_terminal(c):
        if len(steps) >= limit:
            raise UnrollError(f"derivation for sentence {gold.id} did not terminate")
        a = oracle(c, gold, system, labels, tags, porder)
        steps.append((c, a))
        c = apply(c, a, system)
    return Derivation(gold.id, steps)


def replay(
    gold: Sentence, actions: list[Action], system: TransitionSystem
) -> ParserConfiguration:
    """Apply an action sequence from the initial configuration."""
    c = initial(gold)
    for a in actions:
        c = apply(c, a, system)
    return c


def format_derivation(
    deriv: Derivation, labels: Vocab, tags: Optional[Vocab] = None
) -> str:
    """Line-oriented debug dump: action, label/tag, stack and buffer."""
    lines = []
    for c, a in deriv.steps:
        if a.label is not None:
            arg = labels.string_of(a.label)
        elif a.tag is not None:
            arg = tags.string_of(a.tag) if tags else str(a.tag)
        else:
            arg = "_"
        lines.append(
            f"{a.kind}\t{arg}\tstack={list(c.stack)}\tbuffer={list(c.buffer)}"
        )
    return "\n".join(lines) + "\n" if lines else ""


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
            elif not c.buffer:
                if self.root_exclusive and self.root_label >= 2:
                    mask[self._right0 + self.root_label - 2] = True
                else:
                    mask[self._right0 : self._right0 + self.n_labels] = label_ok
        if SWAP in kinds:
            mask[self._swap] = True
        return mask
