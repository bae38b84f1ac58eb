"""CoNLL-U ingestion/emission, sentence data model, tree validation, projectivization."""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain
from typing import Iterable, Iterator, Optional

import numpy as np

from stackprop.errors import CorpusError

# CoNLL-U column indices
ID, FORM, LEMMA, UPOS, XPOS, FEATS, HEAD, DEPREL, DEPS, MISC = range(10)

NULL = "<NULL>"
UNKNOWN = "<UNK>"
NULL_ID = 0
UNKNOWN_ID = 1


@dataclass
class Token:
    """One syntactic word. ``index`` is 1-based; head 0 means the artificial root."""

    index: int
    form: str
    gold_upos: str = "_"
    gold_head: int = 0
    gold_deprel: str = "_"
    pred_upos: Optional[str] = None
    pred_head: Optional[int] = None
    pred_deprel: Optional[str] = None
    # opaque CoNLL-U columns carried through round trips
    lemma: str = "_"
    xpos: str = "_"
    feats: str = "_"
    deps: str = "_"
    misc: str = "_"


@dataclass
class Sentence:
    tokens: list[Token]
    id: str = ""

    def __len__(self) -> int:
        return len(self.tokens)

    def gold_heads(self) -> list[int]:
        return [t.gold_head for t in self.tokens]


class Vocab:
    """Bidirectional string<->id map with reserved NULL and UNKNOWN ids.

    Ids are dense and assigned in insertion order: NULL=0, UNKNOWN=1, then
    entries from 2 upward. ``class_index`` exposes a 0-based id space over the
    real entries only, used for softmax outputs.
    """

    def __init__(self, entries: Iterable[str] = ()):
        self._strings = [NULL, UNKNOWN]
        self._ids = {NULL: NULL_ID, UNKNOWN: UNKNOWN_ID}
        for s in entries:
            self.add(s)

    def add(self, s: str) -> int:
        i = self._ids.get(s)
        if i is None:
            i = len(self._strings)
            self._ids[s] = i
            self._strings.append(s)
        return i

    def id_of(self, s: str) -> int:
        """Id of ``s``, falling back to UNKNOWN for out-of-vocabulary strings."""
        return self._ids.get(s, UNKNOWN_ID)

    def ids_of(self, strings: Iterable[str]) -> list[int]:
        """``id_of`` of each string."""
        get = self._ids.get
        return [get(s, UNKNOWN_ID) for s in strings]

    def string_of(self, i: int) -> str:
        return self._strings[i]

    def __contains__(self, s: str) -> bool:
        return s in self._ids

    def __len__(self) -> int:
        return len(self._strings)

    @property
    def size(self) -> int:
        return len(self._strings)

    @property
    def n_classes(self) -> int:
        return len(self._strings) - 2

    def class_index(self, s: str) -> int:
        """0-based index of a real entry (NULL/UNKNOWN are not classes)."""
        i = self._ids[s]
        if i < 2:
            raise KeyError(f"{s!r} is a reserved vocabulary entry, not a class")
        return i - 2

    def class_string(self, k: int) -> str:
        return self._strings[k + 2]

    def entries(self) -> list[str]:
        """Real entries in id order (NULL/UNKNOWN excluded)."""
        return self._strings[2:]

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocab) and self._strings == other._strings


def read_conllu(lines: Iterable[str]) -> Iterator[Sentence]:
    """Validated sentences from CoNLL-U lines, each yielded as its block ends.

    ``lines`` may keep their line ends (an open file) or not (a split text).
    Multiword-token ranges ("3-4") and empty nodes ("5.1") are skipped;
    comment lines are ignored except that ``# sent_id`` names the sentence
    (one without it is named by its position in the stream, counting from 1).
    Each sentence's gold heads must form a single tree under the artificial
    root. Errors name the line of the stream, counting from 1; input that
    does not decode is a CorpusError naming the line after the last line read
    (a file decodes in chunks, so the bad bytes may lie further on).
    """
    tokens: list[Token] = []
    sent_id: Optional[str] = None
    n_sentences = line_no = 0
    try:
        # the empty line after the input ends the last block
        for line_no, line in enumerate(chain(lines, [""]), start=1):
            line = line.rstrip("\r\n")
            if not line.strip():
                if tokens:
                    n_sentences += 1
                    sent = Sentence(tokens, id=str(n_sentences) if sent_id is None else sent_id)
                    validate_tree(sent)
                    yield sent
                    tokens = []
                sent_id = None
                continue
            if line.startswith("#"):
                if line[1:].split("=", 1)[0].strip() == "sent_id" and "=" in line:
                    sent_id = line.split("=", 1)[1].strip()
                continue
            cols = line.split("\t")
            if len(cols) != 10:
                raise CorpusError(f"line {line_no}: expected 10 columns, got {len(cols)}")
            if "-" in cols[ID] or "." in cols[ID]:
                continue  # multiword-token range or empty node
            try:
                index = int(cols[ID])
                head = int(cols[HEAD])
            except ValueError as e:
                raise CorpusError(f"line {line_no}: bad ID or HEAD field: {e}")
            if index != len(tokens) + 1:
                raise CorpusError(f"line {line_no}: token id {index} out of sequence")
            tokens.append(
                Token(
                    index=index,
                    form=cols[FORM],
                    gold_upos=cols[UPOS],
                    gold_head=head,
                    gold_deprel=cols[DEPREL],
                    lemma=cols[LEMMA],
                    xpos=cols[XPOS],
                    feats=cols[FEATS],
                    deps=cols[DEPS],
                    misc=cols[MISC],
                )
            )
    except UnicodeDecodeError as e:
        raise CorpusError(f"line {line_no + 1} or later is not UTF-8: {e}") from None


def parse_conllu(text: str) -> list[Sentence]:
    """``read_conllu`` over a whole CoNLL-U text."""
    return list(read_conllu(text.split("\n")))


def validate_tree(sentence: Sentence) -> None:
    """Reject self-loops, out-of-range heads, multiple roots, and cycles."""
    n = len(sentence.tokens)
    sid = sentence.id
    children: list[list[int]] = [[] for _ in range(n + 1)]
    for t in sentence.tokens:
        if t.gold_head == t.index:
            raise CorpusError(f"sentence {sid}: token {t.index} is its own head")
        if not 0 <= t.gold_head <= n:
            raise CorpusError(f"sentence {sid}: head {t.gold_head} out of range")
        children[t.gold_head].append(t.index)
    if not children[0]:
        raise CorpusError(f"sentence {sid}: no token attached to root")
    if len(children[0]) > 1:
        raise CorpusError(f"sentence {sid}: multiple root attachments")
    # n nodes, n arcs to {0..n}: a single tree iff every token is reached from 0
    reached = [0]
    for node in reached:  # breadth first: the loop also visits what it appends
        reached += children[node]
    if len(reached) <= n:
        # walk up from the first unreached token until a node repeats
        node, seen = min(set(range(1, n + 1)).difference(reached)), set()
        while node not in seen:
            seen.add(node)
            node = sentence.tokens[node - 1].gold_head
        raise CorpusError(f"sentence {sid}: cycle through token {node}")


def emit_conllu(sentences: list[Sentence], use_predicted: bool = False) -> str:
    """Serialize sentences to CoNLL-U; with ``use_predicted``, write predicted
    HEAD/DEPREL (and UPOS when tagged) instead of gold."""
    out = []
    for sent in sentences:
        for t in sent.tokens:
            if use_predicted:
                if t.pred_head is None or t.pred_deprel is None:
                    raise CorpusError(
                        f"sentence {sent.id}: token {t.index} has no prediction"
                    )
                upos = t.pred_upos if t.pred_upos is not None else t.gold_upos
                head, deprel = t.pred_head, t.pred_deprel
            else:
                upos, head, deprel = t.gold_upos, t.gold_head, t.gold_deprel
            out.append(
                "\t".join(
                    [
                        str(t.index),
                        t.form,
                        t.lemma,
                        upos,
                        t.xpos,
                        t.feats,
                        str(head),
                        deprel,
                        t.deps,
                        t.misc,
                    ]
                )
            )
        out.append("")
    return "\n".join(out) + "\n" if out else ""


def projective_order(sentence: Sentence) -> dict[int, int]:
    """Rank of each token in the in-order traversal of the gold tree.

    Children are visited in surface order with the head taking its own
    surface slot between its left and right children. For projective trees
    the ranks equal the surface order.
    """
    heads = sentence.gold_heads()
    left: list[list[int]] = [[] for _ in range(len(heads) + 1)]
    right: list[list[int]] = [[] for _ in range(len(heads) + 1)]
    for d, h in enumerate(heads, start=1):
        (left if d < h else right)[h].append(d)
    order: dict[int, int] = {}
    # nodes to visit, the next one last; -t ranks token t after its left subtrees
    work = right[0][::-1]
    while work:
        node = work.pop()
        if node < 0:
            order[-node] = len(order) + 1
        elif left[node] or right[node]:
            work += right[node][::-1]
            work.append(-node)
            work += left[node][::-1]
        else:  # a leaf
            order[node] = len(order) + 1
    return order


def is_projective(sentence: Sentence) -> bool:
    """True iff every subtree covers a contiguous interval of the sentence,
    i.e. the in-order traversal ranks each token at its own position; for
    valid trees, iff no two arcs cross (the root arc included)."""
    return all(t == rank for t, rank in projective_order(sentence).items())


def _crossed_arcs(heads: np.ndarray) -> np.ndarray:
    """Which arcs ``(heads[d], d)``, d = 1..n (``heads[0]`` is the root's),
    another arc crosses. An arc over positions a < b is crossed iff a
    position strictly inside it has an arc that ends outside [a, b]."""
    deps = np.arange(1, len(heads))
    h = heads[1:]
    near, far = heads.copy(), heads.copy()  # each position's nearest/farthest arc end
    np.minimum.at(near, h, deps)
    np.maximum.at(far, h, deps)
    a, b = np.minimum(h, deps), np.maximum(h, deps)
    inner = b - a > 1
    ranges = np.column_stack([a[inner] + 1, b[inner]]).ravel()  # [a + 1, b) per arc
    crossed = np.zeros(len(deps), dtype=bool)
    crossed[inner] = (np.minimum.reduceat(near, ranges)[::2] < a[inner]) | (
        np.maximum.reduceat(far, ranges)[::2] > b[inner]
    )
    return crossed


def projectivize(sentence: Sentence) -> Sentence:
    """Lift non-projective arcs until the tree is projective.

    Repeatedly takes the crossed arc with the shortest span (the lower
    dependent on a tie) and re-attaches its dependent to the grandparent.
    Arcs from the artificial root are never lifted (the other arc of the
    pair is). Identity on projective input; forms, tags, and labels are
    untouched.
    """
    heads = np.array([0] + sentence.gold_heads())
    while liftable := list(np.flatnonzero(_crossed_arcs(heads) & (heads[1:] != 0)) + 1):
        d = min(liftable, key=lambda d: (abs(heads[d] - d), d))
        heads[d] = heads[heads[d]]
    if heads[1:].tolist() == sentence.gold_heads():
        return sentence
    tokens = [replace(t, gold_head=int(heads[t.index])) for t in sentence.tokens]
    return Sentence(tokens, id=sentence.id)


def build_vocabs(sentences: list[Sentence]) -> tuple[Vocab, Vocab, Vocab]:
    """(forms, tags, labels) vocabularies from a training corpus.

    Forms are lowercased. Ids are deterministic given corpus order.
    """
    forms, tags, labels = Vocab(), Vocab(), Vocab()
    for sent in sentences:
        for t in sent.tokens:
            forms.add(t.form.lower())
            tags.add(t.gold_upos)
            labels.add(t.gold_deprel)
    return forms, tags, labels


def root_label_of(sentences: list[Sentence], labels: Vocab) -> tuple[int, bool]:
    """(label id used on root attachments, whether it is root-exclusive).

    The most frequent deprel on head-0 tokens is the dedicated root label;
    exclusivity means it never appears on a non-root arc, which lets decoding
    mask it everywhere else.
    """
    counts: dict[str, int] = {}
    elsewhere: set[str] = set()
    for sent in sentences:
        for t in sent.tokens:
            if t.gold_head == 0:
                counts[t.gold_deprel] = counts.get(t.gold_deprel, 0) + 1
            else:
                elsewhere.add(t.gold_deprel)
    if not counts:
        return labels.id_of("root"), False
    best = max(counts, key=lambda s: (counts[s], s))
    return labels.id_of(best), best not in elsewhere
