import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stackprop.corpus import NULL_ID, UNKNOWN_ID, Vocab, is_projective, projectivize
from stackprop.errors import StackpropError, UnrollError
from stackprop.transition import (
    KINDS,
    LEFT_ARC,
    RIGHT_ARC,
    SHIFT,
    SHIFT_TAG,
    SWAP,
    Action,
    ActionSpace,
    TransitionSystem,
    apply,
    feature_tokens,
    featurize,
    gold_record,
    initial,
    is_legal,
    is_terminal,
    oracle,
    projective_order,
    replay,
    unroll,
)

from conftest import I_ATE_FISH, all_trees, make_sentence, random_tree

STD = TransitionSystem()
SWAPSYS = TransitionSystem(swap=True)


def gold_arc_set(sentence, labels):
    return {
        (t.gold_head, labels.id_of(t.gold_deprel), t.index) for t in sentence.tokens
    }


def test_initial_configuration():
    c = initial(I_ATE_FISH)
    assert c.stack == [0]
    assert c.buffer == (1, 2, 3)
    assert c.arcs == frozenset()
    c1 = initial(make_sentence([0]))
    assert c1.buffer == (1,)
    for n in (2, 5, 9):
        assert len(initial(make_sentence([0] + [1] * (n - 1))).buffer) == n


def test_initial_empty_sentence_errors():
    from stackprop.corpus import Sentence

    with pytest.raises(StackpropError):
        initial(Sentence([], id="e"))


def legal_kinds(c, system):
    return {k for k in KINDS if is_legal(c, k, system)}


def test_legal_actions_basics():
    c = initial(I_ATE_FISH)
    assert legal_kinds(c, STD) == {SHIFT}
    mid = replay(I_ATE_FISH, [Action(SHIFT)] * 3, STD)
    assert legal_kinds(mid, STD) == {LEFT_ARC, RIGHT_ARC}
    # stack [ROOT, 1] with empty buffer: only RIGHT_ARC (1 cannot be a dependent of nothing)
    one = make_sentence([0])
    c = apply(initial(one), Action(SHIFT), STD)
    assert legal_kinds(c, STD) == {RIGHT_ARC}


def test_terminal_has_no_actions():
    labels = Vocab(["root", "dep"])
    s = make_sentence([0])
    c = replay(s, unroll(s, STD, labels).actions(), STD)
    assert is_terminal(c)
    assert legal_kinds(c, STD) == set()


def test_apply_shift_and_arcs(simple_vocabs):
    labels, _ = simple_vocabs
    one = make_sentence([0], forms=["w1"])
    c = apply(initial(one), Action(SHIFT), STD)
    assert c.stack == [0, 1] and c.buffer == ()

    prefix = [Action(SHIFT), Action(SHIFT)]
    c = replay(I_ATE_FISH, prefix, STD)
    nsubj = labels.id_of("nsubj")
    assert c.arcs == frozenset()
    # apply changes the configuration in place and returns it
    assert apply(c, Action(LEFT_ARC, label=nsubj), STD) is c
    assert c.arcs == frozenset({(2, nsubj, 1)})
    assert c.stack == [0, 2] and c.buffer == (3,)
    assert c.head[1] == 2 and c.label[1] == nsubj and c.left[2] == [1]
    # a fresh replay of the same prefix is untouched, and applying the same
    # action to it reaches the same configuration
    again = replay(I_ATE_FISH, prefix, STD)
    assert again.arcs == frozenset() and again.stack == [0, 1, 2]
    apply(again, Action(LEFT_ARC, label=nsubj), STD)
    assert (again.stack, again.buffer, again.arcs) == (c.stack, c.buffer, c.arcs)


def test_apply_illegal_action_errors():
    c = initial(I_ATE_FISH)
    with pytest.raises(StackpropError, match="illegal"):
        apply(c, Action(LEFT_ARC, label=2), STD)


def test_i_ate_fish_hand_trace(simple_vocabs):
    labels, _ = simple_vocabs
    acts = [
        Action(SHIFT),
        Action(SHIFT),
        Action(LEFT_ARC, label=labels.id_of("nsubj")),
        Action(SHIFT),
        Action(RIGHT_ARC, label=labels.id_of("obj")),
        Action(RIGHT_ARC, label=labels.id_of("root")),
    ]
    c = replay(I_ATE_FISH, acts, STD)
    assert is_terminal(c)
    assert c.arcs == gold_arc_set(I_ATE_FISH, labels)


def test_oracle_on_i_ate_fish(simple_vocabs):
    labels, _ = simple_vocabs
    record = gold_record(I_ATE_FISH, ActionSpace(labels, None, STD, NULL_ID))
    c = initial(I_ATE_FISH)
    assert oracle(c, I_ATE_FISH, STD, record).kind == SHIFT
    c = replay(I_ATE_FISH, [Action(SHIFT), Action(SHIFT)], STD)
    a = oracle(c, I_ATE_FISH, STD, record)
    assert a.kind == LEFT_ARC and a.label == labels.id_of("nsubj")


def test_unroll_single_token():
    labels = Vocab(["root", "dep"])
    d = unroll(make_sentence([0]), STD, labels)
    assert [a.kind for a in d.actions()] == [SHIFT, RIGHT_ARC]
    assert d.actions()[1].label == labels.id_of("root")


def test_unroll_i_ate_fish_matches_hand_trace(simple_vocabs):
    labels, _ = simple_vocabs
    d = unroll(I_ATE_FISH, STD, labels)
    kinds = [a.kind for a in d.actions()]
    assert kinds == [SHIFT, SHIFT, LEFT_ARC, SHIFT, RIGHT_ARC, RIGHT_ARC]
    assert len(d) == 6


def test_unroll_errors_on_nonprojective_without_swap():
    labels = Vocab(["root", "dep"])
    s = make_sentence([3, 0, 2, 2])
    assert not is_projective(s)
    with pytest.raises(UnrollError):
        unroll(s, STD, labels)


def test_oracle_exhaustive_projective_n4():
    labels = Vocab(["root", "dep"])
    for n in range(1, 5):
        for heads in all_trees(n):
            s = make_sentence(heads)
            if not is_projective(s):
                continue
            d = unroll(s, STD, labels)
            assert len(d) == 2 * n
            c = replay(s, d.actions(), STD)
            assert is_terminal(c)
            assert c.arcs == gold_arc_set(s, labels)


def test_swap_oracle_exhaustive_all_trees_n4():
    labels = Vocab(["root", "dep"])
    for n in range(1, 5):
        for heads in all_trees(n):
            s = make_sentence(heads)
            d = unroll(s, SWAPSYS, labels)
            c = replay(s, d.actions(), SWAPSYS)
            assert is_terminal(c)
            assert c.arcs == gold_arc_set(s, labels)


def test_unroll_random_projective_trees():
    labels = Vocab(["root", "dep"])
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(1, 11))
        s = projectivize(make_sentence(random_tree(n, rng)))
        d = unroll(s, STD, labels)
        assert len(d) == 2 * n
        c = replay(s, d.actions(), STD)
        assert c.arcs == gold_arc_set(s, labels)


def test_swap_oracle_random_larger_trees():
    labels = Vocab(["root", "dep"])
    rng = np.random.default_rng(6)
    for _ in range(60):
        n = int(rng.integers(2, 41))
        s = make_sentence(random_tree(n, rng))
        d = unroll(s, SWAPSYS, labels)
        c = replay(s, d.actions(), SWAPSYS)
        assert is_terminal(c)
        assert c.arcs == gold_arc_set(s, labels)


def test_every_derivation_step_is_legal():
    labels = Vocab(["root", "dep"])
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        s = make_sentence(random_tree(n, rng))
        d = unroll(s, SWAPSYS, labels)
        c = initial(s)
        for a in d.actions():
            assert a.kind in legal_kinds(c, SWAPSYS)
            apply(c, a, SWAPSYS)
        assert is_terminal(c)


def test_projective_order_identity_on_projective():
    s = make_sentence([2, 0, 2])
    assert projective_order(s) == {1: 1, 2: 2, 3: 3}
    assert projective_order(make_sentence([0])) == {1: 1}


def test_projective_order_permutes_nonprojective():
    # heads: 1->3 via 2? classic crossing example reorders token ranks
    s = make_sentence([2, 0, 1])  # 3 attaches under 1: order must place 3 after 1
    order = projective_order(s)
    assert sorted(order.values()) == [1, 2, 3]
    # in-order of 2's subtree: 1 (with child 3 to its right), then 2
    assert order == {1: 1, 3: 2, 2: 3}


def test_derivation_replay_golden(simple_vocabs):
    labels, _ = simple_vocabs
    d = unroll(I_ATE_FISH, STD, labels)
    expected = [
        ("SHIFT", "_", [0], (1, 2, 3)),
        ("SHIFT", "_", [0, 1], (2, 3)),
        ("LEFT_ARC", "nsubj", [0, 1, 2], (3,)),
        ("SHIFT", "_", [0, 2], (3,)),
        ("RIGHT_ARC", "obj", [0, 2, 3], ()),
        ("RIGHT_ARC", "root", [0, 2], ()),
    ]
    c = initial(I_ATE_FISH)
    seen = []
    for a in d.actions():
        arg = "_" if a.label is None else labels.string_of(a.label)
        seen.append((a.kind, arg, list(c.stack), c.buffer))
        apply(c, a, STD)
    assert seen == expected


def test_action_space_encode_decode_roundtrip(simple_vocabs):
    labels, tags = simple_vocabs
    for system in (STD, SWAPSYS, TransitionSystem(joint=True), TransitionSystem(swap=True, joint=True)):
        space = ActionSpace(labels, tags, system, labels.id_of("root"), True)
        expected = (tags.n_classes if system.joint else 1) + 2 * labels.n_classes + (
            1 if system.swap else 0
        )
        assert space.size == expected
        for idx in range(space.size):
            assert space.encode(space.decode(idx)) == idx
            assert space.decode(idx) is space.decode(idx)
        # equal actions built elsewhere encode to the same index
        assert space.encode(Action(RIGHT_ARC, label=labels.id_of("obj"))) == (
            space.n_shift + labels.n_classes + labels.class_index("obj")
        )


def test_action_space_encode_rejects_actions_outside_the_space():
    """An action the space does not enumerate raises instead of landing on
    another action's index: the UNKNOWN label (was SHIFT's 0), SWAP without
    SWAP (was -1, the last class), a label past the vocabulary (was one past
    the last index) and a SHIFT kind of the other system."""
    labels = Vocab(["root", "nsubj", "obj", "det", "amod", "nmod", "case", "advmod", "punct"])
    tags = Vocab(["NOUN", "VERB"])
    space = ActionSpace(labels, tags, STD, labels.id_of("root"), True)
    assert space.size == 19
    outside = [
        Action(LEFT_ARC, label=UNKNOWN_ID),
        Action(SWAP),
        Action(RIGHT_ARC, label=labels.size),
        Action(SHIFT_TAG, tag=2),
    ]
    for a in outside:
        with pytest.raises(StackpropError, match="action space"):
            space.encode(a)
    joint = ActionSpace(labels, tags, TransitionSystem(joint=True), labels.id_of("root"))
    with pytest.raises(StackpropError, match="action space"):
        joint.encode(Action(SHIFT))


def test_unroll_rejects_a_label_outside_the_vocabulary():
    s = make_sentence([2, 0], labels=["unseen", "root"])
    with pytest.raises(StackpropError, match="action space"):
        unroll(s, STD, Vocab(["root", "dep"]))


def test_action_space_mask_respects_legality_and_root_label(simple_vocabs):
    labels, tags = simple_vocabs
    space = ActionSpace(labels, tags, STD, labels.id_of("root"), True)
    c = initial(I_ATE_FISH)
    mask = space.legal_mask(c)
    assert mask[space.encode(Action(SHIFT))]
    assert mask.sum() == 1  # only SHIFT at the initial configuration

    # stack [0, 1]: RIGHT_ARC must carry the root label only
    c = apply(c, Action(SHIFT), STD)
    one = make_sentence([0])
    c1 = apply(initial(one), Action(SHIFT), STD)
    mask = space.legal_mask(c1)
    legal = [space.decode(i) for i in np.nonzero(mask)[0]]
    assert all(a.kind == RIGHT_ARC for a in legal)
    assert [a.label for a in legal] == [labels.id_of("root")]

    # stack [0, 1, 2]: arc actions exclude the root-exclusive label
    c = replay(I_ATE_FISH, [Action(SHIFT), Action(SHIFT)], STD)
    legal = [space.decode(i) for i in np.nonzero(space.legal_mask(c))[0]]
    arc_labels = {a.label for a in legal if a.kind in (LEFT_ARC, RIGHT_ARC)}
    assert labels.id_of("root") not in arc_labels


def test_root_attachment_waits_for_empty_buffer(simple_vocabs):
    labels, tags = simple_vocabs
    c = replay(I_ATE_FISH, [Action(SHIFT)], STD)  # stack [0, 1], buffer [2, 3]
    for exclusive in (False, True):
        space = ActionSpace(labels, tags, STD, labels.id_of("root"), exclusive)
        legal = [space.decode(i) for i in np.nonzero(space.legal_mask(c))[0]]
        assert legal == [Action(SHIFT)]
    # the unmasked kinds still allow it, so multi-root gold trees unroll
    assert RIGHT_ARC in legal_kinds(c, STD)


def test_greedy_decode_with_arbitrary_scorer_terminates(simple_vocabs):
    labels, tags = simple_vocabs
    rng = np.random.default_rng(9)
    for system in (STD, SWAPSYS):
        space = ActionSpace(labels, tags, system, labels.id_of("root"), True)
        for _ in range(40):
            n = int(rng.integers(1, 6))
            s = make_sentence(random_tree(n, rng))
            c = initial(s)
            steps = 0
            bound = 4 * n  # holds for n <= 5 even with adversarial swapping
            while not is_terminal(c):
                scores = rng.normal(size=space.size)
                scores[~space.legal_mask(c)] = -np.inf
                c = apply(c, space.decode(int(np.argmax(scores))), system)
                steps += 1
                assert steps <= bound
            assert len(c.arcs) == n  # full tree: every token attached


def test_joint_unroll_assigns_gold_tags(simple_vocabs):
    labels, tags = simple_vocabs
    joint = TransitionSystem(joint=True)
    d = unroll(I_ATE_FISH, joint, labels, tags)
    c = replay(I_ATE_FISH, d.actions(), joint)
    assigned = dict(c.tags)
    for t in I_ATE_FISH.tokens:
        assert assigned[t.index] == tags.id_of(t.gold_upos)
    kinds = [a.kind for a in d.actions()]
    assert kinds.count(SHIFT_TAG) == 3 and SHIFT not in kinds


def reference_features(stack, buffer, arcs):
    """Template tokens and label ids recomputed from the arc set: the
    children of a token are rescanned from every arc for each slot."""

    def side_children(token):
        if token <= 0:
            return [], []
        left = sorted(d for (h, _, d) in arcs if h == token and d < token)
        right = sorted(d for (h, _, d) in arcs if h == token and d > token)
        return left, right

    out = [-1] * 20

    def put(i, token):
        if token is not None and token > 0:
            out[i] = token

    for i in range(4):
        put(i, stack[-1 - i] if len(stack) > i else None)
        put(4 + i, buffer[i] if len(buffer) > i else None)
    for si in range(2):
        token = stack[-1 - si] if len(stack) > si else 0
        left, right = side_children(token)
        base = 8 + 4 * si
        put(base, left[0] if left else None)
        put(base + 1, right[-1] if right else None)
        put(base + 2, left[1] if len(left) > 1 else None)
        put(base + 3, right[-2] if len(right) > 1 else None)
        ll, _ = side_children(left[0] if left else 0)
        _, rr = side_children(right[-1] if right else 0)
        put(16 + 2 * si, ll[0] if ll else None)
        put(17 + 2 * si, rr[-1] if rr else None)
    by_dep = {d: l for (_, l, d) in arcs}
    return out, [NULL_ID if t == -1 else by_dep.get(t, NULL_ID) for t in out[8:]]


SYSTEMS = {
    "arc-standard": STD,
    "swap": SWAPSYS,
    "joint": TransitionSystem(joint=True),
    "joint-swap": TransitionSystem(swap=True, joint=True),
}


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 40),
    seed=st.integers(0, 2**31 - 1),
    system=st.sampled_from(sorted(SYSTEMS)),
)
def test_unrolled_features_match_arc_set_rescan(n, seed, system):
    """At every step of a random tree's derivation, the recorded template
    tokens and label ids equal a rescan of the replayed configuration's arc
    set, ``featurize`` reads the same rows, and the replay rebuilds the gold
    tree."""
    system = SYSTEMS[system]
    rng = np.random.default_rng(seed)
    labels = Vocab(["root", "nsubj", "obj", "amod", "nmod"])
    tags = Vocab(["NOUN", "VERB", "ADJ"])
    s = make_sentence(
        random_tree(n, rng),
        tags=[tags.class_string(int(rng.integers(tags.n_classes))) for _ in range(n)],
    )
    for t in s.tokens:
        if t.gold_head:
            t.gold_deprel = labels.class_string(int(rng.integers(1, labels.n_classes)))
    if not system.swap:
        s = projectivize(s)
    d = unroll(s, system, labels, tags)
    c = initial(s)
    for step, (tokens, labs, a) in enumerate(d.steps):
        assert (tokens, labs) == reference_features(c.stack, c.buffer, c.arcs), step
        assert feature_tokens(c) == tokens
        rows, row_labels = featurize([c], [5])
        assert rows.tolist() == [[t + 4 if t > 0 else -1 for t in tokens]]
        assert row_labels.tolist() == [labs]
        assert apply(c, a, system) is c
    assert is_terminal(c)
    assert c.arcs == gold_arc_set(s, labels)
    assert replay(s, d.actions(), system).arcs == c.arcs
    if system.joint:
        assert c.tags == {t.index: tags.id_of(t.gold_upos) for t in s.tokens}


def test_long_sentences_take_linear_time():
    """An 800-token flat tree (one head with 799 dependents) and a 1000-token
    right-branching chain unroll, and the chain decodes greedily at
    criterion-6 dims, each within a second."""
    from stackprop.model import ParserNetworkConfig, build_model
    from stackprop.parser import parse_sentence
    from stackprop.tagger import TaggerConfig

    labels = Vocab(["root", "dep"])
    flat = make_sentence([0] + [1] * 799)
    chain = make_sentence(list(range(1000)), forms=[f"w{i % 50}" for i in range(1000)])
    for s in (flat, chain):
        t0 = time.perf_counter()
        d = unroll(s, STD, labels)
        elapsed = time.perf_counter() - t0
        assert len(d) == 2 * len(s)
        assert elapsed < 1.0, (len(s), elapsed)
    m = build_model(
        "stackprop", [chain],
        TaggerConfig(hidden=32, d_symbols=4, d_caps=4, d_affix=8, d_words=16),
        ParserNetworkConfig(hidden=64, d_implicit=16, d_label=8, d_word=16),
        seed=0,
    )
    t0 = time.perf_counter()
    parsed = parse_sentence(chain, m)
    elapsed = time.perf_counter() - t0
    assert sum(t.pred_head == 0 for t in parsed.tokens) == 1
    assert elapsed < 1.0, elapsed


def reference_legal_kinds(c, system):
    """The legal kinds, written out rule by rule."""
    kinds = set()
    if c.queue:
        kinds.add(SHIFT_TAG if system.joint else SHIFT)
    if len(c.stack) >= 2:
        s0, s1 = c.stack[-1], c.stack[-2]
        kinds.add(RIGHT_ARC)
        if s1 != 0:
            kinds.add(LEFT_ARC)
            if system.swap and s1 < s0:
                kinds.add(SWAP)
    return kinds


def random_reachable(system, n, rng, labels, tags):
    """A configuration reached from a random tree's initial configuration by
    uniformly random legal actions."""
    s = make_sentence(random_tree(n, rng))
    space = ActionSpace(labels, tags, system, labels.id_of("root"))
    c = initial(s)
    for _ in range(int(rng.integers(0, 3 * n))):
        if is_terminal(c):
            break
        legal = np.nonzero(space.legal_mask(c))[0]
        apply(c, space.decode(int(rng.choice(legal))), system)
    return c


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 12),
    seed=st.integers(0, 2**31 - 1),
    system=st.sampled_from(sorted(SYSTEMS)),
    root_exclusive=st.booleans(),
)
def test_one_legality_definition(n, seed, system, root_exclusive):
    """Over random reachable configurations, ``is_legal`` allows the kinds
    the rules allow, ``apply`` accepts an action exactly when ``is_legal``
    allows its kind, and ``legal_mask`` allows only actions of allowed
    kinds, and every allowed kind except a RIGHT_ARC that the root rules
    hold back until the buffer is empty."""
    system = SYSTEMS[system]
    rng = np.random.default_rng(seed)
    labels, tags = Vocab(["root", "dep", "nsubj"]), Vocab(["NOUN", "VERB"])
    c = random_reachable(system, n, rng, labels, tags)
    space = ActionSpace(labels, tags, system, labels.id_of("root"), root_exclusive)
    kinds = legal_kinds(c, system)
    assert kinds == reference_legal_kinds(c, system)
    mask = space.legal_mask(c)
    allowed = {space.decode(i).kind for i in np.nonzero(mask)[0]}
    assert allowed <= kinds
    assert kinds - allowed <= {RIGHT_ARC}  # under the sentinel before the buffer empties
    if RIGHT_ARC in kinds - allowed:
        assert c.stack[-2] == 0 and c.queue
    assert (kinds == set()) == is_terminal(c)
    for a in space.actions + [Action(SHIFT), Action(SWAP)]:
        # legality reads only the stack and the buffer
        trial = initial(make_sentence([0] * n))
        trial.stack, trial.queue = list(c.stack), list(c.queue)
        trial.tags = dict(c.tags)
        if a.kind in kinds:
            apply(trial, a, system)
        else:
            with pytest.raises(StackpropError, match="illegal"):
                apply(trial, a, system)
