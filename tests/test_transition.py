import numpy as np
import pytest

from stackprop.corpus import Vocab, is_projective, projectivize
from stackprop.errors import StackpropError, UnrollError
from stackprop.transition import (
    LEFT_ARC,
    RIGHT_ARC,
    SHIFT,
    SHIFT_TAG,
    Action,
    ActionSpace,
    TransitionSystem,
    apply,
    format_derivation,
    initial,
    is_terminal,
    legal_actions,
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
    assert c.stack == (0,)
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


def test_legal_actions_basics():
    c = initial(I_ATE_FISH)
    assert legal_actions(c, STD) == {SHIFT}
    mid = replay(I_ATE_FISH, [Action(SHIFT)] * 3, STD)
    assert legal_actions(mid, STD) == {LEFT_ARC, RIGHT_ARC}
    # stack [ROOT, 1] with empty buffer: only RIGHT_ARC (1 cannot be a dependent of nothing)
    one = make_sentence([0])
    c = apply(initial(one), Action(SHIFT), STD)
    assert legal_actions(c, STD) == {RIGHT_ARC}


def test_terminal_has_no_actions():
    labels = Vocab(["root", "dep"])
    s = make_sentence([0])
    c = replay(s, unroll(s, STD, labels).actions(), STD)
    assert is_terminal(c)
    assert legal_actions(c, STD) == set()


def test_apply_shift_and_arcs(simple_vocabs):
    labels, _ = simple_vocabs
    one = make_sentence([0], forms=["w1"])
    c = apply(initial(one), Action(SHIFT), STD)
    assert c.stack == (0, 1) and c.buffer == ()

    c = replay(I_ATE_FISH, [Action(SHIFT), Action(SHIFT)], STD)
    nsubj = labels.id_of("nsubj")
    c2 = apply(c, Action(LEFT_ARC, label=nsubj), STD)
    assert c2.arcs == frozenset({(2, nsubj, 1)})
    assert c2.stack == (0, 2)
    # purity: the original configuration is untouched and re-apply agrees
    assert c.arcs == frozenset()
    assert apply(c, Action(LEFT_ARC, label=nsubj), STD) == c2


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
    c = initial(I_ATE_FISH)
    assert oracle(c, I_ATE_FISH, STD, labels).kind == SHIFT
    c = replay(I_ATE_FISH, [Action(SHIFT), Action(SHIFT)], STD)
    a = oracle(c, I_ATE_FISH, STD, labels)
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
        for c, a in d.steps:
            assert a.kind in legal_actions(c, SWAPSYS)


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


def test_derivation_dump_golden(simple_vocabs):
    labels, tags = simple_vocabs
    d = unroll(I_ATE_FISH, STD, labels)
    expected = (
        "SHIFT\t_\tstack=[0]\tbuffer=[1, 2, 3]\n"
        "SHIFT\t_\tstack=[0, 1]\tbuffer=[2, 3]\n"
        "LEFT_ARC\tnsubj\tstack=[0, 1, 2]\tbuffer=[3]\n"
        "SHIFT\t_\tstack=[0, 2]\tbuffer=[3]\n"
        "RIGHT_ARC\tobj\tstack=[0, 2, 3]\tbuffer=[]\n"
        "RIGHT_ARC\troot\tstack=[0, 2]\tbuffer=[]\n"
    )
    assert format_derivation(d, labels, tags) == expected


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
    assert RIGHT_ARC in legal_actions(c, STD)


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
