import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stackprop.corpus import (
    Vocab,
    build_vocabs,
    emit_conllu,
    is_projective,
    parse_conllu,
    projectivize,
    validate_tree,
)
from stackprop.errors import CorpusError
from stackprop.synthetic import generate_corpus

from conftest import all_trees, chain_sentences, make_sentence, random_tree


def arcs_cross(h1, d1, h2, d2):
    """Strict interval-crossing test for two arcs given as (head, dependent)."""
    a, b = min(h1, d1), max(h1, d1)
    c, d = min(h2, d2), max(h2, d2)
    return (a < c < b < d) or (c < a < d < b)


def reference_projectivize_heads(heads):
    """Lifting by comparing every pair of arcs: take the crossing non-root
    arc with the shortest span (the lower dependent on a tie) and re-attach
    its dependent to the grandparent, until no arcs cross."""
    heads = list(heads)
    n = len(heads)
    while True:
        crossing = set()
        arcs = [(heads[d - 1], d) for d in range(1, n + 1)]
        for i in range(len(arcs)):
            for j in range(i + 1, len(arcs)):
                if arcs_cross(*arcs[i], *arcs[j]):
                    crossing.add(arcs[i])
                    crossing.add(arcs[j])
        liftable = [(h, d) for (h, d) in crossing if h != 0]
        if not liftable:
            return heads
        h, d = min(liftable, key=lambda arc: (abs(arc[0] - arc[1]), arc[1]))
        heads[d - 1] = heads[h - 1]


def reference_validate_tree(sentence):
    """The walk-up check: every token walks to the root with a fresh set,
    quadratic on deep trees."""
    n = len(sentence.tokens)
    sid = sentence.id
    roots = 0
    for t in sentence.tokens:
        if t.gold_head == t.index:
            raise CorpusError(f"sentence {sid}: token {t.index} is its own head")
        if not 0 <= t.gold_head <= n:
            raise CorpusError(f"sentence {sid}: head {t.gold_head} out of range")
        if t.gold_head == 0:
            roots += 1
    if roots == 0:
        raise CorpusError(f"sentence {sid}: no token attached to root")
    if roots > 1:
        raise CorpusError(f"sentence {sid}: multiple root attachments")
    heads = sentence.gold_heads()
    for t in sentence.tokens:
        seen = set()
        node = t.index
        while node != 0:
            if node in seen:
                raise CorpusError(f"sentence {sid}: cycle through token {node}")
            seen.add(node)
            node = heads[node - 1]


@st.composite
def head_arrays(draw):
    """A random tree over 1-12 tokens, perhaps with a cycle closed (an
    ancestor of a token takes it as head), then with up to two heads
    replaced: by a self-loop, a second root, an out-of-range head or any
    head."""
    n = draw(st.integers(1, 12))
    order = draw(st.permutations(range(1, n + 1)))
    heads = [0] * n
    for k, d in enumerate(order[1:], start=1):
        heads[d - 1] = order[draw(st.integers(0, k - 1))]
    path = [draw(st.integers(1, n))]
    while heads[path[-1] - 1]:
        path.append(heads[path[-1] - 1])
    if len(path) > 1 and draw(st.booleans()):
        heads[path[draw(st.integers(1, len(path) - 1))] - 1] = path[0]
    for _ in range(draw(st.integers(0, 2))):
        d = draw(st.integers(1, n))
        heads[d - 1] = draw(st.sampled_from([d, 0, -1, n + 1]) | st.integers(0, n))
    return heads


TWO_TOKEN = (
    "1\tHi\t_\tINTJ\t_\t_\t0\troot\t_\t_\n"
    "2\tthere\t_\tADV\t_\t_\t1\tdiscourse\t_\t_\n"
)


def test_empty_input():
    assert parse_conllu("") == []
    assert parse_conllu("\n\n") == []


def test_two_token_block():
    sents = parse_conllu(TWO_TOKEN)
    assert len(sents) == 1
    s = sents[0]
    assert [t.form for t in s.tokens] == ["Hi", "there"]
    assert s.tokens[0].gold_head == 0
    assert s.tokens[1].gold_head == 1
    assert s.tokens[1].gold_deprel == "discourse"
    # round trip reproduces the block exactly
    assert emit_conllu(sents) == TWO_TOKEN + "\n"


def test_multiword_range_and_empty_node_skipped():
    text = (
        "1\tWe\t_\tPRON\t_\t_\t2\tnsubj\t_\t_\n"
        "2-3\tdon't\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "2\tdo\t_\tVERB\t_\t_\t0\troot\t_\t_\n"
        "3\tnot\t_\tPART\t_\t_\t2\tadvmod\t_\t_\n"
        "3.1\tghost\t_\t_\t_\t_\t_\t_\t_\t_\n"
    )
    sents = parse_conllu(text)
    assert len(sents) == 1
    assert [t.form for t in sents[0].tokens] == ["We", "do", "not"]


def test_comments_ignored_and_sent_id_used():
    text = "# sent_id = abc-42\n# text = Hi\n" + TWO_TOKEN
    sents = parse_conllu(text)
    assert sents[0].id == "abc-42"


def test_malformed_column_count_names_line():
    text = "1\tHi\t_\tINTJ\t0\troot\n"
    with pytest.raises(CorpusError, match="line 1"):
        parse_conllu(text)


def test_cycle_rejected_with_sentence_id():
    text = (
        "# sent_id = cyc\n"
        "1\ta\t_\tX\t_\t_\t2\tdep\t_\t_\n"
        "2\tb\t_\tX\t_\t_\t1\tdep\t_\t_\n"
        "3\tc\t_\tX\t_\t_\t0\troot\t_\t_\n"
    )
    with pytest.raises(CorpusError, match="cyc"):
        parse_conllu(text)


def test_multiple_roots_rejected():
    text = (
        "1\ta\t_\tX\t_\t_\t0\troot\t_\t_\n"
        "2\tb\t_\tX\t_\t_\t0\troot\t_\t_\n"
    )
    with pytest.raises(CorpusError, match="root"):
        parse_conllu(text)


def test_self_head_rejected():
    text = "1\ta\t_\tX\t_\t_\t1\tdep\t_\t_\n"
    with pytest.raises(CorpusError):
        parse_conllu(text)


def test_emit_empty():
    assert emit_conllu([]) == ""


def test_emit_single_token_layout():
    s = make_sentence([0], forms=["Go"])
    out = emit_conllu([s])
    lines = out.split("\n")
    assert len(lines) == 3 and lines[1] == "" and lines[2] == ""
    assert lines[0].split("\t")[1] == "Go"


def test_emit_predicted_flips_head_column():
    s = make_sentence([2, 0], forms=["a", "b"])
    s.tokens[0].pred_head = 0
    s.tokens[0].pred_deprel = "root"
    s.tokens[1].pred_head = 1
    s.tokens[1].pred_deprel = "dep"
    gold = emit_conllu([s])
    pred = emit_conllu([s], use_predicted=True)
    assert gold.split("\n")[0].split("\t")[6] == "2"
    assert pred.split("\n")[0].split("\t")[6] == "0"


def test_emit_predicted_missing_prediction_errors():
    s = make_sentence([0])
    with pytest.raises(CorpusError, match="prediction"):
        emit_conllu([s], use_predicted=True)


def test_round_trip_fixed_point():
    from stackprop.synthetic import generate_corpus

    corpus = generate_corpus(25, seed=4)
    once = emit_conllu(corpus)
    twice = emit_conllu(parse_conllu(once))
    assert once == twice


def test_chain_is_projective():
    assert is_projective(make_sentence([0, 1, 2]))


def test_crossing_example_not_projective():
    # arcs 2->4 and 3->1 cross
    s = make_sentence([3, 0, 2, 2])
    assert not is_projective(s)


def test_projectivity_matches_brute_force_exhaustively():
    for n in range(1, 6):
        for heads in all_trees(n):
            s = make_sentence(heads)
            arcs = [(heads[d - 1], d) for d in range(1, n + 1)]
            brute = not any(
                arcs_cross(*a, *b) for a, b in itertools.combinations(arcs, 2)
            )
            assert is_projective(s) == brute, heads


def test_projectivity_matches_brute_force_random_large():
    rng = np.random.default_rng(8)
    for _ in range(300):
        n = int(rng.integers(6, 14))
        heads = random_tree(n, rng)
        s = make_sentence(heads)
        arcs = [(heads[d - 1], d) for d in range(1, n + 1)]
        brute = not any(
            arcs_cross(*a, *b) for a, b in itertools.combinations(arcs, 2)
        )
        assert is_projective(s) == brute, heads


def test_projectivize_identity_on_projective():
    s = make_sentence([2, 0, 2])
    assert projectivize(s) is s


def test_projectivize_lifts_shortest_arc_to_grandparent():
    # crossing pair: (3,1) and (2,4); tie on span, lower dependent lifted first:
    # token 1 re-attaches to head(3) = 2, which already resolves the crossing
    s = make_sentence([3, 0, 2, 2])
    p = projectivize(s)
    assert p.gold_heads() == [2, 0, 2, 2]
    assert is_projective(p)
    assert [t.form for t in p.tokens] == [t.form for t in s.tokens]
    assert [t.gold_deprel for t in p.tokens] == [t.gold_deprel for t in s.tokens]


def test_projectivize_property_random_trees():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n = int(rng.integers(1, 11))
        s = make_sentence(random_tree(n, rng))
        p = projectivize(s)
        assert is_projective(p)
        assert len(p) == len(s)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1, 40),
    n_chained=st.integers(1, 6),
    p_nonproj=st.floats(0.05, 1.0),
)
def test_projectivize_lifts_the_arcs_the_pairwise_scan_lifts(seed, n, n_chained, p_nonproj):
    rng = np.random.default_rng(seed)
    random = make_sentence(random_tree(n, rng))
    chained = chain_sentences(generate_corpus(n_chained, seed=seed, p_nonproj=p_nonproj))
    for s in (random, chained):
        p = projectivize(s)
        assert p.gold_heads() == reference_projectivize_heads(s.gold_heads())
        assert is_projective(p)


def test_projectivize_long_nonprojective_chain_is_fast():
    sentences, n = [], 0
    for s in generate_corpus(80, seed=1, p_nonproj=1.0):
        sentences.append(s)
        n += len(s)
        if n >= 396:
            break
    chain = chain_sentences(sentences)
    assert len(chain) == 396 and not is_projective(chain)
    t0 = time.perf_counter()
    p = projectivize(chain)
    elapsed = time.perf_counter() - t0
    assert is_projective(p)
    assert sum(a != b for a, b in zip(p.gold_heads(), chain.gold_heads())) == 78
    assert elapsed < 0.1, elapsed


def check_outcome(check, sentence):
    """The error message ``check`` raises on ``sentence``, or None."""
    try:
        check(sentence)
    except CorpusError as e:
        return str(e)
    return None


@settings(max_examples=400, deadline=None)
@given(head_arrays())
def test_validate_tree_matches_the_walk_up_reference(heads):
    s = make_sentence(heads, sid="h")
    assert check_outcome(validate_tree, s) == check_outcome(reference_validate_tree, s)


def test_validate_tree_long_chain_is_fast():
    """Each token heads the next, the deepest tree of its length; the
    walk-up check took 0.7-0.8 s on this chain on a 2-vCPU host."""
    n = 4000
    chain = make_sentence(list(range(n)))
    heads = list(range(n))
    heads[n // 2] = n  # tokens n/2 + 1 .. n form a cycle
    cyclic = make_sentence(heads, sid="c")
    elapsed = []
    for _ in range(3):  # best of three, so a busy host does not fail it
        t0 = time.perf_counter()
        validate_tree(chain)
        with pytest.raises(CorpusError, match=f"^sentence c: cycle through token {n // 2 + 1}$"):
            validate_tree(cyclic)
        elapsed.append(time.perf_counter() - t0)
    assert min(elapsed) < 0.1, elapsed


def test_vocab_ids_dense_and_deterministic():
    v = Vocab()
    assert v.id_of("x") == 1  # unknown
    ids = [v.add(s) for s in ["b", "a", "b", "c"]]
    assert ids == [2, 3, 2, 4]
    assert v.string_of(2) == "b"
    assert v.n_classes == 3
    assert v.class_index("b") == 0
    assert v.class_string(2) == "c"
    v2 = Vocab(["b", "a", "c"])
    assert v == v2


def test_vocab_null_unknown_reserved():
    v = Vocab(["a"])
    assert v.id_of("a") == 2
    assert v.id_of("zzz") == 1
    assert "<NULL>" in v and "<UNK>" in v
    with pytest.raises(KeyError):
        v.class_index("<NULL>")


def test_build_vocabs_lowercases_forms():
    s = make_sentence([0, 1], forms=["The", "the"])
    forms, tags, labels = build_vocabs([s])
    assert forms.n_classes == 1


def test_opaque_columns_preserved():
    text = "1\tHi\tlemma\tINTJ\tUH\tFoo=Bar\t0\troot\t0:root\tSpaceAfter=No\n"
    sents = parse_conllu(text)
    assert emit_conllu(sents) == text + "\n"
