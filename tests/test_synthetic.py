"""The synthetic grammar is pinned: a seed and its settings give the same
corpus in every version, so benchmarks and acceptance runs stay comparable."""

import hashlib

import numpy as np
import pytest

from stackprop import synthetic
from stackprop.corpus import emit_conllu
from stackprop.synthetic import Grammar, generate_corpus

# sha256 of emit_conllu(generate_corpus(200, seed, **settings)), first computed
# with Generator.choice drawing every weighted index
PINNED = [
    (1, {}, "88e06ea86f44fda8e6f83568596690040bd35745a3e7dc0598c461ad6087d169"),
    (2, {"p_nonproj": 0.3}, "d06b9e4d8f9969d4847727cdc81aab7f40edca946a05567909f15eb3c93526d5"),
    (3, {"lexicon_size": 40000, "zipf": 0.2},
     "f4b5fd5a2b368a40ddc71367d7df4722d44525092fafec10a5d95a1d9b1ca048"),
    # the 10-stem floor
    (4, {"lexicon_size": 5}, "fa59fb5a47a79f1616e4159bc8c9218c9227e5eed6f23116a7a57b17d159b659"),
    # numbered stems past the 400 syllable pairs
    (5, {"lexicon_size": 1000}, "8a738c78c7fa47615189772b6e6eefceff79c5d264d7ca434c7b6f768e476476"),
]


@pytest.mark.parametrize("seed,settings,digest", PINNED, ids=lambda x: str(x))
def test_seeded_corpus_is_pinned(seed, settings, digest):
    text = emit_conllu(generate_corpus(200, seed=seed, **settings))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def reference_stems(count):
    """The per-index loop that first defined the stems."""
    out, i = [], 0
    syl = synthetic._SYLLABLES
    while len(out) < count:
        out.append(syl[i % len(syl)] + syl[(i // len(syl)) % len(syl)]
                   + ("" if i < len(syl) ** 2 else str(i)))
        i += 1
    return out


@pytest.mark.parametrize("count", [0, 1, 10, 399, 400, 401, 1000, 40000])
def test_stems_match_the_per_index_reference(count):
    assert synthetic._stems(count) == reference_stems(count)


@pytest.mark.parametrize("zipf", [1.1, 0.2])
def test_cdf_draw_is_generator_choice(zipf):
    """Over both Zipf tables and the adjective counts, the CDF draw returns
    the index ``Generator.choice(n, p=p)`` returns and leaves the generator
    where ``choice`` leaves it."""
    g = Grammar(lexicon_size=3000, zipf=zipf)
    tables = [Grammar._zipf(len(g.noun_stems), zipf), Grammar._zipf(len(g.verb_stems), zipf),
              np.array([0.6, 0.3, 0.1])]
    cdfs = [g._noun_cdf, g._verb_cdf, synthetic._ADJ_COUNT_CDF]
    for p, cdf in zip(tables, cdfs):
        assert np.array_equal(synthetic._cdf(p), cdf)
        for seed in range(5):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(200):
                assert synthetic._draw(cdf, ours) == int(theirs.choice(len(p), p=p))
            assert ours.random() == theirs.random()
