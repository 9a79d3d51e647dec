"""Synthetic corpus generator: determinism, noise levels, duplicates, and
the repair of damaged preferences into trees."""

import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    blocks_of,
    lines_of,
    reference_random_single_root_tree,
    reference_repair,
    words_of,
)
from treeagg import synth
from treeagg.conllu import write_conllu
from treeagg.evaluation import uas
from treeagg.synth import (
    SynthConfig,
    SynthResult,
    _random_single_root_tree,
    _repair,
    generate,
)
from treeagg.trees import validate_tree

CFG = SynthConfig(
    sentences=150,
    tokens=(8, 14),
    rates=(0.0, 0.1, 0.25, 0.4),
    seed=21,
    duplicates=(2,),
)


@pytest.fixture(scope="module")
def corpus() -> SynthResult:
    return generate(CFG)


def test_config_validation():
    with pytest.raises(ValueError, match="bad corpus size"):
        SynthConfig(0, (5, 9), (0.1,), seed=1)
    with pytest.raises(ValueError, match="bad corpus size"):
        SynthConfig(10, (9, 5), (0.1,), seed=1)
    with pytest.raises(ValueError, match=r"lie in \[0, 1\)"):
        SynthConfig(10, (5, 9), (0.1, 1.0), seed=1)
    with pytest.raises(ValueError, match="out of range"):
        SynthConfig(10, (5, 9), (0.1,), seed=1, duplicates=(1,))
    assert CFG.m == 5


def test_shapes_and_names(corpus):
    assert len(corpus.gold.sentences) == 150
    assert corpus.gold.sentences[0].sentence_id == "synth0001"
    assert corpus.ensemble.parser_ids == (
        "parser_1",
        "parser_2",
        "parser_3",
        "parser_4",
        "parser_5",
    )
    sizes = {len(s) for s in corpus.gold.sentences}
    assert min(sizes) >= 8 and max(sizes) <= 14
    tb = corpus.files[1]
    lines = lines_of(tb)
    start, q = int(blocks_of(tb)[0, 0]), int(tb.lengths[0])
    assert lines[start] == "# sent_id = synth0001"
    assert (words_of(tb)[:q] - start).tolist() == list(range(1, q + 1))
    assert tb.column(1)[:q] == [f"w{d}" for d in range(1, q + 1)]
    assert lines[start + 1] == f"1\tw1\t_\t_\t_\t_\t{tb.heads[0]}\t_\t_\t_"


def test_every_tree_is_valid_and_single_rooted(corpus):
    for tb in (corpus.gold, *corpus.files):
        for s in tb.sentences:
            assert validate_tree(s.tree.heads, len(s.tree)).ok
            assert s.tree.heads.count(0) == 1


def test_zero_rate_parser_reproduces_gold(corpus):
    gold = [s.tree for s in corpus.gold.sentences]
    assert [s.tree for s in corpus.files[0].sentences] == gold


def test_duplicate_copies_its_source_exactly(corpus):
    source = [s.tree for s in corpus.files[2].sentences]
    dup = [s.tree for s in corpus.files[4].sentences]
    assert dup == source
    assert corpus.accuracies[4] == corpus.accuracies[2]


def test_configured_accuracies_are_one_minus_rate(corpus):
    assert corpus.accuracies == (1.0, 0.9, 0.75, 0.6, 0.75)


def test_measured_uas_tracks_the_rates(corpus):
    measured = [uas(f, corpus.gold) for f in corpus.files[:4]]
    # corruption always re-points to a wrong head and the validity
    # repair can only break more, so the target is an upper bound
    for got, rate in zip(measured, CFG.rates):
        target = 100.0 * (1.0 - rate)
        assert got <= target + 0.5
        assert got >= target - 8.0
    assert measured[0] == 100.0
    assert measured[0] > measured[1] > measured[2] > measured[3]


def test_same_seed_regenerates_identical_bytes(corpus):
    again = generate(CFG)
    assert write_conllu(again.gold) == write_conllu(corpus.gold)
    for mine, theirs in zip(corpus.files, again.files):
        assert write_conllu(mine) == write_conllu(theirs)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40))
def test_gold_draws_equal_the_scalar_sampler(seed, q):
    # the same tree, and the stream left at the same place
    vector, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    assert _random_single_root_tree(q, vector) == reference_random_single_root_tree(q, scalar)
    assert vector.random() == scalar.random()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(0, 20))
def test_corpus_bytes_equal_those_of_the_scalar_sampler(seed, lo, spread):
    config = SynthConfig(6, (lo, lo + spread), (0.0, 0.2, 0.5), seed, duplicates=(1,))
    vector = generate(config)
    with mock.patch.object(synth, "_random_single_root_tree", reference_random_single_root_tree):
        scalar = generate(config)
    for mine, theirs in zip((vector.gold, *vector.files), (scalar.gold, *scalar.files)):
        assert write_conllu(mine) == write_conllu(theirs)


def test_different_seed_changes_the_corpus(corpus):
    other = generate(
        SynthConfig(
            sentences=150,
            tokens=(8, 14),
            rates=(0.0, 0.1, 0.25, 0.4),
            seed=22,
            duplicates=(2,),
        )
    )
    assert write_conllu(other.gold) != write_conllu(corpus.gold)


def test_prefix_is_stable_under_corpus_growth(corpus):
    # per-sentence RNG streams: the first 50 sentences of a 150-sentence
    # corpus equal the 50-sentence corpus outright
    small = generate(
        SynthConfig(
            sentences=50,
            tokens=(8, 14),
            rates=(0.0, 0.1, 0.25, 0.4),
            seed=21,
            duplicates=(2,),
        )
    )
    assert [s.tree for s in small.gold.sentences] == [
        s.tree for s in corpus.gold.sentences[:50]
    ]
    for j in range(5):
        assert [s.tree for s in small.files[j].sentences] == [
            s.tree for s in corpus.files[j].sentences[:50]
        ]


@st.composite
def preferences(draw, max_q=12):
    """Heads in 0..q with no self-loop: a drawn set of tokens point at the
    root and every other token at another token, so cycles are common."""
    q = draw(st.integers(1, max_q))
    roots = draw(st.sets(st.integers(1, q)))
    prefs = []
    for d in range(1, q + 1):
        others = [h for h in range(1, q + 1) if h != d]
        prefs.append(0 if d in roots or not others else draw(st.sampled_from(others)))
    return prefs


def count_cycles(prefs) -> int:
    """Cycles of the functional graph d -> prefs[d - 1]: q steps from any
    token end at the root or on a cycle, named here by its smallest token."""
    q = len(prefs)
    smallest = set()
    for v in range(1, q + 1):
        for _ in range(q):
            v = prefs[v - 1] if v else 0
        if v:
            cycle, u = [v], prefs[v - 1]
            while u != v:
                cycle.append(u)
                u = prefs[u - 1]
            smallest.add(min(cycle))
    return len(smallest)


def kept(prefs, heads) -> int:
    return sum(p == h for p, h in zip(prefs, heads))


@settings(max_examples=1000, deadline=None)
@given(preferences())
@example([2, 1, 0, 5, 4, 0])
@example([2, 3, 1, 5, 4])
def test_repair_keeps_all_preferred_heads_but_one_per_cycle_and_extra_root(prefs):
    q = len(prefs)
    heads = _repair(prefs)
    assert validate_tree(heads, q).ok and heads.count(0) == 1
    assert kept(prefs, heads) == q - (count_cycles(prefs) + max(prefs.count(0), 1) - 1)
    if prefs.count(0) == 1 and validate_tree(prefs, q).ok:
        assert heads == tuple(prefs)


@settings(max_examples=300, deadline=None)
@given(preferences(max_q=8))
def test_repair_keeps_as_many_preferred_heads_as_the_complete_graph_solver(prefs):
    assert kept(prefs, _repair(prefs)) == kept(prefs, reference_repair(prefs))


def test_repair_follows_the_stated_rule():
    # cycles (1 2) and (4 5) are cut at 1 and 4; 3 is the smallest root
    # child, so the cuts and the other root child 6 go under it
    assert _repair([2, 1, 0, 5, 4, 0]) == (3, 1, 0, 3, 4, 3)
    # no root child: the smallest cut, 1, goes under the root
    assert _repair([2, 3, 1, 5, 4]) == (0, 3, 1, 1, 4)


def test_repair_and_generation_take_little_time_on_long_sentences():
    # 1000 two-cycles over 2000 tokens, then a corpus of 60-token sentences,
    # which the complete-graph solver took about two minutes to repair, and
    # one of 1000-token sentences, whose gold trees take over eight seconds
    # to sample with one scalar draw per head
    start = time.perf_counter()
    prefs = [d + 1 if d % 2 else d - 1 for d in range(1, 2001)]
    heads = _repair(prefs)
    corpus = generate(SynthConfig(4, (60, 60), (0.05, 0.1, 0.15, 0.2, 0.25, 0.3), seed=1))
    long = generate(SynthConfig(4, (1000, 1000), (0.1,), seed=1))
    elapsed = time.perf_counter() - start
    assert validate_tree(heads, 2000).ok and kept(prefs, heads) == 1000
    assert len(corpus.files) == 6 and len(long.files) == 1
    assert elapsed < 5.0
