"""Synthetic corpus generator: determinism, noise levels, duplicates."""

import pytest

from treeagg.conllu import write_conllu
from treeagg.evaluation import uas
from treeagg.synth import SynthConfig, SynthResult, generate
from treeagg.trees import validate_tree

CFG = SynthConfig(
    n_sentences=150,
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
    first = corpus.files[1].sentences[0]
    assert first.lines[0] == "# sent_id = synth0001"
    assert first.words == tuple(range(1, len(first) + 1))
    assert first.forms == tuple(f"w{d}" for d in range(1, len(first) + 1))
    h = first.tree.heads[0]
    assert first.lines[1] == f"1\tw1\t_\t_\t_\t_\t{h}\t_\t_\t_"


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


def test_different_seed_changes_the_corpus(corpus):
    other = generate(
        SynthConfig(
            n_sentences=150,
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
            n_sentences=50,
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
