"""Tree and ensemble domain types."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeagg.trees import (
    DepTree,
    ParseEnsemble,
    Sentence,
    check_trees,
    find_cycles,
    validate_tree,
)

from helpers import edges_of, ensemble_of, head_sequences, reference_tree_check


def test_validate_tree_accepts_valid_sequences():
    assert validate_tree([0], 1).ok
    assert validate_tree([2, 0], 2).ok  # chain 0 -> 2 -> 1
    assert validate_tree([0, 1, 1], 3).ok


def test_validate_tree_names_first_violation():
    assert validate_tree([0, 3], 2).reason == "out-of-range"
    assert validate_tree([0], 2).reason == "out-of-range"  # wrong length
    assert validate_tree([1, 0], 2).reason == "self-loop"
    assert validate_tree([2, 1], 2).reason == "cycle"
    assert validate_tree([2, 3, 2], 3).reason == "cycle"


@settings(max_examples=1000, deadline=None)
@given(
    st.integers(1, 10).flatmap(
        lambda q: st.lists(st.integers(-1, q + 1), min_size=q, max_size=q)
    )
)
def test_validate_tree_matches_the_reference(heads):
    q = len(heads)
    check = validate_tree(heads, q)
    assert check.reason == reference_tree_check(heads, q)
    assert check.ok == (check.reason is None)
    if check.reason == "cycle":
        # the walk yields real cycles, each in parent order, and every
        # token on a cycle lies on exactly one of them
        cycles = list(find_cycles(heads))
        for cycle in cycles:
            assert [heads[v - 1] for v in cycle] == cycle[1:] + cycle[:1]
        on_cycle = []
        for d in range(1, q + 1):
            node = heads[d - 1]
            for _ in range(q):
                if node in (0, d):
                    break
                node = heads[node - 1]
            if node == d:
                on_cycle.append(d)
        assert sorted(v for cycle in cycles for v in cycle) == on_cycle


def test_deptree_validates_on_construction():
    tree = DepTree((0, 1, 1))
    assert len(tree) == 3
    assert tree.heads.count(0) == 1
    with pytest.raises(ValueError, match=r"bad head sequence \(2, 1\): cycle"):
        DepTree((2, 1))
    with pytest.raises(ValueError, match=r"bad head sequence \(1,\): self-loop"):
        DepTree((1,))


def test_deptree_coerces_to_int_tuple():
    assert DepTree([0.0, 1.0]).heads == (0, 1)


def test_edges_roundtrip():
    tree = DepTree((2, 0, 2))
    assert edges_of(tree) == [(2, 1), (0, 2), (2, 3)]
    assert DepTree(tuple(h for h, _ in edges_of(tree))) == tree


def test_sentence_invariants():
    # a sentence is its id and a tree; its length is the tree's
    sent = Sentence("s1", DepTree((0, 1)))
    assert (sent.sentence_id, sent.tree.heads, len(sent)) == ("s1", (0, 1), 2)


def test_ensemble_invariants():
    t = DepTree((0, 1))
    ens = ensemble_of(["a", "b"], {"s1": (t, t)})
    assert ens.m == 2
    assert ens.parser_ids == ("a", "b")
    assert ens.sentence_ids == ("s1",)
    assert np.diff(ens.offsets).tolist() == [2]
    assert ens.heads.tolist() == [[0, 1], [0, 1]]
    for a in (ens.offsets, ens.heads):
        with pytest.raises(ValueError):
            a[0] = 1  # read-only
    with pytest.raises(ValueError, match="duplicate parser ids"):
        ParseEnsemble(("a", "a"), ("s1",), np.array([0, 2]), np.zeros((2, 2), np.int64))
    with pytest.raises(ValueError, match="trees for"):
        ensemble_of(["a", "b"], {"s1": (t,)})
    with pytest.raises(ValueError, match="token count"):
        ensemble_of(["a", "b"], {"s1": (t, DepTree((0,)))})


@st.composite
def head_lists(draw):
    """Head sequences over q tokens: trees, trees with one head redrawn
    (often a cycle or self-loop), and arbitrary values, some out of range."""
    q = draw(st.integers(0, 8))
    if q and draw(st.booleans()):
        heads = list(draw(head_sequences(q)).heads)
        if draw(st.booleans()):
            heads[draw(st.integers(0, q - 1))] = draw(st.integers(-1, q + 1))
        return heads
    return draw(st.lists(st.integers(-2, q + 2), min_size=q, max_size=q))


@settings(max_examples=400, deadline=None)
@given(st.lists(head_lists(), max_size=6))
def test_check_trees_agrees_with_validate_tree(seqs):
    offsets = np.cumsum([0] + [len(h) for h in seqs])
    heads = np.array([h for hs in seqs for h in hs], dtype=np.int64)
    expected = [validate_tree(hs, len(hs)).ok for hs in seqs]
    assert check_trees(heads, offsets).tolist() == expected


def test_check_trees_finds_a_long_cycle():
    # the longest sentence sets the number of pointer doublings
    chain = [0] + list(range(1, 31))  # 0 <- 1 <- 2 <- ... <- 31
    ring = list(range(2, 32)) + [1]  # 1 -> 2 -> ... -> 31 -> 1
    heads = np.array(chain + ring + [0])
    assert check_trees(heads, np.array([0, 31, 62, 63])).tolist() == [True, False, True]
