"""Tree and ensemble domain types."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeagg.trees import (
    DepTree,
    InvalidTreeError,
    ParseEnsemble,
    Sentence,
    find_cycle,
    validate_tree,
)

from helpers import edges_of, reference_tree_check


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
        # the walk returns a real cycle, in parent order
        cycle = find_cycle(heads)
        assert [heads[v - 1] for v in cycle] == cycle[1:] + cycle[:1]


def test_deptree_validates_on_construction():
    tree = DepTree((0, 1, 1))
    assert len(tree) == 3
    assert tree.heads.count(0) == 1
    with pytest.raises(InvalidTreeError):
        DepTree((2, 1))
    with pytest.raises(InvalidTreeError):
        DepTree((1,))


def test_deptree_coerces_to_int_tuple():
    assert DepTree([0.0, 1.0]).heads == (0, 1)


def test_edges_roundtrip():
    tree = DepTree((2, 0, 2))
    assert edges_of(tree) == [(2, 1), (0, 2), (2, 3)]
    assert DepTree(tuple(h for h, _ in edges_of(tree))) == tree


def test_sentence_invariants():
    lines = (
        "# sent_id = s1",
        "1\ta\t_\t_\t_\t_\t0\t_\t_\t_",
        "2\tb\t_\t_\t_\t_\t1\t_\t_\t_",
    )
    sent = Sentence("s1", lines, (1, 2), ("a", "b"), DepTree((0, 1)))
    assert len(sent) == 2
    assert sent.forms == ("a", "b")
    with pytest.raises(ValueError, match="no words"):
        Sentence("s2", lines[:1], (), (), DepTree((0,)))
    with pytest.raises(ValueError, match="tree over 1"):
        Sentence("s3", lines, (1, 2), ("a", "b"), DepTree((0,)))
    with pytest.raises(ValueError, match="1 forms"):
        Sentence("s3", lines, (1, 2), ("a",), DepTree((0, 1)))
    # word k must be the line whose id is k
    misnumbered = lines[:2] + ("3\tb\t_\t_\t_\t_\t1\t_\t_\t_",)
    with pytest.raises(ValueError, match="word 2 is line"):
        Sentence("s4", misnumbered, (1, 2), ("a", "b"), DepTree((0, 1)))
    with pytest.raises(ValueError, match="word 1 is line"):
        Sentence("s5", lines, (0, 2), ("a", "b"), DepTree((0, 1)))


def _ens(parser_ids, trees):
    return ParseEnsemble(tuple(parser_ids), trees)


def test_ensemble_invariants():
    t = DepTree((0, 1))
    ens = _ens(["a", "b"], {"s1": (t, t)})
    assert ens.m == 2
    assert ens.sentence_ids == ("s1",)
    assert ens.token_count("s1") == 2
    with pytest.raises(ValueError, match="duplicate parser ids"):
        _ens(["a", "a"], {"s1": (t, t)})
    with pytest.raises(ValueError, match="trees for"):
        _ens(["a", "b"], {"s1": (t,)})
    with pytest.raises(ValueError, match="token count"):
        _ens(["a", "b"], {"s1": (t, DepTree((0,)))})
