"""Tree and ensemble domain types."""

import pytest

from treeagg.trees import (
    DepTree,
    InvalidTreeError,
    ParseEnsemble,
    Sentence,
    edges_of,
    heads_from_edges,
    pooled_ensemble,
    validate_tree,
)


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


def test_deptree_validates_on_construction():
    tree = DepTree((0, 1, 1))
    assert len(tree) == 3
    assert tree.root_edges == 1
    with pytest.raises(InvalidTreeError):
        DepTree((2, 1))
    with pytest.raises(InvalidTreeError):
        DepTree((1,))


def test_deptree_coerces_to_int_tuple():
    assert DepTree([0.0, 1.0]).heads == (0, 1)


def test_edges_roundtrip():
    tree = DepTree((2, 0, 2))
    assert edges_of(tree) == [(2, 1), (0, 2), (2, 3)]
    assert heads_from_edges(edges_of(tree), 3) == tree


def test_heads_from_edges_rejects_bad_edge_sets():
    with pytest.raises(InvalidTreeError, match="two heads"):
        heads_from_edges([(0, 1), (2, 1)], 2)
    with pytest.raises(InvalidTreeError, match="without a head"):
        heads_from_edges([(0, 1)], 2)
    with pytest.raises(InvalidTreeError, match="outside"):
        heads_from_edges([(0, 5)], 2)


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


def test_restrict_keeps_ensemble_order():
    t1, t2, t3 = DepTree((0,)), DepTree((0,)), DepTree((0,))
    ens = _ens(["a", "b", "c"], {"s1": (t1, t2, t3)})
    # request order does not matter, ensemble order wins
    sub = ens.restrict(["c", "a"])
    assert sub.parser_ids == ("a", "c")
    with pytest.raises(ValueError, match="unknown parser ids"):
        ens.restrict(["a", "zz"])


def test_pooled_ensemble_prefixes_sentence_ids():
    t = DepTree((0,))
    e1 = _ens(["a", "b"], {"s1": (t, t)})
    e2 = _ens(["a", "b"], {"s1": (t, t), "s2": (t, t)})
    pooled = pooled_ensemble({"x": e1, "y": e2})
    assert pooled.sentence_ids == ("x/s1", "y/s1", "y/s2")
    e3 = _ens(["a", "c"], {"s1": (t, t)})
    with pytest.raises(ValueError, match="different parser ids"):
        pooled_ensemble({"x": e1, "y": e3})
    with pytest.raises(ValueError, match="nothing to pool"):
        pooled_ensemble({})
