"""Edge-level reduction: candidate unions, vote matrix, majority labels,
and decoding trees from edge scores."""

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeagg import edges
from treeagg.arborescence import NoArborescenceError, WeightedTokenGraph, max_arborescence
from treeagg.edges import (
    EdgeLabelMatrix,
    iter_dump_lines,
    label_matrix,
    majority_vote,
    sentence_rows,
    tree_labels,
    trees_from_scores,
)
from treeagg.trees import DepTree, validate_tree

from helpers import (
    edges_of,
    ensemble_of,
    head_sequences,
    placeholder_matrix,
    reference_dump_lines,
    reference_label_matrix,
    trees_by_id,
)


def two_parser_ensemble():
    # parsers agree on tokens 1 and 2, disagree on token 3's head
    a = DepTree((0, 1, 2))
    b = DepTree((0, 1, 1))
    return ensemble_of(("a", "b"), {"s1": (a, b)})


def row_edges(matrix):
    return list(zip(matrix.heads.tolist(), matrix.deps.tolist()))


def test_union_of_identical_trees_has_tree_size():
    t = DepTree((0, 1, 1))
    ens = ensemble_of(("a", "b"), {"s1": (t, t)})
    matrix = label_matrix(ens)
    assert matrix.sentence_ids == ("s1",)
    assert matrix.offsets.tolist() == [0, 3]
    assert row_edges(matrix) == [(0, 1), (1, 2), (1, 3)]


def test_union_of_disagreeing_trees_grows_by_one():
    matrix = label_matrix(two_parser_ensemble())
    assert row_edges(matrix) == [(0, 1), (1, 2), (1, 3), (2, 3)]


def test_label_matrix_encodes_membership():
    matrix = label_matrix(two_parser_ensemble())
    assert matrix.parser_ids == ("a", "b")
    assert matrix.labels.dtype == np.int8
    expected = np.array(
        [[1, 1], [1, 1], [-1, 1], [1, -1]], dtype=np.int8
    )  # rows follow the sorted union above
    assert (matrix.labels == expected).all()
    assert (matrix.heads[3], matrix.deps[3]) == (2, 3)


def test_every_parser_tree_is_reconstructible_from_plus_ones():
    ens = two_parser_ensemble()
    matrix = label_matrix(ens)
    for k in range(ens.m):
        chosen = [
            e for e, lab in zip(row_edges(matrix), matrix.labels[:, k]) if lab == 1
        ]
        assert sorted(chosen) == sorted(edges_of(trees_by_id(ens.heads[k], ens)["s1"]))
        # exactly q votes per (sentence, parser)
        assert len(chosen) == ens.offsets[1] - ens.offsets[0]


def test_every_row_has_a_proposer():
    matrix = label_matrix(two_parser_ensemble())
    assert ((matrix.labels == 1).sum(axis=1) >= 1).all()


def test_matrix_is_deterministic_and_frozen():
    m1 = label_matrix(two_parser_ensemble())
    m2 = label_matrix(two_parser_ensemble())
    assert m1.sentence_ids == m2.sentence_ids
    for name in ("offsets", "heads", "deps", "labels"):
        a, b = getattr(m1, name), getattr(m2, name)
        assert (a == b).all()
        with pytest.raises(ValueError):
            a[0] = 0  # read-only


def test_matrix_validation():
    def make(labels, offsets=(0, 2), heads=(0, 0), deps=(1, 2)):
        return EdgeLabelMatrix(
            ("s1",) * (len(offsets) - 1),
            np.array(offsets),
            np.array(heads),
            np.array(deps),
            labels,
            ("a", "b"),
        )

    good = np.array([[1, -1], [1, 1]], dtype=np.int8)
    make(good)
    for bad in (np.zeros((2, 2), dtype=np.int8), np.where(good == 1, 1.0, np.nan),
                np.where(good == 1, 1, -128).astype(np.int8)):
        with pytest.raises(ValueError, match="-1 or"):
            make(bad)
    with pytest.raises(ValueError, match="does not match"):
        make(good[:1].copy())
    # a sentence's rows are one offsets slice, so rows can only belong to
    # one sentence each; offsets that do not tile the rows are refused
    for offsets in ((0, 1), (1, 2), (0, 2, 1, 2)):
        with pytest.raises(ValueError, match="do not match the rows"):
            make(good, offsets=offsets)
    with pytest.raises(ValueError, match="do not match the rows"):
        make(good, deps=(1,))


def test_from_labels_placeholders():
    labels = np.array([[1, -1], [-1, 1]], dtype=np.int8)
    matrix = placeholder_matrix(labels)
    assert matrix.parser_ids == ("p1", "p2")
    assert matrix.n_edges == 2
    assert matrix.sentence_ids == ("r0", "r1")
    assert matrix.offsets.tolist() == [0, 1, 2]
    assert row_edges(matrix) == [(0, 1), (0, 1)]


def test_majority_vote_breaks_ties_up():
    labels = np.array(
        [[1, 1, -1], [1, -1, -1], [1, 1, 1]], dtype=np.int8
    )
    mv = majority_vote(placeholder_matrix(labels))
    assert mv.tolist() == [1, -1, 1]
    even = np.array([[1, -1], [-1, 1]], dtype=np.int8)
    assert majority_vote(placeholder_matrix(even)).tolist() == [1, 1]
    # a weighted exact tie, 0.5 against 0.25 + 0.25, where one each gives -1
    weights = np.array([0.5, 0.25, 0.25])
    assert majority_vote(placeholder_matrix(labels), weights).tolist() == [1, 1, 1]


def test_sentence_rows_yields_contiguous_slices():
    t = DepTree((0, 1))
    u = DepTree((2, 0))
    ens = ensemble_of(("a", "b"), {"s1": (t, u), "s2": (t, t)})
    matrix = label_matrix(ens)
    spans = list(sentence_rows(matrix))
    assert [sid for sid, _ in spans] == ["s1", "s2"]
    assert spans[0][1] == slice(0, 4)  # disjoint trees, union of 4
    assert spans[1][1] == slice(4, 6)
    assert sum(s.stop - s.start for _, s in spans) == matrix.n_edges


def test_trees_from_scores_separable_case():
    ens = two_parser_ensemble()
    matrix = label_matrix(ens)
    gold = DepTree((0, 1, 1))
    gold_edges = set(edges_of(gold))
    scores = np.array(
        [0.9 if e in gold_edges else 0.1 for e in row_edges(matrix)]
    )
    out = trees_from_scores(matrix, scores, ens)
    assert out.tolist() == list(gold.heads)
    assert trees_by_id(out, ens) == {"s1": gold}


def scored_matrix(sentences):
    """A one-parser matrix over ``{sid: {(head, dep): score}}`` with its
    scores, and an ensemble of the same sentences in the same order giving
    each its token count (the largest dependent)."""
    sids = list(sentences)
    rows = [(h, d, w) for sid in sids for (h, d), w in sorted(sentences[sid].items())]
    heads, deps, scores = (np.array(c) for c in zip(*rows))
    sizes = [len(sentences[sid]) for sid in sids]
    matrix = EdgeLabelMatrix(
        tuple(sids), np.cumsum([0, *sizes]), heads, deps,
        np.ones((len(rows), 1), np.int8), ("p",),
    )
    chains = {
        sid: (DepTree(tuple(range(max(d for _, d in sentences[sid])))),)
        for sid in sids
    }
    return matrix, scores.astype(np.float64), ensemble_of(("p",), chains)


def solver_decode(matrix, scores, ensemble, single_root):
    """One ``max_arborescence`` per sentence: the decode without a fast path."""
    out = {}
    q = np.diff(ensemble.offsets).tolist()
    for i, (sid, r) in enumerate(sentence_rows(matrix)):
        arcs = zip(matrix.heads[r].tolist(), matrix.deps[r].tolist(), scores[r].tolist())
        graph = WeightedTokenGraph(q[i], tuple(arcs))
        out[sid] = DepTree(max_arborescence(graph, single_root))
    return out


def decode_spying(matrix, scores, ensemble, single_root):
    """``trees_from_scores`` cut into trees by sentence id, and the arcs of
    each graph it sent to the solver."""
    solved = []

    def spy(graph, enforce_single_root):
        solved.append(tuple(map(tuple, graph.arcs.tolist())))
        return max_arborescence(graph, enforce_single_root)

    with mock.patch.object(edges, "max_arborescence", spy):
        heads = trees_from_scores(matrix, scores, ensemble, single_root)
    return trees_by_id(heads, ensemble), solved


def test_greedy_heads_with_two_roots_or_a_cycle_reach_the_solver():
    two_roots = {(0, 1): 3.0, (0, 2): 3.0, (1, 2): 1.0}
    cycle = {(0, 1): 1.0, (2, 1): 3.0, (0, 2): 1.0, (1, 2): 3.0}
    matrix, scores, ens = scored_matrix({"roots": two_roots, "cycle": cycle})
    for single_root, n_solved in ((True, 2), (False, 1)):
        got, solved = decode_spying(matrix, scores, ens, single_root)
        assert got == solver_decode(matrix, scores, ens, single_root)
        assert len(solved) == n_solved
    assert got["roots"].heads == (0, 0)  # accepted once two roots are allowed


def test_a_float_tie_decodes_to_the_exact_maximum():
    # The greedy heads (2, 0) score 1 + 1e16 exactly; rooting at token 1
    # instead gives (0, 1) at 0.5 + 1e16. Both totals round to 1e16, and the
    # solver keeps the smaller heads; the decode keeps the larger exact total.
    scores = {(0, 1): 0.5, (2, 1): 1.0, (0, 2): 1e16, (1, 2): 1e16}
    matrix, w, ens = scored_matrix({"s": scores})
    assert 1.0 + 1e16 == 0.5 + 1e16
    assert solver_decode(matrix, w, ens, True)["s"].heads == (0, 1)
    got, solved = decode_spying(matrix, w, ens, True)
    assert got["s"].heads == (2, 0) and solved == []
    # with token 1's arcs tied exactly, both keep the smaller heads
    matrix, w, ens = scored_matrix({"s": {**scores, (0, 1): 1.0}})
    assert trees_from_scores(matrix, w, ens).tolist() == [0, 1]
    assert solver_decode(matrix, w, ens, True)["s"].heads == (0, 1)


def test_decode_refuses_what_the_graph_refuses():
    matrix, w, ens = scored_matrix({"s": {(0, 1): 1.0, (1, 2): 1.0}})
    with pytest.raises(ValueError, match="non-finite"):
        trees_from_scores(matrix, np.array([1.0, np.nan]), ens)
    # no row is left to pick a best head from
    with pytest.raises(ValueError, match=r"non-finite weight on arc \(0, 1\)"):
        trees_from_scores(matrix, np.full(2, np.nan), ens)
    # token 3 of the ensemble's sentence has no candidate arc
    ens3 = ensemble_of(("p",), {"s": (DepTree((0, 1, 2)),)})
    with pytest.raises(NoArborescenceError):
        trees_from_scores(matrix, w, ens3)
    no_words = ensemble_of(("p",), {"s": (DepTree(()),)})
    for single_root in (True, False):
        with pytest.raises(ValueError, match="at least one token"):
            trees_from_scores(label_matrix(no_words), np.zeros(0), no_words, single_root)
    empty = ensemble_of(("p",), {})
    out = trees_from_scores(label_matrix(empty), np.zeros(0), empty)
    assert out.dtype == np.int64 and out.shape == (0,)


def test_a_bad_row_raises_before_any_sentence_is_solved():
    # sentence s cannot be solved (token 3 has no candidate arc) and comes
    # first; t's one row has no finite score, which raises first
    matrix, w, _ = scored_matrix({"s": {(0, 1): 1.0, (1, 2): 1.0}, "t": {(0, 1): 1.0}})
    ens = ensemble_of(("p",), {"s": (DepTree((0, 1, 2)),), "t": (DepTree((0,)),)})
    with pytest.raises(NoArborescenceError, match="node 3 has no incoming arc"):
        trees_from_scores(matrix, w, ens)
    w[2] = np.nan
    with pytest.raises(ValueError, match=r"non-finite weight on arc \(0, 1\)"):
        trees_from_scores(matrix, w, ens)


def test_decode_wants_one_score_per_row():
    matrix, w, ens = scored_matrix({"s": {(0, 1): 1.0, (1, 2): 1.0}, "t": {(0, 1): 1.0}})
    for scores in (w[:, None], w[None, :], w[:-1], np.append(w, 1.0)):
        message = f"scores of shape {scores.shape} for 3 rows"
        with pytest.raises(ValueError, match=re.escape(message)):
            trees_from_scores(matrix, scores, ens)


def test_decode_refuses_a_matrix_of_other_sentences():
    sentences = {"s": {(0, 1): 1.0}, "t": {(0, 1): 1.0, (1, 2): 1.0}}
    matrix, w, ens = scored_matrix(sentences)
    assert trees_from_scores(matrix, w, ens).tolist() == [0, 0, 1]
    chains = {"t": (DepTree((0, 1)),), "s": (DepTree((0,)),)}
    others = (
        ensemble_of(("p",), chains),  # the same sentences in another order
        ensemble_of(("p",), {"s": chains["s"]}),  # a sentence missing
        ensemble_of(("p",), {"s": chains["s"], "u": chains["t"]}),  # other ids
    )
    for other in others:
        with pytest.raises(ValueError, match="different sentences"):
            trees_from_scores(matrix, w, other)


@st.composite
def tied_scores(draw):
    """Up to four sentences of 1-6 tokens: a random arc set over the chain
    0 -> 1 -> ... -> q, so a single-rooted tree exists, with integer scores
    0..3, so ties are everywhere."""
    out = {}
    for s in range(draw(st.integers(1, 4))):
        q = draw(st.integers(1, 6))
        pairs = [(h, d) for d in range(1, q + 1) for h in range(q + 1) if h != d]
        arcs = set(draw(st.lists(st.sampled_from(pairs), unique=True)))
        arcs |= {(d - 1, d) for d in range(1, q + 1)}
        out[f"s{s}"] = {a: float(draw(st.integers(0, 3))) for a in sorted(arcs)}
    return out


def greedy_is_accepted(arcs, single_root):
    """Whether each dependent's best head (highest score, then smallest
    head) forms a tree, with one root arc under ``single_root``."""
    q = max(d for _, d in arcs)
    best = {}
    for (h, d), w in sorted(arcs.items()):
        if d not in best or w > arcs[(best[d], d)]:
            best[d] = h
    heads = [best[d] for d in range(1, q + 1)]
    return validate_tree(heads, q).ok and (not single_root or heads.count(0) == 1)


@settings(max_examples=300, deadline=None)
@given(tied_scores(), st.booleans())
def test_fast_path_equals_the_solver(sentences, single_root):
    matrix, scores, ens = scored_matrix(sentences)
    got, solved = decode_spying(matrix, scores, ens, single_root)
    assert got == solver_decode(matrix, scores, ens, single_root)
    rejected = [
        tuple((h, d, w) for (h, d), w in sorted(arcs.items()))
        for sid, arcs in sentences.items()
        if not greedy_is_accepted(arcs, single_root)
    ]
    assert solved == rejected


def test_dump_lines_format():
    matrix = label_matrix(two_parser_ensemble())
    lines = list(iter_dump_lines(matrix))
    assert lines[0] == "s1\t0\t1\t+1\t+1"
    assert lines[1] == "s1\t1\t2\t+1\t+1"
    assert lines[2] == "s1\t1\t3\t-1\t+1"
    assert len(lines) == matrix.n_edges


# ------------------------------------------------ properties vs reference


@st.composite
def ensembles(draw):
    m = draw(st.integers(2, 5))
    trees = {}
    for s in range(draw(st.integers(1, 4))):
        q = draw(st.integers(1, 8))
        trees[f"s{s}"] = tuple(draw(head_sequences(q)) for _ in range(m))
    return ensemble_of(tuple(f"p{k}" for k in range(m)), trees)


@settings(max_examples=200, deadline=None)
@given(ensembles())
def test_matrix_equals_set_based_reference(ens):
    matrix = label_matrix(ens)
    rows, spans, labels = reference_label_matrix(ens)
    sids = [sid for sid, rs in sentence_rows(matrix) for _ in range(rs.start, rs.stop)]
    assert list(zip(sids, matrix.heads.tolist(), matrix.deps.tolist())) == rows
    assert [(sid, rs.start, rs.stop) for sid, rs in sentence_rows(matrix)] == spans
    assert matrix.labels.dtype == np.int8
    assert np.array_equal(matrix.labels, labels)


@settings(max_examples=200, deadline=None)
@given(ensembles())
def test_each_parser_votes_once_per_token(ens):
    matrix = label_matrix(ens)
    q = np.diff(ens.offsets).tolist()
    for i, (_, rows) in enumerate(sentence_rows(matrix)):
        plus = (matrix.labels[rows] == 1).sum(axis=0)
        assert plus.tolist() == [q[i]] * ens.m
    # a parser's column is the labelling of its own trees
    for k in range(ens.m):
        own = tree_labels(matrix, ens.heads[k], ens.offsets)
        assert np.array_equal(own, matrix.labels[:, k])


@settings(max_examples=200, deadline=None)
@given(ensembles())
def test_dump_lines_equal_reference(ens):
    assert list(iter_dump_lines(label_matrix(ens))) == reference_dump_lines(ens)
