"""Maximum spanning arborescence: solver, oracle, and tie-breaking."""

import inspect
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeagg.arborescence import (
    NoArborescenceError,
    WeightedTokenGraph,
    _solve,
    best_arcs,
    max_arborescence,
)
from treeagg import edges
from treeagg.evaluation import vote_mst
from treeagg.trees import ParseEnsemble, find_cycles, validate_tree

from helpers import (
    brute_force_arborescence,
    random_complete_digraph,
    reference_best_arcs,
    reference_max_arborescence,
    reference_random_single_root_tree,
    reference_single_root,
    tree_weight,
)


def test_graph_validation():
    with pytest.raises(ValueError, match="at least one token"):
        WeightedTokenGraph(0, ())
    with pytest.raises(ValueError, match="outside token range"):
        WeightedTokenGraph(2, ((0, 3, 1.0),))
    with pytest.raises(ValueError, match="self-loop"):
        WeightedTokenGraph(2, ((1, 1, 1.0),))
    with pytest.raises(ValueError, match="non-finite"):
        WeightedTokenGraph(2, ((0, 1, float("nan")),))


def test_graph_dedupes_keeping_larger_weight():
    g = WeightedTokenGraph(2, ((0, 1, 1.0), (0, 1, 3.0), (0, 2, 2.0)))
    assert g.arcs == ((0, 1, 3.0), (0, 2, 2.0))
    assert tree_weight(g, (0, 0)) == 5.0  # the kept 3.0 plus 2.0


def test_tree_weight_requires_arcs_present():
    g = WeightedTokenGraph(2, ((0, 1, 1.0), (1, 2, 2.0)))
    assert tree_weight(g, (0, 1)) == 3.0
    with pytest.raises(ValueError, match="absent from the graph"):
        tree_weight(g, (2, 0))


def test_single_tree_graph_returns_that_tree():
    tree = (2, 0, 2, 3)
    arcs = tuple((h, d, 1.0) for d, h in enumerate(tree, start=1))
    g = WeightedTokenGraph(4, arcs)
    assert max_arborescence(g) == tree
    assert brute_force_arborescence(g) == tree


def test_two_token_example():
    # all three arborescences: [0,1] weighs 3, [2,0] weighs 1.5, [0,0]
    # weighs 2 (two root edges, invalid under single-root)
    g = WeightedTokenGraph(2, ((0, 1, 1.0), (0, 2, 1.0), (1, 2, 2.0), (2, 1, 0.5)))
    assert max_arborescence(g) == (0, 1)
    assert max_arborescence(g, enforce_single_root=False) == (0, 1)
    assert tree_weight(g, max_arborescence(g)) == 3.0


def test_equal_weight_ties_break_lexicographically():
    # complete graph, all weights 1: every spanning arborescence weighs q,
    # so the tie rule fully decides the output
    arcs = tuple(
        (h, d, 1.0) for d in range(1, 4) for h in range(0, 4) if h != d
    )
    g = WeightedTokenGraph(3, arcs)
    assert max_arborescence(g) == (0, 1, 1)
    assert max_arborescence(g, enforce_single_root=False) == (0, 0, 0)
    assert brute_force_arborescence(g) == (0, 1, 1)
    assert brute_force_arborescence(g, enforce_single_root=False) == (0, 0, 0)


def test_equal_weight_ties_after_a_contraction_pin_todays_outputs():
    # all weights 1 on sparse graphs whose best incoming arcs form a cycle:
    # the winner depends on the contractions, and is not the
    # lexicographically smallest optimum the oracle returns. The best arcs
    # of the q = 6 graph form two cycles, {1, 4} and {3, 5}; walking from
    # the highest node first would contract {3, 5} first and give
    # (4, 3, 6, 6, 3, 0)
    cases = (
        (3, ((0, 3), (1, 2), (2, 1), (3, 1), (3, 2)), (3, 1, 0), (2, 3, 0)),
        (
            4,
            ((0, 3), (1, 2), (1, 3), (2, 1), (3, 4), (4, 1), (4, 2), (4, 3)),
            (4, 1, 0, 3),
            (2, 4, 0, 3),
        ),
        (
            6,
            ((4, 1), (3, 2), (4, 2), (5, 3), (6, 3), (1, 4), (5, 4), (6, 4),
             (3, 5), (0, 6), (3, 6)),
            (4, 4, 6, 6, 3, 0),
            (4, 3, 6, 5, 3, 0),
        ),
    )
    for q, arcs, solved, smallest in cases:
        g = WeightedTokenGraph(q, tuple((h, d, 1.0) for h, d in arcs))
        for single in (True, False):
            assert max_arborescence(g, single) == solved
            assert brute_force_arborescence(g, single) == smallest


def test_ties_after_two_contractions_pin_todays_outputs():
    # the best arcs form the cycles {1, 6} and {3, 5}. After the first is
    # contracted, nodes 1 and 6 are gone from the inner pass; were they
    # walked there, toward the contracted node 7, the inner pass would meet
    # a cycle through 7 before reaching {3, 5} and give (5, 1, 5, 6, 0, 1)
    arcs = (
        (5, 1, 1.0), (6, 1, 2.0), (1, 2, 2.0), (3, 2, 2.0), (5, 2, 2.0),
        (4, 3, 1.0), (5, 3, 2.0), (6, 4, 1.0), (0, 5, 1.0), (3, 5, 2.0),
        (1, 6, 1.0), (4, 6, 1.0),
    )
    g = WeightedTokenGraph(6, arcs)
    for single in (True, False):
        tree = max_arborescence(g, single)
        assert tree == (5, 3, 5, 6, 0, 1)
        assert tree_weight(g, tree) == tree_weight(g, brute_force_arborescence(g, single))


def test_equal_weight_ties_without_a_cycle_give_the_smallest_sequence():
    # the tie rule that does hold: when every token's smallest candidate
    # head already forms a tree, that tree wins
    rng = np.random.default_rng(9)
    acyclic = 0
    for _ in range(400):
        q = int(rng.integers(1, 6))
        arcs = tuple(
            (h, d, 1.0)
            for d in range(1, q + 1)
            for h in range(0, q + 1)
            if h != d and rng.random() < 0.5
        )
        heads = [
            min((h for h, d, _ in arcs if d == dep), default=-1)
            for dep in range(1, q + 1)
        ]
        if -1 in heads or next(find_cycles(heads), None) is not None:
            continue
        acyclic += 1
        g = WeightedTokenGraph(q, arcs)
        assert max_arborescence(g, False) == tuple(heads)
        assert brute_force_arborescence(g, False) == tuple(heads)
    assert acyclic > 50


def test_missing_arcs_are_detected():
    partial = WeightedTokenGraph(2, ((0, 1, 1.0),))
    with pytest.raises(NoArborescenceError, match="no incoming arc"):
        max_arborescence(partial, enforce_single_root=False)
    with pytest.raises(NoArborescenceError, match="single-rooted"):
        max_arborescence(partial)
    rootless = WeightedTokenGraph(2, ((1, 2, 1.0), (2, 1, 1.0)))
    with pytest.raises(NoArborescenceError, match="no arc out of the root"):
        max_arborescence(rootless)
    # only root arcs: fine unrestricted, impossible under single-root
    g = WeightedTokenGraph(2, ((0, 1, 1.0), (0, 2, 1.0)))
    with pytest.raises(NoArborescenceError, match="single-rooted"):
        max_arborescence(g)
    assert max_arborescence(g, enforce_single_root=False) == (0, 0)


def test_brute_force_caps_token_count():
    g = random_complete_digraph(9, np.random.default_rng(0))
    with pytest.raises(ValueError, match="capped at 8"):
        brute_force_arborescence(g)


def test_solver_matches_oracle_totals_under_heavy_ties():
    # integer weights in {1, 2} force frequent ties: totals must agree
    # exactly and the returned tree must be stable across calls, but the
    # choice among equal-weight optima is not pinned down
    rng = np.random.default_rng(3)
    for i in range(60):
        q = int(rng.integers(2, 6))
        arcs = tuple(
            (h, d, float(rng.integers(1, 3)))
            for d in range(1, q + 1)
            for h in range(0, q + 1)
            if h != d
        )
        g = WeightedTokenGraph(q, arcs)
        for single in (True, False):
            a = max_arborescence(g, single)
            b = brute_force_arborescence(g, single)
            assert tree_weight(g, a) == tree_weight(g, b), (i, single)
            assert max_arborescence(g, single) == a
            if single:
                assert a.count(0) == 1


def test_solver_matches_oracle_heads_when_optimum_is_unique():
    # continuous random weights make ties measure-zero, so the head
    # sequences themselves must coincide
    rng = np.random.default_rng(21)
    for i in range(30):
        q = int(rng.integers(2, 6))
        arcs = tuple(
            (h, d, float(rng.random()))
            for d in range(1, q + 1)
            for h in range(0, q + 1)
            if h != d
        )
        g = WeightedTokenGraph(q, arcs)
        for single in (True, False):
            a = max_arborescence(g, single)
            b = brute_force_arborescence(g, single)
            assert a == b, (i, single)


def test_solver_handles_nested_cycles():
    # weights steer the greedy pass into a 2-cycle inside a 3-cycle
    arcs = (
        (0, 1, 0.1), (1, 2, 10.0), (2, 1, 10.0), (2, 3, 9.0),
        (3, 2, 9.5), (1, 3, 0.2), (0, 2, 0.3), (0, 3, 0.1),
    )
    g = WeightedTokenGraph(3, arcs)
    best = max_arborescence(g)
    assert best == brute_force_arborescence(g)
    # hand enumeration of all eight single-root trees: the 0->3->2->1
    # chain (0.1 + 9.5 + 10.0 = 19.6) beats the runner-up 19.3
    assert best == (2, 3, 0)
    assert tree_weight(g, best) == pytest.approx(19.6)


@st.composite
def arc_lists(draw):
    """Arcs over 1-6 nodes, repeated (head, dependent) pairs and nodes with
    no arc among them, weights drawn from a few values with 0.0 beside -0.0."""
    n = draw(st.integers(1, 6))
    node = st.integers(0, n - 1)
    weight = st.sampled_from((-1.0, -0.0, 0.0, 0.5, 1.0))
    return n, draw(st.lists(st.tuples(node, node, weight), max_size=20))


@settings(max_examples=400, deadline=None)
@given(arc_lists())
def test_best_arcs_match_a_scan_over_the_arcs(case):
    n, arcs = case
    heads, deps, weights = (list(c) for c in zip(*arcs)) if arcs else ([], [], [])
    best = best_arcs(np.array(heads, dtype=np.intp), np.array(deps, dtype=np.intp),
                     np.array(weights, dtype=np.float64), n)
    assert best.tolist() == reference_best_arcs(heads, deps, weights, n)


@st.composite
def tie_heavy_graphs(draw, weights=(0.0, 0.5, 1.0, 1.5)):
    """Graphs over 1-10 tokens at a drawn arc density, weights from
    ``weights``: ties and contractions are common, and so are graphs
    with no (single-rooted) arborescence."""
    q = draw(st.integers(1, 10))
    density = draw(st.floats(0.1, 1.0))
    rnd = draw(st.randoms(use_true_random=False))
    arcs = tuple(
        (h, d, rnd.choice(weights))
        for d in range(1, q + 1)
        for h in range(0, q + 1)
        if h != d and rnd.random() < density
    )
    return WeightedTokenGraph(q, arcs)


def outcome(solver, graph, single):
    try:
        return solver(graph, single)
    except NoArborescenceError as e:
        return type(e), str(e)


@settings(max_examples=400, deadline=None)
@given(tie_heavy_graphs(), st.booleans())
def test_solver_matches_the_recursive_reference(graph, single):
    # the same heads, tie outcomes included, or the same error
    assert outcome(max_arborescence, graph, single) == outcome(
        reference_max_arborescence, graph, single
    )


@settings(max_examples=600, deadline=None)
@given(st.one_of(
    tie_heavy_graphs((0.0, 1.0, 2.0)),
    tie_heavy_graphs((1.0,)),
    tie_heavy_graphs((1.0, 1e16)),
    tie_heavy_graphs(tuple(np.random.default_rng(0).normal(size=64))),
))
def test_root_bound_keeps_the_outcome_of_solving_every_root(graph):
    # the same heads, tie outcomes included, or the same error, as one
    # solve per root arc with none skipped
    assert outcome(max_arborescence, graph, True) == outcome(
        lambda g, _: reference_single_root(g), graph, True
    )


def test_single_root_decoding_of_a_long_sentence_takes_little_time(monkeypatch):
    # three uniform random trees and one with every token under the root:
    # most best arcs come from the root, and one solve per root arc takes
    # seconds at 300 tokens
    def ensemble(q):
        rng = np.random.default_rng(5)
        trees = [reference_random_single_root_tree(q, rng) for _ in range(3)] + [(0,) * q]
        return ParseEnsemble(tuple("abcd"), ("s",), np.array([0, q]), np.array(trees))

    start = time.perf_counter()
    heads = vote_mst(ensemble(300))
    elapsed = time.perf_counter() - start
    assert validate_tree(heads.tolist(), 300).ok and heads.tolist().count(0) == 1
    assert elapsed < 2.0
    small = vote_mst(ensemble(60))
    monkeypatch.setattr(edges, "max_arborescence", lambda graph, _: reference_single_root(graph))
    assert np.array_equal(vote_mst(ensemble(60)), small)


@settings(max_examples=400, deadline=None)
@given(tie_heavy_graphs((0.1, 0.2, 0.3, 0.7)))
def test_solver_returns_a_tree_and_its_weight(graph):
    # nothing validates the returned heads, so check them here; the
    # single-root rule compares the totals, which must equal the sum
    # tree_weight computes, bit for bit (these weights' sums depend on
    # their order)
    try:
        heads, total = _solve(graph.q, graph.arcs)
    except NoArborescenceError:
        return
    assert validate_tree(heads, graph.q).ok
    assert total == tree_weight(graph, heads)
    try:
        single = max_arborescence(graph)
    except NoArborescenceError:
        return
    assert validate_tree(single, graph.q).ok and single.count(0) == 1


def test_deeply_nested_contractions_do_not_recurse():
    # 300 two-cycles of weight 1 over tokens 1..600, joined by chain arcs
    # (2k, 2k + 1) of weight 0 below the one root arc (0, 1): each
    # contraction level holds the next two-cycle, 300 levels in all, and
    # the one best tree is the chain 0 -> 1 -> 2 -> ... -> 600
    arcs = [(0, 1, 0.0)]
    for k in range(1, 301):
        arcs += [(2 * k - 1, 2 * k, 1.0), (2 * k, 2 * k - 1, 1.0)]
        if k < 300:
            arcs.append((2 * k, 2 * k + 1, 0.0))
    g = WeightedTokenGraph(600, tuple(arcs))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        for single in (True, False):
            assert max_arborescence(g, single) == tuple(range(600))
    finally:
        sys.setrecursionlimit(limit)
