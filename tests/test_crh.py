"""Truth-discovery aggregation: weight/truth updates and convergence."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeagg import crh
from treeagg.crh import (
    CrhOptions,
    CrhState,
    _uas_costs,
    crh_run,
    crh_trees,
)
from treeagg.edges import (
    label_matrix,
    majority_vote,
    tree_labels,
    trees_from_scores,
    weighted_votes,
)
from treeagg.synth import SynthConfig, generate

from helpers import (
    placeholder_matrix,
    random_vote_matrix,
    reference_uas_costs,
    trees_by_id,
    weight_update,
)


def matrix_with_costs(errors_per_parser, n=40):
    """Against all-+1 truths, parser k votes -1 on its own block of
    ``errors_per_parser[k]`` rows; blocks are disjoint so every row keeps
    at least one +1."""
    m = len(errors_per_parser)
    assert sum(errors_per_parser) <= n
    labels = np.ones((n, m), dtype=np.int8)
    start = 0
    for k, c in enumerate(errors_per_parser):
        labels[start : start + c, k] = -1
        start += c
    return placeholder_matrix(labels)


def test_weight_update_closed_forms():
    truths = np.ones(40, dtype=np.int8)
    # equal costs: w_k = log m for all k
    eq = matrix_with_costs([2, 2, 2, 2])
    w = weight_update(truths, eq)
    assert np.allclose(w, math.log(4), atol=1e-9)
    assert abs(np.exp(-w).sum() - 1.0) < 1e-9

    # costs [1, 3] with vanishing smoothing: w = [log 4, log 4/3]
    two = matrix_with_costs([1, 3])
    w = weight_update(truths, two, eps=1e-15)
    assert w == pytest.approx([math.log(4), math.log(4 / 3)], abs=1e-9)

    # zero cost survives through the smoothing term alone
    perfect = matrix_with_costs([0, 4])
    w = weight_update(truths, perfect, eps=1e-8)
    assert w[0] == pytest.approx(-math.log(1e-8 / (4 + 2e-8)), rel=1e-6)
    assert abs(np.exp(-w).sum() - 1.0) < 1e-9


def test_truth_update_hand_cases():
    labels = np.array(
        [[1, 1, 1], [1, -1, -1], [1, 1, -1]], dtype=np.int8
    )
    matrix = placeholder_matrix(labels)
    # unanimous row stays +1; [+1,-1,-1] under weights [2,1,1] is a 2 vs 2
    # tie resolved to +1; [+1,+1,-1] under [1,1,3] is 2 vs 3
    assert majority_vote(matrix.labels, np.array([2.0, 1.0, 1.0])).tolist() == [1, 1, 1]
    assert majority_vote(matrix.labels, np.array([1.0, 1.0, 3.0])).tolist() == [1, -1, -1]


def test_identical_parsers_converge_immediately():
    rng = np.random.default_rng(0)
    col = np.where(rng.random(30) < 0.6, 1, -1).astype(np.int8)
    col[0] = 1
    matrix = placeholder_matrix(np.column_stack([col, col, col]))
    state = crh_run(matrix)
    assert state.converged
    assert state.iterations == 1
    assert (state.truths == col).all()
    assert np.allclose(state.weights, math.log(3))


def test_single_parser_is_rejected():
    matrix = placeholder_matrix(np.ones((5, 1), dtype=np.int8))
    with pytest.raises(ValueError, match="at least two"):
        crh_run(matrix)


def test_objective_monotone_and_weights_normalized():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n, m = int(rng.integers(10, 80)), int(rng.integers(2, 7))
        matrix = placeholder_matrix(random_vote_matrix(n, m, rng))
        state = crh_run(matrix)
        hist = state.objective_history
        assert all(b - a <= 1e-9 for a, b in zip(hist, hist[1:]))
        assert abs(np.exp(-state.weights).sum() - 1.0) < 1e-9


def test_permuting_columns_permutes_weights():
    rng = np.random.default_rng(8)
    labels = random_vote_matrix(60, 4, rng)
    perm = [2, 0, 3, 1]
    a = crh_run(placeholder_matrix(labels))
    b = crh_run(placeholder_matrix(labels[:, perm]))
    assert np.allclose(b.weights, a.weights[perm])
    assert (a.truths == b.truths).all()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_permuting_rows_permutes_only_the_truths(data):
    m = data.draw(st.integers(2, 6), label="m")
    n = data.draw(st.integers(1, 40), label="n")
    votes = data.draw(
        st.lists(
            st.lists(st.sampled_from((-1, 1)), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        ),
        label="votes",
    )
    perm = data.draw(st.permutations(range(n)), label="perm")
    labels = np.array(votes, dtype=np.int8)
    a = crh_run(placeholder_matrix(labels))
    b = crh_run(placeholder_matrix(labels[perm]))
    assert np.array_equal(b.weights, a.weights)
    assert b.iterations == a.iterations
    assert b.objective_history == a.objective_history
    assert np.array_equal(b.truths, a.truths[perm])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_duplicating_every_row_keeps_weights_and_iterations(data):
    m = data.draw(st.integers(2, 6), label="m")
    n = data.draw(st.integers(1, 40), label="n")
    votes = data.draw(
        st.lists(
            st.lists(st.sampled_from((-1, 1)), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        ),
        label="votes",
    )
    labels = np.array(votes, dtype=np.int8)
    a = crh_run(placeholder_matrix(labels))
    # costs count rows, so they double with the rows; eps is added to the
    # costs and doubles too, which keeps every cost ratio exact (patched in
    # the body: a fixture would not be reset between examples)
    doubled = placeholder_matrix(np.repeat(labels, 2, axis=0))
    with mock.patch.object(crh, "_EPS", 2 * crh._EPS):
        b = crh_run(doubled)
    assert np.array_equal(b.weights, a.weights)
    assert b.iterations == a.iterations
    assert b.objective_history[-1] == 2 * a.objective_history[-1]
    assert np.array_equal(b.truths, np.repeat(a.truths, 2))


def test_two_parser_symmetry_is_an_exact_tie():
    # with two tree-shaped voters every union row has a +1, so majority
    # init is all +1 and both parsers pay the same cost (a q-edge tree
    # differs from another q-edge tree by equal halves); the alternating
    # updates cannot break that symmetry, even against an exact copy of
    # the gold trees
    res = generate(SynthConfig(sentences=40, tokens=(8, 8), rates=(0.0, 0.3), seed=9))
    matrix = label_matrix(res.ensemble)
    assert (majority_vote(matrix.labels) == 1).all()
    state = crh_run(matrix)
    assert state.weights[0] == state.weights[1] == pytest.approx(math.log(2))


def test_three_parser_gold_duplicate_dominates():
    res = generate(
        SynthConfig(sentences=60, tokens=(8, 8), rates=(0.0, 0.25, 0.35), seed=5)
    )
    state = crh_run(label_matrix(res.ensemble))
    assert state.converged
    assert state.weights[0] > state.weights[1] > state.weights[2]


def test_uas_distance_mode():
    res = generate(
        SynthConfig(sentences=50, tokens=(8, 8), rates=(0.05, 0.2, 0.4), seed=3)
    )
    matrix = label_matrix(res.ensemble)
    with pytest.raises(ValueError, match="needs the ensemble"):
        crh_run(matrix, CrhOptions(distance="uas"))
    state = crh_run(matrix, CrhOptions(distance="uas"), res.ensemble)
    assert state.converged
    # reliability order still follows the corruption rates
    assert state.weights[0] > state.weights[1] > state.weights[2]
    assert abs(np.exp(-state.weights).sum() - 1.0) < 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.booleans())
def test_uas_costs_equal_the_per_sentence_recount(seed, m, single_root):
    rng = np.random.default_rng(seed)
    res = generate(
        SynthConfig(
            sentences=int(rng.integers(1, 10)),
            tokens=(1, 9),
            rates=tuple(float(r) for r in rng.uniform(0.0, 0.6, m)),
            seed=seed,
        )
    )
    matrix = label_matrix(res.ensemble)
    weights = rng.uniform(0.1, 3.0, m)
    votes = weighted_votes(matrix.labels == 1, weights)
    heads = trees_from_scores(matrix, votes, res.ensemble, single_root)
    costs = _uas_costs(tree_labels(matrix, heads, res.ensemble.offsets), matrix)
    trees = trees_by_id(heads, res.ensemble)
    # bit for bit: the same sums, accumulated in sentence order
    assert costs.tobytes() == reference_uas_costs(res.ensemble, trees).tobytes()


def test_options_validation():
    with pytest.raises(ValueError):
        CrhOptions(distance="cosine")


def test_crh_trees_follows_dominant_weights():
    res = generate(
        SynthConfig(sentences=30, tokens=(7, 7), rates=(0.1, 0.3, 0.5), seed=2)
    )
    matrix = label_matrix(res.ensemble)
    # hand-built state: nearly all weight on parser 1
    state = CrhState(
        weights=np.array([50.0, 0.1, 0.1]),
        truths=majority_vote(matrix.labels),
        iterations=1,
        converged=True,
    )
    trees = trees_by_id(crh_trees(state, matrix, res.ensemble), res.ensemble)
    assert trees == trees_by_id(res.ensemble.heads[0], res.ensemble)


def test_identical_parsers_reproduce_their_tree():
    res = generate(SynthConfig(sentences=20, tokens=(6, 6), rates=(0.0, 0.0), seed=4))
    matrix = label_matrix(res.ensemble)
    state = crh_run(matrix)
    trees = trees_by_id(crh_trees(state, matrix, res.ensemble), res.ensemble)
    assert trees == trees_by_id(res.ensemble.heads[0], res.ensemble)
