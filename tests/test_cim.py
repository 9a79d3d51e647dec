"""Correlation-aware Ising aggregation, stage by stage.

Each stage gets its own oracle: the batched l1 fit is checked against a
recomputed KKT residual and the per-column FISTA loop in ``helpers``, the
moment fit against the stationarity conditions it claims to solve, and
inference against exhaustive enumeration of the joint model.
"""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeagg import cim, edges
from treeagg.cim import (
    _FIT_MAX_ITERATIONS,
    _KKT_BATCH,
    _L1_MAX_ITERATIONS,
    CorrelationGraph,
    IsingParams,
    cim_run,
    cim_trees,
    collapse_correlated,
    default_l1_penalty,
    estimate_correlation_graph,
    estimate_mean_params,
    fit_canonical_params,
    fit_l1_logistic,
    infer_scores,
    plugin_canonical_params,
)
from treeagg.conllu import build_ensemble
from treeagg.crh import _MAX_ITERATIONS as _CRH_MAX_ITERATIONS
from treeagg.crh import crh_run
from treeagg.edges import label_matrix, majority_vote
from treeagg.synth import SynthConfig, generate
from treeagg.trees import DepTree

from helpers import (
    accuracy_moment_from_pair_means,
    ensemble_of,
    joint_prob_oracle,
    placeholder_matrix,
    reference_collapse,
    reference_correlation_graph,
    reference_l1_logistic,
    reference_mean_params,
    trees_by_id,
)


@st.composite
def vote_arrays(draw, min_cols=2):
    """Small +-1 matrices; half of them copy a column with a few flips, so
    that correlation edges occur."""
    n = draw(st.integers(1, 24))
    m = draw(st.integers(min_cols, 5))
    cells = draw(st.lists(st.sampled_from((-1, 1)), min_size=n * m, max_size=n * m))
    labels = np.array(cells, dtype=np.int8).reshape(n, m)
    if draw(st.booleans()):
        copy = labels[:, draw(st.integers(0, m - 1))].copy()
        flips = draw(st.lists(st.integers(0, n - 1), max_size=2))
        copy[flips] *= -1
        labels = np.column_stack([labels, copy]).astype(np.int8)
    return labels


def ci_columns(accuracies, n, rng, truth=None):
    """Conditionally independent +-1 columns with the given accuracies."""
    if truth is None:
        truth = np.where(rng.random(n) < 0.5, 1, -1).astype(np.int8)
    cols = [np.where(rng.random(n) < a, truth, -truth) for a in accuracies]
    return np.column_stack(cols).astype(np.int8), truth


# ---------------------------------------------------------------- l1 fit


def fit_one(X, y, penalty, counts=None):
    """The batched solver on a single problem (k = 1) using every column;
    ``counts`` defaults to one each."""
    counts = np.ones(len(X)) if counts is None else counts
    use = np.ones((1, X.shape[1]), dtype=bool)
    intercepts, coefs, iterations, converged = fit_l1_logistic(
        X, y[None], penalty, counts, use
    )
    return float(intercepts[0]), coefs[0], iterations, converged


def test_default_penalty_shrinks_with_sample_size():
    assert default_l1_penalty(10, 400) == pytest.approx(
        0.1 * math.sqrt(math.log(10) / 400)
    )
    assert default_l1_penalty(10, 40000) < default_l1_penalty(10, 400)


def test_strong_penalty_zeroes_coefficients_but_not_intercept():
    rng = np.random.default_rng(2)
    X = np.where(rng.random((400, 3)) < 0.5, 1.0, -1.0)
    y = np.ones(400)
    intercept, coefs, _, converged = fit_one(X, y, penalty=0.3)
    assert converged
    assert (coefs == 0.0).all()
    assert intercept > 3.0  # free to chase the all-positive target


def test_intercept_absorbs_class_imbalance():
    rng = np.random.default_rng(11)
    _ = rng.random((10000, 4))  # keep features independent of the target below
    X = np.where(rng.random((20000, 2)) < 0.5, 1.0, -1.0)
    y = np.where(rng.random(20000) < 0.9, 1.0, -1.0)
    intercept, coefs, _, converged = fit_one(X, y, penalty=0.2)
    assert converged
    assert (coefs == 0.0).all()
    # log-odds of the marginal: log(0.9 / 0.1)
    assert intercept == pytest.approx(math.log(9.0), abs=0.05)


def test_kkt_residual_recomputed_from_scratch(monkeypatch):
    monkeypatch.setattr(cim, "_L1_TOL", 1e-8)
    rng = np.random.default_rng(5)
    X = np.where(rng.random((600, 4)) < 0.5, 1.0, -1.0)
    y = np.where(rng.random(600) < 0.6, 1.0, -1.0)
    lam = 0.02
    intercept, w, _, converged = fit_one(X, y, penalty=lam)
    assert converged
    # mean log-loss gradient at the returned point
    s = 1.0 / (1.0 + np.exp(y * (intercept + X @ w)))
    grad_w = -(X * (y * s)[:, None]).mean(axis=0)
    grad_b = -(y * s).mean()
    residual = abs(grad_b)
    for g, wj in zip(grad_w, w):
        if wj == 0.0:
            residual = max(residual, abs(g) - lam)
        else:
            residual = max(residual, abs(g + lam * math.copysign(1.0, wj)))
    assert residual <= 1e-6


@settings(max_examples=60, deadline=None)
@given(
    vote_arrays(min_cols=3),
    st.data(),
    st.sampled_from((0.005, 0.05, 0.3)),
)
def test_counts_fit_equals_fit_on_expanded_rows(votes, data, penalty):
    counts = np.array(
        data.draw(st.lists(st.integers(1, 4), min_size=len(votes), max_size=len(votes)))
    )
    X, y = votes[:, 1:], votes[:, 0]
    b0, w0, it0, ok0 = fit_one(
        np.repeat(X, counts, axis=0), np.repeat(y, counts), penalty
    )
    b1, w1, it1, ok1 = fit_one(X, y, penalty, counts=counts)
    assert abs(b1 - b0) <= 1e-10
    assert np.abs(w1 - w0).max() <= 1e-10
    assert (it1, ok1) == (it0, ok0)


@pytest.mark.parametrize("penalty", (0.005, 0.02, 0.3))
@pytest.mark.parametrize("seed", (1, 2, 3))
def test_one_problem_batch_equals_the_per_column_loop(seed, penalty):
    rng = np.random.default_rng(seed)
    truth = np.where(rng.random(600) < 0.6, 1, -1)
    X = np.column_stack(
        [np.where(rng.random(600) < a, truth, -truth) for a in (0.9, 0.8, 0.7, 0.5)]
    ).astype(np.int8)
    y = np.where(rng.random(600) < 0.85, truth, -truth).astype(np.int8)
    counts = rng.integers(1, 5, 600)
    b0, w0, it0, ok0 = reference_l1_logistic(X, y, penalty, counts=counts)
    b1, w1, it1, ok1 = fit_one(X, y, penalty, counts=counts)
    assert ok0 and ok1
    assert abs(b1 - b0) <= 1e-12
    assert np.abs(w1 - w0).max() <= 1e-12
    assert it1 == it0


def four_column_batch(max_iterations=_L1_MAX_ITERATIONS):
    """Each of four vote columns regressed on the other three, batched and by
    ``reference_l1_logistic`` per column."""
    rng = np.random.default_rng(4)
    truth = np.where(rng.random(600) < 0.6, 1, -1)
    votes = np.column_stack(
        [np.where(rng.random(600) < a, truth, -truth) for a in (0.9, 0.8, 0.7, 0.6)]
    ).astype(np.int8)
    counts = rng.integers(1, 5, 600)
    others = [[c for c in range(4) if c != j] for j in range(4)]
    fit = fit_l1_logistic(votes, votes.T, 0.02, counts, ~np.eye(4, dtype=bool))
    reference = [
        reference_l1_logistic(
            votes[:, o], votes[:, j], 0.02, counts=counts, max_iterations=max_iterations
        )
        for j, o in enumerate(others)
    ]
    intercepts, coefs, _, _ = fit
    for j, (b, w, _, _) in enumerate(reference):
        assert abs(intercepts[j] - b) <= 1e-12
        assert np.abs(coefs[j, others[j]] - w).max() <= 1e-12
        assert coefs[j, j] == 0.0
    return fit, reference


def test_batch_runs_until_its_last_problem_freezes():
    (_, _, iterations, converged), reference = four_column_batch()
    freezes = [it for _, _, it, _ in reference]
    assert converged and all(ok for _, _, _, ok in reference)
    # each problem froze at its own iteration, the loop ran to the last one
    assert len(set(freezes)) > 1
    assert iterations == max(freezes)
    # the KKT check runs once per batch of iterates, yet a problem freezes at the
    # first of them within tol: between checks, two in one batch at two offsets
    assert any(it % _KKT_BATCH for it in freezes)
    assert any(
        a != b and (a - 1) // _KKT_BATCH == (b - 1) // _KKT_BATCH
        for a, b in itertools.combinations(freezes, 2)
    )


def test_a_cap_inside_a_batch_ends_the_fit_at_the_cap(monkeypatch):
    # 13 iterations end the second batch after five iterates; two problems
    # freeze among them, two never do
    monkeypatch.setattr(cim, "_L1_MAX_ITERATIONS", 13)
    (_, _, iterations, converged), reference = four_column_batch(max_iterations=13)
    assert (iterations, converged) == (13, False)
    assert sorted(ok for _, _, _, ok in reference) == [False, False, True, True]


def test_restart_pays_on_a_near_duplicate_column():
    # neighbourhood selection as cim runs it, with one column a 3%-noise copy
    # of another: every column regressed on the others plus the majority vote
    rng = np.random.default_rng(7)
    truth = np.where(rng.random(400) < 0.6, 1, -1)
    cols = [np.where(rng.random(400) < a, truth, -truth) for a in (0.9, 0.85, 0.8, 0.75, 0.7)]
    copy = np.where(rng.random(400) < 0.03, -cols[0], cols[0])
    votes = np.column_stack([*cols, copy]).astype(np.int8)
    mv = np.where(votes.sum(axis=1) > 0, 1, -1)
    designs = [np.column_stack([np.delete(votes, j, axis=1), mv]) for j in range(6)]
    penalty = default_l1_penalty(6, 400)
    use = ~np.eye(6, 7, dtype=bool)  # column j's problem skips column j
    intercepts, coefs, iterations, converged = fit_l1_logistic(
        np.column_stack([votes, mv]), votes.T, penalty, np.ones(400), use
    )
    reference = [reference_l1_logistic(X, votes[:, j], penalty) for j, X in enumerate(designs)]
    assert converged and all(ok for _, _, _, ok in reference)
    assert iterations == max(it for _, _, it, _ in reference)
    for j, (b, w, _, _) in enumerate(reference):
        assert abs(intercepts[j] - b) <= 1e-12
        assert np.abs(coefs[j, use[j]] - w).max() <= 1e-12
    # 112 with the restart; FISTA without it needs 407
    assert iterations <= 160


def check_one_design_batch(design, targets, penalty, counts, use):
    """The one-design batch against ``reference_l1_logistic`` per problem;
    ``use`` None means every problem uses every column."""
    k, q = len(targets), design.shape[1]
    mask = np.ones((k, q), dtype=bool) if use is None else use
    intercepts, coefs, iterations, converged = fit_l1_logistic(
        design, targets, penalty, counts, mask
    )
    assert intercepts.shape == (k,) and coefs.shape == (k, q)
    reference = [
        reference_l1_logistic(design[:, mask[a]], targets[a], penalty, counts=counts)
        for a in range(k)
    ]
    assert iterations == max((it for _, _, it, _ in reference), default=0)
    assert converged == all(ok for _, _, _, ok in reference)
    for a, (b, w, _, _) in enumerate(reference):
        assert abs(intercepts[a] - b) <= 1e-12
        assert np.abs(coefs[a, mask[a]] - w).max(initial=0.0) <= 1e-12
        assert (coefs[a, ~mask[a]] == 0.0).all()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(100, 400),
    st.integers(1, 6),
    st.integers(0, 4),
    st.sampled_from((None, "random", "intercept only")),
    st.sampled_from((0.005, 0.05, 0.3)),
)
def test_one_design_batch_matches_per_problem_fits(seed, n, q, k, masks, penalty):
    # Votes of parsers of random accuracy on hundreds of rows, as cim regresses
    # them. On a few rows with near-collinear columns, or a constant target, a
    # fit runs a thousand iterations or more, and two orders of summation can
    # end 1e-11 apart there.
    rng = np.random.default_rng(seed)
    votes, _ = ci_columns(rng.uniform(0.55, 0.95, q + k), n, rng)
    design, targets = votes[:, :q], votes[:, q:].T
    counts = rng.integers(1, 5, n)
    use = None if masks is None else rng.random((k, q)) < 0.6
    if masks == "intercept only" and k:
        use[rng.integers(k)] = False
    check_one_design_batch(design, targets, penalty, counts, use)


def test_one_design_batch_edge_cases():
    rng = np.random.default_rng(8)
    truth = np.where(rng.random(300) < 0.6, 1, -1)
    votes = np.column_stack(
        [np.where(rng.random(300) < a, truth, -truth) for a in (0.9, 0.8, 0.7)]
    ).astype(np.int8)
    counts = rng.integers(1, 5, 300)
    use = np.array([[False, False, False], [True, False, True], [False, True, True]])
    for targets, mask in (
        (votes.T[:0], None),  # k = 0: nothing runs
        (votes.T[:0], use[:0]),
        (votes.T, None),  # every problem uses every column
        (votes.T, use),  # the first problem fits its intercept only
    ):
        check_one_design_batch(votes, targets, 0.02, counts, mask)


def test_extrapolation_table_is_the_momentum_recurrence():
    # bit for bit the weights the per-iteration recurrence computed in numpy
    momentum = np.ones(1)
    assert cim._EXTRAPOLATION.shape == (_L1_MAX_ITERATIONS,)
    for s in range(_L1_MAX_ITERATIONS):
        m_next = (1.0 + np.sqrt(1.0 + 4.0 * momentum**2)) / 2.0
        assert cim._EXTRAPOLATION[s] == ((momentum - 1.0) / m_next)[0], s
        momentum = m_next


# ---------------------------------------------------- correlation graph


def test_independent_columns_give_empty_graph(monkeypatch):
    monkeypatch.setattr(cim, "default_l1_penalty", lambda m, n: 0.5)
    rng = np.random.default_rng(11)
    labels = np.where(rng.random((10000, 4)) < 0.5, 1, -1).astype(np.int8)
    graph = estimate_correlation_graph(placeholder_matrix(labels))
    assert graph.edges == frozenset()
    assert graph.excluded == ()


def test_duplicated_column_is_the_only_edge():
    rng = np.random.default_rng(11)
    _ = rng.random((10000, 4))
    _ = rng.random((20000, 2)), rng.random(20000)  # stream position
    labels, _ = ci_columns([0.9, 0.8, 0.75, 0.7], 8000, rng)
    labels = np.column_stack([labels, labels[:, 1]]).astype(np.int8)
    matrix = placeholder_matrix(labels)
    graph = estimate_correlation_graph(matrix)
    assert graph.edges == frozenset({(1, 4)})
    assert graph.strengths[(1, 4)] > 1.0  # far above the default threshold

    # the fit on vote patterns and counts equals the regressions on every row
    mv = majority_vote(matrix.labels)

    def coef(j, k):
        others = [c for c in range(5) if c != j]
        X = np.column_stack([labels[:, others], mv])
        _, w, _, _ = fit_one(X, labels[:, j], default_l1_penalty(5, 8000))
        return abs(w[others.index(k)])

    assert graph.strengths[(1, 4)] == pytest.approx(
        min(coef(1, 4), coef(4, 1)), abs=1e-10
    )


def test_edge_requires_both_directions():
    # an exact duplicate pair plus an independent column: the pair's
    # mutual regressions both fire, the third column's never do
    rng = np.random.default_rng(11)
    _ = rng.random((10000, 4))
    _ = rng.random((20000, 2)), rng.random(20000)
    _ = rng.random(8000), [rng.random(8000) for _ in range(4)]
    truth = np.where(rng.random(6000) < 0.5, 1, -1).astype(np.int8)
    a = np.where(rng.random(6000) < 0.8, truth, -truth)
    c = np.where(rng.random(6000) < 0.75, truth, -truth)
    matrix = placeholder_matrix(
        np.column_stack([a, a.copy(), c]).astype(np.int8)
    )
    assert estimate_correlation_graph(matrix).edges == frozenset({(0, 1)})


def test_constant_column_is_excluded():
    rng = np.random.default_rng(3)
    labels = np.column_stack(
        [
            np.ones(500, dtype=np.int8),
            np.where(rng.random(500) < 0.5, 1, -1),
            np.where(rng.random(500) < 0.5, 1, -1),
        ]
    ).astype(np.int8)
    graph = estimate_correlation_graph(placeholder_matrix(labels))
    assert graph.excluded == (0,)
    assert all(0 not in edge for edge in graph.edges)


@settings(max_examples=60, deadline=None)
@given(vote_arrays(), st.randoms(use_true_random=False))
def test_graph_ignores_row_order_and_duplication(votes, rnd):
    def graph(labels):
        return estimate_correlation_graph(placeholder_matrix(labels))

    order = list(range(len(votes)))
    rnd.shuffle(order)
    with mock.patch.object(cim, "default_l1_penalty", lambda m, n: 0.02):
        base = graph(votes)
        others = (graph(votes[order]), graph(np.repeat(votes, 2, axis=0)))
    for other in others:
        assert other.edges == base.edges
        assert other.excluded == base.excluded
        assert other.strengths == pytest.approx(base.strengths, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(vote_arrays(), st.sampled_from((0.005, 0.02, 0.1, None)))
def test_batched_graph_equals_per_column_fits(votes, penalty):
    matrix = placeholder_matrix(votes)
    if penalty is None:
        graph = estimate_correlation_graph(matrix)
        penalty = default_l1_penalty(matrix.m, matrix.n_edges)
    else:
        with mock.patch.object(cim, "default_l1_penalty", lambda m, n: penalty):
            graph = estimate_correlation_graph(matrix)
    edges, strengths, excluded = reference_correlation_graph(matrix, penalty)
    assert graph.edges == edges
    assert graph.excluded == excluded
    assert graph.strengths == pytest.approx(strengths, abs=1e-9)


def test_graph_needs_two_parsers():
    labels = np.array([[1], [-1], [1]], dtype=np.int8)
    with pytest.raises(ValueError, match="at least two parsers"):
        estimate_correlation_graph(placeholder_matrix(labels))


def test_an_l1_penalty_near_the_largest_float_zeroes_every_coefficient():
    # the prox radius step * penalty overflows to inf, which zeroes every
    # coefficient without a warning (the suite makes a RuntimeWarning an error)
    synth = generate(SynthConfig(10, (5, 6), (0.1, 0.2, 0.3, 0.4), seed=2))
    votes, counts, _ = label_matrix(synth.ensemble).patterns
    _, coefs, _, converged = fit_l1_logistic(
        votes, votes.T, 1e308, counts, ~np.eye(4, dtype=bool)
    )
    assert (coefs == 0.0).all() and converged


def test_graph_needs_a_candidate_edge():
    empty = placeholder_matrix(np.zeros((0, 3), dtype=np.int8))
    with pytest.raises(ValueError, match="at least one candidate edge"):
        estimate_correlation_graph(empty)
    with pytest.raises(ValueError, match="at least one candidate edge"):
        cim_run(empty)


# ------------------------------------------------------------- collapse


HAND_LABELS = np.array(
    [
        [1, 1, -1, 1, -1],
        [1, -1, -1, -1, 1],
        [-1, -1, 1, 1, 1],
        [1, 1, 1, -1, -1],
        [-1, 1, -1, 1, 1],
        [-1, -1, -1, 1, 1],
    ],
    dtype=np.int8,
)


def test_collapse_component_by_rowwise_majority():
    matrix = placeholder_matrix(
        HAND_LABELS.copy(), parser_ids=("a", "b", "c", "d", "e")
    )
    graph = CorrelationGraph(matrix.parser_ids, {(0, 1): 2.0, (1, 2): 2.0})
    reduced, cmap = collapse_correlated(matrix, graph)
    assert reduced.parser_ids == ("a+b+c", "d", "e")
    assert cmap.components == ((0, 1, 2), (3,), (4,))
    # hand majority over columns a, b, c (odd component, no ties)
    hand = np.array([1, -1, -1, 1, -1, -1], dtype=np.int8)
    assert (reduced.labels[:, 0] == hand).all()
    assert (reduced.labels[:, 1:] == HAND_LABELS[:, 3:]).all()
    # mv over all five columns is [1,-1,1,1,1,-1]; agreements within the
    # component are a=3, b=5, c=4, so b represents it
    assert cmap.representatives == (1, 3, 4)


def test_collapse_without_edges_is_identity():
    rng = np.random.default_rng(4)
    matrix = placeholder_matrix(
        np.where(rng.random((30, 3)) < 0.5, 1, -1).astype(np.int8)
    )
    graph = CorrelationGraph(matrix.parser_ids, {})
    reduced, cmap = collapse_correlated(matrix, graph)
    assert reduced is matrix
    assert cmap.components == ((0,), (1,), (2,))
    assert cmap.representatives == (0, 1, 2)


@st.composite
def graphs_over_votes(draw):
    """Small +-1 matrices, m = 1..7, some columns copied or constant, with
    a correlation graph: a chain through a drawn column order (as long as
    m - 1 edges, so components need every squaring) plus a few random
    edges."""
    n = draw(st.integers(1, 20))
    m = draw(st.integers(1, 7))
    cells = draw(st.lists(st.sampled_from((-1, 1)), min_size=n * m, max_size=n * m))
    labels = np.array(cells, dtype=np.int8).reshape(n, m)
    for j in draw(st.lists(st.integers(0, m - 1), max_size=3)):
        source = draw(st.integers(-2, m - 1))  # -2 and -1: a constant column
        labels[:, j] = labels[:, source] if source >= 0 else 2 * source + 3
    order = draw(st.permutations(range(m)))
    chain = draw(st.integers(0, m - 1))
    edges = {tuple(sorted(order[i : i + 2])) for i in range(chain)}
    if m > 1:
        pairs = st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True)
        edges |= {tuple(sorted(p)) for p in draw(st.lists(pairs, max_size=3))}
    matrix = placeholder_matrix(labels)
    return matrix, CorrelationGraph(matrix.parser_ids, dict.fromkeys(edges, 2.0))


@settings(max_examples=400, deadline=None)
@given(graphs_over_votes(), st.sampled_from((0.0, 0.01, 0.5)))
def test_collapse_and_moments_equal_the_per_column_oracles(case, triplet_min):
    matrix, graph = case
    reduced, cmap = collapse_correlated(matrix, graph)
    ref, components, representatives = reference_collapse(matrix, graph)
    assert (cmap.components, cmap.representatives) == (components, representatives)
    assert (reduced is matrix) == (ref is matrix)
    assert reduced.parser_ids == ref.parser_ids
    assert reduced.labels.dtype == np.int8 and np.array_equal(reduced.labels, ref.labels)
    for votes in (matrix, reduced):
        with mock.patch.object(cim, "_TRIPLET_MIN", triplet_min):
            params = estimate_mean_params(votes)
        # the same IEEE operations: equal bits, and never a NaN
        assert (
            params.mu00, params.mu_plus, params.mu0_plus, params.triplet_fallback
        ) == reference_mean_params(votes, triplet_min)


def test_a_zero_covariance_is_no_triplet_denominator(monkeypatch):
    # seed 20's corpus has a pair of parser columns with covariance exactly
    # 0: even with a _TRIPLET_MIN of 0 it is no denominator, or NaN moments
    # would reach the scores
    monkeypatch.setattr(cim, "_TRIPLET_MIN", 0.0)
    synth = generate(SynthConfig(2, (3, 5), (0.2, 0.4, 0.5, 0.6), seed=20))
    matrix = label_matrix(synth.ensemble)
    labels = matrix.labels.astype(np.float64)
    means = labels.mean(axis=0)
    covariances = labels.T @ labels / len(labels) - np.outer(means, means)
    assert (covariances[np.triu_indices(matrix.m, 1)] == 0).any()
    params = estimate_mean_params(matrix)
    assert all(0 < abs(v) < 1 for v in params.mu0_plus)
    assert np.isfinite(infer_scores(plugin_canonical_params(params), matrix)).all()
    # and through the full pass
    result = cim_run(matrix)
    assert np.isfinite(result.params.mu0_plus).all()
    assert np.isfinite(result.scores).all()


# ------------------------------------------------------- moment recovery


def test_triplet_estimates_factor_exactly():
    # rank-one pair moments built from factors (0.8, 0.6, 0.4)
    pair = np.array(
        [
            [1.0, 0.48, 0.32],
            [0.48, 1.0, 0.24],
            [0.32, 0.24, 1.0],
        ]
    )
    vals = accuracy_moment_from_pair_means(0, pair)
    assert vals == pytest.approx([0.8], abs=1e-12)
    assert accuracy_moment_from_pair_means(1, pair) == pytest.approx([0.6], abs=1e-12)
    assert accuracy_moment_from_pair_means(2, pair) == pytest.approx([0.4], abs=1e-12)


def test_small_denominators_are_skipped():
    pair = np.array(
        [
            [1.0, 0.48, 0.32],
            [0.48, 1.0, 0.005],
            [0.32, 0.005, 1.0],
        ]
    )
    assert accuracy_moment_from_pair_means(0, pair, triplet_min=0.01) == []


def test_mean_recovery_survives_class_imbalance():
    # 70/30 truth split: raw products would be biased, centered
    # covariances are not
    rng = np.random.default_rng(17)
    n = 50000
    truth = np.where(rng.random(n) < 0.7, 1, -1).astype(np.int8)
    accuracies = [0.9, 0.85, 0.8, 0.72, 0.65]
    labels, _ = ci_columns(accuracies, n, rng, truth=truth)
    params = estimate_mean_params(placeholder_matrix(labels))
    assert not params.triplet_fallback
    target = 2.0 * np.array(accuracies) - 1.0
    assert np.abs(np.array(params.mu0_plus) - target).max() < 0.03
    assert params.mu_plus == pytest.approx(labels.mean(axis=0))


def test_two_parsers_fall_back_to_vote_products():
    rng = np.random.default_rng(17)
    _ = rng.random(50000)
    labels, _ = ci_columns([0.85, 0.7], 4000, rng)
    params = estimate_mean_params(placeholder_matrix(labels))
    assert params.triplet_fallback  # no third column, no triplets
    assert all(0.0 < v < 1.0 for v in params.mu0_plus)


def test_perfect_agreement_is_clamped():
    rng = np.random.default_rng(17)
    truth = np.where(rng.random(4000) < 0.5, 1, -1).astype(np.int8)
    labels = np.column_stack([truth, truth, truth]).astype(np.int8)
    params = estimate_mean_params(placeholder_matrix(labels))
    assert not params.triplet_fallback
    assert params.mu0_plus == pytest.approx((0.999, 0.999, 0.999))


# ---------------------------------------------------------- moment fit


def test_zero_moments_fit_to_zero_parameters():
    rng = np.random.default_rng(6)
    labels = np.where(rng.random((50, 3)) < 0.5, 1, -1).astype(np.int8)
    fit = fit_canonical_params(
        IsingParams(0.0, (0.0,) * 3, (0.0,) * 3),
        placeholder_matrix(labels),
    )
    assert fit.converged
    assert fit.iterations == 0
    assert fit.theta00 == 0.0
    assert fit.theta0_plus == (0.0, 0.0, 0.0)


def test_fit_satisfies_its_moment_conditions():
    # targets taken from exhaustive enumeration of a known joint, then
    # checked against the stationarity conditions under the empirical
    # vote distribution: mean tanh matches mu00, vote-weighted mean
    # tanh matches each mu0_plus
    theta00, theta0 = 0.15, (0.4, 0.25, 0.55)
    mu00 = 0.0
    mu0 = np.zeros(3)
    for y in (-1, 1):
        for votes in itertools.product((-1, 1), repeat=3):
            p = joint_prob_oracle(theta00, theta0, (0.0,) * 3, {}, y, votes)
            mu00 += p * y
            mu0 += p * y * np.array(votes)

    rng = np.random.default_rng(8)
    labels = np.where(rng.random((64, 3)) < 0.5, 1, -1).astype(np.int8)
    fit = fit_canonical_params(
        IsingParams(mu00, (0.0,) * 3, tuple(mu0)),
        placeholder_matrix(labels),
    )
    assert fit.converged
    assert fit.grad_norm <= 1e-6
    cond = np.tanh(fit.theta00 + labels.astype(float) @ np.array(fit.theta0_plus))
    assert abs(cond.mean() - mu00) < 1e-5
    assert np.abs((labels * cond[:, None]).mean(axis=0) - mu0).max() < 1e-5


def test_fit_ends_on_unachievable_moments():
    # mu0 = 0.9 cannot be matched on two rows that vote +1 and -1: the
    # objective is unbounded below and the expanding step overflows
    fit = fit_canonical_params(
        IsingParams(0.9, (0.0,), (0.9,)),
        placeholder_matrix(np.array([[1], [-1]], dtype=np.int8)),
    )
    assert fit.converged is False
    assert fit.iterations <= 1  # the first step already proves divergence


def test_plugin_parameters_on_symmetric_channels():
    params = plugin_canonical_params(IsingParams(0.0, (0.0, 0.0), (0.6, 0.2)))
    assert params.plugin
    # per-parser channel accuracy a = (1 + mu0) / 2, theta = log-odds / 2
    assert params.theta0_plus[0] == pytest.approx(0.5 * math.log(0.8 / 0.2))
    assert params.theta0_plus[1] == pytest.approx(0.5 * math.log(0.6 / 0.4))
    assert params.theta00 == pytest.approx(0.0, abs=1e-12)


def test_plugin_clamps_degenerate_channels():
    params = plugin_canonical_params(IsingParams(0.0, (0.0,), (1.0,)))
    assert math.isfinite(params.theta0_plus[0])
    assert params.theta0_plus[0] == pytest.approx(0.5 * math.log(999.0))


# ------------------------------------------------------------ inference


def test_score_matches_hand_sigmoid():
    params = IsingParams(
        0.0, (0.0,), (0.0,), theta00=0.1, theta0_plus=(0.2,)
    )
    row = placeholder_matrix(np.array([[1]], dtype=np.int8))
    # sigmoid(2 * 0.1 + 2 * 0.2)
    assert infer_scores(params, row)[0] == pytest.approx(0.6456563062257954)


def test_zero_parameters_score_one_half():
    rng = np.random.default_rng(9)
    labels = np.where(rng.random((20, 2)) < 0.5, 1, -1).astype(np.int8)
    params = IsingParams(
        0.0, (0.0,) * 2, (0.0,) * 2, theta00=0.0, theta0_plus=(0.0, 0.0)
    )
    assert infer_scores(params, placeholder_matrix(labels)) == pytest.approx(
        np.full(20, 0.5)
    )


def test_positive_weight_makes_scores_monotone_in_the_vote():
    params = IsingParams(
        0.0, (0.0,) * 2, (0.0,) * 2, theta00=0.05, theta0_plus=(0.7, 0.3)
    )
    lo = placeholder_matrix(np.array([[-1, 1]], dtype=np.int8))
    hi = placeholder_matrix(np.array([[1, 1]], dtype=np.int8))
    assert infer_scores(params, lo)[0] < infer_scores(params, hi)[0]


def test_unfitted_parameters_refuse_to_score():
    params = IsingParams(0.0, (0.0,), (0.5,))
    row = placeholder_matrix(np.array([[1]], dtype=np.int8))
    with pytest.raises(ValueError, match="not fitted"):
        infer_scores(params, row)


# ----------------------------------------------------- enumeration oracle


def test_oracle_is_uniform_at_zero_parameters():
    for y in (-1, 1):
        for votes in itertools.product((-1, 1), repeat=3):
            p = joint_prob_oracle(0.0, (0.0,) * 3, (0.0,) * 3, {}, y, votes)
            assert p == pytest.approx(1.0 / 16.0, abs=1e-15)


def test_oracle_probabilities_sum_to_one():
    rng = np.random.default_rng(10)
    theta00 = float(rng.normal())
    theta0 = tuple(rng.normal(size=3))
    theta_p = tuple(rng.normal(size=3))
    theta_pp = {(0, 2): float(rng.normal())}
    total = sum(
        joint_prob_oracle(theta00, theta0, theta_p, theta_pp, y, votes)
        for y in (-1, 1)
        for votes in itertools.product((-1, 1), repeat=3)
    )
    assert total == pytest.approx(1.0, abs=1e-12)


def test_conditional_ignores_parser_only_terms():
    # singleton and pairwise parser terms do not involve the truth, so
    # the conditional over y must reduce to the sigmoid score
    theta00, theta0 = 0.15, (0.4, 0.25, 0.55)
    theta_p = (0.3, -0.2, 0.1)
    theta_pp = {(0, 1): 0.25, (1, 2): -0.15}
    params = IsingParams(
        0.0, (0.0,) * 3, (0.0,) * 3, theta00=theta00, theta0_plus=theta0
    )
    for votes in itertools.product((-1, 1), repeat=3):
        num = joint_prob_oracle(theta00, theta0, theta_p, theta_pp, 1, votes)
        den = num + joint_prob_oracle(theta00, theta0, theta_p, theta_pp, -1, votes)
        row = placeholder_matrix(np.array([votes], dtype=np.int8))
        assert infer_scores(params, row)[0] == pytest.approx(num / den, abs=1e-12)


def test_oracle_input_validation():
    with pytest.raises(ValueError, match="capped"):
        joint_prob_oracle(0.0, (0.0,) * 13, (0.0,) * 13, {}, 1, (1,) * 13)
    with pytest.raises(ValueError, match="lengths disagree"):
        joint_prob_oracle(0.0, (0.0, 0.0), (0.0,), {}, 1, (1, 1))
    with pytest.raises(ValueError, match="-1 or \\+1"):
        joint_prob_oracle(0.0, (0.0,), (0.0,), {}, 0, (1,))


# ------------------------------------------------------------- full run


def small_duplicate_corpus():
    cfg = SynthConfig(
        sentences=60,
        tokens=(9, 9),
        rates=(0.1, 0.2, 0.3, 0.25),
        seed=13,
        duplicates=(1,),
    )
    return generate(cfg)


def test_run_detects_and_removes_the_duplicate():
    result = small_duplicate_corpus()
    matrix = label_matrix(result.ensemble)
    with mock.patch.object(np, "unique", wraps=np.unique) as unique, \
            mock.patch.object(edges, "majority_vote", wraps=majority_vote) as vote:
        out = cim_run(matrix)
    # one pattern table and its majority vote for the given matrix, one more
    # of each for the collapsed one
    assert (unique.call_count, vote.call_count) == (2, 2)
    assert (1, 4) in out.graph.edges
    assert out.reduced.m == 4
    assert out.reduced.parser_ids == (
        "parser_1",
        "parser_2+parser_5",
        "parser_3",
        "parser_4",
    )
    # the collapsed matrix is exactly the four distinct parsers
    four = label_matrix(build_ensemble(result.files[:4]))
    assert (out.reduced.labels == four.labels).all()
    assert out.scores.shape == (matrix.n_edges,)
    assert ((out.scores > 0.0) & (out.scores < 1.0)).all()


def test_realistic_run_proves_divergence_and_takes_the_plugin():
    # synthetic votes put the estimated moments beyond a hard labeling's:
    # the fit proves its objective unbounded below at once, and the
    # closed-form parameters score the edges
    out = cim_run(label_matrix(small_duplicate_corpus().ensemble))
    assert out.params.converged is False
    assert out.params.plugin
    assert out.params.iterations <= 2


def test_a_stalled_line_search_ends_the_fit_and_takes_the_plugin(monkeypatch):
    # a NaN objective accepts no step, so the line search halves the step
    # below its floor; the fit ends unconverged and cim_run falls back
    value_grad = cim._canonical_value_grad
    monkeypatch.setattr(cim, "_canonical_value_grad", lambda *a: (math.nan, value_grad(*a)[1]))
    matrix = label_matrix(small_duplicate_corpus().ensemble)
    fit = fit_canonical_params(estimate_mean_params(matrix), matrix)
    assert (fit.converged, fit.iterations, fit.theta00) == (False, 1, 0.0)
    out = cim_run(matrix)
    assert (out.params.converged, out.params.plugin, out.params.iterations) == (False, True, 1)


def test_run_without_collapse_keeps_every_column():
    result = small_duplicate_corpus()
    matrix = label_matrix(result.ensemble)
    with mock.patch.object(np, "unique", wraps=np.unique) as unique, \
            mock.patch.object(edges, "majority_vote", wraps=majority_vote) as vote:
        out = cim_run(matrix, collapse=False)
    # the collapse, the moments, the fit and the scores share one table, and the
    # collapse and the moments its majority vote
    assert (unique.call_count, vote.call_count) == (1, 1)
    assert out.reduced is matrix
    assert out.collapse_map.components == tuple((j,) for j in range(matrix.m))


def test_diagnostics_expose_every_stage():
    result = small_duplicate_corpus()
    out = cim_run(label_matrix(result.ensemble))
    diag = out.diagnostics()
    for key in (
        "components",
        "excluded",
        "correlation_edges",
        "mu00",
        "mu0_plus",
        "theta00",
        "theta0_plus",
        "triplet_fallback",
        "correlation_fit",
        "fit",
    ):
        assert key in diag
    assert set(diag["fit"]) == {"grad_norm", "iterations", "converged", "plugin"}
    assert set(diag["mu0_plus"]) == set(out.reduced.parser_ids)
    # the batched l1 solve ran and froze every problem
    assert diag["correlation_fit"] == {"iterations": out.graph.iterations, "converged": True}
    assert 0 < out.graph.iterations <= _L1_MAX_ITERATIONS
    plain = cim_run(label_matrix(result.ensemble), collapse=False)
    assert plain.diagnostics()["correlation_fit"] == {"iterations": 0, "converged": True}


def test_scores_are_equivariant_under_column_permutation():
    rng = np.random.default_rng(12)
    labels = np.where(rng.random((500, 4)) < 0.5, 1, -1).astype(np.int8)
    for j in range(4):
        labels[rng.random(500) < 0.6, j] = 1
    perm = [2, 0, 3, 1]
    base = cim_run(placeholder_matrix(labels), collapse=False)
    moved = cim_run(placeholder_matrix(labels[:, perm]), collapse=False)
    assert np.abs(base.scores - moved.scores).max() < 1e-9
    for i, j in enumerate(perm):
        assert moved.params.theta0_plus[i] == pytest.approx(
            base.params.theta0_plus[j], abs=1e-9
        )


@settings(max_examples=40, deadline=None)
@given(vote_arrays(), st.randoms(use_true_random=False))
def test_scores_permute_with_the_rows(votes, rnd):
    order = list(range(len(votes)))
    rnd.shuffle(order)
    base = cim_run(placeholder_matrix(votes))
    moved = cim_run(placeholder_matrix(votes[order]))
    assert moved.params.plugin == base.params.plugin
    # the moment fit runs on the sorted vote patterns, so the row order
    # cannot move its rounding, converged or not
    assert np.array_equal(moved.scores, base.scores[order])


def test_trees_follow_separable_scores():
    a = DepTree((0, 1, 2))
    b = DepTree((0, 1, 1))
    ens = ensemble_of(("a", "b"), {"s1": (a, b)})
    matrix = label_matrix(ens)
    scores = np.where(matrix.labels[:, 0] == 1, 0.9, 0.1)
    trees = trees_by_id(cim_trees(scores, matrix, ens), ens)
    assert trees == {"s1": a}


def _degenerate(kind, m):
    rng = np.random.default_rng(m)
    votes = np.where(rng.random((40, m)) < 0.5, 1, -1).astype(np.int8)
    if kind == "one row":
        return votes[:1]
    if kind == "all rows agree":
        return np.repeat(votes[:, :1], m, axis=1)
    if kind == "every column constant":
        return np.repeat(votes[:1], len(votes), axis=0)
    if kind == "constant column":
        votes[:, 0] = 1
    else:  # duplicated columns
        votes[:, -1] = votes[:, 0]
    return votes


@pytest.mark.parametrize("m", (2, 3))
@pytest.mark.parametrize(
    "kind",
    (
        "one row",
        "all rows agree",
        "every column constant",
        "constant column",
        "duplicated columns",
    ),
)
def test_solvers_end_within_their_caps_on_degenerate_matrices(kind, m, monkeypatch):
    l1_iterations = []

    def recorded_l1(*args, **kwargs):
        result = fit_l1_logistic(*args, **kwargs)
        l1_iterations.append(result[2])
        return result

    monkeypatch.setattr(cim, "fit_l1_logistic", recorded_l1)
    matrix = placeholder_matrix(_degenerate(kind, m))
    graph = estimate_correlation_graph(matrix)
    fit = fit_canonical_params(estimate_mean_params(matrix), matrix)
    assert fit.iterations <= _FIT_MAX_ITERATIONS
    assert crh_run(matrix).iterations <= _CRH_MAX_ITERATIONS
    assert cim_run(matrix).params.iterations <= _FIT_MAX_ITERATIONS
    assert len(l1_iterations) == 2  # one batched solve per graph
    assert all(it <= _L1_MAX_ITERATIONS for it in l1_iterations)
    if kind == "every column constant":
        # no column is active: the solve has no problem and returns at once
        assert graph.excluded == tuple(range(m))
        assert graph.edges == frozenset()
        assert l1_iterations == [0, 0]
