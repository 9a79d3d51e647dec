"""Conflict-resolution truth discovery over the edge label matrix.

Block coordinate descent on the weighted-loss objective
``sum_k w_k * cost_k`` under the constraint ``sum_k exp(-w_k) = 1``:
the weight step has the closed form ``w_k = -log(cost_k / sum costs)``
and the truth step is a weighted majority vote, so the objective never
increases. Costs are either per-edge 0/1 disagreements ("edge" distance)
or per-sentence tree distances ``1 - UAS`` ("uas" distance); in the latter
mode the truth step is solved exactly as a maximum arborescence over
weight-summed votes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .edges import EdgeLabelMatrix, majority_vote, tree_labels, trees_from_scores, weighted_votes
from .trees import ParseEnsemble

DISTANCE_MODES = ("edge", "uas")
_TOL = 1e-9  # crh_run stops once the objective drops by less than this
_MAX_ITERATIONS = 100  # or after this many rounds
_EPS = 1e-8  # added to every parser's cost, so no weight is infinite


@dataclass(frozen=True)
class CrhOptions:
    distance: str = "edge"
    enforce_single_root: bool = True

    def __post_init__(self) -> None:
        if self.distance not in DISTANCE_MODES:
            raise ValueError(f"distance must be one of {DISTANCE_MODES}")


@dataclass(frozen=True)
class CrhState:
    """Weights and truths after the last completed step, and each step's objective."""

    weights: np.ndarray
    truths: np.ndarray
    iterations: int
    converged: bool
    objective_history: tuple[float, ...] = ()
    enforce_single_root: bool = True  # the run's rule, which crh_trees decodes under


def _uas_costs(truths: np.ndarray, matrix: EdgeLabelMatrix) -> np.ndarray:
    """Each parser's sum over sentences of 1 - UAS against the truth trees,
    whose edges, one per token, are the +1 rows of ``tree_labels``."""
    chosen = truths == 1
    starts = matrix.offsets[:-1]
    q = np.add.reduceat(chosen, starts, dtype=np.int64)
    match = np.add.reduceat((matrix.labels == 1) & chosen[:, None], starts, dtype=np.int64)
    return (1.0 - match / q[:, None]).sum(axis=0)


def crh_run(
    matrix: EdgeLabelMatrix,
    opts: CrhOptions = CrhOptions(),
    ensemble: ParseEnsemble | None = None,
) -> CrhState:
    """Alternate weight and truth updates from a majority-vote start.

    Stops when the truths stop changing or the objective decrease falls
    below ``_TOL``, or after ``_MAX_ITERATIONS`` rounds. The "uas"
    distance needs the ensemble only to decode each step's trees.
    """
    if matrix.m < 2:
        raise ValueError("need at least two parsers")
    uas_mode = opts.distance == "uas"
    if uas_mode and ensemble is None:
        raise ValueError('distance "uas" needs the ensemble')

    def step(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The truth step for ``weights``, and the costs of its truths."""
        if uas_mode:
            assert ensemble is not None
            mass = weighted_votes(matrix.labels == 1, weights)
            heads = trees_from_scores(matrix, mass, ensemble, opts.enforce_single_root)
            truths = tree_labels(matrix, heads, ensemble.offsets)
            return truths, _uas_costs(truths, matrix) + _EPS
        truths = majority_vote(matrix.labels, weights)
        return truths, (matrix.labels != truths[:, None]).sum(axis=0) + _EPS

    # start from the unweighted vote: the majority vote, or in uas mode
    # the unweighted vote trees
    truths, costs = step(np.ones(matrix.m))

    objective = np.inf
    history: list[float] = []
    converged = False
    for iteration in range(1, _MAX_ITERATIONS + 1):
        weights = -np.log(costs / costs.sum())
        new_truths, costs = step(weights)
        new_objective = float(weights @ costs)
        history.append(new_objective)

        unchanged = bool(np.array_equal(new_truths, truths))
        small_drop = objective - new_objective < _TOL
        truths, objective = new_truths, new_objective
        if unchanged or small_drop:
            converged = True
            break
    return CrhState(
        weights, truths, iteration, converged, tuple(history), opts.enforce_single_root
    )


def crh_trees(state: CrhState, matrix: EdgeLabelMatrix, ensemble: ParseEnsemble) -> np.ndarray:
    """Decode consensus trees from converged weights, as flat heads over
    ``ensemble.offsets``, under the single-root rule of the state's run.

    Edge scores are weight mass on +1 votes normalized by total weight, so
    they live in [0, 1] like the probabilistic aggregators' scores.
    """
    scores = weighted_votes(matrix.labels == 1, state.weights) / state.weights.sum()
    return trees_from_scores(matrix, scores, ensemble, state.enforce_single_root)
