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

from .edges import EdgeLabelMatrix, tree_labels, trees_from_scores
from .trees import ParseEnsemble

DISTANCE_MODES = ("edge", "uas")
_TOL = 1e-9  # crh_run stops once the objective drops by less than this


@dataclass(frozen=True)
class CrhOptions:
    distance: str = "edge"
    max_iterations: int = 100
    eps: float = 1e-8
    enforce_single_root: bool = True

    def __post_init__(self) -> None:
        if self.distance not in DISTANCE_MODES:
            raise ValueError(f"distance must be one of {DISTANCE_MODES}")
        if self.max_iterations < 1 or not 0 < self.eps < np.inf:
            raise ValueError("bad CRH options")


@dataclass(frozen=True)
class CrhState:
    """Weights, truths, and the objective after the last completed step."""

    weights: np.ndarray
    truths: np.ndarray
    objective: float
    iterations: int
    converged: bool
    objective_history: tuple[float, ...] = ()


def truth_update(weights: np.ndarray, matrix: EdgeLabelMatrix) -> np.ndarray:
    """Weighted per-edge majority vote; exact ties break toward +1."""
    score = matrix.labels.astype(np.float64) @ weights
    return np.where(score >= 0, 1, -1).astype(np.int8)


def _votes(weights: np.ndarray, matrix: EdgeLabelMatrix) -> np.ndarray:
    """Per edge, the weight mass of the parsers that vote for it."""
    return (matrix.labels == 1).astype(np.float64) @ weights


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
    below ``_TOL``, or after ``opts.max_iterations`` rounds. The "uas"
    distance needs the ensemble only to decode each step's trees.
    """
    if matrix.m < 2:
        raise ValueError("need at least two parsers")
    uas_mode = opts.distance == "uas"
    if uas_mode and ensemble is None:
        raise ValueError('distance "uas" needs the ensemble')
    if not np.isfinite(matrix.m * (matrix.n_edges + opts.eps)):  # bounds every cost sum
        raise ValueError(f"crh eps {opts.eps:g} overflows the sum of {matrix.m} parsers' costs")

    def step(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The truth step for ``weights``, and the costs of its truths."""
        if uas_mode:
            assert ensemble is not None
            heads = trees_from_scores(
                matrix, _votes(weights, matrix), ensemble, opts.enforce_single_root
            )
            truths = tree_labels(matrix, heads, ensemble.offsets)
            return truths, _uas_costs(truths, matrix) + opts.eps
        truths = truth_update(weights, matrix)
        return truths, (matrix.labels != truths[:, None]).sum(axis=0) + opts.eps

    # start from the unweighted vote: the majority vote, or in uas mode
    # the unweighted vote trees
    truths, costs = step(np.ones(matrix.m))

    objective = np.inf
    history: list[float] = []
    converged = False
    for iteration in range(1, opts.max_iterations + 1):
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
        weights, truths, objective, iteration, converged, tuple(history)
    )


def crh_trees(
    state: CrhState,
    matrix: EdgeLabelMatrix,
    ensemble: ParseEnsemble,
    enforce_single_root: bool = True,
) -> np.ndarray:
    """Decode consensus trees from converged weights, as flat heads over
    ``ensemble.offsets``.

    Edge scores are weight mass on +1 votes normalized by total weight, so
    they live in [0, 1] like the probabilistic aggregators' scores.
    """
    scores = _votes(state.weights, matrix) / state.weights.sum()
    return trees_from_scores(matrix, scores, ensemble, enforce_single_root)
