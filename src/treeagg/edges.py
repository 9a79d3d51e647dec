"""Reduction of tree ensembles to an edge-level signed label matrix.

Per sentence, the candidate set is the union of all parsers' edges. Each
candidate edge becomes one row; parser k's entry is +1 if its tree contains
the edge and -1 otherwise, so every aggregation method downstream works on
one {-1, +1} matrix regardless of where the labels came from. The matrix is
held as parallel arrays: rows of sentence i are ``offsets[i]:offsets[i+1]``
and row r is the edge ``heads[r] -> deps[r]``.

Decoding gives every dependent of every sentence its best-scoring head in
one pass (``arborescence.best_arcs``); only the sentences whose best heads
are no tree (or, under the single-root rule, have several roots) reach the
Chu-Liu/Edmonds solver. The decoded trees are one flat head array over the
ensemble's ``offsets``, the layout of a parser file's ``heads``, so they
are written out as they are (``conllu.write_conllu``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .arborescence import WeightedTokenGraph, best_arcs, max_arborescence, refuse_arcs
from .trees import ParseEnsemble, check_trees


@dataclass(frozen=True, eq=False)
class EdgeLabelMatrix:
    """Rows are candidate edges (grouped by sentence, in corpus order, then
    sorted by (head, dependent)); columns are parsers; entries are +-1."""

    sentence_ids: tuple[str, ...]
    offsets: np.ndarray
    heads: np.ndarray
    deps: np.ndarray
    labels: np.ndarray
    parser_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        n = len(self.heads)
        if self.labels.shape != (n, len(self.parser_ids)):
            raise ValueError(
                f"labels shape {self.labels.shape} does not match "
                f"{n} edges x {len(self.parser_ids)} parsers"
            )
        if (
            len(self.deps) != n
            or len(self.offsets) != len(self.sentence_ids) + 1
            or self.offsets[0] != 0
            or self.offsets[-1] != n
            or (np.diff(self.offsets) < 0).any()
        ):
            raise ValueError("offsets, heads and deps do not match the rows")
        if not ((self.labels == 1) | (self.labels == -1)).all():
            raise ValueError("labels must be -1 or +1")
        for a in (self.offsets, self.heads, self.deps, self.labels):
            a.setflags(write=False)

    @property
    def n_edges(self) -> int:
        return len(self.heads)

    @property
    def m(self) -> int:
        return len(self.parser_ids)


def label_matrix(ensemble: ParseEnsemble) -> EdgeLabelMatrix:
    """Build the signed label matrix for an ensemble.

    Row order is deterministic: sentences in corpus order, edges within a
    sentence by (head, dependent). Every row has at least one +1 because
    each candidate edge was proposed by some parser.
    """
    sids = ensemble.sentence_ids
    q = np.diff(ensemble.offsets)
    # parser x token head array, tokens of all sentences end to end
    H = ensemble.heads
    sent = np.repeat(np.arange(len(sids)), q)
    first = ensemble.offsets[:-1]
    dep = np.arange(len(sent)) - first[sent] + 1
    # One integer per (sentence, head, dependent); sorting the keys sorts
    # the rows in that order.
    base = int(q.max(initial=0)) + 1
    keys = np.unique((sent * base + H) * base + dep)
    row_dep = keys % base
    row_head = keys // base % base
    row_sent = keys // (base * base)
    tok = first[row_sent] + row_dep - 1
    labels = np.where(H[:, tok].T == row_head[:, None], 1, -1).astype(np.int8)
    offsets = np.searchsorted(row_sent, np.arange(len(sids) + 1))
    return EdgeLabelMatrix(
        sids, offsets, row_head, row_dep, labels, ensemble.parser_ids
    )


def majority_vote(matrix: EdgeLabelMatrix, weights: np.ndarray | None = None) -> np.ndarray:
    """Per-edge majority label under per-parser ``weights`` (``None``: one
    each, whose sums are exact integers); exact ties break toward +1."""
    w = np.ones(matrix.m) if weights is None else weights
    return np.where(matrix.labels.astype(np.float64) @ w >= 0, 1, -1).astype(np.int8)


def vote_mass(matrix: EdgeLabelMatrix, weights: np.ndarray) -> np.ndarray:
    """Per edge, the weight mass of the parsers that vote for it."""
    return (matrix.labels == 1).astype(np.float64) @ weights


def sentence_rows(matrix: EdgeLabelMatrix) -> Iterator[tuple[str, slice]]:
    bounds = matrix.offsets.tolist()
    for sid, start, stop in zip(matrix.sentence_ids, bounds, bounds[1:]):
        yield sid, slice(start, stop)


def tree_labels(
    matrix: EdgeLabelMatrix, heads: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """+1 where the row's sentence tree contains the row's edge, else -1;
    sentence i's tree is ``heads[offsets[i]:offsets[i + 1]]``."""
    tok = np.repeat(offsets[:-1], np.diff(matrix.offsets)) + matrix.deps - 1
    return np.where(heads[tok] == matrix.heads, 1, -1).astype(np.int8)


def trees_from_scores(
    matrix: EdgeLabelMatrix,
    scores: np.ndarray,
    ensemble: ParseEnsemble,
    enforce_single_root: bool = True,
) -> np.ndarray:
    """Flat heads over ``ensemble.offsets`` of a maximum spanning
    arborescence per sentence under per-row ``scores``. ``matrix`` must
    hold the ensemble's sentences in its order.

    Each dependent takes the head ``best_arcs`` picks, as at the solver's
    first level. Where those heads form a tree the solver returns them too:
    any other tree scores each dependent no higher, so its float total is
    no larger, and an equal total from equal scores has larger heads. A
    rival ties otherwise only where rounding absorbs a lower score (1
    beside 1e16); the solver then keeps its smaller heads, and this the
    best heads, whose exact total is larger (integer votes sum exactly).
    """
    if matrix.sentence_ids != ensemble.sentence_ids:
        raise ValueError("the matrix and the ensemble hold different sentences")
    w = np.asarray(scores, dtype=np.float64)
    if w.shape != matrix.heads.shape:
        raise ValueError(f"scores of shape {w.shape} for {matrix.n_edges} rows: need one per row")
    offsets = ensemble.offsets
    q = np.diff(offsets)
    h, d = matrix.heads, matrix.deps
    sent = np.repeat(np.arange(len(q)), np.diff(matrix.offsets))
    refuse_arcs(h, d, w, q[sent])
    best = best_arcs(h, offsets[sent] + d - 1, w, offsets[-1])
    heads = np.append(h.astype(np.int64), -1)[best]  # -1: no candidate arc
    accepted = (q > 0) & check_trees(heads, offsets)
    if enforce_single_root:
        roots = np.repeat(np.arange(len(q)), q)[heads == 0]
        accepted &= np.bincount(roots, minlength=len(q)) == 1
    for i in np.flatnonzero(~accepted).tolist():
        r = slice(matrix.offsets[i], matrix.offsets[i + 1])
        graph = WeightedTokenGraph(int(q[i]), np.column_stack((h[r], d[r], w[r])))
        heads[offsets[i] : offsets[i + 1]] = max_arborescence(graph, enforce_single_root)
    return heads


def iter_dump_lines(matrix: EdgeLabelMatrix) -> Iterator[str]:
    """Debug dump, one line per edge: sentence id, head, dependent, votes."""
    votes = np.where(matrix.labels == 1, "+1", "-1").tolist()
    heads = matrix.heads.tolist()
    deps = matrix.deps.tolist()
    for sid, rows in sentence_rows(matrix):
        for h, d, row in zip(heads[rows], deps[rows], votes[rows]):
            yield f"{sid}\t{h}\t{d}\t" + "\t".join(row)
