"""Reduction of tree ensembles to an edge-level signed label matrix.

Per sentence, the candidate set is the union of all parsers' edges. Each
candidate edge becomes one row; parser k's entry is +1 if its tree contains
the edge and -1 otherwise, so every aggregation method downstream works on
one {-1, +1} matrix regardless of where the labels came from. The matrix is
held as parallel arrays: rows of sentence i are ``offsets[i]:offsets[i+1]``
and row r is the edge ``heads[r] -> deps[r]``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .arborescence import WeightedTokenGraph, max_arborescence
from .trees import DepTree, ParseEnsemble


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
        if self.labels.size and not np.isin(self.labels, (-1, 1)).all():
            raise ValueError("labels must be -1 or +1")
        for a in (self.offsets, self.heads, self.deps, self.labels):
            a.setflags(write=False)

    @property
    def n_edges(self) -> int:
        return len(self.heads)

    @property
    def m(self) -> int:
        return len(self.parser_ids)

    @classmethod
    def from_labels(
        cls, labels: np.ndarray, parser_ids: Sequence[str] | None = None
    ) -> "EdgeLabelMatrix":
        """Wrap a bare label array; rows get placeholder one-edge sentences.

        Intended for estimation work on synthetic label data where no real
        sentences exist; such a matrix cannot drive tree extraction.
        """
        labels = np.asarray(labels, dtype=np.int8)
        n, m = labels.shape
        ids = tuple(parser_ids) if parser_ids is not None else tuple(
            f"p{k + 1}" for k in range(m)
        )
        sids = tuple(f"r{i}" for i in range(n))
        return cls(
            sids, np.arange(n + 1), np.zeros(n, np.int64), np.ones(n, np.int64),
            labels, ids,
        )


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


def majority_vote(matrix: EdgeLabelMatrix) -> np.ndarray:
    """Per-edge majority label; exact ties break toward +1."""
    sums = matrix.labels.astype(np.int64).sum(axis=1)
    return np.where(sums >= 0, 1, -1).astype(np.int8)


def sentence_rows(matrix: EdgeLabelMatrix) -> Iterator[tuple[str, slice]]:
    bounds = matrix.offsets.tolist()
    for sid, start, stop in zip(matrix.sentence_ids, bounds, bounds[1:]):
        yield sid, slice(start, stop)


def tree_labels(
    matrix: EdgeLabelMatrix, trees: Mapping[str, DepTree]
) -> np.ndarray:
    """+1 where the row's sentence tree contains the row's edge, else -1."""
    chosen = [trees[sid] for sid in matrix.sentence_ids]
    q = np.array([len(t) for t in chosen], dtype=np.int64)
    first = np.cumsum(q) - q
    tok = np.repeat(first, np.diff(matrix.offsets)) + matrix.deps - 1
    heads = np.fromiter(
        itertools.chain.from_iterable(t.heads for t in chosen), dtype=np.int64
    )
    return np.where(heads[tok] == matrix.heads, 1, -1).astype(np.int8)


def trees_from_scores(
    matrix: EdgeLabelMatrix,
    scores: np.ndarray,
    ensemble: ParseEnsemble,
    enforce_single_root: bool = True,
) -> dict[str, DepTree]:
    """Decode one tree per sentence from per-edge scores."""
    heads = matrix.heads.tolist()
    deps = matrix.deps.tolist()
    weights = np.asarray(scores).tolist()
    out: dict[str, DepTree] = {}
    for sid, rows in sentence_rows(matrix):
        arcs = tuple(zip(heads[rows], deps[rows], weights[rows]))
        graph = WeightedTokenGraph(ensemble.token_count(sid), arcs)
        out[sid] = max_arborescence(graph, enforce_single_root)
    return out


def iter_dump_lines(matrix: EdgeLabelMatrix) -> Iterator[str]:
    """Debug dump, one line per edge: sentence id, head, dependent, votes."""
    votes = np.where(matrix.labels == 1, "+1", "-1").tolist()
    heads = matrix.heads.tolist()
    deps = matrix.deps.tolist()
    for sid, rows in sentence_rows(matrix):
        for h, d, row in zip(heads[rows], deps[rows], votes[rows]):
            yield f"{sid}\t{h}\t{d}\t" + "\t".join(row)
