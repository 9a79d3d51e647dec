"""Treebank-level evaluation protocol: filtering, ranking, scoring.

The protocol mirrors how ensembles of shared-task parser outputs are
compared: drop sentences the parsers tokenize differently, drop sentences
they all agree on (nothing to aggregate), reject treebanks that end up too
small or too thin, rank parsers by UAS on a small seeded sample, and score
consensus trees by micro-averaged UAS over syntactic words.
"""

from __future__ import annotations

import random
import statistics
import sys
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .conllu import TreebankFile, check_segmentation
from .edges import EdgeLabelMatrix, label_matrix, trees_from_scores, weighted_votes
from .trees import ParseEnsemble, concat_ranges

_SAMPLE_SIZE = 10  # rank_and_select's sentence sample


@dataclass(frozen=True)
class FilterLog:
    """One treebank's filter counts, the keys of ``filters.json``."""

    total: int
    seg_dropped: int
    agree_dropped: int
    kept: int
    n_parsers: int
    rejected: str | None = None


@dataclass(frozen=True)
class PreprocessResult:
    files: tuple[TreebankFile, ...] | None
    gold: TreebankFile | None
    log: FilterLog


def preprocess(
    files: Sequence[TreebankFile],
    gold: TreebankFile,
    min_sentences: int = 50,
    min_parsers: int = 9,
) -> PreprocessResult:
    """Filter a treebank's ensemble for aggregation.

    Drops sentences whose segmentation differs across the parser files or
    the gold file (UAS would be undefined), then sentences on which every
    parser outputs the same tree. Rejection (too few parsers, too few
    surviving sentences) is an outcome recorded in the log, not an error.
    """
    total = len(gold)
    if len(files) < min_parsers:
        log = FilterLog(
            total, 0, 0, 0, len(files),
            f"{len(files)} parsers, need at least {min_parsers}",
        )
        return PreprocessResult(None, None, log)
    if not files:
        raise ValueError("no parser files")
    seg_ok = np.flatnonzero(check_segmentation([*files, gold]))
    seg_dropped = total - len(seg_ok)
    # the same segmentation, so the same token counts in every file
    q = files[0].lengths[seg_ok]
    heads = np.stack([f.heads[concat_ranges(f.offsets[seg_ok], q)] for f in files])
    differ = (heads != heads[0]).any(axis=0)
    sent = np.repeat(np.arange(len(seg_ok)), q)
    disputed = np.bincount(sent[differ], minlength=len(seg_ok)) > 0
    agree_dropped = len(seg_ok) - int(disputed.sum())
    kept = seg_ok[disputed].tolist()
    if len(kept) < min_sentences:
        log = FilterLog(
            total, seg_dropped, agree_dropped, len(kept), len(files),
            f"{len(kept)} surviving sentences, need at least {min_sentences}",
        )
        return PreprocessResult(None, None, log)
    log = FilterLog(total, seg_dropped, agree_dropped, len(kept), len(files))
    return PreprocessResult(
        tuple(f.subset(kept) for f in files), gold.subset(kept), log
    )


def _uas(
    pred: np.ndarray,
    pred_q: np.ndarray,
    gold: np.ndarray,
    gold_q: np.ndarray,
    skip: np.ndarray | None = None,
) -> float:
    if len(pred_q) != len(gold_q):
        raise ValueError(f"{len(pred_q)} predicted trees vs {len(gold_q)} gold")
    if not len(gold_q):
        raise ValueError("no sentences to score")
    bad = np.flatnonzero(pred_q != gold_q)
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"sentence {i}: {pred_q[i]} tokens predicted, {gold_q[i]} gold")
    hit = pred == gold
    counted = len(gold)
    if skip is not None:
        skip = np.asarray(skip, dtype=bool)
        if skip.shape != (counted,):
            raise ValueError(f"exclusion mask of shape {skip.shape} for {counted} tokens")
        hit &= ~skip
        counted -= int(np.count_nonzero(skip))
    if counted == 0:
        raise ValueError("every token excluded")
    return 100.0 * int(np.count_nonzero(hit)) / counted


def uas(
    pred: TreebankFile, gold: TreebankFile, exclude: np.ndarray | None = None
) -> float:
    """Micro-averaged unlabeled attachment score of ``pred`` against
    ``gold``, as a percentage.

    ``exclude`` optionally masks tokens, one flag per token of ``gold``
    (True = skip), e.g. punctuation. Token counts must agree sentence by
    sentence.
    """
    return _uas(pred.heads, pred.lengths, gold.heads, gold.lengths, exclude)


@dataclass(frozen=True)
class RankResult:
    """A seeded ranking, the keys of ``selected.json`` less an unset ``warning``."""

    selected: tuple[str, ...]
    table: tuple[tuple[str, float], ...]
    sample_positions: tuple[int, ...]
    seed: int
    warning: str | None = None


def rank_and_select(
    ensemble: ParseEnsemble,
    gold_trees: TreebankFile,
    top_k: int = 9,
    seed: int = 0,
) -> RankResult:
    """Rank parsers by UAS against the gold file on a seeded sample of
    ``_SAMPLE_SIZE`` sentences; keep the top k.

    ``gold_trees`` holds the ensemble's sentences in the ensemble's order.
    Sampling is uniform without replacement over the (already filtered)
    sentences; ranking ties keep ensemble order (stable sort).
    """
    if top_k < 1:
        raise ValueError(f"top_k must be at least 1, got {top_k}")
    gold, gold_q = gold_trees.heads, gold_trees.lengths
    n = len(ensemble.sentence_ids)
    if len(gold_q) != n:
        raise ValueError("gold trees do not align with the ensemble")
    positions = sorted(random.Random(seed).sample(range(n), min(_SAMPLE_SIZE, n)))
    pos = np.array(positions, dtype=np.int64)
    q = np.diff(ensemble.offsets)[pos]
    sample = ensemble.heads[:, concat_ranges(ensemble.offsets[pos], q)]
    sample_gold = gold[concat_ranges(gold_trees.offsets[pos], gold_q[pos])]
    table = [
        (pid, _uas(row, q, sample_gold, gold_q[pos]))
        for pid, row in zip(ensemble.parser_ids, sample)
    ]
    warning = None
    if top_k > ensemble.m:
        warning = f"asked for top {top_k} of {ensemble.m} parsers; keeping all"
    order = sorted(range(ensemble.m), key=lambda k: -table[k][1])
    selected = tuple(ensemble.parser_ids[k] for k in order[:top_k])
    return RankResult(selected, tuple(table), tuple(positions), seed, warning)


def vote_mst(
    ensemble: ParseEnsemble,
    enforce_single_root: bool = True,
    matrix: EdgeLabelMatrix | None = None,
) -> np.ndarray:
    """Consensus trees from unweighted vote counts (the MST baseline), as
    flat heads over ``ensemble.offsets``.

    ``matrix`` is the ensemble's label matrix, built here when not given.
    """
    if matrix is None:
        matrix = label_matrix(ensemble)
    votes = weighted_votes(matrix.labels == 1, np.ones(matrix.m))
    return trees_from_scores(matrix, votes, ensemble, enforce_single_root)


@dataclass(frozen=True)
class SummaryReport:
    """Distribution summary of one method's per-treebank UAS values."""

    group: str
    n: int
    mean: float
    median: float
    std: float


def summarize(values: Sequence[float], group: str = "all") -> SummaryReport:
    """Mean, median, and population standard deviation of UAS values.

    Nothing is rounded here; rounding happens only at display time.
    """
    vals = [float(v) for v in values]
    if not vals or not np.isfinite(vals).all():
        raise ValueError(f"a value is not finite: {vals}" if vals else "no values to summarize")
    return SummaryReport(
        group,
        len(vals),
        statistics.fmean(vals),
        float(statistics.median(vals)),
        statistics.pstdev(vals),
    )


@dataclass(frozen=True)
class TreebankReport:
    """Evaluation record for one treebank, the keys of ``report.json``."""

    treebank: str
    n_sentences: int
    methods: Mapping[str, float]
    selected_parsers: tuple[str, ...] = ()
    filters: Mapping[str, int] = field(default_factory=dict)

    @classmethod
    def from_json(cls, data: Mapping) -> "TreebankReport":
        """Read back the record's ``asdict``; a value the record never
        holds raises ``TypeError``."""
        treebank, methods, filters = data["treebank"], data["methods"], data.get("filters", {})
        if not isinstance(treebank, str):
            raise TypeError(f"'treebank' must be a string, got {treebank!r}")
        if not (isinstance(methods, Mapping) and isinstance(filters, Mapping)):
            raise TypeError("'methods' and 'filters' must be objects")
        return cls(
            treebank=treebank,
            n_sentences=json_number(data["n_sentences"], "'n_sentences'", int),
            methods={k: json_number(v, f"method {k!r}") for k, v in methods.items()},
            selected_parsers=string_list(data.get("selected_parsers", []), "'selected_parsers'"),
            filters={k: json_number(v, f"filter {k!r}", int) for k, v in filters.items()},
        )


def string_list(value: object, name: str) -> tuple[str, ...]:
    """``value``, a JSON list of strings, as a tuple; else a ``TypeError``."""
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise TypeError(f"{name} must be a list of strings, got {value!r}")
    return tuple(value)


def json_number(value: object, name: str, kind: type = float) -> float:
    """``value`` as ``kind``: a JSON number (for int, an integer) in the
    float range; anything else, a bool too, is a ``TypeError``."""
    if type(value) not in (int, kind) or not abs(value) <= sys.float_info.max:
        what = "an integer" if kind is int else "a finite number"
        raise TypeError(f"{name} must be {what}, got {value!r}")
    return kind(value)


@dataclass(frozen=True)
class MethodDiff:
    diffs: Mapping[str, float]
    positive: int
    negative: int
    zero: int


def method_diffs(
    reports: Sequence[TreebankReport], primary: str = "cim"
) -> dict[str, MethodDiff]:
    """Per-treebank UAS differences, primary method minus each baseline.

    Each baseline is compared over the treebanks that score both it and
    the primary; a report without the primary compares nothing. Diffs are
    keyed by treebank name, so names should be unique.
    """
    scored = [r for r in reports if primary in r.methods]
    out: dict[str, MethodDiff] = {}
    for b in sorted({m for r in scored for m in r.methods} - {primary}):
        diffs = {r.treebank: r.methods[primary] - r.methods[b] for r in scored if b in r.methods}
        vals = list(diffs.values())
        out[b] = MethodDiff(
            diffs,
            sum(v > 0 for v in vals),
            sum(v < 0 for v in vals),
            sum(v == 0 for v in vals),
        )
    return out
