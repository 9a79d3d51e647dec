"""Treebank-level evaluation protocol: filtering, ranking, scoring.

The protocol mirrors how ensembles of shared-task parser outputs are
compared: drop sentences the parsers tokenize differently, drop sentences
they all agree on (nothing to aggregate), reject treebanks that end up too
small or too thin, rank parsers by UAS on a small seeded sample, and score
consensus trees by micro-averaged UAS over syntactic words.
"""

from __future__ import annotations

import itertools
import random
import statistics
from dataclasses import asdict, dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .conllu import TreebankFile, aligned_tokens, check_segmentation
from .edges import EdgeLabelMatrix, label_matrix, trees_from_scores
from .trees import DepTree, ParseEnsemble, concat_ranges


@dataclass(frozen=True)
class FilterLog:
    total: int
    seg_dropped: int
    agree_dropped: int
    kept_positions: tuple[int, ...]
    n_parsers: int
    rejected: str | None = None

    @property
    def kept(self) -> int:
        return len(self.kept_positions)


@dataclass(frozen=True)
class PreprocessResult:
    files: tuple[TreebankFile, ...] | None
    gold: TreebankFile | None
    log: FilterLog

    @property
    def rejected(self) -> bool:
        return self.log.rejected is not None


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
            total, 0, 0, (), len(files),
            f"{len(files)} parsers, need at least {min_parsers}",
        )
        return PreprocessResult(None, None, log)
    seg_ok = np.flatnonzero(check_segmentation([*files, gold]))
    seg_dropped = total - len(seg_ok)
    # the same segmentation, so the same token positions in every file
    tokens = aligned_tokens(files, seg_ok)
    ref = files[0].heads[tokens[0]]
    differ = np.zeros(len(ref), dtype=bool)
    for f, t in zip(files[1:], tokens[1:]):
        differ |= f.heads[t] != ref
    sent = np.repeat(np.arange(len(seg_ok)), files[0].lengths[seg_ok])
    disputed = np.bincount(sent[differ], minlength=len(seg_ok)) > 0
    agree_dropped = len(seg_ok) - int(disputed.sum())
    kept = seg_ok[disputed].tolist()
    if len(kept) < min_sentences:
        log = FilterLog(
            total, seg_dropped, agree_dropped, tuple(kept), len(files),
            f"{len(kept)} surviving sentences, need at least {min_sentences}",
        )
        return PreprocessResult(None, None, log)
    log = FilterLog(total, seg_dropped, agree_dropped, tuple(kept), len(files))
    return PreprocessResult(
        tuple(f.subset(kept) for f in files), gold.subset(kept), log
    )


def _flat(trees: Sequence[DepTree] | TreebankFile) -> tuple[np.ndarray, np.ndarray]:
    """Flat heads and per-sentence token counts."""
    if isinstance(trees, TreebankFile):
        return trees.heads, trees.lengths
    q = np.array([len(t) for t in trees], dtype=np.int64)
    heads = itertools.chain.from_iterable(t.heads for t in trees)
    return np.fromiter(heads, dtype=np.int64, count=int(q.sum())), q


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
        if len(skip) != counted:
            raise ValueError(f"{len(skip)} exclusion flags for {counted} tokens")
        hit &= ~skip
        counted -= int(np.count_nonzero(skip))
    if counted == 0:
        raise ValueError("every token excluded")
    return 100.0 * int(np.count_nonzero(hit)) / counted


def uas(
    pred: Sequence[DepTree] | TreebankFile,
    gold: Sequence[DepTree] | TreebankFile,
    exclude: Sequence[Sequence[bool]] | None = None,
) -> float:
    """Micro-averaged unlabeled attachment score, as a percentage.

    ``pred`` and ``gold`` are sequences of trees or treebank files.
    ``exclude`` optionally masks tokens (True = skip), e.g. punctuation.
    Token counts must agree sentence by sentence.
    """
    skip = None
    if exclude is not None:
        skip = np.fromiter(itertools.chain.from_iterable(exclude), dtype=bool)
    return _uas(*_flat(pred), *_flat(gold), skip)


@dataclass(frozen=True)
class RankResult:
    selected: tuple[str, ...]
    table: tuple[tuple[str, float], ...]
    sample_positions: tuple[int, ...]
    warning: str | None = None


def rank_and_select(
    ensemble: ParseEnsemble,
    gold_trees: Sequence[DepTree] | TreebankFile,
    sample_size: int = 10,
    top_k: int = 9,
    seed: int = 0,
) -> RankResult:
    """Rank parsers by UAS on a seeded sentence sample; keep the top k.

    Sampling is uniform without replacement over the (already filtered)
    sentences; ranking ties keep ensemble order (stable sort).
    """
    if top_k < 1:
        raise ValueError(f"top_k must be at least 1, got {top_k}")
    gold, gold_q = _flat(gold_trees)
    n = len(ensemble.sentence_ids)
    if len(gold_q) != n:
        raise ValueError("gold trees do not align with the ensemble")
    take = min(sample_size, n)
    positions = sorted(random.Random(seed).sample(range(n), take))
    pos = np.array(positions, dtype=np.int64)
    q = np.diff(ensemble.offsets)[pos]
    sample = ensemble.heads[:, concat_ranges(ensemble.offsets[pos], q)]
    gold_offsets = np.concatenate(([0], np.cumsum(gold_q)))
    sample_gold = gold[concat_ranges(gold_offsets[pos], gold_q[pos])]
    table = [
        (pid, _uas(row, q, sample_gold, gold_q[pos]))
        for pid, row in zip(ensemble.parser_ids, sample)
    ]
    warning = None
    if top_k > ensemble.m:
        warning = f"asked for top {top_k} of {ensemble.m} parsers; keeping all"
    order = sorted(range(ensemble.m), key=lambda k: -table[k][1])
    selected = tuple(ensemble.parser_ids[k] for k in order[:top_k])
    return RankResult(selected, tuple(table), tuple(positions), warning)


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
    votes = (matrix.labels == 1).sum(axis=1).astype(np.float64)
    return trees_from_scores(matrix, votes, ensemble, enforce_single_root)


@dataclass(frozen=True)
class SummaryReport:
    """Distribution summary of one method's per-treebank UAS values."""

    group: str
    n: int
    mean: float
    median: float
    std: float

    def rounded(self) -> dict:
        return {
            "group": self.group,
            "n": self.n,
            "mean": round(self.mean, 2),
            "median": round(self.median, 2),
            "std": round(self.std, 2),
        }


def summarize(values: Sequence[float], group: str = "all") -> SummaryReport:
    """Mean, median, and population standard deviation of UAS values.

    Nothing is rounded here; rounding happens only at display time.
    """
    if not values:
        raise ValueError("no values to summarize")
    vals = [float(v) for v in values]
    return SummaryReport(
        group,
        len(vals),
        statistics.fmean(vals),
        float(statistics.median(vals)),
        statistics.pstdev(vals),
    )


@dataclass(frozen=True)
class TreebankReport:
    """Evaluation record for one treebank, JSON-shaped via ``to_json``."""

    treebank: str
    n_sentences: int
    methods: Mapping[str, float]
    selected_parsers: tuple[str, ...] = ()
    filters: Mapping[str, int] = field(default_factory=dict)

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: Mapping) -> "TreebankReport":
        """Read back ``to_json``'s dict; a value that does not convert
        raises ``ValueError`` or ``TypeError``."""
        treebank, methods, filters = data["treebank"], data["methods"], data.get("filters", {})
        if not isinstance(treebank, str):
            raise TypeError(f"'treebank' must be a string, got {treebank!r}")
        if not (isinstance(methods, Mapping) and isinstance(filters, Mapping)):
            raise TypeError("'methods' and 'filters' must be objects")
        return cls(
            treebank=treebank,
            n_sentences=int(data["n_sentences"]),
            methods={k: float(v) for k, v in methods.items()},
            selected_parsers=string_list(data.get("selected_parsers", []), "'selected_parsers'"),
            filters={k: int(v) for k, v in filters.items()},
        )


def string_list(value: object, name: str) -> tuple[str, ...]:
    """``value``, a JSON list of strings, as a tuple; else a ``TypeError``."""
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise TypeError(f"{name} must be a list of strings, got {value!r}")
    return tuple(value)


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

    Every report must score the primary method, and each baseline must be
    scored on exactly the treebanks the primary is.
    """
    if not reports:
        raise ValueError("no reports")
    for r in reports:
        if primary not in r.methods:
            raise ValueError(f"treebank {r.treebank!r} lacks method {primary!r}")
    baselines = sorted(
        {m for r in reports for m in r.methods} - {primary}
    )
    out: dict[str, MethodDiff] = {}
    for b in baselines:
        missing = [r.treebank for r in reports if b not in r.methods]
        if missing:
            raise ValueError(f"method {b!r} missing on treebanks {missing}")
        diffs = {r.treebank: r.methods[primary] - r.methods[b] for r in reports}
        vals = list(diffs.values())
        out[b] = MethodDiff(
            diffs,
            sum(v > 0 for v in vals),
            sum(v < 0 for v in vals),
            sum(v == 0 for v in vals),
        )
    return out
