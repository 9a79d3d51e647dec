"""Shared test utilities: random graphs, synthetic vote matrices, rank stats,
and the exhaustive reference implementations the package is checked against."""

from __future__ import annotations

import itertools
import math
from dataclasses import replace
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np
from hypothesis import strategies as st

from treeagg.arborescence import (
    NoArborescenceError,
    WeightedTokenGraph,
    _solve,
    max_arborescence,
)
from treeagg.cim import _L1_MAX_ITERATIONS, _sigmoid
from treeagg.conllu import (
    _EMPTY_ID,
    _RANGE_ID,
    _SENT_ID,
    _WORD_ID,
    HEAD_COLUMN,
    N_COLUMNS,
    ConlluError,
    TreebankFile,
    parse_conllu,
)
from treeagg.edges import EdgeLabelMatrix, majority_vote
from treeagg.trees import DepTree, ParseEnsemble, find_cycles


def ensemble_of(
    parser_ids: Sequence[str], trees: Mapping[str, Sequence[DepTree]]
) -> ParseEnsemble:
    """An ensemble from one tree per parser for each sentence id, in the
    mapping's order; every sentence needs one tree per parser, all over
    the same number of tokens."""
    m = len(parser_ids)
    for sid, ts in trees.items():
        if len(ts) != m:
            raise ValueError(f"sentence {sid!r}: {len(ts)} trees for {m} parsers")
        if len({len(t) for t in ts}) != 1:
            raise ValueError(f"sentence {sid!r}: parsers disagree on token count")
    q = [len(ts[0]) for ts in trees.values()]
    heads = np.array(
        [[h for ts in trees.values() for h in ts[k].heads] for k in range(m)],
        dtype=np.int64,
    ).reshape(m, sum(q))
    return ParseEnsemble(tuple(parser_ids), tuple(trees), np.cumsum([0, *q]), heads)


def per_sentence(values: np.ndarray, offsets: np.ndarray) -> list[list]:
    """A flat per-token array cut into one list per sentence."""
    flat = values.tolist()
    bounds = offsets.tolist()
    return [flat[a:b] for a, b in zip(bounds, bounds[1:])]


def lines_of(tb: TreebankFile) -> tuple[str, ...]:
    """The file's lines, without line endings: ``raw`` without its added
    first and last newline, decoded and split at each newline."""
    return tuple(tb.raw[1:-1].tobytes().decode("utf-8", "surrogatepass").split("\n"))


def _newlines(tb: TreebankFile) -> np.ndarray:
    """Where ``raw`` has a newline: line i runs from newline i to i + 1."""
    return np.flatnonzero(tb.raw == ord("\n"))


def blocks_of(tb: TreebankFile) -> np.ndarray:
    """Each sentence's lines ``blocks[i, 0]:blocks[i, 1]``, as indices
    into ``lines_of(tb)``."""
    return np.searchsorted(_newlines(tb), tb.spans - 1)


def words_of(tb: TreebankFile) -> np.ndarray:
    """The line of each word, as an index into ``lines_of(tb)``."""
    return np.searchsorted(_newlines(tb), tb.fields[0] - 1) - 1


def file_contents(tb: TreebankFile) -> tuple:
    """What two parsed files must share to be the same file: parser id,
    sentence ids, block bounds, lines and heads, as comparable values."""
    return tb.parser_id, tb.sentence_ids, blocks_of(tb).tolist(), lines_of(tb), tb.heads.tolist()


def trees_by_id(heads: np.ndarray, ensemble: ParseEnsemble) -> dict[str, DepTree]:
    """Flat heads over the ensemble's offsets, such as a decode's output
    or one parser's row, cut into one tree per sentence id."""
    return dict(zip(ensemble.sentence_ids, map(DepTree, per_sentence(heads, ensemble.offsets))))


def arcs_of(graph: WeightedTokenGraph) -> list[tuple[int, int, float]]:
    """The graph's arcs as (head, dependent, weight) in (head, dependent)
    order, a repeated pair once with its larger weight."""
    best: dict[tuple[int, int], float] = {}
    for h, d, w in graph.arcs.tolist():
        key = (int(h), int(d))
        best[key] = max(w, best.get(key, -math.inf))
    return [(h, d, w) for (h, d), w in sorted(best.items())]


def tree_weight(graph: WeightedTokenGraph, heads: Sequence[int]) -> float:
    """Total weight of a tree's arcs under the graph, summed in dependent order."""
    lookup = {(h, d): w for h, d, w in arcs_of(graph)}
    total = 0.0
    for d, h in enumerate(heads, start=1):
        if (h, d) not in lookup:
            raise ValueError(f"tree uses arc ({h}, {d}) absent from the graph")
        total += lookup[(h, d)]
    return total


def random_complete_digraph(q: int, rng: np.random.Generator) -> WeightedTokenGraph:
    """Complete directed graph over {0..q} with uniform random weights."""
    arcs = tuple(
        (h, d, float(rng.random()))
        for d in range(1, q + 1)
        for h in range(0, q + 1)
        if h != d
    )
    return WeightedTokenGraph(q, arcs)


def ci_label_matrix(
    accuracies: list[float] | tuple[float, ...] | np.ndarray,
    n: int,
    rng: np.random.Generator,
    balanced: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Conditionally independent voters with known per-voter accuracies.

    Returns (labels, truth) with entries in {-1, +1}. Voter j agrees with
    the truth on each row independently with probability accuracies[j].
    ``balanced`` makes the truth exactly half +1 (shuffled).
    """
    m = len(accuracies)
    if balanced:
        truth = np.ones(n, dtype=np.int8)
        truth[n // 2 :] = -1
        truth = truth[rng.permutation(n)]
    else:
        truth = np.where(rng.random(n) < 0.5, 1, -1).astype(np.int8)
    labels = np.empty((n, m), dtype=np.int8)
    for j, a in enumerate(accuracies):
        agree = rng.random(n) < a
        labels[:, j] = np.where(agree, truth, -truth)
    return labels, truth


def placeholder_matrix(
    labels: np.ndarray, parser_ids: Sequence[str] | None = None
) -> EdgeLabelMatrix:
    """Wrap a bare label array for estimation work; row i is the edge
    0 -> 1 of a placeholder sentence ``r{i}``, so no trees come of it."""
    labels = np.asarray(labels, dtype=np.int8)
    n, m = labels.shape
    ids = tuple(parser_ids) if parser_ids is not None else tuple(f"p{k + 1}" for k in range(m))
    return EdgeLabelMatrix(
        tuple(f"r{i}" for i in range(n)), np.arange(n + 1),
        np.zeros(n, np.int64), np.ones(n, np.int64), labels, ids,
    )


def random_vote_matrix(
    n: int, m: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform random {-1,+1} votes with every row given at least one +1."""
    labels = np.where(rng.random((n, m)) < 0.5, 1, -1).astype(np.int8)
    all_minus = labels.sum(axis=1) == -m
    if all_minus.any():
        cols = rng.integers(0, m, size=int(all_minus.sum()))
        labels[np.flatnonzero(all_minus), cols] = 1
    return labels


def average_ranks(values: list[float]) -> list[float]:
    """1-based ranks; ties share the mean of the ranks they occupy."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        shared = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = shared
        i = j + 1
    return ranks


def spearman(x, y) -> float:
    """Spearman rank correlation with average ranks for ties."""
    rx = np.asarray(average_ranks([float(v) for v in x]))
    ry = np.asarray(average_ranks([float(v) for v in y]))
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    return float(rx @ ry / np.sqrt((rx @ rx) * (ry @ ry)))


@st.composite
def head_sequences(draw, q):
    """A valid tree over tokens 1..q: attach tokens in a random order, each
    to the root or to a token attached before it."""
    order = draw(st.permutations(range(1, q + 1)))
    heads = [0] * q
    for i, d in enumerate(order):
        heads[d - 1] = draw(st.sampled_from((0,) + tuple(order[:i])))
    return DepTree(tuple(heads))


def conllu_text(sentences: list[tuple[str, list[str], list[int]]]) -> str:
    """Minimal CoNLL-U text from (sent_id, forms, heads) triples."""
    blocks = []
    for sid, forms, heads in sentences:
        lines = [f"# sent_id = {sid}"]
        for i, (form, head) in enumerate(zip(forms, heads), start=1):
            lines.append(
                "\t".join(
                    (str(i), form, "_", "_", "_", "_", str(head), "_", "_", "_")
                )
            )
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def build_file(heads_per_sentence, parser_id):
    """A parsed file of sentences s1, s2, ... with these heads."""
    sentences = []
    for i, heads in enumerate(heads_per_sentence):
        forms = [f"w{j + 1}" for j in range(len(heads))]
        sentences.append((f"s{i + 1}", forms, heads))
    return parse_conllu(conllu_text(sentences), parser_id)


def sixty_sentence_fixture():
    """60 sentences: 5 segmentation mismatches, 10 full agreements."""
    a, b, g = [], [], []
    for i in range(60):
        if i < 5:  # parser B tokenizes an extra word
            a.append([0, 1, 2])
            b.append([0, 1, 2, 3])
            g.append([0, 1, 2])
        elif i < 15:  # parsers agree exactly
            a.append([0, 1, 1])
            b.append([0, 1, 1])
            g.append([0, 1, 2])
        else:
            a.append([0, 1, 2])
            b.append([0, 1, 1])
            g.append([0, 1, 2])
    return (
        build_file(a, "pa"),
        build_file(b, "pb"),
        build_file(g, "gold"),
    )


def reference_parse_conllu(text: str) -> list[tuple]:
    """The line-by-line CoNLL-U reader the array scan replaced.

    Returns one (sentence id, block lines, word indices in the block,
    forms, heads) tuple per sentence, or raises the ``ConlluError`` the
    first malformed line earns, with its line number.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if text.endswith("\r"):
            text = text[:-1]
    lines = text.split("\n")

    sentences: list[tuple] = []
    seen_ids: set[str] = set()
    block: list[str] = []
    words: list[int] = []
    forms: list[str] = []
    heads: list[int] = []
    first_word_line = 0

    def flush(line_no: int) -> None:
        if not block:
            return
        if not words:
            raise ConlluError(line_no, "sentence block without word lines")
        sid = ""
        for line in block:
            if not line.startswith("#"):
                break
            m = _SENT_ID.match(line)
            if m:
                sid = m.group(1).strip()
                break
        if not sid:
            sid = f"s{len(sentences) + 1}"
        if sid in seen_ids:
            raise ConlluError(line_no, f"duplicate sentence id {sid!r}")
        seen_ids.add(sid)
        try:
            DepTree(heads)
        except ValueError as e:
            raise ConlluError(first_word_line, str(e)) from None
        sentences.append((sid, tuple(block), tuple(words), tuple(forms), tuple(heads)))

    for line_no, line in enumerate(lines, start=1):
        if not line or line.isspace():
            flush(line_no)
            block, words, forms, heads = [], [], [], []
            continue
        if line.startswith("#"):
            if block and not block[-1].startswith("#"):
                raise ConlluError(line_no, "comment after word lines in the same block")
            block.append(line)
            continue
        cols = line.split("\t")
        if len(cols) != N_COLUMNS:
            raise ConlluError(line_no, f"expected {N_COLUMNS} columns, found {len(cols)}")
        ident = cols[0]
        if ident == str(len(words) + 1):
            head = cols[HEAD_COLUMN]
            if not (head.isascii() and head.isdigit()):
                raise ConlluError(line_no, f"non-integer HEAD {head!r}")
            if not words:
                first_word_line = line_no
            words.append(len(block))
            forms.append(cols[1])
            heads.append(int(head))
        elif _RANGE_ID.fullmatch(ident) or _EMPTY_ID.fullmatch(ident):
            pass
        elif _WORD_ID.fullmatch(ident):
            raise ConlluError(line_no, f"token id {ident} out of sequence")
        else:
            raise ConlluError(line_no, f"unrecognized token id {ident!r}")
        block.append(line)
    flush(len(lines))
    return sentences


def reference_check_segmentation(files: Sequence[TreebankFile]) -> list[bool]:
    """Per sentence, whether every file has its token count and FORMs,
    the FORMs split out of each word line and compared as strings."""

    def forms(f: TreebankFile, i: int) -> list[str]:
        words = words_of(f)[f.offsets[i] : f.offsets[i + 1]].tolist()
        lines = lines_of(f)
        return [lines[w].split("\t")[1] for w in words]

    return [
        all(forms(f, i) == forms(files[0], i) for f in files[1:])
        for i in range(len(files[0]))
    ]


_CHUNK = 1 << 18


def brute_force_arborescence(
    graph: WeightedTokenGraph, enforce_single_root: bool = True
) -> tuple[int, ...]:
    """The heads of an exhaustive maximum arborescence, for q <= 8.

    Enumerates all head assignments drawn from each token's incoming arcs,
    in lexicographic order of the head sequence, keeping the first
    assignment that attains the maximum weight. Independent of the
    Chu-Liu/Edmonds path by design.
    """
    q = graph.q
    if q > 8:
        raise ValueError(f"exhaustive search capped at 8 tokens, got {q}")
    cand: list[list[int]] = [[] for _ in range(q)]
    weight = np.full((q + 1, q + 1), -np.inf)
    for h, d, w in arcs_of(graph):
        cand[d - 1].append(h)
        weight[h, d] = w
    for d, heads in enumerate(cand, start=1):
        if not heads:
            raise NoArborescenceError(f"node {d} has no incoming arc")
        heads.sort()
    cand_arrays = [np.array(c, dtype=np.int16) for c in cand]
    sizes = np.array([len(c) for c in cand], dtype=np.int64)
    total = int(np.prod(sizes))
    cols = np.arange(1, q + 1)

    best_total: float | None = None
    best_heads: tuple[int, ...] | None = None
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(total, start + _CHUNK), dtype=np.int64)
        assign = np.empty((len(idx), q), dtype=np.int16)
        t = idx
        for d in range(q - 1, -1, -1):
            assign[:, d] = cand_arrays[d][t % sizes[d]]
            t = t // sizes[d]
        # Parent-pointer chase: after q hops every token of a valid tree
        # has reached the root.
        ptr = assign.copy()
        for _ in range(q):
            hop = np.take_along_axis(
                assign, np.maximum(ptr - 1, 0).astype(np.intp), axis=1
            )
            ptr = np.where(ptr == 0, 0, hop).astype(np.int16)
        valid = (ptr == 0).all(axis=1)
        if enforce_single_root:
            valid &= (assign == 0).sum(axis=1) == 1
        if not valid.any():
            continue
        totals = weight[assign, cols].sum(axis=1)
        totals[~valid] = -np.inf
        j = int(np.argmax(totals))
        if best_total is None or totals[j] > best_total:
            best_total = float(totals[j])
            best_heads = tuple(int(x) for x in assign[j])
    if best_heads is None:
        raise NoArborescenceError("no spanning arborescence")
    return best_heads


def reference_best_arcs(
    heads: Sequence[int], deps: Sequence[int], weights: Sequence[float], n: int
) -> list[int]:
    """``best_arcs`` as one scan over the arcs: a node keeps the first arc
    into it of highest weight, then smallest head."""
    best = [-1] * n
    for i, (h, d, w) in enumerate(zip(heads, deps, weights)):
        j = best[d]
        if j < 0 or (w, -h) > (weights[j], -heads[j]):
            best[d] = i
    return best


class _Arc(NamedTuple):
    head: int
    dep: int
    weight: float
    parent: "_Arc | None"


def _recursive_solve(nodes: list[int], arcs: list[_Arc]) -> list[_Arc]:
    """One Chu-Liu/Edmonds pass from root 0; returns chosen arcs at this level."""
    best: dict[int, _Arc] = {}
    for arc in sorted(arcs, key=lambda a: (a.head, a.dep, -a.weight)):
        cur = best.get(arc.dep)
        if cur is None or arc.weight > cur.weight:
            best[arc.dep] = arc
    for v in nodes:
        if v != 0 and v not in best:
            raise NoArborescenceError(f"node {v} has no incoming arc")
    # nodes contracted away by the caller point at the root; no arc enters them
    heads = [best[v].head if v in best else 0 for v in range(1, max(nodes) + 1)]
    cycle = next(find_cycles(heads), None)
    if cycle is None:
        return list(best.values())

    in_cycle = set(cycle)
    c = max(nodes) + 1
    contracted: list[_Arc] = []
    for arc in arcs:
        h_in, d_in = arc.head in in_cycle, arc.dep in in_cycle
        if h_in and d_in:
            continue
        if d_in:
            contracted.append(
                _Arc(arc.head, c, arc.weight - best[arc.dep].weight, arc)
            )
        elif h_in:
            contracted.append(_Arc(c, arc.dep, arc.weight, arc))
        else:
            contracted.append(_Arc(arc.head, arc.dep, arc.weight, arc))
    sub_nodes = [v for v in nodes if v not in in_cycle] + [c]
    chosen: list[_Arc] = []
    entering: _Arc | None = None
    for arc in _recursive_solve(sub_nodes, contracted):
        lifted = arc.parent
        assert lifted is not None
        chosen.append(lifted)
        if arc.dep == c:
            entering = lifted
    assert entering is not None
    for v in cycle:
        if v != entering.dep:
            chosen.append(best[v])
    return chosen


def _heads_from(chosen: Iterable[_Arc], q: int) -> tuple[int, ...]:
    heads = [-1] * q
    for arc in chosen:
        heads[arc.dep - 1] = arc.head
    return tuple(heads)


def reference_max_arborescence(
    graph: WeightedTokenGraph, enforce_single_root: bool = True
) -> tuple[int, ...]:
    """``max_arborescence`` with the recursive Chu-Liu/Edmonds pass the
    contraction loop replaced: one call per contracted cycle, each chosen
    arc lifted through a chain of parent arcs. It recurses as deep as the
    cycles nest, so it is for small graphs only."""
    arcs = [_Arc(h, d, w, None) for h, d, w in arcs_of(graph)]
    nodes = list(range(graph.q + 1))
    if not enforce_single_root:
        return _heads_from(_recursive_solve(nodes, arcs), graph.q)

    root_children = sorted({a.dep for a in arcs if a.head == 0})
    if not root_children:
        raise NoArborescenceError("no arc out of the root")
    entered = {a.dep for a in arcs}
    for d in range(1, graph.q + 1):
        if d not in entered:
            raise NoArborescenceError(f"node {d} has no incoming arc")
    best: tuple[float, tuple[int, ...]] | None = None
    for r in root_children:
        restricted = [a for a in arcs if a.head != 0 or a.dep == r]
        try:
            tree = _heads_from(_recursive_solve(nodes, restricted), graph.q)
        except NoArborescenceError:
            continue
        total = tree_weight(graph, tree)
        key = (total, tuple(-h for h in tree))
        if best is None or key > best:
            best, best_tree = key, tree
    if best is None:
        raise NoArborescenceError("no single-rooted spanning arborescence")
    return best_tree


def reference_repair(prefs: Sequence[int]) -> tuple[int, ...]:
    """The former synth repair: the single-rooted maximum arborescence of
    the complete graph, weighing each token's preferred head 1 and every
    other head 1e-6, so it keeps as many preferred heads as any tree can."""
    q = len(prefs)
    arcs = tuple(
        (h, d, 1.0 if h == prefs[d - 1] else 1e-6)
        for d in range(1, q + 1)
        for h in range(q + 1)
        if h != d
    )
    return max_arborescence(WeightedTokenGraph(q, arcs), enforce_single_root=True)


def joint_prob_oracle(
    theta00: float,
    theta0_plus: Sequence[float],
    theta_plus: Sequence[float],
    theta_plus_plus: Mapping[tuple[int, int], float],
    y: int,
    labels: Sequence[int],
) -> float:
    """Exact joint probability P(Y = y, L = labels) by full enumeration.

    Capped at 12 parsers (2^13 states). Used to verify the closed-form
    posterior; not part of the aggregation path.
    """
    m = len(theta0_plus)
    if m > 12:
        raise ValueError("oracle capped at 12 parsers")
    if len(theta_plus) != m or len(labels) != m:
        raise ValueError("parameter lengths disagree")
    if y not in (-1, 1) or any(v not in (-1, 1) for v in labels):
        raise ValueError("states must be -1 or +1")

    t0 = np.asarray(theta0_plus, dtype=np.float64)
    tp = np.asarray(theta_plus, dtype=np.float64)

    def energy(yv: float, lv: np.ndarray) -> float:
        e = theta00 * yv + float(tp @ lv) + float(t0 @ lv) * yv
        for (j, k), w in theta_plus_plus.items():
            e += w * lv[j] * lv[k]
        return e

    states = np.array(list(itertools.product((-1.0, 1.0), repeat=m + 1)))
    log_z = float(
        np.logaddexp.reduce([energy(s[0], s[1:]) for s in states])
    )
    return math.exp(energy(float(y), np.asarray(labels, dtype=np.float64)) - log_z)


def reference_tree_check(heads: Sequence[int], q: int) -> str | None:
    """``validate_tree``'s reason by another route, ``None`` for a tree.

    Range, then self-loop, for each token in order; then a token whose
    heads do not reach the root within q steps lies on or below a cycle.
    """
    if len(heads) != q:
        return "out-of-range"
    for d, h in enumerate(heads, start=1):
        if not 0 <= h <= q:
            return "out-of-range"
        if h == d:
            return "self-loop"
    for d in range(1, q + 1):
        node = d
        for _ in range(q):
            if node == 0:
                break
            node = heads[node - 1]
        if node != 0:
            return "cycle"
    return None


def reference_uas_costs(
    ensemble: ParseEnsemble, aggregated: Mapping[str, DepTree]
) -> np.ndarray:
    """crh's uas-distance costs recounted from the trees: each parser's
    sum over sentences of 1 - UAS against ``aggregated``."""
    costs = np.zeros(ensemble.m)
    for k, row in enumerate(ensemble.heads):
        for sid, tree in trees_by_id(row, ensemble).items():
            match = (np.asarray(tree.heads) == np.asarray(aggregated[sid].heads)).mean()
            costs[k] += 1.0 - match
    return costs


def weight_update(
    truths: np.ndarray, matrix: EdgeLabelMatrix, eps: float = 1e-8
) -> np.ndarray:
    """crh's closed-form weights from per-parser 0/1 edge costs against
    ``truths``, smoothed by ``eps``: ``w_k = -log(cost_k / sum costs)``."""
    costs = (matrix.labels != truths[:, None]).sum(axis=0) + eps
    return -np.log(costs / costs.sum())


def edges_of(tree: DepTree) -> list[tuple[int, int]]:
    """Directed edges (head, dependent) of a tree, ordered by dependent."""
    return [(h, d) for d, h in enumerate(tree.heads, start=1)]


def reference_label_matrix(ensemble: ParseEnsemble):
    """Set-based construction of the vote matrix, one edge at a time.

    Returns (rows, spans, labels): rows are (sentence id, head, dependent)
    in matrix order, spans are (sentence id, start, stop) for every sentence
    with at least one row, labels the +-1 votes.
    """
    rows: list[tuple[str, int, int]] = []
    votes: list[list[int]] = []
    spans: list[tuple[str, int, int]] = []
    per_parser = [trees_by_id(row, ensemble) for row in ensemble.heads]
    for sid in ensemble.sentence_ids:
        edge_sets = [set(edges_of(p[sid])) for p in per_parser]
        union = sorted(set().union(*edge_sets))
        if union:
            spans.append((sid, len(rows), len(rows) + len(union)))
        for h, d in union:
            rows.append((sid, h, d))
            votes.append([1 if (h, d) in es else -1 for es in edge_sets])
    labels = np.array(votes, dtype=np.int8).reshape(len(rows), ensemble.m)
    return rows, spans, labels


def reference_dump_lines(ensemble: ParseEnsemble) -> list[str]:
    """The ``--dump-matrix`` lines of the reference construction."""
    rows, _, labels = reference_label_matrix(ensemble)
    return [
        f"{sid}\t{h}\t{d}\t" + "\t".join(f"{int(v):+d}" for v in row)
        for (sid, h, d), row in zip(rows, labels)
    ]


def reference_l1_logistic(
    features: np.ndarray,
    target: np.ndarray,
    penalty: float,
    tol: float = 1e-6,
    counts: np.ndarray | None = None,
    max_iterations: int = _L1_MAX_ITERATIONS,
) -> tuple[float, np.ndarray, int, bool]:
    """One L1-penalized logistic regression by FISTA, one column at a time.

    The per-column loop the batched ``fit_l1_logistic`` replaced: the same
    objective, steps, momentum and KKT stopping rule on an (n, p) design
    and an (n,) target in {-1, +1}, with the masked two-branch sigmoid,
    checked after every iteration up to ``max_iterations``.
    """
    n, p = features.shape
    c = np.ones(n) if counts is None else np.asarray(counts, dtype=np.float64)
    total = c.sum()
    X = np.column_stack([np.ones(n), features.astype(np.float64)])
    t = (np.asarray(target, dtype=np.float64) + 1.0) / 2.0
    step = 4.0 * total / np.linalg.norm(np.sqrt(c)[:, None] * X, 2) ** 2

    def grad(w: np.ndarray) -> np.ndarray:
        return X.T @ (c * (_sigmoid(X @ w) - t)) / total

    def kkt(w: np.ndarray, g: np.ndarray) -> float:
        r = abs(g[0])
        gv, wv = g[1:], w[1:]
        on = wv != 0
        r = max(r, float(np.max(np.abs(gv[on] + penalty * np.sign(wv[on])), initial=0)))
        r = max(r, float(np.max(np.abs(gv[~on]) - penalty, initial=0)))
        return r

    w = np.zeros(p + 1)
    z = w.copy()
    momentum = 1.0
    for it in range(1, max_iterations + 1):
        w_next = z - step * grad(z)
        w_next[1:] = np.sign(w_next[1:]) * np.maximum(np.abs(w_next[1:]) - step * penalty, 0.0)
        if (z - w_next) @ (w_next - w) > 0:
            momentum = 1.0  # gradient restart
        m_next = (1.0 + math.sqrt(1.0 + 4.0 * momentum**2)) / 2.0
        z = w_next + ((momentum - 1.0) / m_next) * (w_next - w)
        w, momentum = w_next, m_next
        g = grad(w)
        if kkt(w, g) <= tol:
            return float(w[0]), w[1:], it, True
    return float(w[0]), w[1:], max_iterations, False


def reference_correlation_graph(
    matrix: EdgeLabelMatrix, l1_penalty: float, coef_threshold: float = 1.0
) -> tuple[frozenset, dict, tuple[int, ...]]:
    """(edges, strengths, excluded) of neighborhood selection with one
    ``reference_l1_logistic`` fit per active column."""
    m = matrix.m
    patterns, first, counts = np.unique(
        matrix.labels, axis=0, return_index=True, return_counts=True
    )
    labels = patterns.astype(np.float64)
    mv = majority_vote(matrix.labels)[first].astype(np.float64)
    excluded = tuple(j for j in range(m) if np.all(labels[:, j] == labels[0, j]))
    active = [j for j in range(m) if j not in excluded]
    coef: dict[tuple[int, int], float] = {}
    for j in active:
        feats = [k for k in active if k != j]
        X = np.column_stack([labels[:, feats], mv])
        _, w, _, _ = reference_l1_logistic(X, labels[:, j], l1_penalty, counts=counts)
        for pos, k in enumerate(feats):
            coef[(j, k)] = abs(float(w[pos]))
    strengths = {
        (j, k): min(coef[(j, k)], coef[(k, j)])
        for j, k in itertools.combinations(active, 2)
        if coef[(j, k)] > coef_threshold and coef[(k, j)] > coef_threshold
    }
    return frozenset(strengths), strengths, excluded


def reference_collapse(
    matrix: EdgeLabelMatrix, graph
) -> tuple[EdgeLabelMatrix, tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """``collapse_correlated`` by union-find and one pseudo-column per
    component: (reduced matrix, components, representatives)."""
    m = matrix.m
    parent = list(range(m))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for j, k in graph.edges:
        parent[find(j)] = find(k)
    groups: dict[int, list[int]] = {}
    for j in range(m):
        groups.setdefault(find(j), []).append(j)
    components = tuple(tuple(sorted(g)) for g in sorted(groups.values(), key=min))

    mv = majority_vote(matrix.labels)
    agreement = (matrix.labels == mv[:, None]).mean(axis=0)
    representatives = tuple(max(comp, key=lambda j: (agreement[j], -j)) for comp in components)
    if all(len(c) == 1 for c in components):
        return matrix, components, representatives
    cols = []
    for comp, rep in zip(components, representatives):
        s = matrix.labels[:, comp].astype(np.int64).sum(axis=1)
        cols.append(np.where(s > 0, 1, np.where(s < 0, -1, matrix.labels[:, rep])))
    ids = tuple("+".join(matrix.parser_ids[j] for j in comp) for comp in components)
    reduced = replace(matrix, labels=np.column_stack(cols).astype(np.int8), parser_ids=ids)
    return reduced, components, representatives


def accuracy_moment_from_pair_means(
    j: int,
    pair_means: np.ndarray,
    triplet_min: float = 0.01,
) -> list[float]:
    """All triplet estimates for column j from pairwise second moments.

    Under conditional independence given the truth, the off-diagonal
    moments factor rank-one, so for any pair (k, l) not involving j:
    sqrt(|m_jk * m_jl / m_kl|) recovers column j's factor. Pairs whose
    denominator is zero, or smaller than ``triplet_min``, are skipped.
    """
    m = pair_means.shape[0]
    vals = []
    for k, l in itertools.combinations((i for i in range(m) if i != j), 2):
        denom = pair_means[k, l]
        if denom == 0 or abs(denom) < triplet_min:
            continue
        vals.append(math.sqrt(abs(pair_means[j, k] * pair_means[j, l] / denom)))
    return vals


def reference_mean_params(
    matrix: EdgeLabelMatrix, triplet_min: float = 0.01
) -> tuple[float, tuple[float, ...], tuple[float, ...], bool]:
    """``estimate_mean_params`` one column at a time, each column's triplet
    estimates from ``accuracy_moment_from_pair_means``: (mu00, mu_plus,
    mu0_plus, triplet_fallback)."""
    labels = matrix.labels.astype(np.float64)
    n, m = labels.shape
    mv_f = majority_vote(matrix.labels).astype(np.float64)
    mu_plus = labels.mean(axis=0)
    mu00 = float(mv_f.mean())
    covariances = labels.T @ labels / n - np.outer(mu_plus, mu_plus)
    var_y = 1.0 - mu00**2
    mu0 = np.empty(m)
    fallback = False
    for j in range(m):
        triplets = m >= 3 and var_y > 0.0
        vals = accuracy_moment_from_pair_means(j, covariances, triplet_min) if triplets else []
        if vals:
            mu0[j] = mu_plus[j] * mu00 + float(np.median(vals)) * math.sqrt(var_y)
        else:
            fallback = True
            mu0[j] = float((labels[:, j] * mv_f).mean())
    mu0 = np.where(mu0 < 0, -1.0, 1.0) * np.clip(np.abs(mu0), 0.001, 0.999)
    return mu00, tuple(mu_plus.tolist()), tuple(mu0.tolist()), fallback


def reference_corrupt_preferences(
    gold: tuple[int, ...], rate: float, rng: np.random.Generator
) -> list[int]:
    """synth's corruption draws with the list of allowed heads built per
    corrupted token: each token, with probability ``rate``, takes a head
    drawn uniformly from every node but itself and its gold head. Returns
    the preferred heads, before repair."""
    q = len(gold)
    prefs = list(gold)
    for d in range(1, q + 1):
        if rng.random() >= rate:
            continue
        options = [h for h in range(q + 1) if h != d and h != gold[d - 1]]
        if options:
            prefs[d - 1] = options[int(rng.integers(len(options)))]
    return prefs


def reference_random_single_root_tree(q: int, rng: np.random.Generator) -> tuple[int, ...]:
    """synth's gold sampler with one scalar draw per token: each try draws
    every head from the q other nodes, until the heads form a
    single-rooted tree."""
    for _ in range(100_000):
        heads = []
        for d in range(1, q + 1):
            h = int(rng.integers(0, q))
            if h >= d:
                h += 1
            heads.append(h)
        if heads.count(0) == 1 and next(find_cycles(heads), None) is None:
            return tuple(heads)
    raise RuntimeError("tree sampling failed to converge")


def reference_single_root(graph: WeightedTokenGraph) -> tuple[int, ...]:
    """``max_arborescence`` under the single-root rule with no bound: one
    solve per root arc, every root arc, in ascending order."""
    a = graph.arcs
    root_children = sorted(set(a[a[:, 0] == 0, 1].astype(int).tolist()))
    if not root_children:
        raise NoArborescenceError("no arc out of the root")
    missing = sorted(set(range(1, graph.q + 1)) - set(a[:, 1].astype(int).tolist()))
    if missing:
        raise NoArborescenceError(f"node {missing[0]} has no incoming arc")
    best: tuple[float, tuple[int, ...]] | None = None
    for r in root_children:
        try:
            heads, total = _solve(graph.q, a[(a[:, 0] != 0) | (a[:, 1] == r)])
        except NoArborescenceError:
            continue
        key = (total, tuple(-h for h in heads))
        if best is None or key > best:
            best, best_heads = key, heads
    if best is None:
        raise NoArborescenceError("no single-rooted spanning arborescence")
    return best_heads
