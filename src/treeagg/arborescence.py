"""Maximum spanning arborescence over a sentence's candidate edges.

The solver is Chu-Liu/Edmonds from the artificial root 0, one loop over
contraction levels that never recurses, and it returns a plain tuple of
heads. Its one caller, decoding from edge scores
(``edges.trees_from_scores``), sends it only the sentences whose best
incoming arcs are no tree, or have several roots under the single-root
rule, and writes the heads into its flat head array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trees import find_cycles


class NoArborescenceError(ValueError):
    """The graph has no spanning arborescence under the requested rooting."""


@dataclass(frozen=True)
class WeightedTokenGraph:
    """Candidate arcs (head, dependent) -> weight over tokens 1..q.

    Arcs are deduplicated keeping the larger weight, sorted, and validated:
    finite weights, heads in 0..q, dependents in 1..q, no self-loops.
    """

    q: int
    arcs: tuple[tuple[int, int, float], ...]

    def __post_init__(self) -> None:
        if self.q < 1:
            raise ValueError("graph needs at least one token")
        best: dict[tuple[int, int], float] = {}
        for h, d, w in self.arcs:
            if not 1 <= d <= self.q or not 0 <= h <= self.q:
                raise ValueError(f"arc ({h}, {d}) outside token range 0..{self.q}")
            if h == d:
                raise ValueError(f"self-loop arc on token {d}")
            w = float(w)
            if not np.isfinite(w):
                raise ValueError(f"non-finite weight on arc ({h}, {d})")
            if (h, d) not in best or w > best[(h, d)]:
                best[(h, d)] = w
        object.__setattr__(
            self, "arcs", tuple((h, d, best[(h, d)]) for h, d in sorted(best))
        )


def _solve(
    q: int, arcs: tuple[tuple[int, int, float], ...]
) -> tuple[tuple[int, ...], float]:
    """Chu-Liu/Edmonds from root 0 over tokens 1..q, without recursion:
    the chosen heads, and the total weight of their arcs summed in
    dependent order.

    Each level is a list of arcs (head, dependent, weight, index of the arc
    one level up); a node's best arc is the first of highest weight, then
    smallest head. While the best arcs form a cycle, the next level merges
    it into a new node, an entering arc less the weight of the best arc
    into its dependent. Unwinding the levels opens each cycle: all its best
    arcs but the one into the node the chosen entering arc reaches.
    """
    level = [(h, d, w, -1) for h, d, w in arcs]  # -1: no level above
    nodes = list(range(q + 1))  # ascending: a new node is the largest
    stack = []
    while True:
        best: dict[int, int] = {}  # node -> index of its best arc in level
        for i, (h, d, w, _) in enumerate(level):
            j = best.get(d)
            if j is None or (w, -h) > (level[j][2], -level[j][0]):
                best[d] = i
        for v in nodes[1:]:
            if v not in best:
                raise NoArborescenceError(f"node {v} has no incoming arc")
        heads = [level[best[v]][0] if v in best else 0 for v in range(1, nodes[-1] + 1)]
        cycle = next(find_cycles(heads), None)
        if cycle is None:
            break
        c = nodes[-1] + 1
        stack.append((level, best, cycle))
        in_cycle = set(cycle)
        nodes = [v for v in nodes if v not in in_cycle] + [c]
        contracted = []
        for i, (h, d, w, _) in enumerate(level):
            if d not in in_cycle:
                contracted.append((c if h in in_cycle else h, d, w, i))
            elif h not in in_cycle:
                contracted.append((h, c, w - level[best[d]][2], i))
        level = contracted
    chosen = best  # node -> index of its chosen arc in level
    while stack:
        up, best, cycle = stack.pop()
        lifted = [level[i][3] for i in chosen.values()]
        # the cycle's best arcs, but the lifted entering arc replaces one
        chosen = {v: best[v] for v in cycle} | {up[j][1]: j for j in lifted}
        level = up
    heads, total = [], 0.0
    for d in range(1, q + 1):
        h, _, w, _ = level[chosen[d]]
        heads.append(h)
        total += w
    return tuple(heads), total


def max_arborescence(
    graph: WeightedTokenGraph, enforce_single_root: bool = True
) -> tuple[int, ...]:
    """The heads of a maximum-weight spanning arborescence rooted at node 0,
    ``heads[d - 1]`` the head of token d.

    While no cycle is contracted, equal-weight optima resolve to the
    lexicographically smallest head sequence; after one, the choice is
    stable but depends on which cycle was met first. With
    ``enforce_single_root`` the tree has one arc out of the root: the graph
    is re-solved per root arc with the other root arcs removed, and the
    best total wins, equal totals going to the smaller head sequence.

    Root r's total is at most its bound: w(0, r) plus every other
    dependent's best arc from a token, summed in dependent order from 0.0
    as ``_solve`` sums its total, so each term is at least the total's and
    the bound holds bit for bit. Roots are solved by descending bound, then
    ascending r, until a bound falls below the best total, which that root
    can then neither beat nor tie.
    """
    if not enforce_single_root:
        return _solve(graph.q, graph.arcs)[0]

    root_arcs = {d: w for h, d, w in graph.arcs if h == 0}
    if not root_arcs:
        raise NoArborescenceError("no arc out of the root")
    best_in = [-np.inf] * graph.q  # each dependent's best arc from a token
    for h, d, w in graph.arcs:
        if h and w > best_in[d - 1]:
            best_in[d - 1] = w
    children = np.array(list(root_arcs))  # ascending, as the arcs are sorted
    terms = np.tile(best_in, (len(children), 1))
    terms[np.arange(len(children)), children - 1] = list(root_arcs.values())
    bounds = np.add.accumulate(terms, axis=1)[:, -1]  # left to right, as _solve sums
    best: tuple[float, tuple[int, ...]] | None = None
    for i in np.lexsort((children, -bounds)).tolist():
        if best is not None and bounds[i] < best[0]:
            break
        r = int(children[i])
        restricted = tuple((h, d, w) for h, d, w in graph.arcs if h != 0 or d == r)
        try:
            heads, total = _solve(graph.q, restricted)
        except NoArborescenceError:
            continue
        key = (total, tuple(-h for h in heads))
        if best is None or key > best:
            best, best_heads = key, heads
    if best is None:
        raise NoArborescenceError("no single-rooted spanning arborescence")
    return best_heads
