"""Maximum spanning arborescence over a sentence's candidate edges.

``best_arcs`` is the one rule for a node's best incoming arc. Decoding
(``edges.trees_from_scores``) applies it to all sentences at once and
sends the solver only those whose best arcs are no tree, or have several
roots under the single-root rule. The solver, Chu-Liu/Edmonds from root
0, applies it at every contraction level, held as arrays; it never
recurses and returns a plain tuple of heads.
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


def best_arcs(heads: np.ndarray, deps: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """The index of each node 0..n-1's best incoming arc, -1 where no arc
    enters it: the arc of highest weight, then smallest head, then the
    first listed."""
    order = np.lexsort((heads, -weights, deps))  # stable: equal arcs keep their order
    nodes, first = np.unique(deps[order], return_index=True)
    best = np.full(n, -1, dtype=np.intp)
    best[nodes] = order[first]
    return best


def _solve(q: int, arcs: np.ndarray | tuple) -> tuple[tuple[int, ...], float]:
    """Chu-Liu/Edmonds from root 0 over tokens 1..q, without recursion:
    the chosen heads, and the total weight of their arcs summed in
    dependent order. ``arcs`` holds rows (head, dependent, weight).

    A level is arrays of heads, dependents and weights over nodes 0..n-1,
    the nodes merged into a cycle having no arcs left. While the best arcs
    form a cycle, the next level merges it into node n: arcs inside it
    go, and an entering arc weighs less the weight of the best arc into
    its dependent. Unwinding the levels opens each cycle: all its best
    arcs but the one into the node the chosen entering arc reaches.
    """
    a = np.asarray(arcs, dtype=np.float64).reshape(-1, 3)
    h, d, w = a[:, 0].astype(np.intp), a[:, 1].astype(np.intp), a[:, 2]
    live = np.ones(q + 1, dtype=bool)  # the nodes not merged into a cycle
    stack = []
    while True:
        best = best_arcs(h, d, w, len(live))
        missing = np.flatnonzero(live[1:] & (best[1:] < 0))
        if missing.size:
            raise NoArborescenceError(f"node {missing[0] + 1} has no incoming arc")
        heads = np.where(live[1:], h[best[1:]], 0).tolist()  # merged nodes point at the root
        cycle = next(find_cycles(heads), None)
        if cycle is None:
            break
        in_cycle = np.zeros(len(live), dtype=bool)
        in_cycle[cycle] = True
        into = in_cycle[d]
        up = np.flatnonzero(~(in_cycle[h] & into))  # each kept arc's index in the level above
        stack.append((d, best, up))
        c = len(live)
        h, d, w = (np.where(in_cycle[h], c, h)[up], np.where(into, c, d)[up],
                   np.where(into, w - w[best[d]], w)[up])
        live = np.append(live & ~in_cycle, True)
    chosen = best  # per node, the index of its chosen arc in the level
    while stack:
        d, best, up = stack.pop()
        lifted = up[chosen[chosen >= 0]]
        chosen = best.copy()  # lifted arcs replace all outside the cycle and one in it
        chosen[d[lifted]] = lifted
    chosen = chosen[1:]
    total = np.add.accumulate(np.r_[0.0, a[chosen, 2]])[-1]  # left to right from 0.0
    return tuple(a[chosen, 0].astype(np.intp).tolist()), float(total)


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
    arcs = np.array(graph.arcs, dtype=np.float64).reshape(-1, 3)
    if not enforce_single_root:
        return _solve(graph.q, arcs)[0]

    h, d, w = arcs.T
    from_root = h == 0
    if not from_root.any():
        raise NoArborescenceError("no arc out of the root")
    best_in = np.full(graph.q + 1, -np.inf)  # each dependent's best arc from a token
    np.maximum.at(best_in, d[~from_root].astype(np.intp), w[~from_root])
    children = d[from_root].astype(np.intp)  # ascending, as the arcs are sorted
    terms = np.tile(best_in[1:], (len(children), 1))
    terms[np.arange(len(children)), children - 1] = w[from_root]
    bounds = np.add.accumulate(terms, axis=1)[:, -1]  # left to right, as _solve sums
    best: tuple[float, tuple[int, ...]] | None = None
    for i in np.lexsort((children, -bounds)).tolist():
        if best is not None and bounds[i] < best[0]:
            break
        try:
            heads, total = _solve(graph.q, arcs[~from_root | (d == children[i])])
        except NoArborescenceError:
            continue
        key = (total, tuple(-h for h in heads))
        if best is None or key > best:
            best, best_heads = key, heads
    if best is None:
        raise NoArborescenceError("no single-rooted spanning arborescence")
    return best_heads
