"""Maximum spanning arborescence over a sentence's candidate edges.

The solver is Chu-Liu/Edmonds with recursive cycle contraction, rooted at
the artificial node 0. Candidate arcs are scanned in (head, dependent)
order and only strict improvements replace the incumbent. Its one caller,
decoding from edge scores (``edges.trees_from_scores``), sends it only the
sentences whose best incoming arcs are no tree, or have several roots
under the single-root rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .trees import DepTree, find_cycle


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


def tree_weight(graph: WeightedTokenGraph, tree: DepTree) -> float:
    """Total weight of a tree under the graph, summed in dependent order."""
    lookup = {(h, d): w for h, d, w in graph.arcs}
    total = 0.0
    for d, h in enumerate(tree.heads, start=1):
        if (h, d) not in lookup:
            raise ValueError(f"tree uses arc ({h}, {d}) absent from the graph")
        total += lookup[(h, d)]
    return total


class _Arc(NamedTuple):
    head: int
    dep: int
    weight: float
    parent: "_Arc | None"


def _solve(nodes: list[int], arcs: list[_Arc]) -> list[_Arc]:
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
    cycle = find_cycle(heads)
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
    for arc in _solve(sub_nodes, contracted):
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


def _heads_from(chosen: Iterable[_Arc], q: int) -> DepTree:
    heads = [-1] * q
    for arc in chosen:
        heads[arc.dep - 1] = arc.head
    return DepTree(tuple(heads))


def max_arborescence(
    graph: WeightedTokenGraph, enforce_single_root: bool = True
) -> DepTree:
    """Maximum-weight spanning arborescence rooted at node 0.

    While no cycle is contracted, equal-weight optima resolve to the
    lexicographically smallest head sequence; after one, the choice is
    stable but depends on which cycle was met first. With
    ``enforce_single_root`` the tree has one arc out of the root: the graph
    is re-solved once per root arc with the other root arcs removed, and
    the best total wins, equal totals going to the smaller head sequence.
    """
    arcs = [_Arc(h, d, w, None) for h, d, w in graph.arcs]
    nodes = list(range(graph.q + 1))
    if not enforce_single_root:
        return _heads_from(_solve(nodes, arcs), graph.q)

    root_children = sorted({a.dep for a in arcs if a.head == 0})
    if not root_children:
        raise NoArborescenceError("no arc out of the root")
    best: tuple[float, tuple[int, ...]] | None = None
    for r in root_children:
        restricted = [a for a in arcs if a.head != 0 or a.dep == r]
        try:
            tree = _heads_from(_solve(nodes, restricted), graph.q)
        except NoArborescenceError:
            continue
        total = tree_weight(graph, tree)
        key = (total, tuple(-h for h in tree.heads))
        if best is None or key > best:
            best, best_tree = key, tree
    if best is None:
        raise NoArborescenceError("no single-rooted spanning arborescence")
    return best_tree
