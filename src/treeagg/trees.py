"""Head sequences, tree checks and parser ensembles.

Head conventions follow CoNLL-U: tokens are numbered 1..q, head 0 is the
artificial root, and ``heads[d - 1]`` is the head of token ``d``.

Trees are held as one flat head array plus ``offsets``: the heads of
sentence i are ``heads[offsets[i]:offsets[i + 1]]``. ``check_trees``
validates every tree of such an array at once; ``validate_tree`` checks one
head sequence. A ``ParseEnsemble`` stacks m parsers' flat head arrays into
an (m x tokens) array, and the aggregators decode one flat head array over
its ``offsets``. ``TreebankFile.sentences`` is the one per-sentence view: a
``Sentence`` of an id and a validated ``DepTree``, built only when asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np


@dataclass(frozen=True)
class TreeCheck:
    ok: bool
    reason: str | None = None  # "out-of-range" | "self-loop" | "cycle"


def find_cycles(heads: Sequence[int]) -> Iterator[list[int]]:
    """Every cycle met walking from nodes 1, 2, ... toward the root 0, each
    in walk order, in the order met. Node d points to ``heads[d - 1]``,
    which must lie in 0..len(heads)."""
    state = [0] * (len(heads) + 1)  # 0 unseen, 1 on current walk, 2 done
    state[0] = 2
    for start in range(1, len(heads) + 1):
        walk = []
        node = start
        while state[node] == 0:
            state[node] = 1
            walk.append(node)
            node = heads[node - 1]
        verdict = state[node]
        for v in walk:
            state[v] = 2
        if verdict == 1:
            yield walk[walk.index(node) :]


def validate_tree(heads: Sequence[int], q: int) -> TreeCheck:
    """Check that ``heads`` forms a directed tree over tokens 1..q rooted at 0.

    Returns a verdict naming the first violated constraint instead of raising,
    so callers can distinguish rejection from malformed input.
    """
    if len(heads) != q:
        return TreeCheck(False, "out-of-range")
    for d, h in enumerate(heads, start=1):
        if not 0 <= h <= q:
            return TreeCheck(False, "out-of-range")
        if h == d:
            return TreeCheck(False, "self-loop")
    if next(find_cycles(heads), None) is not None:
        return TreeCheck(False, "cycle")
    return TreeCheck(True)


def check_trees(heads: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per sentence, whether its heads form a tree over its tokens rooted at
    0: the verdict of ``validate_tree`` for every sentence of a flat head
    array at once.

    The range check is an array compare. A token reaches the root within q
    steps in a tree, and never on or below a cycle (a self-loop is a cycle
    of one), so each token's ancestor pointer is doubled (``p = p[p]``)
    until it has jumped at least as far as the longest sentence is long,
    and every token must end at the root.
    """
    heads = np.asarray(heads, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    q = offsets[1:] - offsets[:-1]
    n = len(heads)
    sent = np.repeat(np.arange(len(q)), q)
    first = offsets[sent]
    ok = (heads >= 0) & (heads <= q[sent])
    # flat index of each token's head; the root, and a token whose head is
    # out of range, point at the absorbing node n
    up = np.concatenate((np.where(ok & (heads > 0), first + heads - 1, n), [n]))
    for _ in range(int(q.max(initial=0)).bit_length()):
        up = up[up]
    ok &= up[:-1] == n
    return np.bincount(sent[~ok], minlength=len(q)) == 0


@dataclass(frozen=True)
class DepTree:
    """An unlabeled dependency tree stored as its head sequence.

    Construction validates, so an instance is always a well-formed tree.
    """

    heads: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "heads", tuple(int(h) for h in self.heads))
        check = validate_tree(self.heads, len(self.heads))
        if not check.ok:
            raise ValueError(f"bad head sequence {self.heads!r}: {check.reason}")

    def __len__(self) -> int:
        return len(self.heads)


@dataclass(frozen=True)
class Sentence:
    """One sentence of a parsed file: its id and the tree over its words."""

    sentence_id: str
    tree: DepTree

    def __len__(self) -> int:
        return len(self.tree)


def concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``arange(s, s + n)`` for each start s and length n, end to end."""
    stops = np.cumsum(lengths)
    return np.arange(stops[-1] if len(stops) else 0) - np.repeat(stops - lengths - starts, lengths)


@dataclass(frozen=True, eq=False)
class ParseEnsemble:
    """Aligned tree outputs of m parsers over a shared sentence set.

    ``heads`` is the (m x tokens) head array, row k for parser
    ``parser_ids[k]``, and the tokens of sentence ``sentence_ids[i]`` are
    columns ``offsets[i]:offsets[i + 1]``. Every row holds valid trees and
    all parsers agree on the token count of every sentence; building from
    files (``conllu.build_ensemble``) checks the counts, and parsing
    checked the trees.
    """

    parser_ids: tuple[str, ...]
    sentence_ids: tuple[str, ...]
    offsets: np.ndarray
    heads: np.ndarray

    def __post_init__(self) -> None:
        if len(set(self.parser_ids)) != len(self.parser_ids):
            raise ValueError("duplicate parser ids")
        for a in (self.offsets, self.heads):
            a.setflags(write=False)

    @property
    def m(self) -> int:
        return len(self.parser_ids)
