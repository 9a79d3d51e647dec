"""Core domain types: sentences, dependency trees, parser ensembles.

Head conventions follow CoNLL-U: tokens are numbered 1..q, head 0 is the
artificial root, and ``heads[d - 1]`` is the head of token ``d``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence


class InvalidTreeError(ValueError):
    """Raised when a head sequence does not encode a rooted dependency tree."""


@dataclass(frozen=True)
class TreeCheck:
    ok: bool
    reason: str | None = None  # "out-of-range" | "self-loop" | "cycle" | "unreachable"


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
    # Every token has exactly one head, so the parent walk from any token
    # either reaches the root or enters a cycle; "unreachable" is kept for
    # completeness but cannot fire once the range checks above have passed.
    state = [0] * (q + 1)  # 0 unseen, 1 on current walk, 2 known good
    state[0] = 2
    for start in range(1, q + 1):
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
            return TreeCheck(False, "cycle")
        if verdict != 2:
            return TreeCheck(False, "unreachable")
    return TreeCheck(True)


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
            raise InvalidTreeError(f"bad head sequence {self.heads!r}: {check.reason}")

    def __len__(self) -> int:
        return len(self.heads)

    @property
    def root_edges(self) -> int:
        return self.heads.count(0)


def edges_of(tree: DepTree) -> list[tuple[int, int]]:
    """Directed edges (head, dependent) of a tree, ordered by dependent."""
    return [(h, d) for d, h in enumerate(tree.heads, start=1)]


def heads_from_edges(edges: Iterable[tuple[int, int]], q: int) -> DepTree:
    """Inverse of :func:`edges_of`; rejects duplicate or missing dependents."""
    heads = [-1] * q
    for h, d in edges:
        if not 1 <= d <= q:
            raise InvalidTreeError(f"dependent {d} outside 1..{q}")
        if heads[d - 1] != -1:
            raise InvalidTreeError(f"dependent {d} has two heads")
        heads[d - 1] = h
    if any(h == -1 for h in heads):
        missing = [d for d, h in enumerate(heads, start=1) if h == -1]
        raise InvalidTreeError(f"dependents without a head: {missing}")
    return DepTree(tuple(heads))


@dataclass(frozen=True)
class Sentence:
    """One CoNLL-U block: its verbatim lines and the tree over its words.

    ``lines`` are the block's lines in file order, without line endings:
    comments, word lines, multiword-token ranges and empty nodes. ``words``
    gives the index in ``lines`` of each word line, so word ``k`` (1-based)
    is ``lines[words[k - 1]]``; ``forms`` are the words' FORM columns. The
    HEAD columns must agree with ``tree``: writing rewrites only the word
    lines whose head differs from it.
    """

    sentence_id: str
    lines: tuple[str, ...]
    words: tuple[int, ...]
    forms: tuple[str, ...]
    tree: DepTree

    def __post_init__(self) -> None:
        if not self.words:
            raise ValueError(f"sentence {self.sentence_id!r} has no words")
        if not len(self.tree) == len(self.forms) == len(self.words):
            raise ValueError(
                f"sentence {self.sentence_id!r}: {len(self.words)} words, "
                f"{len(self.forms)} forms, tree over {len(self.tree)}"
            )
        for k, w in enumerate(self.words, start=1):
            if not self.lines[w].startswith(f"{k}\t"):
                raise ValueError(
                    f"sentence {self.sentence_id!r}: word {k} is line {self.lines[w]!r}"
                )

    def __len__(self) -> int:
        return len(self.words)


@dataclass(frozen=True)
class ParseEnsemble:
    """Aligned tree outputs of m parsers over a shared sentence set.

    ``trees`` maps sentence id to one tree per parser, in ``parser_ids``
    order. All parsers must agree on the token count of every sentence;
    surface-form agreement is the loader's concern.
    """

    parser_ids: tuple[str, ...]
    trees: Mapping[str, tuple[DepTree, ...]]

    def __post_init__(self) -> None:
        m = len(self.parser_ids)
        if len(set(self.parser_ids)) != m:
            raise ValueError("duplicate parser ids")
        for sid, ts in self.trees.items():
            if len(ts) != m:
                raise ValueError(f"sentence {sid!r}: {len(ts)} trees for {m} parsers")
            if len({len(t) for t in ts}) != 1:
                raise ValueError(f"sentence {sid!r}: parsers disagree on token count")

    @property
    def m(self) -> int:
        return len(self.parser_ids)

    @property
    def sentence_ids(self) -> tuple[str, ...]:
        return tuple(self.trees)

    def token_count(self, sentence_id: str) -> int:
        return len(self.trees[sentence_id][0])

    def restrict(self, parser_ids: Sequence[str]) -> "ParseEnsemble":
        """Keep only the given parsers, in current ensemble order."""
        keep = [i for i, p in enumerate(self.parser_ids) if p in set(parser_ids)]
        if len(keep) != len(parser_ids):
            missing = set(parser_ids) - set(self.parser_ids)
            raise ValueError(f"unknown parser ids: {sorted(missing)}")
        return ParseEnsemble(
            tuple(self.parser_ids[i] for i in keep),
            {sid: tuple(ts[i] for i in keep) for sid, ts in self.trees.items()},
        )


def pooled_ensemble(parts: Mapping[str, ParseEnsemble]) -> ParseEnsemble:
    """Pool several treebanks' ensembles into one, for corpus-level estimation.

    Sentence ids are prefixed with the treebank name to stay unique. All
    parts must share the same parser ids in the same order.
    """
    if not parts:
        raise ValueError("nothing to pool")
    ids = None
    merged: dict[str, tuple[DepTree, ...]] = {}
    for name, ens in parts.items():
        if ids is None:
            ids = ens.parser_ids
        elif ens.parser_ids != ids:
            raise ValueError(f"treebank {name!r} has different parser ids")
        for sid, ts in ens.trees.items():
            merged[f"{name}/{sid}"] = ts
    assert ids is not None
    return ParseEnsemble(ids, merged)
