"""Core domain types: sentences, dependency trees, parser ensembles.

Head conventions follow CoNLL-U: tokens are numbered 1..q, head 0 is the
artificial root, and ``heads[d - 1]`` is the head of token ``d``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence


class InvalidTreeError(ValueError):
    """Raised when a head sequence does not encode a rooted dependency tree."""


@dataclass(frozen=True)
class TreeCheck:
    ok: bool
    reason: str | None = None  # "out-of-range" | "self-loop" | "cycle"


def find_cycle(heads: Sequence[int]) -> list[int] | None:
    """The first cycle met walking from nodes 1, 2, ... toward the root 0,
    in walk order, or ``None``. Node d points to ``heads[d - 1]``, which
    must lie in 0..len(heads)."""
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
            return walk[walk.index(node) :]
    return None


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
    if find_cycle(heads) is not None:
        return TreeCheck(False, "cycle")
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
