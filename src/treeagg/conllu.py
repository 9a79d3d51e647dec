"""CoNLL-U reading and writing.

A parsed file is a set of arrays over its verbatim lines. Parsing reads
only the ID and HEAD columns of word lines; comments, multiword-token
ranges, empty nodes and the other columns pass through untouched
(``TreebankFile.column`` reads one on request). Writing takes a flat head
array laid out like the file's own ``heads``, such as an aggregator's
decoded trees, and rewrites only the HEAD column of the word lines whose
head changed. Input may use LF or CRLF line endings; output is LF, with
each sentence followed by one empty line and the file ending in a single
newline.

Parsing scans the whole text at once: numpy finds the newlines and tabs,
classifies each line by its first byte, reads the ID and HEAD fields of
word lines as digit fields, and checks every sentence's tree together
(``trees.check_trees``). A failed check flags its lines or sentence blocks
rather than stopping the scan, and the error raised, with its line number,
is the one a reader going line by line would meet first. Only the line or
block that earns it is read again, to build its message.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

from .trees import (
    DepTree,
    InvalidTreeError,
    ParseEnsemble,
    Sentence,
    check_trees,
    concat_ranges,
    per_sentence,
)

_WORD_ID = re.compile(r"[1-9][0-9]*$")
_RANGE_ID = re.compile(r"[0-9]+-[0-9]+$")
_EMPTY_ID = re.compile(r"[0-9]+\.[0-9]+$")
_SENT_ID = re.compile(r"#\s*sent_id\s*=\s*(.+)$")

N_COLUMNS = 10
HEAD_COLUMN = 6
# ID and HEAD fields up to this many digits are read as int64 arrays
_MAX_DIGITS = 18
_NEWLINE, _TAB, _HASH, _ZERO, _NINE = b"\n\t#09"


class ConlluError(ValueError):
    """Malformed CoNLL-U input; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True, eq=False)
class TreebankFile:
    """One parser's (or the gold) trees for a whole treebank, as arrays.

    ``lines`` are the source lines without line endings; the subsets of a
    file share them. Sentence i, with id ``sentence_ids[i]``, is the block
    ``lines[blocks[i, 0]:blocks[i, 1]]``, and its words are the entries
    ``offsets[i]:offsets[i + 1]`` of the flat arrays ``heads`` (the HEAD
    column) and ``words`` (the index in ``lines`` of each word line).
    ``sentences`` and ``trees`` are built from these on demand.
    """

    parser_id: str
    lines: tuple[str, ...]
    sentence_ids: tuple[str, ...]
    blocks: np.ndarray
    offsets: np.ndarray
    heads: np.ndarray
    words: np.ndarray

    def __post_init__(self) -> None:
        for a in (self.blocks, self.offsets, self.heads, self.words):
            a.setflags(write=False)

    def __len__(self) -> int:
        return len(self.sentence_ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TreebankFile):
            return NotImplemented
        return (self.parser_id, self.sentences) == (other.parser_id, other.sentences)

    @property
    def lengths(self) -> np.ndarray:
        """Token count of each sentence."""
        return np.diff(self.offsets)

    def column(self, index: int) -> list[str]:
        """Column ``index`` (0-based, so FORM is 1) of every word line,
        sentences end to end."""
        lines = self.lines
        return [lines[w].split("\t", index + 1)[index] for w in self.words.tolist()]

    @property
    def trees(self) -> tuple[DepTree, ...]:
        return tuple(DepTree(h) for h in per_sentence(self.heads, self.offsets))

    @property
    def sentences(self) -> tuple[Sentence, ...]:
        bounds = self.offsets.tolist()
        words = self.words.tolist()
        forms = self.column(1)
        return tuple(
            Sentence(
                sid,
                self.lines[start:stop],
                tuple(w - start for w in words[a:b]),
                tuple(forms[a:b]),
                tree,
            )
            for sid, (start, stop), a, b, tree in zip(
                self.sentence_ids, self.blocks.tolist(), bounds, bounds[1:], self.trees
            )
        )

    def subset(self, positions: Sequence[int]) -> "TreebankFile":
        pos = np.asarray(positions, dtype=np.int64)
        q = self.lengths[pos]
        tokens = concat_ranges(self.offsets[pos], q)
        return replace(
            self,
            sentence_ids=tuple(self.sentence_ids[i] for i in pos.tolist()),
            blocks=self.blocks[pos],
            offsets=np.concatenate(([0], np.cumsum(q))),
            heads=self.heads[tokens],
            words=self.words[tokens],
        )


def parse_conllu(source: str | IO[str] | Iterable[str], parser_id: str = "") -> TreebankFile:
    """Parse CoNLL-U text into a :class:`TreebankFile`.

    ``source`` is a string, a readable file, or an iterable of lines with or
    without their line endings. Errors carry line numbers. Word lines must
    have ten tab-separated columns, consecutive integer ids from 1, and an
    integer HEAD; the head sequence of every sentence must form a valid
    rooted tree. Range ids ("2-3") and empty-node ids ("2.1") are kept
    verbatim and never parsed.
    """
    if hasattr(source, "read"):
        text = source.read()  # type: ignore[union-attr]
    elif isinstance(source, str):
        text = source
    else:
        text = "\n".join(line[:-1] if line.endswith("\n") else line for line in source)
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if text.endswith("\r"):
            text = text[:-1]
    lines = text.split("\n")
    return TreebankFile(parser_id, tuple(lines), *_scan(text, lines))


def _read_numbers(
    raw: np.ndarray, start: np.ndarray, stop: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """For each field ``raw[start:stop]``: whether it is 1 to _MAX_DIGITS
    ASCII digits, and then its value."""
    length = stop - start
    width = min(int(length.max(initial=0)), _MAX_DIGITS)
    # right-aligned: column j holds the digit worth 10 ** (width - 1 - j)
    cols = np.arange(width)
    inside = cols >= width - length[:, None]
    digit = raw[np.maximum(stop[:, None] - width + cols, 0)] - _ZERO  # wraps below "0"
    is_digit = digit <= _NINE - _ZERO
    ok = (length > 0) & (length <= _MAX_DIGITS) & (is_digit | ~inside).all(axis=1)
    value = np.where(inside & is_digit, digit, 0) @ 10 ** np.arange(width - 1, -1, -1)
    return ok, value


def _scan(text: str, lines: list[str]):
    """(sentence ids, blocks, offsets, heads, words) of a valid file.

    Otherwise raises the error a reader going line by line meets first:
    that of the first ``bad`` line, or of the first ``broken`` block, met
    at the blank line after it (at the last line for the last block).
    """
    # one "\n" per line, the last one appended, so every line has an end
    raw = np.frombuffer(text.encode("utf-8", "surrogatepass") + b"\n", dtype=np.uint8)
    ends = np.flatnonzero(raw == _NEWLINE)
    starts = np.concatenate(([0], ends[:-1] + 1))
    first = raw[starts]
    blank = first == _NEWLINE
    comment = first == _HASH
    digit = (first >= _ZERO) & (first <= _NINE)
    # a line of any other first byte is blank if it is all whitespace, else a
    # token line that the checks below reject
    for i in np.flatnonzero(~(blank | comment | digit)).tolist():
        blank[i] = lines[i].isspace()
    filled = ~blank
    token = filled & ~comment
    # a comment may not follow a token line of its block
    bad = comment & np.concatenate(([False], token[:-1]))
    block_start = filled & ~np.concatenate(([False], filled[:-1]))
    block_of = np.cumsum(block_start) - 1
    n_blocks = int(block_start.sum())
    stops = np.flatnonzero(filled & ~np.concatenate((filled[1:], [False]))) + 1
    blocks = np.column_stack((np.flatnonzero(block_start), stops))

    tok = np.flatnonzero(token)
    tabs = np.flatnonzero(raw == _TAB)
    t0 = np.searchsorted(tabs, starts[tok])
    ten = np.searchsorted(tabs, ends[tok]) - t0 == N_COLUMNS - 1
    if not ten.all():
        bad[tok[~ten]] = True
        tok, t0 = tok[ten], t0[ten]
    numeric, ident = _read_numbers(raw, starts[tok], tabs[t0])
    for i in tok[~numeric].tolist():
        field = lines[i].partition("\t")[0]
        bad[i] |= not (_RANGE_ID.fullmatch(field) or _EMPTY_ID.fullmatch(field))
    # every all-digit id is a word line: 1, 2, ... within its block
    words = tok[numeric]
    sent = block_of[words]
    q = np.bincount(sent, minlength=n_blocks)
    offsets = np.concatenate(([0], np.cumsum(q)))
    rank = np.arange(len(words)) - offsets[sent] + 1
    bad[words] |= (ident[numeric] != rank) | (raw[starts[words]] == _ZERO)
    head = t0[numeric] + HEAD_COLUMN  # the tab that ends the HEAD field
    digits, heads = _read_numbers(raw, tabs[head - 1] + 1, tabs[head])
    for k in np.flatnonzero(~digits).tolist():
        field = lines[words[k]].split("\t")[HEAD_COLUMN]
        if field.isascii() and field.isdigit():
            heads[k] = min(int(field), np.iinfo(np.int64).max)
        else:
            bad[words[k]] = True

    found: list[str | None] = [None] * n_blocks
    marks = np.flatnonzero(comment)
    for i, b in zip(marks.tolist(), block_of[marks].tolist()):
        if found[b] is None:
            m = _SENT_ID.match(lines[i])
            if m:
                found[b] = m.group(1).strip()
    ids = tuple(sid or f"s{b + 1}" for b, sid in enumerate(found))
    broken = (q == 0) | ~check_trees(heads, offsets)
    if len(set(ids)) < n_blocks:
        seen: dict[str, int] = {}
        broken |= [seen.setdefault(sid, b) != b for b, sid in enumerate(ids)]
    if not (bad.any() or broken.any()):
        return ids, blocks, offsets, heads, words

    line = int(np.argmax(bad)) + 1 if bad.any() else len(lines) + 1
    b = int(np.argmax(broken))
    end = min(int(blocks[b, 1]) + 1, len(lines))
    if not broken[b] or line <= end:
        # the id a word line here would have: one more than the words before
        expected = np.searchsorted(words, line - 1) - offsets[block_of[line - 1]] + 1
        raise ConlluError(line, _line_error(lines[line - 1], int(expected)))
    if q[b] == 0:
        raise ConlluError(end, "sentence block without word lines")
    if ids.index(ids[b]) < b:
        raise ConlluError(end, f"duplicate sentence id {ids[b]!r}")
    w = words[offsets[b] : offsets[b + 1]].tolist()
    try:
        DepTree([int(lines[i].split("\t")[HEAD_COLUMN]) for i in w])
    except InvalidTreeError as e:
        raise ConlluError(w[0] + 1, str(e)) from None


def _line_error(line: str, expected_id: int) -> str:
    """Why a reader rejects ``line``, given the id a word line there would
    have: the checks in the order it makes them."""
    if line.startswith("#"):
        return "comment after word lines in the same block"
    cols = line.split("\t")
    if len(cols) != N_COLUMNS:
        return f"expected {N_COLUMNS} columns, found {len(cols)}"
    if cols[0] == str(expected_id):
        return f"non-integer HEAD {cols[HEAD_COLUMN]!r}"
    if _WORD_ID.fullmatch(cols[0]):
        return f"token id {cols[0]} out of sequence"
    return f"unrecognized token id {cols[0]!r}"


def load_treebank(path: str | Path, parser_id: str | None = None) -> TreebankFile:
    p = Path(path)
    with open(p, encoding="utf-8", newline="") as fh:
        return parse_conllu(fh, parser_id if parser_id is not None else p.stem)


def write_conllu(treebank: TreebankFile, heads: np.ndarray | None = None) -> str:
    """Serialize a treebank, with ``heads`` in place of its own HEAD column.

    ``heads`` is an integer array shaped like ``treebank.heads`` that holds
    a tree per sentence, such as the decoded consensus of an ensemble built
    from this file; anything else raises ``ValueError``, so every written
    file parses back. Each sentence is written as its verbatim lines
    followed by one empty line, and only the HEAD column of a word line
    whose head changed is rewritten, so the output ends with a single
    newline. A parsed file is written back byte for byte, except that CRLF
    endings become LF, blank lines that are whitespace or repeated become
    one empty line, and the blank line that ends a file in the UD layout is
    not reproduced.
    """
    lines: Sequence[str] = treebank.lines
    if heads is not None:
        heads = np.asarray(heads)
        if heads.shape != treebank.heads.shape or heads.dtype.kind not in "iu":
            raise ValueError(
                f"heads of shape {heads.shape} and type {heads.dtype}, "
                f"want integers of shape {treebank.heads.shape}"
            )
        trees = check_trees(heads, treebank.offsets)
        if not trees.all():
            sid = treebank.sentence_ids[int(np.argmin(trees))]
            raise ValueError(f"sentence {sid!r}: heads do not form a tree")
        moved = np.flatnonzero(heads != treebank.heads)
        if moved.size:
            lines = list(lines)
            for w, h in zip(treebank.words[moved].tolist(), heads[moved].tolist()):
                cols = lines[w].split("\t")
                cols[HEAD_COLUMN] = str(h)
                lines[w] = "\t".join(cols)
    out: list[str] = []
    for start, stop in treebank.blocks.tolist():
        out.extend(lines[start:stop])
        out.append("")
    return "\n".join(out)


def save_treebank(
    treebank: TreebankFile, path: str | Path, heads: np.ndarray | None = None
) -> None:
    Path(path).write_text(write_conllu(treebank, heads), encoding="utf-8")


def aligned_tokens(
    files: Sequence[TreebankFile], positions: np.ndarray
) -> list[np.ndarray]:
    """Per file, the flat indices of the tokens of the sentences at
    ``positions``, which must have the same token counts in every file."""
    q = files[0].lengths[positions]
    return [concat_ranges(f.offsets[positions], q) for f in files]


def check_segmentation(files: Sequence[TreebankFile]) -> list[bool]:
    """Per-sentence agreement flags: same token count and identical forms.

    Comparison is exact byte equality of FORM, position by position. All
    files must contain the same number of sentences.
    """
    if not files:
        raise ValueError("no files to compare")
    counts = {len(f) for f in files}
    if len(counts) != 1:
        raise ValueError(f"sentence counts differ across files: {sorted(counts)}")
    q = np.stack([f.lengths for f in files])
    same = (q == q[0]).all(axis=0)
    keep = np.flatnonzero(same)
    tokens = aligned_tokens(files, keep)
    forms = [np.array(f.column(1), dtype=object)[t] for f, t in zip(files, tokens)]
    differ = np.zeros(len(forms[0]), dtype=bool)
    for other in forms[1:]:
        differ |= other != forms[0]
    sent = np.repeat(np.arange(len(keep)), q[0, keep])
    same[keep[np.unique(sent[differ])]] = False
    return same.tolist()


def build_ensemble(files: Sequence[TreebankFile]) -> ParseEnsemble:
    """Stack parser files into an ensemble, aligned by sentence position.

    Sentence ids are taken from the first file; ids in the other files are
    ignored (they are reporting metadata, alignment is positional).
    """
    if not files:
        raise ValueError("no parser files")
    n = len(files[0])
    for f in files[1:]:
        if len(f) != n:
            raise ValueError(
                f"{f.parser_id!r} has {len(f)} sentences, "
                f"{files[0].parser_id!r} has {n}"
            )
    ref = files[0]
    for f in files[1:]:
        differ = np.flatnonzero(f.lengths != ref.lengths)
        if differ.size:
            sid = ref.sentence_ids[differ[0]]
            raise ValueError(f"sentence {sid!r}: parsers disagree on token count")
    return ParseEnsemble(
        tuple(f.parser_id for f in files),
        ref.sentence_ids,
        ref.offsets,
        np.stack([f.heads for f in files]),
    )
