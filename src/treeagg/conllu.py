"""CoNLL-U reading and writing.

A parsed file is its UTF-8 bytes and positions in them: the byte span of
each sentence and the bounds of each word's FORM and HEAD. Parsing reads
only the ID and HEAD columns of word lines; comments, multiword-token
ranges, empty nodes and the other columns pass through untouched
(``TreebankFile.column`` reads one on request). Writing takes a flat head
array laid out like the file's own ``heads``, such as an aggregator's
decoded trees, copies each sentence's bytes and replaces the HEAD field of
the words whose head changed.
Input may start with a byte-order mark and use LF or CRLF line endings;
output is LF, with each sentence followed by one empty line.

Parsing scans the bytes at once: numpy finds the tabs and newlines,
classifies each line by its first byte, reads the ID and HEAD fields of
token lines together as digit fields, and checks every sentence's tree
together (``trees.check_trees``). A failed check flags its lines or
sentence blocks rather than stopping the scan, and the error raised, with
its line number, is the one a reader going line by line would meet first.
A line is decoded only to be read alone: a comment, for its sentence id, a
line that may be all whitespace, and the line or block an error names.
``load_treebanks`` scans several files as one, each between two newlines,
so a parser directory pays the scan's fixed cost once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .trees import (
    DepTree,
    ParseEnsemble,
    Sentence,
    check_trees,
    concat_ranges,
    validate_tree,
)

_WORD_ID = re.compile(r"[1-9][0-9]*$")
_RANGE_ID = re.compile(r"[0-9]+-[0-9]+$")
_EMPTY_ID = re.compile(r"[0-9]+\.[0-9]+$")
_SENT_ID = re.compile(r"#\s*sent_id\s*=\s*(.+)$")

N_COLUMNS = 10
HEAD_COLUMN = 6
# ID and HEAD fields up to this many digits are read as int64 arrays
_MAX_DIGITS = 18
_POWERS = 10 ** np.arange(_MAX_DIGITS - 1, -1, -1)
_NEWLINE, _TAB, _HASH, _ZERO, _NINE = b"\n\t#09"


class ConlluError(ValueError):
    """Malformed CoNLL-U input; carries the 1-based line number, and names
    the file it was read from, if any."""

    def __init__(self, line_no: int, message: str, path: str | Path = ""):
        super().__init__(f"{path}{': ' if path else ''}line {line_no}: {message}")
        self.line_no, self.message = line_no, message


@dataclass(frozen=True, eq=False)
class TreebankFile:
    """One parser's (or the gold) trees for a whole treebank, as arrays.

    ``raw`` holds the file's UTF-8 bytes between two added newlines; the
    subsets of a file share it, and the files loaded together by
    ``load_treebanks`` are views of one buffer. Sentence i, with id
    ``sentence_ids[i]``, is the lines ``raw[spans[i, 0]:spans[i, 1]]``,
    each with its newline, and its words are the entries
    ``offsets[i]:offsets[i + 1]`` of the flat array ``heads`` (the HEAD
    column) and of the columns of ``fields``: word k's FORM is
    ``raw[fields[0, k]:fields[1, k]]`` and its HEAD
    ``raw[fields[2, k]:fields[3, k]]``. ``sentences`` pairs each sentence
    id with its tree, built on demand.
    """

    parser_id: str
    sentence_ids: tuple[str, ...]
    spans: np.ndarray
    offsets: np.ndarray
    heads: np.ndarray
    raw: np.ndarray
    fields: np.ndarray

    def __post_init__(self) -> None:
        for a in (self.spans, self.offsets, self.heads, self.raw, self.fields):
            a.setflags(write=False)

    def __len__(self) -> int:
        return len(self.sentence_ids)

    @property
    def lengths(self) -> np.ndarray:
        """Token count of each sentence."""
        return self.offsets[1:] - self.offsets[:-1]

    def column(self, index: int) -> list[str]:
        """Column ``index`` (0 to 9, so FORM is 1) of every word line,
        sentences end to end."""
        if not 0 <= index < N_COLUMNS:
            raise ValueError(f"column index {index} is outside 0..{N_COLUMNS - 1}")
        sep = np.flatnonzero(self.raw - _TAB <= _NEWLINE - _TAB)  # tabs and newlines
        at = np.searchsorted(sep, self.fields[0] - 1) - 1 + index  # the one before the field
        data = self.raw.tobytes()
        start, stop = (sep[at] + 1).tolist(), sep[at + 1].tolist()
        return [data[a:b].decode("utf-8", "surrogatepass") for a, b in zip(start, stop)]

    @property
    def sentences(self) -> tuple[Sentence, ...]:
        heads = self.heads.tolist()
        bounds = self.offsets.tolist()
        return tuple(
            Sentence(sid, DepTree(heads[a:b]))
            for sid, a, b in zip(self.sentence_ids, bounds, bounds[1:])
        )

    def subset(self, positions: Sequence[int]) -> "TreebankFile":
        pos = np.asarray(positions, dtype=np.int64)
        q = self.lengths[pos]
        tokens = concat_ranges(self.offsets[pos], q)
        return replace(
            self,
            sentence_ids=tuple(self.sentence_ids[i] for i in pos.tolist()),
            spans=self.spans[pos],
            offsets=np.concatenate(([0], np.cumsum(q))),
            heads=self.heads[tokens],
            fields=self.fields[:, tokens],
        )


def parse_conllu(source: str | IO[str] | IO[bytes], parser_id: str = "") -> TreebankFile:
    """Parse CoNLL-U text into a :class:`TreebankFile`.

    ``source`` is a string or a readable text or UTF-8 binary file. Errors
    carry line numbers. Word lines must have ten tab-separated columns,
    consecutive integer ids from 1, and an integer HEAD; the head sequence
    of every sentence must form a valid rooted tree. Range ids ("2-3") and
    empty-node ids ("2.1") are kept verbatim and never parsed.
    """
    data = _text_bytes(source if isinstance(source, str) else source.read())
    # a newline before and after the text: line i runs from newline i to i + 1
    (parsed,) = _scan(b"".join((b"\n", data, b"\n")), [0])
    return TreebankFile(parser_id, *parsed)


def _text_bytes(data: str | bytes) -> bytes:
    """The UTF-8 bytes of a text, without a byte-order mark and with LF
    endings; bytes that are not UTF-8 raise a ``ConlluError``."""
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    elif not data.isascii():  # ASCII is UTF-8; other bytes are decoded as a check
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as e:
            bad = f"byte 0x{data[e.start]:02x} is not UTF-8 ({e.reason})"
            raise ConlluError(data.count(b"\n", 0, e.start) + 1, bad) from None
    data = data.removeprefix(b"\xef\xbb\xbf")  # a byte-order mark
    if b"\r" in data:  # CRLF endings, and a final CR
        data = data.replace(b"\r\n", b"\n").removesuffix(b"\r")
    return data


def _read_numbers(
    raw: np.ndarray, start: np.ndarray, stop: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """For each field ``raw[start:stop]``: whether it is 1 to _MAX_DIGITS
    ASCII digits, and then its value."""
    length = stop - start
    width = min(int(length.max(initial=0)), _MAX_DIGITS)
    # digits x fields, right-aligned: row j holds the digit worth 10 ** (width - 1 - j)
    rows = np.arange(width)[:, None]
    inside = rows >= width - length
    digit = raw[np.maximum(stop - width + rows, 0)] - _ZERO  # wraps below "0"
    is_digit = digit <= _NINE - _ZERO
    # (is_digit >= inside): every byte inside the field is a digit
    ok = (length > 0) & (length <= _MAX_DIGITS) & (is_digit >= inside).all(axis=0)
    value = _POWERS[_MAX_DIGITS - width :] @ (digit * (is_digit & inside))
    return ok, value


def _scan(buf: bytes | bytearray, segments: Sequence[int]):
    """Per file, (sentence ids, spans, offsets, heads, raw, fields) of the
    valid files whose bytes, each between two newlines, are ``buf`` from
    each of the offsets ``segments`` to the next (the last to the end).

    Otherwise raises the error a reader going line by line meets first:
    that of the first ``bad`` line, or of the first ``broken`` block, met
    at the blank line after it (at the last line for the last block). Its
    line is counted from the start of ``buf``.
    """
    raw = np.frombuffer(buf, dtype=np.uint8)
    sep = np.flatnonzero(raw - _TAB <= _NEWLINE - _TAB)  # tabs and newlines
    eol = np.flatnonzero(raw[sep] == _NEWLINE)  # the newlines, as indices in sep
    newlines = sep[eol]

    def line(i: int) -> str:
        return buf[newlines[i] + 1 : newlines[i + 1]].decode("utf-8", "surrogatepass")

    starts = newlines[:-1] + 1
    first = raw[starts]
    blank = first == _NEWLINE
    comment = first == _HASH
    digit = first - _ZERO <= _NINE - _ZERO  # wraps below "0"
    # a line of any other first byte is blank if it is all whitespace, else a
    # token line that the checks below reject
    for i in np.flatnonzero(~(blank | comment | digit)).tolist():
        blank[i] = line(i).isspace()
    filled = ~blank
    token = filled & ~comment
    # a comment may not follow a token line of its block
    bad = comment & np.concatenate(([False], token[:-1]))
    # blocks start and stop where a line's filled flag changes
    padded = np.concatenate(([False], filled, [False]))
    edge = padded[1:] != padded[:-1]
    blocks = np.flatnonzero(edge).reshape(-1, 2)
    block_of = np.cumsum(edge[:-1]) >> 1  # a block's lines follow 2k + 1 edges
    n_blocks = len(blocks)

    tok = np.flatnonzero(token)
    t0 = eol[tok] + 1  # the separator that ends the ID field
    ten = eol[tok + 1] - t0 == N_COLUMNS - 1
    if not ten.all():
        bad[tok[~ten]] = True
        tok, t0 = tok[ten], t0[ten]
    # the tabs that end ID and FORM, and those around HEAD; ID and HEAD are read together
    tabs = sep[t0 + np.array([[0], [1], [HEAD_COLUMN - 1], [HEAD_COLUMN]])]
    ok, value = _read_numbers(
        raw, np.concatenate((starts[tok], tabs[2] + 1)), tabs[[0, 3]].ravel()
    )
    (numeric, digits), (ident, heads) = ok.reshape(2, -1), value.reshape(2, -1)
    for i in tok[~numeric].tolist():
        field = line(i).partition("\t")[0]
        bad[i] |= not (_RANGE_ID.fullmatch(field) or _EMPTY_ID.fullmatch(field))
    # every all-digit id is a word line: 1, 2, ... within its block
    words = tok[numeric]
    sent = block_of[words]
    q = np.bincount(sent, minlength=n_blocks)
    offsets = np.concatenate(([0], np.cumsum(q)))
    rank = np.arange(len(words)) - offsets[sent] + 1
    bad[words] |= (ident[numeric] != rank) | (first[words] == _ZERO)
    digits, heads = digits[numeric], heads[numeric]
    for k in np.flatnonzero(~digits).tolist():
        field = line(words[k]).split("\t")[HEAD_COLUMN]
        if field.isascii() and field.isdigit():
            heads[k] = min(int(field), np.iinfo(np.int64).max)
        else:
            bad[words[k]] = True

    found: list[str | None] = [None] * n_blocks
    marks = np.flatnonzero(comment)
    for b, start, stop in zip(
        block_of[marks].tolist(), starts[marks].tolist(), newlines[marks + 1].tolist()
    ):
        if found[b] is None:
            m = _SENT_ID.match(buf[start:stop].decode("utf-8", "surrogatepass"))
            if m:
                found[b] = m.group(1).strip()
    spans = newlines[blocks] + 1
    bounds = [*segments, len(buf)]
    first = np.searchsorted(spans[:, 0], bounds).tolist()  # each file's first block, then the end
    broken = (q == 0) | ~check_trees(heads, offsets)
    ids: list[str] = []
    for a, z in zip(first, first[1:]):  # ids are numbered and unique within a file
        names = [sid or f"s{b}" for b, sid in enumerate(found[a:z], 1)]
        if len(set(names)) < z - a:
            seen: dict[str, int] = {}
            broken[a:z] |= [seen.setdefault(sid, b) != b for b, sid in enumerate(names)]
        ids += names
    if not (bad.any() or broken.any()):
        fields = tabs.compress(numeric, axis=1)
        fields[::2] += 1  # FORM and HEAD start one byte after their tab
        word = offsets[first].tolist()  # each file's first word, then the end
        parts = []
        for a, z, w, x, s, e in zip(first, first[1:], word, word[1:], bounds, bounds[1:]):
            spans[a:z] -= s  # positions in the file's own bytes
            fields[:, w:x] -= s
            parts.append((tuple(ids[a:z]), spans[a:z], offsets[a : z + 1] - w,
                          heads[w:x], raw[s:e], fields[:, w:x]))
        return parts

    line_no = int(np.argmax(bad)) + 1 if bad.any() else len(newlines)
    b = int(np.argmax(broken))
    end = min(int(blocks[b, 1]) + 1, len(newlines) - 1)
    if not broken[b] or line_no <= end:
        # the id a word line here would have: one more than the words before
        expected = np.searchsorted(words, line_no - 1) - offsets[block_of[line_no - 1]] + 1
        raise ConlluError(line_no, _line_error(line(line_no - 1), int(expected)))
    if q[b] == 0:
        raise ConlluError(end, "sentence block without word lines")
    if ids.index(ids[b]) < b:
        raise ConlluError(end, f"duplicate sentence id {ids[b]!r}")
    w = words[offsets[b] : offsets[b + 1]].tolist()
    tree = tuple(int(line(i).split("\t")[HEAD_COLUMN]) for i in w)
    reason = validate_tree(tree, len(tree)).reason
    raise ConlluError(w[0] + 1, f"bad head sequence {tree!r}: {reason}")


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


def load_treebank(path: str | Path) -> TreebankFile:
    """Parse the file at ``path``, its stem the parser id; an error names the file."""
    p = Path(path)
    try:
        with open(p, "rb") as fh:
            return parse_conllu(fh, p.stem)
    except ConlluError as e:
        raise ConlluError(e.line_no, e.message, p) from None


def load_treebanks(paths: Sequence[str | Path]) -> list[TreebankFile]:
    """``[load_treebank(p) for p in paths]``, from one scan of all the files.

    Each file's text, read and checked as ``parse_conllu`` reads a binary
    file, is placed between two newlines after the one before. If a file
    cannot be read or the scan fails, the files are loaded one at a time,
    so the first that fails raises the error ``load_treebank`` raises.
    """
    paths = [Path(p) for p in paths]
    buf, segments = bytearray(), []
    try:
        for p in paths:  # a file's bytes live until they are copied into buf
            segments.append(len(buf))
            buf += b"\n"
            with open(p, "rb") as fh:
                buf += _text_bytes(fh.read())
            buf += b"\n"
        parsed = _scan(buf, segments)
    except (ConlluError, OSError):
        return [load_treebank(p) for p in paths]
    return [TreebankFile(p.stem, *part) for p, part in zip(paths, parsed)]


def write_conllu(treebank: TreebankFile, heads: np.ndarray | None = None) -> str:
    """Serialize a treebank, with ``heads`` in place of its own HEAD column.

    ``heads`` is an integer array shaped like ``treebank.heads`` that holds
    a tree per sentence, such as the decoded consensus of an ensemble built
    from this file; anything else raises ``ValueError``, so every written
    file parses back. Each sentence is written as the bytes of its lines
    followed by one empty line, and only the HEAD field of a word line
    whose head changed is replaced, so the output ends with a single
    newline. A parsed file is written back byte for byte, except that CRLF
    endings become LF, blank lines that are whitespace or repeated become
    one empty line, the blank line that ends a file in the UD layout is
    not reproduced, and a leading byte-order mark is dropped.
    """
    span = treebank.spans
    data = treebank.raw.data
    text = b"\n".join([data[a:b] for a, b in span.tolist()])
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
        # each moved word's HEAD in text: where it is in raw, shifted as its sentence is
        size = span[:, 1] - span[:, 0] + 1
        block = np.searchsorted(treebank.offsets, moved, "right") - 1
        shift = (np.cumsum(size) - size - span[:, 0])[block]
        start, stop = (treebank.fields[2:, moved] + shift).tolist()
        pieces, at = [], 0
        for a, b, h in zip(start, stop, heads[moved].tolist()):
            pieces += (text[at:a], b"%d" % h)
            at = b
        text = b"".join([*pieces, text[at:]])
    return text.decode("utf-8", "surrogatepass")


def save_treebank(
    treebank: TreebankFile, path: str | Path, heads: np.ndarray | None = None
) -> None:
    # encoded before the file is opened, so a failed encoding leaves it as it was
    Path(path).write_bytes(write_conllu(treebank, heads).encode("utf-8"))


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
    forms = [f.fields[:2, concat_ranges(f.offsets[keep], q[0, keep])] for f in files]
    size = np.stack([stop - start for start, stop in forms])
    differ = (size != size[0]).any(axis=0)
    # FORMs of one byte length in every file are compared byte by byte
    alike = np.flatnonzero(~differ)
    at = concat_ranges(np.zeros_like(alike), size[0, alike])  # offset in its FORM
    owner = np.repeat(alike, size[0, alike])
    chars = np.stack([f.raw[start[owner] + at] for f, (start, _) in zip(files, forms)])
    differ[owner[(chars != chars[0]).any(axis=0)]] = True
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
