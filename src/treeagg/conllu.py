"""CoNLL-U reading and writing.

A sentence keeps the verbatim lines of its block. Only the ID, FORM and
HEAD columns of word lines are read; comments, multiword-token ranges,
empty nodes and the other columns pass through untouched, and writing
rewrites only the HEAD column of the word lines whose head changed. Input
may use LF or CRLF line endings; output is LF, with each sentence followed
by one empty line and the file ending in a single newline.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence

from .trees import DepTree, InvalidTreeError, ParseEnsemble, Sentence

_WORD_ID = re.compile(r"[1-9][0-9]*$")
_RANGE_ID = re.compile(r"[0-9]+-[0-9]+$")
_EMPTY_ID = re.compile(r"[0-9]+\.[0-9]+$")
_SENT_ID = re.compile(r"#\s*sent_id\s*=\s*(.+)$")

N_COLUMNS = 10
HEAD_COLUMN = 6


class ConlluError(ValueError):
    """Malformed CoNLL-U input; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class TreebankFile:
    """One parser's (or the gold) trees for a whole treebank."""

    parser_id: str
    sentences: tuple[Sentence, ...]

    def __len__(self) -> int:
        return len(self.sentences)

    @property
    def trees(self) -> tuple[DepTree, ...]:
        return tuple(s.tree for s in self.sentences)

    def subset(self, positions: Sequence[int]) -> "TreebankFile":
        picked = tuple(self.sentences[i] for i in positions)
        return replace(self, sentences=picked)


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

    sentences: list[Sentence] = []
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
            tree = DepTree(heads)
        except InvalidTreeError as e:
            raise ConlluError(first_word_line, str(e)) from None
        sentences.append(Sentence(sid, tuple(block), tuple(words), tuple(forms), tree))

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

    return TreebankFile(parser_id, tuple(sentences))


def load_treebank(path: str | Path, parser_id: str | None = None) -> TreebankFile:
    p = Path(path)
    with open(p, encoding="utf-8", newline="") as fh:
        return parse_conllu(fh, parser_id if parser_id is not None else p.stem)


def write_conllu(
    treebank: TreebankFile, predicted: Mapping[str, DepTree] | None = None
) -> str:
    """Serialize a treebank, substituting trees from ``predicted`` by id.

    Sentences absent from ``predicted`` keep their own trees. Each sentence
    is written as its verbatim lines followed by one empty line, and only
    the HEAD column of a word line whose head changed is rewritten, so the
    output ends with a single newline. A parsed file is written back byte
    for byte, except that CRLF endings become LF, blank lines that are
    whitespace or repeated become one empty line, and the blank line that
    ends a file in the UD layout is not reproduced.
    """
    out: list[str] = []
    for sentence in treebank.sentences:
        lines: Sequence[str] = sentence.lines
        if predicted is not None and sentence.sentence_id in predicted:
            tree = predicted[sentence.sentence_id]
            if len(tree) != len(sentence):
                raise ValueError(
                    f"sentence {sentence.sentence_id!r}: predicted tree over "
                    f"{len(tree)} tokens, sentence has {len(sentence)}"
                )
            if tree != sentence.tree:
                lines = list(lines)
                for w, old, new in zip(sentence.words, sentence.tree.heads, tree.heads):
                    if old != new:
                        cols = lines[w].split("\t")
                        cols[HEAD_COLUMN] = str(new)
                        lines[w] = "\t".join(cols)
        out.extend(lines)
        out.append("")
    return "\n".join(out)


def save_treebank(
    treebank: TreebankFile,
    path: str | Path,
    predicted: Mapping[str, DepTree] | None = None,
) -> None:
    Path(path).write_text(write_conllu(treebank, predicted), encoding="utf-8")


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
    flags = []
    for group in zip(*(f.sentences for f in files)):
        ref = group[0].forms
        flags.append(all(s.forms == ref for s in group[1:]))
    return flags


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
    trees = {
        files[0].sentences[i].sentence_id: tuple(f.sentences[i].tree for f in files)
        for i in range(n)
    }
    return ParseEnsemble(tuple(f.parser_id for f in files), trees)
