"""CoNLL-U parsing, serialization, and cross-file checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeagg.conllu import (
    ConlluError,
    build_ensemble,
    check_segmentation,
    load_treebank,
    parse_conllu,
    save_treebank,
    write_conllu,
)
from treeagg.trees import DepTree

from helpers import conllu_text, head_sequences, reference_parse_conllu

# Comments, a multiword range, and an empty node, all of which must
# survive a parse/write cycle byte for byte.
FULL_FIXTURE = """# sent_id = rt1
# text = ab c
1-2\tab\t_\t_\t_\t_\t_\t_\t_\tSpaceAfter=No
1\ta\tA\tDET\t_\t_\t2\tdet\t_\t_
2\tb\tB\tNOUN\t_\t_\t0\troot\t_\t_
2.1\tc\tC\tVERB\t_\t_\t_\t_\t_\t_
3\tc\tC\tPUNCT\t_\t_\t2\tpunct\t_\t_

# sent_id = rt2
1\td\tD\tNOUN\t_\t_\t0\troot\t_\t_
"""


def test_parse_minimal():
    tb = parse_conllu(conllu_text([("s1", ["a", "b"], [0, 1])]), "p")
    assert tb.parser_id == "p"
    assert len(tb) == 1
    assert tb.sentences[0].sentence_id == "s1"
    assert tb.trees == (DepTree((0, 1)),)


def test_parse_assigns_fallback_sentence_ids():
    text = "1\ta\t_\t_\t_\t_\t0\t_\t_\t_\n"
    tb = parse_conllu(text)
    assert tb.sentences[0].sentence_id == "s1"


def test_parse_extras_and_comments():
    tb = parse_conllu(FULL_FIXTURE)
    s = tb.sentences[0]
    assert s.lines == tuple(FULL_FIXTURE.split("\n\n")[0].split("\n"))
    assert s.lines[:2] == ("# sent_id = rt1", "# text = ab c")
    assert s.forms == ("a", "b", "c")
    assert s.tree == DepTree((2, 0, 2))
    # the range line comes before word 1, the empty node between words 2 and 3
    assert s.words == (3, 4, 6)
    assert s.lines[s.words[2]].split("\t")[3] == "PUNCT"


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConlluError) as err:
        parse_conllu("1\ta\t_\t_\t_\t_\t0\t_\t_\n")  # 9 columns
    assert err.value.line_no == 1

    bad_head = "1\ta\t_\t_\t_\t_\tx\t_\t_\t_\n"
    with pytest.raises(ConlluError, match="non-integer HEAD"):
        parse_conllu(bad_head)

    skipped = "1\ta\t_\t_\t_\t_\t0\t_\t_\t_\n3\tb\t_\t_\t_\t_\t1\t_\t_\t_\n"
    with pytest.raises(ConlluError, match="out of sequence"):
        parse_conllu(skipped)

    with pytest.raises(ConlluError, match="unrecognized token id"):
        parse_conllu("x\ta\t_\t_\t_\t_\t0\t_\t_\t_\n")

    first = "1\ta\t_\t_\t_\t_\t0\t_\t_\t_\n"
    # ids must be ASCII digits without leading zeros
    for ident in ("01", "\u0661", "\u00b2"):
        with pytest.raises(ConlluError, match="unrecognized token id") as err:
            parse_conllu(first + f"{ident}\tb\t_\t_\t_\t_\t1\t_\t_\t_\n")
        assert err.value.line_no == 2
    # so must HEADs, though zero padding is read as the number
    for head in ("\u0661", "\u00b2", ""):
        with pytest.raises(ConlluError, match="non-integer HEAD") as err:
            parse_conllu(first + f"2\tb\t_\t_\t_\t_\t{head}\t_\t_\t_\n")
        assert err.value.line_no == 2
    # a HEAD too long for int64 is shown in full, not clamped
    with pytest.raises(ConlluError) as err:
        parse_conllu(first + f"2\tb\t_\t_\t_\t_\t{'9' * 20}\t_\t_\t_\n")
    assert (err.value.line_no, str(err.value)) == (
        1, f"line 1: bad head sequence (0, {'9' * 20}): out-of-range"
    )
    padded = first + "2\tb\t_\t_\t_\t_\t01\t_\t_\t_\n"
    tb = parse_conllu(padded)
    assert tb.trees == (DepTree((0, 1)),)
    assert write_conllu(tb, np.array([0, 1])) == padded
    assert write_conllu(tb, np.array([2, 0])).split("\n")[1].split("\t")[6] == "0"


def test_parse_rejects_cycles_with_first_word_line():
    text = "# c\n1\ta\t_\t_\t_\t_\t2\t_\t_\t_\n2\tb\t_\t_\t_\t_\t1\t_\t_\t_\n"
    with pytest.raises(ConlluError) as err:
        parse_conllu(text)
    assert err.value.line_no == 2
    assert "cycle" in str(err.value)
    # a zero-padded HEAD of 20 digits is shown as its value
    padded = f"1\ta\t_\t_\t_\t_\t{'0' * 19}2\t_\t_\t_\n2\tb\t_\t_\t_\t_\t1\t_\t_\t_\n"
    with pytest.raises(ConlluError) as err:
        parse_conllu(padded)
    assert str(err.value) == "line 1: bad head sequence (2, 1): cycle"


def _word(ident, head, n_columns=10):
    return "\t".join([str(ident), "a", "_", "_", "_", "_", str(head), "_", "_", "_"][:n_columns])


def test_parse_raises_the_error_a_line_reader_meets_first():
    # a broken block is met at the blank line after it, so its error beats
    # any error in a later block; a tree error names the block's first word
    cases = [
        (["# sent_id = a", _word(1, 2), _word(2, 1), "", _word(1, 0, 9), ""],
         2, "bad head sequence (2, 1): cycle"),
        (["# sent_id = a", _word(1, 0), "", "# sent_id = a", _word(1, 0), "", _word("x", 0), ""],
         6, "duplicate sentence id 'a'"),
        # the last block of a file without a final newline is met at its last
        # line, and the bad HEAD there comes first
        ([_word(1, 2), _word(2, 1), _word(3, "x")], 3, "non-integer HEAD 'x'"),
        (["# sent_id = a", _word(1, 0), "", "# sent_id = b"],
         4, "sentence block without word lines"),
    ]
    for lines, line_no, message in cases:
        text = "\n".join(lines)
        for parse in (parse_conllu, reference_parse_conllu):
            with pytest.raises(ConlluError) as err:
                parse(text)
            assert (err.value.line_no, str(err.value)) == (line_no, f"line {line_no}: {message}")


def test_parse_rejects_duplicate_sentence_ids():
    text = conllu_text([("s1", ["a"], [0]), ("s1", ["b"], [0])])
    with pytest.raises(ConlluError, match="duplicate sentence id"):
        parse_conllu(text)


def test_parse_rejects_comment_after_words():
    text = "1\ta\t_\t_\t_\t_\t0\t_\t_\t_\n# late\n"
    with pytest.raises(ConlluError, match="comment after word lines"):
        parse_conllu(text)


def test_parse_rejects_commentonly_block():
    with pytest.raises(ConlluError, match="without word lines"):
        parse_conllu("# sent_id = s1\n\n")


def test_crlf_input_parses_like_lf():
    text = conllu_text([("s1", ["a", "b"], [0, 1])])
    crlf = text.replace("\n", "\r\n")
    assert write_conllu(parse_conllu(crlf)) == write_conllu(parse_conllu(text))


def test_parse_accepts_line_iterables_with_or_without_endings():
    expected = parse_conllu(FULL_FIXTURE)
    crlf = FULL_FIXTURE.replace("\n", "\r\n")
    for lines in (
        FULL_FIXTURE.splitlines(),
        FULL_FIXTURE.splitlines(keepends=True),
        crlf.splitlines(keepends=True),
        crlf.split("\n"),
    ):
        assert parse_conllu(lines) == expected
        assert write_conllu(parse_conllu(lines)) == FULL_FIXTURE


def test_write_ends_every_sentence_with_one_empty_line():
    # The output ends in a single newline: the blank line that ends a file
    # in the UD layout is not reproduced. Keeping it would change every
    # output file, so a change here must be deliberate.
    one = "1\ta\t_\t_\t_\t_\t0\t_\t_\t_"
    two = "1\tb\t_\t_\t_\t_\t0\t_\t_\t_"
    expected = f"{one}\n\n{two}\n"
    for source in (
        f"{one}\n\n{two}",
        f"{one}\n\n{two}\n",
        f"{one}\n\n{two}\n\n",
        f"\n{one}\n \n\n{two}\n\n\n",
        f"{one}\r\n\r\n{two}\r\n\r\n",
    ):
        assert write_conllu(parse_conllu(source)) == expected
    assert write_conllu(parse_conllu("")) == ""


def test_roundtrip_is_byte_identical():
    tb = parse_conllu(FULL_FIXTURE)
    assert write_conllu(tb) == FULL_FIXTURE


def test_write_substitutes_only_head_fields():
    tb = parse_conllu(FULL_FIXTURE)
    heads = tb.heads.copy()
    heads[:3] = (0, 1, 2)  # rt1's words; rt2 keeps its own head
    out = write_conllu(tb, heads)
    original = FULL_FIXTURE.split("\n")
    changed = out.split("\n")
    assert len(original) == len(changed)
    for before, after in zip(original, changed):
        if before == after:
            continue
        cols_b, cols_a = before.split("\t"), after.split("\t")
        diff = [i for i in range(10) if cols_b[i] != cols_a[i]]
        assert diff == [6]
    # a sentence left at its own heads keeps its lines
    assert changed[-3] == original[-3]


def test_write_rejects_token_count_mismatch():
    tb = parse_conllu(conllu_text([("s1", ["a", "b"], [0, 1])]))
    for heads in ([0], [0, 1, 1], [[0, 1]], np.array([0.0, 1.0])):
        with pytest.raises(ValueError, match="want integers of shape"):
            write_conllu(tb, np.asarray(heads))


def test_write_rejects_heads_that_are_no_tree():
    tb = parse_conllu(conllu_text([("s1", ["a"], [0]), ("s2", ["a", "b"], [0, 1])]))
    for heads in ([0, 2, 1], [0, 0, 3], [0, 1, 2], [1, 0, 1], [-1, 0, 1]):
        with pytest.raises(ValueError, match="heads do not form a tree") as err:
            write_conllu(tb, np.array(heads))
        assert ("'s1'" in str(err.value)) == (heads[0] != 0)
    assert write_conllu(tb, np.array([0, 2, 0])).count("\t0\t") == 2


def test_load_and_save(tmp_path):
    path = tmp_path / "sample.conllu"
    path.write_text(FULL_FIXTURE, encoding="utf-8")
    tb = load_treebank(path)
    assert tb.parser_id == "sample"  # stem is the default id
    out = tmp_path / "copy.conllu"
    save_treebank(tb, out)
    assert out.read_text(encoding="utf-8") == FULL_FIXTURE
    assert load_treebank(path, "other").parser_id == "other"


def test_subset_picks_positions():
    tb = parse_conllu(
        conllu_text([("s1", ["a"], [0]), ("s2", ["b"], [0]), ("s3", ["c"], [0])])
    )
    sub = tb.subset([0, 2])
    assert [s.sentence_id for s in sub.sentences] == ["s1", "s3"]


def test_check_segmentation_flags_form_mismatches():
    a = parse_conllu(conllu_text([("s1", ["x", "y"], [0, 1]), ("s2", ["z"], [0])]), "a")
    b = parse_conllu(conllu_text([("s1", ["x", "y"], [2, 0]), ("s2", ["w"], [0])]), "b")
    assert check_segmentation([a, b]) == [True, False]
    short = parse_conllu(conllu_text([("s1", ["x", "y"], [0, 1])]), "c")
    with pytest.raises(ValueError, match="sentence counts differ"):
        check_segmentation([a, short])
    with pytest.raises(ValueError, match="no files"):
        check_segmentation([])


def test_build_ensemble_aligns_by_position():
    a = parse_conllu(conllu_text([("s1", ["x"], [0]), ("s2", ["y", "z"], [0, 1])]), "a")
    b = parse_conllu(conllu_text([("t1", ["x"], [0]), ("t2", ["y", "z"], [2, 0])]), "b")
    ens = build_ensemble([a, b])
    assert ens.parser_ids == ("a", "b")
    # ids come from the first file; the second file's ids are ignored
    assert ens.sentence_ids == ("s1", "s2")
    assert ens.offsets.tolist() == [0, 1, 3]
    assert ens.heads.tolist() == [[0, 0, 1], [0, 2, 0]]
    short = parse_conllu(conllu_text([("s1", ["x"], [0])]), "c")
    with pytest.raises(ValueError, match="has 1 sentences"):
        build_ensemble([a, short])
    with pytest.raises(ValueError, match="no parser files"):
        build_ensemble([])
    with pytest.raises(ValueError, match="duplicate parser ids"):
        build_ensemble([a, b, a])
    longer = parse_conllu(conllu_text([("s1", ["x"], [0]), ("s2", ["y"], [0])]), "d")
    with pytest.raises(ValueError, match="sentence 's2': parsers disagree on token count"):
        build_ensemble([a, longer])


# ------------------------------------------------ properties


_FIELD = st.text(alphabet="abXY_:=|-. ", min_size=1, max_size=4)


@st.composite
def conllu_blocks(draw):
    """One CoNLL-U block as (lines, tree): comments, word lines with
    optionally zero-padded HEADs, multiword ranges and empty nodes."""
    tree = draw(head_sequences(draw(st.integers(1, 6))))
    q = len(tree)
    lines = [f"# {draw(_FIELD)}" for _ in range(draw(st.integers(0, 2)))]
    for d, h in enumerate(tree.heads, start=1):
        if d < q and draw(st.booleans()):
            lines.append(f"{d}-{d + 1}\t{draw(_FIELD)}" + "\t_" * 8)
        head = f"0{h}" if draw(st.booleans()) else str(h)
        cols = [str(d)] + [draw(_FIELD) for _ in range(5)] + [head]
        lines.append("\t".join(cols + [draw(_FIELD) for _ in range(3)]))
        if draw(st.booleans()):
            lines.append(f"{d}.1\t{draw(_FIELD)}" + "\t_" * 8)
    return lines, tree


@st.composite
def conllu_files(draw):
    blocks = draw(st.lists(conllu_blocks(), min_size=1, max_size=4))
    for i, (lines, _) in enumerate(blocks):
        if draw(st.booleans()):
            lines.insert(0, f"# sent_id = b{i}")
    return blocks, draw(st.booleans()), draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(conllu_files(), st.data())
def test_write_reproduces_source_and_moves_only_heads(source, data):
    blocks, final_blank, crlf = source
    expected = "\n\n".join("\n".join(lines) for lines, _ in blocks) + "\n"
    text = expected + ("\n" if final_blank else "")
    if crlf:
        text = text.replace("\n", "\r\n")
    tb = parse_conllu(text)
    assert tb.trees == tuple(tree for _, tree in blocks)
    assert write_conllu(tb) == expected

    predicted = {
        s.sentence_id: data.draw(head_sequences(len(s))) for s in tb.sentences
    }
    heads = np.array([h for tree in predicted.values() for h in tree.heads])
    before = expected.split("\n")
    after = write_conllu(tb, heads).split("\n")
    assert len(after) == len(before)
    moved = set()
    offset = 0
    for s in tb.sentences:
        for w, old, new in zip(s.words, s.tree.heads, predicted[s.sentence_id].heads):
            if old != new:
                moved.add(offset + w)
                cols = before[offset + w].split("\t")
                cols[6] = str(new)
                assert after[offset + w] == "\t".join(cols)
        offset += len(s.lines) + 1
    assert [i for i, (b, a) in enumerate(zip(before, after)) if b != a] == sorted(moved)


# ------------------------------------------- the scan against the line loop

_MUTANT_HEADS = ("x", "", "٣", "-1", "0", "1", "2", "3", "7", "00", "0" * 20 + "2", "9" * 20)
_MUTANT_IDS = (
    "0", "1", "2", "3", "4", "01", "x", "1a", "1-2", "2.1", "1.", "-1", "١", "10",
    "9" * 20,
)
_INSERTED = (
    "", " ", "\t", "\x1c", " ", "# sent_id = b0", "# sent_id =  ", "#", "# c",
    "x", " 1", "1-2" + "\t_" * 9, "1.1" + "\t_" * 9, "1\ta\t_\t_\t_\t_\t0\t_\t_\t_",
)


@st.composite
def mutated_conllu(draw):
    """Text from ``conllu_files`` with up to three mutations: a new HEAD or
    ID on a token line, or the same value zero-padded; a column more or
    less; an inserted, deleted or copied line; a sent_id comment at the
    start of a block. The final newline is dropped at random. Between them
    they earn every ``ConlluError``; many texts stay valid."""
    blocks, final_blank, crlf = draw(conllu_files())
    lines = "\n\n".join("\n".join(b) for b, _ in blocks).split("\n")
    if final_blank:
        lines.append("")
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(
            st.sampled_from(
                ("head", "pad_head", "id", "pad_id", "columns", "insert", "delete", "copy", "sid")
            )
        )
        tokens = [j for j, line in enumerate(lines) if "\t" in line]
        i = draw(st.sampled_from(tokens if kind in ("head", "pad_head", "id", "pad_id") and tokens
                                 else range(len(lines))))
        cols = lines[i].split("\t")
        if kind == "head" and len(cols) == 10:
            cols[6] = draw(st.sampled_from(_MUTANT_HEADS))
        elif kind == "pad_head" and len(cols) == 10:
            cols[6] = "0" * draw(st.sampled_from((1, 17, 20))) + cols[6]
        elif kind == "id":
            cols[0] = draw(st.sampled_from(_MUTANT_IDS))
        elif kind == "pad_id":
            cols[0] = "0" + cols[0]
        elif kind == "columns":
            cols = cols[:-1] if len(cols) > 1 and draw(st.booleans()) else cols + ["_"]
        elif kind == "insert":
            lines.insert(i, draw(st.sampled_from(_INSERTED)))
            continue
        elif kind == "delete" and len(lines) > 1:
            del lines[i]
            continue
        elif kind == "copy":
            cols = draw(st.sampled_from(lines)).split("\t")
        elif kind == "sid":
            starts = [j for j in range(len(lines)) if j == 0 or not lines[j - 1]]
            sid = draw(st.sampled_from(("b0", "b1", "s1", "s2", "b1 ", " ")))
            lines.insert(draw(st.sampled_from(starts)), f"# sent_id = {sid}")
            continue
        lines[i] = "\t".join(cols)
    text = "\n".join(lines) + draw(st.sampled_from(("\n", "")))
    return text.replace("\n", "\r\n") if crlf else text


@settings(max_examples=600, deadline=None)
@given(mutated_conllu())
def test_scan_agrees_with_the_line_loop(text):
    try:
        expected = reference_parse_conllu(text)
    except ConlluError as e:
        with pytest.raises(ConlluError) as err:
            parse_conllu(text)
        assert (str(err.value), err.value.line_no) == (str(e), e.line_no)
        return
    tb = parse_conllu(text)
    got = [(s.sentence_id, s.lines, s.words, s.forms, s.tree.heads) for s in tb.sentences]
    assert got == expected
    assert tb.heads.tolist() == [h for *_, heads in expected for h in heads]
