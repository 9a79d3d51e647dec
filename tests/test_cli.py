"""End-to-end command line runs, in process via cli.run."""

import json
import os
import subprocess
import sys
from dataclasses import asdict
from functools import partial
from pathlib import Path

import pytest

from helpers import conllu_text
from treeagg import cim, crh
from treeagg.cli import EXIT_ERROR, EXIT_OK, EXIT_REJECTED, build_parser, run
from treeagg.conllu import build_ensemble, load_treebank, load_treebanks
from treeagg.crh import CrhOptions, crh_run
from treeagg.edges import label_matrix, tree_labels
from treeagg.evaluation import preprocess, rank_and_select


def write(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def test_synth_writes_corpus_manifest_and_is_reproducible(tmp_path):
    args = [
        "synth",
        "--sentences", "40",
        "--tokens", "7:10",
        "--rates", "0.0,0.15,0.3",
        "--seed", "5",
        "--duplicate-of", "1",
    ]
    assert run([*args, "--out-dir", str(tmp_path / "a")]) == EXIT_OK
    assert run([*args, "--out-dir", str(tmp_path / "b")]) == EXIT_OK
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["parsers"] == ["parser_1", "parser_2", "parser_3", "parser_4"]
    assert manifest["rates"] == [0.0, 0.15, 0.3]
    assert manifest["duplicates"] == [1]
    assert manifest["accuracies"] == [1.0, 0.85, 0.7, 0.85]
    for rel in ("gold.conllu", "parsers/parser_2.conllu"):
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
    # the argument parser is built once per process; a run without
    # --duplicate-of must not see the earlier runs' duplicates
    assert run([*args[:-2], "--out-dir", str(tmp_path / "c")]) == EXIT_OK
    manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
    assert manifest["duplicates"] == []
    assert manifest["parsers"] == ["parser_1", "parser_2", "parser_3"]


def test_synth_rejects_bad_rates(tmp_path, capsys):
    code = run(
        [
            "synth",
            "--out-dir", str(tmp_path),
            "--sentences", "10",
            "--tokens", "5:8",
            "--rates", "0.2,1.0",
            "--seed", "1",
        ]
    )
    assert code == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error:")


def test_full_pipeline(tmp_path):
    corpus = tmp_path / "corpus"
    filtered = tmp_path / "filtered"
    rates = ",".join(str(round(0.05 + 0.04 * j, 2)) for j in range(9))
    assert run(
        [
            "synth",
            "--out-dir", str(corpus),
            "--sentences", "80",
            "--tokens", "6:9",
            "--rates", rates,
            "--seed", "3",
        ]
    ) == EXIT_OK

    assert run(
        [
            "preprocess",
            "--inputs", str(corpus / "parsers"),
            "--gold", str(corpus / "gold.conllu"),
            "--out-dir", str(filtered),
        ]
    ) == EXIT_OK
    filters = json.loads((filtered / "filters.json").read_text())
    assert filters["rejected"] is None
    assert filters["kept"] >= 50
    assert filters["n_parsers"] == 9

    selected = tmp_path / "selected.json"
    assert run(
        [
            "rank",
            "--inputs", str(filtered / "parsers"),
            "--gold", str(filtered / "gold.conllu"),
            "--seed", "3",
            "--out", str(selected),
        ]
    ) == EXIT_OK
    ranking = json.loads(selected.read_text())
    assert len(ranking["selected"]) == 9
    assert len(ranking["table"]) == 9
    assert ranking["seed"] == 3

    preds = {}
    for method in ("mst", "crh", "cim"):
        out = tmp_path / f"pred_{method}.conllu"
        argv = [
            "aggregate",
            "--inputs", str(filtered / "parsers"),
            "--selected", str(selected),
            "--method", method,
            "--out", str(out),
        ]
        if method == "mst":
            argv += ["--dump-matrix", str(tmp_path / "matrix.tsv")]
        if method == "cim":
            argv += ["--diagnostics", str(tmp_path / "diag.json")]
        assert run(argv) == EXIT_OK
        preds[method] = out

    matrix_lines = (tmp_path / "matrix.tsv").read_text().splitlines()
    assert all(len(line.split("\t")) == 3 + 9 for line in matrix_lines)
    diag = json.loads((tmp_path / "diag.json").read_text())
    assert set(diag["fit"]) == {"grad_norm", "iterations", "converged", "plugin"}
    assert set(diag["correlation_fit"]) == {"iterations", "converged"}
    assert len(diag["theta0_plus"]) == len(diag["components"])

    report_path = tmp_path / "report.json"
    assert run(
        [
            "evaluate",
            "--gold", str(filtered / "gold.conllu"),
            "--pred", f"mst={preds['mst']}",
            "--pred", f"crh={preds['crh']}",
            "--pred", f"cim={preds['cim']}",
            "--inputs", str(filtered / "parsers"),
            "--selected", str(selected),
            "--filters", str(filtered / "filters.json"),
            "--treebank", "demo",
            "--out", str(report_path),
        ]
    ) == EXIT_OK
    report = json.loads(report_path.read_text())
    assert report["treebank"] == "demo"
    assert set(report["methods"]) == {"mst", "crh", "cim", "best_parser", "avg_parser"}
    assert all(0.0 < v <= 100.0 for v in report["methods"].values())
    assert report["filters"] == {
        "seg_dropped": filters["seg_dropped"],
        "agree_dropped": filters["agree_dropped"],
    }

    summary_path = tmp_path / "summary.json"
    assert run(
        [
            "report",
            "--reports", str(report_path),
            "--out", str(summary_path),
        ]
    ) == EXIT_OK
    summary = json.loads(summary_path.read_text())
    assert set(summary["groups"]["all"]) == set(report["methods"])
    assert summary["groups"]["all"]["cim"]["n"] == 1
    assert set(summary["diffs"]["all"]) == {"mst", "crh", "best_parser", "avg_parser"}


def test_aggregate_reproduces_unanimous_parsers(tmp_path):
    sentences = [
        ("s1", ["a", "b", "c"], [0, 1, 1]),
        ("s2", ["d", "e"], [2, 0]),
    ]
    text = conllu_text(sentences)
    write(tmp_path / "parsers" / "p1.conllu", text)
    write(tmp_path / "parsers" / "p2.conllu", text)
    out = tmp_path / "pred.conllu"
    assert run(
        [
            "aggregate",
            "--inputs", str(tmp_path / "parsers"),
            "--method", "mst",
            "--out", str(out),
        ]
    ) == EXIT_OK
    predicted = load_treebank(out)
    assert [s.tree.heads for s in predicted.sentences] == [(0, 1, 1), (2, 0)]


def test_evaluate_perfect_prediction_scores_100(tmp_path):
    gold = write(
        tmp_path / "gold.conllu",
        conllu_text([("s1", ["a", "b"], [0, 1]), ("s2", ["c"], [0])]),
    )
    out = tmp_path / "r.json"
    assert run(
        [
            "evaluate",
            "--gold", str(gold),
            "--pred", f"self={gold}",
            "--out", str(out),
        ]
    ) == EXIT_OK
    assert json.loads(out.read_text())["methods"]["self"] == 100.0


def test_evaluate_selected_without_inputs_exits_with_error(tmp_path, capsys):
    gold = write(tmp_path / "gold.conllu", conllu_text([("s1", ["a", "b"], [0, 1])]))
    selected = write(tmp_path / "sel.json", json.dumps({"selected": ["nobody"]}))
    out = tmp_path / "r.json"
    code = run(
        [
            "evaluate",
            "--gold", str(gold),
            "--pred", f"self={gold}",
            "--selected", str(selected),
            "--out", str(out),
        ]
    )
    assert code == EXIT_ERROR
    assert capsys.readouterr().err == "error: --selected needs --inputs\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "names, name",
    [(["a", "a"], "a"), (["best_parser"], "best_parser"), (["p", "avg_parser"], "avg_parser"), ([""], "")],
)
def test_evaluate_rejects_a_method_name_it_would_lose(tmp_path, capsys, names, name):
    # a repeated name would keep only the last score, and a baseline name
    # would be overwritten by the --inputs baseline
    gold = write(tmp_path / "gold.conllu", conllu_text([("s1", ["a", "b"], [0, 1])]))
    write(tmp_path / "parsers" / "p1.conllu", gold.read_text())
    out = tmp_path / "r.json"
    preds = [arg for n in names for arg in ("--pred", f"{n}={gold}")]
    argv = ["evaluate", "--gold", str(gold), *preds, "--out", str(out)]
    code = run([*argv, "--inputs", str(tmp_path / "parsers")])
    assert code == EXIT_ERROR
    assert capsys.readouterr().err == (
        f"error: --pred NAME {name!r} is empty, repeated or an --inputs baseline\n"
    )
    assert not out.exists()


def test_evaluate_exclude_punct_skips_punct_words(tmp_path):
    def sentence(punct_head):
        return (
            "# sent_id = s1\n"
            "1\ta\ta\tNOUN\t_\t_\t0\troot\t_\t_\n"
            "2\tb\tb\tVERB\t_\t_\t1\tdep\t_\t_\n"
            "2.1\t,\t,\tPUNCT\t_\t_\t_\t_\t_\t_\n"
            f"3\t.\t.\tPUNCT\t_\t_\t{punct_head}\tpunct\t_\t_\n"
            "\n"
            "# sent_id = s2\n"
            "1\tc\tc\tNOUN\t_\t_\t0\troot\t_\t_\n"
        )

    gold = write(tmp_path / "gold.conllu", sentence(1))
    pred = write(tmp_path / "parsers" / "p1.conllu", sentence(2))
    scores = {}
    for flag in ([], ["--exclude-punct"]):
        out = tmp_path / "r.json"
        assert run(
            [
                "evaluate",
                "--gold", str(gold),
                "--pred", f"p={pred}",
                "--inputs", str(tmp_path / "parsers"),
                "--out", str(out),
                *flag,
            ]
        ) == EXIT_OK
        scores[bool(flag)] = json.loads(out.read_text())["methods"]
    # the wrong head is on the PUNCT word 3; the empty node is not a word
    assert scores[False]["p"] == pytest.approx(75.0)
    assert scores[True]["p"] == 100.0
    assert scores[True]["best_parser"] == scores[True]["avg_parser"] == 100.0


def test_missing_inputs_exit_with_error(tmp_path, capsys):
    code = run(
        [
            "aggregate",
            "--inputs", str(tmp_path / "nowhere"),
            "--method", "mst",
            "--out", str(tmp_path / "x.conllu"),
        ]
    )
    assert code == EXIT_ERROR
    assert "error:" in capsys.readouterr().err


def test_empty_treebank_cim_exits_with_error(tmp_path, capsys):
    for k in range(3):
        write(tmp_path / "parsers" / f"p{k}.conllu", "")
    argv = ["aggregate", "--inputs", str(tmp_path / "parsers")]
    for method in ("mst", "crh"):
        out = tmp_path / f"{method}.conllu"
        assert run(argv + ["--method", method, "--out", str(out)]) == EXIT_OK
        assert out.read_text() == ""
    code = run(argv + ["--method", "cim", "--out", str(tmp_path / "cim.conllu")])
    assert code == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "cim.conllu").exists()


def test_parse_errors_name_their_file(tmp_path, capsys):
    # one bad file among eleven: the message says which file and which line
    text = conllu_text([("s1", ["a", "b"], [0, 1]), ("s2", ["é", "中"], [2, 0])])
    for k in range(11):
        write(tmp_path / "parsers" / f"p{k:02d}.conllu", text)
    gold = write(tmp_path / "gold.conllu", text)
    bad = tmp_path / "parsers" / "p07.conllu"
    argv = [
        "preprocess",
        "--inputs", str(tmp_path / "parsers"),
        "--gold", str(gold),
        "--out-dir", str(tmp_path / "filtered"),
    ]
    lines = text.split("\n")
    lines[5] = lines[5].rsplit("\t", 1)[0]
    bad.write_text("\n".join(lines), encoding="utf-8")
    assert run(argv) == EXIT_ERROR
    assert capsys.readouterr().err == (
        f"error: {bad}: line 6: expected 10 columns, found 9\n"
    )
    # a byte that is not UTF-8, after two-byte characters on an earlier line
    data = text.encode("utf-8")
    at = data.index("中".encode("utf-8"))
    bad.write_bytes(data[:at] + b"\xff" + data[at + 1 :])
    assert run(argv) == EXIT_ERROR
    assert capsys.readouterr().err == (
        f"error: {bad}: line 7: byte 0xff is not UTF-8 (invalid start byte)\n"
    )
    assert not (tmp_path / "filtered").exists()


def test_a_directory_reports_its_first_failing_file(tmp_path, capsys):
    # file 2 of 3 is malformed and file 3 cannot be read: the error is file 2's
    text = conllu_text([("s1", ["a", "b"], [0, 1]), ("s2", ["c"], [0])])
    write(tmp_path / "parsers" / "p1.conllu", text)
    bad = write(tmp_path / "parsers" / "p2.conllu", text.replace("\t0\t", "\t3\t", 1))
    unreadable = tmp_path / "parsers" / "p3.conllu"
    unreadable.mkdir()
    argv = ["aggregate", "--inputs", str(tmp_path / "parsers"), "--method", "mst",
            "--out", str(tmp_path / "mst.conllu")]
    assert run(argv) == EXIT_ERROR
    assert capsys.readouterr().err == (
        f"error: {bad}: line 2: bad head sequence (3, 1): out-of-range\n"
    )
    # with file 2 mended, the unreadable file's OSError is the error
    write(bad, text)
    assert run(argv) == EXIT_ERROR
    with pytest.raises(OSError) as err:
        open(unreadable, "rb")
    assert capsys.readouterr().err == f"error: {err.value}\n"
    assert not (tmp_path / "mst.conllu").exists()


def test_preprocess_rejects_thin_ensembles(tmp_path, capsys):
    # eight parser files against the default nine-parser floor
    text = conllu_text([(f"s{i}", ["a", "b"], [0, 1]) for i in range(60)])
    for k in range(8):
        write(tmp_path / "parsers" / f"p{k}.conllu", text)
    gold = write(tmp_path / "gold.conllu", text)
    code = run(
        [
            "preprocess",
            "--inputs", str(tmp_path / "parsers"),
            "--gold", str(gold),
            "--out-dir", str(tmp_path / "filtered"),
        ]
    )
    assert code == EXIT_REJECTED
    assert "treebank rejected: 8 parsers" in capsys.readouterr().err
    log = json.loads((tmp_path / "filtered" / "filters.json").read_text())
    assert log["rejected"] is not None


def test_preprocess_rejects_too_few_survivors(tmp_path, capsys):
    # two disagreeing parsers but only 45 surviving sentences
    a, b = [], []
    for i in range(60):
        if i < 5:
            a.append((f"s{i}", ["a", "b", "c"], [0, 1, 2]))
            b.append((f"s{i}", ["a", "b", "c", "d"], [0, 1, 2, 3]))
        elif i < 15:
            a.append((f"s{i}", ["a", "b", "c"], [0, 1, 1]))
            b.append((f"s{i}", ["a", "b", "c"], [0, 1, 1]))
        else:
            a.append((f"s{i}", ["a", "b", "c"], [0, 1, 2]))
            b.append((f"s{i}", ["a", "b", "c"], [0, 1, 1]))
    gold = [(sid, forms, [0, 1, 2][: len(forms)]) for sid, forms, _ in a]
    write(tmp_path / "parsers" / "pa.conllu", conllu_text(a))
    write(tmp_path / "parsers" / "pb.conllu", conllu_text(b))
    gold_path = write(tmp_path / "gold.conllu", conllu_text(gold))
    code = run(
        [
            "preprocess",
            "--inputs", str(tmp_path / "parsers"),
            "--gold", str(gold_path),
            "--out-dir", str(tmp_path / "filtered"),
            "--min-parsers", "2",
        ]
    )
    assert code == EXIT_REJECTED
    assert "45 surviving sentences" in capsys.readouterr().err


def test_selected_subset_restricts_aggregation(tmp_path):
    corpus = tmp_path / "corpus"
    assert run(
        [
            "synth",
            "--out-dir", str(corpus),
            "--sentences", "20",
            "--tokens", "5:8",
            "--rates", "0.0,0.1,0.2,0.3",
            "--seed", "9",
        ]
    ) == EXIT_OK
    selected = write(
        tmp_path / "sel.json", json.dumps({"selected": ["parser_1", "parser_3"]})
    )
    dump = tmp_path / "matrix.tsv"
    assert run(
        [
            "aggregate",
            "--inputs", str(corpus / "parsers"),
            "--selected", str(selected),
            "--method", "mst",
            "--out", str(tmp_path / "pred.conllu"),
            "--dump-matrix", str(dump),
        ]
    ) == EXIT_OK
    lines = dump.read_text().splitlines()
    assert lines and all(len(line.split("\t")) == 3 + 2 for line in lines)


def test_unknown_selected_parser_errors(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert run(
        [
            "synth",
            "--out-dir", str(corpus),
            "--sentences", "10",
            "--tokens", "5:6",
            "--rates", "0.0,0.2",
            "--seed", "2",
        ]
    ) == EXIT_OK
    selected = write(tmp_path / "sel.json", json.dumps({"selected": ["parser_1", "parser_9"]}))
    code = run(
        [
            "aggregate",
            "--inputs", str(corpus / "parsers"),
            "--selected", str(selected),
            "--method", "mst",
            "--out", str(tmp_path / "pred.conllu"),
        ]
    )
    assert code == EXIT_ERROR
    assert "selected parsers not found: ['parser_9']" in capsys.readouterr().err
    code = run(
        [
            "evaluate",
            "--gold", str(corpus / "gold.conllu"),
            "--pred", f"p1={corpus / 'parsers' / 'parser_1.conllu'}",
            "--inputs", str(corpus / "parsers"),
            "--selected", str(selected),
            "--out", str(tmp_path / "report.json"),
        ]
    )
    assert code == EXIT_ERROR
    assert "selected parsers not found: ['parser_9']" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_empty_parser_selection_errors(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert run(
        [
            "synth",
            "--out-dir", str(corpus),
            "--sentences", "10",
            "--tokens", "5:6",
            "--rates", "0.0,0.1,0.2",
            "--seed", "2",
        ]
    ) == EXIT_OK
    capsys.readouterr()
    rank = [
        "rank",
        "--inputs", str(corpus / "parsers"),
        "--gold", str(corpus / "gold.conllu"),
        "--seed", "1",
        "--out", str(tmp_path / "sel.json"),
    ]
    assert run([*rank, "--top-k", "0"]) == EXIT_ERROR
    assert "top_k must be at least 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "sel.json").exists()

    # a selection file can also be written by hand
    selected = write(tmp_path / "sel.json", json.dumps({"selected": []}))
    aggregate = [
        "aggregate",
        "--inputs", str(corpus / "parsers"),
        "--selected", str(selected),
        "--method", "mst",
        "--out", str(tmp_path / "pred.conllu"),
    ]
    evaluate = [
        "evaluate",
        "--gold", str(corpus / "gold.conllu"),
        "--pred", f"p1={corpus / 'parsers' / 'parser_1.conllu'}",
        "--inputs", str(corpus / "parsers"),
        "--selected", str(selected),
        "--out", str(tmp_path / "report.json"),
    ]
    for argv in (aggregate, evaluate):
        assert run(argv) == EXIT_ERROR
        assert capsys.readouterr().err == "error: the parser selection is empty\n"
    assert not (tmp_path / "pred.conllu").exists()
    assert not (tmp_path / "report.json").exists()


@pytest.fixture
def corpus(tmp_path, capsys):
    """A 10-sentence synth corpus of three parsers."""
    out = tmp_path / "corpus"
    assert run(
        [
            "synth",
            "--out-dir", str(out),
            "--sentences", "10",
            "--tokens", "5:6",
            "--rates", "0.0,0.1,0.2",
            "--seed", "2",
        ]
    ) == EXIT_OK
    capsys.readouterr()
    return out


def test_selection_of_the_wrong_shape_errors(tmp_path, corpus, capsys):
    aggregate = [
        "aggregate",
        "--inputs", str(corpus / "parsers"),
        "--method", "mst",
        "--out", str(tmp_path / "pred.conllu"),
        "--selected",
    ]
    chosen = write(tmp_path / "chosen.json", json.dumps({"chosen": ["parser_1"]}))
    assert run([*aggregate, str(chosen)]) == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {chosen}: missing key 'selected'\n"
    # a selection is the object rank writes, not a bare list of ids
    listed = write(tmp_path / "listed.json", json.dumps(["parser_1"]))
    assert run([*aggregate, str(listed)]) == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {listed}: expected a JSON object, got list\n"
    # a lone id is not split into characters
    one = write(tmp_path / "one.json", json.dumps({"selected": "parser_1"}))
    assert run([*aggregate, str(one)]) == EXIT_ERROR
    assert capsys.readouterr().err == (
        f"error: {one}: 'selected' must be a list of strings, got 'parser_1'\n"
    )
    assert not (tmp_path / "pred.conllu").exists()


def test_rank_with_top_k_above_the_parser_count_keeps_every_parser(tmp_path, corpus, capsys):
    out = tmp_path / "sel.json"
    code = run(["rank", "--inputs", str(corpus / "parsers"), "--gold", str(corpus / "gold.conllu"),
                "--top-k", "5", "--seed", "1", "--out", str(out)])
    assert code == EXIT_OK
    warning = "asked for top 5 of 3 parsers; keeping all"
    assert capsys.readouterr().err == warning + "\n"
    ranking = json.loads(out.read_text())
    assert ranking["warning"] == warning
    assert sorted(ranking["selected"]) == ["parser_1", "parser_2", "parser_3"]


def test_filters_and_selection_files_are_their_records_fields(tmp_path, corpus):
    # filters.json is a FilterLog, selected.json a RankResult without an
    # unset warning
    files = load_treebanks(sorted((corpus / "parsers").glob("*.conllu")))
    gold = load_treebank(corpus / "gold.conllu")
    inputs = ["--inputs", str(corpus / "parsers"), "--gold", str(corpus / "gold.conllu")]
    for floor, code in ((1, EXIT_OK), (100, EXIT_REJECTED)):
        out = tmp_path / f"filtered-{floor}"
        argv = ["preprocess", *inputs, "--out-dir", str(out), "--min-sentences", str(floor),
                "--min-parsers", "3"]
        assert run(argv) == code
        log = preprocess(files, gold, floor, 3).log
        assert json.loads((out / "filters.json").read_text()) == asdict(log)
    for top_k, warned in ((2, False), (5, True)):
        out = tmp_path / f"selected-{top_k}.json"
        argv = ["rank", *inputs, "--top-k", str(top_k), "--seed", "4", "--out", str(out)]
        assert run(argv) == EXIT_OK
        fields = asdict(rank_and_select(build_ensemble(files), gold, top_k=top_k, seed=4))
        if not warned:
            assert fields.pop("warning") is None
        assert json.loads(out.read_text()) == json.loads(json.dumps(fields))


def test_evaluate_pred_without_a_name_errors(tmp_path, corpus, capsys):
    out = tmp_path / "report.json"
    gold = str(corpus / "gold.conllu")
    assert run(["evaluate", "--gold", gold, "--pred", gold, "--out", str(out)]) == EXIT_ERROR
    assert capsys.readouterr().err == f"error: --pred wants NAME=FILE, got {gold!r}\n"
    assert not out.exists()


def test_filters_of_the_wrong_shape_error(tmp_path, corpus, capsys):
    manifest = corpus / "manifest.json"
    code = run(
        [
            "evaluate",
            "--gold", str(corpus / "gold.conllu"),
            "--pred", f"p1={corpus / 'parsers' / 'parser_1.conllu'}",
            "--filters", str(manifest),
            "--out", str(tmp_path / "report.json"),
        ]
    )
    assert code == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {manifest}: missing key 'seg_dropped'\n"
    assert not (tmp_path / "report.json").exists()


def test_filters_with_a_value_of_the_wrong_type_error(tmp_path, corpus, capsys):
    for name, counts, message in (
        ("lettered", {"seg_dropped": "x"}, "'seg_dropped' must be an integer, got 'x'"),
        ("fractional", {"seg_dropped": 1.7}, "'seg_dropped' must be an integer, got 1.7"),
        ("boolean", {"agree_dropped": True}, "'agree_dropped' must be an integer, got True"),
    ):
        filters = write(
            tmp_path / f"{name}.json",
            json.dumps({"seg_dropped": 0, "agree_dropped": 0, **counts}),
        )
        code = run(
            [
                "evaluate",
                "--gold", str(corpus / "gold.conllu"),
                "--pred", f"p1={corpus / 'parsers' / 'parser_1.conllu'}",
                "--filters", str(filters),
                "--out", str(tmp_path / "report.json"),
            ]
        )
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {filters}: {message}\n"
    assert not (tmp_path / "report.json").exists()


def test_reports_with_values_of_the_wrong_type_error(tmp_path, capsys):
    out = tmp_path / "summary.json"
    for name, fields, message in (
        ("listed", {"methods": [90]}, "'methods' and 'filters' must be objects"),
        ("nulled", {"methods": {"cim": None}}, "method 'cim' must be a finite number, got None"),
        ("nan", {"methods": {"cim": float("nan")}}, "method 'cim' must be a finite number, got nan"),
        ("infinite", {"methods": {"cim": float("inf")}}, "method 'cim' must be a finite number"),
        ("huge", {"methods": {"cim": 10**400}}, "method 'cim' must be a finite number"),
        ("quoted", {"methods": {"cim": "91"}}, "method 'cim' must be a finite number, got '91'"),
        ("boolean", {"methods": {"mst": True}}, "method 'mst' must be a finite number, got True"),
        ("lettered", {"methods": {}, "n_sentences": "x"}, "'n_sentences' must be an integer"),
        ("fractional", {"methods": {}, "n_sentences": 1.5}, "'n_sentences' must be an integer"),
        ("yes", {"methods": {}, "n_sentences": True}, "'n_sentences' must be an integer"),
        ("counted", {"methods": {}, "filters": {"seg_dropped": 1.7}},
         "filter 'seg_dropped' must be an integer, got 1.7"),
        ("flagged", {"methods": {}, "filters": {"kept": False}},
         "filter 'kept' must be an integer, got False"),
    ):
        report = write(
            tmp_path / f"{name}.json",
            json.dumps({"treebank": "x", "n_sentences": 1, **fields}),
        )
        assert run(["report", "--reports", str(report), "--out", str(out)]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith(f"error: {report}: {message}")
    groups = write(tmp_path / "groups.json", json.dumps({"all": 5}))
    report = write(
        tmp_path / "report.json",
        json.dumps({"treebank": "x", "n_sentences": 1, "methods": {}}),
    )
    code = run(
        ["report", "--reports", str(report), "--groups", str(groups), "--out", str(out)]
    )
    assert code == EXIT_ERROR
    assert capsys.readouterr().err == (
        f"error: {groups}: group 'all' must be a list of strings, got 5\n"
    )
    assert not out.exists()


def test_a_group_that_is_no_list_of_names_errors(tmp_path, capsys):
    out = tmp_path / "summary.json"
    report = write(
        tmp_path / "report.json",
        json.dumps({"treebank": "tb01", "n_sentences": 1, "methods": {"cim": 90.0}}),
    )
    for value in ("tb01", ["tb01", 1]):
        groups = write(tmp_path / "groups.json", json.dumps({"h": value}))
        code = run(
            ["report", "--reports", str(report), "--groups", str(groups), "--out", str(out)]
        )
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == (
            f"error: {groups}: group 'h' must be a list of strings, got {value!r}\n"
        )
        assert not out.exists()


def test_a_report_with_a_treebank_that_is_no_string_errors(tmp_path, capsys):
    out = tmp_path / "summary.json"
    named = write(
        tmp_path / "named.json",
        json.dumps({"treebank": "x", "n_sentences": 1, "methods": {"cim": 90.0}}),
    )
    numbered = write(
        tmp_path / "numbered.json",
        json.dumps({"treebank": 5, "n_sentences": 1, "methods": {"cim": 80.0}}),
    )
    code = run(["report", "--reports", str(named), str(numbered), "--out", str(out)])
    assert code == EXIT_ERROR
    assert capsys.readouterr().err == (
        f"error: {numbered}: 'treebank' must be a string, got 5\n"
    )
    assert not out.exists()


def test_a_report_whose_selected_parsers_are_no_list_of_ids_errors(tmp_path, capsys):
    out = tmp_path / "summary.json"
    for value in ("p1", [1]):
        report = write(
            tmp_path / "report.json",
            json.dumps(
                {"treebank": "x", "n_sentences": 1, "methods": {}, "selected_parsers": value}
            ),
        )
        assert run(["report", "--reports", str(report), "--out", str(out)]) == EXIT_ERROR
        assert capsys.readouterr().err == (
            f"error: {report}: 'selected_parsers' must be a list of strings, got {value!r}\n"
        )
        assert not out.exists()


def test_reports_of_the_wrong_shape_error(tmp_path, capsys):
    out = tmp_path / "summary.json"
    partial = write(tmp_path / "partial.json", json.dumps({"treebank": "x"}))
    assert run(["report", "--reports", str(partial), "--out", str(out)]) == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {partial}: missing key 'n_sentences'\n"
    listed = write(tmp_path / "listed.json", "[]")
    assert run(["report", "--reports", str(listed), "--out", str(out)]) == EXIT_ERROR
    assert capsys.readouterr().err == (
        f"error: {listed}: expected a JSON object, got list\n"
    )
    report = write(
        tmp_path / "report.json",
        json.dumps({"treebank": "x", "n_sentences": 1, "methods": {"cim": 90.0}}),
    )
    code = run(["report", "--reports", str(report), "--groups", str(listed), "--out", str(out)])
    assert code == EXIT_ERROR
    assert capsys.readouterr().err == (
        f"error: {listed}: expected a JSON object, got list\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "flag",
    (["--crh-max-iter", "1"], ["--crh-eps", "1e-8"], ["--cim-l1", "0.1"],
     ["--cim-coef-threshold", "1"], ["--cim-triplet-min", "0"]),
    ids=lambda flag: flag[0],
)
def test_solver_settings_are_no_aggregate_flags(flag):
    # crh's cap and eps and cim's estimator settings are module constants
    # and function defaults; aggregate varies only the method choices
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["aggregate", "--inputs", "p", "--method", "crh",
                                   "--out", "o", *flag])
    assert excinfo.value.code == 2


def test_sample_size_is_no_rank_flag():
    # rank samples rank_and_select's default of 10 sentences
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["rank", "--inputs", "p", "--gold", "g", "--out", "o",
                                   "--seed", "1", "--sample-size", "5"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("method", ("mst", "crh"))
def test_diagnostics_without_cim_exits_with_error(tmp_path, corpus, capsys, method):
    out, diagnostics = tmp_path / "pred.conllu", tmp_path / "diag.json"
    code = run(["aggregate", "--inputs", str(corpus / "parsers"), "--method", method,
                "--out", str(out), "--diagnostics", str(diagnostics)])
    assert code == EXIT_ERROR
    assert capsys.readouterr().err == "error: --diagnostics needs --method cim\n"
    assert not out.exists() and not diagnostics.exists()


def test_crh_warns_when_it_stops_without_converging(tmp_path, corpus, capsys, monkeypatch):
    aggregate = [
        "aggregate",
        "--inputs", str(corpus / "parsers"),
        "--method", "crh",
        "--out", str(tmp_path / "pred.conllu"),
    ]
    assert run(aggregate) == EXIT_OK
    assert capsys.readouterr().err == ""
    (tmp_path / "pred.conllu").unlink()
    monkeypatch.setattr(crh, "_MAX_ITERATIONS", 1)
    assert run(aggregate) == EXIT_OK
    assert capsys.readouterr().err == (
        "warning: crh stopped after 1 iterations without converging\n"
    )
    assert (tmp_path / "pred.conllu").exists()


def test_cim_warns_when_its_correlation_fit_stops_without_converging(
    tmp_path, corpus, capsys, monkeypatch
):
    out = tmp_path / "pred.conllu"
    aggregate = ["aggregate", "--inputs", str(corpus / "parsers"), "--method", "cim",
                 "--out", str(out), "--diagnostics", str(tmp_path / "diag.json")]
    assert run(aggregate) == EXIT_OK
    assert capsys.readouterr().err == ""
    out.unlink()
    monkeypatch.setattr(cim, "_L1_MAX_ITERATIONS", 1)
    assert run(aggregate) == EXIT_OK
    assert capsys.readouterr().err == (
        "warning: cim's correlation fit stopped after 1 iterations without converging\n"
    )
    diagnostics = json.loads((tmp_path / "diag.json").read_text())
    assert diagnostics["correlation_fit"] == {"iterations": 1, "converged": False}
    assert out.exists()


def test_cim_with_triplet_min_zero_skips_zero_covariances(tmp_path, capsys, monkeypatch):
    # this corpus has a zero covariance between two parser columns, which
    # must be no triplet denominator even with a triplet_min of 0
    assert run(["synth", "--out-dir", str(tmp_path), "--sentences", "2", "--tokens", "3:5",
                "--rates", "0.2,0.4,0.5,0.6", "--seed", "20"]) == EXIT_OK
    capsys.readouterr()
    monkeypatch.setattr(
        cim, "estimate_mean_params", partial(cim.estimate_mean_params, triplet_min=0.0)
    )
    assert run(["aggregate", "--inputs", str(tmp_path / "parsers"), "--method", "cim",
                "--out", str(tmp_path / "pred.conllu"),
                "--diagnostics", str(tmp_path / "diag.json")]) == EXIT_OK
    assert capsys.readouterr().err == ""
    diagnostics = json.loads((tmp_path / "diag.json").read_text())
    assert all(0 < abs(v) < 1 for v in diagnostics["mu0_plus"].values())


def root_children(path: Path) -> list[int]:
    """Per sentence of the file, how many words attach to the root."""
    return [s.tree.heads.count(0) for s in load_treebank(path).sentences]


@pytest.fixture
def noisy_parsers(tmp_path, capsys):
    """The parser directory of a corpus on which every method's best trees
    have several roots somewhere."""
    assert run(["synth", "--out-dir", str(tmp_path / "corpus"), "--sentences", "10",
                "--tokens", "4:6", "--rates", "0.3,0.4,0.5,0.6", "--seed", "2"]) == EXIT_OK
    capsys.readouterr()
    return tmp_path / "corpus" / "parsers"


@pytest.mark.parametrize(
    "method", (["mst"], ["crh", "--crh-distance", "uas"], ["cim"]), ids=("mst", "crh", "cim")
)
def test_no_single_root_lets_a_sentence_keep_several_roots(tmp_path, noisy_parsers, capsys, method):
    aggregate = ["aggregate", "--inputs", str(noisy_parsers), "--method", *method]
    single, several = tmp_path / "single.conllu", tmp_path / "several.conllu"
    assert run([*aggregate, "--out", str(single)]) == EXIT_OK
    assert run([*aggregate, "--out", str(several), "--no-single-root"]) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert set(root_children(single)) == {1}
    assert max(root_children(several)) > 1


def test_crh_uas_truths_and_written_trees_share_the_single_root_rule(
    tmp_path, noisy_parsers, capsys
):
    ensemble = build_ensemble(load_treebanks(sorted(noisy_parsers.glob("*.conllu"))))
    matrix = label_matrix(ensemble)
    for single_root in (True, False):
        out = tmp_path / f"crh-{single_root}.conllu"
        assert run(["aggregate", "--inputs", str(noisy_parsers), "--method", "crh",
                    "--crh-distance", "uas", "--out", str(out)]
                   + ([] if single_root else ["--no-single-root"])) == EXIT_OK
        opts = CrhOptions(distance="uas", enforce_single_root=single_root)
        state = crh_run(matrix, opts, ensemble)
        assert state.enforce_single_root == single_root
        # the last truth step decoded the written trees' edges
        written = load_treebank(out).heads
        assert (tree_labels(matrix, written, ensemble.offsets) == state.truths).all()
    assert capsys.readouterr().err == ""
    assert max(root_children(tmp_path / "crh-False.conllu")) > 1


def test_cim_no_collapse_keeps_a_duplicate_parser_its_own_column(tmp_path, capsys):
    assert run(["synth", "--out-dir", str(tmp_path / "corpus"), "--sentences", "40",
                "--tokens", "6:9", "--rates", "0.1,0.2,0.3", "--seed", "4",
                "--duplicate-of", "0"]) == EXIT_OK
    aggregate = ["aggregate", "--inputs", str(tmp_path / "corpus" / "parsers"),
                 "--method", "cim", "--out", str(tmp_path / "pred.conllu")]
    assert run([*aggregate, "--diagnostics", str(tmp_path / "collapsed.json")]) == EXIT_OK
    assert run([*aggregate, "--diagnostics", str(tmp_path / "apart.json"),
                "--cim-no-collapse"]) == EXIT_OK
    assert capsys.readouterr().err == ""
    collapsed = json.loads((tmp_path / "collapsed.json").read_text())
    apart = json.loads((tmp_path / "apart.json").read_text())
    parsers = ["parser_1", "parser_2", "parser_3", "parser_4"]
    assert collapsed["components"] == [["parser_1", "parser_4"], ["parser_2"], ["parser_3"]]
    assert ["parser_1", "parser_4"] in collapsed["correlation_edges"]
    assert apart["components"] == [[p] for p in parsers]
    assert apart["correlation_edges"] == []
    assert list(apart["mu0_plus"]) == parsers


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as excinfo:
        run(["not-a-command"])
    assert excinfo.value.code == 2


def test_report_on_partial_inputs(tmp_path):
    """Each baseline is compared over the treebanks scoring both it and the
    primary; a treebank without the primary counts in the summaries only,
    and a group member with no report is skipped."""
    scores = {
        "tb01": {"cim": 90.0, "mst": 85.0, "crh": 88.0},
        "tb02": {"cim": 80.0, "crh": 82.5},  # no mst baseline
        "tb03": {"mst": 70.0, "crh": 75.0},  # no cim primary
        "tb04": {"cim": 60.0, "mst": 60.0, "crh": 50.25},
    }
    reports = [
        str(write(tmp_path / f"{tb}.json", json.dumps(
            {"treebank": tb, "n_sentences": 10, "methods": methods}
        )))
        for tb, methods in scores.items()
    ]
    groups = write(tmp_path / "groups.json", json.dumps(
        {"a": ["tb01", "tb02", "tb09"], "b": ["tb03"], "c": ["tb09"]}
    ))
    out = tmp_path / "summary.json"

    def summary(*flags: str) -> dict:
        assert run(["report", "--reports", *reports, "--out", str(out), *flags]) == EXIT_OK
        return json.loads(out.read_text())

    def diff(diffs: dict, positive: int, negative: int, zero: int) -> dict:
        return {"diffs": diffs, "positive": positive, "negative": negative, "zero": zero}

    cim = summary()
    assert {m: s["n"] for m, s in cim["groups"]["all"].items()} == {"cim": 3, "crh": 4, "mst": 3}
    assert cim["diffs"] == {"all": {
        "crh": diff({"tb01": 2.0, "tb02": -2.5, "tb04": 9.75}, 2, 1, 0),
        "mst": diff({"tb01": 5.0, "tb04": 0.0}, 1, 0, 1),
    }}
    crh = summary("--primary", "crh")
    assert crh["groups"] == cim["groups"]
    assert crh["diffs"] == {"all": {
        "cim": diff({"tb01": -2.0, "tb02": 2.5, "tb04": -9.75}, 1, 2, 0),
        "mst": diff({"tb01": 3.0, "tb03": 5.0, "tb04": -9.75}, 2, 1, 0),
    }}
    grouped = summary("--groups", str(groups))
    assert set(grouped["groups"]) == {"a", "b"}
    assert {m: s["n"] for m, s in grouped["groups"]["a"].items()} == {"cim": 2, "crh": 2, "mst": 1}
    assert {m: s["n"] for m, s in grouped["groups"]["b"].items()} == {"crh": 1, "mst": 1}
    assert grouped["diffs"] == {"a": {
        "crh": diff({"tb01": 2.0, "tb02": -2.5}, 1, 1, 0),
        "mst": diff({"tb01": 5.0}, 1, 0, 0),
    }}


def test_report_rejects_a_repeated_treebank(tmp_path, capsys):
    first, second = (
        write(tmp_path / f"{name}.json", json.dumps(
            {"treebank": "tb01", "n_sentences": 10, "methods": {"cim": 90.0, "mst": value}}
        ))
        for name, value in (("first", 85.0), ("second", 95.0))
    )
    out = tmp_path / "summary.json"
    code = run(["report", "--reports", str(first), str(second), "--out", str(out)])
    assert code == EXIT_ERROR
    assert capsys.readouterr().err == (
        f"error: {second}: repeats treebank 'tb01' of an earlier report\n"
    )
    assert not out.exists()


def test_report_rejects_a_primary_no_report_scores(tmp_path, capsys):
    # a primary only some reports score stays valid (test_report_on_partial_inputs)
    report = write(tmp_path / "tb01.json", json.dumps(
        {"treebank": "tb01", "n_sentences": 10, "methods": {"cim": 90.0, "mst": 85.0}}
    ))
    out = tmp_path / "summary.json"
    code = run(["report", "--reports", str(report), "--primary", "cmi", "--out", str(out)])
    assert code == EXIT_ERROR
    assert capsys.readouterr().err == "error: --primary 'cmi' is scored by no report\n"
    assert not out.exists()


def python_m_help(module: str) -> subprocess.CompletedProcess:
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run(
        [sys.executable, "-m", module, "--help"], env=env, capture_output=True, text=True
    )


def test_python_m_treeagg_runs_the_cli():
    done = python_m_help("treeagg")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: treeagg")


def test_python_m_treeagg_cli_runs_the_cli():
    done = python_m_help("treeagg.cli")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: treeagg")
