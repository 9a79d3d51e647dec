"""Protocol pieces: filters, scoring, ranking, baselines, summaries."""

import json
import random
import re
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    build_file,
    ensemble_of,
    file_contents,
    head_sequences,
    sixty_sentence_fixture,
    trees_by_id,
)
from treeagg import evaluation
from treeagg.arborescence import NoArborescenceError
from treeagg.cli import EXIT_OK, run
from treeagg.edges import EdgeLabelMatrix, label_matrix
from treeagg.evaluation import (
    MethodDiff,
    RankResult,
    SummaryReport,
    TreebankReport,
    method_diffs,
    preprocess,
    rank_and_select,
    summarize,
    uas,
    vote_mst,
)
from treeagg.trees import DepTree


# ------------------------------------------------------------------ uas


def test_uas_counts_matching_heads():
    gold = build_file([[0, 1, 1]], "gold")
    assert uas(build_file([[0, 1, 1]], "p"), gold) == 100.0
    # two of three heads agree
    assert uas(build_file([[0, 1, 2]], "p"), gold) == pytest.approx(200.0 / 3)


def test_uas_micro_averages_over_sentences():
    pred = build_file([[0, 1], [0, 1, 2]], "p")
    gold = build_file([[0, 0], [0, 1, 2]], "gold")
    # 1 of 2 plus 3 of 3
    assert uas(pred, gold) == pytest.approx(80.0)


def test_uas_exclude_mask_skips_tokens():
    pred = build_file([[0, 1, 2], [0]], "p")
    gold = build_file([[0, 1, 1], [0]], "gold")
    # one flat flag per gold token, across sentences
    assert uas(pred, gold, exclude=np.array([False, False, True, False])) == 100.0
    assert uas(pred, gold, exclude=np.array([False, False, False, True])) == pytest.approx(
        200.0 / 3
    )
    with pytest.raises(ValueError, match="every token excluded"):
        uas(pred, gold, exclude=np.ones(4, dtype=bool))
    # one flag per gold token, not one list of flags per sentence
    with pytest.raises(ValueError, match="exclusion mask of shape"):
        uas(pred, gold, exclude=np.zeros((1, 4), dtype=bool))
    with pytest.raises(ValueError, match="exclusion mask of shape"):
        uas(pred, gold, exclude=np.zeros(3, dtype=bool))


def test_uas_input_validation():
    with pytest.raises(ValueError, match="predicted trees vs"):
        uas(build_file([[0]], "p"), build_file([], "gold"))
    with pytest.raises(ValueError, match="no sentences"):
        uas(build_file([], "p"), build_file([], "gold"))
    with pytest.raises(ValueError, match="tokens predicted"):
        uas(build_file([[0]], "p"), build_file([[0, 1]], "gold"))


# ----------------------------------------------------------- preprocess


def test_preprocess_filters_and_counts():
    fa, fb, gold = sixty_sentence_fixture()
    result = preprocess([fa, fb], gold, min_sentences=40, min_parsers=2)
    assert result.log.total == 60
    assert result.log.seg_dropped == 5
    assert result.log.agree_dropped == 10
    assert result.log.kept == 45
    assert result.log.rejected is None
    assert result.gold.sentence_ids == gold.sentence_ids[15:]
    assert [f.sentence_ids for f in result.files] == [gold.sentence_ids[15:]] * 2
    assert [len(f) for f in result.files] == [45, 45]
    assert len(result.gold) == 45


def test_preprocess_is_idempotent():
    fa, fb, gold = sixty_sentence_fixture()
    first = preprocess([fa, fb], gold, min_sentences=40, min_parsers=2)
    second = preprocess(first.files, first.gold, min_sentences=40, min_parsers=2)
    assert second.log.seg_dropped == 0
    assert second.log.agree_dropped == 0
    assert second.log.kept == 45
    assert list(map(file_contents, second.files)) == list(map(file_contents, first.files))
    assert file_contents(second.gold) == file_contents(first.gold)


def test_preprocess_rejects_thin_treebanks():
    fa, fb, gold = sixty_sentence_fixture()
    # 45 survivors fall short of the default 50-sentence floor
    rejected = preprocess([fa, fb], gold, min_parsers=2)
    assert rejected.files is None
    assert rejected.gold is None
    assert "45 surviving sentences" in rejected.log.rejected
    # the same survivors as a run whose floor they meet
    kept = preprocess([fa, fb], gold, min_sentences=45, min_parsers=2)
    assert kept.gold.sentence_ids == gold.sentence_ids[15:]
    assert replace(rejected.log, rejected=None) == kept.log


def test_preprocess_rejects_too_few_parsers():
    fa, _, gold = sixty_sentence_fixture()
    rejected = preprocess([fa], gold, min_sentences=40, min_parsers=2)
    assert rejected.files is None
    assert rejected.gold is None
    assert "1 parsers, need at least 2" in rejected.log.rejected
    # no files at all: rejected by the count first, refused when it allows none
    assert preprocess([], gold, min_parsers=1).log.rejected == "0 parsers, need at least 1"
    with pytest.raises(ValueError, match="no parser files"):
        preprocess([], gold, min_sentences=1, min_parsers=0)


# ----------------------------------------------------------------- rank


def ranked_ensemble(n=20):
    """Three parsers: perfect, half right, never right on token 2."""
    gold = []
    trees = {}
    for i in range(n):
        g = DepTree((0, 1))
        wrong = DepTree((0, 0))
        b = g if i % 2 == 0 else wrong
        trees[f"s{i + 1}"] = (g, b, wrong)
        gold.append(g.heads)
    return ensemble_of(("exact", "half", "off"), trees), build_file(gold, "gold")


def test_rank_orders_by_sample_uas(monkeypatch):
    monkeypatch.setattr(evaluation, "_SAMPLE_SIZE", 5)
    ens, gold = ranked_ensemble()
    result = rank_and_select(ens, gold, top_k=2, seed=0)
    # fixed stdlib sample for seed 0 over 20 sentences
    assert result.sample_positions == (1, 8, 12, 13, 15)
    assert result.selected == ("exact", "half")
    table = dict(result.table)
    assert table["exact"] == 100.0
    assert table["off"] == 50.0  # token 1 still attaches to the root
    assert result.warning is None


def test_rank_is_deterministic_per_seed(monkeypatch):
    monkeypatch.setattr(evaluation, "_SAMPLE_SIZE", 7)
    ens, gold = ranked_ensemble()
    a = rank_and_select(ens, gold, top_k=3, seed=11)
    b = rank_and_select(ens, gold, top_k=3, seed=11)
    assert a == b
    assert a.sample_positions == tuple(
        sorted(random.Random(11).sample(range(20), 7))
    )


def test_rank_ties_keep_ensemble_order(monkeypatch):
    monkeypatch.setattr(evaluation, "_SAMPLE_SIZE", 4)
    g = DepTree((0, 1))
    trees = {f"s{i}": (g, g, g) for i in range(12)}
    ens = ensemble_of(("later_file", "earlier_score", "also_tied"), trees)
    gold = build_file([g.heads] * 12, "gold")
    result = rank_and_select(ens, gold, top_k=2, seed=3)
    assert result.selected == ("later_file", "earlier_score")


def test_rank_warns_when_asking_for_too_many(monkeypatch):
    monkeypatch.setattr(evaluation, "_SAMPLE_SIZE", 5)
    ens, gold = ranked_ensemble()
    result = rank_and_select(ens, gold, top_k=9, seed=0)
    assert result.selected == ("exact", "half", "off")
    assert "top 9 of 3" in result.warning


def test_rank_requires_aligned_gold():
    ens, gold = ranked_ensemble()
    with pytest.raises(ValueError, match="do not align"):
        rank_and_select(ens, gold.subset(range(len(gold) - 1)))


# ------------------------------------------------------------- vote_mst


def test_single_parser_vote_is_identity():
    t1, t2 = DepTree((0, 1, 1)), DepTree((2, 0, 2))
    ens = ensemble_of(("only",), {"s1": (t1,), "s2": (t2,)})
    assert trees_by_id(vote_mst(ens), ens) == {"s1": t1, "s2": t2}


def test_two_against_one_yields_the_majority_tree():
    majority = DepTree((0, 1, 1))
    dissent = DepTree((0, 1, 2))
    ens = ensemble_of(("a", "b", "c"), {"s1": (majority, majority, dissent)})
    assert trees_by_id(vote_mst(ens), ens) == {"s1": majority}


@st.composite
def ensembles(draw):
    m = draw(st.integers(1, 4))
    trees = {}
    for i in range(draw(st.integers(1, 4))):
        q = draw(st.integers(1, 6))
        trees[f"s{i}"] = tuple(draw(head_sequences(q)) for _ in range(m))
    return ensemble_of(tuple(f"p{k}" for k in range(m)), trees)


def _rows(matrix: EdgeLabelMatrix, order: np.ndarray, offsets: np.ndarray) -> EdgeLabelMatrix:
    return EdgeLabelMatrix(
        matrix.sentence_ids, offsets, matrix.heads[order], matrix.deps[order],
        matrix.labels[order], matrix.parser_ids,
    )


@settings(max_examples=100, deadline=None)
@given(ensembles(), st.randoms(use_true_random=False))
def test_vote_mst_ignores_row_order_and_duplication(ens, rnd):
    # rows may move only within their sentence: offsets tie rows to sentences
    matrix = label_matrix(ens)
    bounds = matrix.offsets.tolist()
    order = []
    for a, b in zip(bounds, bounds[1:]):
        rows = list(range(a, b))
        rnd.shuffle(rows)
        order += rows
    shuffled = _rows(matrix, np.array(order), matrix.offsets)
    doubled = _rows(matrix, np.repeat(np.arange(matrix.n_edges), 2), 2 * matrix.offsets)

    def decode(single_root, matrix=None):
        try:
            return vote_mst(ens, single_root, matrix).tolist()
        except NoArborescenceError:  # no candidate tree has a single root
            return None

    for single_root in (True, False):
        expected = decode(single_root)
        for other in (matrix, shuffled, doubled):
            assert decode(single_root, other) == expected


# ------------------------------------------------------------ summaries


def test_summarize_hand_values():
    report = summarize([80.0, 90.0])
    assert report.mean == 85.0
    assert report.median == 85.0
    assert report.std == 5.0
    assert report.n == 2
    assert report.group == "all"


def test_summarize_single_value_and_rounding(tmp_path):
    report = summarize([77.337], group="low-resource")
    assert report.mean == report.median == 77.337
    assert report.std == 0.0
    # summary.json rounds every float to 2 decimals, diffs included
    path = tmp_path / "report.json"
    path.write_text(json.dumps(asdict(TreebankReport("xx", 9, {"cim": 77.337, "mst": 70.0}))))
    groups = tmp_path / "groups.json"
    groups.write_text(json.dumps({"low-resource": ["xx"]}))
    out = tmp_path / "summary.json"
    argv = ["report", "--reports", str(path), "--groups", str(groups), "--out", str(out)]
    assert run(argv) == EXIT_OK
    assert json.loads(out.read_text()) == {
        "groups": {"low-resource": {
            "cim": {"group": "low-resource", "n": 1, "mean": 77.34, "median": 77.34, "std": 0.0},
            "mst": {"group": "low-resource", "n": 1, "mean": 70.0, "median": 70.0, "std": 0.0},
        }},
        "diffs": {"low-resource": {
            "mst": {"diffs": {"xx": 7.34}, "positive": 1, "negative": 0, "zero": 0},
        }},
    }


def test_summarize_permutation_invariant_and_shift_equivariant():
    vals = [88.1, 92.4, 79.9, 85.0]
    base = summarize(vals)
    shuffled = summarize(list(reversed(vals)))
    assert shuffled == base
    shifted = summarize([v + 3.0 for v in vals])
    assert shifted.mean == pytest.approx(base.mean + 3.0)
    assert shifted.median == pytest.approx(base.median + 3.0)
    assert shifted.std == pytest.approx(base.std)
    with pytest.raises(ValueError, match="no values"):
        summarize([])


@pytest.mark.parametrize("bad", (float("nan"), float("inf"), -float("inf")))
def test_summarize_refuses_a_non_finite_value(bad):
    with pytest.raises(ValueError, match=re.escape(f"a value is not finite: [90.0, {bad}]")):
        summarize([90.0, bad])


def test_treebank_report_json_roundtrip():
    report = TreebankReport(
        treebank="xx_demo",
        n_sentences=45,
        methods={"mst": 90.5, "crh": 91.25, "cim": 92.0},
        selected_parsers=("pa", "pb"),
        filters={"seg_dropped": 5, "agree_dropped": 10},
    )
    wire = json.loads(json.dumps(asdict(report)))
    assert TreebankReport.from_json(wire) == report
    bare = TreebankReport("yy", 50, {"cim": 80.0})
    assert TreebankReport.from_json(json.loads(json.dumps(asdict(bare)))) == bare


def test_method_diffs_signs_and_counts():
    reports = [
        TreebankReport("t1", 50, {"cim": 95.0, "mst": 90.0, "crh": 94.0}),
        TreebankReport("t2", 50, {"cim": 90.0, "mst": 92.0, "crh": 90.0}),
    ]
    diffs = method_diffs(reports)
    assert set(diffs) == {"mst", "crh"}
    assert diffs["mst"].diffs == {"t1": 5.0, "t2": -2.0}
    assert (diffs["mst"].positive, diffs["mst"].negative, diffs["mst"].zero) == (1, 1, 0)
    assert diffs["crh"].diffs == {"t1": 1.0, "t2": 0.0}
    assert (diffs["crh"].positive, diffs["crh"].negative, diffs["crh"].zero) == (1, 0, 1)


def test_method_diffs_identical_methods_are_all_zero():
    reports = [
        TreebankReport("t1", 10, {"cim": 88.0, "mst": 88.0}),
        TreebankReport("t2", 10, {"cim": 91.0, "mst": 91.0}),
    ]
    diff = method_diffs(reports)["mst"]
    assert diff == MethodDiff({"t1": 0.0, "t2": 0.0}, 0, 0, 2)


def test_method_diffs_compare_over_treebanks_scoring_both():
    reports = [
        TreebankReport("t1", 10, {"cim": 90.0, "mst": 88.0, "crh": 91.0}),
        TreebankReport("t2", 10, {"cim": 90.0, "crh": 90.0}),  # no mst
        TreebankReport("t3", 10, {"mst": 70.0, "crh": 75.0, "avg": 60.0}),  # no cim
    ]
    diffs = method_diffs(reports)
    # avg is scored only where the primary is not, so it is no baseline
    assert diffs == {
        "crh": MethodDiff({"t1": -1.0, "t2": 0.0}, 0, 1, 1),
        "mst": MethodDiff({"t1": 2.0}, 1, 0, 0),
    }
    assert method_diffs(reports, "mst") == {
        "avg": MethodDiff({"t3": 10.0}, 1, 0, 0),
        "cim": MethodDiff({"t1": -2.0}, 0, 1, 0),
        "crh": MethodDiff({"t1": -3.0, "t3": -5.0}, 0, 2, 0),
    }
    # nothing scores the primary, so nothing is compared
    assert method_diffs(reports, "absent") == {}
    assert method_diffs([]) == {}
