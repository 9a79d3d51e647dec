"""Acceptance criteria, one test per criterion.

Each test registers a PASS/FAIL line through the ``acceptance_log``
fixture before asserting, so the final summary always lists every
criterion verdict with its pinned tolerance.
"""

import itertools
import json
import time

import numpy as np
import pytest

from helpers import (
    brute_force_arborescence,
    ci_label_matrix,
    conllu_text,
    joint_prob_oracle,
    placeholder_matrix,
    random_complete_digraph,
    random_vote_matrix,
    spearman,
    tree_weight,
    weight_update,
)
from treeagg.arborescence import max_arborescence
from treeagg.cim import IsingParams, _canonical_value_grad, fit_canonical_params, infer_scores
from treeagg.cli import EXIT_REJECTED, run
from treeagg.conllu import parse_conllu, write_conllu
from treeagg.crh import crh_run
from treeagg.edges import majority_vote
from treeagg.evaluation import preprocess, summarize


def test_criterion_1_arborescence_totals_match_oracle(acceptance_log):
    """500 random complete digraphs: solver total == exhaustive total."""
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    mismatches = 0
    for i in range(500):
        q = int(rng.integers(3, 7))
        g = random_complete_digraph(q, rng)
        solved = tree_weight(g, max_arborescence(g))
        oracle = tree_weight(g, brute_force_arborescence(g))
        if solved != oracle:
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 10.0
    acceptance_log(
        1, ok,
        f"arborescence vs oracle: {mismatches}/500 total-weight mismatches, "
        f"{elapsed:.2f}s (budget 10s, tolerance 0)",
    )
    assert mismatches == 0
    assert elapsed < 10.0


def test_criterion_2_inference_matches_enumeration(acceptance_log):
    """Scores equal exact conditionals when pairwise terms vanish."""
    rng = np.random.default_rng(2)
    worst = 0.0
    for m in (2, 3, 4):
        votes = list(itertools.product((-1, 1), repeat=m))
        labels = np.array(votes, dtype=np.int8)
        matrix = placeholder_matrix(labels)
        for _ in range(50):
            theta00 = float(rng.normal())
            theta0 = tuple(rng.normal(size=m))
            theta_p = tuple(rng.normal(size=m))  # cancels in the conditional
            params = IsingParams(
                0.0, (0.0,) * m, (0.0,) * m, theta00=theta00, theta0_plus=theta0
            )
            scores = infer_scores(params, matrix)
            for row, vote in enumerate(votes):
                num = joint_prob_oracle(theta00, theta0, theta_p, {}, 1, vote)
                den = num + joint_prob_oracle(theta00, theta0, theta_p, {}, -1, vote)
                worst = max(worst, abs(scores[row] - num / den))
    ok = worst <= 1e-9
    acceptance_log(
        2, ok,
        f"inference vs enumeration (m=2,3,4 x50 random params): "
        f"worst |score - conditional| = {worst:.2e} (tolerance 1e-9)",
    )
    assert worst <= 1e-9


def test_criterion_3_fit_gradients_and_stationarity(acceptance_log):
    """Analytic gradient matches central differences; fits reach tol."""
    rng = np.random.default_rng(3)
    step = 1e-5
    worst_fd = 0.0
    for _ in range(20):
        m = int(rng.integers(2, 6))
        labels = np.where(rng.random((40, m)) < 0.5, 1.0, -1.0)
        mu = rng.uniform(-0.9, 0.9, size=m + 1)
        theta = rng.normal(scale=0.5, size=m + 1)
        shares = np.full(len(labels), 1 / len(labels))
        _, grad = _canonical_value_grad(theta, labels, shares, mu)
        for i in range(m + 1):
            e = np.zeros(m + 1)
            e[i] = step
            up, _ = _canonical_value_grad(theta + e, labels, shares, mu)
            down, _ = _canonical_value_grad(theta - e, labels, shares, mu)
            worst_fd = max(worst_fd, abs((up - down) / (2 * step) - grad[i]))

    # feasible targets: moments generated by the model itself
    worst_grad = 0.0
    all_converged = True
    for _ in range(20):
        m = int(rng.integers(2, 6))
        labels = np.where(rng.random((60, m)) < 0.5, 1, -1).astype(np.int8)
        theta_true = rng.normal(scale=0.7, size=m + 1)
        cond = np.tanh(theta_true[0] + labels.astype(float) @ theta_true[1:])
        mu00 = float(cond.mean())
        mu0 = tuple((labels * cond[:, None]).mean(axis=0))
        fit = fit_canonical_params(
            IsingParams(mu00, (0.0,) * m, mu0), placeholder_matrix(labels)
        )
        all_converged = all_converged and fit.converged
        worst_grad = max(worst_grad, fit.grad_norm)
    ok = worst_fd <= 1e-6 and all_converged and worst_grad <= 1e-6
    acceptance_log(
        3, ok,
        f"fit gradients: worst |analytic - central FD| = {worst_fd:.2e} "
        f"(tolerance 1e-6); all 20 feasible fits converged with grad norm "
        f"<= {worst_grad:.2e} (tolerance 1e-6)",
    )
    assert worst_fd <= 1e-6
    assert all_converged
    assert worst_grad <= 1e-6


def test_criterion_4_triplet_recovery(acceptance_log):
    """Per-voter agreement moments recovered from votes alone."""
    from treeagg.cim import estimate_mean_params

    rng = np.random.default_rng(42)
    accuracies = rng.uniform(0.65, 0.95, size=9)
    labels, _ = ci_label_matrix(accuracies, 20000, rng)
    params = estimate_mean_params(placeholder_matrix(labels))
    devs = np.abs(np.array(params.mu0_plus) - (2.0 * accuracies - 1.0))

    rng0 = np.random.default_rng(0)
    worked, _ = ci_label_matrix([0.9, 0.8, 0.7], 100000, rng0)
    worked_params = estimate_mean_params(placeholder_matrix(worked))
    worked_dev = abs(abs(worked_params.mu0_plus[0]) - 0.8)

    ok = devs.max() < 0.05 and worked_dev < 0.02
    acceptance_log(
        4, ok,
        f"triplet recovery: 9 voters max |mu0_plus - (2a-1)| = {devs.max():.4f} "
        f"(tolerance 0.05); worked example dev = {worked_dev:.4f} (tolerance 0.02)",
    )
    assert devs.max() < 0.05
    assert worked_dev < 0.02


def test_criterion_5_crh_properties(acceptance_log, corpus):
    """Objective descent, weight normalization, symmetry, rank order."""
    rng = np.random.default_rng(5)
    descent_violations = 0
    norm_worst = 0.0
    for t in range(100):
        n = int(rng.integers(40, 200))
        m = int(rng.integers(3, 9))
        matrix = placeholder_matrix(random_vote_matrix(n, m, rng))
        state = crh_run(matrix)
        hist = state.objective_history
        descent_violations += sum(
            1 for a, b in zip(hist, hist[1:]) if b > a + 1e-9
        )
        if t < 10:  # manual stepping doubles as a normalization probe
            truths = majority_vote(matrix.labels)
            for _ in range(5):
                w = weight_update(truths, matrix)
                norm_worst = max(norm_worst, abs(np.exp(-w).sum() - 1.0))
                truths = majority_vote(matrix.labels, w)

    equal = np.ones((40, 4), dtype=np.int8)
    for k in range(4):  # disjoint two-row error blocks: equal costs
        equal[2 * k : 2 * k + 2, k] = -1
    w_eq = weight_update(np.ones(40, dtype=np.int8), placeholder_matrix(equal))
    sym_dev = float(np.abs(w_eq - np.log(4.0)).max())

    rank_corr = spearman(list(corpus.crh_state.weights), list(corpus.synth.accuracies))

    ok = (
        descent_violations == 0
        and norm_worst <= 1e-9
        and sym_dev <= 1e-9
        and rank_corr == 1.0
    )
    acceptance_log(
        5, ok,
        f"consensus descent: {descent_violations} objective increases over 100 "
        f"matrices (tolerance 0); weight normalization dev {norm_worst:.1e} "
        f"(tolerance 1e-9); equal-cost weights dev from log m {sym_dev:.1e} "
        f"(tolerance 1e-9); weight/accuracy rank correlation {rank_corr}",
    )
    assert descent_violations == 0
    assert norm_worst <= 1e-9
    assert sym_dev <= 1e-9
    assert rank_corr == 1.0


def test_criterion_6_end_to_end_ordering(acceptance_log, corpus):
    """Aggregate beats the field on the shared noisy corpus."""
    ok = (
        corpus.cim_uas >= corpus.mst_uas
        and corpus.cim_uas >= corpus.best_uas - 1.0
        and corpus.avg_uas < corpus.cim_uas
        and corpus.elapsed < 60.0
    )
    acceptance_log(
        6, ok,
        f"corpus ordering: cim {corpus.cim_uas:.2f} >= mst {corpus.mst_uas:.2f}, "
        f">= best {corpus.best_uas:.2f} - 1.0, > avg {corpus.avg_uas:.2f}; "
        f"runtime {corpus.elapsed:.1f}s (budget 60s)",
    )
    assert corpus.cim_uas >= corpus.mst_uas
    assert corpus.cim_uas >= corpus.best_uas - 1.0
    assert corpus.avg_uas < corpus.cim_uas
    assert corpus.elapsed < 60.0


def test_criterion_7_duplicate_collapse(acceptance_log, corpus):
    """The duplicated column is found, removed, and changes nothing."""
    dup_found = (0, 9) in corpus.cim.graph.edges
    reduced_m = corpus.cim.reduced.m
    labels_equal = bool(
        (corpus.cim.reduced.labels == corpus.matrix9.labels).all()
    )
    score_dev = float(np.abs(corpus.cim.scores - corpus.cim9.scores).max())
    ok = dup_found and reduced_m == 9 and labels_equal and score_dev <= 1e-6
    acceptance_log(
        7, ok,
        f"duplicate collapse: edge (0,9) found={dup_found}, m 10->{reduced_m}, "
        f"collapsed labels equal={labels_equal}, max score dev vs 9-column run "
        f"{score_dev:.2e} (tolerance 1e-6)",
    )
    assert dup_found
    assert reduced_m == 9
    assert labels_equal
    assert score_dev <= 1e-6


# Frozen reference columns of per-treebank UAS values; the summaries
# below must land on their published rounded roll-ups.
REFERENCE_CIM = (
    96.1, 94.6, 95.0, 89.9, 93.6, 93.4, 90.4, 92.5, 93.6, 95.5,
    95.0, 93.6, 94.1, 94.9, 95.2, 81.3, 94.0, 94.6, 92.8,
)
REFERENCE_MST = (
    92.1, 92.5, 90.1, 83.3, 88.6, 88.4, 83.3, 87.2, 91.3, 93.1,
    92.6, 89.3, 89.7, 91.3, 90.9, 70.5, 91.7, 92.7, 81.5,
)


def test_criterion_8_summary_cross_check(acceptance_log):
    cim = summarize(REFERENCE_CIM)
    mst = summarize(REFERENCE_MST)
    devs = (
        abs(cim.mean - 93.18),
        abs(cim.median - 94.02),
        abs(mst.mean - 88.42),
    )
    ok = all(d <= 0.1 for d in devs)
    acceptance_log(
        8, ok,
        f"summary cross-check: cim mean {cim.mean:.4f} (target 93.18), "
        f"median {cim.median:.4f} (target 94.02), mst mean {mst.mean:.4f} "
        f"(target 88.42), all within 0.1",
    )
    assert devs[0] <= 0.1
    assert devs[1] <= 0.1
    assert devs[2] <= 0.1


def _conllu_corpus(rows):
    return conllu_text(rows)


def test_criterion_9_preprocessing_thresholds(acceptance_log, tmp_path):
    """Filter arithmetic plus both rejection paths via the CLI."""
    # 60 sentences: 5 segmentation mismatches, 10 full agreements
    a, b, g = [], [], []
    for i in range(60):
        sid = f"s{i + 1}"
        if i < 5:
            a.append((sid, ["a", "b", "c"], [0, 1, 2]))
            b.append((sid, ["a", "b", "c", "d"], [0, 1, 2, 3]))
        elif i < 15:
            a.append((sid, ["a", "b", "c"], [0, 1, 1]))
            b.append((sid, ["a", "b", "c"], [0, 1, 1]))
        else:
            a.append((sid, ["a", "b", "c"], [0, 1, 2]))
            b.append((sid, ["a", "b", "c"], [0, 1, 1]))
        g.append((sid, ["a", "b", "c"], [0, 1, 2]))
    fa = parse_conllu(_conllu_corpus(a), "pa")
    fb = parse_conllu(_conllu_corpus(b), "pb")
    fg = parse_conllu(_conllu_corpus(g), "gold")
    result = preprocess([fa, fb], fg, min_sentences=45, min_parsers=2)
    survived = result.log.kept

    # 49 surviving sentences fall below the 50-sentence floor
    short_a = [(f"s{i}", ["a", "b"], [0, 1]) for i in range(49)]
    short_b = [(f"s{i}", ["a", "b"], [0, 0]) for i in range(49)]
    d1 = tmp_path / "short"
    (d1 / "parsers").mkdir(parents=True)
    (d1 / "parsers" / "pa.conllu").write_text(_conllu_corpus(short_a))
    (d1 / "parsers" / "pb.conllu").write_text(_conllu_corpus(short_b))
    (d1 / "gold.conllu").write_text(_conllu_corpus(short_a))
    code_short = run(
        [
            "preprocess",
            "--inputs", str(d1 / "parsers"),
            "--gold", str(d1 / "gold.conllu"),
            "--out-dir", str(d1 / "out"),
            "--min-parsers", "2",
        ]
    )

    # eight parsers fall below the nine-parser floor
    rows = [(f"s{i}", ["a", "b"], [0, 1]) for i in range(60)]
    d2 = tmp_path / "thin"
    (d2 / "parsers").mkdir(parents=True)
    for k in range(8):
        (d2 / "parsers" / f"p{k}.conllu").write_text(_conllu_corpus(rows))
    (d2 / "gold.conllu").write_text(_conllu_corpus(rows))
    code_thin = run(
        [
            "preprocess",
            "--inputs", str(d2 / "parsers"),
            "--gold", str(d2 / "gold.conllu"),
            "--out-dir", str(d2 / "out"),
        ]
    )

    ok = survived == 45 and code_short == 3 and code_thin == 3
    acceptance_log(
        9, ok,
        f"preprocessing: 60-sentence fixture kept {survived} (expected exactly "
        f"45); 49-survivor fixture exit {code_short}, 8-parser fixture exit "
        f"{code_thin} (documented rejection code {EXIT_REJECTED})",
    )
    assert survived == 45
    assert result.log.seg_dropped == 5
    assert result.log.agree_dropped == 10
    assert code_short == EXIT_REJECTED == 3
    assert code_thin == EXIT_REJECTED == 3


ROUNDTRIP_FIXTURE = """\
# newdoc id = demo
# sent_id = rt1
# text = Ab c d.
1-2\tAb\t_\t_\t_\t_\t_\t_\t_\t_
1\ta\ta\tDET\t_\t_\t2\tdet\t_\t_
2\tb\tb\tNOUN\t_\tNumber=Sing\t0\troot\t2:root\t_
2.1\tghost\tghost\tVERB\t_\t_\t_\t_\t_\t_
3\tc\tc\tVERB\t_\t_\t2\tacl\t_\tSpaceAfter=No
4\t.\t.\tPUNCT\t_\t_\t2\tpunct\t_\t_

# sent_id = rt2
1\td\td\tNOUN\t_\t_\t0\troot\t_\t_
"""


def test_criterion_10_io_fidelity(acceptance_log):
    treebank = parse_conllu(ROUNDTRIP_FIXTURE, "demo")
    identical = write_conllu(treebank) == ROUNDTRIP_FIXTURE

    predicted = treebank.heads.copy()
    predicted[:4] = (2, 0, 2, 3)  # rt1's four words; rt2 keeps its head
    changed = write_conllu(treebank, predicted)
    changed_fields = set()
    for before, after in zip(
        ROUNDTRIP_FIXTURE.splitlines(), changed.splitlines()
    ):
        if before == after:
            continue
        cols_b, cols_a = before.split("\t"), after.split("\t")
        changed_fields.update(
            i for i, (x, y) in enumerate(zip(cols_b, cols_a)) if x != y
        )
    only_heads = changed_fields == {6}

    ok = identical and only_heads
    acceptance_log(
        10, ok,
        f"io fidelity: parse->write byte-identical={identical} on comments/"
        f"ranges/empty nodes; prediction rewrite touches only column 7 "
        f"(HEAD)={only_heads}",
    )
    assert identical
    assert only_heads
