"""Session fixtures: the shared synthetic corpus and acceptance reporting."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import pytest

from treeagg.cim import CimResult, cim_run, cim_trees
from treeagg.conllu import build_ensemble
from treeagg.crh import CrhState, crh_run, crh_trees
from treeagg.edges import EdgeLabelMatrix, label_matrix
from treeagg.evaluation import uas, vote_mst
from treeagg.synth import SynthConfig, SynthResult, generate

from helpers import trees_by_id


@dataclass(frozen=True)
class CorpusRuns:
    """One shared corpus with every aggregator's output, computed once.

    ``elapsed`` covers generation plus the three aggregation runs (the
    matching 9-column rerun used by the collapse checks is timed apart).
    """

    synth: SynthResult
    matrix: EdgeLabelMatrix
    per_parser_uas: tuple[float, ...]
    mst_uas: float
    crh_state: CrhState
    crh_uas: float
    cim: CimResult
    cim_uas: float
    matrix9: EdgeLabelMatrix
    cim9: CimResult
    elapsed: float

    @property
    def best_uas(self) -> float:
        return max(self.per_parser_uas)

    @property
    def avg_uas(self) -> float:
        return sum(self.per_parser_uas) / len(self.per_parser_uas)


def _uas_of(heads, synth: SynthResult) -> float:
    return uas(list(trees_by_id(heads, synth.ensemble).values()), list(synth.gold.trees))


@pytest.fixture(scope="session")
def corpus() -> CorpusRuns:
    """Nine noise levels plus one duplicated parser, 200 sentences.

    Rates span 0.05..0.40; parser 10 copies parser 1 exactly, so the
    ensemble has 10 columns of which 9 carry independent information.
    """
    start = time.perf_counter()
    config = SynthConfig(
        n_sentences=200,
        tokens=(10, 10),
        rates=tuple(np.linspace(0.05, 0.40, 9)),
        seed=7,
        duplicates=(0,),
    )
    synth = generate(config)
    matrix = label_matrix(synth.ensemble)
    per_parser = tuple(_uas_of(row, synth) for row in synth.ensemble.heads)
    mst_uas = _uas_of(vote_mst(synth.ensemble), synth)
    crh_state = crh_run(matrix)
    crh_uas = _uas_of(crh_trees(crh_state, matrix, synth.ensemble), synth)
    cim = cim_run(matrix)
    cim_uas = _uas_of(cim_trees(cim.scores, matrix, synth.ensemble), synth)
    elapsed = time.perf_counter() - start

    matrix9 = label_matrix(build_ensemble(synth.files[:9]))
    cim9 = cim_run(matrix9)
    return CorpusRuns(
        synth=synth,
        matrix=matrix,
        per_parser_uas=per_parser,
        mst_uas=mst_uas,
        crh_state=crh_state,
        crh_uas=crh_uas,
        cim=cim,
        cim_uas=cim_uas,
        matrix9=matrix9,
        cim9=cim9,
        elapsed=elapsed,
    )


# --- acceptance reporting -------------------------------------------------
# test_acceptance registers one line per criterion; the summary hook prints
# them at the end of the run so the verdicts survive output capture.

_ACCEPTANCE_LINES: dict[int, str] = {}


@pytest.fixture(scope="session")
def acceptance_log():
    def record(number: int, passed: bool, description: str) -> None:
        verdict = "PASS" if passed else "FAIL"
        _ACCEPTANCE_LINES[number] = f"criterion {number:2d} {verdict}  {description}"

    return record


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(_ACCEPTANCE_LINES[number])
