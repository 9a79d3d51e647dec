"""The two workloads: inputs from a seed, the timed job, and what to score.

Every job is one treebank. Jobs run one after another in one process (a
closed loop with a single client). treeagg is reached only through its
public functions, looked up as module attributes at call time so that the
tracer's wrappers are seen, and through ``treeagg.cli.run`` in-process.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, ContextManager, Sequence

import numpy as np

import treeagg
import treeagg.cli

from corpus import TreebankSpec, make_treebank

METHODS = ("mst", "crh", "cim")


@dataclass(frozen=True)
class Job:
    index: int
    name: str
    seed: tuple[int, ...]
    spec: TreebankSpec
    tokens: int = 0


@dataclass(frozen=True)
class Unit:
    """One method's prediction file and what to score it against."""

    job: int
    method: str
    pred: Path
    gold: Path
    parsers: tuple[Path, ...]


class JobFailed(RuntimeError):
    pass


Span = Callable[[str], ContextManager]


def write_inputs(job: Job, root: Path) -> Job:
    """Generate the job's treebank and write gold and parser files."""
    tb = make_treebank(job.spec, job.seed)
    d = root / job.name
    (d / "parsers").mkdir(parents=True, exist_ok=True)
    (d / "gold.conllu").write_text(tb.gold, encoding="utf-8")
    for pid, text in tb.parsers:
        (d / "parsers" / f"{pid}.conllu").write_text(text, encoding="utf-8")
    return replace(job, tokens=tb.tokens)


def parser_paths(d: Path, selected: Sequence[str] | None = None) -> tuple[Path, ...]:
    paths = sorted(d.glob("*.conllu"))
    if selected is not None:
        paths = [p for p in paths if p.stem in set(selected)]
    return tuple(paths)


def aggregate(parsers: Sequence[Path], methods: Sequence[str], out: Path) -> None:
    """Load, aggregate with each method, write one prediction file each."""
    files = [treeagg.load_treebank(p) for p in parsers]
    ensemble = treeagg.build_ensemble(files)
    matrix = treeagg.label_matrix(ensemble)
    for method in methods:
        if method == "mst":
            trees = treeagg.vote_mst(ensemble)
        elif method == "crh":
            state = treeagg.crh_run(matrix, treeagg.CrhOptions(), ensemble)
            trees = treeagg.crh_trees(state, matrix, ensemble)
        else:
            result = treeagg.cim_run(matrix)
            trees = treeagg.cim_trees(result.scores, matrix, ensemble)
        treeagg.save_treebank(files[0], out / f"{method}.conllu", trees)


class Workload:
    name = ""
    timed: tuple[str, ...] = ()
    # Untimed accuracy pass: treebanks from the front of the pass, up to
    # this many input tokens, aggregated with the methods not timed here.
    accuracy_tokens = 0

    def jobs(self, seed: int) -> list[Job]:
        raise NotImplementedError

    def run(self, job: Job, inputs: Path, out: Path, span: Span) -> None:
        d = out / job.name
        d.mkdir(parents=True, exist_ok=True)
        aggregate(parser_paths(inputs / job.name / "parsers"), self.timed, d)

    def finish_pass(self, jobs: Sequence[Job], out: Path, span: Span) -> None:
        """Timed once per pass, after the jobs."""

    def check(self, jobs: Sequence[Job], out: Path, uas: dict[tuple[int, str], float]) -> list[str]:
        """Workload-specific output checks; returns failure messages."""
        return []

    def sources(self, job: Job, inputs: Path, out: Path) -> tuple[tuple[Path, ...], Path]:
        """The parser files a job aggregates and the gold file to score on."""
        return parser_paths(inputs / job.name / "parsers"), inputs / job.name / "gold.conllu"

    def units(self, job: Job, inputs: Path, out: Path) -> list[Unit]:
        parsers, gold = self.sources(job, inputs, out)
        d = out / job.name
        return [Unit(job.index, m, d / f"{m}.conllu", gold, parsers) for m in self.timed]


def _spec(name: str, n: int, median: float, sigma: float, max_len: int,
          m: int, dup: bool = False, seg: float = 0.0) -> TreebankSpec:
    rates = tuple(float(r) for r in np.linspace(0.10, 0.32, m - int(dup)))
    return TreebankSpec(
        name, n, median, sigma, max_len, rates,
        near_duplicates=((0, 0.03),) if dup else (),
        seg_error_rate=seg,
    )


class CimMixed(Workload):
    """cim over treebanks of 25 to 200 sentences, 10 parsers, one of them a
    near-duplicate. The small treebanks are bound by fixed iteration caps,
    the large ones by rows, so a change that helps one and hurts the other
    shows."""

    name = "cim_mixed"
    timed = ("cim",)
    accuracy_tokens = 10**9
    sizes = (25, 50, 100, 200)

    def jobs(self, seed: int) -> list[Job]:
        return [
            Job(i, f"tb{i:02d}", (seed, 1, i), _spec(f"tb{i:02d}", n, 10, 0.55, 80, 10, dup=True))
            for i, n in enumerate(self.sizes)
        ]


class ProtocolSweep(Workload):
    """The paper's per-treebank protocol through ``treeagg.cli.run`` over many
    small treebanks, so per-job fixed costs dominate: CoNLL-U I/O, filtering,
    JSON and reporting. cim is left out: its fixed cost would hide these.

    Once per pass, after ``report``, ``synth`` writes a small corpus, so
    every subcommand runs and the synth layer (tree repair by arborescence
    on dense complete graphs) is measured.
    """

    name = "protocol_sweep"
    timed = ("mst", "crh")
    accuracy_tokens = 2500
    n_jobs = 30
    min_sentences = "20"
    top_k = "9"

    def jobs(self, seed: int) -> list[Job]:
        out = []
        for i in range(self.n_jobs):
            n = (30, 40, 50)[i % 3]
            out.append(Job(i, f"tb{i:02d}", (seed, 3, i),
                           _spec(f"tb{i:02d}", n, 12, 0.6, 60, 10, seg=0.03)))
        return out

    @staticmethod
    def _cli(span: Span, argv: list[str]) -> None:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), span(f"cli.{argv[0]}"):
            code = treeagg.cli.run(argv)
        if code != 0:
            raise JobFailed(f"treeagg {argv[0]} exited {code}: {sink.getvalue().strip()}")

    def run(self, job: Job, inputs: Path, out: Path, span: Span) -> None:
        src = inputs / job.name
        d = out / job.name
        filt = d / "filtered"
        sel = str(d / "selected.json")
        self._cli(span, ["preprocess", "--inputs", str(src / "parsers"),
                         "--gold", str(src / "gold.conllu"), "--out-dir", str(filt),
                         "--min-sentences", self.min_sentences])
        self._cli(span, ["rank", "--inputs", str(filt / "parsers"),
                         "--gold", str(filt / "gold.conllu"), "--seed", str(job.seed[0]),
                         "--top-k", self.top_k, "--out", sel])
        for m in self.timed:
            self._cli(span, ["aggregate", "--inputs", str(filt / "parsers"), "--method", m,
                             "--selected", sel, "--out", str(d / f"{m}.conllu")])
        preds = [a for m in self.timed for a in ("--pred", f"{m}={d / f'{m}.conllu'}")]
        self._cli(span, ["evaluate", "--gold", str(filt / "gold.conllu"), *preds,
                         "--inputs", str(filt / "parsers"), "--selected", sel,
                         "--filters", str(filt / "filters.json"), "--treebank", job.name,
                         "--out", str(d / "report.json")])

    def finish_pass(self, jobs: Sequence[Job], out: Path, span: Span) -> None:
        reports = [str(out / j.name / "report.json") for j in jobs]
        self._cli(span, ["report", "--reports", *reports, "--primary", "crh",
                         "--out", str(out / "summary.json")])
        self._cli(span, ["synth", "--out-dir", str(out / "synth"), "--sentences", "4",
                         "--tokens", "12:12", "--rates", "0.05,0.1,0.15,0.2,0.25,0.3",
                         "--seed", str(jobs[0].seed[0])])

    def check(self, jobs: Sequence[Job], out: Path, uas: dict[tuple[int, str], float]) -> list[str]:
        """evaluate's UAS must equal the benchmark's own count; report sees every job."""
        failures = []
        for job in jobs:
            report = json.loads((out / job.name / "report.json").read_text(encoding="utf-8"))
            for m in self.timed:
                if abs(report["methods"][m] - uas[(job.index, m)]) > 1e-9:
                    failures.append(f"{job.name}: evaluate says {m} UAS {report['methods'][m]}, "
                                    f"recount {uas[(job.index, m)]}")
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        for m in self.timed:
            if summary["groups"]["all"][m]["n"] != len(jobs):
                failures.append(f"report counts {summary['groups']['all'][m]['n']} treebanks for {m}")
        gold = treeagg.load_treebank(out / "synth" / "gold.conllu")
        for path in parser_paths(out / "synth" / "parsers"):
            if [len(s) for s in treeagg.load_treebank(path).sentences] != [len(s) for s in gold.sentences]:
                failures.append(f"synth wrote {path.name} with token counts unlike its gold file")
        return failures

    def _selected(self, d: Path) -> list[str]:
        return json.loads((d / "selected.json").read_text(encoding="utf-8"))["selected"]

    def sources(self, job: Job, inputs: Path, out: Path) -> tuple[tuple[Path, ...], Path]:
        d = out / job.name
        return parser_paths(d / "filtered" / "parsers", self._selected(d)), d / "filtered" / "gold.conllu"


WARMUP = TreebankSpec("warmup", 12, 10, 0.5, 30, (0.1, 0.15, 0.2, 0.25, 0.3))


def write_warmup(root: Path) -> None:
    write_inputs(Job(0, "warmup", (0, 0, 0), WARMUP), root)


def warm_up(root: Path) -> None:
    """The set-up work done before timing: one small mst aggregation."""
    aggregate(parser_paths(root / "warmup" / "parsers"), ("mst",), root / "warmup")


WORKLOADS = {w.name: w for w in (CimMixed(), ProtocolSweep())}
