"""treeagg benchmark: per-treebank aggregation throughput, latency and UAS.

Run from the root of a treeagg checkout:

    python3 perfbench/run.py --workload cim_mixed --seed 1 --seconds 40 --trace 0

Inputs are generated from --seed. One client in one process runs the
workload's treebank jobs one after another, in whole passes, while
another pass fits in --seconds. Outputs are then checked. With
--trace 0 the end-to-end metrics are printed; with --trace 1 untraced and
traced passes alternate and the per-layer metrics are printed.

Times are CPU seconds of this single-threaded process (BLAS is held to one
thread), not wall seconds: on a host shared with other tenants, wall time
also counts the time the hypervisor gives their virtual CPUs. Each time is
then scaled to a reference host speed by probes run next to it (calib.py).

The last line of standard output is one JSON object. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

# Before numpy is imported, here and in the set-up interpreters.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import calib  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 11
MIN_PASSES = 3
CLOCK = time.process_time
WORKLOAD_NAMES = ("cim_mixed", "protocol_sweep")
# Per-layer counts that must repeat exactly between passes over one seed.
REPEAT_COUNTS = (
    "edges.rows", "arborescence.max_arborescence.calls", "arborescence.arcs",
    "cim.l1_iterations", "cim.fit_iterations", "crh.iterations",
)


def digest(d: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(d.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(d)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def tail(times: list[float]) -> tuple[float, str]:
    """Value at the highest percentile with at least ten jobs beyond it."""
    s = sorted(times)
    n = len(s)
    if n > 10:
        return s[n - 11], f"p{100 * (n - 10) / n:.0f} of {n} jobs"
    return s[-1], f"max of {n} jobs: fewer than 11, so no percentile has ten beyond it"


class Run:
    def __init__(self, args: argparse.Namespace, root: Path) -> None:
        import treeagg
        import workloads

        self.T = treeagg
        self.W = workloads
        self.args = args
        self.root = root
        self.workload = workloads.WORKLOADS[args.workload]
        self.work = root / ".perfbench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.inputs = self.work / "inputs"
        self.out = self.work / "out"
        self.failures: list[str] = []
        self.attempted = 0

    def fail(self, message: str) -> None:
        self.failures.append(message)
        print(f"check failed: {message}", file=sys.stderr)

    # -- set-up -----------------------------------------------------------

    def setup_seconds(self) -> float:
        """Median over fresh interpreters of importing treeagg and warming up,
        in CPU seconds at reference speed: each scaled by the probes the
        interpreter runs after it."""
        self.W.write_warmup(self.work)
        samples = []
        for _ in range(SETUP_SAMPLES):
            done = subprocess.run(
                [sys.executable, str(HERE / "probe.py"), str(self.root), str(self.work)],
                cwd=self.root, capture_output=True, text=True, timeout=120, check=True,
            )
            elapsed, probe = map(float, done.stdout.strip().splitlines()[-1].split())
            samples.append(elapsed * calib.scale(probe, probe))
        self.W.warm_up(self.work)
        return statistics.median(samples)

    # -- timed loop -------------------------------------------------------

    def run_pass(self, jobs, tracer) -> dict:
        span = tracer.span if tracer is not None else (lambda name: nullcontext())
        times, scales, weights, hashes = [], [], [], {}
        before = calib.probe()
        for job in jobs:
            if tracer is not None:
                tracer.job = job.index
            self.attempted += 1
            start = CLOCK()
            try:
                self.workload.run(job, self.inputs, self.out, span)
                ok = True
            except Exception:  # a failed job is counted; the loop goes on
                traceback.print_exc()
                ok = False
            times.append(CLOCK() - start)
            after = calib.probe()
            scales.append(calib.scale(before, after))
            before = after
            if not ok:
                self.fail(f"job {job.name} raised")
                weights.append(0)
                continue
            weights.append(job.tokens * len(self.workload.timed))
            hashes[job.name] = digest(self.out / job.name)
        if tracer is not None:
            tracer.job = -1
        start = CLOCK()
        try:
            self.workload.finish_pass(jobs, self.out, span)
        except Exception:
            traceback.print_exc()
            self.fail("end-of-pass step raised")
        finish = CLOCK() - start
        after = calib.probe()
        return {"times": times, "scales": scales, "finish": finish,
                "finish_scale": calib.scale(before, after),
                "weights": weights, "hashes": hashes}

    def measure(self, jobs, tracer) -> list[dict]:
        """Whole passes while another one fits in --seconds of wall time,
        at least MIN_PASSES. In trace mode passes alternate untraced and
        traced, at least two of each."""
        passes: list[dict] = []
        start = time.perf_counter()
        while True:
            traced = tracer is not None and len(passes) % 2 == 1
            if traced:
                tracer.install()
            begin = time.perf_counter()
            try:
                p = self.run_pass(jobs, tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            p["traced"] = traced
            if traced:
                p["counts"] = dict(tracer.counts)
                tracer.counts.clear()
            passes.append(p)
            p["wall"] = time.perf_counter() - begin
            next_end = time.perf_counter() - start + statistics.median(q["wall"] for q in passes)
            if next_end > self.args.seconds and len(passes) >= (MIN_PASSES if tracer is None else 4):
                return passes

    # -- checks -----------------------------------------------------------

    def score(self, units) -> dict:
        """Check every prediction file and count attachments per method."""
        T = self.T
        counts: dict[str, list[int]] = {}
        parser_counts: dict[str, list[int]] = {}
        per_unit: dict[tuple[int, str], float] = {}
        loaded: dict[Path, object] = {}

        def load(path: Path):
            if path not in loaded:
                loaded[path] = T.load_treebank(path)
            return loaded[path]

        for u in units:
            gold = load(u.gold)
            try:
                pred = T.load_treebank(u.pred)
            except (T.ConlluError, OSError) as e:
                self.fail(f"{u.pred}: does not parse back: {e}")
                continue
            if len(pred) != len(gold):
                self.fail(f"{u.pred}: {len(pred)} sentences, gold has {len(gold)}")
                continue
            correct = total = 0
            for ps, gs in zip(pred.sentences, gold.sentences):
                heads, q = ps.tree.heads, len(gs)
                if ps.sentence_id != gs.sentence_id or len(ps) != q:
                    self.fail(f"{u.pred}: sentence {ps.sentence_id} does not match gold")
                    continue
                if not T.validate_tree(heads, q).ok or heads.count(0) != 1:
                    self.fail(f"{u.pred}: sentence {ps.sentence_id} is not a single-rooted tree")
                correct += sum(p == g for p, g in zip(heads, gs.tree.heads))
                total += q
            c = counts.setdefault(u.method, [0, 0])
            c[0] += correct
            c[1] += total
            per_unit[(u.job, u.method)] = 100.0 * correct / max(total, 1)
            for path in u.parsers:
                pc = parser_counts.setdefault(f"{u.method}:{path.stem}", [0, 0])
                pc[0] += sum(
                    p == g
                    for ps, gs in zip(load(path).sentences, gold.sentences)
                    for p, g in zip(ps.tree.heads, gs.tree.heads)
                )
                pc[1] += sum(len(gs) for gs in gold.sentences)
        uas = {m: 100.0 * c / t for m, (c, t) in counts.items()}
        best = {}
        for key, (c, t) in parser_counts.items():
            m = key.split(":")[0]
            best[m] = max(best.get(m, 0.0), 100.0 * c / t)
        return {"uas": uas, "best": best, "per_unit": per_unit,
                "tokens": {m: t for m, (_, t) in counts.items()}}

    def accuracy_units(self, jobs):
        """Untimed: aggregate a prefix of the pass with the untimed methods."""
        methods = [m for m in self.W.METHODS if m not in self.workload.timed]
        units, tokens = [], 0
        for job in jobs:
            if tokens >= self.workload.accuracy_tokens:
                break
            parsers, gold = self.workload.sources(job, self.inputs, self.out)
            d = self.work / "accuracy" / job.name
            d.mkdir(parents=True, exist_ok=True)
            self.W.aggregate(parsers, methods, d)
            units += [self.W.Unit(job.index, m, d / f"{m}.conllu", gold, parsers) for m in methods]
            tokens += sum(len(s) for s in self.T.load_treebank(gold).sentences)
        return units

    def check_determinism(self, jobs, first_hashes) -> None:
        """The same seed must give byte-identical inputs and outputs."""
        job = jobs[0]
        again = self.work / "again"
        regen = self.W.write_inputs(job, again / "inputs")
        if digest(again / "inputs" / job.name) != digest(self.inputs / job.name):
            self.fail(f"{job.name}: regenerated inputs differ")
        self.workload.run(regen, again / "inputs", again / "out", lambda name: nullcontext())
        if first_hashes.get(job.name) != digest(again / "out" / job.name):
            self.fail(f"{job.name}: a second run of the same seed wrote different bytes")

    def check(self, jobs, passes) -> dict:
        first = passes[0]["hashes"]
        for i, p in enumerate(passes[1:], start=2):
            for name, h in p["hashes"].items():
                if first.get(name) != h:
                    self.fail(f"{name}: pass {i} wrote different bytes from pass 1")
        self.check_determinism(jobs, first)
        timed = [u for job in jobs for u in self.workload.units(job, self.inputs, self.out)]
        scored = self.score(timed + self.accuracy_units(jobs))
        for message in self.workload.check(jobs, self.out, scored["per_unit"]):
            self.fail(message)
        uas, best = scored["uas"], scored["best"]
        for m in self.W.METHODS:
            if m not in uas:
                self.fail(f"no UAS for {m}")
        if "cim" in uas and uas["cim"] < best["cim"] - 1.0:
            self.fail(f"cim UAS {uas['cim']:.2f} below best single parser {best['cim']:.2f} minus 1")
        for m, u in uas.items():
            if not best[m] < u < 100.0:
                self.fail(f"{m} UAS {u:.2f} not strictly between best parser {best[m]:.2f} and 100")
        return scored


def typical(passes, scaled: bool = True) -> tuple[list[float], float]:
    """Per-job time as the median of its repeats, and the pass they make.
    Scaled times are at reference host speed (calib.py)."""
    def at(p, i):
        return p["times"][i] * (p["scales"][i] if scaled else 1.0)

    times = [statistics.median(at(p, i) for p in passes) for i in range(len(passes[0]["times"]))]
    finish = statistics.median(p["finish"] * (p["finish_scale"] if scaled else 1.0) for p in passes)
    return times, sum(times) + finish


def end_to_end(run: Run, passes, setup_s: float, peak_rss_mb: float, scored) -> dict:
    times, busy = typical(passes)
    cpu = typical(passes, scaled=False)[1]
    wall = statistics.median(p["wall"] for p in passes)
    speed = statistics.median(x for p in passes for x in p["scales"])
    tail_s, tail_note = tail(times)
    failed = len(run.failures)
    each = f"each the median of {len(passes)} repeats, CPU seconds at reference speed"
    return {
        "tokens_per_s": (sum(passes[0]["weights"]) / busy, "1/s",
                         f"over one pass of {busy:.2f} s ({cpu:.2f} s CPU, {wall:.2f} s wall; "
                         f"host speed {speed:.2f} of reference), {each}"),
        "treebank_p50_s": (statistics.median(times), "s", f"median of {len(times)} jobs, {each}"),
        "treebank_tail_s": (tail_s, "s", tail_note),
        **{
            f"uas_{m}": (scored["uas"].get(m, 0.0), "%", f"{scored['tokens'].get(m, 0)} tokens"
                         + ("" if m in run.workload.timed else ", untimed accuracy pass"))
            for m in run.W.METHODS
        },
        "peak_rss_mb": (peak_rss_mb, "MB", "ru_maxrss after the timed passes"),
        "setup_s": (setup_s, "s",
                    f"median of {SETUP_SAMPLES} fresh interpreters, CPU seconds at reference speed"),
        "success_ratio": (1.0 - failed / run.attempted, "ratio",
                          f"failed_ratio {failed / run.attempted:.4f} = {failed}/{run.attempted}"),
    }


def per_layer(tracer, passes) -> dict:
    traced = [p for p in passes if p["traced"]]
    n = len(traced)
    inclusive, self_by_name = tracer.summary()
    counts: dict[str, float] = {}
    for p in traced:
        for k, v in p["counts"].items():
            counts[k] = counts.get(k, 0) + v

    def inc(name: str) -> float:
        return inclusive.get(name, 0.0) / n

    def cnt(key: str) -> float:
        return counts.get(key, 0) / n

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    arb_s, arcs = inc("arborescence.max_arborescence"), cnt("arborescence.arcs")
    parse_s = inc("conllu.parse_conllu")
    l1_calls, fits = cnt("cim.fit_l1_logistic.calls"), cnt("cim.fit_canonical_params.calls")
    overhead = typical(traced)[1] / typical([p for p in passes if not p["traced"]])[1] - 1.0
    repeat = all(
        p["counts"].get(k, 0) == traced[0]["counts"].get(k, 0) for p in traced for k in REPEAT_COUNTS
    )
    layer_self: dict[str, float] = {}
    for name, s in self_by_name.items():
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + s / n
    out = {
        "cim.correlation_s": (inc("cim.estimate_correlation_graph"), "s"),
        "cim.l1_iterations": (cnt("cim.l1_iterations"), "count"),
        "cim.l1_converged_ratio": (ratio(cnt("cim.l1_converged"), l1_calls), "ratio"),
        "cim.moments_s": (inc("cim.estimate_mean_params"), "s"),
        "cim.fit_s": (inc("cim.fit_canonical_params"), "s"),
        "cim.fit_iterations": (cnt("cim.fit_iterations"), "count"),
        "cim.plugin_ratio": (ratio(cnt("cim.plugin_canonical_params.calls"), fits), "ratio"),
        "cim.infer_s": (inc("cim.infer_scores"), "s"),
        "arborescence.calls": (cnt("arborescence.max_arborescence.calls"), "count"),
        "arborescence.arcs": (arcs, "count"),
        "arborescence.s": (arb_s, "s"),
        "arborescence.us_per_arc": (ratio(arb_s * 1e6, arcs), "us"),
        "edges.label_matrix_s": (inc("edges.label_matrix"), "s"),
        "edges.rows": (cnt("edges.rows"), "count"),
        "edges.decode_s": (self_by_name.get("edges.trees_from_scores", 0.0) / n, "s"),
        "crh.run_s": (inc("crh.crh_run"), "s"),
        "crh.iterations": (cnt("crh.iterations"), "count"),
        "conllu.parse_s": (parse_s, "s"),
        "conllu.parse_mb_per_s": (ratio(cnt("conllu.bytes") / 1e6, parse_s), "MB/s"),
        "conllu.write_s": (inc("conllu.write_conllu"), "s"),
        "evaluation.preprocess_s": (inc("evaluation.preprocess"), "s"),
        "evaluation.kept_ratio": (ratio(cnt("evaluation.kept"), cnt("evaluation.sentences")), "ratio"),
        "evaluation.rank_s": (inc("evaluation.rank_and_select"), "s"),
        "evaluation.uas_s": (inc("evaluation.uas"), "s"),
        **{f"cli.{c}_s": (inc(f"cli.{c}"), "s")
           for c in ("preprocess", "rank", "aggregate", "evaluate", "report", "synth")},
        "synth.generate_s": (inc("synth.generate"), "s"),
        "trees.validate_calls": (cnt("trees.validate_tree.calls"), "count"),
        **{f"{layer}.self_s": (layer_self.get(layer, 0.0), "s") for layer in spans.LAYERS},
        "trace.overhead_ratio": (overhead, "ratio"),
        "trace.counts_repeat": (1.0 if repeat else 0.0, "bool"),
    }
    if not repeat:
        for k in REPEAT_COUNTS:
            seen = [p["counts"].get(k, 0) for p in traced]
            if len(set(seen)) > 1:
                print(f"count {k} differs between passes of one seed: {seen}", file=sys.stderr)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd().resolve()
    package = root / "src" / "treeagg"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no treeagg sources under {package}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import treeagg

    if Path(treeagg.__file__).resolve().parent != package:
        print(f"perfbench: imported treeagg from {treeagg.__file__}, not {package}", file=sys.stderr)
        return 2

    run = Run(args, root)
    shutil.rmtree(run.work, ignore_errors=True)
    clock = time.perf_counter()

    def phase(name: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        print(f"phase {name}: {now - clock:.2f} s", file=sys.stderr)
        clock = now

    try:
        setup_s = run.setup_seconds()
        phase("set-up samples")
        jobs = [run.W.write_inputs(j, run.inputs) for j in run.workload.jobs(args.seed)]
        phase("input generation")
        tracer = spans.Tracer() if args.trace else None
        passes = run.measure(jobs, tracer)
        phase("timed passes")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        try:
            scored = run.check(jobs, passes)
            phase("checks and accuracy pass")
        except Exception:
            traceback.print_exc()
            run.fail("output checks raised")
            scored = {"uas": {}, "tokens": {}}
        if tracer is None:
            metrics = end_to_end(run, passes, setup_s, peak_rss_mb, scored)
        else:
            metrics = per_layer(tracer, passes)
            tracer.dump(
                str(root / ".perfbench_out" / f"trace-{args.workload}-{args.seed}.json"),
                {"workload": args.workload, "seed": args.seed,
                 "pass_counts": [p["counts"] for p in passes if p["traced"]]},
            )
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    for name, (value, unit, *note) in metrics.items():
        print(f"{name:28s} {value:14.6g} {unit:6s} {note[0] if note else ''}")
    for message in run.failures:
        print(f"FAILED {message}")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, *_) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
