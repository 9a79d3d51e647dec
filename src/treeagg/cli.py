"""Command line pipeline: preprocess, rank, aggregate, evaluate, report, synth.

Stages compose through files so each step is independently inspectable:

    treeagg synth      --out-dir corpus --sentences 200 --tokens 5:12 \\
                       --rates 0.05,0.1,0.2 --seed 7
    treeagg preprocess --inputs corpus/parsers --gold corpus/gold.conllu \\
                       --out-dir filtered
    treeagg rank       --inputs filtered/parsers --gold filtered/gold.conllu \\
                       --seed 7 --out selected.json
    treeagg aggregate  --inputs filtered/parsers --method cim --out pred.conllu
    treeagg evaluate   --gold filtered/gold.conllu --pred cim=pred.conllu \\
                       --out report.json
    treeagg report     --reports report.json --out summary.json

Identical inputs, flags, and seeds produce byte-identical outputs. Exit
codes: 0 success, 1 runtime error, 2 usage error, 3 treebank rejected by
preprocessing thresholds.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from . import cim as cim_mod
from . import crh as crh_mod
from .conllu import TreebankFile, build_ensemble, load_treebank, load_treebanks, save_treebank
from .edges import iter_dump_lines, label_matrix
from .evaluation import (
    TreebankReport,
    json_number,
    method_diffs,
    preprocess,
    rank_and_select,
    string_list,
    summarize,
    uas,
    vote_mst,
)
from .synth import SynthConfig, generate

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REJECTED = 3

METHODS = ("mst", "crh", "cim")


def _load_parser_dir(
    inputs: str, selected: Sequence[str] | None = None
) -> list[TreebankFile]:
    """Parse the ``*.conllu`` files under ``inputs`` in name order, or with
    ``selected`` only those whose stem is a selected parser id, in one scan."""
    paths = sorted(Path(inputs).glob("*.conllu"))
    if not paths:
        raise FileNotFoundError(f"no .conllu files under {inputs}")
    if selected is not None:
        if not selected:
            raise ValueError("the parser selection is empty")
        stems = {p.stem for p in paths}
        missing = [s for s in selected if s not in stems]
        if missing:
            raise ValueError(f"selected parsers not found: {missing}")
        paths = [p for p in paths if p.stem in selected]
    return load_treebanks(paths)


def _write_json(path: str, payload: object) -> None:
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _round_floats(value: object) -> object:
    """``value`` with every float in it rounded to 2 decimals, for display."""
    if isinstance(value, float):
        return round(value, 2)
    if isinstance(value, dict):
        return {k: _round_floats(v) for k, v in value.items()}
    return value


def _cmd_preprocess(args: argparse.Namespace) -> int:
    files = _load_parser_dir(args.inputs)
    gold = load_treebank(args.gold)
    result = preprocess(files, gold, args.min_sentences, args.min_parsers)
    log = result.log
    out_dir = Path(args.out_dir)
    (out_dir / "parsers").mkdir(parents=True, exist_ok=True)
    _write_json(str(out_dir / "filters.json"), asdict(log))
    if log.rejected is not None:
        print(f"treebank rejected: {log.rejected}", file=sys.stderr)
        return EXIT_REJECTED
    assert result.files is not None and result.gold is not None
    for f in result.files:
        save_treebank(f, out_dir / "parsers" / f"{f.parser_id}.conllu")
    save_treebank(result.gold, out_dir / "gold.conllu")
    print(
        f"kept {log.kept}/{log.total} sentences "
        f"(segmentation {log.seg_dropped}, agreement {log.agree_dropped})"
    )
    return EXIT_OK


def _cmd_rank(args: argparse.Namespace) -> int:
    files = _load_parser_dir(args.inputs)
    gold = load_treebank(args.gold)
    ensemble = build_ensemble(files)
    result = rank_and_select(ensemble, gold, top_k=args.top_k, seed=args.seed)
    payload = asdict(result)
    if result.warning is None:
        del payload["warning"]
    else:
        print(result.warning, file=sys.stderr)
    _write_json(args.out, payload)
    return EXIT_OK


def _read_json(path: str, *keys: str, build: Callable[[dict], Any] = dict) -> Any:
    """``build`` applied to the JSON object in ``path``, which must hold
    every key in ``keys``; a value ``build`` cannot convert is an error
    that names the file."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(data).__name__}")
    for key in keys:
        if key not in data:
            raise ValueError(f"{path}: missing key {key!r}")
    try:
        return build(data)
    except (TypeError, ValueError) as e:
        raise ValueError(f"{path}: {e}") from e


def _selected_ids(path: str | None) -> tuple[str, ...] | None:
    if path is None:
        return None
    return _read_json(path, "selected", build=lambda d: string_list(d["selected"], "'selected'"))


def _cmd_aggregate(args: argparse.Namespace) -> int:
    if args.diagnostics and args.method != "cim":
        raise ValueError("--diagnostics needs --method cim")
    files = _load_parser_dir(args.inputs, _selected_ids(args.selected))
    ensemble = build_ensemble(files)
    matrix = label_matrix(ensemble)
    if args.dump_matrix:
        Path(args.dump_matrix).write_text(
            "\n".join(iter_dump_lines(matrix)) + "\n", encoding="utf-8"
        )
    single_root = not args.no_single_root
    if args.method == "mst":
        heads = vote_mst(ensemble, single_root, matrix)
    elif args.method == "crh":
        opts = crh_mod.CrhOptions(args.crh_distance, single_root)
        state = crh_mod.crh_run(matrix, opts, ensemble)
        if not state.converged:
            warning = f"crh stopped after {state.iterations} iterations without converging"
            print(f"warning: {warning}", file=sys.stderr)
        heads = crh_mod.crh_trees(state, matrix, ensemble)
    else:
        result = cim_mod.cim_run(matrix, collapse=not args.cim_no_collapse)
        if not result.graph.converged:
            warning = f"cim's correlation fit stopped after {result.graph.iterations} iterations"
            print(f"warning: {warning} without converging", file=sys.stderr)
        heads = cim_mod.cim_trees(result.scores, matrix, ensemble, single_root)
        if args.diagnostics:
            _write_json(args.diagnostics, result.diagnostics())
    save_treebank(files[0], args.out, heads)
    return EXIT_OK


def _cmd_evaluate(args: argparse.Namespace) -> int:
    if args.selected and not args.inputs:
        raise ValueError("--selected needs --inputs")
    gold = load_treebank(args.gold)
    exclude = np.array(gold.column(3)) == "PUNCT" if args.exclude_punct else None
    methods: dict[str, float] = {}
    for spec in args.pred:
        name, _, path = spec.partition("=")
        if not path:
            raise ValueError(f"--pred wants NAME=FILE, got {spec!r}")
        if not name or name in methods or (args.inputs and name in ("best_parser", "avg_parser")):
            raise ValueError(f"--pred NAME {name!r} is empty, repeated or an --inputs baseline")
        pred = load_treebank(path)
        methods[name] = uas(pred, gold, exclude)
    selected = _selected_ids(args.selected)  # None without --inputs
    if args.inputs:
        files = _load_parser_dir(args.inputs, selected)
        per_parser = {
            f.parser_id: uas(f, gold, exclude) for f in files
        }
        methods["best_parser"] = max(per_parser.values())
        methods["avg_parser"] = sum(per_parser.values()) / len(per_parser)
    filters: dict[str, int] = {}
    if args.filters:
        keys = ("seg_dropped", "agree_dropped")
        filters = _read_json(
            args.filters, *keys, build=lambda d: {k: json_number(d[k], repr(k), int) for k in keys}
        )
    report = TreebankReport(
        treebank=args.treebank or Path(args.gold).stem,
        n_sentences=len(gold),
        methods=methods,
        selected_parsers=selected or (),
        filters=filters,
    )
    _write_json(args.out, asdict(report))
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    reports: dict[str, TreebankReport] = {}
    for path in args.reports:
        r = _read_json(path, "treebank", "n_sentences", "methods", build=TreebankReport.from_json)
        if r.treebank in reports:
            raise ValueError(f"{path}: repeats treebank {r.treebank!r} of an earlier report")
        reports[r.treebank] = r
    groups: dict[str, Sequence[str]] = {"all": list(reports)}
    if args.groups:
        groups = _read_json(
            args.groups, build=lambda d: {g: string_list(v, f"group {g!r}") for g, v in d.items()}
        )
    if not any(args.primary in r.methods for r in reports.values()):
        raise ValueError(f"--primary {args.primary!r} is scored by no report")
    payload: dict = {"groups": {}, "diffs": {}}
    for group, names in groups.items():
        wanted = set(names)
        members = [r for r in reports.values() if r.treebank in wanted]
        if not members:
            continue
        per_method: dict[str, list[float]] = {}
        for r in members:
            for method, value in r.methods.items():
                per_method.setdefault(method, []).append(value)
        payload["groups"][group] = {
            method: asdict(summarize(vals, group)) for method, vals in sorted(per_method.items())
        }
        diffs = method_diffs(members, args.primary)
        if diffs:
            payload["diffs"][group] = {b: asdict(d) for b, d in diffs.items()}
    _write_json(args.out, _round_floats(payload))
    return EXIT_OK


def _cmd_synth(args: argparse.Namespace) -> int:
    lo, _, hi = args.tokens.partition(":")
    config = SynthConfig(
        sentences=args.sentences,
        rates=tuple(float(r) for r in args.rates.split(",")),
        tokens=(int(lo), int(hi or lo)),
        seed=args.seed,
        duplicates=tuple(args.duplicate_of or ()),
    )
    result = generate(config)
    out_dir = Path(args.out_dir)
    (out_dir / "parsers").mkdir(parents=True, exist_ok=True)
    save_treebank(result.gold, out_dir / "gold.conllu")
    for f in result.files:
        save_treebank(f, out_dir / "parsers" / f"{f.parser_id}.conllu")
    parsers = [f.parser_id for f in result.files]
    manifest = {**asdict(config), "parsers": parsers, "accuracies": result.accuracies}
    _write_json(str(out_dir / "manifest.json"), manifest)
    print(f"wrote {config.m} parser files under {out_dir}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every call."""
    parser = argparse.ArgumentParser(
        prog="treeagg",
        description="Aggregate dependency parser ensembles into consensus trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="filter a treebank for aggregation")
    p.add_argument("--inputs", required=True, help="directory of parser .conllu files")
    p.add_argument("--gold", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--min-sentences", type=int, default=50)
    p.add_argument("--min-parsers", type=int, default=9)
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("rank", help="rank parsers on a seeded sample")
    p.add_argument("--inputs", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--top-k", type=int, default=9)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("aggregate", help="produce consensus trees")
    p.add_argument("--inputs", required=True)
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--selected", help="JSON from the rank step")
    p.add_argument("--no-single-root", action="store_true")
    p.add_argument("--dump-matrix", help="write the edge/vote matrix here")
    p.add_argument("--diagnostics", help="write estimation diagnostics here (cim)")
    p.add_argument("--crh-distance", choices=crh_mod.DISTANCE_MODES, default="edge")
    p.add_argument("--cim-no-collapse", action="store_true")
    p.set_defaults(func=_cmd_aggregate)

    p = sub.add_parser("evaluate", help="score predictions against gold")
    p.add_argument("--gold", required=True)
    p.add_argument(
        "--pred", action="append", required=True, metavar="NAME=FILE"
    )
    p.add_argument("--out", required=True)
    p.add_argument("--treebank")
    p.add_argument("--inputs", help="parser dir, adds best/average baselines")
    p.add_argument("--selected")
    p.add_argument("--exclude-punct", action="store_true")
    p.add_argument("--filters", help="filters.json from the preprocess step")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("report", help="summarize per-treebank reports")
    p.add_argument("--reports", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--groups", help="JSON mapping group name to treebank names")
    p.add_argument("--primary", default="cim")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("synth", help="generate a noisy synthetic ensemble")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--sentences", type=int, required=True)
    p.add_argument("--tokens", required=True, help="MIN:MAX token range")
    p.add_argument("--rates", required=True, help="comma-separated corruption rates")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument(
        "--duplicate-of",
        type=int,
        action="append",
        metavar="INDEX",
        help="append a copy of parser INDEX (0-based); repeatable",
    )
    p.set_defaults(func=_cmd_synth)
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:  # a ConlluError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
