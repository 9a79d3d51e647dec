"""Synthetic ensembles with known per-parser noise.

Gold trees are sampled uniformly over single-rooted valid head sequences
(rejection sampling). Each parser re-samples every token's head with its
own corruption rate, then the damaged preference is repaired into a valid
tree by a maximum arborescence that favors the preferred heads. All
randomness derives from (seed, sentence index), so regeneration is
byte-identical and appending sentences never reshuffles earlier ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arborescence import WeightedTokenGraph, max_arborescence
from .conllu import TreebankFile, build_ensemble, parse_conllu
from .trees import DepTree, ParseEnsemble, validate_tree

_KEEP = 1.0
_FILLER = 1e-6


@dataclass(frozen=True)
class SynthConfig:
    n_sentences: int
    tokens: tuple[int, int]
    rates: tuple[float, ...]
    seed: int
    duplicates: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        lo, hi = self.tokens
        if self.n_sentences < 1 or lo < 1 or hi < lo:
            raise ValueError("bad corpus size")
        if not self.rates or any(not 0.0 <= r < 1.0 for r in self.rates):
            raise ValueError("corruption rates must lie in [0, 1)")
        if any(not 0 <= j < len(self.rates) for j in self.duplicates):
            raise ValueError("duplicate source index out of range")

    @property
    def m(self) -> int:
        return len(self.rates) + len(self.duplicates)


@dataclass(frozen=True)
class SynthResult:
    gold: TreebankFile
    files: tuple[TreebankFile, ...]
    ensemble: ParseEnsemble
    accuracies: tuple[float, ...]


def _random_single_root_tree(q: int, rng: np.random.Generator) -> DepTree:
    if q == 1:
        return DepTree((0,))
    for _ in range(100_000):
        heads = []
        for d in range(1, q + 1):
            h = int(rng.integers(0, q))
            if h >= d:
                h += 1
            heads.append(h)
        if heads.count(0) == 1 and validate_tree(heads, q).ok:
            return DepTree(tuple(heads))
    raise RuntimeError("tree sampling failed to converge")


def _corrupt(gold: DepTree, rate: float, rng: np.random.Generator) -> DepTree:
    q = len(gold)
    prefs = list(gold.heads)
    for d in range(1, q + 1):
        if rng.random() >= rate:
            continue
        options = [h for h in range(q + 1) if h != d and h != gold.heads[d - 1]]
        if options:
            prefs[d - 1] = options[int(rng.integers(len(options)))]
    if prefs.count(0) == 1 and validate_tree(prefs, q).ok:
        return DepTree(tuple(prefs))
    # Invalid preference: repair by spanning the complete graph with the
    # preferred heads strongly favored.
    arcs = tuple(
        (h, d, _KEEP if h == prefs[d - 1] else _FILLER)
        for d in range(1, q + 1)
        for h in range(q + 1)
        if h != d
    )
    return max_arborescence(WeightedTokenGraph(q, arcs), enforce_single_root=True)


def _treebank(parser_id: str, sids: list[str], trees: list[DepTree]) -> TreebankFile:
    """A file of one block per tree: a sent_id comment, then word lines
    whose FORM is w1, w2, ..."""
    lines: list[str] = []
    for sid, tree in zip(sids, trees):
        lines.append(f"# sent_id = {sid}")
        lines.extend(f"{d}\tw{d}\t_\t_\t_\t_\t{h}\t_\t_\t_" for d, h in enumerate(tree.heads, 1))
        lines.append("")
    return parse_conllu("\n".join(lines), parser_id)


def generate(config: SynthConfig) -> SynthResult:
    """Build gold plus parser treebanks under the configured noise."""
    base = len(config.rates)
    per_parser: list[list[DepTree]] = [[] for _ in range(base)]
    gold_trees: list[DepTree] = []
    for i in range(config.n_sentences):
        rng = np.random.default_rng(
            np.random.SeedSequence(config.seed, spawn_key=(i,))
        )
        lo, hi = config.tokens
        q = int(rng.integers(lo, hi + 1))
        gold = _random_single_root_tree(q, rng)
        gold_trees.append(gold)
        for j, rate in enumerate(config.rates):
            per_parser[j].append(_corrupt(gold, rate, rng))

    all_trees = per_parser + [list(per_parser[src]) for src in config.duplicates]
    sids = [f"synth{i + 1:04d}" for i in range(config.n_sentences)]
    gold_file = _treebank("gold", sids, gold_trees)
    width = len(str(config.m))
    files = tuple(
        _treebank(f"parser_{j + 1:0{width}d}", sids, trees)
        for j, trees in enumerate(all_trees)
    )
    accuracies = tuple(1.0 - r for r in config.rates) + tuple(
        1.0 - config.rates[src] for src in config.duplicates
    )
    return SynthResult(gold_file, files, build_ensemble(files), accuracies)
