"""Synthetic ensembles with known per-parser noise.

Gold trees are sampled uniformly over single-rooted valid head sequences
(rejection sampling). Each parser re-samples every token's head with its
own corruption rate, and the damaged preference is made a tree by a fixed
rule: each cycle is cut at its smallest token, and every cut and root
child but the smallest root child (else the smallest cut) is attached to
that token, which alone is under the root. Over C cycles and R root
children this drops C + max(R, 1) - 1 preferred heads, the fewest any
single-rooted tree can. All randomness derives from (seed, sentence index),
so regeneration is byte-identical and appending sentences never reshuffles
earlier ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conllu import TreebankFile, build_ensemble, parse_conllu
from .trees import ParseEnsemble, check_trees, find_cycles


@dataclass(frozen=True)
class SynthConfig:
    sentences: int
    tokens: tuple[int, int]
    rates: tuple[float, ...]
    seed: int
    duplicates: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        lo, hi = self.tokens
        if self.sentences < 1 or lo < 1 or hi < lo:
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


def _random_single_root_tree(q: int, rng: np.random.Generator) -> tuple[int, ...]:
    # one vector draw per try: the same stream as q scalar draws
    deps, offsets = np.arange(1, q + 1), np.array([0, q])
    for _ in range(100_000):
        heads = rng.integers(0, q, size=q)
        heads += heads >= deps
        if np.count_nonzero(heads == 0) == 1 and check_trees(heads, offsets)[0]:
            return tuple(heads.tolist())
    raise RuntimeError("tree sampling failed to converge")


def _corrupt(gold: tuple[int, ...], rate: float, rng: np.random.Generator) -> tuple[int, ...]:
    q = len(gold)
    prefs = list(gold)
    for d in range(1, q + 1):
        if rng.random() >= rate:
            continue
        options = [h for h in range(q + 1) if h != d and h != gold[d - 1]]
        if options:
            prefs[d - 1] = options[int(rng.integers(len(options)))]
    return _repair(prefs)


def _repair(prefs: list[int]) -> tuple[int, ...]:
    heads = list(prefs)
    for cycle in list(find_cycles(heads)):
        heads[min(cycle) - 1] = 0
    tops = [d for d, h in enumerate(heads, 1) if h == 0]
    keep = prefs.index(0) + 1 if 0 in prefs else tops[0]
    for d in tops:
        if d != keep:
            heads[d - 1] = keep
    return tuple(heads)


def _treebank(parser_id: str, sids: list[str], trees: list[tuple[int, ...]]) -> TreebankFile:
    """A file of one block per tree: a sent_id comment, then word lines
    whose FORM is w1, w2, ..."""
    lines: list[str] = []
    for sid, heads in zip(sids, trees):
        lines.append(f"# sent_id = {sid}")
        lines.extend(f"{d}\tw{d}\t_\t_\t_\t_\t{h}\t_\t_\t_" for d, h in enumerate(heads, 1))
        lines.append("")
    return parse_conllu("\n".join(lines), parser_id)


def generate(config: SynthConfig) -> SynthResult:
    """Build gold plus parser treebanks under the configured noise."""
    base = len(config.rates)
    per_parser: list[list[tuple[int, ...]]] = [[] for _ in range(base)]
    gold_trees: list[tuple[int, ...]] = []
    for i in range(config.sentences):
        rng = np.random.default_rng(
            np.random.SeedSequence(config.seed, spawn_key=(i,))
        )
        lo, hi = config.tokens
        q = int(rng.integers(lo, hi + 1))
        gold = _random_single_root_tree(q, rng)
        gold_trees.append(gold)
        for j, rate in enumerate(config.rates):
            per_parser[j].append(_corrupt(gold, rate, rng))

    sources = [*range(base), *config.duplicates]  # the base parser behind each file
    sids = [f"synth{i + 1:04d}" for i in range(config.sentences)]
    gold_file = _treebank("gold", sids, gold_trees)
    width = len(str(config.m))
    files = tuple(
        _treebank(f"parser_{j + 1:0{width}d}", sids, per_parser[src])
        for j, src in enumerate(sources)
    )
    accuracies = tuple(1.0 - config.rates[src] for src in sources)
    return SynthResult(gold_file, files, build_ensemble(files), accuracies)
