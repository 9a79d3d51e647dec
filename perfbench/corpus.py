"""Seeded synthetic treebanks written straight to CoNLL-U text.

Errors are correlated the way real parser errors are: every token has a
difficulty shared by all parsers, and a short list of plausible wrong
heads shared by all parsers, so parsers tend to fail on the same tokens
and in the same way. Consensus therefore beats the best single parser
without reaching 100, and an accuracy regression in an aggregator shows.

Only numpy and the standard library are used: inputs must not depend on
the code under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

import numpy as np

_UPOS = ("NOUN", "VERB", "ADJ", "ADP", "DET", "PRON", "ADV", "PROPN", "AUX", "PUNCT")
_WRONG_HEADS = 3
_WRONG_PICK = np.array([0.85, 0.1, 0.05])
_RANDOM_WRONG = 0.05
_DIFFICULTY_SIGMA = 1.2


@dataclass(frozen=True)
class TreebankSpec:
    """One treebank: sentence count, length law, parser noise.

    Sentence lengths follow ``1 + lognormal(log(median_len - 1), sigma)``
    capped at ``max_len``; ``error_rates`` are the parsers' mean per-token
    error rates; ``near_duplicates`` maps a parser index to the rate at
    which its copy re-draws tokens independently; ``seg_error_rate`` is
    the share of sentences on which one parser changes a word form.
    """

    name: str
    n_sentences: int
    median_len: float
    sigma: float
    max_len: int
    error_rates: tuple[float, ...]
    near_duplicates: tuple[tuple[int, float], ...] = ()
    seg_error_rate: float = 0.0


@dataclass(frozen=True)
class Treebank:
    gold: str
    parsers: tuple[tuple[str, str], ...]  # (parser id, CoNLL-U text)
    tokens: int


def _stratified_normal(n: int, rng: np.random.Generator) -> np.ndarray:
    """n standard-normal quantiles at evenly spaced levels, in seeded order.

    Lengths and difficulties drawn this way have the same multiset for
    every seed, so neither the work a treebank costs nor its parsers'
    error rates vary much with the seed; the seed still places them.
    """
    z = np.array([NormalDist().inv_cdf((i + 0.5) / n) for i in range(n)])
    return rng.permutation(z)


def _lengths(spec: TreebankSpec, rng: np.random.Generator) -> np.ndarray:
    z = _stratified_normal(spec.n_sentences, rng)
    raw = 1 + np.exp(np.log(spec.median_len - 1) + spec.sigma * z)
    return np.clip(np.rint(raw), 2, spec.max_len).astype(int)


def _gold_heads(q: int, rng: np.random.Generator) -> list[int]:
    """A single-rooted tree with mostly short dependencies.

    Tokens join the tree in random order; each attaches to a token already
    in the tree with probability falling with linear distance.
    """
    order = rng.permutation(q) + 1
    heads = [0] * (q + 1)
    placed = np.zeros(q + 1, dtype=bool)
    placed[order[0]] = True
    positions = np.arange(q + 1)
    for d in order[1:]:
        w = np.where(placed, 1.0 / np.abs(positions - d).clip(1) ** 1.5, 0.0)
        heads[d] = int(rng.choice(q + 1, p=w / w.sum()))
        placed[d] = True
    return heads[1:]


def _wrong_heads(gold: list[int], rng: np.random.Generator) -> list[list[int]]:
    q = len(gold)
    positions = np.arange(1, q + 1)
    out = []
    for d in range(1, q + 1):
        w = 1.0 / np.abs(positions - d).clip(1) ** 1.2
        w[d - 1] = 0.0
        if gold[d - 1] > 0:
            w[gold[d - 1] - 1] = 0.0
        k = min(_WRONG_HEADS, int((w > 0).sum()))
        if k == 0:
            out.append([])
            continue
        out.append([int(h) for h in rng.choice(positions, size=k, replace=False, p=w / w.sum())])
    return out


def _is_descendant(heads: list[int], node: int, ancestor: int) -> bool:
    while node != 0:
        if node == ancestor:
            return True
        node = heads[node - 1]
    return False


def _corrupt(
    base: list[int],
    err_prob: np.ndarray,
    wrong: list[list[int]],
    rng: np.random.Generator,
) -> list[int]:
    """Re-attach tokens whose draw falls under ``err_prob``, keeping a tree.

    A wrong head must not lie below the token, so the result stays a
    single-rooted tree; the root token never moves.
    """
    heads = list(base)
    q = len(heads)
    hit = rng.random(q) < err_prob
    for d in np.flatnonzero(hit) + 1:
        d = int(d)
        if heads[d - 1] == 0 or not wrong[d - 1]:
            continue
        if rng.random() < _RANDOM_WRONG:
            options = [int(rng.integers(1, q + 1))]
        else:
            pick = _WRONG_PICK[: len(wrong[d - 1])]
            first = int(rng.choice(len(pick), p=pick / pick.sum()))
            options = wrong[d - 1][first:] + wrong[d - 1][:first]
        for h in options:
            if h != d and h != heads[d - 1] and not _is_descendant(heads, h, d):
                heads[d - 1] = h
                break
    return heads


def _block(sid: str, forms: list[str], upos: list[str], heads: list[int]) -> str:
    lines = [f"# sent_id = {sid}", "# text = " + " ".join(forms)]
    for d, (form, pos, h) in enumerate(zip(forms, upos, heads), start=1):
        lines.append(f"{d}\t{form}\t{form.lower()}\t{pos}\t_\t_\t{h}\tdep\t_\t_")
    return "\n".join(lines) + "\n\n"


def make_treebank(spec: TreebankSpec, seed: Sequence[int]) -> Treebank:
    """Gold and parser CoNLL-U texts for ``spec``, a pure function of seed."""
    rng = np.random.default_rng(np.random.SeedSequence(list(seed)))
    rates = np.asarray(spec.error_rates, dtype=np.float64)
    m_base = len(rates)
    m = m_base + len(spec.near_duplicates)
    width = len(str(m))
    gold_out: list[str] = []
    parser_out: list[list[str]] = [[] for _ in range(m)]
    lengths = _lengths(spec, rng)
    # Token difficulty, shared by all parsers, lognormal with mean 1.
    difficulties = np.exp(
        -_DIFFICULTY_SIGMA**2 / 2
        + _DIFFICULTY_SIGMA * _stratified_normal(int(lengths.sum()), rng)
    )
    offset = 0
    for i, q in enumerate(lengths):
        q = int(q)
        sid = f"{spec.name}-s{i + 1:04d}"
        forms = [f"w{int(v)}" for v in rng.integers(0, 5000, q)]
        upos = [_UPOS[int(v)] for v in rng.integers(0, len(_UPOS), q)]
        gold = _gold_heads(q, rng)
        wrong = _wrong_heads(gold, rng)
        difficulty = difficulties[offset : offset + q]
        offset += q
        outputs = []
        for k in range(m_base):
            p = np.minimum(rates[k] * difficulty, 0.9)
            outputs.append(_corrupt(gold, p, wrong, rng))
        for src, rate in spec.near_duplicates:
            p = np.full(q, rate)
            copy = _corrupt(outputs[src], p, wrong, rng)
            revert = rng.random(q) < rate / 2
            for d in np.flatnonzero(revert) + 1:
                h = gold[d - 1]
                if copy[d - 1] != 0 and h != 0 and not _is_descendant(copy, h, int(d)):
                    copy[d - 1] = h
            outputs.append(copy)
        gold_out.append(_block(sid, forms, upos, gold))
        seg_victim = -1
        if spec.seg_error_rate and rng.random() < spec.seg_error_rate:
            seg_victim = int(rng.integers(0, m))
        for k, heads in enumerate(outputs):
            f = forms
            if k == seg_victim:
                f = forms[:-1] + [forms[-1] + "x"]
            parser_out[k].append(_block(sid, f, upos, heads))
    parsers = tuple(
        (f"p{k + 1:0{width}d}", "".join(parser_out[k])) for k in range(m)
    )
    return Treebank("".join(gold_out), parsers, int(lengths.sum()))
