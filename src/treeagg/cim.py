"""Ising label model over parser votes, with correlation handling.

The joint model over the true edge label Y and parser labels L is
log-linear with a bias term for Y, per-parser singleton terms, per-parser
interaction terms with Y, and pairwise terms between correlated parsers.
Aggregation proceeds in four steps:

1. estimate a parser correlation graph by neighborhood selection: an
   L1-penalized logistic regression per column, all in one batched solve,
2. collapse each connected component of correlated parsers into one
   pseudo-parser (within-component majority vote),
3. estimate mean parameters of the collapsed model by the triplet
   method of moments,
4. fit the canonical parameters that matter for inference (the Y bias and
   the Y-parser interactions) by minimizing a convex moment-matching
   objective, then score each edge as the posterior probability that it
   is correct given the votes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .edges import EdgeLabelMatrix, majority_vote, trees_from_scores
from .trees import ParseEnsemble

_L1_MAX_ITERATIONS = 2000  # fit_l1_logistic's iteration cap
_FIT_TOL = 1e-6  # fit_canonical_params' gradient-norm tolerance
_FIT_MAX_ITERATIONS = 5000  # and its iteration cap
_PLUGIN_EPS = 1e-3  # plugin_canonical_params' channel clamp


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _vote_patterns(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct vote rows as floats, in byte order, with first row and count."""
    rows = np.ascontiguousarray(labels, dtype=np.int8)
    rows = rows.view(np.dtype((np.void, rows.shape[1])))  # far faster than axis=0
    _, first, counts = np.unique(rows, return_index=True, return_counts=True)
    return labels[first].astype(np.float64), first, counts


def fit_l1_logistic(
    features: np.ndarray,
    targets: np.ndarray,
    penalty: float,
    tol: float = 1e-6,
    counts: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, int, bool]:
    """k L1-penalized logistic regressions at once, by proximal gradient (FISTA).

    ``features`` is (k, n, p) and ``targets`` (k, n), in {-1, +1}; each
    problem minimizes mean log-loss plus ``penalty * ||w||_1`` with an
    unpenalized intercept, with its own step (its inverse Lipschitz bound)
    and the shared momentum sequence. A problem freezes, with its iterate,
    once the KKT residual of the nonsmooth optimality conditions is within
    ``tol``. Returns intercepts (k,), coefficients (k, p), the iterations
    the loop ran (until all froze, at most ``_L1_MAX_ITERATIONS``) and
    whether all froze. ``counts`` gives each row a multiplicity (``None``:
    one each), so distinct rows with their counts fit as the full matrix.
    """
    k, n, p = features.shape
    c = np.ones(n) if counts is None else np.asarray(counts, dtype=np.float64)
    total = c.sum()
    # each design transposed, (k, p + 1, n): rows along the last axis
    XT = np.concatenate([np.ones((k, 1, n)), np.swapaxes(features, 1, 2)], axis=1)
    step = 4.0 * total / np.linalg.norm(np.sqrt(c) * XT, 2, axis=(1, 2))[:, None] ** 2
    # per coordinate: the l1 weight (none on the intercept) and prox radius
    weight = np.r_[0.0, np.full(p, penalty)]
    radius = step * weight
    # c * (sigmoid(x) - t) = half_c * tanh(x / 2) + offset, t = (target + 1) / 2
    half_c = c / 2.0
    offset = -half_c * np.asarray(targets, dtype=np.float64)[:, None, :]
    live = np.arange(k)  # the problems not yet frozen
    fitted = np.zeros((k, p + 1))
    w = z = np.zeros((k, p + 1))
    gz = (offset @ np.swapaxes(XT, 1, 2))[:, 0] / total
    momentum, it = 1.0, 0
    while live.size and it < _L1_MAX_ITERATIONS:
        it += 1
        w_next = z - step * gz
        w_next -= np.clip(w_next, -radius, radius)  # soft threshold
        m_next = (1.0 + math.sqrt(1.0 + 4.0 * momentum**2)) / 2.0
        z = w_next + ((momentum - 1.0) / m_next) * (w_next - w)
        w, momentum = w_next, m_next
        # the gradients at w (for the KKT check) and at z (for the next step)
        residuals = np.tanh(np.stack([w, z], axis=1) / 2.0 @ XT)
        residuals *= half_c
        residuals += offset
        g = residuals @ np.swapaxes(XT, 1, 2) / total
        gw, gz = g[:, 0], g[:, 1]
        kkt = np.abs(gw + weight * np.sign(w)) - weight * (w == 0)
        done = kkt.max(axis=1) <= tol
        if done.any():
            fitted[live[done]] = w[done]
            live, XT, offset, step, radius, w, z, gz = (
                a[~done] for a in (live, XT, offset, step, radius, w, z, gz)
            )
    fitted[live] = w
    return fitted[:, 0], fitted[:, 1:], it, live.size == 0


def _require_edges(matrix: EdgeLabelMatrix) -> None:
    if matrix.n_edges == 0:
        raise ValueError("cim needs at least one candidate edge")


def default_l1_penalty(m: int, n: int) -> float:
    return 0.1 * math.sqrt(math.log(m) / n)


@dataclass(frozen=True)
class CorrelationGraph:
    """Undirected correlation edges between parser columns.

    An edge (j, k) requires the regression coefficient of k when
    predicting j AND of j when predicting k to both exceed the threshold
    in magnitude; ``strengths`` records the smaller of the two. Constant
    columns are excluded from every regression and listed.
    """

    parser_ids: tuple[str, ...]
    edges: frozenset[tuple[int, int]]
    strengths: Mapping[tuple[int, int], float]
    excluded: tuple[int, ...] = ()


def estimate_correlation_graph(
    matrix: EdgeLabelMatrix,
    l1_penalty: float | None = None,
    coef_threshold: float = 1.0,
) -> CorrelationGraph:
    """Neighborhood selection over parser columns.

    Each active column is regressed on the other active columns plus the
    majority-vote column (a stand-in for the unseen true label, so that
    agreement through sheer accuracy does not read as correlation).

    The threshold separates coefficient scales, not significance. Tree
    ensembles carry structural coupling the majority-vote feature cannot
    absorb (a candidate edge proposed by one parser needs no other
    proposer, so error votes anti-correlate), which on realistic corpora
    produces cross-parser coefficients up to roughly 0.5. Duplicated or
    near-duplicated parsers sit an order of magnitude higher.

    All regressions run as one batched solve on the distinct vote patterns,
    weighted by their counts: the same fits as on every row, far cheaper.
    """
    n, m = matrix.labels.shape
    if m < 2:
        raise ValueError("need at least two parsers")
    _require_edges(matrix)
    if l1_penalty is None:
        l1_penalty = default_l1_penalty(m, n)
    if not 0 <= l1_penalty < np.inf:
        raise ValueError(f"l1_penalty must be finite and non-negative, got {l1_penalty}")
    labels, first, counts = _vote_patterns(matrix.labels)
    # the majority vote is a function of the row's votes, so one per pattern
    mv = majority_vote(matrix)[first].astype(np.float64)
    excluded = tuple(j for j in range(m) if np.all(labels[:, j] == labels[0, j]))
    active = [j for j in range(m) if j not in excluded]
    k = len(active)
    # active column a's design: the other active columns, then the vote (m)
    cols = np.array([[b for b in active if b != j] + [m] for j in active], dtype=np.intp)
    features = np.column_stack([labels, mv])[:, cols.reshape(k, k)].transpose(1, 0, 2)
    fit = fit_l1_logistic(features, labels[:, active].T, l1_penalty, counts=counts)
    coefs = np.abs(fit[1])
    strengths: dict[tuple[int, int], float] = {}
    for a, b in itertools.combinations(range(k), 2):
        # b sits at b - 1 among a's features, a at a among b's
        strength = float(min(coefs[a, b - 1], coefs[b, a]))
        if strength > coef_threshold:
            strengths[(active[a], active[b])] = strength
    return CorrelationGraph(matrix.parser_ids, frozenset(strengths), strengths, excluded)


@dataclass(frozen=True)
class CollapseMap:
    """How original parser columns map onto collapsed pseudo-columns."""

    components: tuple[tuple[int, ...], ...]
    representatives: tuple[int, ...]


def collapse_correlated(
    matrix: EdgeLabelMatrix, graph: CorrelationGraph
) -> tuple[EdgeLabelMatrix, CollapseMap]:
    """Merge each connected component into one pseudo-parser column.

    The pseudo-column is the within-component majority vote; ties go to
    the member that agrees most often with the global majority vote (then
    to the lowest column index). Components are ordered by their smallest
    member, so a graph with no edges returns the matrix unchanged.
    """
    m = matrix.m
    parent = list(range(m))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for j, k in graph.edges:
        parent[find(j)] = find(k)
    groups: dict[int, list[int]] = {}
    for j in range(m):
        groups.setdefault(find(j), []).append(j)
    components = tuple(
        tuple(sorted(g)) for g in sorted(groups.values(), key=min)
    )

    mv = majority_vote(matrix)
    agreement = (matrix.labels == mv[:, None]).mean(axis=0)
    representatives = tuple(
        max(comp, key=lambda j: (agreement[j], -j)) for comp in components
    )
    if all(len(c) == 1 for c in components):
        return matrix, CollapseMap(components, representatives)

    cols = []
    ids = []
    for comp, rep in zip(components, representatives):
        if len(comp) == 1:
            cols.append(matrix.labels[:, comp[0]])
            ids.append(matrix.parser_ids[comp[0]])
            continue
        s = matrix.labels[:, comp].astype(np.int64).sum(axis=1)
        pseudo = np.where(s > 0, 1, np.where(s < 0, -1, matrix.labels[:, rep]))
        cols.append(pseudo.astype(np.int8))
        ids.append("+".join(matrix.parser_ids[j] for j in comp))
    reduced = replace(
        matrix, labels=np.column_stack(cols).astype(np.int8), parser_ids=tuple(ids)
    )
    return reduced, CollapseMap(components, representatives)


@dataclass(frozen=True)
class IsingParams:
    """Mean parameters, canonical parameters, and fit diagnostics.

    ``mu00`` is the mean of the majority-vote proxy for Y, ``mu_plus`` the
    per-parser label means and ``mu0_plus`` the estimated E[L_j * Y].
    ``theta00`` and ``theta0_plus`` are the canonical parameters inference
    needs; the per-parser singleton and pairwise terms cancel in the
    posterior and are not estimated.
    """

    mu00: float
    mu_plus: tuple[float, ...]
    mu0_plus: tuple[float, ...]
    triplet_fallback: bool = False
    theta00: float | None = None
    theta0_plus: tuple[float, ...] | None = None
    grad_norm: float | None = None
    iterations: int | None = None
    converged: bool | None = None
    plugin: bool = False


def accuracy_moment_from_pair_means(
    j: int,
    pair_means: np.ndarray,
    triplet_min: float = 0.01,
) -> list[float]:
    """All triplet estimates for column j from pairwise second moments.

    Under conditional independence given the truth, the off-diagonal
    moments factor rank-one, so for any pair (k, l) not involving j:
    sqrt(|m_jk * m_jl / m_kl|) recovers column j's factor. Pass centered
    covariances in general; raw products coincide with them only under
    class balance. Pairs whose denominator is smaller than
    ``triplet_min`` are skipped.
    """
    m = pair_means.shape[0]
    vals = []
    for k, l in itertools.combinations((i for i in range(m) if i != j), 2):
        denom = pair_means[k, l]
        if abs(denom) < triplet_min:
            continue
        vals.append(math.sqrt(abs(pair_means[j, k] * pair_means[j, l] / denom)))
    return vals


def estimate_mean_params(
    matrix: EdgeLabelMatrix, triplet_min: float = 0.01
) -> IsingParams:
    """Triplet method-of-moments estimates of the mean parameters.

    Writing E[L_j | Y] = alpha_j + beta_j * Y, conditional independence
    makes the covariance matrix factor as Cov(L_j, L_k) =
    beta_j * beta_k * Var(Y) for j != k, whatever the class balance, so
    the triplet median over centered covariances estimates
    beta_j * sd(Y). The moment of interest follows as

        E[L_j Y] = E[L_j] * mu00 + beta_j * (1 - mu00^2)

    with mu00 taken from the majority vote. On balanced data this reduces
    to the triplet median itself. The square root is taken positive
    (parsers are assumed better than chance); results are clamped into
    [0.001, 0.999] by magnitude. With fewer than three parsers, a degenerate
    majority vote, or no usable triplet for a column, that column falls
    back to the empirical mean of L_j times the majority vote (keeping
    its sign) and the result is flagged.
    """
    labels = matrix.labels.astype(np.float64)
    n, m = labels.shape
    mv_f = majority_vote(matrix).astype(np.float64)
    pair_means = labels.T @ labels / n
    mu_plus = labels.mean(axis=0)
    mu00 = float(mv_f.mean())
    covariances = pair_means - np.outer(mu_plus, mu_plus)
    var_y = 1.0 - mu00**2

    mu0 = np.empty(m)
    fallback = False
    for j in range(m):
        vals = (
            accuracy_moment_from_pair_means(j, covariances, triplet_min)
            if m >= 3 and var_y > 0.0
            else []
        )
        if vals:
            beta_sd = float(np.median(vals))
            mu0[j] = mu_plus[j] * mu00 + beta_sd * math.sqrt(var_y)
        else:
            fallback = True
            mu0[j] = float((labels[:, j] * mv_f).mean())
    signs = np.where(mu0 < 0, -1.0, 1.0)
    mu0 = signs * np.clip(np.abs(mu0), 0.001, 0.999)
    return IsingParams(
        mu00=mu00,
        mu_plus=tuple(float(v) for v in mu_plus),
        mu0_plus=tuple(float(v) for v in mu0),
        triplet_fallback=fallback,
    )


def _canonical_value_grad(
    theta: np.ndarray, labels: np.ndarray, weights: np.ndarray, mu: np.ndarray
) -> tuple[float, np.ndarray]:
    z = theta[0] + labels @ theta[1:]  # weights: each row's share, summing to 1
    az = np.abs(z)
    # Overly long line-search trials may overflow the mean to +inf; that
    # is the right answer (the trial is rejected), not an error.
    with np.errstate(over="ignore"):
        value = float(-(theta @ mu) + weights @ (az + np.log1p(np.exp(-2.0 * az))))
    tz = weights * np.tanh(z)
    grad = np.empty_like(theta)
    grad[0] = -mu[0] + tz.sum()
    grad[1:] = -mu[1:] + labels.T @ tz
    return value, grad


def fit_canonical_params(means: IsingParams, matrix: EdgeLabelMatrix) -> IsingParams:
    """Fit the Y bias and Y-parser interactions by moment matching.

    Minimizes the convex objective whose stationary point makes the model
    moments tanh(theta00 + theta0_plus . L) reproduce ``mu00`` and
    ``mu0_plus`` (means over the sorted distinct vote patterns, weighted by
    their shares, so row order cannot move the fit); gradient descent from
    zero with an expanding backtracking line search, stopping when the
    gradient norm reaches ``_FIT_TOL`` or after ``_FIT_MAX_ITERATIONS``
    steps. A line search that stalls, or a step that grows past the largest
    float, ends the fit unconverged.

    So does a proof that the fit cannot converge. The objective
    f(theta) = -theta . mu + E log 2cosh(theta00 + theta0_plus . L) is
    convex, with recession function r(d) = -d . mu + E|d0 + d_plus . L|,
    and every gradient satisfies grad f . d <= r(d). Once an accepted
    iterate has r(theta) < -_FIT_TOL * |theta|, f is unbounded below
    along theta and no point has a gradient norm within ``_FIT_TOL``, so
    the descent stops there. Estimated moments at or beyond a hard
    labeling's (the usual case on real vote matrices) end this way,
    typically after the first step.
    """
    labels, _, counts = _vote_patterns(matrix.labels)
    weights = counts / matrix.n_edges
    mu = np.concatenate([[means.mu00], means.mu0_plus])
    theta = np.zeros(matrix.m + 1)
    value, grad = _canonical_value_grad(theta, labels, weights, mu)
    step = 1.0
    iterations = 0
    for iterations in range(1, _FIT_MAX_ITERATIONS + 1):
        gnorm2 = float(grad @ grad)
        if math.sqrt(gnorm2) <= _FIT_TOL:
            iterations -= 1
            break
        step *= 2.0
        while 1e-30 <= step < math.inf:
            cand = theta - step * grad
            cand_value, cand_grad = _canonical_value_grad(cand, labels, weights, mu)
            if cand_value <= value - 1e-4 * step * gnorm2:
                break
            step *= 0.5
        else:
            break  # the line search stalled, or the step overflowed
        theta, value, grad = cand, cand_value, cand_grad
        recession = weights @ np.abs(theta[0] + labels @ theta[1:]) - theta @ mu
        if recession < -_FIT_TOL * np.linalg.norm(theta):
            break  # unbounded below: no gradient norm reaches _FIT_TOL
    grad_norm = float(np.linalg.norm(grad))
    return replace(
        means,
        theta00=float(theta[0]),
        theta0_plus=tuple(float(v) for v in theta[1:]),
        grad_norm=grad_norm,
        iterations=iterations,
        converged=grad_norm <= _FIT_TOL,
    )


def plugin_canonical_params(means: IsingParams) -> IsingParams:
    """Closed-form canonical parameters from the estimated mean parameters.

    The moment-matching objective has a finite minimizer only when the
    target moments are achievable by a soft labeling; moments at or
    beyond a hard labeling's (the usual case on real vote matrices) send
    the descent to infinity and the saturated iterate degenerates into a
    hard vote with meaningless weights. This algebraic route stays
    finite: invert the mean parameters into per-parser vote channels
    P(L_j | Y), clamped into [_PLUGIN_EPS, 1 - _PLUGIN_EPS], and read the
    conditional log-odds of the implied conditional-independence model off
    them.
    """
    mu00 = min(max(means.mu00, -1.0 + 2 * _PLUGIN_EPS), 1.0 - 2 * _PLUGIN_EPS)
    var_y = 1.0 - mu00**2
    prior = 0.5 * (math.log1p(mu00) - math.log1p(-mu00))
    theta00 = prior
    theta0 = []
    for col_mean, mu0j in zip(means.mu_plus, means.mu0_plus):
        beta = (mu0j - col_mean * mu00) / var_y
        alpha = col_mean - beta * mu00
        half = []
        for y in (1.0, -1.0):
            p_plus = min(max((1.0 + alpha + beta * y) / 2.0, _PLUGIN_EPS), 1.0 - _PLUGIN_EPS)
            half.append((math.log(p_plus), math.log(1.0 - p_plus)))
        (lp_pos, lm_pos), (lp_neg, lm_neg) = half
        theta0.append(((lp_pos - lp_neg) - (lm_pos - lm_neg)) / 4.0)
        theta00 += ((lp_pos - lp_neg) + (lm_pos - lm_neg)) / 4.0
    return replace(
        means,
        theta00=float(theta00),
        theta0_plus=tuple(theta0),
        plugin=True,
    )


def infer_scores(params: IsingParams, matrix: EdgeLabelMatrix) -> np.ndarray:
    """Posterior probability that each edge's true label is +1.

    Pairwise and singleton parser terms cancel when conditioning on the
    votes, leaving sigmoid(2 * theta00 + 2 * theta0_plus . L).
    """
    if params.theta00 is None or params.theta0_plus is None:
        raise ValueError("canonical parameters not fitted")
    theta0 = np.asarray(params.theta0_plus)
    x = 2.0 * params.theta00 + 2.0 * matrix.labels.astype(np.float64) @ theta0
    return _sigmoid(x)


@dataclass(frozen=True)
class CimOptions:
    l1_penalty: float | None = None
    coef_threshold: float = 1.0
    collapse: bool = True
    triplet_min: float = 0.01


@dataclass(frozen=True, eq=False)
class CimResult:
    graph: CorrelationGraph
    collapse_map: CollapseMap
    reduced: EdgeLabelMatrix
    params: IsingParams
    scores: np.ndarray

    def diagnostics(self) -> dict:
        comp_ids = [
            [self.graph.parser_ids[j] for j in comp]
            for comp in self.collapse_map.components
        ]
        return {
            "components": comp_ids,
            "excluded": [self.graph.parser_ids[j] for j in self.graph.excluded],
            "correlation_edges": sorted(
                [self.graph.parser_ids[j], self.graph.parser_ids[k]]
                for j, k in self.graph.edges
            ),
            "mu00": self.params.mu00,
            "mu0_plus": dict(zip(self.reduced.parser_ids, self.params.mu0_plus)),
            "theta00": self.params.theta00,
            "theta0_plus": dict(
                zip(self.reduced.parser_ids, self.params.theta0_plus or ())
            ),
            "triplet_fallback": self.params.triplet_fallback,
            "fit": {
                "grad_norm": self.params.grad_norm,
                "iterations": self.params.iterations,
                "converged": self.params.converged,
                "plugin": self.params.plugin,
            },
        }


def cim_run(matrix: EdgeLabelMatrix, opts: CimOptions = CimOptions()) -> CimResult:
    """Full aggregation pass: correlation graph, collapse, estimate, score.

    The majority vote used for mean-parameter estimation is recomputed on
    the collapsed matrix so duplicated parsers cannot double-vote.
    """
    _require_edges(matrix)
    if opts.collapse:
        graph = estimate_correlation_graph(matrix, opts.l1_penalty, opts.coef_threshold)
    else:
        graph = CorrelationGraph(matrix.parser_ids, frozenset(), {}, ())
    reduced, cmap = collapse_correlated(matrix, graph)
    means = estimate_mean_params(reduced, triplet_min=opts.triplet_min)
    params = fit_canonical_params(means, reduced)
    if not params.converged:
        # Divergent fit: the estimated moments are not soft-achievable.
        # On real vote matrices the fit proves this within a few steps (its
        # objective's recession value at the iterate is negative, so it is
        # unbounded below); otherwise it ran out of iterations or its step
        # overflowed. Its iterate would degenerate into a hard vote, so
        # fall back to the closed-form parameters the same moments imply.
        params = plugin_canonical_params(params)
    scores = infer_scores(params, reduced)
    return CimResult(graph, cmap, reduced, params, scores)


def cim_trees(
    scores: np.ndarray,
    matrix: EdgeLabelMatrix,
    ensemble: ParseEnsemble,
    enforce_single_root: bool = True,
) -> np.ndarray:
    """Decode consensus trees from posterior edge scores, as flat heads
    over ``ensemble.offsets``."""
    return trees_from_scores(matrix, scores, ensemble, enforce_single_root)
