"""Ising label model over parser votes, with correlation handling.

The joint model over the true edge label Y and parser labels L is
log-linear with a bias term for Y, per-parser singleton terms, per-parser
interaction terms with Y, and pairwise terms between correlated parsers.
Aggregation proceeds in four steps:

1. estimate a parser correlation graph by neighborhood selection: an
   L1-penalized logistic regression per column, one batched solve on one design,
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
_KKT_BATCH = 8  # and the iterates whose KKT residuals it computes together
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
    """Distinct vote rows as floats, in byte order, with their counts and
    the index of each one's first row."""
    rows = np.ascontiguousarray(labels, dtype=np.int8)
    rows = rows.view(np.dtype((np.void, rows.shape[1])))  # far faster than axis=0
    _, first, counts = np.unique(rows, return_index=True, return_counts=True)
    return labels[first].astype(np.float64), counts, first


# FISTA's momentum M_s, s steps after a restart, and its weight (M_s - 1) / M_{s+1}
_MOMENTUM = np.array([*itertools.accumulate(
    range(_L1_MAX_ITERATIONS), lambda m, _: (1 + math.sqrt(1 + 4 * m * m)) / 2, initial=1.0)])
_EXTRAPOLATION = (_MOMENTUM[:-1] - 1.0) / _MOMENTUM[1:]


def fit_l1_logistic(
    design: np.ndarray,
    targets: np.ndarray,
    penalty: float,
    counts: np.ndarray,
    use: np.ndarray,
    tol: float = 1e-6,
) -> tuple[np.ndarray, np.ndarray, int, bool]:
    """k L1-penalized logistic regressions on one design, by proximal gradient (FISTA).

    ``design`` is (n, q), ``targets`` (k, n) in {-1, +1}, and ``counts`` (n,) gives
    each row a multiplicity, so distinct rows with their counts fit as the full
    matrix; problem a uses the columns set in row a of the (k, q) mask ``use``.
    Each minimizes mean log-loss plus ``penalty * ||w||_1`` with an unpenalized
    intercept, with its own step (from the largest eigenvalue of its masked Gram
    matrix) and momentum, restarted when a step turns back against the last (the
    gradient restart of O'Donoghue & Candès 2015). An iteration takes one gradient,
    at the extrapolated point; every ``_KKT_BATCH`` iterations (and at the cap) the
    KKT residuals of the nonsmooth optimality conditions at the batch's iterates are
    computed together, and a problem freezes with its first iterate within ``tol``.
    Returns intercepts (k,), coefficients (k, q), 0 at unused columns, the iteration
    of the last freeze (``_L1_MAX_ITERATIONS`` if one never froze) and whether all froze.
    """
    (n, q), k = design.shape, len(targets)
    c = np.asarray(counts, dtype=np.float64)
    total = c.sum()
    X = np.column_stack([np.ones(n), design])
    keep = np.column_stack([np.ones(k, dtype=bool), use])
    gram = np.where(keep[:, :, None] & keep[:, None, :], (X.T * c) @ X, 0.0)
    step = 4.0 * total / np.linalg.eigvalsh(gram)[:, -1:]
    # per coordinate: the l1 weight (none on the intercept) and prox radius
    weight = np.r_[0.0, np.full(q, penalty)]
    with np.errstate(over="ignore"):  # an infinite radius zeroes every coefficient
        radius = step * weight
    scale = keep / total  # masks and averages each problem's gradient
    # c * (sigmoid(x) - t) = c / 2 * (tanh(x / 2) - target), t = (target + 1) / 2,
    # so a gradient is (tanh(X w / 2) @ (c / 2 * X) + offset) * scale
    half_XT, half_cX = X.T / 2.0, (c / 2.0)[:, None] * X
    offset = -(c / 2.0 * np.asarray(targets, dtype=np.float64)) @ X
    live = np.arange(k)  # the problems not yet frozen
    fitted = np.zeros((k, q + 1))
    w = z = np.zeros((k, q + 1))
    gz = offset * scale
    since_restart, it, last, batch = np.zeros(k, dtype=np.intp), 0, 0, []
    while live.size and it < _L1_MAX_ITERATIONS:
        it += 1
        w_next = z - step * gz
        w_next -= np.minimum(np.maximum(w_next, -radius), radius)  # soft threshold
        delta = w_next - w
        since_restart[((z - w_next) * delta).sum(axis=1) > 0] = 0  # gradient restart
        w, z = w_next, w_next + _EXTRAPOLATION[since_restart][:, None] * delta
        since_restart += 1
        gz = (np.tanh(z @ half_XT) @ half_cX + offset) * scale
        batch.append(w)
        if it % _KKT_BATCH and it < _L1_MAX_ITERATIONS:
            continue
        # the batch's gradients and KKT residuals, (iterate, live problem, q + 1)
        ws, batch = np.stack(batch), []
        gw = (np.tanh(ws.reshape(-1, q + 1) @ half_XT) @ half_cX).reshape(ws.shape)
        kkt = np.abs((gw + offset) * scale + weight * np.sign(ws)) - weight * (ws == 0)
        within = (kkt <= tol).all(axis=2)
        done, first = within.any(axis=0), within.argmax(axis=0)
        if done.any():
            fitted[live[done]] = ws[first[done], done]
            last = it - len(ws) + 1 + int(first[done].max())
            live, offset, step, radius, scale, w, z, gz, since_restart = (
                a[~done] for a in (live, offset, step, radius, scale, w, z, gz, since_restart)
            )
    fitted[live] = w
    return fitted[:, 0], fitted[:, 1:], it if live.size else last, live.size == 0


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
    iterations: int = 0  # the batched l1 solve's; 0 and True when none ran
    converged: bool = True


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

    All regressions run as one batched solve on one design, the distinct vote
    patterns weighted by their counts (the same fits as on every row, far
    cheaper); column a's problem masks column a.
    """
    n, m = matrix.labels.shape
    if m < 2:
        raise ValueError("need at least two parsers")
    _require_edges(matrix)
    if l1_penalty is None:
        l1_penalty = default_l1_penalty(m, n)
    if not 0 <= l1_penalty < np.inf:
        raise ValueError(f"l1_penalty must be finite and non-negative, got {l1_penalty}")
    labels, counts, first = _vote_patterns(matrix.labels)
    excluded = tuple(j for j in range(m) if np.all(labels[:, j] == labels[0, j]))
    active = [j for j in range(m) if j not in excluded]
    k = len(active)
    # one design: the active columns, then the majority vote (a function of the
    # row's votes, so one per pattern); column a's problem skips column a
    design = np.column_stack([labels[:, active], majority_vote(matrix)[first]])
    use = ~np.eye(k, k + 1, dtype=bool)
    fit = fit_l1_logistic(design, design[:, :k].T, l1_penalty, counts, use)
    coefs = np.abs(fit[1][:, :k])
    mutual = np.minimum(coefs, coefs.T)
    pairs = zip(*np.nonzero(np.triu(mutual > coef_threshold, 1)))
    strengths = {(active[a], active[b]): float(mutual[a, b]) for a, b in pairs}
    return CorrelationGraph(
        matrix.parser_ids, frozenset(strengths), strengths, excluded, *fit[2:]
    )


@dataclass(frozen=True)
class CollapseMap:
    """How original parser columns map onto collapsed pseudo-columns."""

    components: tuple[tuple[int, ...], ...]
    representatives: tuple[int, ...]


def collapse_correlated(
    matrix: EdgeLabelMatrix, graph: CorrelationGraph
) -> tuple[EdgeLabelMatrix, CollapseMap]:
    """Merge each connected component into one pseudo-parser column.

    Components come from boolean reachability: the symmetric adjacency
    matrix with its diagonal, squared ``m.bit_length()`` times, so its paths
    reach any length below m; row j then marks j's component. Components
    are ordered by their smallest member, so a graph with no edges returns
    the matrix unchanged. The pseudo-column is the within-component
    majority vote, all of them one product of the vote matrix (exact: it
    sums small integers); ties go to the member that agrees most often with
    the global majority vote (then to the lowest column index).
    """
    m = matrix.m
    linked = np.eye(m, dtype=bool)
    for j, k in graph.edges:
        linked[j, k] = linked[k, j] = True
    for _ in range(m.bit_length()):
        linked = linked @ linked
    leaders = np.flatnonzero(linked.argmax(axis=1) == np.arange(m))  # smallest members
    components = tuple(tuple(np.flatnonzero(linked[j]).tolist()) for j in leaders)

    mv = majority_vote(matrix)
    agreement = (matrix.labels == mv[:, None]).mean(axis=0)
    reps = np.where(linked[leaders], agreement, -np.inf).argmax(axis=1)
    cmap = CollapseMap(components, tuple(reps.tolist()))
    if len(leaders) == m:
        return matrix, cmap

    # each member votes twice and the representative once more, so the sum
    # is odd and a tie goes to the representative
    weights = 2.0 * linked[leaders].T + np.eye(m)[:, reps]
    labels = np.sign(matrix.labels.astype(np.float64) @ weights).astype(np.int8)
    ids = tuple("+".join(matrix.parser_ids[j] for j in comp) for comp in components)
    return replace(matrix, labels=labels, parser_ids=ids), cmap


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


def estimate_mean_params(
    matrix: EdgeLabelMatrix, triplet_min: float = 0.01
) -> IsingParams:
    """Triplet method-of-moments estimates of the mean parameters.

    Writing E[L_j | Y] = alpha_j + beta_j * Y, conditional independence
    makes the covariance matrix factor as Cov(L_j, L_k) =
    beta_j * beta_k * Var(Y) for j != k, whatever the class balance, so
    for any pair (k, l) not involving j, sqrt(|c_jk * c_jl / c_kl|)
    estimates beta_j * sd(Y). Each column takes the median of these over
    the pairs whose denominator is nonzero and at least ``triplet_min`` in
    magnitude, all columns and pairs as one array. The moment of interest
    follows as

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

    # (m, pairs): column j's triplet estimate from each pair (k, l), k < l;
    # a pair without j needs three columns
    k, l = np.triu_indices(m, 1)
    denom = covariances[k, l]
    column = np.arange(m)[:, None]
    usable = (k != column) & (l != column) & (np.abs(denom) >= triplet_min) & (denom != 0)
    usable &= var_y > 0.0
    ratio = covariances[:, k] * covariances[:, l] / np.where(usable, denom, 1.0)
    estimates = np.sqrt(np.abs(ratio))
    mu0 = mv_f @ labels / n  # the fallback: mean of L_j times the vote
    for j in np.flatnonzero(usable.any(axis=1)):
        mu0[j] = mu_plus[j] * mu00 + np.median(estimates[j, usable[j]]) * math.sqrt(var_y)
    signs = np.where(mu0 < 0, -1.0, 1.0)
    mu0 = signs * np.clip(np.abs(mu0), 0.001, 0.999)
    return IsingParams(
        mu00=mu00,
        mu_plus=tuple(float(v) for v in mu_plus),
        mu0_plus=tuple(float(v) for v in mu0),
        triplet_fallback=not usable.any(axis=1).all(),
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
    labels, counts, _ = _vote_patterns(matrix.labels)
    weights = counts / matrix.n_edges
    mu = np.concatenate([[means.mu00], means.mu0_plus])
    theta = np.zeros(matrix.m + 1)
    value, grad = _canonical_value_grad(theta, labels, weights, mu)
    step = 1.0
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
    theta00 = 0.5 * (math.log1p(mu00) - math.log1p(-mu00))  # the prior's log-odds
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
            "correlation_fit": {
                "iterations": self.graph.iterations, "converged": self.graph.converged
            },
            "fit": {
                "grad_norm": self.params.grad_norm,
                "iterations": self.params.iterations,
                "converged": self.params.converged,
                "plugin": self.params.plugin,
            },
        }


def cim_run(matrix: EdgeLabelMatrix, collapse: bool = True) -> CimResult:
    """Full aggregation pass: correlation graph, collapse, estimate, score,
    every estimator at its defaults. Without ``collapse`` every parser keeps
    its own column.

    The majority vote used for mean-parameter estimation is recomputed on
    the collapsed matrix so duplicated parsers cannot double-vote.
    """
    _require_edges(matrix)
    if collapse:
        graph = estimate_correlation_graph(matrix)
    else:
        graph = CorrelationGraph(matrix.parser_ids, frozenset(), {}, ())
    reduced, cmap = collapse_correlated(matrix, graph)
    means = estimate_mean_params(reduced)
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
