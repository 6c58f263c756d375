"""Sufficient statistics, likelihoods, information criteria and Bayesian scores.

Every score here is decomposable: the score of a structure is the sum of
independent per-(node, parent set) family terms, which is what makes the
cache and the exact search work.  :class:`FamilyScorer` is the one place
where a family is scored, for every learner and for :func:`family_score`;
its values are *higher is better* for every kind:

* ``ll``   -- maximized family log-likelihood,
* ``aic`` / ``aicc`` / ``bic`` -- minus the information criterion
  ``-2 log L + C`` (note the AICc parsimony term is ``(N + k)/(N - k - 2)``
  without a leading ``k``; unusual, but kept as is -- see
  :func:`information_criterion`),
* ``bde``  -- log Dirichlet-multinomial marginal likelihood,
* ``bge``  -- log normal-Wishart marginal likelihood of the
  child-given-parents regression.

On discrete data every kind but ``bge`` is counted in blocks over the
distinct rows of the column bank; :func:`count_transitions` keeps the
per-family table that refits and held-out likelihoods read.

Effective sample sizes count usable transitions only: targets from
``max(family min time, burn_in + 1)`` to ``T``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import gammaln

from .core import (
    ConfigError, Cpt, DataError, DbnStructure, DomainMismatchError, FactoredCpt, FamilySpec,
    LinearGaussian, Logistic, ModelError, Parent, ParameterSet, SizeGuardError,
    TrajectoryDataset, UnderdeterminedError, _sorted_groups, _source, canonical_parents,
    n_configurations, parents_of,
)

SCORE_KINDS = ("ll", "aic", "aicc", "bic", "bde", "bge")


# ---------------------------------------------------------------------------
# Counting


@dataclass(frozen=True)
class CountTable:
    """Transition counts of one family: rows = parent configurations, cols = child values."""

    node: int
    family: FamilySpec
    arities: tuple[int, ...]
    child_arity: int
    counts: np.ndarray  # (n_configs, child_arity) int64

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        if c.shape != (n_configurations(self.arities), self.child_arity):
            raise ModelError("count table shape inconsistent with arities")
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)

    @property
    def totals(self) -> np.ndarray:
        """Per-configuration totals N_xi."""
        return self.counts.sum(axis=1)

    @property
    def grand_total(self) -> int:
        return int(self.counts.sum())


def _config_index(columns: Sequence[np.ndarray], arities: Sequence[int]) -> np.ndarray:
    """Row-wise :func:`~dbnlearn.core.configuration_index` of k >= 1 integer value columns.

    Horner form ``c_1 + a_1 (c_2 + a_2 (c_3 + ...))``: the first column is
    the least significant digit.  Python-int arities keep the columns'
    integer type, which the indices must fit.  A single column is kept.
    """
    if len(columns) == 1:
        return columns[0]
    idx = columns[-1] * arities[-2]  # the one new array; the rest works in place
    idx += columns[-2]
    for col, a in zip(columns[-3::-1], arities[-3::-1]):
        idx *= a
        idx += col
    return idx


def count_transitions(dataset: TrajectoryDataset, family: FamilySpec,
                      t0: int | None = None) -> CountTable:
    """Tally every usable transition by parent configuration and child value.

    Transitions whose auto lags reach before the first observation (or
    into the burn-in window) are skipped, so the grand total is
    ``N * (T - first_usable + 1)``.  A later first target time ``t0``
    skips the transitions before it too.
    """
    if not dataset.domain.discrete:
        raise DomainMismatchError("count_transitions needs a discrete dataset")
    arities = dataset.family_arities(family)
    child_arity = dataset.domain.x_arities[family.node]
    n_cfg = n_configurations(arities)
    child, cols = dataset.family_columns(family, t0)
    flat = _config_index((child, *cols), (child_arity, *arities))
    counts = np.bincount(flat, minlength=n_cfg * child_arity).reshape(n_cfg, child_arity)
    return CountTable(node=family.node, family=family, arities=arities,
                      child_arity=child_arity, counts=counts)


# ---------------------------------------------------------------------------
# Maximum likelihood estimation


def mle_cpt(counts: CountTable, smoothing: "DirichletPrior | None" = None) -> Cpt:
    """Count-ratio table estimate.

    With ``smoothing=None``, rows are ``N_k / N_xi`` and configurations
    never observed fall back to the uniform row.  With a Dirichlet prior,
    every row is the posterior mean ``(alpha_k + N_k) / sum(alpha + N)``.
    """
    c = counts.counts.astype(float)
    if smoothing is not None:
        c = c + smoothing.pseudo_counts(c.shape[0], c.shape[1])
    totals = c.sum(axis=1)
    table = np.full_like(c, 1.0 / counts.child_arity)
    seen = totals > 0
    table[seen] = c[seen] / totals[seen, None]
    return Cpt(table=table)


def mle_factored(dataset: TrajectoryDataset, node: int,
                 dynamic_family: FamilySpec, static_family: FamilySpec) -> FactoredCpt:
    """Factored kernel estimate for a binary child: two independent count ratios.

    The dynamic factor is the conditional mean of the child per dynamic
    configuration, the static factor the conditional mean per static
    configuration; each empty family contributes the constant factor 1.
    Both ratios tally the same transitions (the later first-usable time
    of the two families).  Unseen configurations fall back to 0.5.  The
    product kernel is clipped into [0, 1] at evaluation; ``clipped``
    records whether any fitted product needed it.
    """
    if not dataset.domain.discrete:
        raise DomainMismatchError("mle_factored needs a discrete dataset")
    if dataset.domain.x_arities[node] != 2:
        raise ModelError("factored kernel is defined for binary children")
    if any(p.kind == "static" for p in dynamic_family.parents):
        raise ModelError("dynamic family must not contain static parents")
    if any(p.kind != "static" for p in static_family.parents):
        raise ModelError("static family must contain only static parents")
    t0 = max(dataset.first_usable_t(dynamic_family), dataset.first_usable_t(static_family))

    def ratios(fam: FamilySpec) -> np.ndarray:
        if not fam.parents:
            return np.empty(0)
        counts = count_transitions(dataset, fam, t0).counts
        total = counts.sum(axis=1)
        out = np.full(len(counts), 0.5)
        seen = total > 0
        out[seen] = counts[seen, 1] / total[seen]
        return out

    table_dyn = ratios(dynamic_family)
    table_stat = ratios(static_family)
    clipped = False
    if table_dyn.size and table_stat.size:
        prod = np.outer(table_dyn, table_stat)
        clipped = bool(np.any(prod > 1.0))
    return FactoredCpt(table_dyn=table_dyn, table_stat=table_stat, clipped=clipped)


def _loglik_scores(counts: np.ndarray) -> np.ndarray:
    """Plug-in log-likelihood of each family in a block; ``counts`` is (F, n_configs, arity).

    Each family's terms, ``N log(N / N_xi)`` at the count-ratio maximum, are
    summed in one row-wise reduction, so any block gives the same bits per
    family.
    """
    totals = counts.sum(axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(counts > 0, counts / np.maximum(totals, 1.0)[:, :, None], 1.0)
    return (counts * np.log(ratio)).reshape(len(counts), -1).sum(axis=1)


def loglik_cpt(dataset: TrajectoryDataset, structure: DbnStructure, params: ParameterSet) -> float:
    """Log-likelihood of every usable transition under per-node CPTs.

    Returns ``-inf`` when some observed transition has probability zero.
    """
    total = 0.0
    for node in range(structure.n_x):
        family = parents_of(structure, node)
        cpt = params[node]
        if not isinstance(cpt, Cpt):
            raise ModelError(f"node {node} parameters are not a CPT")
        counts = count_transitions(dataset, family)
        if cpt.table.shape != counts.counts.shape:
            raise ModelError(
                f"node {node} CPT covers {cpt.table.shape[0]} configurations, "
                f"family has {counts.counts.shape[0]}")
        c = counts.counts
        with np.errstate(divide="ignore"):
            logt = np.log(cpt.table)
        seen = c > 0
        if np.any(seen & np.isneginf(logt)):
            return float("-inf")
        total += float(np.sum(c[seen] * logt[seen]))
    return total


# ---------------------------------------------------------------------------
# Logistic fitting


def logistic_design(dataset: TrajectoryDataset, family: FamilySpec) -> tuple[np.ndarray, np.ndarray]:
    """Design matrix (with leading intercept column) and binary targets of a family."""
    child, pcols = dataset.family_rows(family)
    return np.hstack([np.ones((child.size, 1)), pcols.astype(float)]), child.astype(float)


def logistic_objective(beta: np.ndarray, design: np.ndarray, y: np.ndarray,
                       ridge: float) -> tuple[float, np.ndarray]:
    """Penalized log-likelihood ``sum[y s - log(1 + e^s)] - ridge ||beta||^2`` and gradient."""
    s = design @ beta
    # log(1 + e^s) evaluated stably on both tails
    softplus = np.where(s > 0, s + np.log1p(np.exp(-np.abs(s))), np.log1p(np.exp(-np.abs(s))))
    value = float(np.dot(y, s) - softplus.sum() - ridge * float(np.dot(beta, beta)))
    p = np.empty_like(s)
    pos = s >= 0
    p[pos] = 1.0 / (1.0 + np.exp(-s[pos]))
    e = np.exp(s[~pos])
    p[~pos] = e / (1.0 + e)
    grad = design.T @ (y - p) - 2.0 * ridge * beta
    return value, grad


_LOGISTIC_GUARD = 30.0  # |beta| beyond this saturates the sigmoid: separable data
_LOGISTIC_FALLBACK_RIDGE = 1e-6


def fit_logistic(dataset: TrajectoryDataset, node: int, family: FamilySpec,
                 ridge: float = 0.0, tol: float = 1e-8,
                 max_iter: int = 10_000) -> tuple[Logistic, float]:
    """Maximize the logistic transition log-likelihood by gradient ascent.

    Deterministic: backtracking (Armijo) line search from beta = 0,
    stopping when the gradient norm drops below ``tol`` or after
    ``max_iter`` steps.  Perfectly separable data makes the unpenalized
    optimum escape to infinity; when any coefficient passes the guard
    magnitude the fit restarts with a small ridge and flags the result.
    Returns the fitted kernel and the attained (unpenalized)
    log-likelihood.
    """
    if not dataset.domain.discrete:
        raise DomainMismatchError("fit_logistic needs a discrete dataset")
    if dataset.domain.x_arities[node] != 2:
        raise ModelError("logistic kernel is defined for binary children")
    if family.node != node:
        raise ModelError("family spec does not belong to the requested node")
    design, y = logistic_design(dataset, family)
    beta, guard = _ascend_logistic(design, y, ridge, tol, max_iter)
    if guard and ridge < _LOGISTIC_FALLBACK_RIDGE:
        beta, _ = _ascend_logistic(design, y, _LOGISTIC_FALLBACK_RIDGE, tol, max_iter)
    loglik, _ = logistic_objective(beta, design, y, 0.0)
    model = Logistic(beta0=float(beta[0]), beta=beta[1:], separable_guard=guard)
    return model, loglik


def _ascend_logistic(design, y, ridge, tol, max_iter):
    beta = np.zeros(design.shape[1])
    if design.shape[0] == 0:
        return beta, False
    value, grad = logistic_objective(beta, design, y, ridge)
    step = 1.0 / max(1.0, float(np.abs(design).sum(axis=1).max()))
    for _ in range(max_iter):
        gnorm = float(np.linalg.norm(grad))
        if gnorm < tol:
            break
        trial = step * 2.0
        while True:
            cand = beta + trial * grad
            cand_value, cand_grad = logistic_objective(cand, design, y, ridge)
            if cand_value >= value + 1e-4 * trial * gnorm * gnorm or trial < 1e-18:
                break
            trial *= 0.5
        beta, value, grad, step = cand, cand_value, cand_grad, trial
        if np.max(np.abs(beta)) > _LOGISTIC_GUARD:
            return beta, True
    return beta, False


# ---------------------------------------------------------------------------
# Linear Gaussian fitting

_LSTSQ_RIDGE = 1e-10  # rank safety only; far below any signal scale
_SIGMA2_FLOOR = 1e-300  # keeps exact fits representable (sigma2 must stay positive)


def gaussian_design(dataset: TrajectoryDataset, family: FamilySpec) -> tuple[np.ndarray, np.ndarray]:
    if dataset.domain.discrete:
        raise DomainMismatchError("gaussian design needs a continuous dataset")
    child, pcols = dataset.family_rows(family)
    return np.hstack([np.ones((child.size, 1)), pcols]), child


def fit_linear_gaussian(dataset: TrajectoryDataset, node: int,
                        family: FamilySpec) -> tuple[LinearGaussian, float]:
    """Least-squares fit of a linear Gaussian family; returns kernel and log-likelihood.

    Normal equations carry a tiny ridge for rank safety; the noise
    variance is the mean squared residual (floored at a representable
    minimum so exact fits stay valid).  Data whose products overflow a
    float, or whose normal equations are singular even with the ridge,
    raise :class:`DataError`.
    """
    if family.node != node:
        raise ModelError("family spec does not belong to the requested node")
    design, y = gaussian_design(dataset, family)
    m, k = design.shape
    if m < k:
        raise UnderdeterminedError(f"{m} usable transitions for {k} parameters")
    with np.errstate(over="ignore", invalid="ignore"):
        gram = design.T @ design + _LSTSQ_RIDGE * np.eye(k)
        try:
            beta = np.linalg.solve(gram, design.T @ y)
        except np.linalg.LinAlgError as e:
            raise DataError(f"least-squares fit of node {node} on parents "
                            f"{list(family.parents)} is singular: {e}") from e
        resid = y - design @ beta
        rss = float(np.dot(resid, resid))
    if not (math.isfinite(rss) and np.all(np.isfinite(beta))):
        raise DataError("least-squares fit overflows a float (data too large?)")
    sigma2 = max(rss / m, _SIGMA2_FLOOR)
    loglik = -0.5 * m * math.log(2.0 * math.pi * sigma2) - 0.5 * rss / sigma2
    return LinearGaussian(beta0=float(beta[0]), beta=beta[1:], sigma2=sigma2), loglik


def fit_structure_params(dataset: TrajectoryDataset, structure: DbnStructure,
                         smoothing: "DirichletPrior | None") -> ParameterSet:
    """Per-family parameter fit of a structure: the learners' refit and hold-out scoring.

    Discrete families use the Dirichlet posterior mean when a prior is
    given (so unseen test configurations keep finite likelihood) and the
    raw count ratios otherwise; continuous families use least squares.
    """
    fams = []
    for i in range(structure.n_x):
        family = parents_of(structure, i)
        if dataset.domain.discrete:
            fams.append(mle_cpt(count_transitions(dataset, family), smoothing=smoothing))
        else:
            fams.append(fit_linear_gaussian(dataset, i, family)[0])
    return ParameterSet(families=tuple(fams))


# ---------------------------------------------------------------------------
# Information criteria


def information_criterion(loglik: float, k: int, n_eff: int, kind: str) -> float:
    """General model-selection criterion ``-2 log L + C``; lower is better.

    Parsimony terms: AIC ``2k``; AICc ``(N + k)/(N - k - 2)`` exactly as
    printed in the source formulation (it lacks the conventional leading
    ``k`` -- kept deliberately, see README); BIC ``k log N``.
    """
    kind = kind.lower()
    if kind == "aic":
        c = 2.0 * k
    elif kind == "aicc":
        if n_eff <= k + 2:
            raise DataError(f"AICc needs n_eff > k + 2 (got n_eff={n_eff}, k={k})")
        c = (n_eff + k) / (n_eff - k - 2)
    elif kind == "bic":
        c = k * math.log(max(n_eff, 1))
    else:
        raise ConfigError(f"unknown criterion kind {kind!r}")
    return -2.0 * loglik + c


# ---------------------------------------------------------------------------
# Bayesian Dirichlet score


@dataclass(frozen=True)
class DirichletPrior:
    """Equivalent-sample-size Dirichlet prior spread uniformly over cells.

    Pseudo-count per (configuration, value) cell is
    ``ess / (n_configs * arity)`` unless an explicit table is supplied.
    """

    ess: float = 1.0
    table: np.ndarray | None = None

    def __post_init__(self):
        if self.table is None and not self.ess > 0:
            raise ModelError("equivalent sample size must be positive")
        if self.table is not None:
            t = np.asarray(self.table, dtype=float)
            if np.any(t <= 0):
                raise ModelError("pseudo-counts must be positive")
            t.setflags(write=False)
            object.__setattr__(self, "table", t)

    def pseudo_counts(self, n_configs: int, arity: int) -> np.ndarray:
        if self.table is not None:
            if self.table.shape != (n_configs, arity):
                raise ModelError(f"prior table shape {self.table.shape} != {(n_configs, arity)}")
            return self.table
        return np.full((n_configs, arity), self.ess / (n_configs * arity))


def bde_family_score(counts: CountTable, prior: DirichletPrior | None = None) -> float:
    """Log marginal likelihood of one family under the Dirichlet prior.

    Exact value of the Dirichlet-multinomial integral:
    ``sum_xi [lgamma(A) - lgamma(A + N_xi)] + sum_k [lgamma(a_k + N_k) - lgamma(a_k)]``
    with ``A = sum_k a_k``.  Zero data gives score 0; the structure score
    is the sum of family scores over nodes.
    """
    return float(_bde_scores(counts.counts.astype(float)[None], prior)[0])


def _bde_scores(counts: np.ndarray, prior: DirichletPrior | None) -> np.ndarray:
    """:func:`bde_family_score` of each family in a block; ``counts`` is (F, n_configs, arity).

    Both sums of the formula run as row-wise reductions, one row per
    family, so every family scores the same bits in a block of any size.
    """
    prior = prior or DirichletPrior(1.0)
    n_fam, n_cfg, arity = counts.shape
    alpha = prior.pseudo_counts(n_cfg, arity)
    a_tot = alpha.sum(axis=1)
    per_config = gammaln(a_tot) - gammaln(a_tot + counts.sum(axis=2))
    per_cell = gammaln(alpha + counts) - gammaln(alpha)
    return per_config.sum(axis=1) + per_cell.reshape(n_fam, -1).sum(axis=1)


# ---------------------------------------------------------------------------
# Bayesian Gaussian equivalent score


@dataclass(frozen=True)
class BgeHyper:
    """Normal-Wishart hyperparameters for the Gaussian marginal likelihood.

    ``prior_precision`` and ``nu`` are sized to the full family dimension
    ``d = 1 + len(parents)`` (child first); ``None`` means identity and
    zeros.  Requires ``alpha_w > d - 1``.
    """

    alpha_mu: float = 1.0
    alpha_w: float | None = None  # None: d + 2 for the family at hand
    prior_precision: np.ndarray | None = None
    nu: np.ndarray | None = None

    def __post_init__(self):
        if not self.alpha_mu > 0:
            raise ModelError("alpha_mu must be positive")

    def resolved(self, d: int) -> tuple[float, np.ndarray, np.ndarray]:
        alpha_w = float(self.alpha_w) if self.alpha_w is not None else d + 2.0
        if d >= alpha_w + 1:
            raise ModelError(
                f"family dimension {d} needs alpha_w > {d - 1}, got {alpha_w}")
        t = np.eye(d) if self.prior_precision is None else np.asarray(self.prior_precision, dtype=float)
        nu = np.zeros(d) if self.nu is None else np.asarray(self.nu, dtype=float).reshape(-1)
        if t.shape != (d, d) or nu.shape != (d,):
            raise ModelError("prior precision / mean sized inconsistently with the family")
        return alpha_w, t, nu


def _log_wishart_norm(d: int, alpha: float) -> float:
    """log c(d, alpha) of the Wishart density normalizer."""
    return -(
        alpha * d / 2.0 * math.log(2.0)
        + d * (d - 1) / 4.0 * math.log(math.pi)
        + float(sum(gammaln((alpha + 1 - i) / 2.0) for i in range(1, d + 1)))
    )


def _exact_moments(dataset: TrajectoryDataset, family: FamilySpec) -> tuple[int, np.ndarray, np.ndarray]:
    """Row count, column means and centered scatter of the family's rows, child first.

    Assembled from the dataset's exact-sum bank
    (:meth:`~dbnlearn.core.TrajectoryDataset.column_sum` and
    :meth:`~dbnlearn.core.TrajectoryDataset.pair_sums`):
    ``mean_j = S_j / m`` and ``scatter_jk = S_jk - (m mean_j) mean_k`` for
    ``j <= k``, mirrored below the diagonal, where every ``S`` is a
    correctly rounded ``math.fsum``, so permuting rows cannot change the
    result.  Moments too large for a float raise :class:`DataError`.
    """
    keys = dataset.family_keys(family)
    m = dataset.usable_transitions(family)
    d = len(keys)
    if m == 0:
        return 0, np.zeros(d), np.zeros((d, d))
    mean = np.array([dataset.column_sum(a) / m for a in keys])
    with np.errstate(over="ignore", invalid="ignore"):
        scatter = dataset.pair_sums(keys) - np.outer(m * mean, mean)
    lower = np.tril_indices(d, -1)
    scatter[lower] = scatter.T[lower]
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(scatter))):
        raise DataError("data moments overflow a float")
    return m, mean, scatter


def log_nw_marginal(m: int, mean: np.ndarray, scatter: np.ndarray, alpha_mu: float,
                    alpha_w: float, t_prec: np.ndarray, nu: np.ndarray) -> float:
    """Log marginal likelihood of ``m`` exchangeable rows under a normal-Wishart prior.

    The rows enter only through their column ``mean`` and centered
    ``scatter`` (see :func:`_exact_moments`):
    ``(2 pi)^{-Md/2} (a_mu / (a_mu + M))^{d/2} c(d, a_w) |T|^{a_w/2}
    / (c(d, a_w + M) |R|^{(a_w + M)/2})`` with
    ``R = T + S + a_mu M / (a_mu + M) (mean - nu)(mean - nu)^T``.
    """
    d = len(mean)
    if m == 0 or d == 0:
        return 0.0
    shift = mean - nu
    r = t_prec + scatter + (alpha_mu * m / (alpha_mu + m)) * np.outer(shift, shift)
    sign_t, logdet_t = np.linalg.slogdet(t_prec)
    sign_r, logdet_r = np.linalg.slogdet(r)
    if sign_t <= 0 or sign_r <= 0:
        raise ModelError("prior/posterior precision not positive definite")
    return (
        -0.5 * m * d * math.log(2.0 * math.pi)
        + 0.5 * d * math.log(alpha_mu / (alpha_mu + m))
        + _log_wishart_norm(d, alpha_w) - _log_wishart_norm(d, alpha_w + m)
        + 0.5 * alpha_w * logdet_t
        - 0.5 * (alpha_w + m) * logdet_r
    )


def bge_family_score(dataset: TrajectoryDataset, node: int, family: FamilySpec,
                     hyper: BgeHyper | None = None) -> float:
    """Log marginal likelihood of a Gaussian child-given-parents family.

    All usable transitions are exchangeable rows ``(child, parents...)``;
    the conditional score is the joint normal-Wishart marginal minus the
    marginal of the parent block (with the matching sub-blocks of the
    prior precision and mean).  Both read one set of moments, assembled
    from the dataset's exact column sums by :func:`_exact_moments`, so
    row order never affects the value.
    """
    if dataset.domain.discrete:
        raise DomainMismatchError("bge_family_score needs a continuous dataset")
    if family.node != node:
        raise ModelError("family spec does not belong to the requested node")
    hyper = hyper or BgeHyper()
    d = 1 + len(family.parents)
    alpha_w, t_prec, nu = hyper.resolved(d)
    m, mean, scatter = _exact_moments(dataset, family)
    joint = log_nw_marginal(m, mean, scatter, hyper.alpha_mu, alpha_w, t_prec, nu)
    if len(family.parents) == 0:
        return joint
    return joint - log_nw_marginal(m, mean[1:], scatter[1:, 1:], hyper.alpha_mu,
                                   alpha_w, t_prec[1:, 1:], nu[1:])


# ---------------------------------------------------------------------------
# Family scores and the cache


def _check_parents(dataset: TrajectoryDataset, node: int, parents: Sequence[Parent]) -> None:
    """Refuse a family ``node`` cannot have in ``dataset`` with :class:`ModelError`.

    The node and every inter, intra or static parent must name a variable of
    the data, an auto lag is at least 1, and no node is its own intra parent.
    """
    if not 0 <= node < dataset.n_x:
        raise ModelError(f"node {node} is not in the data")
    for par in parents:
        if par.kind == "auto":
            valid = par.index >= 1
        elif par.kind == "static":
            valid = 0 <= par.index < dataset.n_z
        elif par.kind in ("inter", "intra"):
            valid = 0 <= par.index < dataset.n_x and par != Parent("intra", node)
        else:
            valid = False
        if not valid:
            raise ModelError(f"node {node} cannot have parent {par} in this dataset")


def family_score(dataset: TrajectoryDataset, node: int, parents: Sequence[Parent],
                 kind: str, prior: DirichletPrior | None = None,
                 hyper: BgeHyper | None = None) -> float:
    """Higher-is-better score of one family; see the module docstring for kinds."""
    return FamilyScorer(dataset, kind, prior, hyper)(node, parents)


_COUNTED_KINDS = ("ll", "aic", "aicc", "bic", "bde")
_BATCH_ELEMENTS = 1 << 15  # cap on families x max(distinct rows, cells) per counting step


def _block_counts(cols: np.ndarray, radix: list[int], distinct: np.ndarray,
                  weights: np.ndarray) -> np.ndarray:
    """Counts (F, n_configs, child arity) of F families over weighted distinct rows.

    ``cols[f]`` names the rows of ``distinct`` that family ``f`` reads,
    child first; ``radix`` holds their arities as Python ints, so the
    indices keep ``distinct``'s integer type and must fit it.
    """
    n_fam = len(cols)
    n_cells = math.prod(radix)
    flat = _config_index(distinct[cols.T], radix)
    flat += (np.arange(n_fam, dtype=flat.dtype) * n_cells)[:, None]
    counts = np.bincount(flat.reshape(-1), weights=np.tile(weights, n_fam),
                         minlength=n_fam * n_cells)
    return counts.reshape(n_fam, n_cells // radix[0], radix[0])


class FamilyScorer:
    """The one place where a family is scored: dataset, kind, priors and the score cache.

    ``scores`` maps (node, canonical parent tuple) to the family's score.
    Every lookup goes through :meth:`many`.  On discrete data the
    count-based kinds are counted in blocks (:meth:`_counted_scores`) for
    the exact search, hill climbing, :func:`family_score` and ``dbnlearn
    score`` alike; BGe and the linear-Gaussian fits score one family at a
    time (:meth:`_fitted_score`).  Values are deterministic functions of
    (dataset, family), so concurrent last-write-wins insertion is benign.
    """

    def __init__(self, dataset: TrajectoryDataset, kind: str,
                 prior: DirichletPrior | None = None, hyper: BgeHyper | None = None):
        self.dataset = dataset
        self.kind = kind.lower()
        if self.kind not in SCORE_KINDS:
            raise ConfigError(f"unknown score kind {kind!r}; expected one of {SCORE_KINDS}")
        self.prior = prior
        self.hyper = hyper
        self.scores: dict[tuple[int, tuple[Parent, ...]], float] = {}
        self._rows = {}  # first target time -> [(column ids, distinct rows, multiplicities)]

    def __call__(self, node: int, parents: Sequence[Parent]) -> float:
        """Score of ``node`` with ``parents``, memoized; parent order never matters."""
        return float(self.many(node, [canonical_parents(parents)])[0])

    def many(self, node: int, parent_sets: Sequence[tuple[Parent, ...]],
             check: Callable[[], None] | None = None) -> np.ndarray:
        """Scores of ``node`` with each parent tuple, in order, every one left in the cache.

        The tuples must be canonical (:func:`~dbnlearn.core.canonical_parents`),
        the order the cache keys them by.  Only the families not yet cached
        are scored, each once however often it repeats.  ``check`` (a
        deadline's ``check``) runs before every counting step, or every
        family.
        """
        check = check or (lambda: None)
        keys = [(node, tuple(parents)) for parents in parent_sets]
        entries = self.scores
        todo = list(dict.fromkeys(key for key in keys if key not in entries))
        if todo and self.dataset.domain.discrete and self.kind in _COUNTED_KINDS:
            entries.update(zip(todo, self._counted_scores(node, [k[1] for k in todo], check)))
        else:
            for key in todo:
                check()
                entries[key] = self._fitted_score(*key)
        return np.fromiter(map(entries.__getitem__, keys), dtype=float, count=len(keys))

    def _fitted_score(self, node: int, parents: tuple[Parent, ...]) -> float:
        """One family's BGe or least-squares score; a kind on the wrong domain raises DomainMismatchError."""
        ds = self.dataset
        _check_parents(ds, node, parents)
        family = FamilySpec(node=node, parents=parents)
        if self.kind == "bge":
            return bge_family_score(ds, node, family, self.hyper)
        if self.kind == "bde":
            raise DomainMismatchError("bde needs a discrete dataset")
        _, loglik = fit_linear_gaussian(ds, node, family)
        if self.kind == "ll":
            return loglik
        k = len(parents) + 2  # betas + intercept + sigma2
        return -information_criterion(loglik, k, ds.usable_transitions(family), self.kind)

    def _counted_scores(self, node: int, families: list, check: Callable[[], None]) -> list:
        """Count-based scores of ``node`` with each canonical parent tuple, in order.

        Families with one first target time and one arity tuple form a
        block.  The bank columns that the families of one first target time
        read are compressed into their distinct rows and multiplicities
        (:meth:`_distinct_rows`).  Each step of a block builds every
        family's configuration index over the distinct rows as one
        (families, rows) array with :func:`_config_index`, child as the
        lowest digit, and tallies it with one weighted ``bincount``; integer
        weights sum exactly, so the counts are those of
        :func:`count_transitions`.  The block formulas then give each family
        the bits of its per-family score (:func:`bde_family_score`, or the
        plug-in log-likelihood), and the criteria come from
        :func:`information_criterion`, family by family in order.
        """
        ds = self.dataset
        n_x, n_z = ds.n_x, ds.n_z
        # every distinct parent, in canonical order, then a padding slot of
        # arity 1, which adds no digit: its column id (statics, then lag 0,
        # 1, ... of every variable; see _distinct_rows), lag and arity
        sources = sorted(set(itertools.chain.from_iterable(families)), key=Parent.sort_key)
        _check_parents(ds, node, sources)
        slot = {par: s for s, par in enumerate(sources)}
        column, lag, arity = [], [], []
        for par in sources:
            par_lag, var = _source(node, par)
            column.append(var if par_lag is None else n_z + par_lag * n_x + var)
            lag.append(par_lag or 0)
            arity.append(ds.domain.z_arities[var] if par_lag is None else ds.domain.x_arities[var])
        column, lag, arity = (np.array([*a, pad], dtype=np.int64)
                              for a, pad in ((column, 0), (lag, 0), (arity, 1)))

        n_parents = np.fromiter(map(len, families), dtype=np.int64, count=len(families))
        filled = np.arange(n_parents.max(initial=0)) < n_parents[:, None]
        slots = np.full(filled.shape, len(sources))
        slots[filled] = np.fromiter(map(slot.__getitem__, itertools.chain.from_iterable(families)),
                                    dtype=np.int64, count=int(n_parents.sum()))
        if np.any((slots[:, 1:] <= slots[:, :-1]) & filled[:, 1:]):
            raise ModelError("parent tuples must be canonical, without repeats")
        t_first = np.maximum(ds.burn_in + 1, lag[slots].max(axis=1, initial=0))
        cols = np.column_stack([np.full(len(families), n_z + node), column[slots]])
        radices = np.column_stack([np.full(len(families), ds.domain.x_arities[node]), arity[slots]])

        values = np.empty(len(families))
        n_params = np.empty(len(families), dtype=np.int64)
        n_eff = np.empty(len(families), dtype=np.int64)
        order, starts = _sorted_groups(np.vstack([t_first, radices.T]))
        for members in np.split(order, starts[1:]):
            t0 = int(t_first[members[0]])
            radix = radices[members[0]]
            n_cells = int(np.prod(radix))
            if n_cells >= 1 << 31:
                raise SizeGuardError(f"a family of node {node} has {n_cells} count cells")
            same_t0 = t_first == t0
            ids, distinct, weights = self._distinct_rows(
                t0, np.unique(cols[same_t0][radices[same_t0] > 1]))
            n_params[members] = n_cells // radix[0] * (radix[0] - 1)
            n_eff[members] = ds.N * max(0, ds.T - t0 + 1)
            digits = np.flatnonzero(radix > 1)
            block = np.searchsorted(ids, cols[members][:, digits])
            step = max(1, _BATCH_ELEMENTS // max(weights.size, n_cells))
            for begin in range(0, members.size, step):
                check()
                counts = _block_counts(block[begin:begin + step], radix[digits].tolist(),
                                       distinct, weights)
                values[members[begin:begin + step]] = _bde_scores(counts, self.prior) \
                    if self.kind == "bde" else _loglik_scores(counts)
        if self.kind in ("bde", "ll"):
            return values.tolist()
        return [-information_criterion(ll, k, m, self.kind)
                for ll, k, m in zip(values.tolist(), n_params.tolist(), n_eff.tolist())]

    def _distinct_rows(self, t0: int, columns: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Compressed ids, distinct rows (int32, one array row per id) and multiplicities.

        ``columns`` holds sorted bank column ids at first target time
        ``t0``: static ``j`` is ``j``, variable ``j`` at ``lag`` is ``n_z +
        lag * n_x + j``.  A kept compression whose ids cover ``columns`` is
        reused; else exactly ``columns`` are compressed and kept, replacing
        the kept ones they cover.
        """
        kept = self._rows.setdefault(t0, [])
        wanted = frozenset(columns.tolist())
        for covered, *hit in kept:
            if wanted <= covered:
                return hit
        ds = self.dataset
        keys = [(t0, None, c) if c < ds.n_z else (t0, *divmod(c - ds.n_z, ds.n_x))
                for c in columns.tolist()]
        distinct, mult = ds.distinct_rows(keys)
        hit = [columns, np.ascontiguousarray(distinct, dtype=np.int32), mult.astype(float)]
        kept[:] = [entry for entry in kept if not entry[0] <= wanted] + [[wanted, *hit]]
        return hit

    def structure_score(self, structure: DbnStructure) -> float:
        return sum(self(i, parents_of(structure, i).parents) for i in range(structure.n_x))


def dump_scores(scorer: FamilyScorer) -> str:
    """Sorted text dump: ``node<TAB>parents<TAB>kind<TAB>value`` at 17 significant digits."""
    lines = []
    for (node, parents), value in scorer.scores.items():
        tags = "+".join(f"{p.kind}:{p.index}" for p in parents) or "-"
        lines.append(f"{node}\t{tags}\t{scorer.kind}\t{value:.17g}")
    return "\n".join(sorted(lines)) + ("\n" if lines else "")
