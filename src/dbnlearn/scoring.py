"""Sufficient statistics, likelihoods, information criteria and Bayesian scores.

Every score here is decomposable: a structure's score is the sum of
independent per-(node, parent set) family terms, so hill climbing memoises
families and the exact search scores each node alone.  :class:`FamilyScorer`
is the one place where a family, a row over its candidate table, is scored
for every learner and :func:`family_score`; higher is better for every kind:

* ``ll``   -- maximized family log-likelihood,
* ``aic`` / ``aicc`` / ``bic`` -- minus the information criterion
  ``-2 log L + C`` (note the AICc parsimony term is ``(N + k)/(N - k - 2)``
  without a leading ``k``; unusual, but kept as is -- see
  :func:`information_criterion`),
* ``bde``  -- log Dirichlet-multinomial marginal likelihood,
* ``bge``  -- log normal-Wishart marginal likelihood of the
  child-given-parents regression.

Every discrete count is tallied over the dataset's row bank, the
distinct rows of its columns
(:meth:`~dbnlearn.core.TrajectoryDataset.distinct_rows`), by
:func:`_block_counts`: in blocks of families for every score kind but
``bge``, and one family at a time by :func:`count_transitions` for the
refits and held-out likelihoods.  The exact search's lattices tally only
their largest families and sum every other family's counts out of theirs
(:meth:`FamilyScorer.lattice`).  Every continuous score, fit and
held-out likelihood reads a family's exact moments (:func:`_exact_moments`).

Effective sample sizes count usable transitions only: targets from
``max(family min time, burn_in + 1)`` to ``T``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.linalg import cho_solve
from scipy.linalg.lapack import dpotrf
from scipy.special import gammaln

from .core import (
    ConfigError, Cpt, DataError, DbnStructure, DomainMismatchError, FamilySpec,
    LinearGaussian, ModelError, PARENT_KINDS, Parent, ParameterSet, SingularFitError,
    SizeGuardError, TrajectoryDataset, UnderdeterminedError, _source, canonical_parents,
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


def count_transitions(dataset: TrajectoryDataset, family: FamilySpec) -> CountTable:
    """Tally every usable transition by parent configuration and child value.

    Transitions whose auto lags reach before the first observation (or
    into the burn-in window) are skipped, so the grand total is
    ``N * (T - first_usable + 1)``.  The table is one family's
    :func:`_block_counts` over the dataset's distinct rows of its columns,
    so a compression a learner kept serves its refit.  A family of
    ``2**31`` count cells or more raises :class:`SizeGuardError`.
    """
    if not dataset.domain.discrete:
        raise DomainMismatchError("count_transitions needs a discrete dataset")
    arities = dataset.family_arities(family)
    child_arity = dataset.domain.x_arities[family.node]
    radix = [child_arity, *arities]
    _guarded_cells(radix)
    keys = dataset.family_keys(family)
    t0 = keys[0][0]  # the first target time
    columns = np.array([dataset.column_id(lag, j) for _, lag, j in keys])
    ids, distinct, weights = dataset.distinct_rows(t0, np.unique(columns))
    counts = _block_counts(np.searchsorted(ids, columns)[None], radix, distinct, weights)
    return CountTable(node=family.node, family=family, arities=arities,
                      child_arity=child_arity, counts=counts[0])


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


def loglik_gaussian(dataset: TrajectoryDataset, structure: DbnStructure,
                    params: ParameterSet) -> float:
    """Log-likelihood of every usable transition under per-node linear Gaussian kernels.

    From each family's exact moments (:func:`_exact_moments`), with ``c = (1, -beta)``:
    ``rss = max(0, c' S c) + m (mean . c - beta0)^2``."""
    total = 0.0
    for node in range(structure.n_x):
        family, par = parents_of(structure, node), params[node]
        if not isinstance(par, LinearGaussian) or par.beta.size != len(family.parents):
            raise ModelError(f"node {node} parameters are not a linear Gaussian kernel of its parents")
        m, mean, scatter = _exact_moments(dataset, family)
        c = np.concatenate(([1.0], -par.beta))
        rss = max(0.0, float(c @ scatter @ c)) + m * (mean @ c - par.beta0) ** 2
        total += -0.5 * m * math.log(2.0 * math.pi * par.sigma2) - 0.5 * rss / par.sigma2
    return total


# ---------------------------------------------------------------------------
# Linear Gaussian fitting


def _exact_moments(dataset: TrajectoryDataset, family: FamilySpec) -> tuple[int, np.ndarray, np.ndarray]:
    """Row count, column means and centered scatter of the family's rows, child first.

    Assembled from the dataset's exact-sum bank
    (:meth:`~dbnlearn.core.TrajectoryDataset.column_sum` and
    :meth:`~dbnlearn.core.TrajectoryDataset.pair_sums`):
    ``mean_j = S_j / m`` and ``scatter_jk = S_jk - (m mean_j) mean_k`` for
    ``j <= k``, mirrored below the diagonal, where every ``S`` is a
    correctly rounded exact sum, so permuting rows cannot change the
    result.  Moments too large for a float raise :class:`DataError`.
    """
    keys, m = dataset.family_keys(family), dataset.usable_transitions(family)
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


def fit_linear_gaussian(dataset: TrajectoryDataset, node: int,
                        family: FamilySpec) -> tuple[LinearGaussian, float]:
    """Least-squares fit of a linear Gaussian family; returns kernel and maximised log-likelihood.

    From the exact moments (:func:`_exact_moments`; centred, so they lose precision where means
    are large against spread): Cholesky solves ``S_PP beta = S_Py``, ``beta0 = mean_y - mean_P .
    beta``, ``rss = max(0, S_yy - S_yP beta)``.  A parent whose pivot is at most ``eps d`` (``d =
    1 + len(parents)``) times its uncentred sum of squares is affine in the ones before it (a
    constant twins the intercept): :class:`~dbnlearn.core.SingularFitError`, a :class:`DataError`;
    a child that is zero in every usable transition raises :class:`DataError`.  ``sigma2 =
    max(rss / m, eps sum(y^2) / m)`` and the log-likelihood ``-m/2 (log(2 pi sigma2) + 1)``, one
    value for every exact fit.
    """
    if family.node != node:
        raise ModelError("family spec does not belong to the requested node")
    if dataset.domain.discrete:
        raise DomainMismatchError("a linear Gaussian fit needs a continuous dataset")
    d, m = 1 + len(family.parents), dataset.usable_transitions(family)
    if m < d:
        raise UnderdeterminedError(f"{m} usable transitions for {d} parameters")
    _, mean, scatter = _exact_moments(dataset, family)
    sumsq = np.array([dataset.column_sum(key, key) for key in dataset.family_keys(family)])
    if sumsq[0] == 0.0:
        raise DataError(f"node {node} is zero in every usable transition")
    eps = np.finfo(float).eps
    factor, info = dpotrf(scatter[1:, 1:], lower=1)  # info > 0: a pivot is not positive
    if info or np.any(np.diag(factor) ** 2 <= eps * d * sumsq[1:]):
        raise SingularFitError(f"least-squares fit of node {node} on parents {list(family.parents)} "
                               "is singular: a parent is affine in the ones before it")
    beta = cho_solve((factor, True), scatter[1:, 0], check_finite=False)
    with np.errstate(over="ignore", invalid="ignore"):
        rss, beta0 = scatter[0, 0] - scatter[0, 1:] @ beta, mean[0] - mean[1:] @ beta
    if not (math.isfinite(rss) and math.isfinite(beta0) and np.all(np.isfinite(beta))):
        raise DataError("least-squares fit overflows a float (data too large?)")
    sigma2 = max(max(0.0, rss) / m, eps * sumsq[0] / m)
    loglik = -0.5 * m * (math.log(2.0 * math.pi * sigma2) + 1.0)
    return LinearGaussian(beta0=float(beta0), beta=beta, sigma2=float(sigma2)), loglik


def fit_structure_params(dataset: TrajectoryDataset, structure: DbnStructure,
                         smoothing: "DirichletPrior | None") -> ParameterSet:
    """Per-family parameter fit of a structure: the learners' refit and hold-out scoring.

    Discrete families use the Dirichlet posterior mean when a prior is
    given (so unseen test configurations keep finite likelihood) and the
    raw count ratios otherwise; continuous families use least squares.
    """
    families = [parents_of(structure, i) for i in range(structure.n_x)]
    if dataset.domain.discrete:
        return ParameterSet(tuple(mle_cpt(count_transitions(dataset, f), smoothing) for f in families))
    return ParameterSet(tuple(fit_linear_gaussian(dataset, f.node, f)[0] for f in families))


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
    Under a uniform prior each term is ``lgamma`` of the one pseudo-count,
    or of its row total, plus a whole count; a block whose largest row
    total is below its number of cells reads the terms from a table of
    those values, which holds the same bits.
    """
    prior = prior or DirichletPrior(1.0)
    n_fam, n_cfg, arity = counts.shape
    alpha = prior.pseudo_counts(n_cfg, arity)
    a_tot = alpha.sum(axis=1)
    totals = counts.sum(axis=2)
    top = int(totals.max(initial=0))
    if prior.table is None and top < counts.size:
        # one pseudo-count in every cell, and whole counts: read each term from a table
        n = np.arange(top + 1.0)
        per_config = (gammaln(a_tot[0]) - gammaln(a_tot[0] + n))[totals.astype(np.intp)]
        per_cell = (gammaln(alpha[0, 0] + n) - gammaln(alpha[0, 0]))[counts.astype(np.intp)]
    else:
        per_config = gammaln(a_tot) - gammaln(a_tot + totals)
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


def _check_horizon(dataset: TrajectoryDataset, max_lag: int) -> None:
    """Refuse a lag past the horizon ``T``: a family with it has no transition, so it would score 0."""
    if max_lag > dataset.T:
        raise DataError(f"horizon T={dataset.T} too short for max lag {max_lag}")


def family_score(dataset: TrajectoryDataset, node: int, parents: Sequence[Parent],
                 kind: str, prior: DirichletPrior | None = None,
                 hyper: BgeHyper | None = None) -> float:
    """Higher-is-better score of one family; see the module docstring for kinds."""
    return FamilyScorer(dataset, kind, prior, hyper)(node, parents)


_COUNTED_KINDS = ("ll", "aic", "aicc", "bic", "bde")
_BATCH_ELEMENTS = 1 << 15  # cap on families x max(distinct rows, cells) per counting or scoring step
_TABLE_ELEMENTS = 1 << 21  # cap on the completions' count cells FamilyScorer.lattice holds at once


def _guarded_cells(radix: list[int]) -> int:
    """Count cells of a family whose columns have arities ``radix``, below ``2**31``.

    A larger family raises :class:`SizeGuardError`; callers check every
    family before they ask the dataset for distinct rows, so a refused call
    compresses nothing.
    """
    n_cells = math.prod(radix)
    if n_cells >= 1 << 31:
        raise SizeGuardError(f"a family of {n_cells} count cells is past the 2**31 guard")
    return n_cells


def _block_counts(cols: np.ndarray, radix: list[int], distinct: np.ndarray,
                  weights: np.ndarray) -> np.ndarray:
    """Counts (F, n_configs, child arity) of F families over weighted distinct rows.

    ``cols[f]`` names the rows of ``distinct`` that family ``f`` reads,
    child first; ``radix`` holds their arities as Python ints, their
    product within :func:`_guarded_cells`, so the indices keep
    ``distinct``'s int32 type.  Integer weights sum exactly, so the counts
    are whole numbers in any row order.
    """
    n_fam = len(cols)
    n_cells = math.prod(radix)
    flat = _config_index(distinct[cols.T], radix)
    flat += (np.arange(n_fam, dtype=flat.dtype) * n_cells)[:, None]
    counts = np.bincount(flat.reshape(-1), weights=np.tile(weights, n_fam),
                         minlength=n_fam * n_cells)
    return counts.reshape(n_fam, n_cells // radix[0], radix[0])


def _sorted_groups(keys: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Stable order sorting items by equal-length key arrays (first key first), and
    the positions in that order where each run of items with equal keys starts."""
    order = np.lexsort(keys[::-1])
    new = np.zeros(order.size, dtype=bool)
    new[:1] = True
    for key in keys:  # one key at a time: no sorted copy of all of them
        ordered = key[order]
        new[1:] |= ordered[1:] != ordered[:-1]
    return order, np.flatnonzero(new)


class _Block(NamedTuple):
    """Families of one node with one first target time and one arity tuple, counted together."""

    t0: int
    radix: list  # arities of the columns the families read, child first, as Python ints
    members: np.ndarray  # the families' positions among the rows they came from
    cols: np.ndarray  # (families, len(radix)) row-bank column ids, child first
    columns: np.ndarray  # every column that the listed families of first target time t0 read


def _unions(classes: Sequence[np.ndarray]) -> np.ndarray:
    """The rows of every union of one row per class, the first class's row major."""
    grid = np.ix_(*(np.arange(len(rows)) for rows in classes))
    union = False
    for rows, axis in zip(classes, grid):
        union = union | rows[axis]
    return union.reshape(-1, classes[0].shape[1])


def _class_completions(subsets: np.ndarray, lag: np.ndarray, t_floor: int):
    """Each subset's completion in one class of an exact-search lattice.

    ``subsets`` holds the rows of every subset of the class's candidates up
    to its cap, by (size, lexicographic) order, so the last has the cap's
    size; ``lag`` holds the lag of each column.  A completion adds the lowest
    candidates the subset lacks, up to the cap, whose lag is at most
    ``max(t_floor, the subset's largest lag)``.  Returns the distinct
    completions' rows in order of first use, and per subset the index of its
    completion, its size and the bits of its positions the subset lacks.
    """
    bound = np.maximum(t_floor, np.where(subsets, lag, 0).max(axis=1))
    free = subsets.any(axis=0) & ~subsets & (lag <= bound[:, None])  # the candidates it may add
    full = subsets | free & (np.cumsum(free, axis=1) <= subsets[-1].sum() - subsets.sum(axis=1)[:, None])
    first: dict[bytes, int] = {}
    index = np.array([first.setdefault(row.tobytes(), f) for f, row in enumerate(full)])
    used = np.unique(index)  # the first subset of each distinct completion, in order of first use
    lacking = ((full & ~subsets) << (np.cumsum(full, axis=1) - full)).sum(axis=1)
    return full[used], np.searchsorted(used, index), full.sum(axis=1), lacking


class FamilyScorer:
    """The one place where a family is scored: dataset, kind, priors, candidate table and cache.

    A family is a boolean row over ``candidates``, every parent a node can
    have in canonical order: inter ``0..n_x-1``, intra ``0..n_x-1`` (a node's
    own never set), auto lags ``1..T``, static ``0..n_z-1``; ``columns[kind]``
    holds each kind's columns.  Tuples enter by :meth:`rows` and leave by
    :meth:`parents`.  ``scores`` maps ``(node, row bytes)`` to the score of
    each family looked up through :meth:`many`.  :meth:`lattice` scores the
    exact search's lattices into arrays, bit for bit alike, and caches
    nothing.  On discrete data the count-based kinds share one block counter
    (:meth:`_blocks` and :meth:`_tally`, over the dataset's row bank, whose
    compressions every scorer of a dataset shares) and one block scorer
    (:meth:`_block_scores`); ``counted`` is the number of families tallied.
    BGe and the linear-Gaussian fits score one family at a time
    (:meth:`_fitted_score`).  Values are deterministic functions of
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
        indices = {"inter": range(dataset.n_x), "intra": range(dataset.n_x),
                   "auto": range(1, dataset.T + 1), "static": range(dataset.n_z)}
        self.candidates = tuple(Parent(tag, j) for tag in PARENT_KINDS for j in indices[tag])
        self.columns = {tag: np.flatnonzero([par.kind == tag for par in self.candidates])
                        for tag in PARENT_KINDS}
        self._column = {par: c for c, par in enumerate(self.candidates)}
        self._tables: dict[int, np.ndarray] = {}
        self.scores: dict[tuple[int, bytes], float] = {}
        self.counted = 0

    def rows(self, node: int, parent_sets: Sequence[Sequence[Parent]]) -> np.ndarray:
        """Rows of ``node``'s canonical parent tuples.  A node or parent not in the table (or the node's
        own intra slot), or a tuple out of order or with a repeat, raises :class:`ModelError`; an auto
        lag past the horizon ``T`` raises :class:`DataError`, as in the learners."""
        rows = np.zeros((len(parent_sets), len(self.candidates)), dtype=bool)
        for f, parents in enumerate(parent_sets):
            slots = [None if par == ("intra", node) else self._column.get(par) for par in parents]
            if None in slots:
                par = parents[slots.index(None)]
                if par.kind == "auto":
                    _check_horizon(self.dataset, par.index)
                raise ModelError(f"node {node} cannot have parent {par} in this dataset")
            if slots != sorted(set(slots)):
                raise ModelError("parent tuples must be canonical, without repeats")
            rows[f, slots] = True
        return rows

    def parents(self, row: np.ndarray) -> tuple[Parent, ...]:
        """The canonical parent tuple of a row over the candidate table."""
        return tuple(itertools.compress(self.candidates, row))

    def __call__(self, node: int, parents: Sequence[Parent]) -> float:
        """Score of ``node`` with ``parents``, memoized; parent order never matters."""
        return float(self.many(node, [canonical_parents(parents)])[0])

    def many(self, node: int, families: np.ndarray | Sequence[tuple[Parent, ...]],
             check: Callable[[], None] = lambda: None) -> np.ndarray:
        """Scores of ``node`` with each family, in order, every one left in the cache.

        ``families`` are boolean rows over the candidate table (the node's own
        intra column unset, else :class:`ModelError`), or canonical parent
        tuples, which :meth:`rows` converts once.  Only the families not yet
        cached are scored, each once however often it repeats.  ``check`` (a
        deadline's ``check``) runs before every counting step, or every family.
        """
        if not 0 <= node < self.dataset.n_x:
            raise ModelError(f"node {node} is not in the data")
        rows = families if isinstance(families, np.ndarray) else self.rows(node, families)
        if rows.dtype != bool or rows.shape[1:] != (len(self.candidates),) or rows[:, self.columns["intra"][node]].any():
            raise ModelError(f"a family of node {node} is not a row of its candidate table")
        keys = [(node, row.tobytes()) for row in rows]
        todo = {key: f for f, key in enumerate(keys) if key not in self.scores}  # one row per family
        if todo:
            self.scores.update(zip(todo, self._scores(node, rows[list(todo.values())], check)))
        return np.fromiter(map(self.scores.__getitem__, keys), dtype=float, count=len(keys))

    def lattice(self, node: int, classes: Sequence[np.ndarray],
                check: Callable[[], None] = lambda: None) -> np.ndarray:
        """Scores of ``node`` with every family of an exact-search lattice; nothing is cached.

        ``classes`` holds the intra, inter, auto and static subsets, in that
        order, each the rows of every subset of the class's candidates up to
        its cap by (size, lexicographic) order; entry ``[a, b, c, d]`` scores
        the union of their rows ``a``, ``b``, ``c`` and ``d`` with
        :meth:`many`'s bits.  ``check`` runs before every counting step, or
        every family.

        On discrete data the count-based kinds tally only the families'
        *completions*.  Class by class, a completion adds the lowest-column
        candidates the family lacks, up to the class cap, whose lag is at
        most the family's first target time; only an auto lag can pass it,
        so a completion counts the family's rows.  Each distinct completion
        is counted once by the block counter, before which every one is
        guarded; every family's table is then its completion's table summed
        over the axes of the added parents.  Counts are whole numbers, so
        the sums equal a direct tally exactly and the block scorer gives
        each family its bits.  The completions are counted in blocks of at
        most ``_TABLE_ELEMENTS`` cells; the families of one block with one
        set of summed axes are gathered, summed and scored in steps of at
        most ``_BATCH_ELEMENTS`` completion cells.  Other kinds and continuous
        data score each family by :meth:`_fitted_score`, in lattice order.
        """
        shape = tuple(map(len, classes))
        if not (self.dataset.domain.discrete and self.kind in _COUNTED_KINDS):
            return np.array(self._scores(node, _unions(classes), check)).reshape(shape)
        values = np.empty(math.prod(shape))

        # per class: its distinct completions, and per subset its completion's index and size and
        # the bits of the completion positions it lacks; broadcast over the lattice's axes
        parts = [_class_completions(rows, self._table(node)[1, :-1], self.dataset.burn_in + 1)
                 for rows in classes]
        grid = np.ix_(*(np.arange(n) for n in shape))
        completion = np.ravel_multi_index([index[axis] for (_, index, _, _), axis in zip(parts, grid)],
                                          [len(distinct) for distinct, *_ in parts]).reshape(-1)
        summed, offset = 0, 0
        for c in (1, 0, 2, 3):  # inter, intra, auto, static: the canonical order of the parents
            _, _, size, lacking = parts[c]
            summed = summed | lacking[grid[c]] << offset
            offset = offset + size[grid[c]]
        summed = summed.reshape(-1)

        completions = _unions([distinct for distinct, *_ in parts])
        blocks = [block._replace(members=block.members[i:i + size], cols=block.cols[i:i + size])
                  for block in self._blocks(node, completions)
                  for size in [max(1, _TABLE_ELEMENTS // math.prod(block.radix))]
                  for i in range(0, block.members.size, size)]
        block_of = np.empty(len(completions), dtype=np.int64)
        position = np.empty_like(block_of)
        for b, block in enumerate(blocks):
            block_of[block.members] = b
            position[block.members] = np.arange(block.members.size)

        held = None
        order, starts = _sorted_groups([block_of[completion], summed])
        for group in np.split(order, starts[1:]):
            b = block_of[completion[group[0]]]
            block = blocks[b]
            if held != b:
                held = b
                table = np.empty((block.members.size, math.prod(block.radix[1:]), block.radix[0]))
                for members, counts in self._tally(block, check):
                    table[position[members]] = counts
                table = table.reshape(-1, *block.radix[::-1])  # the child last, the first parent next
            k = len(block.radix) - 1
            axes = tuple(k - j for j in range(k) if summed[group[0]] >> j & 1)
            rows = position[completion[group]]
            step = max(1, _BATCH_ELEMENTS // table[0].size)
            for begin in range(0, group.size, step):
                counts = table[rows[begin:begin + step]].sum(axis=axes)
                values[group[begin:begin + step]] = self._block_scores(
                    counts.reshape(len(counts), -1, block.radix[0]), block.t0)
        return values.reshape(shape)

    def _fitted_score(self, node: int, row: np.ndarray) -> float:
        """One family's BGe or least-squares score; a kind on the wrong domain raises DomainMismatchError."""
        ds = self.dataset
        family = FamilySpec(node=node, parents=self.parents(row))
        if self.kind == "bge":
            return bge_family_score(ds, node, family, self.hyper)
        if self.kind == "bde":
            raise DomainMismatchError("bde needs a discrete dataset")
        _, loglik = fit_linear_gaussian(ds, node, family)
        if self.kind == "ll":
            return loglik
        k = len(family.parents) + 2  # betas + intercept + sigma2
        return -information_criterion(loglik, k, ds.usable_transitions(family), self.kind)

    def _scores(self, node: int, rows: np.ndarray, check: Callable[[], None]) -> list:
        """Scores of ``node`` with each row, in order: the count-based kinds on discrete data block by
        block (:meth:`_blocks`, :meth:`_tally`, :meth:`_block_scores`), others one by one
        (:meth:`_fitted_score`); ``check`` runs before every counting step, or every family."""
        if not (self.dataset.domain.discrete and self.kind in _COUNTED_KINDS):
            values = []
            for row in rows:
                check()
                values.append(self._fitted_score(node, row))
            return values
        values = np.empty(len(rows))
        for block in self._blocks(node, rows):
            for members, counts in self._tally(block, check):
                values[members] = self._block_scores(counts, block.t0)
        return values.tolist()

    def _table(self, node: int) -> np.ndarray:
        """``node``'s candidate table on discrete data, built once: three rows, each candidate's
        row-bank column id, lag (0 for a static) and arity, then a padding slot's (0, 0, 1): no digit."""
        if node not in self._tables:
            ds, domain = self.dataset, self.dataset.domain
            table = [(ds.column_id(lag, j), lag or 0, (domain.z_arities if lag is None else domain.x_arities)[j])
                     for lag, j in (_source(node, par) for par in self.candidates)]
            self._tables[node] = np.array([*table, (0, 0, 1)], dtype=np.int64).T
        return self._tables[node]

    def _blocks(self, node: int, rows: np.ndarray) -> list[_Block]:
        """``node``'s family rows sorted into counting blocks, every one guarded.

        A row's set columns, padded with the padding slot, gather its parents'
        column ids, lags and arities from :meth:`_table`.  Families with one
        first target time and one arity tuple form a block.  Every block passes
        :func:`_guarded_cells` before any is returned, so a family past the
        guard raises before anything is compressed.
        """
        ds = self.dataset
        column, lag, arity = self._table(node)
        n_parents = rows.sum(axis=1)
        filled = np.arange(n_parents.max(initial=0)) < n_parents[:, None]
        slots = np.full(filled.shape, rows.shape[1])
        slots[filled] = np.nonzero(rows)[1]
        t_first = np.maximum(ds.burn_in + 1, lag[slots].max(axis=1, initial=0))
        cols = np.column_stack([np.full(len(rows), ds.column_id(0, node)), column[slots]])
        radices = np.column_stack([np.full(len(rows), ds.domain.x_arities[node]), arity[slots]])

        blocks = []
        order, starts = _sorted_groups(np.vstack([t_first, radices.T]))
        for members in np.split(order, starts[1:]):
            t0, radix = int(t_first[members[0]]), radices[members[0]]
            _guarded_cells(radix.tolist())
            same_t0 = t_first == t0
            digits = np.flatnonzero(radix > 1)
            blocks.append(_Block(t0, radix[digits].tolist(), members, cols[members][:, digits],
                                 np.unique(cols[same_t0][radices[same_t0] > 1])))
        return blocks

    def _tally(self, block: _Block, check: Callable[[], None]):
        """The counts of a block's families, step by step: ``(members, counts)`` per step.

        The block's columns come from the dataset's row bank as distinct
        rows and multiplicities
        (:meth:`~dbnlearn.core.TrajectoryDataset.distinct_rows`), asked for
        every column its first target time reads, so they are compressed
        once per dataset and shared by every scorer and
        :func:`count_transitions`.  ``check`` runs before every step, and
        each step counts its families with :func:`_block_counts`, so the
        counts are those of :func:`count_transitions`.
        """
        ids, distinct, weights = self.dataset.distinct_rows(block.t0, block.columns)
        rows = np.searchsorted(ids, block.cols)
        step = max(1, _BATCH_ELEMENTS // max(weights.size, math.prod(block.radix)))
        for begin in range(0, len(rows), step):
            check()
            counts = _block_counts(rows[begin:begin + step], block.radix, distinct, weights)
            self.counted += len(counts)
            yield block.members[begin:begin + step], counts

    def _block_scores(self, counts: np.ndarray, t0: int):
        """Scores of a block of families from their counts (F, n_configs, arity), first target time ``t0``.

        The block formulas give each family the bits of its per-family score
        (:func:`bde_family_score`, or the plug-in log-likelihood), and the
        criteria come from :func:`information_criterion`, family by family.
        """
        if self.kind == "bde":
            return _bde_scores(counts, self.prior)
        loglik = _loglik_scores(counts)
        if self.kind == "ll":
            return loglik
        ds = self.dataset
        n_params, n_eff = counts.shape[1] * (counts.shape[2] - 1), ds.N * max(0, ds.T - t0 + 1)
        return [-information_criterion(ll, n_params, n_eff, self.kind) for ll in loglik.tolist()]

    def structure_score(self, structure: DbnStructure) -> float:
        return sum(self(i, parents_of(structure, i).parents) for i in range(structure.n_x))


class _SearchScorer(FamilyScorer):
    """The searches' scorer: a family whose least-squares fit is singular scores ``-inf``.

    A search never chooses such a family, so one rank-deficient candidate
    (:class:`~dbnlearn.core.SingularFitError`) does not abort it;
    :class:`FamilyScorer`, :func:`family_score` and the refit raise.
    """

    def _fitted_score(self, node: int, row: np.ndarray) -> float:
        try:
            return super()._fitted_score(node, row)
        except SingularFitError:
            return -math.inf


def dump_scores(scorer: FamilyScorer) -> str:
    """Sorted text dump: ``node<TAB>parents<TAB>kind<TAB>value`` at 17 significant digits."""
    lines = []
    for (node, row), value in scorer.scores.items():
        parents = scorer.parents(np.frombuffer(row, dtype=bool))
        tags = "+".join(f"{p.kind}:{p.index}" for p in parents) or "-"
        lines.append(f"{node}\t{tags}\t{scorer.kind}\t{value:.17g}")
    return "\n".join(sorted(lines)) + ("\n" if lines else "")
