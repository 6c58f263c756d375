"""Structure(-and-parameter) learners.

Four learners share the :class:`LearnerReport` result type:

* :func:`exact_search`   -- provably optimal decomposable-score search;
  the same optimum as the integer-programming formulation (one parent
  set per vertex, cluster-style acyclicity), realized by dynamic
  programming over node subsets instead of a MIP solver.
* :func:`hill_climb`     -- steepest-ascent local search with restarts
  over add/delete/reverse moves, each listed as the parent tuples it
  changes and scored in one batch per node per step; the transitive
  closure of :mod:`dbnlearn.core` decides which intra moves are legal.
* :func:`continuous_oneshot` -- one-shot least squares over weighted
  adjacencies with an augmented-Lagrangian acyclicity constraint and L1
  shrinkage, finished by threshold-and-repair.
* :func:`bounded_oneshot` -- the sign-split variant with weights bounded
  away from zero, solved exactly at desk scale by support enumeration.

``exact`` and ``bounded`` tabulate one best entry per (node, intra
parent set), keyed by the set's bitmask, and share one subset dynamic
program, :func:`_best_dag` (Silander & Myllymaki, UAI 2006), to pick the
best acyclic combination.
The one-shot learners read the dataset's banks: ``bounded`` its rows
(:meth:`~dbnlearn.core.TrajectoryDataset.bank_matrix`), ``dynotears`` the
Gram matrix of its exact pair sums
(:meth:`~dbnlearn.core.TrajectoryDataset.pair_sums`); both turn their
weights into a structure alike (:func:`_sem_structure`).

``report.score`` is always the decomposable structure score that
rescoring the reported structure from scratch reproduces (the fit kind
for score-based learners, family log-likelihood for the continuous
ones); optimizer-internal objectives live in ``report.trace`` and
``report.extras``.  Reruns with the same seed yield bit-identical
reports; wall time is tracked on the object but never serialized.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .acyclicity import _h_exp, _h_grad, threshold_and_repair
from .core import (
    ConfigError, DataError, DbnError, DbnStructure, DomainMismatchError, Parent, ParameterSet,
    SizeGuardError, OptimizerError, TrajectoryDataset, _reachability, parents_of,
    structure_from_families,
)
from .scoring import (
    BgeHyper, DirichletPrior, FamilyScorer, _SearchScorer, fit_structure_params,
)
from .simulate import substream


class CellTimeout(DbnError):
    """A learner exceeded its cooperative deadline."""


class Deadline:
    """Cooperative time budget checked between moves / outer iterations."""

    def __init__(self, seconds: float | None = None):
        self._end = None if seconds is None else time.monotonic() + seconds

    def check(self):
        if self._end is not None and time.monotonic() > self._end:
            raise CellTimeout("learner exceeded its time budget")


_NO_DEADLINE = Deadline(None)


# ---------------------------------------------------------------------------
# Configurations and reports


# declared field type -> accepted value types; only bool fields take a bool
_FIELD_TYPES = {"int": (int,), "float": (int, float), "str": (str,), "bool": (bool,)}


def _check_field_types(config) -> None:
    """Refuse a config field whose value is not of its declared type with ConfigError."""
    for name, f in config.__dataclass_fields__.items():
        value = getattr(config, name)
        if isinstance(value, bool) != (f.type == "bool") or not isinstance(value, _FIELD_TYPES[f.type]):
            raise ConfigError(f"hyperparameter {name} must be of type {f.type}, got {value!r}")


@dataclass(frozen=True)
class SearchConfig:
    """Knobs shared by the combinatorial learners; ``score`` is the score kind they maximise."""

    score: str = "bic"
    max_intra: int = 2
    max_inter: int = 2
    max_auto: int = 1
    max_static: int = 1
    p: int = 1  # largest auto lag offered to the search
    restarts: int = 3
    move_budget: int = 10_000
    seed: int = 0

    def __post_init__(self):
        _check_field_types(self)
        if min(self.max_intra, self.max_inter, self.max_auto, self.max_static) < 0:
            raise ConfigError("max parents must be >= 0")
        if self.p < 1:
            raise ConfigError("the largest auto lag p must be >= 1")
        if self.move_budget <= 0 or self.restarts < 1:
            raise ConfigError("need a positive move budget and at least one restart")


@dataclass(frozen=True)
class ContinuousConfig:
    """Augmented-Lagrangian one-shot optimizer settings."""

    lambda_w: float = 0.1
    lambda_a: float = 0.1
    w_threshold: float = 0.01
    rho0: float = 1.0
    rho_growth: float = 10.0
    h_tol: float = 1e-8
    max_outer: int = 100
    max_inner: int = 1000
    inner_tol: float = 1e-7
    max_lag: int = 1
    record_inner: bool = False  # keep per-iteration objectives in the trace
    seed: int = 0

    def __post_init__(self):
        _check_field_types(self)
        if not (self.lambda_w >= 0 and self.lambda_a >= 0):
            raise ConfigError("L1 strengths must be >= 0")
        if not (self.rho0 > 0 and self.h_tol > 0 and self.rho_growth > 1):
            raise ConfigError("need rho0 > 0, tolerance > 0, growth > 1")
        if self.max_lag < 1 or self.max_outer < 1:
            raise ConfigError("max_lag and max_outer must be >= 1")
        if not self.w_threshold >= 0:
            raise ConfigError("w_threshold must be >= 0")


@dataclass(frozen=True)
class BoundedConfig:
    """Sign-split bounded-weight formulation settings."""

    b_w: float = 0.1
    b_a: float = 0.1
    lambda_w_pos: float = 0.0
    lambda_w_neg: float = 0.0
    lambda_a_pos: float = 0.0
    lambda_a_neg: float = 0.0
    max_nodes: int = 4
    seed: int = 0

    def __post_init__(self):
        _check_field_types(self)
        if not (self.b_w > 0 and self.b_a > 0):
            raise ConfigError("weight bounds must be positive")


@dataclass
class LearnerReport:
    """Learned structure plus parameters, score, trace and reproducibility info."""

    learner: str
    structure: DbnStructure
    params: ParameterSet | None
    score: float
    trace: tuple
    seed: int
    flags: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)
    wall_ms: float = 0.0  # informational; excluded from serialization

    def to_json_dict(self) -> dict:
        from .io import params_to_json  # local import avoids a cycle
        return {
            "learner": self.learner,
            "seed": self.seed,
            "score": self.score,
            "structure": self.structure.to_json_dict(),
            "params": None if self.params is None else params_to_json(self.params),
            "trace": list(self.trace),
            "flags": dict(sorted(self.flags.items())),
            "extras": {k: _jsonable(v) for k, v in sorted(self.extras.items())},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=False) + "\n"


def _jsonable(v):
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    return v


def _finish(learner: str, dataset: TrajectoryDataset, structure: DbnStructure,
            scorer: FamilyScorer, t_start: float, seed: int, trace: tuple | None = None,
            **fields) -> LearnerReport:
    """Report of a learned structure: rescored by ``scorer``, refit, wall time stamped.

    The trace defaults to one step at the rescored value.
    """
    total = float(scorer.structure_score(structure))
    report = LearnerReport(
        learner=learner, structure=structure,
        params=fit_structure_params(dataset, structure, smoothing=None), score=total,
        trace=({"step": 0, "score": total},) if trace is None else trace, seed=seed, **fields)
    report.wall_ms = (time.perf_counter() - t_start) * 1e3
    return report


# ---------------------------------------------------------------------------
# Exact search


def _class_subsets(candidates: Sequence, limit: int):
    """All subsets of a candidate list up to ``limit``, by (size, lexicographic) order."""
    out = [()]
    for size in range(1, min(limit, len(candidates)) + 1):
        out.extend(itertools.combinations(candidates, size))
    return out


def _search_config(score: str | None, config: SearchConfig | None, default: str) -> SearchConfig:
    """``config``, by default one scoring ``score`` (else ``default``); ``score`` may only repeat it."""
    if score is not None and config is not None and score.lower() != config.score.lower():
        raise ConfigError(f"score {score!r} disagrees with config.score {config.score!r}")
    return config or SearchConfig(score=default if score is None else score)


def exact_search(dataset: TrajectoryDataset, score: str | None = None,
                 config: SearchConfig | None = None,
                 prior: DirichletPrior | None = None, hyper: BgeHyper | None = None,
                 deadline: Deadline | None = None) -> LearnerReport:
    """Globally optimal structure under a decomposable score.

    Per node, the best choice of inter/auto/static subsets is
    tabulated for every admissible intra parent set (those classes never
    participate in a cycle, so they decouple given the intra choice);
    dynamic programming over node subsets then maximizes the total score
    subject to same-slice acyclicity.  Ties among a node's inter, auto and
    static subsets go to those enumerated first (smaller, then
    lexicographically earlier); an intra set beats its subsets only when
    strictly better.  Each node's lattice is scored into an array by one
    :meth:`~dbnlearn.scoring.FamilyScorer.lattice` call, which caches
    nothing and on discrete data sums most families' counts out of a few
    tallied ones.  A family whose least-squares fit is singular scores
    ``-inf`` (:class:`~dbnlearn.scoring._SearchScorer`), so it is never
    chosen.  ``extras`` reports the lattice families scored
    (``cache_entries``) and tallied (``families_counted``).
    The score kind is ``config.score``, ``bde`` by default.
    """
    t_start = time.perf_counter()
    config = _search_config(score, config, "bde")
    deadline = deadline or _NO_DEADLINE
    n = dataset.n_x
    if n > 12:
        raise SizeGuardError(f"exact search is guarded at 12 nodes, got {n}")
    if dataset.N * (dataset.T - dataset.burn_in) == 0:
        raise DataError("cannot learn from a dataset with no usable transition")
    scorer = _SearchScorer(dataset, config.score, prior=prior, hyper=hyper)

    tables, scored = [], 0  # per node: {intra parent bitmask -> (score, full parent tuple)}
    for i in range(n):
        deadline.check()
        others = [j for j in range(n) if j != i]
        intra_sets, inter_sets, auto_sets, static_sets = classes = (
            _class_subsets([Parent("intra", j) for j in others], config.max_intra),
            _class_subsets([Parent("inter", j) for j in others], config.max_inter),
            _class_subsets([Parent("auto", t) for t in range(1, config.p + 1)], config.max_auto),
            _class_subsets([Parent("static", j) for j in range(dataset.n_z)], config.max_static))
        # argmax keeps the first of equal values, as the enumeration order promises
        table, lattice = {}, scorer.lattice(i, classes, deadline.check)
        scored += lattice.size
        for intra, row in zip(intra_sets, lattice):
            a, b, c = np.unravel_index(row.argmax(), row.shape)
            table[sum(1 << p.index for p in intra)] = (
                float(row[a, b, c]), inter_sets[a] + intra + auto_sets[b] + static_sets[c])
        tables.append(table)

    _, chosen = _best_dag(tables, deadline)
    families = [parents for _, parents in chosen]
    structure = structure_from_families(n, dataset.n_z, config.p, families)
    return _finish("exact", dataset, structure, scorer, t_start, config.seed,
                   extras={"cache_entries": scored, "families_counted": scorer.counted})


def _best_dag(tables: list[dict], deadline: Deadline) -> tuple[float, list]:
    """Best acyclic choice of one table entry per node, by DP over node subsets.

    ``tables[i]`` maps the bitmask of an intra parent set of node ``i``
    (bit ``j`` set for parent ``j``) to an entry whose first item is the
    value to maximize.  Returns the best total and the chosen entry per
    node; on ties a subset's entry beats its superset's, else the first met.
    """
    n = len(tables)
    # g[i][mask] = best table value of node i with intra parents inside mask
    full = (1 << n) - 1
    g = [dict() for _ in range(n)]
    pick = [dict() for _ in range(n)]
    for i in range(n):
        for mask in range(1 << n):
            if mask & (1 << i):
                continue
            best, chosen = -np.inf, None
            for j in range(n):
                sub = mask & ~(1 << j)
                if sub != mask and g[i][sub] > best:
                    best, chosen = g[i][sub], pick[i][sub]
            if mask in tables[i] and tables[i][mask][0] > best:
                best, chosen = tables[i][mask][0], mask
            g[i][mask] = best
            pick[i][mask] = chosen

    # order DP: f[mask] = best total of the subnetwork on `mask`
    f = {0: 0.0}
    choice = {}
    for mask in range(1, full + 1):
        deadline.check()
        best, best_v = -np.inf, None
        for v in range(n):
            if not mask & (1 << v):
                continue
            sub = mask & ~(1 << v)
            value = f[sub] + g[v][sub]
            if value > best:
                best, best_v = value, v
        f[mask] = best
        choice[mask] = best_v
    if f[full] == -np.inf:
        raise DataError("no acyclic structure has a finite score (data too large for floats?)")

    entries = [None] * n
    mask = full
    while mask:
        v = choice[mask]
        sub = mask & ~(1 << v)
        entries[v] = tables[v][pick[v][sub]]
        mask = sub
    return f[full], entries


# ---------------------------------------------------------------------------
# Hill climbing


def _legal_moves(structure: DbnStructure, families: list, config: SearchConfig) -> list:
    """Every legal single-edge move, as the ``(node, new parent tuple)`` pairs it changes.

    ``families[v]`` is node ``v``'s canonical parent tuple in
    ``structure``.  The order is fixed; a reversal of ``j -> i`` changes
    ``i`` first, then ``j``.  One transitive closure of the intra graph
    decides every intra candidate: adding ``j -> i`` closes a cycle iff
    ``i`` already reaches ``j``; reversing ``j -> i`` does iff ``j``
    reaches ``i`` through some other child ``k`` of ``j``.  Auto lag 1 is
    not offered to a node with an inter self edge, which already is that
    dependence.
    """
    n = structure.n_x
    keys = [[par.sort_key() for par in parents] for parents in families]

    def add(v, par):
        at = bisect.bisect(keys[v], par.sort_key())
        return v, families[v][:at] + (par,) + families[v][at:]

    def drop(v, par):
        at = bisect.bisect_left(keys[v], par.sort_key())
        return v, families[v][:at] + families[v][at + 1:]

    moves = []
    intra_in = structure.intra.sum(axis=0)
    inter_in = structure.inter.sum(axis=0)
    static_in = structure.static_edges.sum(axis=0)
    reach = _reachability(structure.intra)
    # via[j, i]: j reaches i through a child of j other than i itself
    via = (structure.intra.astype(np.int64) @ reach.astype(np.int64)) > 0
    for j in range(n):
        for i in range(n):
            if i == j:
                continue
            if structure.intra[j, i]:
                dropped = drop(i, Parent("intra", j))
                moves.append((dropped,))
                if intra_in[j] < config.max_intra and not via[j, i]:
                    moves.append((dropped, add(j, Parent("intra", i))))
            elif intra_in[i] < config.max_intra and not reach[i, j]:
                moves.append((add(i, Parent("intra", j)),))
            if structure.inter[j, i]:
                moves.append((drop(i, Parent("inter", j)),))
            elif inter_in[i] < config.max_inter:
                moves.append((add(i, Parent("inter", j)),))
    for i in range(n):
        lags = set(structure.auto_lags[i])
        for tau in range(1, config.p + 1):
            if tau in lags:
                moves.append((drop(i, Parent("auto", tau)),))
            elif len(lags) < config.max_auto and not (tau == 1 and structure.inter[i, i]):
                moves.append((add(i, Parent("auto", tau)),))
    for j in range(structure.static_edges.shape[0]):
        for i in range(n):
            if structure.static_edges[j, i]:
                moves.append((drop(i, Parent("static", j)),))
            elif static_in[i] < config.max_static:
                moves.append((add(i, Parent("static", j)),))
    return moves


def _random_start(dataset: TrajectoryDataset, config: SearchConfig,
                  rng: np.random.Generator, edge_prob: float = 0.2) -> DbnStructure:
    n = dataset.n_x
    order = rng.permutation(n)
    rank = np.empty(n, dtype=int)
    rank[order] = np.arange(n)
    intra = np.zeros((n, n), dtype=bool)
    inter = np.zeros((n, n), dtype=bool)
    for a in range(n):
        for b in range(n):
            if a != b and rank[a] < rank[b] and rng.random() < edge_prob:
                intra[a, b] = True
            if a != b and rng.random() < edge_prob:
                inter[a, b] = True
    auto = tuple(
        tuple(t for t in range(1, config.p + 1) if rng.random() < edge_prob)
        for _ in range(n))
    static = rng.random((dataset.n_z, n)) < edge_prob  # row by row, as one draw per edge
    # trim to the per-class caps, keeping lowest-index parents
    for i in range(n):
        for mat, cap in ((intra, config.max_intra), (inter, config.max_inter),
                         (static, config.max_static)):
            mat[np.flatnonzero(mat[:, i])[cap:], i] = False
    auto = tuple(ls[:config.max_auto] for ls in auto)
    return DbnStructure(n_x=n, n_z=dataset.n_z, p=config.p, intra=intra,
                        inter=inter, auto_lags=auto, static_edges=static)


def hill_climb(dataset: TrajectoryDataset, score: str | None = None,
               config: SearchConfig | None = None,
               prior: DirichletPrior | None = None, hyper: BgeHyper | None = None,
               deadline: Deadline | None = None,
               initial: DbnStructure | None = None) -> LearnerReport:
    """Steepest-ascent search over single-edge moves, best of seeded restarts.

    Moves: add/delete/reverse intra edge (cycle-rejecting), add/delete
    inter edge, auto lag, static edge.  Each step scores the families that
    legal moves change (:func:`_legal_moves` lists their parent tuples)
    with one :meth:`~dbnlearn.scoring.FamilyScorer.many` call per node,
    then reads every delta from the cache.  The chosen move updates the
    per-node parent tuples, and the structure is rebuilt from them.  Restart 0
    starts from ``initial`` (the empty graph by default), its lag order
    raised to ``config.p`` if smaller, later restarts from random
    structures (edge probability 0.2).  A family whose least-squares fit is
    singular scores ``-inf``, as in :func:`exact_search`, so no move
    chooses it.  The score kind is ``config.score``, ``bic`` by default.
    """
    t_start = time.perf_counter()
    config = _search_config(score, config, "bic")
    deadline = deadline or _NO_DEADLINE
    if dataset.N * (dataset.T - dataset.burn_in) == 0:
        raise DataError("cannot learn from a dataset with no usable transition")
    scorer = _SearchScorer(dataset, config.score, prior=prior, hyper=hyper)

    best_structure, best_score, best_trace, moves_used = None, -np.inf, (), 0
    for restart in range(config.restarts):
        if restart == 0:
            start = initial if initial is not None \
                else DbnStructure.empty(dataset.n_x, dataset.n_z, config.p)
        else:
            start = _random_start(dataset, config, substream(config.seed, "restart", restart))
        families = [parents_of(start, i).parents for i in range(dataset.n_x)]
        # at least config.p, the largest auto lag a move may add
        structure = structure_from_families(dataset.n_x, dataset.n_z, max(start.p, config.p),
                                            families)
        node_scores = [scorer(i, families[i]) for i in range(dataset.n_x)]
        current = float(sum(node_scores))
        trace = [{"restart": restart, "step": 0, "score": current}]
        for step in range(1, config.move_budget + 1):
            deadline.check()
            moved = _legal_moves(structure, families, config)
            pending = sorted(itertools.chain.from_iterable(moved), key=lambda key: key[0])
            for v, keys in itertools.groupby(pending, key=lambda key: key[0]):
                scorer.many(v, [parents for _, parents in keys], deadline.check)
            best_moved, best_delta = None, 0.0
            for changed in moved:
                delta = sum(scorer.scores[key] - node_scores[key[0]] for key in changed)
                if delta > best_delta + 1e-12:
                    best_moved, best_delta = changed, delta
            if best_moved is None:
                break
            for v, parents in best_moved:
                families[v] = parents
                node_scores[v] = scorer.scores[(v, parents)]
            structure = structure_from_families(structure.n_x, structure.n_z, structure.p, families)
            current = float(sum(node_scores))
            trace.append({"restart": restart, "step": step, "score": current})
            moves_used += 1
        if current > best_score:
            best_structure, best_score, best_trace = structure, current, tuple(trace)

    return _finish("hill", dataset, best_structure, scorer, t_start, config.seed, best_trace,
                   extras={"cache_entries": len(scorer.scores), "moves": moves_used})


# ---------------------------------------------------------------------------
# Continuous one-shot (augmented Lagrangian)


# The augmented-Lagrangian loop stops, unconverged, once rho would exceed
# this, as the NOTEARS reference code does (arXiv:1803.01422).
_RHO_MAX = 1e16


def _sem_gram(dataset: TrajectoryDataset, max_lag: int) -> tuple[np.ndarray, int]:
    """Gram matrix ``Z^T Z`` of the rows ``Z = [Y L]`` and the row count ``M``.

    ``Y`` holds the n variables at target times from
    ``first_usable_t(max_lag)`` and ``L`` their lags 1..``max_lag``, lag
    by lag; both come from the dataset's exact pair sums, so no row is
    read here and row order plays no part.
    """
    n = dataset.n_x
    t0 = dataset.first_usable_t(max_lag)
    m = dataset.N * (dataset.T + 1 - t0)
    if m == 0:
        raise DataError("no usable transitions")
    keys = [(t0, lag, j) for lag in range(max_lag + 1) for j in range(n)]
    return dataset.pair_sums(keys), m


class _SemSmooth:
    """Smooth part of the augmented Lagrangian on the stacked parameter ``theta = [W; A]``.

    With ``B = [I - W; -A]`` the residual is ``Z B``, so the loss
    ``(1/2M)||Y - Y W - L A||_F^2`` is ``tr(B^T G B) / 2M`` and its
    gradient in ``theta`` is ``-(G B) / M``, read from the Gram matrix
    ``G`` of :func:`_sem_gram`; ``B`` is filled in place in one buffer.
    :meth:`value` adds ``alpha h + rho h^2 / 2`` to the loss, and
    :meth:`gradient` is the gradient at the point :meth:`value` evaluated
    last, so a line search pays for it only on the trial it accepts.
    ``calls`` counts the evaluations, one ``expm`` each.  An overshooting
    trial may overflow; :func:`continuous_oneshot` evaluates under
    ``np.errstate``.
    """

    def __init__(self, gram: np.ndarray, m: int, n: int):
        self.gram, self.m, self.n = gram, m, n
        self.eye = np.eye(n)
        self.b = np.empty((gram.shape[0], n))
        self.calls = 0

    def value(self, theta: np.ndarray, alpha: float, rho: float) -> tuple[float, float, float]:
        """The smooth value at ``theta``, its least-squares loss and ``h(W)``."""
        n, b = self.n, self.b
        self.w = theta[:n]
        np.subtract(self.eye, self.w, out=b[:n])
        np.negative(theta[n:], out=b[n:])  # -A exactly: 0 - A differs in the sign of its zeros
        self.gb = self.gram @ b
        loss = 0.5 / self.m * float((b * self.gb).sum())
        h, self.e = _h_exp(self.w)
        self.h_weight = alpha + rho * h
        self.calls += 1
        return loss + alpha * h + 0.5 * rho * h * h, loss, h

    def gradient(self) -> np.ndarray:
        """Gradient in ``theta`` at the point of the last :meth:`value`."""
        g = np.negative(self.gb)
        g /= self.m
        g[:self.n] += self.h_weight * _h_grad(self.e, self.w)
        return g


def continuous_oneshot(dataset: TrajectoryDataset, config: ContinuousConfig | None = None,
                       deadline: Deadline | None = None) -> LearnerReport:
    """One-shot SEM fit: L1-penalized least squares with an acyclicity constraint.

    Minimizes ``(1/2M)||Y - Y W - L A||_F^2 + lambda_w ||W||_1 +
    lambda_a ||A||_1`` subject to ``h(W) = 0`` by an augmented
    Lagrangian: a monotone proximal-gradient inner solver
    (soft-thresholding, backtracking line search, zero-diagonal
    projection on W), with the multiplier update ``alpha += rho h`` and
    ``rho *= growth`` per outer round until ``h < tol``, or unconverged
    once rho would exceed 1e16.  The solver steps one stacked parameter
    ``theta = [W; A]``: each trial is one soft-threshold (the L1 strength
    per row, ``lambda_w`` on W's rows and ``lambda_a`` on A's), one
    difference and one product over ``theta``.  The loss comes in Gram
    form (:class:`_SemSmooth`) from the exact pair sums of the dataset's
    sum bank, built once per call, so no evaluation touches the M rows
    and the result does not depend on row order; the gradient is formed
    only for the trials the line search accepts, and the penalty of each
    iteration only with ``record_inner``.  Every element sees the same
    operations, and every sum runs over W's rows or A's rows alone, as in a
    solve over separate W and A, so the bits equal that solve's.  Each
    trace entry and ``extras["objective"]`` report the penalized
    least-squares objective, without the augmented-Lagrangian terms;
    ``inner_objectives`` (with ``record_inner``) include them, the
    quantity the inner solver decreases.  ``extras["smooth_calls"]``
    counts the evaluations (one ``expm`` each) and ``extras["iterations"]``
    the accepted steps.  The final support is thresholded and
    cycle-repaired, linear-Gaussian parameters are refit on it, and the raw
    weight matrices stay in ``extras`` for ranking-based evaluation.  The
    penalty is L1 on a (1/2M)-scaled SSE, unlike the per-edge L0 penalty on
    summed SSE of ``bounded_oneshot``, so the two supports coincide only
    where the data pin the support down, not where several supports fit
    equally well.
    """
    t_start = time.perf_counter()
    config = config or ContinuousConfig()
    deadline = deadline or _NO_DEADLINE
    if dataset.domain.discrete:
        raise DomainMismatchError("the continuous one-shot learner needs a continuous dataset")
    if dataset.T < config.max_lag:
        raise DataError(f"horizon T={dataset.T} too short for max lag {config.max_lag}")
    n = dataset.n_x
    gram, m = _sem_gram(dataset, config.max_lag)
    smooth = _SemSmooth(gram, m, n)

    theta = np.zeros((gram.shape[0], n))  # W's n rows, then A's n rows per lag
    lam = np.full((gram.shape[0], 1), config.lambda_a)
    lam[:n] = config.lambda_w
    diagonal = slice(0, n * n, n + 1)  # W's diagonal in theta's flat view
    alpha, rho = 0.0, config.rho0
    trace = []
    converged = False
    iterations = 0

    def penalty(t):
        mag = np.abs(t)
        return config.lambda_w * float(mag[:n].sum()) + config.lambda_a * float(mag[n:].sum())

    step = 1.0
    # overshooting trial steps may overflow; backtracking rejects them
    with np.errstate(over="ignore", invalid="ignore"):
        for outer in range(config.max_outer):
            value, loss, h = smooth.value(theta, alpha, rho)
            grad = smooth.gradient()
            inner_objectives = [value + penalty(theta)] if config.record_inner else None
            for inner in range(config.max_inner):
                if inner % 25 == 0:
                    deadline.check()
                while True:
                    x = theta - step * grad
                    trial = np.sign(x) * np.maximum(np.abs(x) - step * lam, 0.0)
                    trial.ravel()[diagonal] = 0.0
                    val_new, loss_new, h_new = smooth.value(trial, alpha, rho)
                    d = trial - theta
                    gd, dd = grad * d, d * d
                    # W's and A's sums apart, as pairwise summation over all of theta has other bits
                    quad = value + float(gd[:n].sum() + gd[n:].sum()) \
                        + 0.5 / step * (float(dd[:n].sum()) + float(dd[n:].sum()))
                    # a non-finite trial just means the step overshot: backtrack
                    if math.isfinite(val_new) and val_new <= quad + 1e-15:
                        break
                    if step < 1e-14:
                        if not math.isfinite(val_new):
                            raise OptimizerError(
                                f"inner solve diverged at outer {outer}; trace: {trace}")
                        break
                    step *= 0.5
                move = float(np.abs(d).max(initial=0.0))
                theta, value, loss, h = trial, val_new, loss_new, h_new
                grad = smooth.gradient()
                iterations += 1
                step = min(step * 2.0, 1e6)
                if config.record_inner:
                    inner_objectives.append(value + penalty(theta))
                if move < config.inner_tol:
                    break
            entry = {"outer": outer, "objective": loss + penalty(theta), "h": h, "rho": rho}
            if config.record_inner:
                entry["inner_objectives"] = inner_objectives
            trace.append(entry)
            deadline.check()
            if h < config.h_tol:
                converged = True
                break
            if rho * config.rho_growth > _RHO_MAX:
                break
            alpha += rho * h
            rho *= config.rho_growth

    w, a = theta[:n], theta[n:]
    support = threshold_and_repair(w, config.w_threshold)
    structure = _sem_structure(dataset.n_z, support, a, config.w_threshold)
    return _finish(
        "dynotears", dataset, structure, FamilyScorer(dataset, "ll"), t_start, config.seed,
        tuple(trace), flags={"converged": converged},
        extras={"w": np.where(support, w, 0.0), "a": a,
                "objective": trace[-1]["objective"], "h": trace[-1]["h"],
                "smooth_calls": smooth.calls, "iterations": iterations})


def _sem_structure(n_z: int, intra: np.ndarray, a: np.ndarray, threshold: float) -> DbnStructure:
    """Structure of same-slice support ``intra`` and lag weights ``a``, one (n, n) block per lag.

    Inter edges are the lag-1 block's off-diagonal weights with ``|a| >=
    threshold`` (nonzero at threshold 0); auto lag ``tau`` of node ``i``
    needs ``|a_tau[i, i]| >= max(threshold, tiny)``.
    """
    n = intra.shape[0]
    blocks = a.reshape(-1, n, n)
    inter = np.abs(blocks[0]) >= threshold if threshold > 0 else blocks[0] != 0.0
    np.fill_diagonal(inter, False)
    floor = max(threshold, np.finfo(float).tiny)
    auto = tuple(tuple(tau + 1 for tau in range(len(blocks)) if abs(blocks[tau][i, i]) >= floor)
                 for i in range(n))
    return DbnStructure(n_x=n, n_z=n_z, p=len(blocks), intra=intra, inter=inter, auto_lags=auto,
                        static_edges=np.zeros((n_z, n), dtype=bool))


# ---------------------------------------------------------------------------
# Bounded-weight one-shot


# Relative slack of the pruning test in :func:`_price_support`, per unit of
# the design's condition number: far above the rounding of a least-squares
# cost, so rounding never prunes the pattern a plain enumeration would pick.
_PRUNE_MARGIN = 1e-9


def _price_support(target: np.ndarray, cols: list, n_intra: int, config: BoundedConfig,
                   cap: float = np.inf, tally: Counter | None = None,
                   rows: int = 0) -> tuple[float, np.ndarray | None]:
    """Min over sign patterns of SSE + sign-class L0 penalties on one support.

    ``cols`` holds the support's intra columns, then its lagged ones.  Each
    sign pattern is a bound-constrained least squares (weights at least
    ``b_w`` / ``b_a`` in magnitude with that sign) priced with one penalty
    per weight from its sign class.  Only when the penalties do not depend
    on the sign does an unconstrained optimum clearing every bound settle
    the support without enumerating patterns.  Returns the cost and the
    weights in ``cols`` order.

    Patterns are pruned by the least-squares lower bound of bounded-variable
    least squares (Stark & Parker 1995).  With ``beta`` the unconstrained
    solution, ``SSE0 = ||t - X beta||^2`` and ``sigma`` the design's smallest
    singular value, every ``w`` in pattern ``s``'s box has ``||t - X w||^2 =
    SSE0 + ||X (w - beta)||^2 >= SSE0 + sigma^2 dist(beta, box)^2``, so the
    pattern costs at least ``L_s = SSE0 + sigma^2 sum_i max(0, req_i - s_i
    beta_i)^2 + pen_s``.  Patterns are solved in increasing ``(L_s,
    enumeration index)`` order until ``L_s`` less a margin exceeds the
    smaller of the best cost found and ``cap``.  The margin is
    ``_PRUNE_MARGIN`` times the design's condition number times ``|L_s| +
    ||t||^2``, since the rounding of a computed cost grows with both.  A
    rank-deficient design (whose BVLS weights may drift along its null
    space, and whose computed costs then carry that drift's rounding) or a
    non-finite bound never prunes: every pattern is solved, in enumeration
    order.  On equal costs the pattern enumerated first wins, as in a plain
    enumeration.  With the default ``cap`` the result is the exact minimum.
    A support that cannot cost less than a finite ``cap`` may instead
    return any cost at or above ``cap``, with weights ``None`` when no
    pattern was solved.  ``tally`` counts ``bvls_calls`` and such
    ``supports_pruned``.

    ``target`` and ``cols`` may be rows of data or the matching columns of
    the triangular factor ``R`` of a QR of those rows: with ``Q``
    orthonormal, ``||t - X w|| = ||R_t - R_X w||`` for every ``w`` and the
    two designs share their singular values, so costs, bounds and margins
    mean the same on both.  On a factor, ``rows`` is the data's row count
    ``M``: the rank threshold stays the data's, ``eps * max(M, k)``, so a
    support whose design is rank deficient stays so on the factor, which
    carries the backward error of an ``M``-row QR.
    """
    # imported here, not at module level: only the bounded learner needs it,
    # so importing dbnlearn does not pay for it
    import scipy.optimize

    if not cols:
        return float(np.dot(target, target)), np.empty(0)
    tally = Counter() if tally is None else tally
    design = np.column_stack(cols)
    k = design.shape[1]
    req = np.array([config.b_w] * n_intra + [config.b_a] * (k - n_intra))
    pos = [config.lambda_w_pos] * n_intra + [config.lambda_a_pos] * (k - n_intra)
    neg = [config.lambda_w_neg] * n_intra + [config.lambda_a_neg] * (k - n_intra)

    def cost(weights):
        resid = target - design @ weights
        return float(np.dot(resid, resid)) + sum(
            p if w > 0 else q for w, p, q in zip(weights, pos, neg))

    rcond = np.finfo(float).eps * max(len(target), rows, k)
    beta, _, rank, sv = np.linalg.lstsq(design, target, rcond=rcond)
    if config.lambda_w_pos == config.lambda_w_neg and config.lambda_a_pos == config.lambda_a_neg:
        if np.all(np.abs(beta) >= req):
            return cost(beta), beta
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=k)))
    resid = target - design @ beta
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        cond = sv[0] / sv[-1] if rank == k else np.inf
        gap = np.maximum(0.0, req - signs * beta)
        bounds = (np.dot(resid, resid) + sv[-1] * sv[-1] * np.sum(gap * gap, axis=1)
                  + np.where(signs > 0, pos, neg).sum(axis=1))
        slack = _PRUNE_MARGIN * cond * (np.abs(bounds) + np.dot(target, target))
    if not np.all(np.isfinite(bounds - slack)):  # rank deficient or overflowing: solve all
        bounds, slack = np.full(len(signs), -np.inf), np.zeros(len(signs))
    best = None  # (cost, pattern index, weights)
    for idx in np.argsort(bounds, kind="stable").tolist():
        limit = cap if best is None else min(best[0], cap)
        if bounds[idx] - slack[idx] > limit:
            break
        lo = np.where(signs[idx] > 0, req, -np.inf)
        hi = np.where(signs[idx] > 0, np.inf, -req)
        sol = scipy.optimize.lsq_linear(design, target, bounds=(lo, hi), method="bvls")
        tally["bvls_calls"] += 1
        value = cost(sol.x)
        if best is None or value < best[0] or (value == best[0] and idx < best[1]):
            best = (value, idx, sol.x)
    if best is None:
        tally["supports_pruned"] += 1
        return float(bounds[idx]), None
    return best[0], best[2]


def bounded_oneshot(dataset: TrajectoryDataset, config: BoundedConfig | None = None,
                    deadline: Deadline | None = None) -> LearnerReport:
    """Exact sign-split bounded-weight learner at desk scale (lag 1 only).

    Every candidate support (intra DAG x inter set) is priced by
    :func:`_price_support`: the minimum over sign assignments of a
    bound-constrained least squares (weights at least ``b_w`` / ``b_a``
    in magnitude; at most one sign per edge) plus L0 penalties per sign
    class.  The per-node tables then feed the same subset DP as the exact
    search, so the returned support is the global minimizer for any
    penalties ``lambda_*_pos`` / ``lambda_*_neg``.  Every active edge
    satisfies its bound by construction.
    Pruning keeps every choice exact (:func:`_bounded_tables`): sign
    patterns are solved in order of their least-squares lower bound and
    skipped once the bound, less a rounding margin, exceeds the best cost
    found; each support is also capped at the cheapest cost already found
    for its intra set.  On equal costs the support and the sign pattern
    enumerated first win.  ``extras`` counts the BVLS solves
    (``bvls_calls``) and the supports skipped without one
    (``supports_pruned``).
    Every price reads the triangular factor ``R`` of one QR of the rows
    ``[Y | X_prev]`` (at most 2n rows) rather than the M rows themselves:
    least-squares costs and singular values are the same on both, and the
    rank threshold stays the data's (:func:`_price_support`).
    The penalty is L0 per edge on summed SSE, unlike the L1 penalty on a
    (1/2M)-scaled SSE of ``continuous_oneshot``, so the two supports
    coincide only where the data pin the support down, not where several
    supports fit equally well.
    """
    t_start = time.perf_counter()
    config = config or BoundedConfig()
    deadline = deadline or _NO_DEADLINE
    if dataset.domain.discrete:
        raise DomainMismatchError("the bounded one-shot learner needs a continuous dataset")
    if dataset.T < 1:
        raise DataError(f"horizon T={dataset.T} too short for max lag 1")
    n = dataset.n_x
    if n > config.max_nodes:
        raise SizeGuardError(f"bounded search is guarded at {config.max_nodes} nodes, got {n}")
    t0 = dataset.first_usable_t(1)
    y = dataset.bank_matrix(t0, [(0, j) for j in range(n)])
    x_prev = dataset.bank_matrix(t0, [(1, j) for j in range(n)])
    rows = np.hstack([y, x_prev])
    if not len(rows):  # no trajectory, or a burn-in that leaves no transition
        raise DataError("cannot learn from an empty dataset")
    # every price is built from these products: overflowing ones raise DataError before any solve
    dataset.pair_sums([(t0, lag, j) for lag in (0, 1) for j in range(n)])

    factor = np.linalg.qr(rows, mode="r")
    tally = Counter(bvls_calls=0, supports_pruned=0)
    tables = _bounded_tables(factor[:, :n], factor[:, n:], config, deadline, tally, rows=len(rows))
    total, chosen = _best_dag(tables, deadline)
    w_mat = np.zeros((n, n))
    a_mat = np.zeros((n, n))
    for v, (_, intra_js, inter_js, weights) in enumerate(chosen):
        for idx, j in enumerate(intra_js):
            w_mat[j, v] = weights[idx]
        for idx, j in enumerate(inter_js):
            a_mat[j, v] = weights[len(intra_js) + idx]

    # at threshold 0 every nonzero weight is an edge, since each is at least its
    # bound b_w / b_a in magnitude (for bounds of at least the smallest normal float)
    structure = _sem_structure(dataset.n_z, w_mat != 0.0, a_mat, 0.0)
    return _finish(
        "bounded", dataset, structure, FamilyScorer(dataset, "ll"), t_start, config.seed,
        ({"step": 0, "objective": -total},),
        extras={"w": w_mat, "a": a_mat, "objective": -total,
                "empty_objective": float(sum(np.dot(y[:, i], y[:, i]) for i in range(n))),
                **tally})


def _bounded_tables(y: np.ndarray, x_prev: np.ndarray, config: BoundedConfig,
                    deadline: Deadline, tally: Counter, rows: int = 0) -> list[dict]:
    """Per node: {intra parent bitmask -> (-cost, intra_js, inter_js, weights)} of its cheapest support.

    ``y`` and ``x_prev`` are the rows of ``Y`` and ``X_prev``, or the two
    column blocks of the triangular factor of a QR of ``[Y | X_prev]``;
    ``rows`` is then the data's row count, which sets every support's rank
    threshold (:func:`_price_support`).
    Inter sets are priced in enumeration order, each capped at the cheapest
    cost found so far for the same intra set, so a support that cannot be
    strictly cheaper is pruned and the first of equal costs is kept.
    """
    n = y.shape[1]
    tables = []
    for i in range(n):
        table = {}
        for intra_js in _class_subsets([j for j in range(n) if j != i], n - 1):
            deadline.check()
            best = None
            for inter_js in _class_subsets(range(n), n):
                cols = [y[:, j] for j in intra_js] + [x_prev[:, j] for j in inter_js]
                cost, weights = _price_support(y[:, i], cols, len(intra_js), config,
                                               np.inf if best is None else -best[0], tally, rows)
                if best is None or -cost > best[0]:
                    best = (-cost, intra_js, inter_js, weights)
            table[sum(1 << j for j in intra_js)] = best
        tables.append(table)
    return tables


# ---------------------------------------------------------------------------
# Registry used by the CLI and the benchmark harness


def _config_from(cls, seed, hyper, defaults=None):
    """``cls(seed=seed, **defaults, **hyper)``; unknown hyperparameters raise ConfigError."""
    unknown = set(hyper) - (set(cls.__dataclass_fields__) - {"seed"})
    if unknown:
        raise ConfigError(f"unknown hyperparameters for this learner: {sorted(unknown)}")
    return cls(seed=seed, **{**(defaults or {}), **hyper})


def _run_exact(dataset, seed, deadline, **hp):
    cfg = _config_from(SearchConfig, seed, hp, {"score": "bde"})
    return exact_search(dataset, config=cfg, deadline=deadline)


def _run_hill(dataset, seed, deadline, **hp):
    cfg = _config_from(SearchConfig, seed, hp, {"score": "bic"})
    return hill_climb(dataset, config=cfg, deadline=deadline)


def _run_dynotears(dataset, seed, deadline, **hp):
    return continuous_oneshot(dataset, _config_from(ContinuousConfig, seed, hp), deadline=deadline)


def _run_bounded(dataset, seed, deadline, **hp):
    return bounded_oneshot(dataset, _config_from(BoundedConfig, seed, hp), deadline=deadline)


LEARNERS: dict[str, Callable] = {
    "exact": _run_exact,
    "hill": _run_hill,
    "dynotears": _run_dynotears,
    "bounded": _run_bounded,
}


def run_learner(name: str, dataset: TrajectoryDataset, seed: int = 0,
                deadline: Deadline | None = None, **hyper) -> LearnerReport:
    """Dispatch by learner name; unknown names list the valid ones."""
    if name not in LEARNERS:
        raise ConfigError(f"unknown learner {name!r}; valid names: {', '.join(sorted(LEARNERS))}")
    return LEARNERS[name](dataset, seed, deadline or _NO_DEADLINE, **hyper)
