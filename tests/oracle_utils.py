"""Independent oracles shared by unit and acceptance tests.

Everything here deliberately avoids the library's own search and
integration paths: DAG-ness is decided by brute-force permutation
checks, integrals by quadrature on scipy primitives.
"""

import bisect
import heapq
import itertools
import math
import time

import numpy as np
import scipy.linalg
import scipy.optimize
from scipy import optimize, stats

from dbnlearn.acyclicity import h_expm_and_grad, threshold_and_repair
from dbnlearn.core import (
    Cpt, DbnStructure, FactoredCpt, FamilySpec, LinearGaussian, Logistic, NoisyOr,
    OptimizerError, Parent, _reachability, canonical_parents, configuration_index,
    n_configurations, parents_of, structure_from_families,
)
from dbnlearn.learn import (
    _RHO_MAX, BoundedConfig, ContinuousConfig, SearchConfig, _finish, _random_start,
    _search_config, _sem_gram, _sem_structure,
)
from dbnlearn.scoring import (
    CountTable, FamilyScorer, _SearchScorer, bde_family_score, family_score,
    information_criterion,
)
from dbnlearn.simulate import substream


def permutation_is_dag(support: np.ndarray) -> bool:
    """A support is a DAG iff some node order makes every edge go forward."""
    n = support.shape[0]
    for perm in itertools.permutations(range(n)):
        pos = {v: k for k, v in enumerate(perm)}
        if all(pos[j] < pos[i] for j, i in zip(*np.nonzero(support))):
            return True
    return False


def reference_topological_order(intra: np.ndarray) -> list[int]:
    """Kahn's algorithm with a min-heap of ready nodes: the smallest-index-first order.

    Returns the nodes that no cycle blocks, so the list is shorter than
    the graph exactly when the graph is cyclic.
    """
    n = intra.shape[0]
    indeg = [int(c) for c in np.count_nonzero(intra, axis=0)]
    ready = [v for v in range(n) if indeg[v] == 0]  # sorted, hence a heap
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for w in np.flatnonzero(intra[v]).tolist():
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    return order


def all_intra_dags(n: int):
    """Every zero-diagonal boolean n x n DAG support (25 of them at n=3)."""
    slots = [(j, i) for j in range(n) for i in range(n) if j != i]
    for bits in itertools.product([False, True], repeat=len(slots)):
        support = np.zeros((n, n), dtype=bool)
        for (j, i), b in zip(slots, bits):
            support[j, i] = b
        if permutation_is_dag(support):
            yield support


def class_subsets(candidates, limit):
    out = [()]
    for size in range(1, min(limit, len(candidates)) + 1):
        out.extend(itertools.combinations(candidates, size))
    return out


def _structure_with(structure: DbnStructure, move) -> DbnStructure:
    kind = move[0]
    if kind in ("add_intra", "del_intra", "rev_intra"):
        intra = structure.intra.copy()
        _, j, i = move
        if kind == "add_intra":
            intra[j, i] = True
        elif kind == "del_intra":
            intra[j, i] = False
        else:
            intra[j, i] = False
            intra[i, j] = True
        return structure.replace(intra=intra)
    if kind in ("add_inter", "del_inter"):
        inter = structure.inter.copy()
        _, j, i = move
        inter[j, i] = kind == "add_inter"
        return structure.replace(inter=inter)
    if kind in ("add_auto", "del_auto"):
        _, i, tau = move
        lags = set(structure.auto_lags[i])
        lags.add(tau) if kind == "add_auto" else lags.discard(tau)
        auto = list(structure.auto_lags)
        auto[i] = tuple(sorted(lags))
        return structure.replace(auto_lags=tuple(auto))
    _, j, i = move
    static = structure.static_edges.copy()
    static[j, i] = kind == "add_static"
    return structure.replace(static_edges=static)


def reference_legal_moves(structure: DbnStructure, families: list, config: SearchConfig) -> list:
    """Every legal single-edge move, as the ``(node, new parent tuple)`` pairs it changes.

    The reference for hill climbing's maintained move table: every list
    is built from scratch, for one structure.

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


def reference_hill_climb(dataset, score=None, config=None, prior=None, hyper=None, initial=None):
    """Hill climbing that lists every legal move and re-sums every delta each step.

    The reference for :func:`dbnlearn.learn.hill_climb`: each step takes
    :func:`reference_legal_moves`, scores their families with one
    ``many`` call per node, and sums each move's delta from the cache.
    ``extras["moves_evaluated"]`` is the sum of the move lists' lengths.
    """
    t_start = time.perf_counter()
    config = _search_config(score, config, "bic")
    scorer = _SearchScorer(dataset, config.score, prior=prior, hyper=hyper)

    best_structure, best_score, best_trace, moves_used, evaluated = None, -np.inf, (), 0, 0
    for restart in range(config.restarts):
        if restart == 0:
            start = initial if initial is not None \
                else DbnStructure.empty(dataset.n_x, dataset.n_z, config.p)
        else:
            start = _random_start(dataset, config, substream(config.seed, "restart", restart))
        families = [parents_of(start, i).parents for i in range(dataset.n_x)]
        structure = structure_from_families(dataset.n_x, dataset.n_z, max(start.p, config.p),
                                            families)
        node_scores = [scorer(i, families[i]) for i in range(dataset.n_x)]
        current = float(sum(node_scores))
        trace = [{"restart": restart, "step": 0, "score": current}]
        for step in range(1, config.move_budget + 1):
            moved = reference_legal_moves(structure, families, config)
            evaluated += len(moved)
            pending = sorted(itertools.chain.from_iterable(moved), key=lambda key: key[0])
            for v, keys in itertools.groupby(pending, key=lambda key: key[0]):
                scorer.many(v, [parents for _, parents in keys])
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
                   extras={"cache_entries": len(scorer.scores), "moves": moves_used,
                           "moves_evaluated": evaluated})


def reference_count_table(dataset, family, t0=None):
    """One family's transition counts, tallied with one ``bincount`` over its bank columns.

    Independent of the row bank and of the block counter it checks: the
    child is the least significant digit of a Horner index written out
    here, then the parents in family order.
    """
    arities = dataset.family_arities(family)
    child_arity = dataset.domain.x_arities[family.node]
    child, *cols = (dataset._column(*key) for key in dataset.family_keys(family, t0))
    flat, base = child.copy(), child_arity
    for col, a in zip(cols, arities):
        flat += col * base
        base *= a
    counts = np.bincount(flat, minlength=base).reshape(-1, child_arity)
    return CountTable(node=family.node, family=family, arities=arities,
                      child_arity=child_arity, counts=counts)


def discrete_family_score(dataset, node, parents, kind, prior=None):
    """One discrete family's count-based score, from its own count table.

    The per-family path that ``family_score`` took before every family was
    counted in blocks: :func:`reference_count_table`, then
    :func:`bde_family_score` or the plug-in log-likelihood ``sum N log(N /
    N_xi)``, then the information criterion with ``k = n_configs (arity -
    1)`` free parameters.
    """
    family = FamilySpec(node=node, parents=canonical_parents(parents))
    counts = reference_count_table(dataset, family)
    if kind == "bde":
        return bde_family_score(counts, prior)
    c = counts.counts.astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(c > 0, c / np.maximum(c.sum(axis=1), 1.0)[:, None], 1.0)
    loglik = float(np.sum(c * np.log(ratio)))
    if kind == "ll":
        return loglik
    k = n_configurations(counts.arities) * (counts.child_arity - 1)
    return -information_criterion(loglik, k, dataset.usable_transitions(family), kind)


def brute_force_best_score(dataset, kind, max_intra=2, max_inter=2, max_auto=1,
                           max_static=1, p=1, prior=None, hyper=None):
    """Exhaustive optimum of the decomposable score over intra DAGs.

    Enumerates every intra DAG; conditionally on each node's intra
    parents the inter/auto/static subsets decouple, so each node takes
    its best completion independently.
    """
    n = dataset.n_x
    completion: list[dict] = []
    for i in range(n):
        inter_sets = class_subsets([Parent("inter", j) for j in range(n) if j != i], max_inter)
        auto_sets = class_subsets([Parent("auto", t) for t in range(1, p + 1)], max_auto)
        static_sets = class_subsets([Parent("static", j) for j in range(dataset.n_z)], max_static)
        table = {}
        for intra in class_subsets([Parent("intra", j) for j in range(n) if j != i], max_intra):
            best = -math.inf
            for inter in inter_sets:
                for auto in auto_sets:
                    for stat in static_sets:
                        value = family_score(dataset, i, inter + intra + auto + stat,
                                             kind, prior=prior, hyper=hyper)
                        if value > best:
                            best = value
            table[frozenset(q.index for q in intra)] = best
        completion.append(table)

    best_total = -math.inf
    for support in all_intra_dags(n):
        total = 0.0
        feasible = True
        for i in range(n):
            parents = frozenset(int(j) for j in np.flatnonzero(support[:, i]))
            if parents not in completion[i]:
                feasible = False
                break
            total += completion[i][parents]
        if feasible and total > best_total:
            best_total = total
    return best_total


# ---------------------------------------------------------------------------
# Normal-Wishart marginal-likelihood oracles (Gauss-Legendre tensor grids)


def _gl_nodes(a, b, n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (b + a), 0.5 * (b - a) * w


def nw_marginal_oracle_1d(xs, alpha_mu, alpha_w, t_prec=1.0, nu=0.0,
                          n_mu=160, n_w=160, w_hi=50.0) -> float:
    """log integral of prod N(x | mu, 1/w) under the normal-Wishart prior.

    Direct 2-d quadrature over (mu, w); the scalar Wishart is the Gamma
    distribution with shape alpha_w / 2 and rate t_prec / 2.
    """
    xs = np.asarray(xs, dtype=float)
    m = xs.size
    mu_center = xs.mean()
    mus, q_mu = _gl_nodes(mu_center - 12.0 / math.sqrt(m), mu_center + 12.0 / math.sqrt(m), n_mu)
    ws, q_w = _gl_nodes(1e-8, w_hi, n_w)
    mu_grid, w_grid = np.meshgrid(mus, ws, indexing="ij")
    loglike = -0.5 * m * np.log(2 * np.pi / w_grid) \
        - 0.5 * w_grid * ((xs[None, None, :] - mu_grid[..., None]) ** 2).sum(-1)
    logprior_mu = 0.5 * np.log(alpha_mu * w_grid / (2 * np.pi)) \
        - 0.5 * alpha_mu * w_grid * (mu_grid - nu) ** 2
    logprior_w = stats.gamma.logpdf(w_grid, a=alpha_w / 2.0, scale=2.0 / t_prec)
    value = np.einsum("i,j,ij->", q_mu, q_w, np.exp(loglike + logprior_mu + logprior_w))
    return math.log(value)


def nw_marginal_oracle_2d(rows, alpha_mu, alpha_w, t_prec=None, nu=None,
                          n_nodes=72, w_hi=50.0) -> float:
    """log marginal of 2-column rows: analytic mean integral, quadrature over W.

    The precision matrix is parameterized as (w11, w22, r) with
    w12 = r sqrt(w11 w22); the Wishart density comes from scipy.
    """
    rows = np.asarray(rows, dtype=float)
    m, d = rows.shape
    assert d == 2
    t_prec = np.eye(2) if t_prec is None else t_prec
    nu = np.zeros(2) if nu is None else nu
    xbar = rows.mean(axis=0)
    scatter = (rows - xbar).T @ (rows - xbar)
    a_mat = scatter + (alpha_mu * m / (alpha_mu + m)) * np.outer(xbar - nu, xbar - nu)

    w11, q1 = _gl_nodes(1e-8, w_hi, n_nodes)
    w22, q2 = _gl_nodes(1e-8, w_hi, n_nodes)
    r, qr = _gl_nodes(-1 + 1e-10, 1 - 1e-10, n_nodes)
    g11, g22, gr = np.meshgrid(w11, w22, r, indexing="ij")
    g12 = gr * np.sqrt(g11 * g22)
    det = g11 * g22 - g12 ** 2
    loglike = (-0.5 * m * d * math.log(2 * math.pi) + 0.5 * m * np.log(det)
               + 0.5 * d * math.log(alpha_mu / (alpha_mu + m))
               - 0.5 * (g11 * a_mat[0, 0] + 2 * g12 * a_mat[0, 1] + g22 * a_mat[1, 1]))
    wish = stats.wishart(df=alpha_w, scale=np.linalg.inv(t_prec))
    stack = np.stack([np.stack([g11, g12], axis=-1),
                      np.stack([g12, g22], axis=-1)], axis=-2)
    logprior = wish.logpdf(np.moveaxis(stack.reshape(-1, 2, 2), 0, -1)).reshape(g11.shape)
    jacobian = np.sqrt(g11 * g22)
    value = np.einsum("i,j,k,ijk->", q1, q2, qr, np.exp(loglike + logprior) * jacobian)
    return math.log(value)


def raw_family_rows(ds, fam, start=None):
    """Rows ``(child, parents...)`` of every usable transition, read straight from ``x``/``z``.

    Targets run from ``start``, by default the family's first usable time.
    """
    if start is None:
        start = max([1, ds.burn_in + 1] + [p.index for p in fam.parents if p.kind == "auto"])
    rows = []
    for n in range(ds.N):
        for t in range(start, ds.T + 1):
            row = [ds.x[n, t, fam.node]]
            for p in fam.parents:
                row.append(ds.x[n, t - 1, p.index] if p.kind == "inter"
                           else ds.x[n, t, p.index] if p.kind == "intra"
                           else ds.x[n, t - p.index, fam.node] if p.kind == "auto"
                           else ds.z[n, p.index])
            rows.append(row)
    return np.array(rows, dtype=float).reshape(len(rows), 1 + len(fam.parents))


def row_least_squares(ds, fam):
    """``(beta0, beta, rss, m)``: the family's least-squares fit over its design matrix of raw rows.

    The design is a ones column beside the parent columns of
    :func:`raw_family_rows`; ``numpy.linalg.lstsq`` solves it (no normal
    equations), and the residuals are summed row by row.
    """
    rows = raw_family_rows(ds, fam)
    y, design = rows[:, 0], np.hstack([np.ones((rows.shape[0], 1)), rows[:, 1:]])
    coef = np.linalg.lstsq(design, y, rcond=None)[0]
    resid = y - design @ coef
    return coef[0], coef[1:], float(np.dot(resid, resid)), rows.shape[0]


def row_gaussian_loglik(ds, structure, params):
    """Log-likelihood of every usable transition under linear Gaussian kernels, residual by residual."""
    total = 0.0
    for i in range(structure.n_x):
        rows = raw_family_rows(ds, parents_of(structure, i))
        par = params[i]
        resid = rows[:, 0] - (par.beta0 + rows[:, 1:] @ par.beta)
        total += float(-0.5 * rows.shape[0] * math.log(2.0 * math.pi * par.sigma2)
                       - 0.5 * np.dot(resid, resid) / par.sigma2)
    return total


# ---------------------------------------------------------------------------
# DYNOTEARS' smooth objective in residual form


def sem_rows(dataset, max_lag):
    """``(Y, L)``: each usable target slice and its lags 1..``max_lag`` side by side, row by row.

    Targets run from ``max(max_lag, burn_in + 1)`` to ``T`` in every
    trajectory, read straight from ``x``.
    """
    ys, lags = [], []
    for traj in dataset.x:
        for t in range(max(max_lag, dataset.burn_in + 1), dataset.T + 1):
            ys.append(traj[t])
            lags.append(np.concatenate([traj[t - tau] for tau in range(1, max_lag + 1)]))
    return np.array(ys, dtype=float), np.array(lags, dtype=float)


def residual_smooth(dataset, max_lag, w, a, alpha, rho):
    """DYNOTEARS' smooth augmented Lagrangian from the M x n residual: value, loss, W and A gradients.

    ``loss = (1/2M)||Y - Y W - L A||_F^2``, ``h = tr exp(W o W) - n`` for
    a zero-diagonal ``W``, value ``loss + alpha h + rho h^2 / 2``.
    """
    y, lags = sem_rows(dataset, max_lag)
    m, n = y.shape
    resid = y - y @ w - lags @ a
    loss = 0.5 / m * float(np.sum(resid * resid))
    e = scipy.linalg.expm(w * w)
    h = float(np.trace(e)) - n
    gw = -(y.T @ resid) / m + (alpha + rho * h) * 2.0 * e.T * w
    ga = -(lags.T @ resid) / m
    return loss + alpha * h + 0.5 * rho * h * h, loss, gw, ga


def _reference_soft(x, t):
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def _reference_sem_smooth(gram, m, w, a, alpha, rho):
    """The Gram-form smooth value, loss, W and A gradients and h, over separate W and A."""
    n = w.shape[0]
    b = np.vstack((np.eye(n) - w, -a))
    gb = gram @ b
    loss = 0.5 / m * float(np.sum(b * gb))
    h, h_grad = h_expm_and_grad(w)
    value = loss + alpha * h + 0.5 * rho * h * h
    gw = -gb[:n] / m + (alpha + rho * h) * h_grad
    ga = -gb[n:] / m
    return value, loss, gw, ga, h


def reference_continuous_oneshot(dataset, config=None):
    """DYNOTEARS' solve over separate W and A, with a gradient for every trial.

    The loop :func:`dbnlearn.learn.continuous_oneshot` steps on one stacked
    parameter must reproduce bit for bit: trace, weights, structure, flags
    and the counts of evaluations (``smooth_calls``) and accepted steps
    (``iterations``), which this loop counts as it goes.  Only the loop is
    the reference: the Gram matrix, the structure and the report come from
    the library's own ``_sem_gram``, ``_sem_structure`` and ``_finish``.
    """
    t_start = time.perf_counter()
    config = config or ContinuousConfig()
    n = dataset.n_x
    gram, m = _sem_gram(dataset, config.max_lag)

    w = np.zeros((n, n))
    a = np.zeros((n * config.max_lag, n))
    alpha, rho = 0.0, config.rho0
    trace = []
    converged = False
    calls = iterations = 0

    def penalty(wm, am):
        return config.lambda_w * float(np.abs(wm).sum()) + config.lambda_a * float(np.abs(am).sum())

    step = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for outer in range(config.max_outer):
            value, loss, gw, ga, h = _reference_sem_smooth(gram, m, w, a, alpha, rho)
            calls += 1
            inner_objectives = [value + penalty(w, a)]
            for _ in range(config.max_inner):
                while True:
                    w_new = _reference_soft(w - step * gw, step * config.lambda_w)
                    np.fill_diagonal(w_new, 0.0)
                    a_new = _reference_soft(a - step * ga, step * config.lambda_a)
                    val_new, loss_new, gw_new, ga_new, h_new = _reference_sem_smooth(
                        gram, m, w_new, a_new, alpha, rho)
                    calls += 1
                    dw, da = w_new - w, a_new - a
                    quad = value + float(np.sum(gw * dw) + np.sum(ga * da)) \
                        + 0.5 / step * (float(np.sum(dw * dw)) + float(np.sum(da * da)))
                    if np.isfinite(val_new) and val_new <= quad + 1e-15:
                        break
                    if step < 1e-14:
                        if not np.isfinite(val_new):
                            raise OptimizerError(
                                f"inner solve diverged at outer {outer}; trace: {trace}")
                        break
                    step *= 0.5
                move = max(float(np.abs(dw).max(initial=0.0)), float(np.abs(da).max(initial=0.0)))
                w, a, value, loss, gw, ga, h = w_new, a_new, val_new, loss_new, gw_new, ga_new, h_new
                iterations += 1
                step = min(step * 2.0, 1e6)
                inner_objectives.append(value + penalty(w, a))
                if move < config.inner_tol:
                    break
            entry = {"outer": outer, "objective": loss + penalty(w, a), "h": h, "rho": rho}
            if config.record_inner:
                entry["inner_objectives"] = inner_objectives
            trace.append(entry)
            if h < config.h_tol:
                converged = True
                break
            if rho * config.rho_growth > _RHO_MAX:
                break
            alpha += rho * h
            rho *= config.rho_growth

    support = threshold_and_repair(w, config.w_threshold)
    structure = _sem_structure(dataset.n_z, support, a, config.w_threshold)
    return _finish(
        "dynotears", dataset, structure, FamilyScorer(dataset, "ll"), t_start, config.seed,
        tuple(trace), flags={"converged": converged},
        extras={"w": np.where(support, w, 0.0), "a": a,
                "objective": trace[-1]["objective"], "h": trace[-1]["h"],
                "smooth_calls": calls, "iterations": iterations})


# ---------------------------------------------------------------------------
# Bounded one-shot objective on one fixed support (brute force over signs)


def lag1_design(dataset):
    """``(Y, X_prev)``: every usable lag-1 transition, stacked row-wise."""
    ts = np.arange(max(1, dataset.burn_in + 1), dataset.T + 1)
    y = dataset.x[:, ts, :].reshape(-1, dataset.n_x)
    x_prev = dataset.x[:, ts - 1, :].reshape(-1, dataset.n_x)
    return y, x_prev


def lag1_mask(structure):
    """Lag-1 support ``X_prev_j -> Y_i``: inter edges plus auto lags on the diagonal."""
    mask = np.array(structure.inter, dtype=bool)
    for i, lags in enumerate(structure.auto_lags):
        mask[i, i] = 1 in lags
    return mask


def bounded_support_objective(y, x_prev, intra_mask, lag_mask, config) -> float:
    """Sign-split bounded objective minimized over one fixed support.

    ``intra_mask[j, i]`` selects ``Y_j -> Y_i``; ``lag_mask[j, i]``
    selects ``X_prev_j -> Y_i``, with the auto lag on the diagonal.
    Each node enumerates every sign assignment of its active weights,
    solves the box-constrained least squares ``|w| >= b`` by BVLS (no
    unconstrained shortcut), and adds one L0 penalty per active weight
    from its sign class: ``lambda_w_pos`` / ``lambda_w_neg`` for intra,
    ``lambda_a_pos`` / ``lambda_a_neg`` for lagged weights.
    """
    n = y.shape[1]
    total = 0.0
    for i in range(n):
        intra_js = [int(j) for j in np.flatnonzero(intra_mask[:, i])]
        lag_js = [int(j) for j in np.flatnonzero(lag_mask[:, i])]
        target = y[:, i]
        if not intra_js and not lag_js:
            total += float(np.dot(target, target))
            continue
        design = np.column_stack([y[:, j] for j in intra_js] + [x_prev[:, j] for j in lag_js])
        bound = np.array([config.b_w] * len(intra_js) + [config.b_a] * len(lag_js))
        best = math.inf
        for signs in itertools.product((1.0, -1.0), repeat=design.shape[1]):
            positive = np.asarray(signs) > 0
            lo = np.where(positive, bound, -np.inf)
            hi = np.where(positive, np.inf, -bound)
            sol = optimize.lsq_linear(design, target, bounds=(lo, hi), method="bvls")
            resid = target - design @ sol.x
            pen = sum(config.lambda_w_pos if s > 0 else config.lambda_w_neg
                      for s in signs[:len(intra_js)])
            pen += sum(config.lambda_a_pos if s > 0 else config.lambda_a_neg
                       for s in signs[len(intra_js):])
            best = min(best, float(np.dot(resid, resid)) + pen)
        total += best
    return total


def price_support_unpruned(target: np.ndarray, cols: list, n_intra: int,
                           config: BoundedConfig, rows: int = 0) -> tuple[float, np.ndarray]:
    """Min over sign patterns of SSE + sign-class L0 penalties on one support.

    ``cols`` holds the support's intra columns, then its lagged ones.  Each
    sign pattern is a bound-constrained least squares (weights at least
    ``b_w`` / ``b_a`` in magnitude with that sign) priced with one penalty
    per weight from its sign class.  Only when the penalties do not depend
    on the sign does an unconstrained optimum clearing every bound settle
    the support without enumerating patterns.  Returns the cost and the
    weights in ``cols`` order.

    ``dbnlearn.learn._price_support`` before its sign patterns and supports
    were pruned, kept as the reference that the pruned one must match.
    ``rows`` is the data's row count when ``target`` and ``cols`` are
    columns of a triangular factor; the unconstrained fit's rank threshold
    is then ``eps * max(rows, k)``.
    """
    if not cols:
        return float(np.dot(target, target)), np.empty(0)
    design = np.column_stack(cols)
    k = design.shape[1]
    req = np.array([config.b_w] * n_intra + [config.b_a] * (k - n_intra))
    pos = [config.lambda_w_pos] * n_intra + [config.lambda_a_pos] * (k - n_intra)
    neg = [config.lambda_w_neg] * n_intra + [config.lambda_a_neg] * (k - n_intra)

    def cost(weights):
        resid = target - design @ weights
        return float(np.dot(resid, resid)) + sum(
            p if w > 0 else q for w, p, q in zip(weights, pos, neg))

    if config.lambda_w_pos == config.lambda_w_neg and config.lambda_a_pos == config.lambda_a_neg:
        rcond = np.finfo(float).eps * max(len(target), rows, k)
        beta, *_ = np.linalg.lstsq(design, target, rcond=rcond)
        if np.all(np.abs(beta) >= req):
            return cost(beta), beta
    best = None
    for signs in itertools.product((1.0, -1.0), repeat=k):
        lo = np.where(np.asarray(signs) > 0, req, -np.inf)
        hi = np.where(np.asarray(signs) > 0, np.inf, -req)
        sol = scipy.optimize.lsq_linear(design, target, bounds=(lo, hi), method="bvls")
        value = cost(sol.x)
        if best is None or value < best[0]:
            best = (value, sol.x)
    return best


def bounded_tables_unpruned(y, x_prev, config, deadline, tally, rows=0):
    """``dbnlearn.learn._bounded_tables`` before pruning: every support priced in full.

    Takes the learner's arguments so a test can substitute it; ``tally`` is
    left untouched.
    """
    n = y.shape[1]
    tables = []  # per node: {intra parent bitmask -> (-cost, intra_js, inter_js, weights)}
    for i in range(n):
        table = {}
        for intra_js in class_subsets([j for j in range(n) if j != i], n - 1):
            deadline.check()
            best = None
            for inter_js in class_subsets(range(n), n):
                cols = [y[:, j] for j in intra_js] + [x_prev[:, j] for j in inter_js]
                cost, weights = price_support_unpruned(y[:, i], cols, len(intra_js), config, rows)
                if best is None or -cost > best[0]:
                    best = (-cost, intra_js, inter_js, weights)
            table[sum(1 << j for j in intra_js)] = best
        tables.append(table)
    return tables


# ---------------------------------------------------------------------------
# Trajectory sampler, one draw per (trajectory, t, node)


def sample_trajectories_loop(structure, params, n_traj, horizon, seed, x_arities, z_arities):
    """``(x, z)`` of ``sample_trajectories``, drawn one value at a time.

    The sampler's scalar loop written out: each trajectory's substream
    gives its statics and initial slice, then one uniform (discrete) or
    one standard normal (linear Gaussian) per (t, node) in
    :func:`reference_topological_order`.  Kernel probabilities and means
    use the scalar formulas with ``np.dot``, not the library's kernel
    methods.  ``x_arities`` and ``z_arities`` are ``None`` for a
    continuous model.
    """
    continuous = isinstance(params[0], LinearGaussian)
    families = [parents_of(structure, i) for i in range(structure.n_x)]
    order = reference_topological_order(structure.intra)
    dtype = np.float64 if continuous else np.int64
    x = np.empty((n_traj, horizon + 1, structure.n_x), dtype=dtype)
    z = np.empty((n_traj, structure.n_z), dtype=dtype)
    for n in range(n_traj):
        rng = substream(seed, "traj", n)
        if continuous:
            z[n] = rng.standard_normal(structure.n_z)
            x[n, 0] = rng.standard_normal(structure.n_x)
        else:
            z[n] = [rng.integers(a) for a in z_arities] if structure.n_z else []
            x[n, 0] = [rng.integers(a) for a in x_arities]
        for t in range(1, horizon + 1):
            for i in order:
                fam = families[i]
                vals = []
                for p in fam.parents:
                    if p.kind == "inter":
                        vals.append(x[n, t - 1, p.index])
                    elif p.kind == "intra":
                        vals.append(x[n, t, p.index])
                    elif p.kind == "auto":
                        vals.append(x[n, max(t - p.index, 0), i])
                    else:
                        vals.append(z[n, p.index])
                x[n, t, i] = _draw_one(rng, params[i], fam, vals, x_arities, z_arities)
    return x, z


def _draw_one(rng, par, fam, vals, x_arities, z_arities):
    if isinstance(par, Cpt):
        idx = configuration_index([int(v) for v in vals], fam.arities(x_arities, z_arities))
        cdf = np.cumsum(par.table, axis=1)[idx]
        return int(np.searchsorted(cdf, rng.random(), side="right"))
    if isinstance(par, FactoredCpt):
        dyn = [int(v) for v, p in zip(vals, fam.parents) if p.kind != "static"]
        stat = [int(v) for v, p in zip(vals, fam.parents) if p.kind == "static"]
        d = par.table_dyn[configuration_index(dyn, (2,) * len(dyn))] if dyn else 1.0
        s = par.table_stat[configuration_index(stat, (2,) * len(stat))] if stat else 1.0
        return int(rng.random() < min(1.0, max(0.0, d * s)))
    if isinstance(par, NoisyOr):
        q = 1.0 - par.lam0
        for lam_l, v in zip(par.lam, vals):
            if v:
                q *= 1.0 - lam_l
        return int(rng.random() < 1.0 - q)
    s = par.beta0 + float(np.dot(par.beta, np.asarray(vals, dtype=float)))
    if isinstance(par, Logistic):
        if s >= 0:
            prob = 1.0 / (1.0 + np.exp(-s))
        else:
            e = np.exp(s)
            prob = e / (1.0 + e)
        return int(rng.random() < prob)
    return s + np.sqrt(par.sigma2) * rng.standard_normal()
