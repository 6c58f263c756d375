"""The benchmark's own computations of what every learner output must be.

Nothing here imports ``dbnlearn``: each value a cell reports is
recomputed from the raw arrays with numpy and scipy, so a fault in a
shared helper of the program cannot hide behind an identical fault in
its checker.  Structures and parameters are read by duck typing
(``intra``, ``inter``, ``auto_lags``, ``static_edges``; ``table`` or
``beta0``/``beta``/``sigma2``).

Every equality is checked to the relative tolerance ``REL_TOL``.  A
failed check raises :class:`CheckFailure` naming what differed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

REL_TOL = 1e-9
SIGMA2_FLOOR = 1e-300  # the program's floor on a fitted noise variance


class CheckFailure(Exception):
    """A learner output disagrees with the benchmark's own computation."""


def require(condition: bool, message: str):
    if not condition:
        raise CheckFailure(message)


def require_close(what: str, got: float, want: float, tol: float = REL_TOL):
    """``got`` equals ``want`` to ``tol`` relative to the larger magnitude."""
    require(math.isfinite(got) and math.isfinite(want)
            and abs(got - want) <= tol * max(abs(got), abs(want)),
            f"{what}: reported {got!r}, recomputed {want!r} (relative tolerance {tol:g})")


def require_no_lower(what: str, value: float, floor: float, tol: float = REL_TOL):
    """``value >= floor`` up to ``tol`` relative rounding in the recomputation."""
    require(value >= floor - tol * abs(floor),
            f"{what}: {value!r} is below {floor!r} (relative tolerance {tol:g})")


# ---------------------------------------------------------------------------
# Graphs


def topological_order(adj) -> list[int] | None:
    """Kahn's algorithm on ``adj[j, i] != 0  <=>  j -> i``; None when cyclic."""
    a = np.asarray(adj, dtype=bool)
    indeg = a.sum(axis=0).astype(int)
    ready = [i for i in range(a.shape[0]) if indeg[i] == 0]
    order = []
    while ready:
        v = ready.pop()
        order.append(v)
        for w in np.flatnonzero(a[v]):
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(int(w))
    return order if len(order) == a.shape[0] else None


def require_acyclic(intra):
    require(not np.any(np.diag(np.asarray(intra, dtype=bool))), "intra graph has a self loop")
    require(topological_order(intra) is not None, "intra graph has a directed cycle")


def families(structure) -> list[list[tuple[str, int]]]:
    """Per node, its parents as (kind, index) in the program's documented order.

    That order -- inter, intra, auto, static, each ascending -- is the
    row layout of the generating CPTs and the weight order of linear
    Gaussian kernels.  An inter self edge is the same dependence as auto
    lag 1 and is listed as such.
    """
    intra = np.asarray(structure.intra, dtype=bool)
    inter = np.asarray(structure.inter, dtype=bool)
    static = np.asarray(structure.static_edges, dtype=bool)
    out = []
    for i in range(intra.shape[0]):
        lags = set(structure.auto_lags[i]) | ({1} if inter[i, i] else set())
        out.append([("inter", j) for j in range(inter.shape[0]) if inter[j, i] and j != i]
                   + [("intra", j) for j in range(intra.shape[0]) if intra[j, i]]
                   + [("auto", t) for t in sorted(lags)]
                   + [("static", j) for j in range(static.shape[0]) if static[j, i]])
    return out


def require_parent_caps(structure, max_intra: int, max_inter: int, max_auto: int,
                        max_static: int, p: int):
    caps = {"intra": max_intra, "inter": max_inter, "auto": max_auto, "static": max_static}
    for node, parents in enumerate(families(structure)):
        for kind, cap in caps.items():
            have = sum(1 for k, _ in parents if k == kind)
            require(have <= cap, f"node {node} has {have} {kind} parents, cap is {cap}")
        require(all(t <= p for k, t in parents if k == "auto"),
                f"node {node} has an auto lag beyond {p}")


def edge_set(structure) -> set[tuple[str, int, int]]:
    edges = set()
    for node, parents in enumerate(families(structure)):
        for kind, j in parents:
            edges.add((kind, node, j) if kind == "auto" else (kind, j, node))
    return edges


def shd(predicted, truth) -> int:
    """Edges present in exactly one of the two graphs (a reversal counts 2)."""
    return len(edge_set(predicted) ^ edge_set(truth))


def edge_universe(n_x: int, n_z: int, p: int) -> list[tuple[str, int, int]]:
    pairs = [(j, i) for j in range(n_x) for i in range(n_x) if j != i]
    return ([("intra", j, i) for j, i in pairs] + [("inter", j, i) for j, i in pairs]
            + [("auto", i, t) for i in range(n_x) for t in range(1, p + 1)]
            + [("static", j, i) for j in range(n_z) for i in range(n_x)])


def edge_scores(universe, structure, w=None, a=None) -> np.ndarray:
    """|weight| per edge when a weighted learner gave weights, else 0/1 presence."""
    if w is None or a is None:
        present = edge_set(structure)
        return np.array([1.0 if e in present else 0.0 for e in universe])
    w, a = np.abs(np.asarray(w, dtype=float)), np.abs(np.asarray(a, dtype=float))
    n = w.shape[0]
    out = []
    for kind, u, v in universe:
        if kind == "intra":
            out.append(w[u, v])
        elif kind == "inter":
            out.append(a[u, v])
        elif kind == "auto" and a.shape[0] >= v * n:
            out.append(a[(v - 1) * n + u, u])
        else:
            out.append(0.0)
    return np.array(out)


def mann_whitney_auc(scores, labels) -> float:
    """Share of (positive, negative) pairs ranked correctly, ties counting 1/2."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=bool)
    pos, neg = s[y][:, None], s[~y][None, :]
    require(pos.size > 0 and neg.size > 0, "AUROC needs both true edges and non-edges")
    wins = np.count_nonzero(pos > neg) + 0.5 * np.count_nonzero(pos == neg)
    return float(wins / (pos.size * neg.size))


# ---------------------------------------------------------------------------
# Rows of one family


def first_target(parents) -> int:
    """Earliest target time at which every parent is observed."""
    return max([1] + [t for k, t in parents if k == "auto"])


def family_rows(x, z, node: int, parents, t_lo: int, t_hi: int):
    """Child values and parent columns for targets ``t_lo..t_hi`` of every trajectory."""
    ts = np.arange(t_lo, t_hi + 1)
    child = x[:, ts, node].reshape(-1)
    cols = []
    for kind, j in parents:
        if kind == "inter":
            cols.append(x[:, ts - 1, j])
        elif kind == "intra":
            cols.append(x[:, ts, j])
        elif kind == "auto":
            cols.append(x[:, ts - j, node])
        else:
            cols.append(np.repeat(z[:, j][:, None], ts.size, axis=1))
    design = np.column_stack([c.reshape(-1) for c in cols]) if cols \
        else np.empty((child.size, 0), dtype=x.dtype)
    return child, design


def parent_arities(node, parents, x_arities, z_arities) -> list[int]:
    return [z_arities[j] if k == "static" else x_arities[node if k == "auto" else j]
            for k, j in parents]


def config_codes(design, arities) -> np.ndarray:
    """Mixed-radix code of each parent configuration, first parent least significant."""
    code = np.zeros(design.shape[0], dtype=np.int64)
    base = 1
    for col, arity in zip(design.T, arities):
        code += col.astype(np.int64) * base
        base *= arity
    return code


# ---------------------------------------------------------------------------
# Family scores on a window of targets


def bde_family(child, design, arities, r: int, ess: float = 1.0) -> float:
    """Log Dirichlet-multinomial marginal, ``ess`` spread uniformly over every cell."""
    q = math.prod(arities)
    a = ess / (q * r)
    codes = config_codes(design, arities)
    n_jk = np.unique(codes * r + child, return_counts=True)[1].astype(float)
    n_j = np.unique(codes, return_counts=True)[1].astype(float)
    return float(np.sum(gammaln(r * a) - gammaln(r * a + n_j))
                 + np.sum(gammaln(a + n_jk) - gammaln(a)))


def bic_family(child, design, arities, r: int) -> float:
    """``2 log L - k ln m``: the negated BIC criterion at the count-ratio optimum."""
    q = math.prod(arities)
    cells, n_jk = np.unique(config_codes(design, arities) * r + child, return_counts=True)
    _, config_of_cell = np.unique(cells // r, return_inverse=True)
    n_j = np.bincount(config_of_cell, weights=n_jk)
    loglik = float(np.sum(n_jk * np.log(n_jk / n_j[config_of_cell])))
    return 2.0 * loglik - q * (r - 1) * math.log(max(child.size, 1))


def _log_wishart_norm(d: int, alpha: float) -> float:
    return -(alpha * d / 2.0 * math.log(2.0) + d * (d - 1) / 4.0 * math.log(math.pi)
             + sum(math.lgamma((alpha + 1 - i) / 2.0) for i in range(1, d + 1)))


def _log_nw(rows, alpha_mu: float, alpha_w: float) -> float:
    """Normal-Wishart marginal of exchangeable rows, identity precision, zero mean."""
    m, d = rows.shape
    if m == 0 or d == 0:
        return 0.0
    mean = rows.mean(axis=0)
    centred = rows - mean
    r = np.eye(d) + centred.T @ centred + (alpha_mu * m / (alpha_mu + m)) * np.outer(mean, mean)
    sign, logdet = np.linalg.slogdet(r)
    require(sign > 0, "BGe posterior precision is not positive definite")
    return (-0.5 * m * d * math.log(2.0 * math.pi)
            + 0.5 * d * math.log(alpha_mu / (alpha_mu + m))
            + _log_wishart_norm(d, alpha_w) - _log_wishart_norm(d, alpha_w + m)
            - 0.5 * (alpha_w + m) * logdet)


def bge_family(child, design, alpha_mu: float = 1.0) -> float:
    """Joint minus parent normal-Wishart marginal, ``alpha_w = d + 2`` for both."""
    rows = np.column_stack([child, design]).astype(float)
    alpha_w = rows.shape[1] + 2.0
    return _log_nw(rows, alpha_mu, alpha_w) - (
        _log_nw(rows[:, 1:], alpha_mu, alpha_w) if design.shape[1] else 0.0)


def least_squares(child, design):
    """Intercept-plus-slopes fit; returns (coefficients, residual variance)."""
    m = child.size
    full = np.column_stack([np.ones(m), design])
    coef, *_ = np.linalg.lstsq(full, child, rcond=None)
    resid = child - full @ coef
    return coef, max(float(resid @ resid) / m, SIGMA2_FLOOR)


def gaussian_loglik(child, design, coef, sigma2: float) -> float:
    resid = child - np.column_stack([np.ones(child.size), design]) @ coef
    return float(-0.5 * child.size * math.log(2.0 * math.pi * sigma2)
                 - 0.5 * float(resid @ resid) / sigma2)


def ll_family(child, design) -> float:
    """Maximised linear Gaussian log-likelihood of one family."""
    coef, sigma2 = least_squares(child, design)
    return gaussian_loglik(child, design, coef, sigma2)


def structure_score(kind: str, structure, x, z, x_arities=None, z_arities=None) -> float:
    """Sum of family scores over every target each family can use in ``x``."""
    total = 0.0
    for node, parents in enumerate(families(structure)):
        t_lo = first_target(parents)
        if t_lo > x.shape[1] - 1:
            continue
        child, design = family_rows(x, z, node, parents, t_lo, x.shape[1] - 1)
        if kind in ("bde", "bic"):
            ar = parent_arities(node, parents, x_arities, z_arities)
            fn = bde_family if kind == "bde" else bic_family
            total += fn(child, design, ar, x_arities[node])
        elif kind == "bge":
            total += bge_family(child, design)
        elif kind == "ll":
            total += ll_family(child, design)
        else:
            raise ValueError(f"no own computation for score kind {kind!r}")
    return total


# ---------------------------------------------------------------------------
# Hold-out log-likelihood


def holdout_loglik(structure, x, z, s: int, x_arities=None, z_arities=None,
                   ess: float = 1.0) -> tuple[float, int]:
    """Refit on targets ``..s`` and score targets ``s+1..T``; returns (loglik, test rows).

    Discrete families use the Dirichlet posterior mean with ``ess``
    spread over every cell, so configurations unseen in training keep
    the uniform row; continuous families use least squares.
    """
    horizon = x.shape[1] - 1
    total, rows = 0.0, 0
    for node, parents in enumerate(families(structure)):
        t_lo = first_target(parents)
        require(t_lo <= s, f"node {node} has no training target before the split")
        t_test = max(t_lo, s + 1)
        if t_test > horizon:
            continue
        child_tr, design_tr = family_rows(x, z, node, parents, t_lo, s)
        child_te, design_te = family_rows(x, z, node, parents, t_test, horizon)
        rows = max(rows, child_te.size)
        if x_arities is not None:
            ar = parent_arities(node, parents, x_arities, z_arities)
            r = x_arities[node]
            q = math.prod(ar)
            a = ess / (q * r)
            cells = np.zeros(q * r)
            np.add.at(cells, config_codes(design_tr, ar) * r + child_tr, 1.0)
            cells = cells.reshape(q, r) + a
            probs = cells / cells.sum(axis=1, keepdims=True)
            total += float(np.sum(np.log(probs[config_codes(design_te, ar), child_te])))
        else:
            coef, sigma2 = least_squares(child_tr, design_tr)
            total += gaussian_loglik(child_te, design_te, coef, sigma2)
    return total, rows


def true_loglik(structure, params, x, z, t_lo: int, x_arities=None, z_arities=None) -> float:
    """Log-likelihood of targets ``t_lo..T`` under the generating parameters."""
    horizon = x.shape[1] - 1
    total = 0.0
    for node, parents in enumerate(families(structure)):
        child, design = family_rows(x, z, node, parents, max(t_lo, first_target(parents)), horizon)
        kernel = params.families[node]
        if hasattr(kernel, "table"):
            ar = parent_arities(node, parents, x_arities, z_arities)
            table = np.asarray(kernel.table, dtype=float)
            total += float(np.sum(np.log(table[config_codes(design, ar), child])))
        else:
            mean = kernel.beta0 + design @ np.asarray(kernel.beta, dtype=float)
            resid = child - mean
            total += float(-0.5 * child.size * math.log(2.0 * math.pi * kernel.sigma2)
                           - 0.5 * float(resid @ resid) / kernel.sigma2)
    return total


# ---------------------------------------------------------------------------
# Learner-specific properties


def require_monotone_trace(trace, final_score: float):
    """Hill-climb trace: within a restart the score never decreases; it ends at the report."""
    last = {}
    for entry in trace:
        r = entry["restart"]
        require(r not in last or entry["score"] >= last[r],
                f"hill trace decreases in restart {r} at step {entry['step']}")
        last[r] = entry["score"]
    require(bool(trace), "hill trace is empty")
    require_close("last hill trace score", trace[-1]["score"], final_score)


def sem_sse(x, w, a, t_lo: int = 1) -> float:
    """Summed squared residual of ``Y = Y W + Y_{t-1} A`` (no intercept), targets ``t_lo..T``."""
    ts = np.arange(t_lo, x.shape[1])
    y = x[:, ts, :].reshape(-1, x.shape[2])
    prev = x[:, ts - 1, :].reshape(-1, x.shape[2])
    resid = y - y @ np.asarray(w, dtype=float) - prev @ np.asarray(a, dtype=float)
    return float(np.sum(resid * resid))


def require_bounded_weights(w, a, b_w: float, b_a: float):
    w, a = np.asarray(w, dtype=float), np.asarray(a, dtype=float)
    for name, mat, b in (("intra", w, b_w), ("lag", a, b_a)):
        small = (mat != 0.0) & (np.abs(mat) < b)
        require(not np.any(small),
                f"{int(small.sum())} non-zero {name} weights below the bound {b}: "
                f"{mat[small][:3].tolist()}")
