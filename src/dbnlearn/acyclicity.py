"""Smooth acyclicity functionals for one-shot structure learners.

Both functionals vanish exactly when the support of the weighted
same-slice adjacency ``W`` is acyclic (``W o W`` is then nilpotent and
all terms beyond the identity contribute nothing to the trace), and are
strictly positive otherwise because every matrix power of a nonnegative
matrix with a cycle has positive diagonal mass.

The matrix exponential is evaluated with scipy's scaling-and-squaring
Pade implementation; it is a pure function of its input, so repeated
runs reproduce scores to the last bit.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .core import ConfigError, DimensionError


def _square_zero_diag(w) -> np.ndarray:
    a = np.asarray(w, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"weight matrix must be square, got shape {a.shape}")
    a = a.copy()
    np.fill_diagonal(a, 0.0)
    return a


def h_expm_and_grad(w: np.ndarray) -> tuple[float, np.ndarray]:
    """:func:`h_expm` and :func:`h_expm_grad` from one matrix exponential."""
    a = _square_zero_diag(w)
    e = scipy.linalg.expm(a * a)
    return float(np.trace(e) - a.shape[0]), 2.0 * e.T * a


def h_expm(w: np.ndarray) -> float:
    """tr exp(W o W) - d; zero iff the support of W is acyclic, else > 0."""
    return h_expm_and_grad(w)[0]


def h_expm_grad(w: np.ndarray) -> np.ndarray:
    """Gradient of :func:`h_expm`: 2 * exp(W o W)^T o W."""
    return h_expm_and_grad(w)[1]


def h_poly(w: np.ndarray, mu: float) -> tuple[float, np.ndarray]:
    """tr((I + mu * W o W)^d) - d and its gradient 2 mu d ((I + mu W o W)^{d-1})^T o W.

    Shares the zero-iff-acyclic-support property of :func:`h_expm` for
    every mu > 0: all entries of I + mu*(W o W) are nonnegative, so no
    cancellation can hide a cycle.
    """
    if not mu > 0:
        raise ConfigError("mu must be positive")
    a = _square_zero_diag(w)
    d = a.shape[0]
    m = np.eye(d) + mu * (a * a)
    m_pow = np.linalg.matrix_power(m, d - 1) if d >= 1 else np.eye(d)
    value = float(np.trace(m_pow @ m) - d)
    grad = 2.0 * mu * d * m_pow.T * a
    return value, grad


def threshold_and_repair(w: np.ndarray, w_threshold: float) -> np.ndarray:
    """Boolean same-slice adjacency: threshold small weights, then break cycles.

    Entries with ``|w| < w_threshold`` are dropped; while a cycle remains,
    the smallest-magnitude edge lying on some cycle is removed (ties by
    (row, col) order).  The result always passes ``is_acyclic``.
    """
    if w_threshold < 0:
        raise ConfigError("threshold must be >= 0")
    a = _square_zero_diag(w)
    support = np.abs(a) >= max(w_threshold, np.finfo(float).tiny)
    # a node reaching itself lies on a cycle
    while np.any(np.diag(reach := _reachability(support))):
        best = None
        n = a.shape[0]
        for j in range(n):
            for i in range(n):
                # edge j->i lies on a cycle iff i reaches back to j
                if support[j, i] and reach[i, j]:
                    key = (abs(a[j, i]), j, i)
                    if best is None or key < best:
                        best = key
        _, j, i = best
        support[j, i] = False
    return support


def _reachability(adj: np.ndarray) -> np.ndarray:
    """reach[u, v] = True iff a directed path u -> ... -> v exists (length >= 1)."""
    n = adj.shape[0]
    reach = adj.astype(bool).copy()
    for k in range(n):
        reach |= reach[:, k][:, None] & reach[k, :][None, :]
    return reach
