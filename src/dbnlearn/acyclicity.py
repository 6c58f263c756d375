"""Smooth acyclicity functional for one-shot structure learners.

``h(W) = tr exp(W o W) - d`` vanishes exactly when the support of the
weighted same-slice adjacency ``W`` is acyclic (``W o W`` is then
nilpotent and all terms beyond the identity contribute nothing to the
trace), and is strictly positive otherwise because every matrix power of
a nonnegative matrix with a cycle has positive diagonal mass.

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
    """``h(W)`` and its gradient ``2 exp(W o W)^T o W`` (diagonal of ``W`` ignored), from one expm."""
    a = _square_zero_diag(w)
    e = scipy.linalg.expm(a * a)
    return float(np.trace(e) - a.shape[0]), 2.0 * e.T * a


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
