"""Smooth acyclicity functional for one-shot structure learners.

``h(W) = tr exp(W o W) - d`` vanishes exactly when the support of the
weighted same-slice adjacency ``W`` is acyclic (``W o W`` is then
nilpotent and all terms beyond the identity contribute nothing to the
trace), and is strictly positive otherwise because every matrix power of
a nonnegative matrix with a cycle has positive diagonal mass.

The matrix exponential is evaluated with scipy's scaling-and-squaring
Pade implementation; it is a pure function of its input, so repeated
runs reproduce scores to the last bit.  Turning weights into a graph,
:func:`threshold_and_repair` reads the transitive closure of
:mod:`dbnlearn.core`, the package's one graph traversal.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .core import ConfigError, DimensionError, _reachability


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
    (row, col) order).  Edge ``j -> i`` lies on a cycle iff ``i`` reaches
    ``j`` in the transitive closure (:func:`dbnlearn.core._reachability`).
    The result always passes ``is_acyclic``.
    """
    if w_threshold < 0:
        raise ConfigError("threshold must be >= 0")
    a = _square_zero_diag(w)
    support = np.abs(a) >= max(w_threshold, np.finfo(float).tiny)
    # a node reaching itself lies on a cycle
    while np.any(np.diag(reach := _reachability(support))):
        js, is_ = np.nonzero(support & reach.T)
        # nonzero lists edges in (row, col) order and argmin keeps the first minimum
        k = int(np.argmin(np.abs(a[js, is_])))
        support[js[k], is_[k]] = False
    return support
