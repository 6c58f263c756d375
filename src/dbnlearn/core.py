"""Core domain types for dynamic Bayesian network learning.

A DBN here is a transition model over an ``n_x``-dimensional process
``X(t)`` with optional time-independent covariates ``Z``.  The structure
is a graph superset with four edge classes feeding each child ``X_i(t)``:

* ``inter``  -- lag-1 edges ``X_j(t-1) -> X_i(t)``,
* ``intra``  -- same-slice edges ``X_j(t) -> X_i(t)`` (must stay acyclic),
* ``auto``   -- self lags ``X_i(t-tau) -> X_i(t)`` for ``tau in {1..p}``,
* ``static`` -- covariate edges ``Z_j -> X_i(t)``.

A self lag-1 dependence can be spelled either as an inter self edge or
as auto lag 1 but never both at once; everything this package generates
uses the auto-lag spelling, and the metrics treat the two as the same
edge.  All types are immutable after construction and safe to share
across threads; the operations in this module are pure functions.  The
one piece of state, a :class:`TrajectoryDataset`'s banks, fills lazily
with deterministic functions of its own data: two threads filling the same
entry build equal values and the last write wins, the same rule as the
score cache in :mod:`dbnlearn.scoring`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np
from scipy.linalg.blas import daxpy

PARENT_KINDS = ("inter", "intra", "auto", "static")
_KIND_RANK = {kind: rank for rank, kind in enumerate(PARENT_KINDS)}


class DbnError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(DbnError, ValueError):
    """An unknown learner, score kind or hyperparameter, or a setting out of range.

    Also a :class:`ValueError`, so that ``except ValueError`` handlers keep
    catching it.
    """


class DimensionError(DbnError):
    """Array shapes inconsistent with the declared structure."""


class CycleError(DbnError):
    """A same-slice graph that must be acyclic contains a cycle."""

    def __init__(self, cycle: Sequence[int]):
        self.cycle = tuple(cycle)
        super().__init__(f"same-slice graph contains a cycle: {' -> '.join(map(str, self.cycle))}")


class DomainMismatchError(DbnError):
    """Operation applied to a dataset of the wrong value domain."""


class ModelError(DbnError):
    """Parameters inconsistent with the structure or data."""


class DataError(DbnError):
    """Dataset malformed or unusable for the requested operation."""


class SingularFitError(DataError):
    """A least-squares fit whose parents are rank deficient: one is affine in the ones before it."""


class SizeGuardError(DbnError):
    """Problem size exceeds a learner's safety guard."""


class OptimizerError(DbnError):
    """A numerical optimizer diverged or produced non-finite values."""


class UnderdeterminedError(DbnError):
    """Fewer usable rows than free parameters in a least-squares fit."""


class SplitError(DbnError):
    """A train/test split would leave one side empty."""


class Parent(NamedTuple):
    """One tagged parent of a family: ('inter'|'intra'|'static', j) or ('auto', tau)."""

    kind: str
    index: int

    def sort_key(self):
        rank = _KIND_RANK.get(self.kind)
        if rank is None:
            raise ModelError(f"unknown parent kind {self.kind!r}; expected one of {PARENT_KINDS}")
        return (rank, self.index)


def canonical_parents(parents: Iterable[Parent]) -> tuple[Parent, ...]:
    """Fixed global ordering: inter, intra, auto, static, each ascending."""
    return tuple(sorted(parents, key=Parent.sort_key))


@dataclass(frozen=True)
class FamilySpec:
    """A child node together with its ordered, tagged parent list.

    The parent order is the canonical one from :func:`canonical_parents`,
    so configuration indices are reproducible across runs.  Which
    transitions a family can be scored on is the dataset's drop rule
    (:meth:`TrajectoryDataset.first_usable_t`), from :attr:`min_time`.
    """

    node: int
    parents: tuple[Parent, ...]

    def __post_init__(self):
        if len(set(self.parents)) != len(self.parents):
            raise ModelError(f"duplicate parent tags in family of node {self.node}")
        if self.parents != canonical_parents(self.parents):
            raise ModelError("family parents must be in canonical order")

    @property
    def min_time(self) -> int:
        """Earliest slice time t whose transition has every parent observable."""
        lags = [p.index for p in self.parents if p.kind == "auto"]
        return max([1] + lags)

    def arities(self, x_arities: Sequence[int], z_arities: Sequence[int]) -> tuple[int, ...]:
        """Per-parent cardinalities, in family order."""
        out = []
        for p in self.parents:
            if p.kind == "static":
                out.append(int(z_arities[p.index]))
            elif p.kind == "auto":
                out.append(int(x_arities[self.node]))
            else:
                out.append(int(x_arities[p.index]))
        return tuple(out)


def _path_lengths(intra) -> np.ndarray:
    """``d[u, v]``: the edges on a shortest path ``u -> ... -> v`` of length >= 1, inf if none.

    Floyd-Warshall over ``intra[j, i] != 0  <=>  j -> i``, the package's
    one graph traversal: every cycle, order and move question reads it
    (through :func:`_reachability`).  ``d[v, v]`` is the length of a
    shortest cycle through ``v``, so a node lies on a cycle iff it is
    finite.
    """
    a = np.asarray(intra)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"adjacency must be square, got shape {a.shape}")
    d = np.where(a != 0, 1.0, np.inf)
    for k in range(a.shape[0]):
        np.minimum(d, d[:, k, None] + d[k], out=d)
    return d


def _reachability(intra) -> np.ndarray:
    """``reach[u, v]`` is True iff a directed path ``u -> ... -> v`` of length >= 1 exists."""
    return _path_lengths(intra) < np.inf


def _cycle(intra) -> list[int]:
    """A shortest cycle (first == last) through the smallest node that lies on a cycle.

    Read from the path lengths: each step goes to the smallest successor
    one edge closer to the start.  A self-loop is ``[v, v]``.
    """
    a = np.asarray(intra) != 0
    d = _path_lengths(a)
    v = int(np.argmax(np.diag(d) < np.inf))
    back = d[:, v].copy()
    back[v] = 0.0
    cycle = [v]
    for left in range(int(d[v, v]) - 1, -1, -1):
        cycle.append(int(np.argmax(a[cycle[-1]] & (back == left))))
    return cycle


def is_acyclic(intra: np.ndarray) -> bool:
    """True iff the directed graph ``intra[j, i] != 0  <=>  j -> i`` has no cycle."""
    return not np.diag(_reachability(intra)).any()


def topological_order(intra: np.ndarray) -> list[int]:
    """The smallest-index-first topological order of the same-slice graph.

    Each step places the smallest node none of whose ancestors is still
    unplaced: the order of Kahn's algorithm with a min-heap of ready
    nodes, which fixes the sampler's draw order.  Raises
    :class:`CycleError` naming a shortest cycle when the input is cyclic.
    """
    reach = _reachability(intra)
    if np.diag(reach).any():
        raise CycleError(_cycle(intra))
    unplaced = np.ones(reach.shape[0], dtype=bool)
    order = []
    for _ in range(reach.shape[0]):
        v = int(np.argmax(unplaced & ~(reach & unplaced[:, None]).any(axis=0)))
        order.append(v)
        unplaced[v] = False
    return order


def configuration_index(values: Sequence[int], arities: Sequence[int]) -> int:
    """Mixed-radix little-endian index of a parent configuration.

    The first value is the least significant digit, so
    ``values=(1, 2), arities=(2, 3) -> 1 + 2*2 = 5``.  A bijection from
    the configurations onto ``0 .. prod(arities) - 1``.
    """
    if len(values) != len(arities):
        raise DimensionError("values and arities must have the same length")
    idx = 0
    base = 1
    for v, a in zip(values, arities):
        v = int(v)
        if not 0 <= v < a:
            raise ConfigError(f"value {v} out of range for arity {a}")
        idx += v * base
        base *= int(a)
    return idx


def n_configurations(arities: Sequence[int]) -> int:
    total = 1
    for a in arities:
        total *= int(a)
    return total


def _as_bool_matrix(m, shape, name: str) -> np.ndarray:
    a = np.asarray(m, dtype=bool)
    if a.shape != shape:
        raise DimensionError(f"{name} must have shape {shape}, got {a.shape}")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class DbnStructure:
    """The graph superset of a DBN transition model.

    ``intra[j, i]`` and ``inter[j, i]`` mean ``j -> i``; ``static_edges``
    is ``n_z x n_x``.  ``auto_lags[i]`` is the sorted tuple of self lags of
    node ``i``.  Construction validates: acyclic intra with an empty
    diagonal, lags within ``{1..p}``, and no node carrying both an inter
    self edge and auto lag 1 (the same dependence twice).  Generators and
    learners in this package always emit self lag-1 dependence as auto
    lag 1; the inter diagonal is accepted on input as the equivalent
    spelling.
    """

    n_x: int
    n_z: int
    p: int
    intra: np.ndarray
    inter: np.ndarray
    auto_lags: tuple[tuple[int, ...], ...]
    static_edges: np.ndarray

    def __post_init__(self):
        if self.n_x < 1 or self.n_z < 0 or self.p < 1:
            raise DimensionError("need n_x >= 1, n_z >= 0, p >= 1")
        object.__setattr__(self, "intra", _as_bool_matrix(self.intra, (self.n_x, self.n_x), "intra"))
        object.__setattr__(self, "inter", _as_bool_matrix(self.inter, (self.n_x, self.n_x), "inter"))
        object.__setattr__(self, "static_edges", _as_bool_matrix(self.static_edges, (self.n_z, self.n_x), "static_edges"))
        lags = tuple(tuple(sorted(int(t) for t in ls)) for ls in self.auto_lags)
        if len(lags) != self.n_x:
            raise DimensionError(f"auto_lags must list all {self.n_x} nodes")
        for i, ls in enumerate(lags):
            if len(set(ls)) != len(ls):
                raise ModelError(f"duplicate auto lag for node {i}")
            for t in ls:
                if not 1 <= t <= self.p:
                    raise ModelError(f"auto lag {t} of node {i} outside 1..{self.p}")
            if self.inter[i, i] and 1 in ls:
                # one dependence, one representation: an inter self edge and an
                # auto lag of 1 would double count X_i(t-1)
                raise ModelError(
                    f"node {i} has both an inter self edge and auto lag 1")
        object.__setattr__(self, "auto_lags", lags)
        if not is_acyclic(self.intra):
            raise CycleError(_cycle(self.intra))

    @staticmethod
    def empty(n_x: int, n_z: int = 0, p: int = 1) -> "DbnStructure":
        return DbnStructure(
            n_x=n_x, n_z=n_z, p=p,
            intra=np.zeros((n_x, n_x), dtype=bool),
            inter=np.zeros((n_x, n_x), dtype=bool),
            auto_lags=tuple(() for _ in range(n_x)),
            static_edges=np.zeros((n_z, n_x), dtype=bool),
        )

    def max_lag(self) -> int:
        """Largest lag used anywhere (at least 1: inter edges look one step back)."""
        m = 1
        for ls in self.auto_lags:
            if ls:
                m = max(m, max(ls))
        return m

    def edge_count(self) -> int:
        return int(self.intra.sum() + self.inter.sum() + self.static_edges.sum()) + sum(len(ls) for ls in self.auto_lags)

    def replace(self, **kwargs) -> "DbnStructure":
        fields = dict(n_x=self.n_x, n_z=self.n_z, p=self.p, intra=self.intra,
                      inter=self.inter, auto_lags=self.auto_lags, static_edges=self.static_edges)
        fields.update(kwargs)
        return DbnStructure(**fields)

    def __eq__(self, other):
        if not isinstance(other, DbnStructure):
            return NotImplemented
        return (self.n_x, self.n_z, self.p) == (other.n_x, other.n_z, other.p) \
            and np.array_equal(self.intra, other.intra) \
            and np.array_equal(self.inter, other.inter) \
            and self.auto_lags == other.auto_lags \
            and np.array_equal(self.static_edges, other.static_edges)

    def __hash__(self):
        return hash((self.n_x, self.n_z, self.p, self.intra.tobytes(),
                     self.inter.tobytes(), self.auto_lags, self.static_edges.tobytes()))

    def to_json_dict(self) -> dict:
        """JSON form with stable field order; booleans as 0/1."""
        return {
            "n_x": self.n_x,
            "n_z": self.n_z,
            "p": self.p,
            "intra": self.intra.astype(int).tolist(),
            "inter": self.inter.astype(int).tolist(),
            "auto_lags": [list(ls) for ls in self.auto_lags],
            "static_edges": self.static_edges.astype(int).tolist(),
        }

    @staticmethod
    def from_json_dict(d: dict) -> "DbnStructure":
        return DbnStructure(
            n_x=int(d["n_x"]), n_z=int(d["n_z"]), p=int(d["p"]),
            intra=np.asarray(d["intra"], dtype=bool),
            inter=np.asarray(d["inter"], dtype=bool),
            auto_lags=tuple(tuple(int(t) for t in ls) for ls in d["auto_lags"]),
            static_edges=np.asarray(d["static_edges"], dtype=bool).reshape(int(d["n_z"]), int(d["n_x"])),
        )


def parents_of(structure: DbnStructure, node: int) -> FamilySpec:
    """The tagged parent family of ``X_node(t)`` in canonical order.

    The same structure always yields byte-identical orderings.
    """
    if not 0 <= node < structure.n_x:
        raise DimensionError(f"node {node} outside 0..{structure.n_x - 1}")
    parents = [Parent("inter", int(j)) for j in np.flatnonzero(structure.inter[:, node])]
    parents += [Parent("intra", int(j)) for j in np.flatnonzero(structure.intra[:, node])]
    parents += [Parent("auto", int(t)) for t in structure.auto_lags[node]]
    parents += [Parent("static", int(j)) for j in np.flatnonzero(structure.static_edges[:, node])]
    return FamilySpec(node=node, parents=canonical_parents(parents))


def structure_from_families(n_x: int, n_z: int, p: int,
                            families: Sequence[Sequence[Parent]]) -> DbnStructure:
    """The structure whose node ``v`` has the parents ``families[v]``.

    The inverse of :func:`parents_of`; parent order does not matter.
    """
    edges = {"inter": np.zeros((n_x, n_x), dtype=bool), "intra": np.zeros((n_x, n_x), dtype=bool),
             "static": np.zeros((n_z, n_x), dtype=bool)}
    for v, parents in enumerate(families):
        for par in parents:
            if par.kind != "auto":
                edges[par.kind][par.index, v] = True
    auto_lags = tuple(tuple(par.index for par in parents if par.kind == "auto")
                      for parents in families)
    return DbnStructure(n_x=n_x, n_z=n_z, p=p, intra=edges["intra"], inter=edges["inter"],
                        auto_lags=auto_lags, static_edges=edges["static"])


# ---------------------------------------------------------------------------
# Datasets


@dataclass(frozen=True)
class Domain:
    """Value domain of a dataset: discrete with per-variable arities, or continuous."""

    kind: str  # "discrete" | "continuous"
    x_arities: tuple[int, ...] = ()
    z_arities: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in ("discrete", "continuous"):
            raise DataError(f"unknown domain kind {self.kind!r}")
        if self.kind == "discrete":
            if any(a < 2 for a in self.x_arities) or any(a < 2 for a in self.z_arities):
                raise DataError("arities must be >= 2")

    @property
    def discrete(self) -> bool:
        return self.kind == "discrete"


def _source(node: int, par: Parent) -> tuple[int | None, int]:
    """(lag, variable) a parent of ``node`` reads; lag ``None`` names a static covariate."""
    if par.kind == "static":
        return None, par.index
    if par.kind == "auto":
        return par.index, node
    return (1 if par.kind == "inter" else 0), par.index


def _key_rank(key: tuple) -> tuple[int, int, int]:
    """Total order on bank keys: a static column (lag ``None``) ranks before lag 0."""
    t0, lag, j = key
    return t0, -1 if lag is None else lag, j


def _exact_sum(values: np.ndarray) -> float:
    """``math.fsum(values.tolist())``, bit for bit, by error-free extraction (Rump, Ogita & Oishi,
    SIAM J. Sci. Comput. 31(1), 2008): with ``2^k > n`` and ``sigma >= 2^(k+1) max|r|`` a power of
    two, ``q = (sigma + r) - sigma``, ``r - q`` and ``q.sum()`` are exact.  All-zero vectors (the
    zero's sign) and those whose ``sigma`` would pass ``2^1023`` go to ``math.fsum`` itself."""
    k, rest, levels = values.size.bit_length(), values, []
    while rest.size and (top := float(np.max(np.abs(rest)))) > 0.0:
        if not top < math.ldexp(1.0, 1022 - k):  # also an infinite entry
            return math.fsum(values.tolist())
        sigma = math.ldexp(1.0, math.frexp(top)[1] + k + 1)
        q = (sigma + rest) - sigma
        levels.append(float(q.sum()))
        rest = rest - q
    return math.fsum(levels) if levels else math.fsum(values.tolist())


@dataclass(frozen=True)
class TrajectoryDataset:
    """N trajectories of T+1 time slices over n_x dynamic and n_z static variables.

    ``x`` has shape (N, T+1, n_x) and ``z`` shape (N, n_z).  ``burn_in``
    marks leading transitions excluded from every count/likelihood (used
    by temporal hold-out to carry lag context without double scoring).

    A column bank is the only row source of scores and learners: every
    count, sum and one-shot regression reads it, directly
    (:meth:`bank_matrix`) or through the banks below, from the first target
    time of :meth:`first_usable_t`.  It holds one flat, read-only copy per
    (first target time, lag, variable), built on first use and kept for the
    dataset's lifetime, in the spirit of the cached sufficient statistics of
    Moore & Lee (JAIR 8, 1998).  Two more banks sit beside it, filled the
    same way.  The sum bank (:meth:`column_sum`) keeps one exact sum per
    column and per unordered pair of columns; their Gram matrices
    (:meth:`pair_sums`) are the one, row-order free statistic of the
    linear-Gaussian code: every family's moments (BGe, the fit, the held-out
    likelihood; centred, so they lose precision where means are large
    against spread) and DYNOTEARS' loss.  The row bank
    (:meth:`distinct_rows`) keeps the distinct rows of sets of discrete
    columns with their multiplicities, from which every discrete count is
    tallied.  All three are plain attributes, not fields, so equality and
    repr ignore them.  Every entry is a deterministic function of the data,
    so concurrent fills are benign: the last write stores the same value.
    """

    domain: Domain
    x: np.ndarray
    z: np.ndarray
    burn_in: int = 0

    def __post_init__(self):
        x = np.asarray(self.x)
        if x.ndim != 3:
            raise DimensionError(f"x must be (N, T+1, n_x), got shape {x.shape}")
        z = np.asarray(self.z)
        if z.ndim != 2 or z.shape[0] != x.shape[0]:
            raise DimensionError(f"z must be (N, n_z), got shape {z.shape}")
        if self.domain.discrete:
            x = x.astype(np.int64)
            z = z.astype(np.int64)
            if len(self.domain.x_arities) != x.shape[2] or len(self.domain.z_arities) != z.shape[1]:
                raise DimensionError("arity lists must match variable counts")
            for v, a in enumerate(self.domain.x_arities):
                col = x[:, :, v]
                if col.size and (col.min() < 0 or col.max() >= a):
                    raise DataError(f"dynamic variable {v} has values outside 0..{a - 1}")
            for v, a in enumerate(self.domain.z_arities):
                col = z[:, v]
                if col.size and (col.min() < 0 or col.max() >= a):
                    raise DataError(f"static variable {v} has values outside 0..{a - 1}")
        else:
            x = x.astype(np.float64)
            z = z.astype(np.float64)
            if not (np.all(np.isfinite(x)) and np.all(np.isfinite(z))):
                raise DataError("continuous dataset contains non-finite values")
        if not 0 <= self.burn_in <= x.shape[1] - 1:
            raise DataError(f"burn_in {self.burn_in} outside 0..{x.shape[1] - 1}")
        x.setflags(write=False)
        z.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "_bank", {})
        object.__setattr__(self, "_sums", {})
        object.__setattr__(self, "_rows", {})

    def __eq__(self, other):
        """Same domain, burn-in and data; the banks play no part."""
        if not isinstance(other, TrajectoryDataset):
            return NotImplemented
        return (self.domain == other.domain and self.burn_in == other.burn_in
                and np.array_equal(self.x, other.x) and np.array_equal(self.z, other.z))

    @property
    def N(self) -> int:
        return self.x.shape[0]

    @property
    def T(self) -> int:
        return self.x.shape[1] - 1

    @property
    def n_x(self) -> int:
        return self.x.shape[2]

    @property
    def n_z(self) -> int:
        return self.z.shape[1]

    def first_usable_t(self, family: FamilySpec | int) -> int:
        """Earliest target time countable for ``family``, or for rows reaching back that many slices."""
        lag = family if isinstance(family, int) else family.min_time
        return max(lag, self.burn_in + 1)

    def usable_transitions(self, family: FamilySpec) -> int:
        """Number of (trajectory, t) transitions countable for ``family``."""
        return self.N * max(0, self.T - self.first_usable_t(family) + 1)

    def _column(self, t0: int, lag: int | None, j: int) -> np.ndarray:
        """Bank column: ``x[:, t - lag, j]`` (``z[:, j]`` for ``lag=None``) over targets ``t0..T``."""
        key = (t0, lag, j)
        col = self._bank.get(key)
        if col is None:
            m = max(0, self.T + 1 - t0)
            if lag is None:
                col = np.repeat(self.z[:, j], m)
            else:
                col = np.ascontiguousarray(self.x[:, t0 - lag:t0 - lag + m, j]).reshape(-1)
            col.setflags(write=False)
            self._bank[key] = col
        return col

    def column_sum(self, a: tuple, b: tuple | None = None) -> float:
        """Exact sum of bank column ``a``, or of its elementwise product with column ``b``.

        ``a`` and ``b`` are bank keys from :meth:`family_keys`.  Each sum is
        ``math.fsum``'s correctly rounded one (:func:`_exact_sum`), computed
        on first use and kept; a pair is stored once, whatever its order.
        Sums that overflow a float raise :class:`DataError`.
        """
        if b is not None and _key_rank(b) < _key_rank(a):
            a, b = b, a
        key = a if b is None else (a, b)
        s = self._sums.get(key)
        if s is None:
            col = self._column(*a)
            try:
                with np.errstate(over="ignore"):
                    s = _exact_sum(col if b is None else col * self._column(*b))
            except (ValueError, OverflowError) as e:  # inf - inf, or an intermediate overflow
                raise DataError(f"column sums overflow a float: {e}") from e
            self._sums[key] = s
        return s

    def pair_sums(self, keys: Sequence[tuple]) -> np.ndarray:
        """Symmetric (d, d) matrix of the exact pair sums :meth:`column_sum` of ``keys``.

        Entry ``(j, k)`` is the sum of the elementwise product of bank
        columns ``keys[j]`` and ``keys[k]``: the Gram matrix ``Z^T Z`` of
        the rows those columns make, which no permutation of the rows
        changes.  Sums that overflow a float raise :class:`DataError`.
        """
        d = len(keys)
        out = np.empty((d, d))
        for j in range(d):
            for k in range(j, d):
                out[j, k] = out[k, j] = self.column_sum(keys[j], keys[k])
        if not np.all(np.isfinite(out)):
            raise DataError("column pair sums overflow a float")
        return out

    def family_keys(self, family: FamilySpec, t0: int | None = None) -> tuple[tuple, ...]:
        """Bank keys ``(t0, lag, variable)`` of the child, then of each parent.

        ``t0`` defaults to the family's first usable time.
        """
        t0 = self.first_usable_t(family) if t0 is None else t0
        if t0 < family.min_time:
            raise DataError(f"target time {t0} precedes the family's first observable time {family.min_time}")
        return ((t0, 0, family.node),
                *((t0, *_source(family.node, par)) for par in family.parents))

    def column_id(self, lag: int | None, j: int) -> int:
        """Row-bank id of bank column ``(lag, j)``: static ``j`` is ``j``, variable ``j`` at ``lag``
        is ``n_z + lag n_x + j``, so sorted ids put statics first, then lag 0, 1, ..."""
        return j if lag is None else self.n_z + lag * self.n_x + j

    def distinct_rows(self, t0: int, columns: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Kept column ids, distinct rows (int32, one array row per id) and multiplicities.

        ``columns`` holds sorted, distinct :meth:`column_id` ids of discrete
        bank columns at first target time ``t0``, at least one.  A kept
        compression whose ids cover ``columns`` is returned as it is, so its
        ids may be more than were asked for; else exactly ``columns`` are
        compressed (:meth:`_compress`) and kept, replacing the kept
        compressions they cover.  Multiplicities are floats, the weights of
        a ``bincount``.
        """
        kept = self._rows.get(t0, [])
        wanted = frozenset(columns.tolist())
        for covered, *hit in kept:
            if wanted <= covered:
                return tuple(hit)
        hit = (columns, *self._compress(t0, columns))
        # a new list, never one changed in place: a concurrent reader keeps a whole one
        self._rows[t0] = [entry for entry in kept if not entry[0] <= wanted] + [(wanted, *hit)]
        return hit

    def _compress(self, t0: int, columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Distinct rows (int32, one array row per column) and multiplicities of ``columns``.

        Each row is keyed by one Horner index over its columns, re-ranked
        with ``np.unique`` whenever the next digit would take the key space
        past ``2**62``; one more ``np.unique`` groups the keys, the first
        row of each standing for it.
        """
        keys = [(t0, None, c) if c < self.n_z else (t0, *divmod(c - self.n_z, self.n_x))
                for c in columns.tolist()]
        cols = [self._column(*key) for key in keys]
        key, space = np.zeros(cols[0].size, dtype=np.int64), 1
        for (_, lag, j), col in zip(keys, cols):
            arity = self.domain.z_arities[j] if lag is None else self.domain.x_arities[j]
            if space * arity > 1 << 62:
                distinct, key = np.unique(key, return_inverse=True)
                space = distinct.size
            key *= arity
            key += col
            space *= arity
        _, rows, counts = np.unique(key, return_index=True, return_counts=True)
        return np.stack([col[rows] for col in cols]).astype(np.int32), counts.astype(float)

    def bank_matrix(self, t0: int, sources: Sequence[tuple[int | None, int]]) -> np.ndarray:
        """Bank columns ``(t0, lag, j)`` for each ``(lag, j)`` in ``sources``, side by side.

        A fresh C-contiguous (M, len(sources)) copy.
        """
        out = np.empty((self.N * max(0, self.T + 1 - t0), len(sources)), dtype=self.x.dtype)
        for c, (lag, j) in enumerate(sources):
            out[:, c] = self._column(t0, lag, j)
        return out

    def family_arities(self, family: FamilySpec) -> tuple[int, ...]:
        if not self.domain.discrete:
            raise DomainMismatchError("family arities are defined for discrete datasets only")
        return family.arities(self.domain.x_arities, self.domain.z_arities)


# ---------------------------------------------------------------------------
# Per-node transition parameters


def _check_prob(v, what: str):
    arr = np.asarray(v, dtype=float)
    if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
        raise ModelError(f"{what} must lie in [0, 1]")
    return arr


def linear_predictor(beta0: float, beta: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``beta0 + beta . values[:, r]`` for every column ``r`` of a (parents, rows) array.

    Each row is one fused multiply-add chain over the parents in order,
    started from zero, with ``beta0`` added last (one BLAS ``daxpy`` per
    parent).  Below 16 parents this is the order of OpenBLAS's ``ddot``,
    so a row equals ``beta0 + np.dot(beta, values[:, r])`` bit for bit;
    a plain numpy sum or ``values.T @ beta`` rounds differently.  The
    kernels' scalar and row-wise forms both go through here, so a
    sampled trajectory does not depend on how many were drawn together.
    """
    beta = np.asarray(beta, dtype=float)
    if values.ndim != 2 or values.shape[0] != beta.size:
        raise DimensionError(
            f"{beta.size} weights need a ({beta.size}, rows) array of parent values, "
            f"got shape {values.shape}")
    acc = np.zeros(values.shape[1])
    if acc.size:  # BLAS refuses empty vectors
        for b, column in zip(beta, values):
            acc = daxpy(column, acc, a=b)
    return acc + beta0


@dataclass(frozen=True)
class Cpt:
    """Unrestricted conditional probability table: one row per parent configuration."""

    table: np.ndarray  # (n_configs, arity)

    def __post_init__(self):
        t = np.asarray(self.table, dtype=float)
        if t.ndim != 2:
            raise ModelError("CPT table must be 2-d (configurations x child values)")
        _check_prob(t, "CPT entries")
        if t.size and np.max(np.abs(t.sum(axis=1) - 1.0)) > 1e-12:
            raise ModelError("CPT rows must sum to 1 within 1e-12")
        t.setflags(write=False)
        object.__setattr__(self, "table", t)

    @property
    def arity(self) -> int:
        return self.table.shape[1]


@dataclass(frozen=True)
class FactoredCpt:
    """Binary kernel with independent dynamic and static factors.

    ``p(child = 1 | dyn config, stat config) = table_dyn[d] * table_stat[s]``,
    clipped into [0, 1].
    """

    table_dyn: np.ndarray
    table_stat: np.ndarray

    def __post_init__(self):
        d = _check_prob(np.asarray(self.table_dyn, dtype=float).reshape(-1), "dynamic factor")
        s = _check_prob(np.asarray(self.table_stat, dtype=float).reshape(-1), "static factor")
        d.setflags(write=False)
        s.setflags(write=False)
        object.__setattr__(self, "table_dyn", d)
        object.__setattr__(self, "table_stat", s)

    def prob_one(self, dyn_index, stat_index):
        """``p(child = 1)`` of one index pair, or elementwise over index arrays."""
        d = self.table_dyn[dyn_index] if self.table_dyn.size else 1.0
        s = self.table_stat[stat_index] if self.table_stat.size else 1.0
        return np.minimum(1.0, np.maximum(0.0, d * s))


@dataclass(frozen=True)
class NoisyOr:
    """Noisy-or kernel over binary parents: p(0) = (1 - lam0) * prod (1 - lam_l)^{V_l}."""

    lam0: float
    lam: tuple[float, ...]

    def __post_init__(self):
        _check_prob([self.lam0, *self.lam], "noisy-or lambdas")

    def prob_one(self, parent_values):
        """``p(child = 1)`` of one configuration, or elementwise when each value is an array.

        An inactive parent multiplies ``q`` by exactly 1.0, which leaves it unchanged.
        """
        q = 1.0 - self.lam0
        for lam_l, v in zip(self.lam, parent_values):
            q = q * np.where(np.asarray(v) != 0, 1.0 - lam_l, 1.0)
        return 1.0 - q


@dataclass(frozen=True)
class Logistic:
    """Binary logistic kernel: p(1) = sigmoid(beta0 + beta . parents)."""

    beta0: float
    beta: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.beta, dtype=float).reshape(-1)
        b.setflags(write=False)
        object.__setattr__(self, "beta", b)

    def prob_one(self, parent_values):
        """``p(child = 1)`` of one configuration, or of each column of a (parents, rows) array."""
        values = np.asarray(parent_values, dtype=float)
        rows = values if values.ndim == 2 else values.reshape(-1, 1)
        s = linear_predictor(self.beta0, self.beta, rows)
        # numerically safe sigmoid
        p = np.empty_like(s)
        pos = s >= 0
        p[pos] = 1.0 / (1.0 + np.exp(-s[pos]))
        e = np.exp(s[~pos])
        p[~pos] = e / (1.0 + e)
        return float(p[0]) if values.ndim == 1 else p


@dataclass(frozen=True)
class LinearGaussian:
    """Linear Gaussian kernel: child ~ Normal(beta0 + beta . parents, sigma2)."""

    beta0: float
    beta: np.ndarray
    sigma2: float

    def __post_init__(self):
        if not self.sigma2 > 0:
            raise ModelError("sigma2 must be positive")
        b = np.asarray(self.beta, dtype=float).reshape(-1)
        b.setflags(write=False)
        object.__setattr__(self, "beta", b)

    def mean(self, parent_values):
        """Conditional mean of one configuration, or of each column of a (parents, rows) array."""
        values = np.asarray(parent_values, dtype=float)
        rows = values if values.ndim == 2 else values.reshape(-1, 1)
        m = linear_predictor(self.beta0, self.beta, rows)
        return float(m[0]) if values.ndim == 1 else m


NodeParams = Cpt | FactoredCpt | NoisyOr | Logistic | LinearGaussian

_FAMILY_KINDS = {Cpt: "cpt", FactoredCpt: "factored", NoisyOr: "noisy_or",
                 Logistic: "logistic", LinearGaussian: "linear_gaussian"}


@dataclass(frozen=True)
class ParameterSet:
    """Per-node transition parameters, aligned with ``parents_of`` orderings."""

    families: tuple[NodeParams, ...]

    def __post_init__(self):
        for f in self.families:
            if type(f) not in _FAMILY_KINDS:
                raise ModelError(f"unknown family parameter type {type(f).__name__}")

    def kind(self, node: int) -> str:
        return _FAMILY_KINDS[type(self.families[node])]

    def __len__(self) -> int:
        return len(self.families)

    def __getitem__(self, node: int) -> NodeParams:
        return self.families[node]
