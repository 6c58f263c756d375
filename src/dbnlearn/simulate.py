"""Ground-truth generators and trajectory samplers for every model family.

Randomness policy: one documented generator algorithm (numpy PCG64).
Every stream is derived by hashing a tuple of identifiers through
``numpy.random.SeedSequence``, so structure draws, parameter draws and
each trajectory get independent substreams that are reproducible no
matter in which order (or how concurrently) they are realized.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, Sequence

import numpy as np

from .core import (
    ConfigError, Cpt, DbnStructure, Domain, FactoredCpt, FamilySpec, LinearGaussian,
    Logistic, ModelError, NoisyOr, ParameterSet, TrajectoryDataset, n_configurations,
    parents_of, topological_order,
)
from .scoring import _config_index

MODEL_FAMILIES = ("cpt", "factored", "noisy_or", "logistic", "linear_gaussian")


def derive_seed(seed: int, *ids) -> int:
    """Deterministic 64-bit substream seed hashed from (seed, ids...)."""
    entropy = [int(seed)]
    for part in ids:
        if isinstance(part, str):
            entropy.extend(part.encode())
        else:
            entropy.append(int(part))
    state = np.random.SeedSequence(entropy).generate_state(2, dtype=np.uint64)
    return int(state[0])


def substream(seed: int, *ids) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(derive_seed(seed, *ids))))


@dataclass(frozen=True)
class EdgeProbs:
    intra: float = 0.0
    inter: float = 0.0
    auto: float = 0.0
    static: float = 0.0

    def __post_init__(self):
        for name in ("intra", "inter", "auto", "static"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"edge probability {name}={v} outside [0, 1]")


@dataclass(frozen=True)
class GeneratorConfig:
    """Everything needed to draw a random ground-truth DBN and its parameters."""

    n_x: int
    n_z: int = 0
    p: int = 1
    x_arity: int = 2
    z_arity: int = 2
    model: str = "cpt"
    edge_probs: EdgeProbs = field(default_factory=EdgeProbs)
    dirichlet_alpha: float = 0.5
    sharpen: float = 1.0  # >1 pushes CPT rows toward determinism
    # redraw discrete tables until every parent flips the child distribution
    # by at least this much somewhere; None admits invisible edges
    min_effect: float | None = None
    weight_range: tuple[float, float] = (0.5, 2.0)
    intercept_range: tuple[float, float] = (0.0, 0.0)
    sigma: float = 1.0
    lambda0_range: tuple[float, float] = (0.0, 0.2)
    lambda_range: tuple[float, float] = (0.3, 0.9)
    # linear systems: redraw weights until the companion spectral radius fits,
    # else long horizons overflow; None disables the rejection loop
    stability_radius: float | None = 0.9
    seed: int = 0

    def __post_init__(self):
        if self.model not in MODEL_FAMILIES:
            raise ModelError(f"unknown model family {self.model!r}")
        if self.weight_range[0] > self.weight_range[1]:
            raise ConfigError("weight range must satisfy w_lo <= w_hi")
        if not self.sigma > 0:
            raise ConfigError("sigma must be positive")
        if self.stability_radius is not None and not self.stability_radius > 0:
            raise ConfigError("stability radius must be positive")
        binary = (self.x_arity, self.z_arity) == (2, 2)
        if self.model in ("factored", "noisy_or", "logistic") and not binary:
            raise ConfigError(f"{self.model} kernels need binary dynamic and static variables")

    @property
    def discrete(self) -> bool:
        return self.model != "linear_gaussian"

    def domain(self) -> Domain:
        if self.discrete:
            return Domain("discrete",
                          x_arities=(self.x_arity,) * self.n_x,
                          z_arities=(self.z_arity,) * self.n_z)
        return Domain("continuous")


@dataclass(frozen=True)
class RegimeSpec:
    """Benchmark data regime: (n, N, T) triples under one label."""

    label: str
    triples: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        for t in self.triples:
            if any(v <= 0 for v in t):
                raise ConfigError(f"regime entries must be positive, got {t}")


FAVORABLE_REGIME = RegimeSpec(
    "favorable", ((3, 30, 10), (5, 50, 50), (10, 100, 200), (20, 400, 400), (30, 600, 500)))
HIGH_DIMENSIONAL_REGIME = RegimeSpec(
    "high_dimensional", ((3, 5, 10), (5, 10, 20), (10, 20, 40), (20, 40, 50), (30, 60, 100)))
REGIMES = {r.label: r for r in (FAVORABLE_REGIME, HIGH_DIMENSIONAL_REGIME)}


# ---------------------------------------------------------------------------
# Structure and parameter generation


def sample_random_dbn(config: GeneratorConfig) -> tuple[DbnStructure, ParameterSet]:
    """Draw a ground-truth structure and matching parameters.

    Intra edges are drawn per unordered pair and oriented along a random
    permutation, which yields a DAG by construction (probability 1 gives
    the complete DAG of a total order).  Weights with sign freedom are
    drawn with magnitude in ``weight_range`` and a random sign so active
    edges stay detectable.
    """
    rng = substream(config.seed, "structure")
    n, nz, p = config.n_x, config.n_z, config.p

    order = rng.permutation(n)
    rank = np.empty(n, dtype=int)
    rank[order] = np.arange(n)
    intra = np.zeros((n, n), dtype=bool)
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < config.edge_probs.intra:
                j, i = (a, b) if rank[a] < rank[b] else (b, a)
                intra[j, i] = True

    inter = np.zeros((n, n), dtype=bool)
    for j in range(n):
        for i in range(n):
            if j != i and rng.random() < config.edge_probs.inter:
                inter[j, i] = True

    auto_lags = tuple(
        tuple(tau for tau in range(1, p + 1) if rng.random() < config.edge_probs.auto)
        for _ in range(n))

    static = np.zeros((nz, n), dtype=bool)
    for j in range(nz):
        for i in range(n):
            if rng.random() < config.edge_probs.static:
                static[j, i] = True

    structure = DbnStructure(n_x=n, n_z=nz, p=p, intra=intra, inter=inter,
                             auto_lags=auto_lags, static_edges=static)
    if config.model == "linear_gaussian" and config.stability_radius is not None:
        for attempt in range(1000):
            params = _draw_parameters(structure, config, attempt)
            if _companion_radius(structure, params) <= config.stability_radius:
                return structure, params
        raise ModelError(
            "could not draw a stable linear system within 1000 attempts; "
            "loosen weight_range, edge probabilities, or stability_radius")
    return structure, _draw_parameters(structure, config)


def _sharpen(rows: np.ndarray, gamma: float) -> np.ndarray:
    if gamma == 1.0:
        return rows
    powed = rows ** gamma
    return powed / powed.sum(axis=-1, keepdims=True)


def _companion_radius(structure: DbnStructure, params: ParameterSet) -> float:
    """Spectral radius of the lagged linear system's companion matrix.

    Same-slice weights never compound on their own (the intra graph is a
    DAG), so the one-step map is (I - W_intra^T)^{-1} applied to the
    lagged contributions.
    """
    n, p = structure.n_x, structure.max_lag()
    w_intra = np.zeros((n, n))
    lag_mats = [np.zeros((n, n)) for _ in range(p)]
    for i in range(n):
        fam = parents_of(structure, i)
        beta = params[i].beta
        for b, par in zip(beta, fam.parents):
            if par.kind == "intra":
                w_intra[par.index, i] = b
            elif par.kind == "inter":
                lag_mats[0][par.index, i] = b
            elif par.kind == "auto":
                lag_mats[par.index - 1][i, i] = b
    solve = np.linalg.inv(np.eye(n) - w_intra.T)
    blocks = [solve @ m.T for m in lag_mats]
    companion = np.zeros((n * p, n * p))
    companion[:n, :] = np.hstack(blocks)
    if p > 1:
        companion[n:, :n * (p - 1)] = np.eye(n * (p - 1))
    return float(np.max(np.abs(np.linalg.eigvals(companion)))) if companion.size else 0.0


def _draw_parameters(structure: DbnStructure, config: GeneratorConfig,
                     attempt: int = 0) -> ParameterSet:
    rng = substream(config.seed, "params", attempt)
    families = []
    for node in range(structure.n_x):
        fam = parents_of(structure, node)
        k = len(fam.parents)
        if config.model == "cpt":
            arities = fam.arities((config.x_arity,) * structure.n_x, (config.z_arity,) * structure.n_z)
            for _ in range(1000):
                rows = _sharpen(rng.dirichlet([config.dirichlet_alpha] * config.x_arity,
                                              size=n_configurations(arities)),
                                config.sharpen)
                if _table_effects_ok(rows, arities, config.min_effect):
                    break
            else:
                raise ModelError(
                    f"node {node}: no table met min_effect={config.min_effect} "
                    "within 1000 draws")
            families.append(Cpt(table=rows))
        elif config.model == "factored":
            dyn = [p for p in fam.parents if p.kind != "static"]
            stat = [p for p in fam.parents if p.kind == "static"]
            families.append(FactoredCpt(
                table_dyn=_factor_table(rng, len(dyn), config),
                table_stat=_factor_table(rng, len(stat), config)))
        elif config.model == "noisy_or":
            lam0 = rng.uniform(*config.lambda0_range)
            lam = tuple(rng.uniform(*config.lambda_range) for _ in range(k))
            families.append(NoisyOr(lam0=float(lam0), lam=lam))
        elif config.model == "logistic":
            beta = _signed_weights(rng, k, config.weight_range)
            families.append(Logistic(beta0=float(rng.uniform(*config.intercept_range)), beta=beta))
        else:
            beta = _signed_weights(rng, k, config.weight_range)
            families.append(LinearGaussian(
                beta0=float(rng.uniform(*config.intercept_range)), beta=beta,
                sigma2=config.sigma ** 2))
    return ParameterSet(families=tuple(families))


def _table_effects_ok(rows: np.ndarray, arities: Sequence[int],
                      min_effect: float | None) -> bool:
    """Every parent must move the child distribution by >= min_effect somewhere."""
    if min_effect is None or not arities:
        return True
    step = 1
    for k, a in enumerate(arities):
        best = 0.0
        for cfg in range(rows.shape[0]):
            digit = (cfg // step) % a
            if digit != 0:
                continue
            for v in range(1, a):
                diff = 0.5 * float(np.abs(rows[cfg] - rows[cfg + v * step]).sum())
                best = max(best, diff)
        if best < min_effect:
            return False
        step *= a
    return True


def _factor_table(rng: np.random.Generator, n_parents: int, config: GeneratorConfig) -> np.ndarray:
    if n_parents == 0:
        return np.empty(0)
    for _ in range(1000):
        rows = _sharpen(rng.dirichlet([config.dirichlet_alpha] * 2, size=2 ** n_parents),
                        config.sharpen)
        if _table_effects_ok(rows, (2,) * n_parents, config.min_effect):
            return rows[:, 1]
    raise ModelError(f"no factor table met min_effect={config.min_effect} within 1000 draws")


def _signed_weights(rng: np.random.Generator, k: int, weight_range) -> np.ndarray:
    mag = rng.uniform(weight_range[0], weight_range[1], size=k)
    sign = rng.choice([-1.0, 1.0], size=k)
    return mag * sign


# ---------------------------------------------------------------------------
# Trajectory sampling


def sample_trajectories(structure: DbnStructure, params: ParameterSet, n_traj: int,
                        horizon: int, seed: int,
                        x_arities: Sequence[int] | None = None,
                        z_arities: Sequence[int] | None = None) -> TrajectoryDataset:
    """Sample N trajectories of T+1 slices from a parameterized structure.

    The initial slice and the static covariates are uniform categorical
    (discrete) or standard normal (continuous), independent across
    variables.  Within each slice nodes are realized in topological
    order of the same-slice graph so intra parents exist before their
    children.  Auto lags reaching before time 0 are clamped to the
    variable's earliest value; those early transitions are exactly the
    ones the scoring drop rule excludes, so the clamp never biases a
    counted statistic.

    Trajectory ``n`` draws from its own substream ``(seed, "traj", n)``:
    its static covariates and initial slice, then one uniform (discrete
    kernels) or one standard normal (linear Gaussian) per (t, node) in
    that order, taken as one block.  All trajectories are then stepped
    together, so a trajectory does not depend on how many are drawn.
    """
    kinds = {params.kind(i) for i in range(structure.n_x)}
    if len(params) != structure.n_x:
        raise ModelError("parameter set does not cover every node")
    continuous = kinds == {"linear_gaussian"}
    if not continuous and "linear_gaussian" in kinds:
        raise ModelError("cannot mix linear Gaussian and discrete kernels in one model")

    if continuous:
        domain = Domain("continuous")
        x_ar = z_ar = None
    else:
        x_ar = tuple(x_arities) if x_arities is not None else _infer_x_arities(structure, params)
        z_ar = tuple(z_arities) if z_arities is not None else (2,) * structure.n_z
        domain = Domain("discrete", x_arities=x_ar, z_arities=z_ar)

    families = [parents_of(structure, i) for i in range(structure.n_x)]
    _validate_params(structure, params, families, x_ar, z_ar)
    order = topological_order(structure.intra)
    draws = [_node_sampler(params[i], families[i], x_ar, z_ar) for i in range(structure.n_x)]

    n_x = structure.n_x
    x = np.empty((n_traj, horizon + 1, n_x), dtype=np.float64 if continuous else np.int64)
    z = np.empty((n_traj, structure.n_z), dtype=np.float64 if continuous else np.int64)
    # noise[n, t - 1, m] is trajectory n's draw for node order[m] at time t
    noise = np.empty((n_traj, horizon, n_x))
    for n in range(n_traj):
        rng = substream(seed, "traj", n)
        if continuous:
            z[n] = rng.standard_normal(structure.n_z)
            x[n, 0] = rng.standard_normal(n_x)
            noise[n] = rng.standard_normal((horizon, n_x))
        else:
            z[n] = [rng.integers(a) for a in z_ar] if structure.n_z else []
            x[n, 0] = [rng.integers(a) for a in x_ar]
            noise[n] = rng.random((horizon, n_x))
    for t in range(1, horizon + 1):
        for m, i in enumerate(order):
            x[:, t, i] = draws[i](_parent_rows(x, z, families[i], t), noise[:, t - 1, m])
    return TrajectoryDataset(domain=domain, x=x, z=z)


def _infer_x_arities(structure: DbnStructure, params: ParameterSet) -> tuple[int, ...]:
    return tuple(
        params[i].arity if isinstance(params[i], Cpt) else 2
        for i in range(structure.n_x))


def _validate_params(structure, params, families, x_ar, z_ar):
    for i, fam in enumerate(families):
        par = params[i]
        k = len(fam.parents)
        if isinstance(par, Cpt):
            arities = fam.arities(x_ar, z_ar)
            if par.table.shape[0] != n_configurations(arities):
                raise ModelError(
                    f"node {i} CPT has {par.table.shape[0]} rows, family needs "
                    f"{n_configurations(arities)}")
        elif isinstance(par, FactoredCpt):
            n_dyn = sum(1 for p in fam.parents if p.kind != "static")
            n_stat = k - n_dyn
            if par.table_dyn.size != (2 ** n_dyn if n_dyn else 0) or \
               par.table_stat.size != (2 ** n_stat if n_stat else 0):
                raise ModelError(f"node {i} factored tables inconsistent with family")
            if any(a != 2 for a in fam.arities(x_ar, z_ar)):
                raise ModelError(f"node {i} factored kernel needs binary parents")
        elif isinstance(par, NoisyOr):
            if len(par.lam) != k:
                raise ModelError(f"node {i} noisy-or needs {k} lambdas, got {len(par.lam)}")
        elif isinstance(par, (Logistic, LinearGaussian)):
            if par.beta.size != k:
                raise ModelError(f"node {i} kernel needs {k} weights, got {par.beta.size}")


def _parent_rows(x: np.ndarray, z: np.ndarray, family: FamilySpec, t: int) -> np.ndarray:
    """(parents, N) values of the family's parents at slice ``t`` of every trajectory."""
    rows = np.empty((len(family.parents), x.shape[0]), dtype=x.dtype)
    for k, p in enumerate(family.parents):
        if p.kind == "inter":
            rows[k] = x[:, t - 1, p.index]
        elif p.kind == "intra":
            rows[k] = x[:, t, p.index]
        elif p.kind == "auto":
            # lag reaching before time 0: clamp to the earliest observed value
            rows[k] = x[:, max(t - p.index, 0), family.node]
        else:
            rows[k] = z[:, p.index]
    return rows


def _categorical(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw of one value per uniform ``u`` from (rows, arity) cumulative rows.

    Counting the entries ``<= u`` is ``searchsorted(side="right")``.  A
    row may sum to 1 - 1e-12, so a uniform above its last entry is given
    to the last value, which carries that residual mass.
    """
    return np.minimum((cdf <= u[:, None]).sum(axis=1), cdf.shape[-1] - 1)


def _node_sampler(par, family: FamilySpec, x_ar, z_ar):
    """Map (parents, N) parent values and N noise draws to the node's N new values."""
    if isinstance(par, Cpt):
        cdf = np.cumsum(par.table, axis=1)
        arities = family.arities(x_ar, z_ar)
        if not arities:
            return lambda values, u: _categorical(cdf[0], u)
        return lambda values, u: _categorical(cdf[_config_index(values, arities)], u)
    if isinstance(par, FactoredCpt):
        dyn = [k for k, p in enumerate(family.parents) if p.kind != "static"]
        stat = [k for k, p in enumerate(family.parents) if p.kind == "static"]

        def draw(values, u):
            d_idx = _config_index(values[dyn], (2,) * len(dyn)) if dyn else 0
            s_idx = _config_index(values[stat], (2,) * len(stat)) if stat else 0
            return u < par.prob_one(d_idx, s_idx)
        return draw
    if isinstance(par, (NoisyOr, Logistic)):
        return lambda values, u: u < par.prob_one(values)
    scale = np.sqrt(par.sigma2)
    return lambda values, u: par.mean(values) + scale * u


# ---------------------------------------------------------------------------
# Regimes


@dataclass(frozen=True)
class RegimeCell:
    """One generated benchmark cell: ground truth plus its sampled dataset."""

    triple: tuple[int, int, int]
    replicate: int
    seed: int
    structure: DbnStructure
    params: ParameterSet
    dataset: TrajectoryDataset


def regime_datasets(regime: RegimeSpec, template: GeneratorConfig,
                    replicates: int = 10, seed: int | None = None) -> Iterator[RegimeCell]:
    """Lazily yield one :class:`RegimeCell` per (triple, replicate).

    Cell seeds are derived from (seed, triple index, replicate); the
    default ten replicates per triple match the benchmark protocol.
    Lazy because the largest regime cells are hundreds of megabytes.
    """
    master = template.seed if seed is None else seed
    for ti, (n, n_traj, horizon) in enumerate(regime.triples):
        for rep in range(replicates):
            cell_seed = derive_seed(master, "cell", ti, rep)
            cfg = replace(template, n_x=n, seed=cell_seed)
            structure, params = sample_random_dbn(cfg)
            dataset = sample_trajectories(
                structure, params, n_traj, horizon, derive_seed(cell_seed, "data"),
                x_arities=(cfg.x_arity,) * n if cfg.discrete else None,
                z_arities=(cfg.z_arity,) * cfg.n_z if cfg.discrete else None)
            yield RegimeCell(triple=(n, n_traj, horizon), replicate=rep, seed=cell_seed,
                             structure=structure, params=params, dataset=dataset)
