"""Structure metrics, temporal hold-out likelihood, and the benchmark harness.

Metrics flatten the transition graph into an :class:`EdgeUniverse`, the
deterministic list of every candidate edge (intra, inter, auto, static),
so SHD is a plain Hamming distance and AUROC a rank statistic over edge
scores.  A reversed same-slice edge therefore costs 2 (one removal plus
one addition); pass ``reversal_cost_one=True`` for the other common
convention.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .core import ConfigError, DbnStructure, DimensionError, SplitError, TrajectoryDataset
from .learn import CellTimeout, Deadline, LearnerReport, run_learner
from .scoring import DirichletPrior, fit_structure_params, loglik_cpt, loglik_gaussian
from .simulate import GeneratorConfig, RegimeSpec, derive_seed, regime_datasets


@dataclass(frozen=True)
class EdgeUniverse:
    """Ordered list of every candidate directed edge of the unrolled graph."""

    n_x: int
    n_z: int
    p: int
    edges: tuple[tuple, ...]

    @staticmethod
    def build(n_x: int, n_z: int, p: int) -> "EdgeUniverse":
        edges = []
        for j in range(n_x):
            for i in range(n_x):
                if j != i:
                    edges.append(("intra", j, i))
        for j in range(n_x):
            for i in range(n_x):
                if j != i:
                    edges.append(("inter", j, i))
        for i in range(n_x):
            for tau in range(1, p + 1):
                edges.append(("auto", i, tau))
        for j in range(n_z):
            for i in range(n_x):
                edges.append(("static", j, i))
        return EdgeUniverse(n_x=n_x, n_z=n_z, p=p, edges=tuple(edges))

    def vector(self, structure: DbnStructure) -> np.ndarray:
        """Boolean presence vector of a structure over this universe.

        An inter self edge and auto lag 1 are the same dependence, so
        both land on the auto slot; the representation a structure uses
        never changes its vector.
        """
        if (structure.n_x, structure.n_z) != (self.n_x, self.n_z) or structure.p > self.p:
            raise DimensionError("structure does not fit this edge universe")
        out = np.zeros(len(self.edges), dtype=bool)
        for idx, (kind, a, b) in enumerate(self.edges):
            if kind == "intra":
                out[idx] = structure.intra[a, b]
            elif kind == "inter":
                out[idx] = structure.inter[a, b]
            elif kind == "auto":
                out[idx] = b in structure.auto_lags[a] or (b == 1 and structure.inter[a, a])
            else:
                out[idx] = structure.static_edges[a, b]
        return out

    def scores(self, report: LearnerReport) -> np.ndarray:
        """Per-edge ranking scores: |weights| when available, else 0/1 indicators."""
        w = report.extras.get("w")
        a = report.extras.get("a")
        if w is None or a is None:
            return self.vector(report.structure).astype(float)
        w = np.asarray(w, dtype=float)
        a = np.asarray(a, dtype=float)
        n = self.n_x
        out = np.zeros(len(self.edges))
        for idx, (kind, u, v) in enumerate(self.edges):
            if kind == "intra":
                out[idx] = abs(w[u, v])
            elif kind == "inter":
                out[idx] = abs(a[u, v])
            elif kind == "auto":
                tau = v
                block = a[(tau - 1) * n:tau * n, :]
                if block.shape[0] == n:
                    out[idx] = abs(block[u, u])
            # static edges: no weights from the SEM learners, score stays 0
        return out


def shd(predicted: DbnStructure, truth: DbnStructure, reversal_cost_one: bool = False) -> int:
    """Structural Hamming distance over the full edge universe.

    Counts edges to add plus edges to remove; identical structures give
    0, one spurious edge gives 1, a reversed intra edge gives 2 unless
    ``reversal_cost_one``.
    """
    if (predicted.n_x, predicted.n_z) != (truth.n_x, truth.n_z):
        raise DimensionError("structures have different variable counts")
    universe = EdgeUniverse.build(truth.n_x, truth.n_z, max(predicted.p, truth.p))
    a = universe.vector(predicted)
    b = universe.vector(truth)
    dist = int(np.count_nonzero(a != b))
    if reversal_cost_one:
        rev = sum(
            1 for j in range(truth.n_x) for i in range(j + 1, truth.n_x)
            if predicted.intra[j, i] and not truth.intra[j, i]
            and truth.intra[i, j] and not predicted.intra[i, j]
        ) + sum(
            1 for j in range(truth.n_x) for i in range(j + 1, truth.n_x)
            if predicted.intra[i, j] and not truth.intra[i, j]
            and truth.intra[j, i] and not predicted.intra[j, i]
        )
        dist -= rev
    return dist


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-d array, ties given the mean of their positions.

    The ranks ``scipy.stats.rankdata(values, method="average")`` gives,
    NaN everywhere when any value is NaN.  A tie group at sorted
    positions ``start .. end - 1`` shares ``(start + end + 1) / 2``, an
    exact half, so sums of ranks are exact.
    """
    values = np.asarray(values, dtype=float)
    if np.isnan(values).any():
        return np.full(values.shape, np.nan)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    first = np.ones(values.size, dtype=bool)  # first position of each tie group
    first[1:] = ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(first)
    ends = np.append(starts[1:], values.size)
    ranks = np.empty(values.size)
    ranks[order] = ((starts + ends + 1) / 2.0)[np.cumsum(first) - 1]
    return ranks


def auroc(edge_scores: Sequence[float], truth: Sequence[bool]) -> float:
    """Probability a random (true edge, non-edge) pair is ranked correctly; ties count 1/2.

    Equivalent to the trapezoidal ROC area.  Degenerate truth (no
    positives or no negatives) is undefined: returns 0.5 with a warning.
    """
    scores = np.asarray(edge_scores, dtype=float)
    labels = np.asarray(truth, dtype=bool)
    if scores.shape != labels.shape:
        raise DimensionError("scores and truth must align")
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        warnings.warn("AUROC undefined for degenerate truth; returning 0.5")
        return 0.5
    ranks = _average_ranks(scores)
    return float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


# ---------------------------------------------------------------------------
# Temporal hold-out


def temporal_split(dataset: TrajectoryDataset, fraction: float = 0.7,
                   context: int | None = None) -> tuple[TrajectoryDataset, TrajectoryDataset]:
    """Per-trajectory time split: targets 1..s train, s+1..T test, s = floor(fraction T).

    The test dataset keeps ``context`` leading slices (all of them by
    default) so lagged parents stay observable, and marks them as
    burn-in so no transition is ever scored on both sides.
    """
    if dataset.T < 3:
        raise SplitError(f"temporal split needs T >= 3, got T={dataset.T}")
    s = int(math.floor(fraction * dataset.T))
    if s >= dataset.T:
        raise SplitError("split leaves no test transitions")
    if s < 1:
        raise SplitError("split leaves no training transitions")
    train = TrajectoryDataset(domain=dataset.domain, x=dataset.x[:, :s + 1], z=dataset.z)
    first_row = 0 if context is None else max(0, s + 1 - max(context, 1))
    test = TrajectoryDataset(domain=dataset.domain, x=dataset.x[:, first_row:],
                             z=dataset.z, burn_in=s - first_row)
    return train, test


@dataclass(frozen=True)
class HoldoutResult:
    train_loglik: float
    test_loglik: float
    report: LearnerReport


def holdout_loglik(dataset: TrajectoryDataset, learner: Callable[[TrajectoryDataset], LearnerReport],
                   fraction: float = 0.7, strict: bool = False,
                   smoothing_ess: float = 1.0) -> HoldoutResult:
    """Learn on the early fraction, score transitions of the late remainder.

    Discrete test scoring smooths unseen configurations with the
    Dirichlet posterior mean by default; ``strict=True`` scores with the
    raw maximum-likelihood tables, in which case a zero-probability test
    event honestly yields ``-inf``.  Continuous windows are scored from
    their exact moments (:func:`~dbnlearn.scoring.loglik_gaussian`).
    """
    train, test = temporal_split(dataset, fraction)
    report = learner(train)
    structure = report.structure
    smoothing = None if strict else DirichletPrior(smoothing_ess)
    params = fit_structure_params(train, structure, smoothing)
    loglik = loglik_cpt if dataset.domain.discrete else loglik_gaussian
    return HoldoutResult(train_loglik=loglik(train, structure, params),
                         test_loglik=loglik(test, structure, params), report=report)


# ---------------------------------------------------------------------------
# Benchmark harness


@dataclass(frozen=True)
class EvalReport:
    """One benchmark cell: a learner on one replicate of one regime triple."""

    regime: str
    n: int
    n_traj: int
    horizon: int
    learner: str
    replicate: int
    seed: int
    status: str  # OK | TL | E | OOM
    shd: int | None = None
    auroc: float | None = None
    train_loglik: float | None = None
    test_loglik: float | None = None
    wall_ms: float = 0.0
    error: str = ""  # "<exception type>: <message>" of a failed cell

    def __post_init__(self):
        if self.auroc is not None and not 0.0 <= self.auroc <= 1.0:
            raise ConfigError("AUROC must lie in [0, 1]")
        if self.shd is not None and self.shd < 0:
            raise ConfigError("SHD must be >= 0")


CSV_COLUMNS = ("regime", "n", "N", "T", "learner", "replicate", "seed",
               "shd", "auroc", "train_ll", "test_ll", "status")


@dataclass
class BenchmarkResult:
    rows: tuple[EvalReport, ...]

    def to_csv(self) -> str:
        """Deterministic results CSV (timings live in :meth:`timings_csv`)."""
        lines = [",".join(CSV_COLUMNS)]
        for r in self.rows:
            lines.append(",".join([
                r.regime, str(r.n), str(r.n_traj), str(r.horizon), r.learner,
                str(r.replicate), str(r.seed),
                "" if r.shd is None else str(r.shd),
                *("" if v is None else repr(float(v)) for v in (r.auroc, r.train_loglik, r.test_loglik)),
                r.status,
            ]))
        return "\n".join(lines) + "\n"

    def timings_csv(self) -> str:
        lines = ["regime,n,N,T,learner,replicate,wall_ms"]
        for r in self.rows:
            lines.append(f"{r.regime},{r.n},{r.n_traj},{r.horizon},{r.learner},"
                         f"{r.replicate},{r.wall_ms:.3f}")
        return "\n".join(lines) + "\n"

    def cells_jsonl(self) -> str:
        """One JSON object per cell: its key, status and failure reason (empty when none)."""
        return "".join(json.dumps({
            "regime": r.regime, "n": r.n, "N": r.n_traj, "T": r.horizon,
            "learner": r.learner, "replicate": r.replicate, "seed": r.seed,
            "status": r.status, "error": r.error}) + "\n" for r in self.rows)

    def aggregate(self) -> dict:
        """mean +- sample sd (ddof=1) per (learner, triple, metric) over OK replicates."""
        cells: dict[tuple, list[EvalReport]] = {}
        for r in self.rows:
            cells.setdefault((r.learner, (r.n, r.n_traj, r.horizon)), []).append(r)
        out = {}
        for key, rows in cells.items():
            ok = [r for r in rows if r.status == "OK"]
            entry: dict = {"count": len(rows), "ok": len(ok)}
            if not ok:
                entry["status"] = max(set(r.status for r in rows),
                                      key=[r.status for r in rows].count)
            else:
                for metric, get in (("shd", lambda r: r.shd), ("auroc", lambda r: r.auroc),
                                    ("train_ll", lambda r: r.train_loglik),
                                    ("test_ll", lambda r: r.test_loglik)):
                    values = [get(r) for r in ok if get(r) is not None]
                    finite = [v for v in values if math.isfinite(v)]
                    if finite:
                        mean = sum(finite) / len(finite)
                        sd = math.sqrt(sum((v - mean) ** 2 for v in finite) / (len(finite) - 1)) \
                            if len(finite) > 1 else 0.0
                        entry[metric] = (mean, sd)
            out[key] = entry
        return out

    def text_tables(self) -> str:
        """Aligned mean +- sd tables, one block per metric, TL/E/OOM markers kept."""
        agg = self.aggregate()
        triples = sorted({key[1] for key in agg})
        learners = sorted({key[0] for key in agg})
        blocks = []
        for metric, title in (("test_ll", "held-out log-likelihood"),
                              ("shd", "SHD"), ("auroc", "AUROC")):
            header = ["learner"] + [f"({n},{m},{t})" for n, m, t in triples]
            rows = [header]
            for learner in learners:
                row = [learner]
                for triple in triples:
                    entry = agg.get((learner, triple))
                    if entry is None:
                        row.append("-")
                    elif metric not in entry:
                        row.append(entry.get("status", "-"))
                    else:
                        mean, sd = entry[metric]
                        row.append(f"{mean:.2f}+-{sd:.2f}")
                rows.append(row)
            widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
            lines = [title] + [
                "  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row))
                for row in rows
            ]
            blocks.append("\n".join(lines))
        return "\n\n".join(blocks) + "\n"


def _benchmark_cell(args) -> EvalReport:
    (regime_label, triple, rep, truth, dataset, learner_label, learner_name,
     hyper, seed, timeout_sec, fraction, strict) = args
    n, n_traj, horizon = triple
    t_start = time.perf_counter()
    try:
        deadline = Deadline(timeout_sec)
        result = holdout_loglik(
            dataset,
            lambda train: run_learner(learner_name, train, seed=seed,
                                      deadline=deadline, **hyper),
            fraction=fraction, strict=strict)
        universe = EdgeUniverse.build(truth.n_x, truth.n_z,
                                      max(truth.p, result.report.structure.p))
        cell_shd = shd(result.report.structure, truth)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cell_auroc = auroc(universe.scores(result.report), universe.vector(truth))
        return EvalReport(
            regime=regime_label, n=n, n_traj=n_traj, horizon=horizon,
            learner=learner_label, replicate=rep, seed=seed, status="OK",
            shd=cell_shd, auroc=cell_auroc, train_loglik=result.train_loglik,
            test_loglik=result.test_loglik,
            wall_ms=(time.perf_counter() - t_start) * 1e3)
    except CellTimeout as e:
        status, error = "TL", e
    except MemoryError as e:
        status, error = "OOM", e
    except Exception as e:
        status, error = "E", e
    return EvalReport(regime=regime_label, n=n, n_traj=n_traj, horizon=horizon,
                      learner=learner_label, replicate=rep, seed=seed, status=status,
                      wall_ms=(time.perf_counter() - t_start) * 1e3,
                      error=f"{type(error).__name__}: {error}")


def run_benchmark(regime: RegimeSpec, learners: Sequence[tuple[str, str, dict]],
                  template: GeneratorConfig, replicates: int = 10,
                  seed: int = 0, timeout_sec: float | None = None,
                  fraction: float = 0.7, strict_loglik: bool = False,
                  workers: int = 1) -> BenchmarkResult:
    """Full cross of regime triples x learners x replicates.

    ``learners`` entries are (label, registry name, hyperparameters).
    Each cell learns on the temporal training window, then reports SHD
    and AUROC against the generating truth plus train/test
    log-likelihood.  Failures never abort the sweep; they are recorded
    as TL (time limit), OOM, or E in the status column, with the
    exception's type and message in the report's ``error``.  Cell seeds are
    derived from (seed, triple, replicate), and rows come back in a
    fixed order regardless of worker scheduling.
    """
    rows: list[EvalReport] = []
    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        # datasets stream one (triple, replicate) at a time: the biggest
        # regime cells are too large to keep all replicates in memory
        for cell in regime_datasets(regime, template, replicates=replicates, seed=seed):
            jobs = [
                (regime.label, cell.triple, cell.replicate, cell.structure, cell.dataset,
                 label, name, dict(hyper),
                 derive_seed(seed, "bench", regime.triples.index(cell.triple),
                             cell.replicate, label),
                 timeout_sec, fraction, strict_loglik)
                for label, name, hyper in learners
            ]
            runner = pool.map if pool else map
            rows.extend(runner(_benchmark_cell, jobs))
    finally:
        if pool:
            pool.shutdown()
    return BenchmarkResult(rows=tuple(rows))
