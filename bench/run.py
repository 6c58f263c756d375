"""Benchmark of dbnlearn's four learners on favourable and high-dimensional data.

Run from the root of the repository:

    python3 bench/run.py --workload favorable --seed 1 --seconds 40 --trace 0

One run generates its workload's inputs from ``--seed`` (imports plus
``regime_datasets``, repeated ``SETUP_REPEATS`` times for ``setup_s``),
then runs closed rounds until ``--seconds`` have passed.  A round runs
every cell once, one at a time in this process, with the calls that
``dbnlearn benchmark`` makes at one worker: ``holdout_loglik`` around
``run_learner``, then ``shd`` and ``auroc`` over an ``EdgeUniverse``.
The first round's outputs are checked against the benchmark's own
computations (``checks.py``); every later round must reproduce them
bit for bit.  ``--trace 1`` follows the untraced rounds with traced ones
and reports per-module metrics instead of the end-to-end ones.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` cell counts, and ``metrics``.  Run details
go to ``.bench_out/``.  The exit code is 1 when a check fails and 2
when the program cannot be found or an argument is wrong.
"""

import os
import sys
import time

_START = time.perf_counter()
# BLAS is pinned to one thread before numpy loads: on two CPUs the default
# thread pool makes tiny matrix products slower and their timings noisy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
from tracer import Tracer, calls_under, span_totals  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 3
FRACTION = 0.7  # temporal hold-out split, as in ``dbnlearn benchmark``

# Generator templates (``GeneratorConfig`` fields; n_x comes from the triple).
CPT = {"model": "cpt", "x_arity": 2, "sharpen": 2.0,
       "edge_probs": {"intra": 0.1, "inter": 0.06, "auto": 0.5}}
LINEAR = {"model": "linear_gaussian", "sigma": 0.5, "weight_range": (0.3, 1.0),
          "edge_probs": {"intra": 0.2, "inter": 0.1, "auto": 0.5}}
SPARSE_LINEAR = {**LINEAR, "edge_probs": {"intra": 0.05, "inter": 0.05, "auto": 0.5}}
# Every node keeps its lag-1 self edge, so that no 3-variable truth is empty:
# AUROC is undefined for an empty truth (the program returns 0.5 with a
# warning, which the checks refuse).  With auto 0.5 a 3-variable truth is
# empty with probability 0.8^3 * 0.9^6 * 0.5^3 = 3.4%, so about one seed in
# eight would draw one among four replicates; seed 37 did.
AUTO_LINEAR = {**LINEAR, "edge_probs": {"intra": 0.2, "inter": 0.1, "auto": 1.0}}

# Every learner whose stopping point depends on the data runs on a fixed
# budget, so a cell's time measures the cost per iteration or move rather
# than the data: DYNOTEARS made 490 to 8,007 smooth() calls on five seeds
# of (8, 100, 200) with its convergence tests, and unbudgeted hill-BGe
# there took 4.0 to 8.3 s.  DYNOTEARS runs 4 x 250 iterations with inner
# tolerance 0, which it always exhausts; each hill climb stops after a
# fixed number of moves per restart.
DYNOTEARS = {"max_outer": 4, "max_inner": 250, "inner_tol": 0.0}

# workload -> data sets: (data label, generator, (n, N, T), replicates,
#                         learners (label, name, hyper))
# The sizes keep one round (every cell once) under about 15 s, so that a run
# measures several rounds and reports their median.  The favourable regime
# is one workload, so that each run can be longer within the same total
# time: on a shared 2-CPU machine the speed drifts by 20% or more from one
# minute to the next, and a longer run averages more of it.
WORKLOADS = {
    "favorable": (
        ("cpt", CPT, (8, 100, 200), 1, (
            ("hill-bic", "hill", {"score": "bic", "move_budget": 15}),
            ("exact-bde", "exact", {"score": "bde"}))),
        ("linear", LINEAR, (8, 50, 200), 1, (
            ("hill-bge", "hill", {"score": "bge", "restarts": 1, "move_budget": 15}),
            ("dynotears", "dynotears", DYNOTEARS))),
        # the BVLS iterations of one bounded cell vary with the data, 11k to
        # 19k at (4, 25, 200); four small replicates average that out
        ("auto-linear", AUTO_LINEAR, (3, 50, 200), 4, (
            ("bounded", "bounded", {}),)),
    ),
    "high-dimensional": (
        ("cpt", CPT, (10, 20, 40), 1, (
            ("exact-bde", "exact", {"score": "bde"}),)),
        ("cpt", CPT, (15, 40, 50), 1, (
            ("hill-bic", "hill", {"score": "bic", "move_budget": 20}),)),
        ("sparse-linear", SPARSE_LINEAR, (20, 40, 50), 1, (
            ("dynotears", "dynotears", DYNOTEARS),)),
    ),
}

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"),
              ("auroc_mean", "frac"), ("test_nll_ratio", "ratio"))
PER_LAYER = (
    ("simulate.truth_s", "s"), ("simulate.sample_s", "s"), ("simulate.draws", "count"),
    ("core.is_acyclic.calls", "count"), ("core.is_acyclic.s", "s"),
    ("core.structures", "count"),
    ("core.parent_columns.calls", "count"), ("core.parent_columns.s", "s"),
    ("scoring.lookups", "count"), ("scoring.families_scored", "count"),
    ("scoring.cache_hit_ratio", "frac"), ("scoring.family_score.s", "s"),
    ("scoring.count_transitions.calls", "count"), ("scoring.count_transitions.s", "s"),
    ("scoring.rows_counted", "count"),
    ("scoring.bge.calls", "count"), ("scoring.bge.s", "s"),
    ("scoring.fit_linear_gaussian.calls", "count"), ("scoring.fit_linear_gaussian.s", "s"),
    ("acyclicity.expm.calls", "count"), ("acyclicity.expm.s", "s"),
    ("acyclicity.repair.s", "s"),
    ("learn.exact.s", "s"), ("learn.exact.self_s", "s"),
    ("learn.hill.s", "s"), ("learn.hill.self_s", "s"), ("learn.hill.moves", "count"),
    ("learn.dynotears.s", "s"), ("learn.dynotears.self_s", "s"),
    ("learn.dynotears.outer", "count"),
    ("learn.bounded.s", "s"), ("learn.bounded.self_s", "s"),
    ("learn.bounded.lsq_linear.calls", "count"), ("learn.bounded.lstsq.calls", "count"),
    ("evaluate.holdout.self_s", "s"), ("evaluate.metrics.s", "s"),
    ("trace.overhead_s", "s"),
)


@dataclass
class Job:
    """One cell: a learner on one generated data set."""

    key: str
    name: str
    hyper: dict
    seed: int
    cell: object  # dbnlearn.simulate.RegimeCell


@dataclass
class Outcome:
    result: object = None  # dbnlearn.evaluate.HoldoutResult
    shd: int = 0
    auroc: float = 0.0
    error: str = ""
    digest: str = ""
    wall_s: float = 0.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def blas_threads():
    """Threads of the OpenBLAS that numpy loaded, asked through its own API."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment_line() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        vendor = "unknown"
    return (f"env: cpus={os.cpu_count()} blas={vendor} blas_threads={blas_threads()} "
            f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']} "
            f"OMP_NUM_THREADS={os.environ['OMP_NUM_THREADS']} "
            f"python={platform.python_version()} numpy={np.__version__} scipy={scipy.__version__}")


def generate(dl, workload: str, seed: int) -> list[Job]:
    """Every input of a workload, drawn by ``regime_datasets`` from the seed."""
    jobs = []
    for label, generator, triple, replicates, learners in WORKLOADS[workload]:
        gen = dict(generator, edge_probs=dl.EdgeProbs(**generator["edge_probs"]))
        master = dl.simulate.derive_seed(seed, label, *triple)
        regime = dl.RegimeSpec(label, (triple,))
        for cell in dl.regime_datasets(regime, dl.GeneratorConfig(n_x=1, **gen),
                                       replicates=replicates, seed=master):
            for learner_label, name, hyper in learners:
                key = f"{label}{triple}#{cell.replicate}/{learner_label}"
                cell_seed = dl.simulate.derive_seed(master, "bench", 0, cell.replicate,
                                                    learner_label)
                jobs.append(Job(key, name, dict(hyper), cell_seed, cell))
    return jobs


def run_cell(ev, job: Job) -> Outcome:
    """The calls ``_benchmark_cell`` makes, through the evaluate module's bindings."""
    deadline = ev.Deadline(None)
    result = ev.holdout_loglik(
        job.cell.dataset,
        lambda train: ev.run_learner(job.name, train, seed=job.seed,
                                     deadline=deadline, **job.hyper),
        fraction=FRACTION, strict=False)
    truth = job.cell.structure
    universe = ev.EdgeUniverse.build(truth.n_x, truth.n_z,
                                     max(truth.p, result.report.structure.p))
    cell_shd = ev.shd(result.report.structure, truth)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cell_auroc = ev.auroc(universe.scores(result.report), universe.vector(truth))
    return Outcome(result=result, shd=cell_shd, auroc=cell_auroc)


def digest(job: Job, out: Outcome) -> str:
    if out.error:
        return hashlib.sha256(f"{job.key}|{out.error}".encode()).hexdigest()
    r = out.result
    doc = [job.key, r.report.structure.to_json_dict(), repr(r.report.score),
           repr(r.train_loglik), repr(r.test_loglik), out.shd, repr(out.auroc)]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def run_round(ev, jobs: list[Job]) -> tuple[float, float, list[Outcome]]:
    """One closed sweep over every cell; returns (wall s, CPU s, outcomes)."""
    wall = cpu = 0.0
    outcomes = []
    for job in jobs:
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            out = run_cell(ev, job)
        except Exception as exc:  # a failed cell is counted, never fatal
            out = Outcome(error=f"{type(exc).__name__}: {exc}")
        out.wall_s = time.perf_counter() - t0
        wall += out.wall_s
        cpu += time.process_time() - c0
        out.digest = digest(job, out)
        outcomes.append(out)
    return wall, cpu, outcomes


def run_rounds(ev, jobs, seconds: float, tracer=None) -> list[tuple]:
    """Whole rounds until ``seconds`` have passed (at least one).

    With a tracer, each round also carries the spans and counts it recorded.
    """
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        done = run_round(ev, jobs)
        rounds.append(done + tracer.take() if tracer else done)
    return rounds


def check_cell(dl, job: Job, out: Outcome, peers: dict) -> float:
    """Check one cell against the benchmark's own computations; returns its NLL ratio."""
    ds, truth = job.cell.dataset, job.cell.structure
    report = out.result.report
    x, z = ds.x, ds.z
    arities = (ds.domain.x_arities, ds.domain.z_arities) if ds.domain.discrete else (None, None)
    s = int(np.floor(FRACTION * ds.T))
    train = x[:, :s + 1]

    checks.require_acyclic(report.structure.intra)
    kind = job.hyper.get("score", {"exact": "bde", "hill": "bic"}.get(job.name, "ll"))
    own = checks.structure_score(kind, report.structure, train, z, *arities)
    checks.require_close("score", report.score, own)
    if job.name in ("exact", "hill"):
        cfg = dl.SearchConfig(**job.hyper)
        checks.require_parent_caps(report.structure, cfg.max_intra, cfg.max_inter,
                                   cfg.max_auto, cfg.max_static, cfg.p)
        empty = dl.DbnStructure.empty(ds.n_x, ds.n_z, cfg.p)
        checks.require_no_lower("score vs the empty graph", own,
                                checks.structure_score(kind, empty, train, z, *arities))
    if job.name == "exact" and "hill" in peers:
        checks.require_no_lower(
            "score vs the hill-climb structure", own,
            checks.structure_score(kind, peers["hill"].result.report.structure, train, z, *arities))
    if job.name == "hill":
        checks.require_monotone_trace(report.trace, report.score)
    if job.name == "bounded":
        cfg = dl.BoundedConfig(**job.hyper)
        checks.require(max(cfg.lambda_w_pos, cfg.lambda_w_neg, cfg.lambda_a_pos,
                           cfg.lambda_a_neg) == 0.0,
                       "the bounded objective check assumes zero penalties")
        w, a = report.extras["w"], report.extras["a"]
        checks.require_bounded_weights(w, a, cfg.b_w, cfg.b_a)
        checks.require_close("objective", report.extras["objective"],
                             checks.sem_sse(train, w, a))
        checks.require_close("empty objective", report.extras["empty_objective"],
                             checks.sem_sse(train, np.zeros_like(w), np.zeros_like(a)))
        checks.require(report.extras["objective"] <= report.extras["empty_objective"],
                       "objective exceeds the empty graph's")

    own_test, rows = checks.holdout_loglik(report.structure, x, z, s, *arities)
    checks.require(rows == ds.N * (ds.T - s),
                   f"test window holds {rows} transitions, not N(T - floor(0.7T))")
    checks.require_close("test loglik", out.result.test_loglik, own_test)
    checks.require(out.shd == checks.shd(report.structure, truth),
                   f"SHD {out.shd} != {checks.shd(report.structure, truth)}")
    universe = checks.edge_universe(truth.n_x, truth.n_z, max(truth.p, report.structure.p))
    truth_edges = checks.edge_set(truth)
    own_auroc = checks.mann_whitney_auc(
        checks.edge_scores(universe, report.structure, report.extras.get("w"),
                           report.extras.get("a")),
        [e in truth_edges for e in universe])
    checks.require_close("auroc", out.auroc, own_auroc)
    true_test = checks.true_loglik(truth, job.cell.params, x, z, s + 1, *arities)
    return out.result.test_loglik / true_test


def layer_metrics(names, spans, counts, generation) -> dict:
    """Per-layer values of one traced round; ``generation`` holds the traced set-up."""
    t = span_totals(names, spans)
    g = span_totals(names, generation[0])

    def get(label, field, source=t):
        return source.get(label, {}).get(field, 0)

    lookups = get("scoring.lookup", "calls")
    scored = get("scoring.family_score", "calls")
    return {
        "simulate.truth_s": get("simulate.truth", "s", g),
        "simulate.sample_s": get("simulate.sample", "s", g),
        "simulate.draws": generation[1]["simulate.draws"],
        "core.is_acyclic.calls": get("core.is_acyclic", "calls"),
        "core.is_acyclic.s": get("core.is_acyclic", "s"),
        "core.structures": get("core.structure", "calls"),
        "core.parent_columns.calls": get("core.parent_columns", "calls"),
        "core.parent_columns.s": get("core.parent_columns", "s"),
        "scoring.lookups": lookups,
        "scoring.families_scored": scored,
        "scoring.cache_hit_ratio": (lookups - scored) / lookups if lookups else 0.0,
        "scoring.family_score.s": get("scoring.family_score", "s"),
        "scoring.count_transitions.calls": get("scoring.count_transitions", "calls"),
        "scoring.count_transitions.s": get("scoring.count_transitions", "s"),
        "scoring.rows_counted": counts["scoring.rows_counted"],
        "scoring.bge.calls": get("scoring.bge", "calls"),
        "scoring.bge.s": get("scoring.bge", "s"),
        "scoring.fit_linear_gaussian.calls": get("scoring.fit_linear_gaussian", "calls"),
        "scoring.fit_linear_gaussian.s": get("scoring.fit_linear_gaussian", "s"),
        "acyclicity.expm.calls": get("acyclicity.expm", "calls"),
        "acyclicity.expm.s": get("acyclicity.expm", "s"),
        "acyclicity.repair.s": get("acyclicity.repair", "s"),
        "learn.exact.s": get("learn.exact", "s"),
        "learn.exact.self_s": get("learn.exact", "self_s"),
        "learn.hill.s": get("learn.hill", "s"),
        "learn.hill.self_s": get("learn.hill", "self_s"),
        "learn.hill.moves": counts["learn.hill.moves"],
        "learn.dynotears.s": get("learn.dynotears", "s"),
        "learn.dynotears.self_s": get("learn.dynotears", "self_s"),
        "learn.dynotears.outer": counts["learn.dynotears.outer"],
        "learn.bounded.s": get("learn.bounded", "s"),
        "learn.bounded.self_s": get("learn.bounded", "self_s"),
        "learn.bounded.lsq_linear.calls": get("learn.bounded.lsq_linear", "calls"),
        # lsq_linear calls lstsq itself; count only the learner's own calls
        "learn.bounded.lstsq.calls": calls_under(names, spans, "learn.bounded.lstsq",
                                                 "learn.bounded"),
        "evaluate.holdout.self_s": get("evaluate.holdout", "self_s"),
        "evaluate.metrics.s": get("evaluate.metrics", "s"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dbnlearn" / "__init__.py").is_file():
        print(f"error: the dbnlearn sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dbnlearn as dl
    import dbnlearn.evaluate as ev

    if Path(dl.__file__).resolve().parent != (SRC / "dbnlearn").resolve():
        print(f"error: imported dbnlearn from {dl.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _START
    environment = environment_line()
    print(environment, flush=True)

    generation_s = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        t0 = time.perf_counter()
        jobs = generate(dl, args.workload, args.seed)
        generation_s.append(time.perf_counter() - t0)
    print(f"setup: imports {import_s:.3f} s, inputs {', '.join(f'{g:.3f}' for g in generation_s)} s",
          flush=True)

    rounds = run_rounds(ev, jobs, args.seconds)
    traced, missing, generation = [], [], None
    if args.trace:
        tracer = Tracer()
        missing = tracer.install()
        try:
            traced_jobs = generate(dl, args.workload, args.seed)
            generation = tracer.take()
            traced = run_rounds(ev, traced_jobs, args.seconds, tracer)
        finally:
            tracer.restore()

    # checks run once, on the first round; every other round must repeat it exactly
    first = rounds[0][2]
    failures, problems, ratios = [], [], []
    peers_by_cell = {}
    for job, out in zip(jobs, first):
        if not out.error:
            peers_by_cell.setdefault(id(job.cell), {})[job.name] = out
    for job, out in zip(jobs, first):
        if out.error:
            failures.append({"cell": job.key, "error": out.error})
            continue
        try:
            ratios.append(check_cell(dl, job, out, peers_by_cell[id(job.cell)]))
        except checks.CheckFailure as exc:
            problems.append(f"{job.key}: {exc}")
    for other in rounds[1:] + [r[:3] for r in traced]:
        for job, a, b in zip(jobs, first, other[2]):
            if a.digest != b.digest:
                problems.append(f"{job.key}: a later round's output differs from the first")

    for job, out in zip(jobs, first):
        if out.error:
            print(f"cell {job.key}: FAILED {out.error}")
        else:
            rep = out.result.report
            print(f"cell {job.key}: {out.wall_s:.3f} s score={rep.score!r} "
                  f"test_ll={out.result.test_loglik!r} shd={out.shd} auroc={out.auroc!r} "
                  f"digest={out.digest[:16]}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    run_digest = hashlib.sha256("".join(o.digest for o in first).encode()).hexdigest()
    print(f"run digest {run_digest[:16]} over {len(first)} cells; "
          f"{len(rounds)} untraced and {len(traced)} traced rounds", flush=True)

    walls = [r[0] for r in rounds]
    ok = [o for o in first if not o.error]
    if args.trace:
        per_round = [layer_metrics(tracer.names, r[3], r[4], generation) for r in traced]
        values = {k: statistics.median(v[k] for v in per_round) for k in per_round[0]}
        values["trace.overhead_s"] = statistics.median(r[0] for r in traced) - statistics.median(walls)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
        if missing:
            print(f"trace: not found, reported as 0: {', '.join(missing)}")
    else:
        values = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(r[1] for r in rounds),
            "setup_s": import_s + statistics.median(generation_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "auroc_mean": statistics.fmean(o.auroc for o in ok) if ok else 0.0,
            "test_nll_ratio": statistics.fmean(ratios) if ratios else 0.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    attempted = len(jobs) * (len(rounds) + len(traced))
    failed = sum(1 for r in rounds + [t[:3] for t in traced] for o in r[2] if o.error)
    correct = not problems
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({
        "environment": environment, "digest": run_digest,
        "round_walls_s": walls, "setup_inputs_s": generation_s, "import_s": import_s,
        "cells": [{"cell": j.key, "digest": o.digest, "error": o.error, "wall_s": o.wall_s}
                  for j, o in zip(jobs, first)],
        "failures": failures, "check_failures": problems, "metrics": metrics,
    }, indent=1) + "\n")
    if args.trace:
        np.savez_compressed(
            OUT / f"{stem}-spans.npz", names=np.array(tracer.names),
            generation=generation[0],
            **{f"round{i}": r[3] for i, r in enumerate(traced)})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
