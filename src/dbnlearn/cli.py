"""Batch command-line surface: generate, learn, eval, benchmark, score, check.

Commands are idempotent: identical inputs and seeds produce byte-identical
outputs (timing measurements are kept out of the deterministic artifacts;
benchmark wall times go to a ``timings.csv`` sidecar, and each cell's
status with the reason it failed to a ``cells.jsonl`` sidecar).

Exit codes:
  0  success
  2  usage error, config schema violation, or an unknown learner, score
     kind or hyperparameter or a setting out of range (``ConfigError``)
  3  data error (malformed dataset, wrong domain, bad split, fewer usable
     rows than parameters)
  4  model error (inconsistent structure/parameters, size guard, cycles)
  5  optimizer failure or cell time limit
  1  unexpected failure
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, field, fields as dataclass_fields, replace
from pathlib import Path

import numpy as np

from .core import (
    ConfigError, CycleError, DataError, DbnError, DbnStructure, DimensionError, Domain,
    DomainMismatchError, ModelError, OptimizerError, Parent, SizeGuardError,
    SplitError, TrajectoryDataset, UnderdeterminedError,
)
from .evaluate import run_benchmark
from .io import (
    load_params, load_structure, read_dataset, save_params, save_structure,
    write_dataset,
)
from .learn import LEARNERS, CellTimeout, Deadline, run_learner
from .scoring import SCORE_KINDS, family_score
from .simulate import (
    REGIMES, EdgeProbs, GeneratorConfig, RegimeSpec, regime_datasets,
)


class SchemaError(DbnError):
    """Experiment config violates the schema; the message names the field."""


# ---------------------------------------------------------------------------
# Experiment configuration


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated declarative experiment: generator + regime + learner list."""

    seed: int
    regime: RegimeSpec
    generator: GeneratorConfig
    learners: tuple[tuple[str, str, dict], ...] = ()
    replicates: int = 10
    out: str = "runs"
    timeout_sec: float | None = None
    workers: int = 1
    holdout_fraction: float = 0.7
    strict_loglik: bool = False


def _require(d: dict, key: str, where: str):
    if key not in d:
        raise SchemaError(f"missing required field '{where}{key}'")
    return d[key]


def _check_unknown(d: dict, allowed, where: str):
    unknown = set(d) - set(allowed)
    if unknown:
        raise SchemaError(f"unknown field '{where}{sorted(unknown)[0]}'")


def _parse_generator(d: dict) -> GeneratorConfig:
    allowed = {f.name for f in dataclass_fields(GeneratorConfig)} - {"n_x", "seed"}
    _check_unknown(d, allowed, "generator.")
    kwargs = dict(d)
    if "edge_probs" in kwargs:
        ep = kwargs["edge_probs"]
        _check_unknown(ep, {"intra", "inter", "auto", "static"}, "generator.edge_probs.")
        kwargs["edge_probs"] = EdgeProbs(**ep)
    for key in ("weight_range", "intercept_range", "lambda0_range", "lambda_range"):
        if key in kwargs:
            kwargs[key] = tuple(kwargs[key])
    try:
        return GeneratorConfig(n_x=1, **kwargs)
    except (TypeError, ValueError, ModelError) as e:
        raise SchemaError(f"generator: {e}") from e


def _parse_regime(value) -> RegimeSpec:
    if isinstance(value, str):
        if value not in REGIMES:
            raise SchemaError(
                f"regime must be one of {sorted(REGIMES)} or an object with 'triples'")
        return REGIMES[value]
    _check_unknown(value, {"label", "triples"}, "regime.")
    triples = _require(value, "triples", "regime.")
    try:
        return RegimeSpec(label=str(value.get("label", "custom")),
                          triples=tuple(tuple(int(v) for v in t) for t in triples))
    except (TypeError, ValueError) as e:
        raise SchemaError(f"regime.triples: {e}") from e


def _parse_learners(entries) -> tuple[tuple[str, str, dict], ...]:
    out = []
    labels = set()
    for idx, entry in enumerate(entries):
        where = f"learners[{idx}]."
        if not isinstance(entry, dict):
            raise SchemaError(f"learners[{idx}] must be an object")
        name = _require(entry, "name", where)
        if name not in LEARNERS:
            raise SchemaError(
                f"{where}name: unknown learner {name!r}; valid names: {', '.join(sorted(LEARNERS))}")
        hyper = {k: v for k, v in entry.items() if k not in ("name", "label")}
        label = entry.get("label", name)
        if label in labels:
            raise SchemaError(f"{where}label: duplicate learner label {label!r}")
        labels.add(label)
        out.append((label, name, hyper))
    return tuple(out)


def parse_experiment_config(doc: dict) -> ExperimentConfig:
    """Validate the declarative experiment document; unknown keys are rejected."""
    if not isinstance(doc, dict):
        raise SchemaError("config root must be an object")
    allowed = {"seed", "out", "regime", "generator", "learners", "replicates",
               "timeout_sec", "workers", "holdout_fraction", "strict_loglik"}
    _check_unknown(doc, allowed, "")
    seed = _require(doc, "seed", "")
    if not isinstance(seed, int):
        raise SchemaError("'seed' must be an integer")
    regime = _parse_regime(_require(doc, "regime", ""))
    generator = _parse_generator(_require(doc, "generator", ""))
    learners = _parse_learners(doc.get("learners", []))
    replicates = doc.get("replicates", 10)
    if not isinstance(replicates, int) or replicates < 1:
        raise SchemaError("'replicates' must be a positive integer")
    fraction = doc.get("holdout_fraction", 0.7)
    if not 0.0 < fraction < 1.0:
        raise SchemaError("'holdout_fraction' must lie strictly between 0 and 1")
    return ExperimentConfig(
        seed=seed, regime=regime, generator=generator, learners=learners,
        replicates=replicates, out=str(doc.get("out", "runs")),
        timeout_sec=doc.get("timeout_sec"), workers=int(doc.get("workers", 1)),
        holdout_fraction=float(fraction), strict_loglik=bool(doc.get("strict_loglik", False)))


def load_experiment_config(path) -> ExperimentConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise SchemaError(f"{path}: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from e
    except (OSError, UnicodeDecodeError) as e:
        raise SchemaError(f"cannot read config: {e}") from e
    return parse_experiment_config(doc)


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.out is not None:
        updates["out"] = args.out
    if getattr(args, "workers", None) is not None:
        updates["workers"] = args.workers
    if getattr(args, "timeout_sec", None) is not None:
        updates["timeout_sec"] = args.timeout_sec
    if getattr(args, "strict_loglik", False):
        updates["strict_loglik"] = True
    return replace(config, **updates) if updates else config


# ---------------------------------------------------------------------------
# Commands


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cmd_generate(args) -> int:
    config = _apply_overrides(load_experiment_config(args.config), args)
    out_root = Path(config.out)
    manifest = []
    for cell in regime_datasets(config.regime, config.generator,
                                replicates=config.replicates, seed=config.seed):
        n, n_traj, horizon = cell.triple
        cell_dir = out_root / config.regime.label / f"n{n}_N{n_traj}_T{horizon}" / f"rep{cell.replicate:02d}"
        cell_dir.mkdir(parents=True, exist_ok=True)
        save_structure(cell.structure, cell_dir / "truth.json")
        save_params(cell.params, cell_dir / "params.json")
        write_dataset(cell.dataset, cell_dir / "data.csv", cell_dir / "static.csv")
        for fname in ("truth.json", "params.json", "data.csv", "static.csv"):
            path = cell_dir / fname
            manifest.append(f"{path}\tseed={cell.seed}\tsha256={_sha256(path)}")
    text = "\n".join(manifest) + "\n"
    out_root.mkdir(parents=True, exist_ok=True)
    (out_root / "manifest.txt").write_text(text)
    sys.stdout.write(text)
    return 0


def _parse_hyper(pairs) -> dict:
    hyper = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise SchemaError(f"--hyper expects key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            hyper[key] = json.loads(raw)
        except json.JSONDecodeError:
            hyper[key] = raw
    return hyper


def _load_cli_dataset(args):
    static = args.static if getattr(args, "static", None) else _sibling_static(args.data)
    ds = read_dataset(args.data, static)
    if getattr(args, "arity", None):
        xa, za = (args.arity,) * ds.n_x, (args.arity,) * ds.n_z
        if not ds.domain.discrete:  # some value is not an integer: parsing as one names it
            read_dataset(args.data, static, x_arities=xa, z_arities=za)
        ds = TrajectoryDataset(Domain("discrete", xa, za), ds.x, ds.z)
    return ds


def _sibling_static(data_path) -> str | None:
    candidate = Path(data_path).with_name("static.csv")
    return str(candidate) if candidate.exists() else None


def cmd_learn(args) -> int:
    dataset = _load_cli_dataset(args)
    hyper = _parse_hyper(args.hyper)
    if args.score is not None:
        hyper["score"] = args.score
    try:
        report = run_learner(args.learner, dataset, seed=args.seed or 0,
                             deadline=Deadline(args.timeout_sec), **hyper)
    except ValueError as e:
        raise SchemaError(str(e)) from e
    text = report.to_json()
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_benchmark(args) -> int:
    config = _apply_overrides(load_experiment_config(args.config), args)
    if not config.learners:
        raise SchemaError("benchmark needs at least one entry in 'learners'")
    result = run_benchmark(
        config.regime, config.learners, config.generator,
        replicates=config.replicates, seed=config.seed,
        timeout_sec=config.timeout_sec, fraction=config.holdout_fraction,
        strict_loglik=config.strict_loglik, workers=config.workers)
    out_root = Path(config.out)
    out_root.mkdir(parents=True, exist_ok=True)
    (out_root / "results.csv").write_text(result.to_csv())
    (out_root / "timings.csv").write_text(result.timings_csv())
    (out_root / "cells.jsonl").write_text(result.cells_jsonl())
    sys.stdout.write(result.text_tables())
    return 0


def _parse_parent_spec(spec: str) -> list[Parent]:
    parents = []
    if spec.strip() in ("", "-"):
        return parents
    for part in spec.split(","):
        try:
            kind, idx = part.strip().split(":")
            parents.append(Parent(kind, int(idx)))
        except ValueError as e:
            raise SchemaError(
                f"bad parent tag {part!r}; expected kind:index with kind in "
                "inter/intra/auto/static") from e
        if parents[-1].kind not in ("inter", "intra", "auto", "static"):
            raise SchemaError(f"bad parent kind {parents[-1].kind!r}")
    return parents


def cmd_score(args) -> int:
    dataset = _load_cli_dataset(args)
    parents = _parse_parent_spec(args.parents)
    value = family_score(dataset, args.node, parents, args.kind)
    sys.stdout.write(f"{value:.17g}\n")
    return 0


def cmd_check(args) -> int:
    dataset = _load_cli_dataset(args)
    lines = [
        f"dataset: N={dataset.N} T={dataset.T} n_x={dataset.n_x} n_z={dataset.n_z} "
        f"domain={dataset.domain.kind}",
    ]
    if args.truth:
        structure = load_structure(args.truth)
        if (structure.n_x, structure.n_z) != (dataset.n_x, dataset.n_z):
            raise DimensionError(
                f"structure ({structure.n_x}, {structure.n_z}) does not match "
                f"dataset ({dataset.n_x}, {dataset.n_z})")
        lines.append(f"structure: p={structure.p} edges={structure.edge_count()} (acyclic)")
        if args.params:
            params = load_params(args.params)
            if len(params) != structure.n_x:
                raise ModelError("parameter set does not cover every node")
            lines.append(f"params: kinds={{{', '.join(sorted({params.kind(i) for i in range(len(params))}))}}}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dbnlearn",
        description="Learn dynamic Bayesian network structure and parameters "
                    "from multi-trajectory time series.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config=False, data=False):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        if config:
            p.add_argument("--config", required=True, help="experiment config JSON")
            p.add_argument("--workers", type=int, default=None)
            p.add_argument("--timeout-sec", dest="timeout_sec", type=float, default=None)
            p.add_argument("--strict-loglik", dest="strict_loglik", action="store_true")
        if data:
            p.add_argument("--data", required=True, help="trajectory CSV (traj,t,x1..)")
            p.add_argument("--static", default=None, help="static covariate CSV")
            p.add_argument("--arity", type=int, default=None,
                           help="force a uniform discrete arity when parsing")

    p = sub.add_parser("generate", help="write truth/params/data files for a regime")
    add_common(p, config=True)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("learn", help="run one learner on one dataset")
    add_common(p, data=True)
    p.add_argument("--learner", required=True,
                   help=f"one of: {', '.join(sorted(LEARNERS))}")
    p.add_argument("--score", default=None, choices=list(SCORE_KINDS),
                   help="score kind for the combinatorial learners")
    p.add_argument("--hyper", action="append", metavar="KEY=VALUE",
                   help="learner hyperparameter (repeatable)")
    p.add_argument("--timeout-sec", dest="timeout_sec", type=float, default=None)
    p.set_defaults(fn=cmd_learn)

    for name in ("benchmark", "eval"):
        p = sub.add_parser(name, help="run the benchmark sweep from a config"
                           + (" (alias of benchmark)" if name == "eval" else ""))
        add_common(p, config=True)
        p.set_defaults(fn=cmd_benchmark)

    p = sub.add_parser("score", help="score one (node, parent set) family")
    add_common(p, data=True)
    p.add_argument("--node", type=int, required=True)
    p.add_argument("--parents", default="",
                   help="comma list of kind:index tags, e.g. inter:0,intra:2")
    p.add_argument("--kind", required=True, choices=list(SCORE_KINDS))
    p.set_defaults(fn=cmd_score)

    p = sub.add_parser("check", help="validate a dataset (and optional truth files)")
    add_common(p, data=True)
    p.add_argument("--truth", default=None, help="structure JSON to validate")
    p.add_argument("--params", default=None, help="parameter JSON to validate")
    p.set_defaults(fn=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (SchemaError, ConfigError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (DataError, DomainMismatchError, SplitError, UnderdeterminedError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except (ModelError, DimensionError, CycleError, SizeGuardError) as e:
        print(f"model error: {e}", file=sys.stderr)
        return 4
    except (OptimizerError, CellTimeout) as e:
        print(f"optimizer error: {e}", file=sys.stderr)
        return 5
    except DbnError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
