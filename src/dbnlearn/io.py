"""File formats: structure/params JSON and the long-format trajectory CSVs.

``data.csv`` carries one row per (trajectory, time) with header
``traj,t,x1..xn``; static covariates live in a separate ``static.csv``
with header ``traj,z1..zm`` so variable counts never produce ragged
rows.  Continuous values are serialized with shortest round-trip
formatting (``repr``), so parse(write(dataset)) is exact for discrete
data and reproduces every float bit for continuous data.
"""

from __future__ import annotations

import csv
import io as _io
import json
from pathlib import Path

import numpy as np

from .core import (
    Cpt, DataError, DbnStructure, Domain, FactoredCpt, LinearGaussian, Logistic,
    ModelError, NoisyOr, ParameterSet, TrajectoryDataset,
)


def save_structure(structure: DbnStructure, path) -> None:
    Path(path).write_text(json.dumps(structure.to_json_dict()) + "\n")


def load_structure(path) -> DbnStructure:
    return DbnStructure.from_json_dict(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# Parameter serialization


def params_to_json(params: ParameterSet) -> list[dict]:
    out = []
    for node in range(len(params)):
        par = params[node]
        entry: dict = {"node": node, "kind": params.kind(node)}
        if isinstance(par, Cpt):
            entry["table"] = par.table.tolist()
        elif isinstance(par, FactoredCpt):
            entry["table_dyn"] = par.table_dyn.tolist()
            entry["table_stat"] = par.table_stat.tolist()
        elif isinstance(par, NoisyOr):
            entry["lambda0"] = par.lam0
            entry["lambda"] = list(par.lam)
        elif isinstance(par, Logistic):
            entry["beta0"] = par.beta0
            entry["beta"] = par.beta.tolist()
        elif isinstance(par, LinearGaussian):
            entry["beta0"] = par.beta0
            entry["beta"] = par.beta.tolist()
            entry["sigma2"] = par.sigma2
        out.append(entry)
    return out


def params_from_json(entries: list[dict]) -> ParameterSet:
    """Parameters from :func:`params_to_json` entries; keys it does not read are ignored."""
    families = []
    for entry in sorted(entries, key=lambda e: e["node"]):
        kind = entry["kind"]
        if kind == "cpt":
            families.append(Cpt(table=np.asarray(entry["table"], dtype=float)))
        elif kind == "factored":
            families.append(FactoredCpt(
                table_dyn=np.asarray(entry["table_dyn"], dtype=float),
                table_stat=np.asarray(entry["table_stat"], dtype=float)))
        elif kind == "noisy_or":
            families.append(NoisyOr(lam0=float(entry["lambda0"]),
                                    lam=tuple(float(v) for v in entry["lambda"])))
        elif kind == "logistic":
            families.append(Logistic(beta0=float(entry["beta0"]),
                                     beta=np.asarray(entry["beta"], dtype=float)))
        elif kind == "linear_gaussian":
            families.append(LinearGaussian(beta0=float(entry["beta0"]),
                                           beta=np.asarray(entry["beta"], dtype=float),
                                           sigma2=float(entry["sigma2"])))
        else:
            raise ModelError(f"unknown family kind {kind!r}")
    return ParameterSet(families=tuple(families))


def save_params(params: ParameterSet, path) -> None:
    Path(path).write_text(json.dumps(params_to_json(params)) + "\n")


def load_params(path) -> ParameterSet:
    return params_from_json(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# Trajectory CSV


def _fmt(value, discrete: bool) -> str:
    return str(int(value)) if discrete else repr(float(value))


def dataset_to_csv(dataset: TrajectoryDataset) -> tuple[str, str]:
    """Render (data_csv, static_csv) text for a dataset."""
    discrete = dataset.domain.discrete
    data = _io.StringIO()
    writer = csv.writer(data, lineterminator="\n")
    writer.writerow(["traj", "t"] + [f"x{v + 1}" for v in range(dataset.n_x)])
    for n in range(dataset.N):
        for t in range(dataset.T + 1):
            writer.writerow([n, t] + [_fmt(v, discrete) for v in dataset.x[n, t]])
    static = _io.StringIO()
    writer = csv.writer(static, lineterminator="\n")
    writer.writerow(["traj"] + [f"z{v + 1}" for v in range(dataset.n_z)])
    for n in range(dataset.N):
        writer.writerow([n] + [_fmt(v, discrete) for v in dataset.z[n]])
    return data.getvalue(), static.getvalue()


def write_dataset(dataset: TrajectoryDataset, data_path, static_path=None) -> None:
    data_csv, static_csv = dataset_to_csv(dataset)
    Path(data_path).write_text(data_csv)
    if static_path is not None:
        Path(static_path).write_text(static_csv)


def dataset_from_csv(data_csv: str, static_csv: str | None = None,
                     x_arities=None, z_arities=None,
                     names: tuple[str, str] = ("data CSV", "static CSV")) -> TrajectoryDataset:
    """Parse the CSV pair back into a dataset.

    The domain is discrete when every value parses as an integer; its
    arities default to observed max + 1 (at least 2) unless given
    explicitly.  Trajectories must share one length.  A malformed file
    raises :class:`DataError` naming it (``names`` holds the data and
    static file names), and a bad value, or a discrete one outside its
    arity, also its line and field.
    """
    data_name, static_name = names
    rows = list(csv.reader(_io.StringIO(data_csv)))
    if not rows or rows[0][:2] != ["traj", "t"]:
        raise DataError(f"{data_name} must start with header traj,t,x1..")
    header = rows[0]
    n_x = len(header) - 2
    cells: dict[int, dict[int, tuple[int, list[str]]]] = {}
    for line, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != n_x + 2:
            raise DataError(f"{data_name} line {line} has {len(row)} fields, expected {n_x + 2}")
        traj, t = (_parse(v, int, data_name, line, name) for v, name in zip(row[:2], header))
        cells.setdefault(traj, {})[t] = (line, row[2:])
    if not cells:
        raise DataError(f"{data_name} has no rows")
    trajs = sorted(cells)
    lengths = {len(cells[n]) for n in trajs}
    if trajs != list(range(len(trajs))) or len(lengths) != 1:
        raise DataError(f"{data_name}: trajectories must be 0..N-1, every one with the same length")
    horizon = lengths.pop() - 1
    for n in trajs:
        if sorted(cells[n]) != list(range(horizon + 1)):
            raise DataError(f"{data_name}: trajectory {n} is missing time points")
    # (file name, header, line, values) of every record, x slices first, then static rows
    records = [(data_name, header[2:], *cells[n][t]) for n in trajs for t in range(horizon + 1)]

    n_z = 0
    if static_csv is not None:
        srows = list(csv.reader(_io.StringIO(static_csv)))
        if not srows or srows[0][:1] != ["traj"]:
            raise DataError(f"{static_name} must start with header traj,z1..")
        n_z = len(srows[0]) - 1
        seen = {}
        for line, row in enumerate(srows[1:], start=2):
            if not row:
                continue
            if len(row) != n_z + 1:
                raise DataError(f"{static_name} line {line} has {len(row)} fields, expected {n_z + 1}")
            seen[_parse(row[0], int, static_name, line, "traj")] = (line, row[1:])
        if n_z and sorted(seen) != trajs:
            raise DataError(f"{static_name}: trajectories do not match {data_name}")
        records += [(static_name, srows[0][1:], *seen[n]) for n in trajs] if n_z else []

    flat = [v for *_, values in records for v in values]
    discrete = x_arities is not None or (bool(flat) and all(_is_int(v) for v in flat))
    parse = int if discrete else float
    values = [[_parse(v, parse, name, line, field) for v, field in zip(vals, fields)]
              for name, fields, line, vals in records]
    n_x_rows = len(trajs) * (horizon + 1)
    x = np.asarray(values[:n_x_rows], dtype=parse).reshape(len(trajs), horizon + 1, n_x)
    z = np.asarray(values[n_x_rows:], dtype=parse).reshape(len(trajs), n_z)
    if discrete:
        xa = tuple(x_arities) if x_arities is not None else tuple(
            max(2, int(x[:, :, v].max()) + 1) for v in range(n_x))
        za = tuple(z_arities) if z_arities is not None else tuple(
            max(2, int(z[:, v].max()) + 1) for v in range(n_z))
        for k, (name, fields, line, _) in enumerate(records):
            for v, field, arity in zip(values[k], fields, xa if k < n_x_rows else za):
                if not 0 <= v < arity:
                    raise DataError(f"{name} line {line}, field {field}: {v} is outside 0..{arity - 1}")
        domain = Domain("discrete", x_arities=xa, z_arities=za)
    else:
        domain = Domain("continuous")
    return TrajectoryDataset(domain=domain, x=x, z=z)


def _parse(text: str, parse, name: str, line: int, field: str):
    """``parse(text)`` for ``int`` or ``float``; a value it refuses raises DataError naming where it is."""
    try:
        return parse(text)
    except ValueError:
        kind = "an integer" if parse is int else "a number"
        raise DataError(f"{name} line {line}, field {field}: {text!r} is not {kind}") from None


def _is_int(s: str) -> bool:
    try:
        int(s)
        return True
    except ValueError:
        return False


def read_dataset(data_path, static_path=None, x_arities=None, z_arities=None) -> TrajectoryDataset:
    """Dataset of a data CSV and an optional static CSV; a missing static file is skipped."""
    try:
        data_csv = Path(data_path).read_text()
        static_csv = Path(static_path).read_text() \
            if static_path and Path(static_path).exists() else None
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"cannot read dataset file: {e}") from e
    return dataset_from_csv(data_csv, static_csv, x_arities=x_arities, z_arities=z_arities,
                            names=(str(data_path), str(static_path)))
