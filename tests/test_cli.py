import json
import hashlib
from pathlib import Path

import numpy as np
import pytest

from dbnlearn.cli import main, parse_experiment_config, SchemaError
from dbnlearn.io import dataset_from_csv, dataset_to_csv, read_dataset, write_dataset
from dbnlearn.simulate import EdgeProbs, GeneratorConfig, sample_random_dbn, sample_trajectories

from conftest import continuous_dataset, discrete_dataset


def write_config(path, **overrides):
    doc = {
        "seed": 42,
        "out": str(path.parent / "out"),
        "regime": {"label": "mini", "triples": [[3, 10, 10]]},
        "replicates": 2,
        "generator": {
            "model": "cpt",
            "sharpen": 3.0,
            "edge_probs": {"intra": 0.3, "inter": 0.4, "auto": 0.3},
        },
        "learners": [
            {"name": "hill", "score": "bic", "restarts": 2},
            {"name": "exact", "score": "bde"},
        ],
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return doc


def sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestConfigSchema:
    def test_missing_required_field_named(self, tmp_path):
        cfg = tmp_path / "c.json"
        doc = write_config(cfg)
        doc.pop("seed")
        cfg.write_text(json.dumps(doc))
        assert main(["generate", "--config", str(cfg)]) == 2

    def test_unknown_key_rejected(self):
        with pytest.raises(SchemaError, match="unknown field 'frobnicate'"):
            parse_experiment_config({"seed": 1, "regime": "favorable",
                                     "generator": {}, "frobnicate": True})

    def test_nested_unknown_key_rejected(self):
        with pytest.raises(SchemaError, match="generator.n_x"):
            parse_experiment_config({"seed": 1, "regime": "favorable",
                                     "generator": {"n_x": 3}})

    def test_edge_probability_out_of_range_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        doc = write_config(cfg)
        doc["generator"]["edge_probs"]["intra"] = 1.5
        cfg.write_text(json.dumps(doc))
        assert main(["generate", "--config", str(cfg)]) == 2
        assert "edge probability intra=1.5" in capsys.readouterr().err

    def test_ternary_covariate_for_a_binary_kernel_is_schema_error(self):
        with pytest.raises(SchemaError, match="generator: noisy_or kernels need binary"):
            parse_experiment_config({"seed": 1, "regime": "favorable",
                                     "generator": {"model": "noisy_or", "z_arity": 3}})

    def test_invalid_json_reports_line(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{\n  \"seed\": 1,\n}")
        assert main(["generate", "--config", str(cfg)]) == 2

    def test_unknown_learner_name(self):
        with pytest.raises(SchemaError, match="valid names"):
            parse_experiment_config({
                "seed": 1, "regime": "favorable", "generator": {},
                "learners": [{"name": "magic"}]})


class TestGenerate:
    def test_file_shapes_and_manifest(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        write_config(cfg, regime={"label": "mini", "triples": [[3, 30, 10]]},
                     replicates=1)
        assert main(["generate", "--config", str(cfg)]) == 0
        manifest = capsys.readouterr().out.strip().splitlines()
        assert len(manifest) == 4 and all("sha256=" in line for line in manifest)
        cell = tmp_path / "out" / "mini" / "n3_N30_T10" / "rep00"
        data_rows = (cell / "data.csv").read_text().strip().splitlines()
        assert data_rows[0] == "traj,t,x1,x2,x3"
        assert len(data_rows) == 1 + 30 * 11  # header + N * (T + 1)
        truth = json.loads((cell / "truth.json").read_text())
        assert truth["n_x"] == 3

    def test_idempotent_reruns(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(cfg, replicates=1)
        main(["generate", "--config", str(cfg)])
        first = sha(tmp_path / "out" / "mini" / "n3_N10_T10" / "rep00" / "data.csv")
        main(["generate", "--config", str(cfg)])
        assert sha(tmp_path / "out" / "mini" / "n3_N10_T10" / "rep00" / "data.csv") == first


@pytest.fixture
def generated(tmp_path):
    cfg = tmp_path / "c.json"
    write_config(cfg, replicates=1)
    main(["generate", "--config", str(cfg)])
    return tmp_path, tmp_path / "out" / "mini" / "n3_N10_T10" / "rep00"


class TestLearnCommand:
    def test_report_written_and_deterministic(self, generated):
        tmp_path, cell = generated
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        argv = ["learn", "--data", str(cell / "data.csv"), "--learner", "exact",
                "--score", "bde", "--seed", "42"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        report = json.loads(out1.read_text())
        assert report["learner"] == "exact" and "wall" not in json.dumps(report)

    def test_unknown_learner_usage_error(self, generated, capsys):
        _, cell = generated
        code = main(["learn", "--data", str(cell / "data.csv"), "--learner", "zap"])
        assert code == 2
        assert "valid names" in capsys.readouterr().err

    def test_domain_guard_maps_to_data_error(self, generated):
        _, cell = generated
        code = main(["learn", "--data", str(cell / "data.csv"),
                     "--learner", "dynotears"])
        assert code == 3

    def test_unknown_hyperparameter_is_usage_error(self, generated):
        _, cell = generated
        code = main(["learn", "--data", str(cell / "data.csv"), "--learner", "hill",
                     "--hyper", "warp=9"])
        assert code == 2

    @pytest.mark.parametrize("learner, pair", [
        ("hill", "max_intra=abc"), ("bounded", "b_w=abc"), ("dynotears", "lambda_w=null"),
        ("dynotears", "max_outer=2.5")])
    def test_mistyped_hyperparameter_is_usage_error(self, generated, capsys, learner, pair):
        _, cell = generated
        code = main(["learn", "--data", str(cell / "data.csv"), "--learner", learner,
                     "--hyper", pair])
        assert code == 2
        assert f"hyperparameter {pair.split('=')[0]} must be of type" in capsys.readouterr().err


class TestScoreAndCheck:
    def test_config_error_is_usage_error(self, generated, monkeypatch, capsys):
        import dbnlearn.cli as cli
        from dbnlearn.core import ConfigError

        def refuse(*args, **kwargs):
            raise ConfigError("unknown score kind 'zap'")

        monkeypatch.setattr(cli, "family_score", refuse)
        _, cell = generated
        code = main(["score", "--data", str(cell / "data.csv"), "--node", "0", "--kind", "bic"])
        assert code == 2
        assert "unknown score kind" in capsys.readouterr().err

    def test_underdetermined_fit_maps_to_data_error(self, tmp_path, capsys):
        # 2 usable transitions for intercept + 2 slopes + variance
        ds = continuous_dataset(np.random.default_rng(0).normal(size=(1, 3, 3)))
        write_dataset(ds, tmp_path / "data.csv")
        code = main(["score", "--data", str(tmp_path / "data.csv"), "--node", "0",
                     "--parents", "inter:1,inter:2", "--kind", "bic"])
        assert code == 3
        assert "data error: 2 usable transitions" in capsys.readouterr().err

    def test_score_prints_value(self, generated, capsys):
        _, cell = generated
        assert main(["score", "--data", str(cell / "data.csv"), "--node", "0",
                     "--parents", "inter:1", "--kind", "bde"]) == 0
        value = float(capsys.readouterr().out)
        assert value < 0

    def test_check_reports_summary(self, generated, capsys):
        _, cell = generated
        assert main(["check", "--data", str(cell / "data.csv"),
                     "--truth", str(cell / "truth.json"),
                     "--params", str(cell / "params.json")]) == 0
        out = capsys.readouterr().out
        assert "N=10 T=10 n_x=3" in out and "acyclic" in out

    def test_check_rejects_mismatched_truth(self, generated, tmp_path, capsys):
        _, cell = generated
        other = tmp_path / "other.json"
        other.write_text(json.dumps({
            "n_x": 2, "n_z": 0, "p": 1, "intra": [[0, 0], [0, 0]],
            "inter": [[0, 0], [0, 0]], "auto_lags": [[], []], "static_edges": []}))
        assert main(["check", "--data", str(cell / "data.csv"),
                     "--truth", str(other)]) == 4


class TestMalformedFiles:
    """A fault in a data or config file reaches the CLI as a typed error naming the file."""

    DATA = "traj,t,x1,x2\n0,0,0,1\n0,1,1,0\n0,2,1,1\n"
    STATIC = "traj,z1\n0,1\n"

    @pytest.mark.parametrize("data, static, arity, where", [
        ("traj,t,x1,x2\n0,0,0,1\n0,1,0.5,0\n0,2,1,1\n", None, 2, "line 3, field x1: '0.5'"),
        ("traj,t,x1,x2\n0,0,0,1\na,1,1,0\n0,2,1,1\n", None, None, "line 3, field traj: 'a'"),
        ("traj,t,x1,x2\n0,0,0,1\n0,1,1,0\n0,2,1,abc\n", None, None, "line 4, field x2: 'abc'"),
        (DATA, "traj,z1\n0,x\n", None, "line 2, field z1: 'x'"),
        ("traj,t,x1,x2\n0,0,0,1\n0,1,2,0\n0,2,1,1\n", None, 2, "line 3, field x1: 2 is outside 0..1"),
        (DATA, "traj,z1\n0,2\n", 2, "line 2, field z1: 2 is outside 0..1"),
        ("traj,t,x1,x2\n0,0,0,1\n0,1,1,0\n0,2,-1,1\n", None, None,
         "line 4, field x1: -1 is outside 0..1"),
    ], ids=["float-data-with-arity", "traj-field", "value", "static-value", "value-above-arity",
            "static-value-above-arity", "negative-value"])
    def test_bad_value_is_data_error_naming_file_and_field(self, tmp_path, capsys,
                                                           data, static, arity, where):
        (tmp_path / "data.csv").write_text(data)
        args = ["check", "--data", str(tmp_path / "data.csv")]
        if static is not None:
            (tmp_path / "static.csv").write_text(static)
        if arity is not None:
            args += ["--arity", str(arity)]
        assert main(args) == 3
        err = capsys.readouterr().err
        name = "static.csv" if static is not None else "data.csv"
        assert err.startswith("data error: ") and f"{tmp_path / name} {where}" in err

    def test_missing_data_file_is_data_error(self, tmp_path, capsys):
        assert main(["check", "--data", str(tmp_path / "missing.csv")]) == 3
        assert str(tmp_path / "missing.csv") in capsys.readouterr().err

    def test_missing_config_is_schema_error(self, tmp_path, capsys):
        assert main(["generate", "--config", str(tmp_path / "missing.json")]) == 2
        assert str(tmp_path / "missing.json") in capsys.readouterr().err

    def test_forced_arity_parses_once(self, tmp_path, capsys, monkeypatch):
        import dbnlearn.cli as cli

        (tmp_path / "data.csv").write_text(self.DATA)
        (tmp_path / "static.csv").write_text(self.STATIC)
        calls = []
        monkeypatch.setattr(cli, "read_dataset",
                            lambda *a, **k: calls.append(a) or read_dataset(*a, **k))
        ds = cli._load_cli_dataset(cli.build_parser().parse_args(
            ["check", "--data", str(tmp_path / "data.csv"), "--arity", "3"]))
        assert len(calls) == 1
        assert (ds.domain.x_arities, ds.domain.z_arities) == ((3, 3), (3,))
        assert ds == read_dataset(tmp_path / "data.csv", tmp_path / "static.csv",
                                  x_arities=(3, 3), z_arities=(3,))


class TestBenchmarkCommand:
    def test_csv_and_tables_written(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        write_config(cfg, replicates=2,
                     regime={"label": "mini", "triples": [[2, 8, 6], [3, 6, 6]]})
        assert main(["benchmark", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "AUROC" in out and "SHD" in out
        rows = (tmp_path / "out" / "results.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 2 * 2 * 2  # header + learners x triples x reps
        assert (tmp_path / "out" / "timings.csv").exists()

    def test_failed_cell_reason_in_sidecar(self, tmp_path):
        cfg = tmp_path / "c.json"
        # BGe on the CPT generator's discrete data fails in every cell of that learner
        write_config(cfg, replicates=1, regime={"label": "mini", "triples": [[2, 6, 6]]},
                     learners=[{"name": "hill", "score": "bic"},
                               {"name": "hill", "score": "bge", "label": "hill-bge"}])
        assert main(["benchmark", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        results = out / "results.csv"
        header = results.read_text().splitlines()[0]
        assert header == "regime,n,N,T,learner,replicate,seed,shd,auroc,train_ll,test_ll,status"
        assert "Error" not in results.read_text()
        cells = [json.loads(line) for line in (out / "cells.jsonl").read_text().splitlines()]
        assert len(cells) == 2
        ok, failed = cells
        assert ok["status"] == "OK" and ok["error"] == ""
        assert failed["status"] == "E" and failed["learner"] == "hill-bge"
        assert failed["error"] == "DomainMismatchError: bge_family_score needs a continuous dataset"
        assert {k: failed[k] for k in ("regime", "n", "N", "T", "replicate")} == \
            {"regime": "mini", "n": 2, "N": 6, "T": 6, "replicate": 0}

    def test_eval_alias(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(cfg, replicates=1,
                     regime={"label": "mini", "triples": [[2, 6, 6]]})
        assert main(["eval", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "results.csv").exists()


class TestCsvRoundTrip:
    def test_discrete_exact(self, rng):
        ds = discrete_dataset((rng.random((4, 6, 3)) < 0.5).astype(int),
                              z=(rng.random((4, 2)) < 0.5).astype(int))
        data_csv, static_csv = dataset_to_csv(ds)
        back = dataset_from_csv(data_csv, static_csv,
                                x_arities=ds.domain.x_arities,
                                z_arities=ds.domain.z_arities)
        assert np.array_equal(back.x, ds.x) and np.array_equal(back.z, ds.z)
        assert back.domain == ds.domain

    def test_continuous_bit_exact(self, rng):
        ds = continuous_dataset(rng.normal(size=(3, 5, 2)), z=rng.normal(size=(3, 1)))
        data_csv, static_csv = dataset_to_csv(ds)
        back = dataset_from_csv(data_csv, static_csv)
        assert np.array_equal(back.x, ds.x) and np.array_equal(back.z, ds.z)

    def test_file_round_trip(self, tmp_path):
        cfg = GeneratorConfig(n_x=2, n_z=1, model="cpt", seed=1,
                              edge_probs=EdgeProbs(inter=0.5, static=0.5))
        structure, params = sample_random_dbn(cfg)
        ds = sample_trajectories(structure, params, 5, 6, seed=2,
                                 x_arities=(2, 2), z_arities=(2,))
        write_dataset(ds, tmp_path / "data.csv", tmp_path / "static.csv")
        back = read_dataset(tmp_path / "data.csv", tmp_path / "static.csv",
                            x_arities=(2, 2), z_arities=(2,))
        assert np.array_equal(back.x, ds.x) and np.array_equal(back.z, ds.z)
