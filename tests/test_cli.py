"""Experiment runner: manifests, CSV schemas, reproducibility, CLI surface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import qkonc
from qkonc.cli import config_hash, main, point_rng, run_experiment

MANIFEST_KEYS = {
    "experiment",
    "config",
    "config_sha256",
    "master_seed",
    "seed_rule",
    "package_version",
    "threads",
    "wall_time_s",
    "outputs",
}


def read_header(path):
    return path.read_text().splitlines()[0].split(",")


def load_manifest(outdir):
    with open(outdir / "manifest.json") as fh:
        return json.load(fh)


class TestSeedingHelpers:
    def test_point_rng_is_deterministic(self):
        a = point_rng(42, 1, 2).random(5)
        b = point_rng(42, 1, 2).random(5)
        np.testing.assert_array_equal(a, b)

    def test_point_rng_streams_are_distinct(self):
        a = point_rng(42, 1, 2).random(5)
        b = point_rng(42, 2, 1).random(5)
        c = point_rng(43, 1, 2).random(5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_config_hash_is_order_insensitive(self):
        assert config_hash({"a": 1, "b": [2, 3]}) == config_hash({"b": [2, 3], "a": 1})
        assert config_hash({"a": 1}) != config_hash({"a": 2})


class TestManifest:
    def test_manifest_contents(self, tmp_path):
        cfg = {"family": "tensor_ry", "qubits": [2], "layers": [1], "pairs": 500}
        manifest = run_experiment("variance-scan", cfg, seed=7, out=tmp_path)
        assert MANIFEST_KEYS <= set(manifest)
        assert manifest["experiment"] == "variance-scan"
        assert manifest["master_seed"] == 7
        assert manifest["config"] == cfg
        assert manifest["config_sha256"] == config_hash(cfg)
        assert "backend" not in manifest
        assert manifest["threads"] == 1
        assert manifest["wall_time_s"] >= 0.0
        assert manifest["outputs"][0]["file"] == "variance_scan.csv"
        assert len(manifest["outputs"][0]["sha256"]) == 64
        assert load_manifest(tmp_path) == manifest

    def test_seed_from_config_and_override(self, tmp_path):
        cfg = {"family": "tensor_ry", "qubits": [2], "layers": [1], "pairs": 200, "seed": 5}
        m1 = run_experiment("variance-scan", cfg, out=tmp_path / "a")
        assert m1["master_seed"] == 5
        m2 = run_experiment("variance-scan", cfg, seed=9, out=tmp_path / "b")
        assert m2["master_seed"] == 9
        assert m1["outputs"][0]["sha256"] != m2["outputs"][0]["sha256"]

    def test_unknown_experiment(self, tmp_path):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_experiment("teleportation", {}, out=tmp_path)

    def test_env_thread_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QKONC_THREADS", "3")
        cfg = {"family": "tensor_ry", "qubits": [2], "layers": [1], "pairs": 200}
        manifest = run_experiment("variance-scan", cfg, seed=1, out=tmp_path)
        assert manifest["threads"] == 3


class TestReproducibility:
    CFG = {
        "family": "hardware_efficient",
        "qubits": [2, 3],
        "layers": [1, 2],
        "pairs": 400,
    }

    def test_rerun_is_byte_identical(self, tmp_path):
        m1 = run_experiment("variance-scan", self.CFG, seed=3, out=tmp_path / "a")
        m2 = run_experiment("variance-scan", self.CFG, seed=3, out=tmp_path / "b")
        b1 = (tmp_path / "a" / "variance_scan.csv").read_bytes()
        b2 = (tmp_path / "b" / "variance_scan.csv").read_bytes()
        assert b1 == b2
        assert m1["outputs"] == m2["outputs"]

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        run_experiment("variance-scan", self.CFG, seed=3, out=tmp_path / "a", threads=1)
        run_experiment("variance-scan", self.CFG, seed=3, out=tmp_path / "b", threads=4)
        b1 = (tmp_path / "a" / "variance_scan.csv").read_bytes()
        b2 = (tmp_path / "b" / "variance_scan.csv").read_bytes()
        assert b1 == b2

    def test_csv_format_conventions(self, tmp_path):
        run_experiment("variance-scan", self.CFG, seed=3, out=tmp_path)
        raw = (tmp_path / "variance_scan.csv").read_bytes()
        assert b"\r" not in raw
        assert b";" not in raw
        lines = raw.decode().splitlines()
        assert len(lines) == 1 + 4  # header + 2x2 sweep, ordered


class TestVarianceScan:
    def test_schema_and_values(self, tmp_path):
        cfg = {"family": "tensor_ry", "qubits": [2, 4], "layers": [1], "pairs": 150000}
        run_experiment("variance-scan", cfg, seed=11, out=tmp_path)
        path = tmp_path / "variance_scan.csv"
        assert read_header(path) == [
            "n",
            "layers",
            "pairs",
            "mean_fidelity",
            "var_fidelity",
            "mean_projected",
            "var_projected",
            "seed",
        ]
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        from qkonc.analysis import product_ry_moments

        for row in rows:
            n = int(row[0])
            mean, _, var = product_ry_moments(n)
            assert row[3] == pytest.approx(mean, rel=0.05)
            assert row[4] == pytest.approx(var, rel=0.1)
            assert int(row[7]) == 11


class TestExpressivity:
    def test_schema(self, tmp_path):
        cfg = {"family": "hardware_efficient", "qubits": [2], "layers": [1, 4], "samples": 400}
        run_experiment("expressivity", cfg, seed=2, out=tmp_path)
        path = tmp_path / "expressivity.csv"
        assert read_header(path) == [
            "n",
            "layers",
            "samples",
            "eps",
            "eps_mc_error",
            "bound_fidelity",
            "bound_projected",
            "seed",
        ]
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        assert rows.shape == (2, 8)
        assert np.all(rows[:, 3] >= 0.0)


class TestNoiseScan:
    def test_schema_and_bounds_hold(self, tmp_path):
        cfg = {
            "family": "hardware_efficient",
            "qubits": 2,
            "q_values": [0.9],
            "layers": [1, 3],
            "pairs": 1,
        }
        run_experiment("noise-scan", cfg, seed=4, out=tmp_path)
        path = tmp_path / "noise_scan.csv"
        assert read_header(path)[:4] == ["n", "q", "layers", "pairs"]
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        # measured deviations never exceed their bounds
        assert np.all(rows[:, 4] <= rows[:, 5] + 1e-12)
        assert np.all(rows[:, 6] <= rows[:, 7] + 1e-12)
        assert np.all(rows[:, 8] <= rows[:, 9] + 1e-12)


class TestGram:
    def test_outputs_and_zero_ratio(self, tmp_path):
        cfg = {
            "family": "hardware_efficient",
            "qubits": 3,
            "kernel": "fidelity",
            "dataset": {"source": "uniform", "count": 5},
        }
        manifest = run_experiment("gram", cfg, seed=6, out=tmp_path)
        assert {o["file"] for o in manifest["outputs"]} == {"gram.csv", "points.csv"}
        assert manifest["zero_ratio"] == 0.0  # exact kernel never hits 0 a.s.

        from qkonc.kernels import GramMatrix

        gm = GramMatrix.from_csv(tmp_path / "gram.csv")
        assert gm.matrix.shape == (5, 5)
        np.testing.assert_allclose(np.diag(gm.matrix), 1.0, atol=0.0)

    def test_manifest_names_row_seed_rule(self, tmp_path):
        cfg = {
            "family": "tensor_ry",
            "qubits": 2,
            "estimator": {"strategy": "loschmidt", "shots": 20},
            "dataset": {"source": "uniform", "count": 4},
        }
        manifest = run_experiment("gram", cfg, seed=6, out=tmp_path)
        assert "v2" in manifest["seed_rule"]
        assert "SeedSequence((estimator_seed, row_offset + row))" in manifest["seed_rule"]

    def test_estimated_gram_zero_ratio_rises_with_qubits(self, tmp_path):
        base = {
            "family": "tensor_ry",
            "kernel": "fidelity",
            "estimator": {"strategy": "loschmidt", "shots": 20},
            "dataset": {"source": "uniform", "count": 12},
        }
        small = run_experiment(
            "gram", {**base, "qubits": 2}, seed=6, out=tmp_path / "small"
        )
        big = run_experiment(
            "gram", {**base, "qubits": 12}, seed=6, out=tmp_path / "big"
        )
        assert big["zero_ratio"] > small["zero_ratio"]
        assert big["zero_ratio"] > 0.9


class TestTrain:
    def test_krr_interpolates_hypercube_labels(self, tmp_path):
        cfg = {
            "family": "hardware_efficient",
            "kernel": "fidelity",
            "algorithm": "krr",
            "dataset": {"source": "hypercube", "count": 8, "qubits": 3},
        }
        manifest = run_experiment("train", cfg, seed=8, out=tmp_path)
        assert {o["file"] for o in manifest["outputs"]} == {
            "model.json",
            "predictions.csv",
        }
        assert manifest["train_error_max"] < 1e-6
        assert manifest["condition_number"] > 1.0

        from qkonc.learning import TrainedModel

        model = TrainedModel.from_json((tmp_path / "model.json").read_text())
        assert model.algorithm == "krr"
        header = read_header(tmp_path / "predictions.csv")
        assert header == ["f1", "f2", "f3", "label", "prediction"]

    def test_svm_reports_convergence(self, tmp_path):
        cfg = {
            "family": "hardware_efficient",
            "algorithm": "svm",
            "dataset": {"source": "hypercube", "count": 8, "qubits": 3},
        }
        manifest = run_experiment("train", cfg, seed=8, out=tmp_path)
        assert manifest["converged"] is True
        assert manifest["iterations"] >= 1
        assert manifest["objective"] > 0.0

    def test_csv_dataset_source(self, tmp_path):
        from qkonc.datasets import gen_hypercube, save_csv

        data_path = tmp_path / "points.csv"
        save_csv(gen_hypercube(6, 2, np.random.default_rng(1)), data_path)
        cfg = {
            "family": "hardware_efficient",
            "algorithm": "krr",
            "ridge_sign": "plus",
            "lambda": 1e-8,
            "dataset": {"source": "csv", "path": str(data_path)},
        }
        manifest = run_experiment("train", cfg, seed=8, out=tmp_path / "out")
        assert manifest["train_error_max"] < 1e-3


class TestGeneralization:
    def test_schema_and_exact_arm_improves(self, tmp_path):
        cfg = {
            "qubits": 40,
            "train_sizes": [5, 20],
            "num_test": 8,
            "shots": 200,
            "repeats": 2,
        }
        run_experiment("generalization", cfg, seed=42, out=tmp_path)
        summary = np.loadtxt(tmp_path / "generalization.csv", delimiter=",", skiprows=1)
        assert read_header(tmp_path / "generalization.csv") == [
            "train_size",
            "eta_exact",
            "eta_estimated",
            "loss_exact_mean",
            "loss_estimated_mean",
            "seed",
        ]
        assert summary[0, 1] == pytest.approx(1.0, abs=1e-12)  # first size is baseline
        assert summary[-1, 1] < 1.0  # exact arm improves with data
        repeats = np.loadtxt(
            tmp_path / "generalization_repeats.csv", delimiter=",", skiprows=1
        )
        assert repeats.shape == (4, 6)  # 2 repeats x 2 sizes

    def test_repeats_parallelize_identically(self, tmp_path):
        cfg = {
            "qubits": 30,
            "train_sizes": [5, 10],
            "num_test": 5,
            "shots": 100,
            "repeats": 3,
        }
        run_experiment("generalization", cfg, seed=1, out=tmp_path / "a", threads=1)
        run_experiment("generalization", cfg, seed=1, out=tmp_path / "b", threads=3)
        assert (tmp_path / "a" / "generalization_repeats.csv").read_bytes() == (
            tmp_path / "b" / "generalization_repeats.csv"
        ).read_bytes()


class TestIndistinguishability:
    def test_zero_ratio_mode(self, tmp_path):
        cfg = {
            "mode": "zero_ratio",
            "qubits": [4, 12],
            "shots": [10],
            "pairs": 400,
        }
        run_experiment("indistinguishability", cfg, seed=3, out=tmp_path)
        path = tmp_path / "zero_ratio.csv"
        assert read_header(path) == ["n", "shots", "pairs", "zero_ratio", "seed"]
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        # more qubits -> smaller kernel values -> more all-zero outcome sets
        assert rows[1, 3] > rows[0, 3]

    def test_swap_test_mode(self, tmp_path):
        cfg = {
            "mode": "swap_test",
            "qubits": [2, 10],
            "pairs": 60,
            "shots": 2000,
            "alpha": 0.01,
        }
        run_experiment("indistinguishability", cfg, seed=3, out=tmp_path)
        path = tmp_path / "swap_success.csv"
        assert read_header(path) == ["n", "shots", "pairs", "alpha", "success_ratio", "seed"]
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        # rejection of the maximally-mixed null gets harder as kappa shrinks
        assert rows[1, 4] <= rows[0, 4]

    def test_decision_mode_respects_bound(self, tmp_path):
        cfg = {
            "mode": "decision",
            "shots": [1, 20],
            "eps": [0.0, 0.2],
            "trials": 4000,
        }
        run_experiment("indistinguishability", cfg, seed=3, out=tmp_path)
        rows = np.loadtxt(tmp_path / "decision.csv", delimiter=",", skiprows=1)
        assert read_header(tmp_path / "decision.csv") == [
            "shots",
            "eps",
            "trials",
            "success",
            "bound",
            "seed",
        ]
        assert np.all(rows[:, 3] <= rows[:, 4] + 0.02)

    def test_unknown_mode(self, tmp_path):
        import click

        with pytest.raises(click.ClickException, match="unknown mode"):
            run_experiment("indistinguishability", {"mode": "bell"}, out=tmp_path)


class TestKtaScan:
    def test_schema_and_bound_ordering(self, tmp_path):
        cfg = {"qubits": [2, 3], "points": 4, "num_thetas": 40}
        run_experiment("kta-scan", cfg, seed=5, out=tmp_path)
        path = tmp_path / "kta_scan.csv"
        assert read_header(path) == [
            "n",
            "points",
            "num_thetas",
            "ta_variance",
            "kernel_variance_sum",
            "bound_statement",
            "bound_proof",
            "seed",
        ]
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.all(rows[:, 3] <= rows[:, 5])  # variance below stated bound
        assert np.all(rows[:, 6] <= rows[:, 5])  # proof constant is smaller


class TestShotsBudgetAndBounds:
    def test_shots_budget_schema_and_growth(self, tmp_path):
        run_experiment("shots-budget", {"qubits": [2, 4, 6]}, seed=1, out=tmp_path)
        rows = np.loadtxt(tmp_path / "shots_budget.csv", delimiter=",", skiprows=1)
        assert read_header(tmp_path / "shots_budget.csv") == [
            "n",
            "variance",
            "shots",
            "seed",
        ]
        assert rows[0, 2] < rows[1, 2] < rows[2, 2]

    def test_explicit_variances(self, tmp_path):
        run_experiment(
            "shots-budget",
            {"qubits": [2], "variances": [0.0625]},
            seed=1,
            out=tmp_path,
        )
        rows = np.loadtxt(tmp_path / "shots_budget.csv", delimiter=",", skiprows=1)
        assert int(rows[2]) == 119

    def test_bounds_table(self, tmp_path):
        run_experiment("bounds", {"qubits": [2, 4], "layers": 5}, seed=1, out=tmp_path)
        rows = np.loadtxt(tmp_path / "bounds.csv", delimiter=",", skiprows=1)
        header = read_header(tmp_path / "bounds.csv")
        assert header[0] == "n"
        assert "beta_haar" in header
        from qkonc.analysis import beta_haar

        i = header.index("beta_haar")
        assert rows[0, i] == pytest.approx(beta_haar(2), abs=1e-15)
        assert rows[1, i] == pytest.approx(beta_haar(4), abs=1e-15)


class TestCommandLine:
    def test_variance_scan_command(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {"family": "tensor_ry", "qubits": [2], "layers": [1], "pairs": 300}
            )
        )
        outdir = tmp_path / "out"
        runner = CliRunner()
        result = runner.invoke(
            main,
            [
                "variance-scan",
                "--config",
                str(cfg_path),
                "--out",
                str(outdir),
                "--seed",
                "4",
            ],
        )
        assert result.exit_code == 0, result.output
        assert "variance-scan: wrote 1 file(s)" in result.output
        assert (outdir / "variance_scan.csv").exists()
        assert load_manifest(outdir)["master_seed"] == 4

    def test_all_experiments_are_registered(self):
        runner = CliRunner()
        result = runner.invoke(main, ["--help"])
        assert result.exit_code == 0
        for name in (
            "variance-scan",
            "expressivity",
            "noise-scan",
            "gram",
            "train",
            "generalization",
            "indistinguishability",
            "kta-scan",
            "shots-budget",
            "bounds",
        ):
            assert name in result.output

    def test_missing_config_fails(self):
        runner = CliRunner()
        result = runner.invoke(main, ["gram", "--config", "/nonexistent.json"])
        assert result.exit_code != 0

    def test_import_leaves_scipy_stats_unloaded(self):
        code = "import sys, qkonc.cli; print('scipy.stats' in sys.modules)"
        src = str(Path(qkonc.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "False"
