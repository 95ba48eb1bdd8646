"""Experiment runner: manifests, CSV schemas, reproducibility, CLI surface."""

import hashlib
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import click
import qkonc
import qkonc.cli
from qkonc.cli import _openblas_controls, config_hash, main, point_rng, run_experiment

MANIFEST_KEYS = {
    "experiment",
    "config",
    "config_sha256",
    "master_seed",
    "seed_rule",
    "statevector_engine",
    "tensor_ry_kernel",
    "package_version",
    "threads",
    "blas_threads",
    "wall_time_s",
    "outputs",
}


ROOT = Path(__file__).resolve().parents[1]


# the variables OpenBLAS sizes its thread pool from, in the order it reads them
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def fresh_python(code, **env):
    """Stripped stdout of ``code`` run in a new interpreter that imports this
    checkout's qkonc. Of the BLAS thread variables only those in ``env`` are set."""
    src = str(Path(qkonc.__file__).resolve().parents[1])
    base = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    run = subprocess.run(
        [sys.executable, "-c", code], env={**base, "PYTHONPATH": src, **env}, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    return run.stdout.strip()


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

    @pytest.mark.parametrize(
        "experiment, cfg",
        [
            ("gram", {
                "family": "hardware_efficient", "qubits": 3,
                "estimator": {"strategy": "loschmidt", "shots": 50},
                "dataset": {"source": "uniform", "count": 6},
            }),
            ("train", {
                "family": "parameterized", "kernel": "projected",
                "estimator": {"strategy": "local_swap", "shots": 50},
                "dataset": {"source": "hypercube", "count": 6, "qubits": 3},
            }),
        ],
    )
    def test_no_stream_serves_two_purposes(self, tmp_path, monkeypatch, experiment, cfg):
        # every SeedSequence the run creates, keyed by the state it generates
        # (SeedSequence pads short entropy with zeros, so (s, 0) and (s, 0, 0)
        # are one stream) and labelled by the function that asked for it
        purposes = {}
        real = np.random.SeedSequence

        def recording(entropy, *args, **kwargs):
            frame = sys._getframe(1)
            if frame.f_code.co_name == "point_rng":
                frame = frame.f_back
            ss = real(entropy, *args, **kwargs)
            purposes.setdefault(tuple(ss.generate_state(8)), set()).add(frame.f_code.co_name)
            return ss

        monkeypatch.setattr(np.random, "SeedSequence", recording)
        run_experiment(experiment, cfg, seed=4, out=tmp_path)
        assert max(len(p) for p in purposes.values()) == 1, purposes
        seen = set().union(*purposes.values())
        want = {"_dataset", "_sampled_kernel_matrix"} | ({"_run_train"} if experiment == "train" else set())
        assert want <= seen

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

    def test_package_version_matches_pyproject(self, tmp_path):
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        # tomllib needs Python 3.11; the package supports 3.10
        version = re.search(r'^version = "([^"]+)"$', pyproject.read_text(), re.M)[1]
        assert version == qkonc.__version__
        manifest = run_experiment("bounds", {"qubits": [2]}, seed=1, out=tmp_path)
        assert manifest["package_version"] == version

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

    @pytest.mark.parametrize(
        "experiment, cfg, name",
        [
            ("expressivity", {"qubits": [2, 3], "layers": [1, 4], "samples": 100}, "expressivity.csv"),
            ("kta-scan", {"qubits": [2, 3, 4], "points": 4, "num_thetas": 10}, "kta_scan.csv"),
            (
                "indistinguishability",
                {"mode": "zero_ratio", "qubits": [4, 6, 8], "shots": [10, 100], "pairs": 50},
                "zero_ratio.csv",
            ),
            (
                "indistinguishability",
                {"mode": "swap_test", "qubits": [4, 6, 8], "shots": 100, "pairs": 50},
                "swap_success.csv",
            ),
            (
                "indistinguishability",
                {"mode": "decision", "shots": [1, 10], "eps": [0.0, 0.1], "trials": 500},
                "decision.csv",
            ),
        ],
    )
    def test_every_sweep_writes_the_same_bytes_on_any_thread_count(self, tmp_path, experiment, cfg, name):
        run_experiment(experiment, cfg, seed=3, out=tmp_path / "a", threads=1)
        run_experiment(experiment, cfg, seed=3, out=tmp_path / "b", threads=3)
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

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

    def test_haar_manifest_names_its_state_rule(self, tmp_path):
        from qkonc.analysis import HAAR_STATE_RULE

        cfg = {"family": "haar", "qubits": [2], "layers": [1], "pairs": 100}
        manifest = run_experiment("variance-scan", cfg, seed=3, out=tmp_path / "haar")
        assert manifest["haar_state_rule"] == HAAR_STATE_RULE
        cfg["family"] = "hardware_efficient"
        assert "haar_state_rule" not in run_experiment("variance-scan", cfg, seed=3, out=tmp_path / "he")


class TestExpressivity:
    def test_schema(self, tmp_path):
        cfg = {"family": "hardware_efficient", "qubits": [2], "layers": [1, 4], "samples": 400}
        manifest = run_experiment("expressivity", cfg, seed=2, out=tmp_path)
        assert manifest["expressivity_moment"] == "v2: symmetric subspace"
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
        assert read_header(path) == [
            "n",
            "q",
            "layers",
            "pairs",
            "fidelity_dev",
            "fidelity_bound",
            "projected_dev",
            "projected_bound",
            "state_dist",
            "state_bound",
            "seed",
        ]
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        # measured deviations never exceed their bounds
        assert np.all(rows[:, 4] <= rows[:, 5] + 1e-12)
        assert np.all(rows[:, 6] <= rows[:, 7] + 1e-12)
        assert np.all(rows[:, 8] <= rows[:, 9] + 1e-12)

    CFG = {
        "family": "hardware_efficient",
        "qubits": 3,
        "q_values": [0.8, 0.95],
        "layers": [1, 2, 3],
        "pairs": 2,
    }

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        run_experiment("noise-scan", self.CFG, seed=5, out=tmp_path / "a", threads=1)
        run_experiment("noise-scan", self.CFG, seed=5, out=tmp_path / "b", threads=3)
        assert (tmp_path / "a" / "noise_scan.csv").read_bytes() == (
            tmp_path / "b" / "noise_scan.csv"
        ).read_bytes()

    def test_manifest_names_noisy_state_engine(self, tmp_path):
        manifest = run_experiment("noise-scan", self.CFG, seed=5, out=tmp_path)
        assert manifest["noisy_state_engine"] == "v4: Pauli-transfer vectors; single_layer_rot gates from the elementwise column"
        assert manifest["noise_scan_inputs"] == (
            "v2: per q, SeedSequence((master_seed, i)); every depth reads the same 2*pairs inputs"
        )
        bounds = run_experiment("bounds", {"qubits": [2]}, seed=5, out=tmp_path / "bounds")
        assert "noisy_state_engine" not in bounds and "noise_scan_inputs" not in bounds

    def test_rows_follow_config_order_on_shared_inputs(self, tmp_path):
        run_experiment("noise-scan", {**self.CFG, "layers": [4, 1, 4]}, seed=5, out=tmp_path / "a")
        run_experiment("noise-scan", {**self.CFG, "layers": [1, 4]}, seed=5, out=tmp_path / "b")
        rows = (tmp_path / "a" / "noise_scan.csv").read_text().splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == ["4", "1", "4"] * 2
        assert rows[0] == rows[2] and rows[3] == rows[5]
        # the row of one depth does not depend on which other depths are asked for
        other = (tmp_path / "b" / "noise_scan.csv").read_text().splitlines()[1:]
        assert other == [rows[1], rows[0], rows[4], rows[3]]

    def test_data_layers_run_once_to_the_deepest_layer(self, tmp_path, monkeypatch):
        # each data-layer application on a block of rows is two matmuls into a scratch buffer
        calls = []
        matmul = np.matmul

        def counting(*args, **kwargs):
            calls.append(len(args))
            return matmul(*args, **kwargs)

        monkeypatch.setattr(np, "matmul", counting)
        cfg = {**self.CFG, "qubits": 2, "layers": [3, 1, 8, 3]}  # one block of rows per q
        run_experiment("noise-scan", cfg, seed=5, out=tmp_path)
        assert len(calls) == len(cfg["q_values"]) * 2 * max(cfg["layers"])

    @pytest.mark.parametrize(
        "key, value",
        [
            ("family", "haar"),
            ("family", "parameterized"),
            ("qubits", 0),
            ("qubits", 7),
            ("pairs", 0),
            ("layers", [1, 0]),
            ("q_values", [0.9, 1.0]),
            ("q_values", [-0.5]),
            ("layers", []),
            ("q_values", []),
        ],
    )
    def test_bad_config_is_rejected_before_any_work(self, tmp_path, key, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**self.CFG, key: value}))
        outdir = tmp_path / "out"
        result = CliRunner().invoke(
            main, ["noise-scan", "--config", str(cfg_path), "--out", str(outdir)]
        )
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)  # a ClickException, no traceback
        assert result.output.startswith("Error: noise-scan:")
        assert key in result.output
        assert not (outdir / "noise_scan.csv").exists()


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

        with open(tmp_path / "gram.csv") as fh:
            assert json.loads(fh.readline().removeprefix("#")) == {"variant": "fidelity", "gamma": 1.0}
        matrix = np.loadtxt(tmp_path / "gram.csv", delimiter=",", comments="#")
        assert matrix.shape == (5, 5)
        np.testing.assert_allclose(np.diag(matrix), 1.0, atol=0.0)

    def test_one_point_gram_has_null_zero_ratio(self, tmp_path):
        cfg = {"family": "single_layer_rot", "qubits": 3, "dataset": {"count": 1}}
        manifest = run_experiment("gram", cfg, seed=6, out=tmp_path)
        assert manifest["zero_ratio"] is None  # no off-diagonal entry
        assert '"zero_ratio": null' in (tmp_path / "manifest.json").read_text()

    def test_manifest_names_row_seed_rule(self, tmp_path):
        cfg = {
            "family": "tensor_ry",
            "qubits": 2,
            "estimator": {"strategy": "loschmidt", "shots": 20},
            "dataset": {"source": "uniform", "count": 4},
        }
        manifest = run_experiment("gram", cfg, seed=6, out=tmp_path)
        assert "v3" in manifest["seed_rule"]
        assert "SeedSequence((estimator_seed, 0x73686F74, row_offset + row))" in manifest["seed_rule"]
        assert manifest["tensor_ry_kernel"].startswith("v2")

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

    @pytest.mark.parametrize("algorithm", ["krr", "svm"])
    def test_exact_predictions_come_from_the_fitted_gram(self, tmp_path, monkeypatch, algorithm):
        # an exact fit evaluates the kernel once: the predictions are its Gram
        # matrix times the weights, equal to predict() up to rounding
        from qkonc.learning import TrainedModel, predict

        def refuse(*args, **kwargs):
            raise AssertionError("the training points were embedded again")

        cfg = {"family": "hardware_efficient", "algorithm": algorithm, "dataset": {"count": 10, "qubits": 3}}
        monkeypatch.setattr(qkonc.cli, "predict", refuse)
        run_experiment("train", cfg, seed=8, out=tmp_path)
        rows = np.loadtxt(tmp_path / "predictions.csv", delimiter=",", skiprows=1)
        model = TrainedModel.from_json((tmp_path / "model.json").read_text())
        np.testing.assert_allclose(rows[:, -1], predict(model, rows[:, :3]), rtol=0.0, atol=1e-12)

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

    def test_svm_on_indefinite_shot_estimated_gram(self, tmp_path):
        cfg = {
            "family": "hardware_efficient",
            "layers": 4,
            "algorithm": "svm",
            "estimator": {"strategy": "loschmidt", "shots": 100},
            "dataset": {"source": "hypercube", "count": 60, "qubits": 4},
        }
        manifest = run_experiment("train", cfg, seed=8, out=tmp_path)
        assert manifest["svm_solver"] == "projected_newton_clipped_v1"
        assert manifest["min_eigenvalue"] < 0.0
        assert manifest["eigenvalues_clipped"] > 0
        assert manifest["converged"] is True
        assert manifest["kkt_residual"] <= 1e-9
        assert np.isfinite(manifest["train_error_max"])

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
        assert read_header(tmp_path / "generalization_repeats.csv") == [
            "repeat",
            "train_size",
            "loss_exact",
            "loss_estimated",
            "train_error_exact",
            "train_error_estimated",
        ]
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

    @pytest.mark.parametrize("p0, eps", [(1.0, [0.0]), (0.0, [0.0]), (0.95, [0.0, 0.1]), (0.5, [-0.6])])
    def test_bad_decision_p0_is_rejected_before_any_work(self, tmp_path, p0, eps):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"mode": "decision", "p0": p0, "eps": eps, "trials": 10}))
        outdir = tmp_path / "out"
        result = CliRunner().invoke(
            main, ["indistinguishability", "--config", str(cfg_path), "--out", str(outdir)]
        )
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)  # a ClickException, no traceback
        assert result.output.startswith("Error: indistinguishability:")
        assert "'p0'" in result.output
        assert not list(outdir.glob("*.csv"))

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

    def test_manifest_counts_bound_violations(self, tmp_path):
        cfg = {"qubits": [2, 3], "points": 4, "num_thetas": 40}
        manifest = run_experiment("kta-scan", cfg, seed=5, out=tmp_path / "a")
        assert manifest["checks"] == {"kta_bound_violations": 0}

    def test_planted_violation_is_counted_not_clipped(self, tmp_path, monkeypatch):
        import qkonc.cli

        # only the proof bound is planted: violations are counted against it
        monkeypatch.setattr(qkonc.cli, "kta_variance_bound", lambda v, m, form: 0.0 if form == "proof" else 1e9)
        cfg = {"qubits": [2, 3], "points": 4, "num_thetas": 40}
        manifest = run_experiment("kta-scan", cfg, seed=5, out=tmp_path)
        assert manifest["checks"] == {"kta_bound_violations": 2}
        rows = np.loadtxt(tmp_path / "kta_scan.csv", delimiter=",", skiprows=1)
        assert np.all(rows[:, 3] > 0.0) and np.all(rows[:, 6] == 0.0)


class TestMemoryCheck:
    """A point count whose kernel matrices cannot fit is rejected before any work."""

    @pytest.mark.parametrize(
        "experiment, cfg, key",
        [
            ("gram", {"dataset": {"count": 10**8}}, "dataset.count"),
            ("train", {"dataset": {"count": 10**8}}, "dataset.count"),
            ("generalization", {"qubits": 4, "train_sizes": [5, 10**8]}, "train_sizes"),
            ("generalization", {"qubits": 4, "train_sizes": [5], "num_test": 10**13}, "num_test"),
        ],
    )
    def test_count_that_cannot_fit_is_rejected(self, tmp_path, experiment, cfg, key):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        outdir = tmp_path / "out"
        result = CliRunner().invoke(main, [experiment, "--config", str(cfg_path), "--out", str(outdir)])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)  # a ClickException, no traceback
        assert result.output.startswith(f"Error: {experiment}: '{key}'")
        assert "GiB available" in result.output
        assert not outdir.exists() or not list(outdir.iterdir())

    @pytest.mark.parametrize("kernel, fits", [("projected", True), ("fidelity", False)])
    def test_projected_gram_is_charged_one_block_of_states(self, tmp_path, monkeypatch, kernel, fits):
        # 300 twelve-qubit points: the fidelity kernel is charged every state
        # and one row block (30 MB); the projected kernel one row block (about 10 MB)
        monkeypatch.setattr(qkonc.cli, "_available_memory", lambda: 25 * 10**6)
        cfg = {"family": "hardware_efficient", "qubits": 12, "kernel": kernel, "dataset": {"count": 300}}
        if fits:
            run_experiment("gram", cfg, seed=1, out=tmp_path)
            assert (tmp_path / "gram.csv").exists()
        else:
            with pytest.raises(click.ClickException, match="'dataset.count' asks for 300 x 300 kernel matrices"):
                run_experiment("gram", cfg, seed=1, out=tmp_path)

    @pytest.mark.parametrize("kernel", ["fidelity", "projected"])
    def test_product_family_gram_is_charged_no_states(self, tmp_path, monkeypatch, kernel):
        # single_layer_rot kernels come from each qubit's state, like
        # tensor_ry's: 300 points need only the matrices (about 4.3 MB)
        monkeypatch.setattr(qkonc.cli, "_available_memory", lambda: 6 * 10**6)
        cfg = {"family": "single_layer_rot", "qubits": 12, "kernel": kernel, "dataset": {"count": 300}}
        run_experiment("gram", cfg, seed=1, out=tmp_path)
        assert (tmp_path / "gram.csv").exists()

    @pytest.mark.parametrize("strategy, fits", [("exact", True), ("loschmidt", False)])
    def test_exact_train_is_charged_one_copy_of_its_states(self, tmp_path, monkeypatch, strategy, fits):
        # 300 twelve-qubit states take 19.7 MB: an exact train holds them once
        # (about 35 MB with one row block and the matrices), a shot-estimated
        # one again for its exact predictions (about 55 MB)
        monkeypatch.setattr(qkonc.cli, "_available_memory", lambda: 45 * 10**6)
        cfg = {
            "family": "hardware_efficient", "kernel": "fidelity", "lambda": 0.1, "ridge_sign": "plus",
            "estimator": {"strategy": strategy}, "dataset": {"count": 300, "qubits": 12},
        }
        if fits:
            run_experiment("train", cfg, seed=1, out=tmp_path)
            assert (tmp_path / "predictions.csv").exists()
        else:
            with pytest.raises(click.ClickException, match="'dataset.count' asks for 300 x 300 kernel matrices"):
                run_experiment("train", cfg, seed=1, out=tmp_path)

    def test_fidelity_gram_is_charged_one_copy_of_its_states(self, tmp_path, monkeypatch):
        # 300 twelve-qubit states take 19.7 MB; with one row block and the
        # matrices the charge is about 35 MB, and the run peaks near 27 MB
        monkeypatch.setattr(qkonc.cli, "_available_memory", lambda: 45 * 10**6)
        cfg = {"family": "hardware_efficient", "qubits": 12, "kernel": "fidelity", "dataset": {"count": 300}}
        run_experiment("gram", cfg, seed=1, out=tmp_path)
        assert (tmp_path / "gram.csv").exists()

    def test_csv_points_are_checked_after_reading(self, tmp_path, monkeypatch):
        import qkonc.cli
        from qkonc.datasets import gen_hypercube, save_csv

        data_path = tmp_path / "points.csv"
        save_csv(gen_hypercube(6, 2, np.random.default_rng(1)), data_path)
        monkeypatch.setattr(qkonc.cli, "_available_memory", lambda: 1000)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"dataset": {"source": "csv", "path": str(data_path)}}))
        outdir = tmp_path / "out"
        result = CliRunner().invoke(main, ["train", "--config", str(cfg_path), "--out", str(outdir)])
        assert result.exit_code == 1, result.output
        assert "'dataset.count' asks for 6 x 6 kernel matrices" in result.output
        assert not list(outdir.iterdir())

    @pytest.mark.parametrize("threads, fits", [(1, True), (3, False)])
    def test_noise_scan_batch_is_checked_per_worker(self, tmp_path, monkeypatch, threads, fits):
        # 2 * 1000 two-qubit rows need about 2.3 MB per q worker
        monkeypatch.setattr(qkonc.cli, "_available_memory", lambda: 5 * 10**6)
        cfg = {"qubits": 2, "q_values": [0.8, 0.9, 0.95], "layers": [1, 2], "pairs": 1000}
        if fits:
            run_experiment("noise-scan", cfg, seed=1, out=tmp_path, threads=threads)
            assert (tmp_path / "noise_scan.csv").exists()
        else:
            with pytest.raises(click.ClickException, match="'pairs' asks for 2000 noisy 2-qubit states per q"):
                run_experiment("noise-scan", cfg, seed=1, out=tmp_path, threads=threads)

    def test_noise_scan_pairs_that_cannot_fit_allocate_nothing(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the noisy states were simulated")

        monkeypatch.setattr(qkonc.cli, "_available_memory", lambda: 8 * 2**30)
        monkeypatch.setattr(qkonc.cli, "noisy_pauli_depths", refuse)
        monkeypatch.setattr(qkonc.cli, "point_rng", refuse)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"qubits": 6, "pairs": 200_000}))
        outdir = tmp_path / "out"
        result = CliRunner().invoke(main, ["noise-scan", "--config", str(cfg_path), "--out", str(outdir)])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)  # a ClickException, no traceback
        assert result.output.startswith("Error: noise-scan: 'pairs' asks for 400000 noisy 6-qubit states")
        assert "than the 8 GiB available" in result.output
        assert not list(outdir.iterdir())

    def test_available_memory_is_read(self):
        from qkonc.cli import _available_memory

        assert _available_memory() > 2**20


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
        assert header == [
            "n",
            "layers",
            "q",
            "gamma",
            "eps",
            "beta_haar",
            "beta_haar_projected",
            "bound_expressivity_fidelity",
            "bound_expressivity_projected",
            "noise_fidelity_bound",
            "noise_projected_bound",
            "noise_state_bound",
            "product_mean",
            "product_variance",
            "seed",
        ]
        from qkonc.analysis import beta_haar

        i = header.index("beta_haar")
        assert rows[0, i] == pytest.approx(beta_haar(2), abs=1e-15)
        assert rows[1, i] == pytest.approx(beta_haar(4), abs=1e-15)

    @pytest.mark.parametrize("key, value", [("q", 1.0), ("q", 1.5), ("layers", 0)])
    def test_bad_bounds_config_is_rejected(self, tmp_path, key, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"qubits": [2], key: value}))
        outdir = tmp_path / "out"
        result = CliRunner().invoke(
            main, ["bounds", "--config", str(cfg_path), "--out", str(outdir)]
        )
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)  # a ClickException, no traceback
        assert result.output.startswith(f"Error: bounds: '{key}'")
        assert not (outdir / "bounds.csv").exists()


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

    def test_import_leaves_scipy_optimize_and_linalg_unloaded(self):
        code = "import sys, qkonc.cli; print(sorted(m for m in ('scipy.optimize', 'scipy.linalg') if m in sys.modules))"
        assert fresh_python(code) == "[]"

    def test_import_leaves_scipy_stats_unloaded(self):
        code = "import sys, qkonc.cli; print('scipy.stats' in sys.modules)"
        assert fresh_python(code) == "False"

    def test_import_leaves_concurrent_futures_unloaded(self):
        code = "import sys, qkonc.cli; print(sorted(m for m in ('concurrent.futures', 'logging') if m in sys.modules))"
        assert fresh_python(code) == "[]"


class TestThreadCount:
    CFG = {"family": "tensor_ry", "qubits": [2], "layers": [1], "pairs": 200}

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_cli_rejects_threads_below_one(self, tmp_path, threads):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(self.CFG))
        outdir = tmp_path / "out"
        args = ["variance-scan", "--config", str(cfg_path), "--out", str(outdir), "--threads", threads]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2, result.output  # a usage error, no traceback
        assert "Invalid value for '--threads'" in result.output
        assert not outdir.exists()

    def test_cli_rejects_non_integer_env_threads(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QKONC_THREADS", "two")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(self.CFG))
        outdir = tmp_path / "out"
        result = CliRunner().invoke(main, ["variance-scan", "--config", str(cfg_path), "--out", str(outdir)])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)  # a ClickException, no traceback
        assert result.output.startswith("Error: QKONC_THREADS = 'two' is not a thread count")
        assert not outdir.exists()

    @pytest.mark.parametrize("threads", [0, -1, "two"])
    def test_run_experiment_rejects_bad_threads(self, tmp_path, threads):
        with pytest.raises(click.ClickException, match=f"^threads = {threads!r} is not a thread count"):
            run_experiment("variance-scan", self.CFG, out=tmp_path / "out", threads=threads)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["0", "-3", "two", "1.5", ""])
    def test_run_experiment_rejects_bad_env_threads(self, tmp_path, monkeypatch, value):
        monkeypatch.setenv("QKONC_THREADS", value)
        with pytest.raises(click.ClickException, match=f"^QKONC_THREADS = {value!r} is not a thread count"):
            run_experiment("variance-scan", self.CFG, out=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_argument_overrides_a_bad_env_value(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QKONC_THREADS", "two")
        assert run_experiment("variance-scan", self.CFG, out=tmp_path, threads=2)["threads"] == 2


@pytest.fixture
def caller_blas():
    """The OpenBLAS (get, set) pairs of this process, each library's thread
    count restored after the test; skips where none is found."""
    controls = _openblas_controls()
    if not controls:
        pytest.skip("no OpenBLAS with a thread-count control is loaded")
    saved = [get() for get, _ in controls]
    yield controls
    for (_, set_), count in zip(controls, saved):
        set_(count)


def set_caller_blas(controls, count):
    for _, set_ in controls:
        set_(count)
    return [get() for get, _ in controls]


# prints the OpenBLAS thread counts after ``import qkonc`` and whether
# os.environ is what it was before
IMPORT_COUNTS = (
    "import json, os; before = dict(os.environ); {first}import qkonc; after = dict(os.environ); "
    "from qkonc.cli import _openblas_controls; "
    "print(json.dumps([[get() for get, _ in _openblas_controls()], after == before]))"
)

# prints the thread count of the first OpenBLAS that a bare ``import numpy`` maps
PLAIN_NUMPY_COUNT = (
    "import ctypes, numpy; "
    "lib = ctypes.CDLL(next(line.split()[-1] for line in open('/proc/self/maps') if 'openblas' in line.lower())); "
    "names = ('scipy_openblas_get_num_threads64_', 'openblas_get_num_threads64_', 'openblas_get_num_threads'); "
    "print(next(getattr(lib, name)() for name in names if hasattr(lib, name)))"
)


needs_openblas = pytest.mark.skipif(not _openblas_controls(), reason="no OpenBLAS with a thread-count control is loaded")


class TestBlasThreads:
    VS_CFG = {"family": "tensor_ry", "qubits": [2, 3], "layers": [1, 2], "pairs": 200}

    @needs_openblas
    def test_fresh_import_starts_one_thread_and_leaves_environ_as_it_was(self):
        # the child starts with none of the three variables set, so an equal
        # os.environ has none of them either
        counts, same_environ = json.loads(fresh_python(IMPORT_COUNTS.format(first="")))
        assert counts and set(counts) == {1}
        assert same_environ

    @needs_openblas
    @pytest.mark.parametrize("var", BLAS_THREAD_VARS)
    def test_fresh_import_honours_a_set_thread_variable(self, var):
        code = IMPORT_COUNTS.format(first="") + f"; print(os.environ[{var!r}])"
        first, value = fresh_python(code, **{var: "2"}).splitlines()
        counts, same_environ = json.loads(first)
        assert counts and set(counts) == {2}
        assert same_environ and value == "2"

    @needs_openblas
    def test_fresh_import_after_numpy_keeps_numpy_count(self):
        counts, same_environ = json.loads(fresh_python(IMPORT_COUNTS.format(first="import numpy; ")))
        assert counts[0] == int(fresh_python(PLAIN_NUMPY_COUNT))
        assert same_environ

    def test_manifest_records_pinned_count(self, tmp_path):
        manifest = run_experiment("bounds", {"qubits": [2]}, seed=1, out=tmp_path)
        assert "blas_threads" in manifest
        assert manifest["blas_threads"] == (1 if _openblas_controls() else None)

    def test_train_bytes_do_not_depend_on_caller_blas_threads(self, tmp_path, caller_blas):
        config = json.loads((ROOT / "perfbench" / "configs" / "shots_train_krr.json").read_text())
        outputs = {}
        for count in (2, 1):
            set_caller_blas(caller_blas, count)
            manifest = run_experiment("train", config, seed=101, out=tmp_path / str(count))
            assert manifest["blas_threads"] == 1
            outputs[count] = [(tmp_path / str(count) / f).read_bytes() for f in ("predictions.csv", "model.json")]
        assert outputs[2] == outputs[1]

    def test_caller_count_restored_and_workers_read_one(self, tmp_path, monkeypatch, caller_blas):
        before = set_caller_blas(caller_blas, 2)
        seen = []
        scan = qkonc.cli.concentration_scan

        def recording_scan(*args, **kwargs):
            seen.append((threading.get_ident(), [get() for get, _ in caller_blas]))
            return scan(*args, **kwargs)

        monkeypatch.setattr(qkonc.cli, "concentration_scan", recording_scan)
        run_experiment("variance-scan", self.VS_CFG, seed=1, out=tmp_path / "a", threads=2)
        assert [get() for get, _ in caller_blas] == before
        assert len(seen) == 4
        assert all(counts == [1] * len(caller_blas) for _, counts in seen)
        assert threading.get_ident() not in {ident for ident, _ in seen}  # all ran on workers

        def failing_scan(*args, **kwargs):
            raise RuntimeError("scan failed")

        monkeypatch.setattr(qkonc.cli, "concentration_scan", failing_scan)
        with pytest.raises(RuntimeError, match="scan failed"):
            run_experiment("variance-scan", self.VS_CFG, seed=1, out=tmp_path / "b")
        assert [get() for get, _ in caller_blas] == before


# Runs ``{call}`` in a fresh interpreter whose first atexit hook, which runs
# last, prints whether objects were frozen and how many threads are alive.
EXIT_PROBE = """
import atexit, gc, threading
atexit.register(lambda: print(gc.get_freeze_count() > 0, threading.active_count()))
import qkonc.cli
{call}
"""


class TestExit:
    CFG = {"qubits": 2, "layers": [1, 2], "q_values": [0.9, 0.95], "pairs": 2}

    @staticmethod
    def csv_hashes(outdir):
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in outdir.glob("*.csv")}

    @pytest.mark.parametrize("threads", [1, 2])
    def test_cli_run_freezes_at_exit_and_writes_run_experiments_bytes(self, tmp_path, threads):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(self.CFG))
        args = ["noise-scan", "--config", str(cfg_path), "--seed", "3", "--out", str(tmp_path / "cli")]
        args += ["--threads", str(threads)]
        call = f"qkonc.cli.main({args!r}, prog_name='qkonc', standalone_mode=False)"
        wrote, probe = fresh_python(EXIT_PROBE.format(call=call)).splitlines()
        assert wrote.startswith("noise-scan: wrote 1 file(s)")
        assert probe == "True 1"  # frozen, and the sweep workers were joined before atexit
        run_experiment("noise-scan", self.CFG, seed=3, out=tmp_path / "lib", threads=threads)
        hashes = self.csv_hashes(tmp_path / "cli")
        assert hashes and hashes == self.csv_hashes(tmp_path / "lib")

    def test_library_run_keeps_the_default_teardown(self, tmp_path):
        call = f"qkonc.cli.run_experiment('noise-scan', {self.CFG!r}, seed=3, out={str(tmp_path)!r})"
        assert fresh_python(EXIT_PROBE.format(call=call)) == "False 1"
