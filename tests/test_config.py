"""Config tables: every config resolves against its experiment's table of
keys and defaults before any work, and the README lists the same keys."""

import json
import math
import re
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

from qkonc.cli import _EXPERIMENTS, _resolve, main, run_experiment

ROOT = Path(__file__).resolve().parents[1]

# every shipped config file and the experiment it is written for
SHIPPED = {
    "configs/gram_projected.json": "gram",
    "configs/noise_scan.json": "noise-scan",
    "configs/train_krr.json": "train",
    "configs/variance_scan.json": "variance-scan",
    "perfbench/configs/concentration_gram.json": "gram",
    "perfbench/configs/concentration_variance_scan.json": "variance-scan",
    "perfbench/configs/noise_scan.json": "noise-scan",
    "perfbench/configs/shots_generalization.json": "generalization",
    "perfbench/configs/shots_gram.json": "gram",
    "perfbench/configs/shots_train_krr.json": "train",
    "perfbench/configs/shots_train_svm.json": "train",
}


def table_keys(table, prefix=""):
    """The keys of a table, with a sub-table's keys as ``key.sub``."""
    keys = set()
    for key, default in table.items():
        if isinstance(default, dict):
            keys |= table_keys(default, f"{prefix}{key}.")
        else:
            keys.add(prefix + key)
    return keys


def experiment_key_sets():
    """(experiment, mode or None) -> the keys a config of it may hold."""
    out = {}
    for name, (_, table) in _EXPERIMENTS.items():
        modes = table.get("mode")
        if isinstance(modes, dict):
            for mode, mode_table in modes.items():
                out[(name, mode)] = table_keys({**table, "mode": mode, **mode_table})
        else:
            out[(name, None)] = table_keys(table)
    return out


def invoke(tmp_path, experiment, cfg):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outdir = tmp_path / "out"
    result = CliRunner().invoke(
        main, [experiment, "--config", str(cfg_path), "--out", str(outdir)]
    )
    return result, outdir


def assert_rejected(result, outdir, experiment, key):
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)  # a ClickException, no traceback
    assert result.output.startswith(f"Error: {experiment}:")
    assert f"'{key}'" in result.output or f".{key}'" in result.output
    assert not outdir.exists() or not list(outdir.glob("*.csv"))


class TestShippedConfigs:
    def test_every_shipped_config_is_mapped(self):
        found = {
            str(p.relative_to(ROOT))
            for d in ("configs", "perfbench/configs")
            for p in (ROOT / d).glob("*.json")
        }
        assert found == set(SHIPPED)

    @pytest.mark.parametrize("path, experiment", sorted(SHIPPED.items()))
    def test_shipped_config_resolves(self, path, experiment):
        cfg = json.loads((ROOT / path).read_text())
        resolved = _resolve(experiment, _EXPERIMENTS[experiment][1], cfg)
        assert set(resolved) >= set(cfg)


class TestResolver:
    # one misspelled key per experiment, plus one in each sub-table
    @pytest.mark.parametrize(
        "experiment, cfg, key",
        [
            ("variance-scan", {"qubit": [9]}, "qubit"),
            ("expressivity", {"sample": 10}, "sample"),
            ("noise-scan", {"q_value": [0.9]}, "q_value"),
            ("gram", {"kernels": "fidelity"}, "kernels"),
            ("train", {"algorithms": "svm"}, "algorithms"),
            ("generalization", {"train_size": [5]}, "train_size"),
            ("indistinguishability", {"pair": 10}, "pair"),
            ("kta-scan", {"num_theta": 5}, "num_theta"),
            ("shots-budget", {"variance": [0.1]}, "variance"),
            ("bounds", {"Q": 0.5}, "Q"),
            ("gram", {"dataset": {"sorce": "hypercube"}}, "sorce"),
            ("gram", {"estimator": {"strategy": "loschmidt", "shot": 5}}, "shot"),
            ("gram", {"dataset": {"dim": 3}}, "dim"),
            ("kta-scan", {"family_seed": 1}, "family_seed"),
        ],
    )
    def test_misspelled_key_is_rejected(self, tmp_path, experiment, cfg, key):
        result, outdir = invoke(tmp_path, experiment, cfg)
        assert_rejected(result, outdir, experiment, key)
        assert "is not a known key" in result.output

    @pytest.mark.parametrize(
        "mode, key, value",
        [
            ("zero_ratio", "trials", 10),
            ("zero_ratio", "alpha", 0.05),
            ("swap_test", "eps", [0.1]),
            ("decision", "qubits", [4]),
            ("decision", "pairs", 10),
        ],
    )
    def test_key_of_another_mode_is_rejected(self, tmp_path, mode, key, value):
        result, outdir = invoke(tmp_path, "indistinguishability", {"mode": mode, key: value})
        assert_rejected(result, outdir, "indistinguishability", key)

    @pytest.mark.parametrize(
        "experiment, cfg, key",
        [
            ("variance-scan", {"qubits": 4}, "qubits"),
            ("indistinguishability", {"mode": "swap_test", "shots": [10, 100]}, "shots"),
            ("kta-scan", {"family": "haar"}, "family"),
            ("gram", {"family": "parameterized"}, "family"),
            ("gram", {"qubits": 2, "dataset": {"qubits": 3}}, "qubits"),
            ("variance-scan", {"family": "parameterized"}, "family"),
            ("expressivity", {"layers": [1, 0]}, "layers"),
            ("gram", {"estimator": {"strategy": "sampled"}}, "strategy"),
            ("gram", {"estimator": {"seed": "abc", "strategy": "loschmidt"}}, "seed"),
            ("gram", {"dataset": {"source": "csv"}}, "dataset"),
            ("gram", {"dataset": {"count": 0}}, "count"),
            ("train", {"dataset": {"source": "uniform"}}, "dataset"),
            ("train", {"algorithm": "lasso"}, "algorithm"),
            ("train", {"theta": [0.1, 0.2, 0.3]}, "theta"),
            ("train", {"family": "parameterized", "theta": [0.1, 0.2]}, "theta"),
            ("train", {"family": "parameterized", "theta": ["a", "b", "c"]}, "theta"),
            ("train", {"kernel": "projected", "estimator": {"strategy": "loschmidt"}}, "estimator"),
            ("gram", {"estimator": {"strategy": "tomography"}}, "estimator"),
            ("gram", {"dataset": {"source": "csv", "path": "no/such/points.csv"}}, "dataset"),
            ("generalization", {"qubits": 4, "train_sizes": [5], "shots": 0}, "shots"),
            ("indistinguishability", {"shots": [10, 0]}, "shots"),
            ("variance-scan", {"pairs": 1}, "pairs"),
            ("shots-budget", {"qubits": [2, 4], "variances": [0.1]}, "variances"),
            ("shots-budget", {"qubits": [2], "variances": ["x"]}, "variances"),
            ("bounds", {"gamma": "1"}, "gamma"),
            ("bounds", {"eps": -1}, "eps"),
            ("expressivity", {"samples": 1}, "samples"),
            ("expressivity", {"qubits": [2, 7]}, "qubits"),
            ("variance-scan", {"low": 1.0, "high": 1.0}, "high"),
            ("shots-budget", {"precision": 0}, "precision"),
            ("shots-budget", {"fail_prob": 1.5}, "fail_prob"),
            ("kta-scan", {"num_thetas": 1}, "num_thetas"),
            ("generalization", {"train_sizes": []}, "train_sizes"),
            ("noise-scan", {"layers": []}, "layers"),
            ("variance-scan", {"qubits": []}, "qubits"),
            ("expressivity", {"qubits": []}, "qubits"),
            ("kta-scan", {"qubits": []}, "qubits"),
            ("bounds", {"qubits": []}, "qubits"),
            ("shots-budget", {"qubits": []}, "qubits"),
            ("variance-scan", {"kernels": []}, "kernels"),
            # each kernel names two columns, which a second copy would repeat
            ("variance-scan", {"kernels": ["fidelity", "projected", "fidelity"]}, "kernels"),
            ("indistinguishability", {"mode": "decision", "eps": []}, "eps"),
            # a number key takes no bool or non-finite number; an int key no fractional one
            ("variance-scan", {"qubits": [2.9, 3], "layers": [1.5], "pairs": 10.7}, "qubits"),
            ("variance-scan", {"layers": [1.5]}, "layers"),
            ("variance-scan", {"pairs": 10.7}, "pairs"),
            ("variance-scan", {"pairs": True}, "pairs"),
            ("variance-scan", {"pairs": math.inf}, "pairs"),
            ("variance-scan", {"gamma": math.nan}, "gamma"),
            ("variance-scan", {"low": math.nan}, "low"),
            ("train", {"lambda": math.inf}, "lambda"),
            ("variance-scan", {"seed": 1.5}, "seed"),
            ("variance-scan", {"gamma": True}, "gamma"),
            ("variance-scan", {"gamma": 10**400}, "gamma"),
            ("bounds", {"qubits": [True]}, "qubits"),
            ("gram", {"estimator": {"seed": 1.5, "strategy": "loschmidt"}}, "seed"),
            ("gram", {"estimator": {"seed": True, "strategy": "loschmidt"}}, "seed"),
            ("gram", {"estimator": {"shots": 99.5, "strategy": "loschmidt"}}, "shots"),
            ("gram", {"dataset": {"qubits": 3.5}}, "qubits"),
            ("gram", {"dataset": {"source": "csv", "path": 5}}, "path"),
            ("train", {"family": "parameterized", "theta": [True, 0.1, 0.2]}, "theta"),
            ("shots-budget", {"qubits": [2], "variances": [False]}, "variances"),
            ("train", {"dataset": {"count": 4}, "algorithm": "svm", "lambda": 0.5}, "lambda"),
            ("train", {"dataset": {"count": 4}, "algorithm": "svm", "ridge_sign": "plus"}, "ridge_sign"),
            # gamma scales only the projected kernel; an exact estimator draws no shots
            ("gram", {"dataset": {"count": 4}, "gamma": 2.0}, "gamma"),
            ("train", {"dataset": {"count": 4}, "gamma": 2.0}, "gamma"),
            ("kta-scan", {"gamma": 0.5}, "gamma"),
            ("variance-scan", {"kernels": ["fidelity"], "gamma": 2.0}, "gamma"),
            ("gram", {"dataset": {"count": 4}, "estimator": {"shots": 500}}, "shots"),
            ("gram", {"dataset": {"count": 4}, "estimator": {"strategy": "exact", "seed": 3}}, "seed"),
            ("train", {"dataset": {"count": 4}, "estimator": {"shots": 10}}, "shots"),
            ("train", {"dataset": {"count": 4}, "estimator": {"seed": 0}}, "seed"),
            # a dataset key its source does not read: low/high outside uniform,
            # count/qubits with csv, path outside csv
            ("train", {"dataset": {"source": "csv", "path": "no/such/points.csv", "count": 500}}, "count"),
            ("train", {"dataset": {"source": "csv", "path": "no/such/points.csv", "qubits": 9}}, "qubits"),
            ("train", {"dataset": {"source": "csv", "path": "no/such/points.csv", "low": 1.0}}, "low"),
            ("gram", {"dataset": {"source": "csv", "path": "no/such/points.csv", "count": 500}}, "count"),
            ("gram", {"dataset": {"source": "csv", "path": "no/such/points.csv", "qubits": 4}}, "qubits"),
            ("gram", {"dataset": {"source": "csv", "path": "no/such/points.csv", "high": 1.0}}, "high"),
            ("train", {"dataset": {"count": 4, "low": 1.0}}, "low"),
            ("train", {"dataset": {"count": 4, "high": 1.0}}, "high"),
            ("train", {"dataset": {"count": 4, "path": "points.csv"}}, "path"),
            ("gram", {"dataset": {"source": "hypercube", "count": 4, "low": 0.0}}, "low"),
            ("gram", {"dataset": {"count": 4, "path": "points.csv"}}, "path"),
        ],
    )
    def test_bad_value_fails_early_naming_the_key(self, tmp_path, experiment, cfg, key):
        result, outdir = invoke(tmp_path, experiment, cfg)
        assert_rejected(result, outdir, experiment, key)

    def test_unknown_mode_names_the_modes(self):
        with pytest.raises(click.ClickException, match="'mode' = 'bell'.*swap_test"):
            _resolve("indistinguishability", _EXPERIMENTS["indistinguishability"][1], {"mode": "bell"})

    def test_values_take_the_type_of_their_default(self):
        table = _EXPERIMENTS["variance-scan"][1]
        resolved = _resolve("variance-scan", table, {"gamma": 2, "qubits": [2.0], "pairs": 10})
        assert resolved["gamma"] == 2.0 and isinstance(resolved["gamma"], float)
        assert resolved["qubits"] == [2] and isinstance(resolved["qubits"][0], int)
        assert resolved["low"] == -math.pi

    def test_integral_float_reads_as_int(self):
        table = _EXPERIMENTS["variance-scan"][1]
        resolved = _resolve("variance-scan", table, {"pairs": 600.0, "seed": 7.0})
        assert resolved["pairs"] == 600 and isinstance(resolved["pairs"], int)
        assert resolved["seed"] == 7 and isinstance(resolved["seed"], int)

    def test_null_default_value_takes_the_type_of_its_key(self):
        table = _EXPERIMENTS["gram"][1]
        resolved = _resolve("gram", table, {"estimator": {"seed": 5.0}, "dataset": {"qubits": 4.0}})
        assert resolved["estimator"]["seed"] == 5 and isinstance(resolved["estimator"]["seed"], int)
        assert resolved["dataset"]["qubits"] == 4 and isinstance(resolved["dataset"]["qubits"], int)
        assert resolved["dataset"]["path"] is None

    def test_null_default_passes_the_value_through(self):
        table = _EXPERIMENTS["shots-budget"][1]
        assert _resolve("shots-budget", table, {})["variances"] is None
        assert _resolve("shots-budget", table, {"qubits": [2], "variances": [1]})["variances"] == [1]

    @pytest.mark.parametrize("experiment", ["bounds", "shots-budget", "gram"])
    def test_manifest_resolved_config_of_empty_config_is_the_table(self, tmp_path, experiment):
        manifest = run_experiment(experiment, {}, seed=2, out=tmp_path)
        assert manifest["config"] == {}
        assert manifest["resolved_config"] == _EXPERIMENTS[experiment][1]
        on_disk = json.loads((tmp_path / "manifest.json").read_text())
        assert on_disk["resolved_config"] == _EXPERIMENTS[experiment][1]

    def test_resolved_config_of_a_mode(self, tmp_path):
        manifest = run_experiment(
            "indistinguishability", {"mode": "decision", "trials": 50}, seed=2, out=tmp_path
        )
        assert manifest["resolved_config"] == {
            "seed": 0,
            "mode": "decision",
            "shots": [1, 10, 100],
            "eps": [0.0, 0.01, 0.1],
            "trials": 50,
            "p0": 0.5,
        }

    def test_train_dataset_defaults_are_one_set(self, tmp_path):
        # a dataset object without count or qubits gets the same 10 x 3 points as no object
        run_experiment("train", {"dataset": {"source": "hypercube"}}, seed=1, out=tmp_path / "a")
        run_experiment("train", {}, seed=1, out=tmp_path / "b")
        a = (tmp_path / "a" / "predictions.csv").read_text()
        assert a.splitlines()[0] == "f1,f2,f3,label,prediction"
        assert len(a.splitlines()) == 11
        assert a == (tmp_path / "b" / "predictions.csv").read_text()


class TestReadme:
    def test_readme_lists_every_key_of_every_table(self):
        text = (ROOT / "README.md").read_text()
        listed = {}
        current = None
        for line in text.splitlines():
            heading = re.match(r"^#### `([a-z-]+)`(?: with `mode` = `(\w+)`)?$", line)
            if heading:
                current = (heading.group(1), heading.group(2))
                listed[current] = set()
            elif current and (row := re.match(r"^\| `([\w.]+)` \|", line)):
                listed[current].add(row.group(1))
            elif line.startswith("#"):
                current = None
        assert listed == experiment_key_sets()
