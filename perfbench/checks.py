"""Output checks for the benchmark workloads, run outside the timed region.

Each check function takes one job's output directory, its config and a
generator for any sampling, and returns a list of ``(name, passed)`` pairs.  Exact quantities are compared
against an oracle that builds states gate by gate with ``core.apply_gate``
from ``layer_decomposition`` (never through ``embed_batch``).  Statistical
checks test distributions, not particular random draws, so they hold for
any sampling scheme with the same law.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

# Tolerances fixed before measuring: the oracle applies the same gates in a
# different order of floating-point operations.
ORACLE_ATOL = 1e-9
UNIT_ATOL = 1e-12
SIGMAS = 5.0
ORACLE_ENTRIES = 32
ORACLE_PAIRS = 50


def _read_rows(path: Path) -> list[dict[str, float]]:
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _read_gram(path: Path) -> tuple[dict, np.ndarray]:
    with open(path) as fh:
        meta = json.loads(fh.readline().lstrip("#"))
    return meta, np.loadtxt(path, delimiter=",", comments="#", ndmin=2)


def _read_points(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class Oracle:
    """Embedding states built gate by gate, with their single-qubit Bloch vectors."""

    def __init__(self, spec):
        from qkonc import core, embeddings

        self._core = core
        self._layers = embeddings.layer_decomposition
        self.spec = spec

    def state(self, x):
        core = self._core
        state = core.computational_basis_state(self.spec.num_qubits)
        for layer in self._layers(self.spec, x):
            for gate in layer:
                state = core.apply_gate(state, gate)
        return state

    def bloch(self, state) -> np.ndarray:
        core = self._core
        return np.array(
            [
                core.bloch_vector(core.reduce_to_qubit(state, k)).as_array()
                for k in range(state.num_qubits)
            ]
        )

    def fidelity(self, a, b) -> float:
        ov = np.vdot(a.amplitudes, b.amplitudes)
        return float(ov.real**2 + ov.imag**2)

    def projected(self, a, b, gamma: float) -> float:
        d = 0.5 * float(np.sum((self.bloch(a) - self.bloch(b)) ** 2))
        return math.exp(-gamma * d)


def _spec(cfg: dict, num_qubits: int, layers: int):
    from qkonc.embeddings import EmbeddingSpec

    return EmbeddingSpec(
        num_qubits,
        cfg["family"],
        layers=layers,
        entangler=cfg.get("entangler", "cz"),
        seed=int(cfg.get("family_seed", 0)),
    )


def _within(diff: float, sigma: float) -> bool:
    return abs(diff) <= SIGMAS * sigma


# ---------------------------------------------------------------------------
# concentration
# ---------------------------------------------------------------------------


def exact_gram(out: Path, cfg: dict, rng: np.random.Generator) -> list[tuple[str, bool]]:
    meta, mat = _read_gram(out / "gram.csv")
    xs = _read_points(out / "points.csv")
    npts = len(xs)
    checks = [
        ("gram.shape", mat.shape == (npts, npts)),
        ("gram.symmetric", bool(np.all(mat == mat.T))),
        ("gram.unit_diagonal", bool(np.all(np.abs(np.diag(mat) - 1.0) <= UNIT_ATOL))),
        ("gram.range", bool(np.all((mat >= 0.0) & (mat <= 1.0 + UNIT_ATOL)))),
    ]
    oracle = Oracle(_spec(cfg, xs.shape[1], int(cfg.get("layers", 1))))
    gamma = float(meta["gamma"])
    for _ in range(ORACLE_ENTRIES):
        i, j = (int(v) for v in rng.choice(npts, size=2, replace=False))
        want = oracle.projected(oracle.state(xs[i]), oracle.state(xs[j]), gamma)
        checks.append((f"gram.oracle[{i},{j}]", abs(mat[i, j] - want) <= ORACLE_ATOL))
    return checks


def variance_scan(out: Path, cfg: dict, rng: np.random.Generator) -> list[tuple[str, bool]]:
    rows = _read_rows(out / "variance_scan.csv")
    gamma = float(cfg.get("gamma", 1.0))
    low, high = float(cfg.get("low", -math.pi)), float(cfg.get("high", math.pi))
    want_rows = [(n, l) for n in cfg["qubits"] for l in cfg["layers"]]
    checks = [("variance_scan.rows", [(int(r["n"]), int(r["layers"])) for r in rows] == want_rows)]
    for row in rows:
        n, layers, pairs = int(row["n"]), int(row["layers"]), int(row["pairs"])
        oracle = Oracle(_spec(cfg, n, layers))
        values = {"fidelity": [], "projected": []}
        for _ in range(ORACLE_PAIRS):
            a = oracle.state(rng.uniform(low, high, n))
            b = oracle.state(rng.uniform(low, high, n))
            values["fidelity"].append(oracle.fidelity(a, b))
            values["projected"].append(oracle.projected(a, b, gamma))
        for kind, vals in values.items():
            vals = np.array(vals)
            sigma = math.sqrt(row[f"var_{kind}"] / pairs + vals.var(ddof=1) / len(vals))
            checks.append(
                (f"variance_scan.mean_{kind}[n={n},L={layers}]", _within(row[f"mean_{kind}"] - vals.mean(), sigma))
            )
    return checks


# ---------------------------------------------------------------------------
# shots
# ---------------------------------------------------------------------------


def shot_gram(out: Path, cfg: dict, rng: np.random.Generator) -> list[tuple[str, bool]]:
    del rng
    _, mat = _read_gram(out / "gram.csv")
    xs = _read_points(out / "points.csv")
    shots = int(cfg["estimator"]["shots"])
    npts = len(xs)
    iu = np.triu_indices(npts, k=1)
    est = mat[iu]
    counts = est * shots
    checks = [
        ("gram.shape", mat.shape == (npts, npts)),
        ("gram.symmetric", bool(np.all(mat == mat.T))),
        ("gram.unit_diagonal", bool(np.all(np.diag(mat) == 1.0))),
        ("gram.range", bool(np.all((est >= 0.0) & (est <= 1.0)))),
        ("gram.shot_grid", bool(np.all(np.abs(counts - np.round(counts)) <= 1e-6))),
    ]
    oracle = Oracle(_spec(cfg, xs.shape[1], int(cfg.get("layers", 1))))
    states = np.array([oracle.state(x).amplitudes for x in xs])
    kappa = np.abs(states.conj() @ states.T)[iu] ** 2
    kappa = np.clip(kappa, 0.0, 1.0)
    # sum of (estimate - kappa) is a sum of independent centred binomial means
    sigma = math.sqrt(float(np.sum(kappa * (1.0 - kappa))) / shots)
    checks.append(("gram.unbiased", _within(float(np.sum(est - kappa)), sigma)))
    p_zero = (1.0 - kappa) ** shots
    zeros = int(np.sum(counts < 0.5))
    checks.append(
        ("gram.zero_count", _within(zeros - float(p_zero.sum()), math.sqrt(float(np.sum(p_zero * (1.0 - p_zero))))))
    )
    return checks


def krr_predictions(out: Path, cfg: dict, rng: np.random.Generator) -> list[tuple[str, bool]]:
    del cfg, rng
    preds = np.array([r["prediction"] for r in _read_rows(out / "predictions.csv")])
    return [("train_krr.predictions_finite", bool(preds.size and np.all(np.isfinite(preds))))]


def generalization(out: Path, cfg: dict, rng: np.random.Generator) -> list[tuple[str, bool]]:
    del rng
    rows = _read_rows(out / "generalization_repeats.csv")
    losses = np.array([[r["loss_exact"], r["loss_estimated"]] for r in rows])
    want = int(cfg["repeats"]) * len(cfg["train_sizes"])
    return [
        ("generalization.rows", len(rows) == want),
        ("generalization.losses", bool(np.all(np.isfinite(losses)) and np.all(losses >= 0.0))),
    ]


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------


def noise_scan(out: Path, cfg: dict, rng: np.random.Generator) -> list[tuple[str, bool]]:
    del rng
    rows = _read_rows(out / "noise_scan.csv")
    checks = [("noise_scan.rows", len(rows) == len(cfg["q_values"]) * len(cfg["layers"]))]
    for r in rows:
        checks.append(
            (
                f"noise_scan.bounds[q={r['q']},L={int(r['layers'])}]",
                r["fidelity_dev"] <= r["fidelity_bound"]
                and r["projected_dev"] <= r["projected_bound"]
                and r["state_dist"] <= r["state_bound"],
            )
        )
    return checks
