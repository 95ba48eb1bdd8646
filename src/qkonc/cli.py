"""Experiment command line.

Usage: ``qkonc <experiment> --config cfg.json [--seed S] [--out DIR] [--threads T]``

Every experiment reads a JSON config, runs a sweep, and writes CSV data files
plus a ``manifest.json`` (config echo + SHA-256, master seed, seed rule,
package version, thread count, wall time, output file hashes).

Determinism: the generator of sweep point ``(i, j, ...)`` is
``numpy.random.default_rng(SeedSequence((master_seed, i, j, ...)))``, so
reruns with the same config and seed produce byte-identical CSV files
regardless of the thread count (results are gathered and written in sweep
order by the parent thread). ``--threads`` falls back to the QKONC_THREADS
environment variable, then to 1.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from pathlib import Path

import click
import numpy as np

from . import __version__
from .analysis import (
    beta_haar,
    beta_haar_projected,
    binomial_pvalue,
    bound_expressivity,
    concentration_scan,
    distinguish_success_bound,
    expressivity_epsilon,
    kta_alignment_constant,
    product_ry_moments,
    shots_budget,
    simulate_distinguish,
)
from .datasets import Dataset, gen_hypercube, gen_uniform, load_csv, save_csv
from .embeddings import EmbeddingSpec
from .estimators import EstimatorSpec
from .kernels import (
    KernelKind,
    closed_form_product_fidelity_batch,
    fidelity_kernel,
    gram,
    projected_kernel,
)
from .learning import (
    generalization_experiment,
    kernel_target_alignment,
    kta_variance_over_theta,
    train_krr,
    train_svm,
    predict,
)
from .noise import PauliNoiseParams, noise_bounds, noisy_embed
from .core import maximally_mixed, schatten2_distance


def point_rng(master_seed: int, *indices: int) -> np.random.Generator:
    """Per-sweep-point generator: SeedSequence((master_seed, *indices))."""
    return np.random.default_rng(np.random.SeedSequence((master_seed, *indices)))


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.17g}"


def write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def _map_points(points, fn, threads: int):
    if threads <= 1:
        return [fn(p) for p in points]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, points))


def _kernel_kinds(cfg: dict) -> list[KernelKind]:
    gamma = float(cfg.get("gamma", 1.0))
    names = cfg.get("kernels", ["fidelity", "projected"])
    return [KernelKind(name, gamma) for name in names]


def _estimator_from(cfg, master_seed: int) -> EstimatorSpec | None:
    if not cfg:
        return None
    return EstimatorSpec(
        cfg.get("strategy", "exact"),
        int(cfg.get("shots", 1000)),
        int(cfg.get("seed", master_seed)),
    )


def _spec_from(cfg: dict, num_qubits: int, layers: int | None = None) -> EmbeddingSpec:
    return EmbeddingSpec(
        num_qubits=num_qubits,
        family=cfg.get("family", "hardware_efficient"),
        layers=int(layers if layers is not None else cfg.get("layers", 1)),
        entangler=cfg.get("entangler", "cz"),
        seed=int(cfg.get("family_seed", 0)),
    )


def _dataset_from(cfg: dict, rng: np.random.Generator) -> Dataset:
    source = cfg.get("source", "uniform")
    if source == "csv":
        return load_csv(cfg["path"])
    count = int(cfg.get("count", 10))
    dim = int(cfg.get("dim", cfg.get("qubits", 2)))
    if source == "hypercube":
        return gen_hypercube(count, dim, rng)
    if source == "uniform":
        low = float(cfg.get("low", -math.pi))
        high = float(cfg.get("high", math.pi))
        return gen_uniform(count, dim, rng, low, high)
    raise click.ClickException(f"unknown dataset source {source!r}")


# ---------------------------------------------------------------------------
# experiment runners (each returns a list of written paths + manifest extras)
# ---------------------------------------------------------------------------


def _run_variance_scan(cfg, master_seed, outdir, threads):
    kinds = _kernel_kinds(cfg)
    qubits = [int(n) for n in cfg.get("qubits", [2, 3, 4])]
    layer_list = [int(l) for l in cfg.get("layers", [1])]
    pairs = int(cfg.get("pairs", 100_000))
    low = float(cfg.get("low", -math.pi))
    high = float(cfg.get("high", math.pi))
    points = [(i, j) for i in range(len(qubits)) for j in range(len(layer_list))]

    def work(pt):
        i, j = pt
        spec = _spec_from(cfg, qubits[i], layer_list[j])
        reports = concentration_scan(
            spec, kinds, pairs, point_rng(master_seed, i, j), low, high
        )
        row = [qubits[i], layer_list[j], pairs]
        for rep in reports:
            row += [rep.mean, rep.variance]
        row.append(master_seed)
        return row

    rows = _map_points(points, work, threads)
    header = ["n", "layers", "pairs"]
    for kind in kinds:
        header += [f"mean_{kind.variant}", f"var_{kind.variant}"]
    header.append("seed")
    path = outdir / "variance_scan.csv"
    write_csv(path, header, rows)
    return [path], {}


def _run_expressivity(cfg, master_seed, outdir, threads):
    gamma = float(cfg.get("gamma", 1.0))
    qubits = [int(n) for n in cfg.get("qubits", [2, 3, 4])]
    layer_list = [int(l) for l in cfg.get("layers", [1, 4, 16, 64])]
    samples = int(cfg.get("samples", 4000))
    low = float(cfg.get("low", -math.pi))
    high = float(cfg.get("high", math.pi))
    points = [(i, j) for i in range(len(qubits)) for j in range(len(layer_list))]

    def work(pt):
        i, j = pt
        spec = _spec_from(cfg, qubits[i], layer_list[j])
        est = expressivity_epsilon(
            spec, samples, point_rng(master_seed, i, j), low, high
        )
        n = qubits[i]
        return [
            n,
            layer_list[j],
            samples,
            est.value,
            est.mc_error,
            bound_expressivity(n, KernelKind.fidelity(), est.value),
            bound_expressivity(n, KernelKind.projected(gamma), est.value),
            master_seed,
        ]

    rows = _map_points(points, work, threads)
    path = outdir / "expressivity.csv"
    write_csv(
        path,
        ["n", "layers", "samples", "eps", "eps_mc_error", "bound_fidelity", "bound_projected", "seed"],
        rows,
    )
    return [path], {}


def _run_noise_scan(cfg, master_seed, outdir, threads):
    n = int(cfg.get("qubits", 4))
    gamma = float(cfg.get("gamma", 1.0))
    q_values = [float(q) for q in cfg.get("q_values", [0.9, 0.95, 0.98])]
    layer_list = [int(l) for l in cfg.get("layers", list(range(1, 31)))]
    pairs = int(cfg.get("pairs", 2))
    low = float(cfg.get("low", -math.pi))
    high = float(cfg.get("high", math.pi))
    points = [(i, j) for i in range(len(q_values)) for j in range(len(layer_list))]

    def work(pt):
        i, j = pt
        q, layers = q_values[i], layer_list[j]
        params = PauliNoiseParams(q, q, q)
        spec = _spec_from(cfg, n, layers)
        rng = point_rng(master_seed, i, j)
        mixed = maximally_mixed(n)
        bnd = noise_bounds(params, n, layers, gamma)
        fdev = pdev = sdist = 0.0
        for _ in range(pairs):
            x = rng.uniform(low, high, n)
            y = rng.uniform(low, high, n)
            ra = noisy_embed(spec, x, params)
            rb = noisy_embed(spec, y, params)
            kf = fidelity_kernel(ra, rb)
            kp = projected_kernel(ra, rb, gamma)
            fdev += abs(kf - bnd.fidelity_mean)
            pdev += abs(1.0 - kp)
            sdist += schatten2_distance(ra, mixed)
        return [
            n,
            q,
            layers,
            pairs,
            fdev / pairs,
            bnd.fidelity_deviation,
            pdev / pairs,
            bnd.projected_deviation,
            sdist / pairs,
            bnd.state_distance,
            master_seed,
        ]

    rows = _map_points(points, work, threads)
    path = outdir / "noise_scan.csv"
    write_csv(
        path,
        [
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
        ],
        rows,
    )
    return [path], {}


def _run_gram(cfg, master_seed, outdir, threads):
    del threads
    n = int(cfg.get("qubits", 4))
    spec = _spec_from(cfg, n)
    kind = KernelKind(cfg.get("kernel", "fidelity"), float(cfg.get("gamma", 1.0)))
    est = _estimator_from(cfg.get("estimator"), master_seed)
    data_cfg = dict(cfg.get("dataset", {}))
    data_cfg.setdefault("qubits", n)
    ds = _dataset_from(data_cfg, point_rng(master_seed, 0))
    gm = gram(spec, ds.inputs, kind, estimator=est)
    gram_path = outdir / "gram.csv"
    gm.to_csv(gram_path)
    points_path = outdir / "points.csv"
    save_csv(ds, points_path)
    zero_ratio = float(np.mean(gm.matrix[np.triu_indices(ds.count, k=1)] == 0.0))
    return [gram_path, points_path], {"zero_ratio": zero_ratio}


def _run_train(cfg, master_seed, outdir, threads):
    del threads
    data_cfg = dict(cfg.get("dataset", {"source": "hypercube", "count": 10, "qubits": 3}))
    ds = _dataset_from(data_cfg, point_rng(master_seed, 0))
    if ds.labels is None:
        raise click.ClickException("training needs a labeled dataset")
    n = ds.dim
    spec = _spec_from(cfg, n)
    kind = KernelKind(cfg.get("kernel", "fidelity"), float(cfg.get("gamma", 1.0)))
    est = _estimator_from(cfg.get("estimator"), master_seed)
    theta = cfg.get("theta")
    if spec.family == "parameterized":
        theta = (
            point_rng(master_seed, 1).uniform(0.0, 2.0 * math.pi, n)
            if theta is None
            else np.asarray(theta, dtype=np.float64)
        )
    algorithm = cfg.get("algorithm", "krr")
    extras = {}
    if algorithm == "krr":
        model, fit = train_krr(
            spec,
            ds.inputs,
            ds.labels,
            kind,
            lam=float(cfg.get("lambda", 0.0)),
            estimator=est,
            theta=theta,
            sign=cfg.get("ridge_sign", "minus"),
        )
        extras["condition_number"] = fit.condition_number
    elif algorithm == "svm":
        model, fit = train_svm(spec, ds.inputs, ds.labels, kind, estimator=est, theta=theta)
        extras.update(
            iterations=fit.iterations, objective=fit.objective, converged=fit.converged
        )
    else:
        raise click.ClickException(f"unknown algorithm {algorithm!r}")

    model_path = outdir / "model.json"
    with open(model_path, "w", newline="\n") as fh:
        fh.write(model.to_json() + "\n")
    preds = predict(model, ds.inputs)
    extras["train_error_max"] = float(np.max(np.abs(preds - ds.labels)))
    pred_path = outdir / "predictions.csv"
    write_csv(
        pred_path,
        [f"f{k + 1}" for k in range(n)] + ["label", "prediction"],
        (list(ds.inputs[i]) + [ds.labels[i], preds[i]] for i in range(ds.count)),
    )
    return [model_path, pred_path], extras


def _run_generalization(cfg, master_seed, outdir, threads):
    sizes = tuple(int(s) for s in cfg.get("train_sizes", [10, 25, 50, 75, 100, 125, 150]))
    repeats = int(cfg.get("repeats", 10))
    kwargs = dict(
        num_qubits=int(cfg.get("qubits", 40)),
        train_sizes=sizes,
        num_test=int(cfg.get("num_test", 20)),
        shots=int(cfg.get("shots", 1000)),
        lam=float(cfg.get("lambda", 0.0)),
        repeats=1,
        low=float(cfg.get("low", 0.0)),
        high=float(cfg.get("high", 2.0 * math.pi)),
    )

    results = _map_points(
        list(range(repeats)),
        lambda r: generalization_experiment(point_rng(master_seed, r), **kwargs),
        threads,
    )
    loss_ex = np.vstack([res.loss_exact for res in results])
    loss_est = np.vstack([res.loss_estimated for res in results])
    terr_ex = np.vstack([res.train_error_exact for res in results])
    terr_est = np.vstack([res.train_error_estimated for res in results])

    rep_path = outdir / "generalization_repeats.csv"
    write_csv(
        rep_path,
        ["repeat", "train_size", "loss_exact", "loss_estimated", "train_error_exact", "train_error_estimated"],
        (
            [r, sizes[s], loss_ex[r, s], loss_est[r, s], terr_ex[r, s], terr_est[r, s]]
            for r in range(repeats)
            for s in range(len(sizes))
        ),
    )
    eta_ex = np.mean(loss_ex / loss_ex[:, :1], axis=0)
    eta_est = np.mean(loss_est / loss_est[:, :1], axis=0)
    sum_path = outdir / "generalization.csv"
    write_csv(
        sum_path,
        ["train_size", "eta_exact", "eta_estimated", "loss_exact_mean", "loss_estimated_mean", "seed"],
        (
            [sizes[s], eta_ex[s], eta_est[s], float(loss_ex[:, s].mean()), float(loss_est[:, s].mean()), master_seed]
            for s in range(len(sizes))
        ),
    )
    return [rep_path, sum_path], {}


@lru_cache(maxsize=None)
def _cached_pvalue(successes: int, shots: int, null_ppm: int) -> float:
    return binomial_pvalue(successes, shots, null_ppm / 1e6)


def _run_indistinguishability(cfg, master_seed, outdir, threads):
    mode = cfg.get("mode", "zero_ratio")
    qubits = [int(n) for n in cfg.get("qubits", list(range(6, 15)))]
    pairs = int(cfg.get("pairs", 1000))
    low = float(cfg.get("low", -math.pi))
    high = float(cfg.get("high", math.pi))

    if mode == "zero_ratio":
        shot_grid = [int(s) for s in cfg.get("shots", [1000, 10_000, 100_000])]
        points = [(i, j) for i in range(len(qubits)) for j in range(len(shot_grid))]

        def work(pt):
            i, j = pt
            n, shots = qubits[i], shot_grid[j]
            rng = point_rng(master_seed, i, j)
            xs = rng.uniform(low, high, (pairs, n))
            ys = rng.uniform(low, high, (pairs, n))
            kappa = closed_form_product_fidelity_batch(xs, ys)
            counts = rng.binomial(shots, kappa)
            return [n, shots, pairs, float(np.mean(counts == 0)), master_seed]

        rows = _map_points(points, work, threads)
        path = outdir / "zero_ratio.csv"
        write_csv(path, ["n", "shots", "pairs", "zero_ratio", "seed"], rows)
        return [path], {}

    if mode == "swap_test":
        shots = int(cfg.get("shots", 10_000))
        alpha = float(cfg.get("alpha", 0.01))

        def work(i):
            n = qubits[i]
            rng = point_rng(master_seed, i)
            xs = rng.uniform(low, high, (pairs, n))
            ys = rng.uniform(low, high, (pairs, n))
            kappa = closed_form_product_fidelity_batch(xs, ys)
            counts = rng.binomial(shots, 0.5 * (1.0 + kappa))
            pvals = np.array(
                [_cached_pvalue(int(k), shots, 500_000) for k in counts]
            )
            return [n, shots, pairs, alpha, float(np.mean(pvals < alpha)), master_seed]

        rows = _map_points(list(range(len(qubits))), work, threads)
        path = outdir / "swap_success.csv"
        write_csv(path, ["n", "shots", "pairs", "alpha", "success_ratio", "seed"], rows)
        return [path], {}

    if mode == "decision":
        shot_grid = [int(s) for s in cfg.get("shots", [1, 10, 100])]
        eps_grid = [float(e) for e in cfg.get("eps", [0.0, 0.01, 0.1])]
        trials = int(cfg.get("trials", 100_000))
        p0 = float(cfg.get("p0", 0.5))
        points = [(i, j) for i in range(len(shot_grid)) for j in range(len(eps_grid))]

        def work(pt):
            i, j = pt
            shots, eps = shot_grid[i], eps_grid[j]
            success = simulate_distinguish(
                shots, eps, trials, point_rng(master_seed, i, j), p0
            )
            return [shots, eps, trials, success, distinguish_success_bound(shots, eps), master_seed]

        rows = _map_points(points, work, threads)
        path = outdir / "decision.csv"
        write_csv(path, ["shots", "eps", "trials", "success", "bound", "seed"], rows)
        return [path], {}

    raise click.ClickException(f"unknown mode {mode!r}")


def _run_kta_scan(cfg, master_seed, outdir, threads):
    qubits = [int(n) for n in cfg.get("qubits", [2, 3, 4, 5, 6])]
    npts = int(cfg.get("points", 10))
    num_thetas = int(cfg.get("num_thetas", 500))
    kind = KernelKind(cfg.get("kernel", "fidelity"), float(cfg.get("gamma", 1.0)))

    def work(i):
        n = qubits[i]
        rng = point_rng(master_seed, i)
        ds = gen_hypercube(npts, n, rng)
        spec = EmbeddingSpec(
            n,
            cfg.get("family", "parameterized"),
            layers=int(cfg.get("layers", 1)),
            entangler=cfg.get("entangler", "cz"),
        )
        scan = kta_variance_over_theta(spec, ds.inputs, ds.labels, num_thetas, rng, kind)
        ksum = float(np.sum(scan.kernel_variances))
        return [
            n,
            npts,
            num_thetas,
            scan.ta_variance,
            ksum,
            kta_alignment_constant(npts, "statement") * ksum,
            kta_alignment_constant(npts, "proof") * ksum,
            master_seed,
        ]

    rows = _map_points(list(range(len(qubits))), work, threads)
    path = outdir / "kta_scan.csv"
    write_csv(
        path,
        ["n", "points", "num_thetas", "ta_variance", "kernel_variance_sum", "bound_statement", "bound_proof", "seed"],
        rows,
    )
    return [path], {}


def _run_shots_budget(cfg, master_seed, outdir, threads):
    del threads
    qubits = [int(n) for n in cfg.get("qubits", [2, 4, 6, 8])]
    precision = float(cfg.get("precision", 1.0))
    fail_prob = float(cfg.get("fail_prob", 0.05))
    variances = cfg.get("variances")
    rows = []
    for i, n in enumerate(qubits):
        var = float(variances[i]) if variances else product_ry_moments(n)[2]
        rows.append([n, var, shots_budget(var, precision, fail_prob), master_seed])
    path = outdir / "shots_budget.csv"
    write_csv(path, ["n", "variance", "shots", "seed"], rows)
    return [path], {}


def _run_bounds(cfg, master_seed, outdir, threads):
    del threads
    qubits = [int(n) for n in cfg.get("qubits", [2, 4, 6, 8])]
    layers = int(cfg.get("layers", 10))
    gamma = float(cfg.get("gamma", 1.0))
    eps = float(cfg.get("eps", 0.0))
    q = float(cfg.get("q", 0.95))
    params = PauliNoiseParams(q, q, q)
    rows = []
    for n in qubits:
        mean, second, var = product_ry_moments(n)
        nb = noise_bounds(params, n, layers, gamma)
        rows.append(
            [
                n,
                layers,
                q,
                gamma,
                eps,
                beta_haar(n),
                beta_haar_projected(n),
                bound_expressivity(n, KernelKind.fidelity(), eps),
                bound_expressivity(n, KernelKind.projected(gamma), eps),
                nb.fidelity_deviation,
                nb.projected_deviation,
                nb.state_distance,
                mean,
                var,
                master_seed,
            ]
        )
    path = outdir / "bounds.csv"
    write_csv(
        path,
        [
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
        ],
        rows,
    )
    return [path], {}


_RUNNERS = {
    "variance-scan": _run_variance_scan,
    "expressivity": _run_expressivity,
    "noise-scan": _run_noise_scan,
    "gram": _run_gram,
    "train": _run_train,
    "generalization": _run_generalization,
    "indistinguishability": _run_indistinguishability,
    "kta-scan": _run_kta_scan,
    "shots-budget": _run_shots_budget,
    "bounds": _run_bounds,
}


def run_experiment(name: str, config: dict, seed=None, out=".", threads=None) -> dict:
    """Programmatic entry point; returns the manifest dictionary."""
    if name not in _RUNNERS:
        raise ValueError(f"unknown experiment {name!r}")
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    master_seed = int(seed if seed is not None else config.get("seed", 0))
    if threads is None:
        threads = int(os.environ.get("QKONC_THREADS", "1"))
    threads = max(1, int(threads))
    start = time.monotonic()
    outputs, extras = _RUNNERS[name](config, master_seed, outdir, threads)
    wall = time.monotonic() - start
    manifest = {
        "experiment": name,
        "config": config,
        "config_sha256": config_hash(config),
        "master_seed": master_seed,
        "seed_rule": (
            "numpy SeedSequence((master_seed, *sweep_indices)); shot-estimated "
            "kernel matrices v2: per-row SeedSequence((estimator_seed, row_offset + row))"
        ),
        "package_version": __version__,
        "threads": threads,
        "wall_time_s": wall,
        "outputs": [
            {"file": p.name, "sha256": _sha256_file(p)} for p in outputs
        ],
    }
    manifest.update(extras)
    with open(outdir / "manifest.json", "w", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def _common_options(fn):
    fn = click.option("--config", "config_path", required=True, type=click.Path(exists=True, dir_okay=False))(fn)
    fn = click.option("--seed", type=int, default=None, help="override the config master seed")(fn)
    fn = click.option("--out", type=click.Path(file_okay=False), default=".", help="output directory")(fn)
    fn = click.option("--threads", type=int, default=None, help="worker threads (default: QKONC_THREADS or 1)")(fn)
    return fn


@click.group()
@click.version_option(__version__)
def main():
    """Concentration experiments for quantum kernel methods."""


def _register(name: str):
    @main.command(name)
    @_common_options
    def cmd(config_path, seed, out, threads, _name=name):
        with open(config_path) as fh:
            config = json.load(fh)
        manifest = run_experiment(_name, config, seed=seed, out=out, threads=threads)
        click.echo(
            f"{_name}: wrote {len(manifest['outputs'])} file(s) to {out} "
            f"(seed {manifest['master_seed']})"
        )

    cmd.__name__ = f"cmd_{name.replace('-', '_')}"
    return cmd


for _name in _RUNNERS:
    _register(_name)


if __name__ == "__main__":
    main()
