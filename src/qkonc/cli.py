"""Experiment command line.

Usage: ``qkonc <experiment> --config cfg.json [--seed S] [--out DIR] [--threads T]``

Every experiment reads a JSON config, runs a sweep, and writes CSV data files
plus a ``manifest.json`` (config echo + SHA-256, the config resolved against
the experiment's defaults, master seed, seed rule, package version, thread
count, BLAS thread count, wall time, output file hashes).

Each experiment declares every key it reads, with its default, in one table
where its runner is registered (``_experiment``). ``_resolve`` checks a config
against that table before any work: an unknown key, a value of the wrong
type or an out-of-range value stops the run with a ``click.ClickException``
that names the key.

Determinism: ``_sweep`` is the one place of the seed and worker rule. The
generator of sweep point ``(i, j, ...)`` is
``numpy.random.default_rng(SeedSequence((master_seed, i, j, ...)))`` (for
``noise-scan`` the point is q value ``i``, whose inputs every depth reads), so
reruns with the same config and seed produce byte-identical CSV files
regardless of the thread count (results are gathered and written in sweep
order by the parent thread). ``--threads`` falls back to the QKONC_THREADS
environment variable, then to 1; a count below 1 or not an integer is
rejected before any work. Every loaded OpenBLAS runs one thread for the
length of a run, so the bytes do not depend on the host's core count either.

Runners build their CSV rows as dicts from column name to value, so each
column is named once, beside its value; ``write_csv`` takes the header from
the first row's keys.
"""

from __future__ import annotations

import atexit
import gc
import hashlib
import itertools
import json
import math
import os
import time
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path

import click
import numpy as np

from . import __version__
from .analysis import (
    HAAR_STATE_RULE,
    MAX_EXPRESSIVITY_QUBITS,
    beta_haar,
    beta_haar_projected,
    binomial_pvalue,
    bound_expressivity,
    concentration_scan,
    distinguish_success_bound,
    expressivity_epsilon,
    kta_variance_bound,
    product_ry_moments,
    shots_budget,
    simulate_distinguish,
)
from .datasets import Dataset, gen_hypercube, gen_uniform, load_csv, save_csv
from .embeddings import EmbeddingSpec, _block_rows
from .estimators import STRATEGIES, EstimatorSpec
from .kernels import (
    PRODUCT_FAMILIES,
    KernelKind,
    gram,
    product_kernel,
)
from .learning import (
    generalization_experiment,
    kta_variance_over_theta,
    predict,
    train,
)
from .noise import (
    NOISE_MAX_QUBITS,
    PauliNoiseParams,
    noise_bounds,
    noisy_pauli_depths,
    pauli_fidelity_kernel,
    pauli_mixed_distance,
    pauli_projected_kernel,
)


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


def write_csv(path: Path, rows: list[dict]) -> None:
    """Write ``rows``, dicts from column name to value, with the first row's keys as the header."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(rows[0]) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row.values()) + "\n")


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def _sweep(master_seed: int, threads: int, sizes, fn) -> list:
    """``fn(point_rng(master_seed, *point), *point)`` for every point of the
    grid ``sizes`` in C order, spread over ``threads`` workers; the results
    come back in point order."""
    points = list(itertools.product(*map(range, sizes)))

    def at(point):
        return fn(point_rng(master_seed, *point), *point)

    if threads <= 1:
        return [at(p) for p in points]
    from concurrent.futures import ThreadPoolExecutor  # only here: it imports logging

    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(at, points))


# (get, set) thread-count symbols: numpy's wheel build of OpenBLAS, then a
# plain OpenBLAS with 64- or 32-bit integers
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _openblas_controls() -> list[tuple]:
    """The (get, set) thread-count functions of each OpenBLAS mapped into
    this process (found through /proc/self/maps) that exports a pair of
    ``_OPENBLAS_SYMBOLS``. Empty where there is no such file (not Linux) or no
    library exports them (MKL, Accelerate)."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    controls = []
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            get, set_ = getattr(handle, get_name, None), getattr(handle, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return controls


@contextmanager
def _one_blas_thread():
    """Pin every loaded OpenBLAS to one thread for the block, then restore
    each library's previous count, also when the block raises. Yields the
    pinned count, 1, or None when no OpenBLAS was found. A library loaded
    inside the block keeps its own count."""
    controls = _openblas_controls()
    saved = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield 1 if controls else None
    finally:
        for (_, set_), count in zip(controls, saved):
            set_(count)


# ---------------------------------------------------------------------------
# config tables and their resolution
# ---------------------------------------------------------------------------

_EMBEDDING = {"family": "hardware_efficient", "layers": 1, "entangler": "cz", "family_seed": 0}
_INPUT_RANGE = {"low": -math.pi, "high": math.pi}
# strategy "exact" computes exact kernel values, reading no shots or seed; seed None is the master seed
_ESTIMATOR = {"strategy": "exact", "shots": 1000, "seed": None}


def _one_of(*choices):
    def check(value):
        if value not in choices:
            raise ValueError(f"expected one of {list(choices)}")

    return check


def _at_least(bound):
    def check(value):
        if value < bound:
            raise ValueError(f"must be >= {bound}")

    return check


def _check_dataset(dataset: dict) -> None:
    if dataset["source"] == "csv" and dataset["path"] is None:
        raise ValueError("source 'csv' needs a 'path'")


def _check_q(q: float) -> None:
    noise_bounds(PauliNoiseParams(q, q, q), 1, 1)  # a channel with q < 1


# key -> check of a resolved value (of each element of a list). A check raises
# ValueError or TypeError, mostly by building the library object the value
# configures, so the library's own validation runs before any work.
_CHECKS = {
    "qubits": lambda n: EmbeddingSpec(n, "tensor_ry"),
    "layers": lambda layers: EmbeddingSpec(1, "tensor_ry", layers),
    "family": lambda family: EmbeddingSpec(1, family),
    "entangler": lambda entangler: EmbeddingSpec(1, "tensor_ry", entangler=entangler),
    "kernel": KernelKind,
    "kernels": KernelKind,
    "gamma": lambda gamma: KernelKind("fidelity", gamma),
    "q": _check_q,
    "q_values": _check_q,
    "precision": lambda precision: shots_budget(1.0, precision),
    "fail_prob": lambda fail_prob: shots_budget(1.0, 1.0, fail_prob),
    "strategy": _one_of("exact", *STRATEGIES),
    "dataset": _check_dataset,
    "source": _one_of("csv", "hypercube", "uniform"),
    "algorithm": _one_of("krr", "svm"),
    "ridge_sign": _one_of("minus", "plus"),
    **dict.fromkeys(["pairs", "count", "points", "trials"], _at_least(1)),
    **dict.fromkeys(["repeats", "num_test", "train_sizes", "shots"], _at_least(1)),
    # a split-half error (samples) and a variance over parameters (num_thetas) need two
    **dict.fromkeys(["samples", "num_thetas"], _at_least(2)),
}


def _reject(name: str, key: str, why: str) -> click.ClickException:
    return click.ClickException(f"{name}: {key!r} {why}")


# key -> the default whose type a value takes where the table's default is None
_NULL_DEFAULT_TYPES = {"seed": 0, "qubits": 0, "path": "", "theta": [0.0], "variances": [0.0]}


def _convert(value, default):
    """``value`` as the type of ``default`` (for a list, of its elements). No
    key takes a bool or a non-finite number, and an int key takes a float
    only when it is integral (600.0 reads as 600)."""
    if default is None:
        return value
    if isinstance(default, list):
        if not isinstance(value, list):
            raise TypeError("expected a list")
        if not value:
            raise ValueError("expected a non-empty list")
        return [_convert(v, default[0]) for v in value]
    if isinstance(value, (list, dict, bool)) or isinstance(value, str) != isinstance(default, str):
        raise TypeError(f"expected {type(default).__name__}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError("expected a finite number")
    if isinstance(default, int) and isinstance(value, float) and not value.is_integer():
        raise ValueError("expected an integer")
    return type(default)(value)


def _resolve(name: str, table: dict, cfg, prefix: str = "") -> dict:
    """Config ``cfg`` of experiment ``name`` checked against ``table``, with
    the defaults filled in. Every key of ``cfg`` must be in ``table``. Each
    value is converted to the type of its default (for a list, of its
    elements); a ``None`` default passes ``None`` through and converts any
    other value to the type in ``_NULL_DEFAULT_TYPES``, a dict default is
    a sub-table resolved the same way, and a ``mode`` key whose default is a
    dict of tables adds the table of the given mode (the first is the
    default). Each value then passes its ``_CHECKS`` entry. Every failure is a
    ``click.ClickException`` that names the key.
    """
    if not isinstance(cfg, dict):
        raise _reject(name, prefix[:-1] or "config", "is not a JSON object")
    modes = table.get("mode")
    if isinstance(modes, dict):
        mode = cfg.get("mode", next(iter(modes)))
        if not isinstance(mode, str) or mode not in modes:
            raise _reject(name, "mode", f"= {mode!r} is an unknown mode, expected one of {list(modes)}")
        table = {**table, "mode": mode, **modes[mode]}
    for key in cfg:
        if key not in table:
            raise _reject(name, prefix + key, f"is not a known key; the keys are {list(table)}")
    resolved = {}
    for key, default in table.items():
        value = cfg.get(key, default)
        if default is None and value is not None:
            default = _NULL_DEFAULT_TYPES.get(key)
        try:
            sub = isinstance(default, dict)
            value = _resolve(name, default, value, f"{prefix}{key}.") if sub else _convert(value, default)
            if value is not None and key in _CHECKS:
                for v in value if isinstance(value, list) else [value]:
                    _CHECKS[key](v)
        except (TypeError, ValueError, OverflowError) as exc:
            why = f"{exc}" if isinstance(value, dict) else f"= {value!r}: {exc}"
            raise _reject(name, prefix + key, why) from None
        resolved[key] = value
    return resolved


# ---------------------------------------------------------------------------
# experiment runners: runner(resolved cfg, master_seed, outdir, threads)
# returns the written paths and the manifest extras
# ---------------------------------------------------------------------------

_EXPERIMENTS: dict[str, tuple] = {}


def _experiment(name: str, table: dict):
    """Register a runner as experiment ``name``, reading configs resolved
    against ``table`` plus the master ``seed``."""

    def register(runner):
        _EXPERIMENTS[name] = (runner, {"seed": 0, **table})
        return runner

    return register


def _unread(name: str, cfg: dict, defaults: dict, why: str, prefix: str = "") -> None:
    """Reject the first key of ``defaults`` that ``cfg`` sets otherwise: the run does not read it."""
    for key, default in defaults.items():
        if cfg[key] != default:
            raise _reject(name, prefix + key, f"= {cfg[key]!r} {why}")


def _unread_gamma(name: str, cfg: dict, variants) -> None:
    if "projected" not in variants:
        _unread(name, cfg, {"gamma": 1.0}, "scales the projected kernel, which this run does not compute")


def _no_theta(name: str, family: str) -> None:
    if family == "parameterized":
        raise _reject(name, "family", f"= 'parameterized' needs a theta vector, which {name} does not draw")


def _embedding(cfg: dict, n: int, layers: int) -> EmbeddingSpec:
    """The ``n``-qubit embedding of a config resolved against ``_EMBEDDING``."""
    return EmbeddingSpec(n, cfg["family"], layers, cfg["entangler"], cfg["family_seed"])


def _estimator(name: str, est: dict, kind: KernelKind, master_seed: int) -> EstimatorSpec | None:
    """The estimator of a resolved ``estimator`` sub-table; None for ``exact``."""
    if est["strategy"] == "exact":
        why = "is read only by a sampling strategy, not 'exact'"
        _unread(name, est, {"shots": 1000, "seed": None}, why, "estimator.")
        return None
    if (est["strategy"] in ("loschmidt", "swap")) != (kind.variant == "fidelity"):
        why = f"strategy {est['strategy']!r} does not estimate the {kind.variant} kernel"
        raise _reject(name, "estimator", why)
    seed = master_seed if est["seed"] is None else est["seed"]
    return EstimatorSpec(est["strategy"], est["shots"], seed)


# float64 m x m arrays a kernel run holds at its peak: the kernel values, the
# assembled matrix and their working copies (measured: 2.2-5.7 under
# tracemalloc for gram and train, 3.5-5.5 for generalization)
_MATRIX_COPIES = 6


def _available_memory() -> int:
    """Bytes the system can still hand out: MemAvailable of /proc/meminfo,
    else the free physical pages."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _check_memory(name: str, key: str, need: int, what: str) -> None:
    """Reject ``key`` when ``need`` bytes for ``what`` do not fit in the
    memory available now. Runs before the first allocation."""
    free = _available_memory()
    if need > free:
        why = f"asks for {what} that need about {need / 2**30:.3g} GiB"
        raise _reject(name, key, f"{why}, more than the {free / 2**30:.3g} GiB available")


def _check_fits(
    name: str, key: str, family: str, variant: str, n: int, rows: int, cols: int,
    concurrent: int = 1, same_points: bool = False,
) -> None:
    """Reject ``key`` when ``concurrent`` rows x cols ``variant`` kernel
    matrices of ``n``-qubit ``family`` points, with their working copies and
    statevectors, do not fit. Both kernels hold one row block of states with
    its working copies (about 10 MiB), and per point (``same_points``: the
    cols are the rows) a fidelity kernel holds its complex state and a
    projected kernel its Bloch vectors; the product families (tensor_ry,
    single_layer_rot) hold no states."""
    states = 0
    if family not in PRODUCT_FAMILIES:
        points = rows if same_points else rows + cols
        per_point = 16 * 2**n if variant == "fidelity" else 24 * n
        states = 160 * _block_rows(n) * 2**n + per_point * points
    need = concurrent * (8 * _MATRIX_COPIES * rows * cols + states)
    _check_memory(name, key, need, f"{rows} x {cols} kernel matrices")


# dataset source -> the keys of the dataset table it does not read
_DATASET_UNREAD = {"csv": ("count", "qubits", "low", "high"), "hypercube": ("low", "high", "path"), "uniform": ("path",)}


def _dataset(name: str, d: dict, dim: int, master_seed: int, fits) -> Dataset:
    """The points of a resolved ``dataset`` sub-table, ``dim`` features wide;
    a key its source does not read must keep its default. ``fits(count, dim)``
    checks the point count before the points are drawn (after a CSV is read)."""
    table = _EXPERIMENTS[name][1]["dataset"]
    why = f"is not read by source {d['source']!r}"
    _unread(name, d, {key: table[key] for key in _DATASET_UNREAD[d["source"]]}, why, "dataset.")
    if d["source"] == "csv":
        try:
            ds = load_csv(d["path"])
        except (OSError, ValueError) as exc:
            raise _reject(name, "dataset", f"path {d['path']!r} does not load: {exc}") from None
        fits(ds.count, ds.dim)
        return ds
    fits(d["count"], dim)
    rng = point_rng(master_seed, 0)
    if d["source"] == "hypercube":
        return gen_hypercube(d["count"], dim, rng)
    return gen_uniform(d["count"], dim, rng, d["low"], d["high"])


@_experiment("variance-scan", {
    "qubits": [2, 3, 4], **_EMBEDDING, "layers": [1], "kernels": ["fidelity", "projected"],
    "gamma": 1.0, "pairs": 100_000, **_INPUT_RANGE,
})
def _run_variance_scan(cfg, master_seed, outdir, threads):
    _no_theta("variance-scan", cfg["family"])
    _unread_gamma("variance-scan", cfg, cfg["kernels"])
    kinds = [KernelKind(name, cfg["gamma"]) for name in cfg["kernels"]]
    qubits, layer_list, pairs = cfg["qubits"], cfg["layers"], cfg["pairs"]
    if pairs < 2:
        raise _reject("variance-scan", "pairs", f"= {pairs} is too few for a variance, need >= 2")
    if cfg["low"] == cfg["high"] and cfg["family"] != "haar":
        raise _reject("variance-scan", "high", f"= {cfg['high']} equals 'low', an empty input interval")
    if len(set(cfg["kernels"])) < len(cfg["kernels"]):
        raise _reject("variance-scan", "kernels", f"= {cfg['kernels']!r} names a kernel twice")

    def work(rng, i, j):
        spec = _embedding(cfg, qubits[i], layer_list[j])
        row = {"n": qubits[i], "layers": layer_list[j], "pairs": pairs}
        for kind, rep in zip(kinds, concentration_scan(spec, kinds, pairs, rng, cfg["low"], cfg["high"])):
            row |= {f"mean_{kind.variant}": rep.mean, f"var_{kind.variant}": rep.variance}
        return row | {"seed": master_seed}

    path = outdir / "variance_scan.csv"
    write_csv(path, _sweep(master_seed, threads, (len(qubits), len(layer_list)), work))
    return [path], {"haar_state_rule": HAAR_STATE_RULE} if cfg["family"] == "haar" else {}


@_experiment("expressivity", {
    "qubits": [2, 3, 4], **_EMBEDDING, "layers": [1, 4, 16, 64], "gamma": 1.0, "samples": 4000,
    **_INPUT_RANGE,
})
def _run_expressivity(cfg, master_seed, outdir, threads):
    _no_theta("expressivity", cfg["family"])
    qubits, layer_list, samples, gamma = cfg["qubits"], cfg["layers"], cfg["samples"], cfg["gamma"]
    if any(n > MAX_EXPRESSIVITY_QUBITS for n in qubits):
        raise _reject("expressivity", "qubits", f"= {qubits} has an entry outside 1..{MAX_EXPRESSIVITY_QUBITS}")

    def work(rng, i, j):
        n = qubits[i]
        est = expressivity_epsilon(_embedding(cfg, n, layer_list[j]), samples, rng, cfg["low"], cfg["high"])
        return {
            "n": n,
            "layers": layer_list[j],
            "samples": samples,
            "eps": est.value,
            "eps_mc_error": est.mc_error,
            "bound_fidelity": bound_expressivity(n, KernelKind.fidelity(), est.value),
            "bound_projected": bound_expressivity(n, KernelKind.projected(gamma), est.value),
            "seed": master_seed,
        }

    path = outdir / "expressivity.csv"
    write_csv(path, _sweep(master_seed, threads, (len(qubits), len(layer_list)), work))
    return [path], {"expressivity_moment": "v2: symmetric subspace"}


@_experiment("noise-scan", {
    "qubits": 4, **_EMBEDDING, "layers": list(range(1, 31)), "q_values": [0.9, 0.95, 0.98],
    "gamma": 1.0, "pairs": 2, **_INPUT_RANGE,
})
def _run_noise_scan(cfg, master_seed, outdir, threads):
    n, family, gamma, pairs = cfg["qubits"], cfg["family"], cfg["gamma"], cfg["pairs"]
    q_values, layer_list, low, high = cfg["q_values"], cfg["layers"], cfg["low"], cfg["high"]
    if n > NOISE_MAX_QUBITS:
        raise _reject("noise-scan", "qubits", f"= {n} is outside 1..{NOISE_MAX_QUBITS}")
    if family == "haar":
        raise _reject("noise-scan", "family", "= 'haar' has no gate layers to add noise to")
    _no_theta("noise-scan", family)
    # per q worker and row: a float64 Pauli vector, and the gates and transfer
    # matrices with their temporaries (about 512 bytes per qubit, traced)
    concurrent = min(threads, len(q_values))
    need = concurrent * 2 * pairs * (8 * 4**n + 512 * n)
    _check_memory("noise-scan", "pairs", need, f"{2 * pairs} noisy {n}-qubit states per q")

    def work(rng, i):
        q = q_values[i]
        params = PauliNoiseParams(q, q, q)
        # rows x_0, y_0, x_1, y_1, ...: the draws of one pair after another;
        # every depth reads the same inputs
        xs = rng.uniform(low, high, (2 * pairs, n))
        by_depth = {}
        for layers, states in noisy_pauli_depths(_embedding(cfg, n, max(layer_list)), xs, params, layer_list):
            bnd = noise_bounds(params, n, layers, gamma)
            a, b = states[0::2], states[1::2]
            by_depth[layers] = {
                "n": n,
                "q": q,
                "layers": layers,
                "pairs": pairs,
                "fidelity_dev": np.abs(pauli_fidelity_kernel(a, b) - bnd.fidelity_mean).sum() / pairs,
                "fidelity_bound": bnd.fidelity_deviation,
                "projected_dev": np.abs(1.0 - pauli_projected_kernel(a, b, gamma)).sum() / pairs,
                "projected_bound": bnd.projected_deviation,
                "state_dist": pauli_mixed_distance(a).sum() / pairs,
                "state_bound": bnd.state_distance,
                "seed": master_seed,
            }
        return [by_depth[layers] for layers in layer_list]

    path = outdir / "noise_scan.csv"
    write_csv(path, [row for q_rows in _sweep(master_seed, threads, (len(q_values),), work) for row in q_rows])
    return [path], {
        "noisy_state_engine": "v4: Pauli-transfer vectors; single_layer_rot gates from the elementwise column",
        "noise_scan_inputs": "v2: per q, SeedSequence((master_seed, i)); every depth reads the same 2*pairs inputs",
    }


@_experiment("gram", {
    "qubits": 4, **_EMBEDDING, "kernel": "fidelity", "gamma": 1.0, "estimator": _ESTIMATOR,
    # dataset qubits None: the top-level qubits
    "dataset": {"source": "uniform", "count": 10, "qubits": None, **_INPUT_RANGE, "path": None},
})
def _run_gram(cfg, master_seed, outdir, threads):
    del threads
    n = cfg["qubits"]
    _no_theta("gram", cfg["family"])
    _unread_gamma("gram", cfg, [cfg["kernel"]])
    spec = _embedding(cfg, n, cfg["layers"])
    kind = KernelKind(cfg["kernel"], cfg["gamma"])
    est = _estimator("gram", cfg["estimator"], kind, master_seed)
    ds = _dataset(
        "gram", cfg["dataset"], cfg["dataset"]["qubits"] or n, master_seed,
        lambda m, dim: _check_fits("gram", "dataset.count", spec.family, kind.variant, n, m, m, same_points=True),
    )
    if ds.dim != n:
        raise _reject("gram", "dataset", f"points have {ds.dim} features, but 'qubits' = {n}")
    gm = gram(spec, ds.inputs, kind, estimator=est)
    gram_path = outdir / "gram.csv"
    gm.to_csv(gram_path)
    points_path = outdir / "points.csv"
    save_csv(ds, points_path)
    pairs = ds.count * (ds.count - 1) // 2
    zeros = np.count_nonzero(np.triu(gm.matrix == 0.0, 1))
    return [gram_path, points_path], {"zero_ratio": zeros / pairs if pairs else None}


@_experiment("train", {
    **_EMBEDDING, "kernel": "fidelity", "gamma": 1.0, "estimator": _ESTIMATOR,
    "dataset": {"source": "hypercube", "count": 10, "qubits": 3, **_INPUT_RANGE, "path": None},
    "theta": None,  # None: drawn uniformly from [0, 2 pi) for the parameterized family
    "algorithm": "krr", "lambda": 0.0, "ridge_sign": "minus",
})
def _run_train(cfg, master_seed, outdir, threads):
    del threads
    if cfg["algorithm"] == "svm":
        _unread("train", cfg, {"lambda": 0.0, "ridge_sign": "minus"}, "sets the ridge term of 'krr'; 'svm' has none")
    _unread_gamma("train", cfg, [cfg["kernel"]])
    kind = KernelKind(cfg["kernel"], cfg["gamma"])
    est = _estimator("train", cfg["estimator"], kind, master_seed)
    ds = _dataset(
        "train", cfg["dataset"], cfg["dataset"]["qubits"], master_seed,
        lambda m, dim: _check_fits(
            "train", "dataset.count", cfg["family"], cfg["kernel"], dim, m, m, same_points=est is None
        ),
    )
    if ds.labels is None:
        raise _reject("train", "dataset", "has no labels to train on")
    n, theta = ds.dim, cfg["theta"]
    spec = _embedding(cfg, n, cfg["layers"])
    if spec.family != "parameterized" and theta is not None:
        raise _reject("train", "theta", f"is set, but family {spec.family!r} takes no parameters")
    if spec.family == "parameterized" and theta is None:
        theta = point_rng(master_seed, 1).uniform(0.0, 2.0 * math.pi, n)
    elif theta is not None and len(theta) != n:
        raise _reject("train", "theta", f"= {theta!r} is not one angle per dataset feature ({n})")
    model, fit, gm = train(
        spec, ds.inputs, ds.labels, kind, cfg["algorithm"], cfg["lambda"], cfg["ridge_sign"], est, theta
    )
    if cfg["algorithm"] == "krr":
        extras = {"condition_number": fit.condition_number}
    else:
        extras = dict(
            svm_solver=fit.solver,
            iterations=fit.iterations,
            objective=fit.objective,
            converged=fit.converged,
            kkt_residual=fit.kkt_residual,
            min_eigenvalue=fit.min_eigenvalue,
            eigenvalues_clipped=fit.eigenvalues_clipped,
        )

    model_path = outdir / "model.json"
    with open(model_path, "w", newline="\n") as fh:
        fh.write(model.to_json() + "\n")
    # exact runs take the model values from the Gram matrix they were fitted
    # on; a shot-estimated fit is scored against the exact kernel
    preds = gm.matrix @ model.weights if est is None else predict(model, ds.inputs)
    extras["train_error_max"] = float(np.max(np.abs(preds - ds.labels)))
    pred_path = outdir / "predictions.csv"
    write_csv(pred_path, [
        {**{f"f{k + 1}": v for k, v in enumerate(x)}, "label": label, "prediction": pred}
        for x, label, pred in zip(ds.inputs, ds.labels, preds)
    ])
    return [model_path, pred_path], extras


@_experiment("generalization", {
    "qubits": 40, "train_sizes": [10, 25, 50, 75, 100, 125, 150], "num_test": 20, "shots": 1000,
    "lambda": 0.0, "repeats": 10, "low": 0.0, "high": 2.0 * math.pi,
})
def _run_generalization(cfg, master_seed, outdir, threads):
    sizes, repeats = tuple(cfg["train_sizes"]), cfg["repeats"]
    n, pool, concurrent = cfg["qubits"], max(sizes), min(threads, repeats)
    _check_fits("generalization", "train_sizes", "tensor_ry", "fidelity", n, pool, pool, concurrent)
    _check_fits("generalization", "num_test", "tensor_ry", "fidelity", n, pool + cfg["num_test"], pool, concurrent)
    kwargs = dict(
        num_qubits=cfg["qubits"],
        train_sizes=sizes,
        num_test=cfg["num_test"],
        shots=cfg["shots"],
        lam=cfg["lambda"],
        low=cfg["low"],
        high=cfg["high"],
    )
    results = _sweep(master_seed, threads, (repeats,), lambda rng, r: generalization_experiment(rng, **kwargs))

    rep_path = outdir / "generalization_repeats.csv"
    write_csv(rep_path, [
        {
            "repeat": r,
            "train_size": size,
            "loss_exact": res.loss_exact[s],
            "loss_estimated": res.loss_estimated[s],
            "train_error_exact": res.train_error_exact[s],
            "train_error_estimated": res.train_error_estimated[s],
        }
        for r, res in enumerate(results)
        for s, size in enumerate(sizes)
    ])
    loss_ex = np.vstack([res.loss_exact for res in results])
    loss_est = np.vstack([res.loss_estimated for res in results])
    eta_ex = np.mean(loss_ex / loss_ex[:, :1], axis=0)
    eta_est = np.mean(loss_est / loss_est[:, :1], axis=0)
    sum_path = outdir / "generalization.csv"
    write_csv(sum_path, [
        {
            "train_size": size,
            "eta_exact": eta_ex[s],
            "eta_estimated": eta_est[s],
            "loss_exact_mean": loss_ex[:, s].mean(),
            "loss_estimated_mean": loss_est[:, s].mean(),
            "seed": master_seed,
        }
        for s, size in enumerate(sizes)
    ])
    return [rep_path, sum_path], {}


@lru_cache(maxsize=None)
def _cached_pvalue(successes: int, shots: int, null_ppm: int) -> float:
    return binomial_pvalue(successes, shots, null_ppm / 1e6)


_QUBIT_PAIRS = {"qubits": list(range(6, 15)), "pairs": 1000, **_INPUT_RANGE}


def _pair_fidelities(cfg: dict, n: int, rng: np.random.Generator) -> np.ndarray:
    """The tensor-Ry fidelity kernel of ``cfg["pairs"]`` uniform ``n``-qubit
    input pairs: every x is drawn, then every y."""
    xs = rng.uniform(cfg["low"], cfg["high"], (cfg["pairs"], n))
    ys = rng.uniform(cfg["low"], cfg["high"], (cfg["pairs"], n))
    return product_kernel(xs, ys, KernelKind.fidelity())


@_experiment("indistinguishability", {"mode": {
    "zero_ratio": {**_QUBIT_PAIRS, "shots": [1000, 10_000, 100_000]},
    "swap_test": {**_QUBIT_PAIRS, "shots": 10_000, "alpha": 0.01},
    "decision": {"shots": [1, 10, 100], "eps": [0.0, 0.01, 0.1], "trials": 100_000, "p0": 0.5},
}})
def _run_indistinguishability(cfg, master_seed, outdir, threads):
    shots = cfg["shots"]
    if cfg["mode"] == "decision":
        eps_grid, trials = cfg["eps"], cfg["trials"]
        if not 0.0 < cfg["p0"] < 1.0 or not all(0.0 <= cfg["p0"] + e <= 1.0 for e in eps_grid):
            raise _reject("indistinguishability", "p0", f"= {cfg['p0']!r} is not in (0, 1) with p0 + eps in [0, 1]")

        def work(rng, i, j):
            success = simulate_distinguish(shots[i], eps_grid[j], trials, rng, cfg["p0"])
            bound = distinguish_success_bound(shots[i], eps_grid[j])
            return {"shots": shots[i], "eps": eps_grid[j], "trials": trials, "success": success, "bound": bound}

        name, sizes = "decision", (len(shots), len(eps_grid))
    elif cfg["mode"] == "zero_ratio":

        def work(rng, i, j):
            n = cfg["qubits"][i]
            counts = rng.binomial(shots[j], _pair_fidelities(cfg, n, rng))
            return {"n": n, "shots": shots[j], "pairs": cfg["pairs"], "zero_ratio": np.mean(counts == 0)}

        name, sizes = "zero_ratio", (len(cfg["qubits"]), len(shots))
    else:

        def work(rng, i):
            n, alpha = cfg["qubits"][i], cfg["alpha"]
            counts = rng.binomial(shots, 0.5 * (1.0 + _pair_fidelities(cfg, n, rng)))
            pvals = np.array([_cached_pvalue(int(k), shots, 500_000) for k in counts])
            success_ratio = np.mean(pvals < alpha)
            return {"n": n, "shots": shots, "pairs": cfg["pairs"], "alpha": alpha, "success_ratio": success_ratio}

        name, sizes = "swap_success", (len(cfg["qubits"]),)
    path = outdir / f"{name}.csv"
    write_csv(path, [row | {"seed": master_seed} for row in _sweep(master_seed, threads, sizes, work)])
    return [path], {}


@_experiment("kta-scan", {
    "qubits": [2, 3, 4, 5, 6], "family": "parameterized", "layers": 1, "entangler": "cz",
    "kernel": "fidelity", "gamma": 1.0, "points": 10, "num_thetas": 500,
})
def _run_kta_scan(cfg, master_seed, outdir, threads):
    qubits, npts, num_thetas = cfg["qubits"], cfg["points"], cfg["num_thetas"]
    if cfg["family"] != "parameterized":
        raise _reject("kta-scan", "family", f"= {cfg['family']!r} has no parameters to vary")
    _unread_gamma("kta-scan", cfg, [cfg["kernel"]])
    kind = KernelKind(cfg["kernel"], cfg["gamma"])

    def work(rng, i):
        n = qubits[i]
        ds = gen_hypercube(npts, n, rng)
        spec = EmbeddingSpec(n, cfg["family"], cfg["layers"], cfg["entangler"])
        scan = kta_variance_over_theta(spec, ds.inputs, ds.labels, num_thetas, rng, kind)
        return {
            "n": n,
            "points": npts,
            "num_thetas": num_thetas,
            "ta_variance": scan.ta_variance,
            "kernel_variance_sum": np.sum(scan.kernel_variances),
            "bound_statement": kta_variance_bound(scan.kernel_variances, npts, "statement"),
            "bound_proof": kta_variance_bound(scan.kernel_variances, npts, "proof"),
            "seed": master_seed,
        }

    rows = _sweep(master_seed, threads, (len(qubits),), work)
    path = outdir / "kta_scan.csv"
    write_csv(path, rows)
    # a violated bound is reported, never clipped
    violations = sum(row["ta_variance"] > row["bound_proof"] for row in rows)
    return [path], {"checks": {"kta_bound_violations": violations}}


# variances None: the tensor-Ry kernel variance at each qubit count
@_experiment("shots-budget", {"qubits": [2, 4, 6, 8], "precision": 1.0, "fail_prob": 0.05, "variances": None})
def _run_shots_budget(cfg, master_seed, outdir, threads):
    del threads
    qubits, variances = cfg["qubits"], cfg["variances"]
    if variances is not None and len(variances) != len(qubits):
        raise _reject("shots-budget", "variances", f"= {variances!r} is not one variance per 'qubits' entry")
    rows = []
    for i, n in enumerate(qubits):
        var = float(variances[i]) if variances else product_ry_moments(n)[2]
        shots = shots_budget(var, cfg["precision"], cfg["fail_prob"])
        rows.append({"n": n, "variance": var, "shots": shots, "seed": master_seed})
    path = outdir / "shots_budget.csv"
    write_csv(path, rows)
    return [path], {}


@_experiment("bounds", {"qubits": [2, 4, 6, 8], "layers": 10, "gamma": 1.0, "eps": 0.0, "q": 0.95})
def _run_bounds(cfg, master_seed, outdir, threads):
    del threads
    layers, gamma, eps, q = cfg["layers"], cfg["gamma"], cfg["eps"], cfg["q"]
    if eps < 0:
        raise _reject("bounds", "eps", f"= {eps} is not an expressivity, which is >= 0")
    rows = []
    for n in cfg["qubits"]:
        mean, _, var = product_ry_moments(n)
        nb = noise_bounds(PauliNoiseParams(q, q, q), n, layers, gamma)
        rows.append({
            "n": n,
            "layers": layers,
            "q": q,
            "gamma": gamma,
            "eps": eps,
            "beta_haar": beta_haar(n),
            "beta_haar_projected": beta_haar_projected(n),
            "bound_expressivity_fidelity": bound_expressivity(n, KernelKind.fidelity(), eps),
            "bound_expressivity_projected": bound_expressivity(n, KernelKind.projected(gamma), eps),
            "noise_fidelity_bound": nb.fidelity_deviation,
            "noise_projected_bound": nb.projected_deviation,
            "noise_state_bound": nb.state_distance,
            "product_mean": mean,
            "product_variance": var,
            "seed": master_seed,
        })
    path = outdir / "bounds.csv"
    write_csv(path, rows)
    return [path], {}


def _thread_count(threads) -> int:
    """The sweep's worker count: ``threads``, else QKONC_THREADS, else 1. A
    count that is not an integer >= 1 stops the run with a
    ``click.ClickException`` that names where it came from."""
    source = "threads"
    if threads is None:
        source, threads = "QKONC_THREADS", os.environ.get("QKONC_THREADS", "1")
    try:
        count = int(threads)
    except (TypeError, ValueError):
        count = 0
    if count < 1:
        raise click.ClickException(f"{source} = {threads!r} is not a thread count, expected an integer >= 1")
    return count


def run_experiment(name: str, config: dict, seed=None, out=".", threads=None) -> dict:
    """Programmatic entry point; returns the manifest dictionary. The run's
    BLAS calls use one OpenBLAS thread (see ``_one_blas_thread``); its
    parallelism is the ``threads`` sweep workers."""
    if name not in _EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}")
    threads = _thread_count(threads)
    runner, table = _EXPERIMENTS[name]
    cfg = _resolve(name, table, config)
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    master_seed = int(seed if seed is not None else cfg["seed"])
    start = time.monotonic()
    with _one_blas_thread() as blas_threads:
        outputs, extras = runner(cfg, master_seed, outdir, threads)
    wall = time.monotonic() - start
    manifest = {
        "experiment": name,
        "config": config,
        "config_sha256": config_hash(config),
        "resolved_config": cfg,
        "master_seed": master_seed,
        "seed_rule": (
            "numpy SeedSequence((master_seed, *sweep_indices)); shot-estimated kernel matrices v3: "
            "per-row SeedSequence((estimator_seed, 0x73686F74, row_offset + row)), 0x73686F74 the shot-stream tag"
        ),
        "statevector_engine": (
            "v3: exact kernels read tensor_ry and cz hardware_efficient as a real Ry circuit times "
            "(-i)^popcount, and single_layer_rot from each qubit's state"
        ),
        "tensor_ry_kernel": "v2: angle-addition products",
        "package_version": __version__,
        "threads": threads,
        "blas_threads": blas_threads,
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
    fn = click.option(
        "--threads", type=click.IntRange(min=1), default=None, help="worker threads (default: QKONC_THREADS or 1)"
    )(fn)
    return fn


@click.group()
@click.version_option(__version__)
def main():
    """Concentration experiments for quantum kernel methods."""
    # At exit, move every live object to the permanent generation, so the
    # final collections skip numpy's, click's and qkonc's objects and the OS
    # reclaims their memory at once. Registered once per process, however
    # often ``main`` runs; ``run_experiment`` callers keep the default teardown.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)


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


for _name in _EXPERIMENTS:
    _register(_name)


if __name__ == "__main__":
    main()
