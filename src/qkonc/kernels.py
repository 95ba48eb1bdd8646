"""Kernel functions and Gram-matrix assembly.

Two kernels are supported between embedded states rho(x), rho(x'):

* fidelity:  kappa_FQ = Tr[rho(x) rho(x')]  (= |<psi(x)|psi(x')>|^2 for pure states)
* projected: kappa_PQ = exp(-gamma * sum_k ||rho_k(x) - rho_k(x')||_2^2)
  over single-qubit reduced states; for pure global states each term equals
  half the squared Bloch-vector difference.

The tensor-Ry product family additionally has closed forms valid at any
qubit count (no statevector is ever materialized):

  kappa_FQ = prod_k cos^2((x_k - x'_k)/2)
  kappa_PQ = exp(-gamma * sum_k (1 - cos(x_k - x'_k)))
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import _accel
from .core import StateVector, bloch_vectors, fidelity, hs_inner, reduce_to_qubit
from .embeddings import EmbeddingSpec, embed_batch
from .estimators import EstimatorSpec, projected_estimate_from_bloch, sample_fidelity

KERNEL_VARIANTS = ("fidelity", "projected")


@dataclass(frozen=True)
class KernelKind:
    variant: str
    gamma: float = 1.0

    def __post_init__(self):
        if self.variant not in KERNEL_VARIANTS:
            raise ValueError(f"unknown kernel variant {self.variant!r}")
        if self.gamma <= 0.0:
            raise ValueError("gamma must be positive")

    @staticmethod
    def fidelity() -> "KernelKind":
        return KernelKind("fidelity")

    @staticmethod
    def projected(gamma: float = 1.0) -> "KernelKind":
        return KernelKind("projected", gamma=gamma)


def fidelity_kernel(a, b) -> float:
    """Tr[rho sigma]; reduces to the squared overlap for pure states."""
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return fidelity(a, b)
    return hs_inner(a, b)


def projected_sq_distance(a, b) -> float:
    """Sum over qubits of the squared 2-norm distance of reduced states."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("states act on different qubit counts")
    if not (isinstance(a, StateVector) and isinstance(b, StateVector)):
        d = 0.0
        for k in range(a.num_qubits):
            diff = reduce_to_qubit(a, k).matrix - reduce_to_qubit(b, k).matrix
            d += float(np.sum(diff.real**2 + diff.imag**2))
        return d
    return 0.5 * float(np.sum((bloch_vectors(a) - bloch_vectors(b)) ** 2))


def projected_kernel(a, b, gamma: float = 1.0) -> float:
    return math.exp(-gamma * projected_sq_distance(a, b))


# ---------------------------------------------------------------------------
# tensor-Ry closed forms
# ---------------------------------------------------------------------------


def closed_form_product_fidelity(x, y) -> float:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    return float(_accel.product_cos2(x, y)[0])


def closed_form_product_fidelity_batch(xs, ys) -> np.ndarray:
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    ys = np.ascontiguousarray(ys, dtype=np.float64)
    return _accel.product_cos2(xs, ys)


def closed_form_product_projected(x, y, gamma: float = 1.0) -> float:
    return float(closed_form_product_projected_batch(
        np.atleast_2d(x), np.atleast_2d(y), gamma
    )[0])


def closed_form_product_projected_batch(xs, ys, gamma: float = 1.0) -> np.ndarray:
    # Ry(x)|0> has Bloch vector (sin x, 0, cos x), so each qubit contributes
    # ||rho_k - rho'_k||_2^2 = 1 - cos(x_k - x'_k).
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    d = np.sum(1.0 - np.cos(xs - ys), axis=1)
    return np.exp(-gamma * d)


def product_bloch_vectors(xs) -> np.ndarray:
    """(m, n, 3) Bloch vectors of tensor-Ry states, any qubit count."""
    xs = np.asarray(xs, dtype=np.float64)
    return np.stack([np.sin(xs), np.zeros_like(xs), np.cos(xs)], axis=2)


# ---------------------------------------------------------------------------
# Gram matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GramMatrix:
    matrix: np.ndarray
    kind: KernelKind
    estimator: EstimatorSpec | None = None

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {mat.shape}")
        object.__setattr__(self, "matrix", mat)

    @property
    def num_points(self) -> int:
        return self.matrix.shape[0]

    def to_csv(self, path) -> None:
        meta = {"variant": self.kind.variant, "gamma": self.kind.gamma}
        if self.estimator is not None:
            meta["strategy"] = self.estimator.strategy
            meta["shots"] = self.estimator.shots
            meta["seed"] = self.estimator.seed
        with open(path, "w", newline="\n") as fh:
            fh.write("# " + json.dumps(meta, sort_keys=True) + "\n")
            for row in self.matrix:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")

    @staticmethod
    def from_csv(path) -> "GramMatrix":
        meta = {}
        rows = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    meta = json.loads(line[1:])
                    continue
                rows.append([float(v) for v in line.split(",")])
        kind = KernelKind(meta.get("variant", "fidelity"), meta.get("gamma", 1.0))
        est = None
        if "strategy" in meta:
            est = EstimatorSpec(meta["strategy"], meta.get("shots", 1000), meta.get("seed", 0))
        return GramMatrix(np.array(rows), kind, est)


def _exact_kernel_matrix(
    spec: EmbeddingSpec, xs: np.ndarray, ys: np.ndarray | None, kind: KernelKind, theta
) -> np.ndarray:
    """Exact kernel values between two point sets (ys=None means xs vs xs)."""
    if spec.family == "tensor_ry":
        b = xs if ys is None else ys
        diff = xs[:, None, :] - b[None, :, :]
        if kind.variant == "fidelity":
            c = np.cos(0.5 * diff)
            return np.prod(c * c, axis=2)
        return np.exp(-kind.gamma * np.sum(1.0 - np.cos(diff), axis=2))
    psi_a = embed_batch(spec, xs, theta=theta)
    psi_b = psi_a if ys is None else embed_batch(spec, ys, theta=theta)
    if kind.variant == "fidelity":
        ov = psi_a @ psi_b.conj().T
        return (ov.real**2 + ov.imag**2)
    ca = _accel.bloch_batch(psi_a, spec.num_qubits).reshape(len(xs), -1)
    cb = ca if ys is None else _accel.bloch_batch(psi_b, spec.num_qubits).reshape(len(psi_b), -1)
    sq_a = np.sum(ca * ca, axis=1)
    sq_b = np.sum(cb * cb, axis=1)
    d = 0.5 * (sq_a[:, None] + sq_b[None, :] - 2.0 * (ca @ cb.T))
    return np.exp(-kind.gamma * d)


def _all_bloch(spec: EmbeddingSpec, xs: np.ndarray, theta) -> np.ndarray:
    if spec.family == "tensor_ry":
        return product_bloch_vectors(xs)
    return _accel.bloch_batch(embed_batch(spec, xs, theta=theta), spec.num_qubits)


def _sampled_kernel_matrix(
    spec: EmbeddingSpec, xs: np.ndarray, ys: np.ndarray | None, kind: KernelKind,
    estimator: EstimatorSpec, theta, row_offset: int,
) -> np.ndarray:
    """Finite-shot kernel estimates between two point sets.

    ys=None estimates only the strict upper triangle of xs vs xs (the rest
    is left 0). Row i draws all of its entries, each an independent
    estimator run, from one generator SeedSequence((seed, row_offset + i)).
    """
    fidelity_strategy = estimator.strategy in ("loschmidt", "swap")
    if fidelity_strategy != (kind.variant == "fidelity"):
        raise ValueError(
            f"estimator {estimator.strategy!r} is incompatible with the {kind.variant} kernel"
        )
    if fidelity_strategy:
        exact = _exact_kernel_matrix(spec, xs, ys, kind, theta)
    else:
        ba = _all_bloch(spec, xs, theta)
        bb = ba if ys is None else _all_bloch(spec, ys, theta)
    out = np.zeros((len(xs), len(xs) if ys is None else len(ys)))
    for i in range(out.shape[0]):
        lo = i + 1 if ys is None else 0
        rng = np.random.default_rng(np.random.SeedSequence((estimator.seed, row_offset + i)))
        if fidelity_strategy:
            out[i, lo:] = sample_fidelity(exact[i, lo:], estimator.strategy, estimator.shots, rng)
        else:
            out[i, lo:] = projected_estimate_from_bloch(
                ba[i], bb[lo:], estimator.strategy, estimator.shots, rng, kind.gamma
            )
    return out


def gram(
    spec: EmbeddingSpec,
    xs,
    kind: KernelKind,
    estimator: EstimatorSpec | None = None,
    theta=None,
) -> GramMatrix:
    """Assemble a Gram matrix over a point set.

    The diagonal is fixed to exactly 1 without evaluation. With a finite-shot
    estimator, every strict-upper-triangle entry is an independent estimator
    run; row i draws its entries from SeedSequence((seed, i)), and the matrix
    is then symmetrized. Estimator/kernel compatibility is enforced
    (loschmidt and swap estimate fidelity kernels; tomography and local_swap
    estimate projected kernels).
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != spec.num_qubits:
        raise ValueError(f"expected (m, {spec.num_qubits}) inputs, got {xs.shape}")
    npts = xs.shape[0]
    if estimator is None or estimator.strategy == "exact":
        upper = _exact_kernel_matrix(spec, xs, None, kind, theta)
    else:
        upper = _sampled_kernel_matrix(spec, xs, None, kind, estimator, theta, 0)
    out = np.eye(npts)
    iu = np.triu_indices(npts, k=1)
    out[iu] = upper[iu]
    out.T[iu] = upper[iu]
    return GramMatrix(out, kind, estimator)


def kernel_matrix(
    spec: EmbeddingSpec,
    xs,
    ys,
    kind: KernelKind,
    estimator: EstimatorSpec | None = None,
    theta=None,
    seed_offset: int = 1 << 20,
) -> np.ndarray:
    """Rectangular kernel matrix between two point sets (e.g. test vs train).

    Estimated row i draws from SeedSequence((seed, seed_offset + i)), so it
    never collides with the square Gram rows of the same seed.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if estimator is None or estimator.strategy == "exact":
        return _exact_kernel_matrix(spec, xs, ys, kind, theta)
    return _sampled_kernel_matrix(spec, xs, ys, kind, estimator, theta, seed_offset)
