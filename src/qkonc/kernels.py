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

evaluated by angle addition from each input's own cosines and sines, so the
transcendentals cost O((m + m') n) and the (m, m') pairs only multiplies and
adds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import _accel
from .core import StateVector, _reduced_matrix, bloch_vectors, fidelity, hs_inner
from .embeddings import EmbeddingSpec, _block_rows, embed_batch
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
            diff = _reduced_matrix(a, k) - _reduced_matrix(b, k)
            d += float(np.sum(diff.real**2 + diff.imag**2))
        return d
    return 0.5 * float(np.sum((bloch_vectors(a) - bloch_vectors(b)) ** 2))


def projected_kernel(a, b, gamma: float = 1.0) -> float:
    return math.exp(-gamma * projected_sq_distance(a, b))


# ---------------------------------------------------------------------------
# tensor-Ry closed forms
# ---------------------------------------------------------------------------


def product_kernel(xs, ys, kind: KernelKind) -> np.ndarray:
    """Tensor-Ry kernel over the broadcast of ``xs`` and ``ys`` (shape ``(..., n)``).

    Cosines and sines are taken once per input row; each qubit's factor then
    follows by angle addition, cos(a - b) = cos a cos b + sin a sin b, with
    a = x/2 for the fidelity amplitude and a = x for the projected Bloch
    overlap. A loop over the qubits multiplies in one signed amplitude
    (fidelity, squared once at the end) or adds one 1 - cos term (projected)
    per step, in place in a buffer of the broadcast shape: pass ``(m, n)``
    against ``(m, n)`` for row-wise pairs, ``xs[:, None]`` against ``ys[None]``
    for an (m, m') matrix, which is bitwise symmetric when ``ys`` is ``xs``.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape[-1] != ys.shape[-1]:
        raise ValueError(f"inputs of widths {xs.shape[-1]} and {ys.shape[-1]}")
    fid = kind.variant == "fidelity"
    if fid:
        xs, ys = 0.5 * xs, 0.5 * ys
    cx, sx, cy, sy = np.cos(xs), np.sin(xs), np.cos(ys), np.sin(ys)
    shape = np.broadcast_shapes(xs.shape[:-1], ys.shape[:-1])
    out, term, ss = np.full(shape, 1.0 if fid else 0.0), np.empty(shape), np.empty(shape)
    for k in range(xs.shape[-1]):
        np.multiply(cx[..., k], cy[..., k], out=term)
        term += np.multiply(sx[..., k], sy[..., k], out=ss)
        if fid:
            out *= term
        else:  # Bloch vectors (sin x, 0, cos x): ||rho_k - rho'_k||_2^2 = 1 - cos(x_k - x'_k)
            out += np.subtract(1.0, term, out=term)
    return np.square(out, out=out) if fid else np.exp(-kind.gamma * out, out=out)


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
            line = ",".join(["%.17g"] * self.matrix.shape[1]) + "\n"
            for row in self.matrix:
                fh.write(line % tuple(row.tolist()))

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


def _points(spec: EmbeddingSpec, xs) -> np.ndarray:
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != spec.num_qubits:
        raise ValueError(f"expected (m, {spec.num_qubits}) inputs, got {xs.shape}")
    return xs


def _exact_kernel_matrix(
    spec: EmbeddingSpec, xs: np.ndarray, ys: np.ndarray | None, kind: KernelKind, theta
) -> np.ndarray:
    """Exact kernel values between two point sets (ys=None means xs vs xs)."""
    if spec.family == "tensor_ry":
        return product_kernel(xs[:, None], (xs if ys is None else ys)[None], kind)
    if kind.variant == "fidelity":
        psi_a = embed_batch(spec, xs, theta=theta)
        psi_b = psi_a if ys is None else embed_batch(spec, ys, theta=theta)
        ov = psi_a @ psi_b.conj().T
        return (ov.real**2 + ov.imag**2)
    ca = _all_bloch(spec, xs, theta).reshape(len(xs), -1)
    cb = ca if ys is None else _all_bloch(spec, ys, theta).reshape(len(ys), -1)
    sq_a = np.sum(ca * ca, axis=1)
    sq_b = np.sum(cb * cb, axis=1)
    # exp(-gamma * 0.5 * (|a|^2 + |b|^2 - 2 a.b)) in that order, in place in
    # two (m, m') arrays
    ab = ca @ cb.T
    ab *= 2.0
    out = sq_a[:, None] + sq_b[None, :]
    out -= ab
    out *= 0.5
    out *= -kind.gamma
    return np.exp(out, out=out)


def _all_bloch(spec: EmbeddingSpec, xs: np.ndarray, theta) -> np.ndarray:
    """(m, n, 3) Bloch vectors of the embedded points. Statevectors are built
    and reduced one row block of ``_block_rows(n)`` at a time."""
    if spec.family == "tensor_ry":
        return product_bloch_vectors(xs)
    n, step = spec.num_qubits, _block_rows(spec.num_qubits)
    out = np.empty((len(xs), n, 3))
    for lo in range(0, len(xs), step):
        out[lo : lo + step] = _accel.bloch_batch(embed_batch(spec, xs[lo : lo + step], theta=theta), n)
    return out


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
    xs = _points(spec, xs)
    if estimator is None or estimator.strategy == "exact":
        out = _exact_kernel_matrix(spec, xs, None, kind, theta)
    else:
        out = _sampled_kernel_matrix(spec, xs, None, kind, estimator, theta, 0)
    for i in range(len(out)):  # keep the strict upper triangle, mirrored
        out[i, i] = 1.0
        out[i + 1 :, i] = out[i, i + 1 :]
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
    xs = _points(spec, xs)
    ys = _points(spec, ys)
    if estimator is None or estimator.strategy == "exact":
        return _exact_kernel_matrix(spec, xs, ys, kind, theta)
    return _sampled_kernel_matrix(spec, xs, ys, kind, estimator, theta, seed_offset)
