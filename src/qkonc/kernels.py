"""Kernel functions and Gram-matrix assembly.

Two kernels are supported between embedded states rho(x), rho(x'):

* fidelity:  kappa_FQ = Tr[rho(x) rho(x')]  (= |<psi(x)|psi(x')>|^2 for pure states)
* projected: kappa_PQ = exp(-gamma * sum_k ||rho_k(x) - rho_k(x')||_2^2)
  over single-qubit reduced states; for pure global states each term equals
  half the squared Bloch-vector difference.

Every family's exact projected kernel is read from (m, n, 3) Bloch arrays:
reduced from statevectors one row block at a time, or, for the product
families tensor_ry and single_layer_rot, taken from each qubit's own state at
any qubit count (``product_bloch_vectors``). The product families' fidelity
kernel has a closed form at any qubit count, ``product_kernel``: with u_k
qubit k's state,

  kappa_FQ = prod_k |<u_k(x)|u_k(x')>|^2

For tensor_ry, u_k = (cos(x_k/2), sin(x_k/2)), so this is prod_k
cos^2((x_k - x'_k)/2), evaluated by angle addition from each input's own
cosines and sines: the transcendentals cost O((m + m') n) and the (m, m')
pairs only multiplies and adds. single_layer_rot's u_k is column 0 of its
qubit gate in ``embeddings._layer_gates``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import StateVector, _reduced_matrix, bloch_vectors, fidelity, hs_inner
from .embeddings import EmbeddingSpec, _block_bloch, _block_rows, _first_columns, _state_blocks, embed_batch
from .estimators import STRATEGY_KERNELS, EstimatorSpec, projected_estimate_from_bloch, sample_fidelity

KERNEL_VARIANTS = ("fidelity", "projected")
# the seed-stream offset of kernel_matrix's estimated rows past gram's rows
_ROW_OFFSET = 1 << 20
# The purpose tag ("shot" in ASCII) in the entropy of every shot-noise stream.
# The CLI seeds points and theta from (master_seed, 0) and (master_seed, 1),
# so an untagged (seed, row) stream would replay them.
_SHOT_STREAM = 0x73686F74


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
# product-state closed forms
# ---------------------------------------------------------------------------

# the families whose states are products of one-qubit states
PRODUCT_FAMILIES = ("tensor_ry", "single_layer_rot")


def _qubit_vectors(xs: np.ndarray, family: str, bra: bool = False) -> np.ndarray:
    """(..., n, 2) amplitudes of each qubit's state, conjugated on the ``bra``
    side; tensor_ry's are (cos(x/2), sin(x/2))."""
    if family == "tensor_ry":
        a = 0.5 * xs
        return np.stack([np.cos(a), np.sin(a)], axis=-1)
    col = _first_columns(EmbeddingSpec(xs.shape[-1], family), xs)[..., 0]
    return col.conj() if bra else col


def product_kernel(xs, ys, family: str = "tensor_ry") -> np.ndarray:
    """Product-family fidelity kernel over the broadcast of ``xs`` and ``ys``
    (shape ``(..., n)``): prod_k |<u_k(x)|u_k(y)>|^2.

    Each input row's qubit amplitudes (``_qubit_vectors``) are made once; the
    loop over the qubits then multiplies in one amplitude overlap per step, in
    place in a buffer of the broadcast shape, and the product is
    absolute-squared once at the end. For tensor_ry the overlaps are
    cos((x - y)/2) by angle addition, cos a cos b + sin a sin b. Pass
    ``(m, n)`` against ``(m, n)`` for row-wise pairs, ``xs[:, None]`` against
    ``ys[None]`` for an (m, m') matrix, which for tensor_ry is bitwise
    symmetric when ``ys`` is ``xs``.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape[-1] != ys.shape[-1]:
        raise ValueError(f"inputs of widths {xs.shape[-1]} and {ys.shape[-1]}")
    if family not in PRODUCT_FAMILIES:
        raise ValueError(f"family {family!r} is not a product family {PRODUCT_FAMILIES}")
    u, v = _qubit_vectors(xs, family, bra=True), _qubit_vectors(ys, family)
    shape = np.broadcast_shapes(xs.shape[:-1], ys.shape[:-1])
    dtype = np.result_type(u, v)
    out = np.full(shape, 1.0, dtype)
    term, ss = np.empty(shape, dtype), np.empty(shape, dtype)
    for k in range(xs.shape[-1]):
        np.multiply(u[..., k, 0], v[..., k, 0], out=term)
        term += np.multiply(u[..., k, 1], v[..., k, 1], out=ss)
        out *= term
    del term, ss  # before |out|^2 of a complex product allocates three more
    return out.real**2 + out.imag**2 if out.dtype.kind == "c" else np.square(out, out=out)


def product_bloch_vectors(xs, family: str = "tensor_ry") -> np.ndarray:
    """(..., n, 3) Bloch vectors of product-family states, any qubit count."""
    xs = np.asarray(xs, dtype=np.float64)
    if family == "tensor_ry":
        return np.stack([np.sin(xs), np.zeros_like(xs), np.cos(xs)], axis=-1)
    col = _first_columns(EmbeddingSpec(xs.shape[-1], family), xs)
    a, b = col[..., 0, 0], col[..., 1, 0]
    t = a.conj() * b
    return np.stack([2.0 * t.real, 2.0 * t.imag, (a.real**2 + a.imag**2) - (b.real**2 + b.imag**2)], axis=-1)


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


def _points(spec: EmbeddingSpec, xs) -> np.ndarray:
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != spec.num_qubits:
        raise ValueError(f"expected (m, {spec.num_qubits}) inputs, got {xs.shape}")
    return xs


def _exact_kernel_matrix(spec: EmbeddingSpec, xs: np.ndarray, ys: np.ndarray | None, kind: KernelKind) -> np.ndarray:
    """Exact kernel values between two point sets. ys=None means xs vs xs,
    of which only the upper triangle and the diagonal are certain to be set."""
    if spec.family in PRODUCT_FAMILIES and kind.variant == "fidelity":
        return product_kernel(xs[:, None], (xs if ys is None else ys)[None], spec.family)
    if kind.variant == "fidelity":
        # |<a|b>|^2 against one row block of b states at a time, each block
        # conjugated on its own; xs vs xs takes only the rows up to the block's
        # end, so below the diagonal blocks the matrix is 0
        psi_a = embed_batch(spec, xs)
        psi_b = psi_a if ys is None else embed_batch(spec, ys)
        out, step = np.zeros((len(psi_a), len(psi_b))), _block_rows(spec.num_qubits)
        for lo in range(0, len(psi_b), step):
            rows = lo + step if ys is None else len(psi_a)
            ov = psi_a[:rows] @ psi_b[lo : lo + step].conj().T
            np.add(ov.real**2, ov.imag**2, out=out[:rows, lo : lo + step])
        return out
    width = 3 * spec.num_qubits
    ca = _all_bloch(spec, xs).reshape(len(xs), width)
    cb = ca if ys is None else _all_bloch(spec, ys).reshape(len(ys), width)
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


def _all_bloch(spec: EmbeddingSpec, xs: np.ndarray) -> np.ndarray:
    """(m, n, 3) Bloch vectors of the embedded points. Statevectors are built
    and reduced one row block of ``_block_rows(n)`` at a time."""
    if spec.family in PRODUCT_FAMILIES:
        return product_bloch_vectors(xs, spec.family)
    out = np.empty((len(xs), spec.num_qubits, 3))
    lo = 0
    for states in _state_blocks(spec, xs, None):
        out[lo : lo + len(states)] = _block_bloch(spec, states)
        lo += len(states)
    return out


def _sampled_kernel_matrix(
    spec: EmbeddingSpec, xs: np.ndarray, ys: np.ndarray | None, kind: KernelKind,
    estimator: EstimatorSpec, row_offset: int,
) -> np.ndarray:
    """Finite-shot kernel estimates between two point sets.

    ys=None estimates only the strict upper triangle of xs vs xs (the rest
    is left 0). Row i draws all of its entries, each an independent
    estimator run, from one generator
    SeedSequence((seed, _SHOT_STREAM, row_offset + i)).
    """
    if STRATEGY_KERNELS[estimator.strategy] != kind.variant:
        raise ValueError(
            f"estimator {estimator.strategy!r} is incompatible with the {kind.variant} kernel"
        )
    fidelity_strategy = kind.variant == "fidelity"
    if fidelity_strategy:
        exact = _exact_kernel_matrix(spec, xs, ys, kind)
    else:
        ba = _all_bloch(spec, xs)
        bb = ba if ys is None else _all_bloch(spec, ys)
    out = np.zeros((len(xs), len(xs) if ys is None else len(ys)))
    for i in range(out.shape[0]):
        lo = i + 1 if ys is None else 0
        rng = np.random.default_rng(np.random.SeedSequence((estimator.seed, _SHOT_STREAM, row_offset + i)))
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
) -> GramMatrix:
    """Assemble a Gram matrix over a point set.

    The diagonal is fixed to exactly 1 without evaluation. ``estimator=None``
    evaluates the kernel exactly; with a finite-shot estimator, every
    strict-upper-triangle entry is an independent estimator run; row i draws
    its entries from SeedSequence((seed, _SHOT_STREAM, i)), and the matrix is
    then symmetrized. Estimator/kernel compatibility is enforced (loschmidt
    and swap estimate fidelity kernels; tomography and local_swap estimate
    projected kernels).
    """
    xs = _points(spec, xs)
    if estimator is None:
        out = _exact_kernel_matrix(spec, xs, None, kind)
    else:
        out = _sampled_kernel_matrix(spec, xs, None, kind, estimator, 0)
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
) -> np.ndarray:
    """Rectangular kernel matrix between two point sets (e.g. test vs train).

    Estimated row i draws from SeedSequence((seed, _SHOT_STREAM, _ROW_OFFSET + i)),
    so it never collides with the square Gram rows of the same seed.
    """
    xs = _points(spec, xs)
    ys = _points(spec, ys)
    if estimator is None:
        return _exact_kernel_matrix(spec, xs, ys, kind)
    return _sampled_kernel_matrix(spec, xs, ys, kind, estimator, _ROW_OFFSET)
