"""Local Pauli noise: channel application, noisy kernels, decay bounds.

The noise model interleaves a tensor product of identical single-qubit Pauli
channels N with the embedding layers:

    rho_noisy = N . U_L . N . ... . N . U_1 . N (rho_0)

so an L-layer embedding suffers L+1 channel applications per state. The
single-qubit channel is diagonal in the Pauli basis, N(sigma) = q_sigma sigma
for sigma in {X, Y, Z}, with characteristic strength q = max |q_sigma|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DensityMatrix,
    apply_gate_batch,
    maximally_mixed,
    sandwiched_renyi2_vs_maxmixed,
    schatten2_distance,
)
from .embeddings import EmbeddingSpec, layer_decomposition
from .kernels import fidelity_kernel, projected_kernel

NOISE_MAX_QUBITS = 6
_B_EXPONENT = 1.0 / (2.0 * math.log(2.0))


@dataclass(frozen=True)
class PauliNoiseParams:
    """Pauli attenuation factors q_x, q_y, q_z, each in (-1, 1]."""

    qx: float
    qy: float
    qz: float

    def __post_init__(self):
        for name, v in (("qx", self.qx), ("qy", self.qy), ("qz", self.qz)):
            if not -1.0 < v <= 1.0:
                raise ValueError(f"{name} = {v!r} is outside (-1, 1]")
        lo = float(np.linalg.eigvalsh(self.choi_matrix())[0])
        if lo < -1e-12:
            raise ValueError(
                f"(qx, qy, qz) = {(self.qx, self.qy, self.qz)} is not a channel "
                f"(Choi matrix has eigenvalue {lo!r})"
            )

    @property
    def q(self) -> float:
        """Characteristic noise strength max |q_sigma|."""
        return max(abs(self.qx), abs(self.qy), abs(self.qz))

    def kraus_probabilities(self) -> np.ndarray:
        """Mixing weights (p_I, p_X, p_Y, p_Z) of the Pauli channel."""
        return 0.25 * np.array(
            [
                1.0 + self.qx + self.qy + self.qz,
                1.0 + self.qx - self.qy - self.qz,
                1.0 - self.qx + self.qy - self.qz,
                1.0 - self.qx - self.qy + self.qz,
            ]
        )

    def choi_matrix(self) -> np.ndarray:
        """Choi matrix (id (x) N)(|Omega><Omega|), Omega unnormalized Bell."""
        x = np.array([[0, 1], [1, 0]], dtype=np.complex128)
        y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
        z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
        eye = np.eye(2, dtype=np.complex128)
        choi = np.zeros((4, 4), dtype=np.complex128)
        for qs, pauli in ((1.0, eye), (self.qx, x), (self.qy, y), (self.qz, z)):
            choi += 0.5 * qs * np.kron(pauli.T, pauli)
        return choi


def _channel_one_qubit_raw(mat: np.ndarray, probs: np.ndarray, qubit: int) -> np.ndarray:
    dim = mat.shape[0]
    bit = 1 << qubit
    idx = np.arange(dim)
    flip = idx ^ bit
    zsign = 1.0 - 2.0 * ((idx >> qubit) & 1)
    flipped = mat[np.ix_(flip, flip)]
    ysign = np.equal.outer((idx >> qubit) & 1, (idx >> qubit) & 1) * 2.0 - 1.0
    return (
        probs[0] * mat
        + probs[1] * flipped
        + probs[2] * ysign * flipped
        + probs[3] * np.outer(zsign, zsign) * mat
    )


def apply_local_pauli_channel(
    rho: DensityMatrix, params: PauliNoiseParams, qubits=None
) -> DensityMatrix:
    """Apply the single-qubit Pauli channel to each listed qubit (default: all)."""
    targets = range(rho.num_qubits) if qubits is None else qubits
    mat = rho.matrix.copy()
    probs = params.kraus_probabilities()
    for k in targets:
        if not 0 <= k < rho.num_qubits:
            raise ValueError(f"qubit {k} out of range")
        mat = _channel_one_qubit_raw(mat, probs, k)
    return DensityMatrix(rho.num_qubits, mat)


def _apply_gate_raw(mat: np.ndarray, gate, num_qubits: int) -> np.ndarray:
    # G rho G^dag in two passes: rows of `cols` are the columns of rho, so the
    # first pass gives A = G rho; the second pass runs on the columns of
    # A^dag (= rows of conj(A)) and yields G A^dag = G rho G^dag.
    cols = np.ascontiguousarray(mat.T)
    apply_gate_batch(cols, gate, num_qubits)
    half = np.ascontiguousarray(cols.T.conj())
    apply_gate_batch(half, gate, num_qubits)
    return half.T


def noisy_embed(
    spec: EmbeddingSpec,
    x,
    params: PauliNoiseParams,
    theta=None,
    max_qubits: int = NOISE_MAX_QUBITS,
) -> DensityMatrix:
    """Embed under the layerwise noise model; returns the mixed output state."""
    if spec.num_qubits > max_qubits:
        raise ValueError(
            f"density-matrix noise simulation is limited to {max_qubits} qubits"
        )
    layers = layer_decomposition(spec, x, theta=theta)
    n = spec.num_qubits
    dim = 1 << n
    mat = np.zeros((dim, dim), dtype=np.complex128)
    mat[0, 0] = 1.0
    probs = params.kraus_probabilities()

    def channel(m):
        for k in range(n):
            m = _channel_one_qubit_raw(m, probs, k)
        return m

    mat = channel(mat)
    for layer in layers:
        for gate in layer:
            mat = _apply_gate_raw(mat, gate, n)
        mat = channel(mat)
    return DensityMatrix(n, mat)


def noisy_fidelity_kernel(
    spec: EmbeddingSpec,
    x,
    y,
    params: PauliNoiseParams,
    theta=None,
    max_qubits: int = NOISE_MAX_QUBITS,
) -> float:
    """Tr[rho_noisy(x) rho_noisy(y)]."""
    ra = noisy_embed(spec, x, params, theta=theta, max_qubits=max_qubits)
    rb = noisy_embed(spec, y, params, theta=theta, max_qubits=max_qubits)
    return fidelity_kernel(ra, rb)


def noisy_projected_kernel(
    spec: EmbeddingSpec,
    x,
    y,
    params: PauliNoiseParams,
    gamma: float = 1.0,
    theta=None,
    max_qubits: int = NOISE_MAX_QUBITS,
) -> float:
    """exp(-gamma sum_k ||rho_k(x) - rho_k(y)||_2^2) on the noisy states."""
    ra = noisy_embed(spec, x, params, theta=theta, max_qubits=max_qubits)
    rb = noisy_embed(spec, y, params, theta=theta, max_qubits=max_qubits)
    return projected_kernel(ra, rb, gamma)


@dataclass(frozen=True)
class NoiseBounds:
    """Deterministic decay bounds for the layerwise Pauli noise model."""

    fidelity_mean: float
    fidelity_deviation: float
    projected_mean: float
    projected_deviation: float
    state_distance: float


def noise_bounds(
    params: PauliNoiseParams,
    num_qubits: int,
    layers: int,
    gamma: float = 1.0,
    rho0: DensityMatrix | None = None,
) -> NoiseBounds:
    """Decay bounds on noisy kernels after ``layers`` embedding layers.

    With q = max |q_sigma| < 1 and initial state rho_0 (default |0...0>):

    * |kappa_FQ - 1/2^n|        <= q^(2L+1) ||rho_0 - 1/2^n||_2
    * |1 - kappa_PQ|            <= (8 ln 2) gamma n q^(b(L+1)) S2(rho_0 || 1/2^n),
      b = 1/(2 ln 2)
    * ||rho_noisy - 1/2^n||_2   <= q^(L+1) ||rho_0 - 1/2^n||_2
    """
    if layers < 1:
        raise ValueError("layers must be >= 1")
    q = params.q
    if q >= 1.0:
        raise ValueError("bounds require q < 1 (strictly noisy channel)")
    dim = 1 << num_qubits
    if rho0 is None:
        mat = np.zeros((dim, dim), dtype=np.complex128)
        mat[0, 0] = 1.0
        rho0 = DensityMatrix(num_qubits, mat)
    mixed = maximally_mixed(num_qubits)
    dist2 = schatten2_distance(rho0, mixed)
    s2 = sandwiched_renyi2_vs_maxmixed(rho0)
    return NoiseBounds(
        fidelity_mean=1.0 / dim,
        fidelity_deviation=q ** (2 * layers + 1) * dist2,
        projected_mean=1.0,
        projected_deviation=8.0 * math.log(2.0) * gamma * num_qubits * q ** (_B_EXPONENT * (layers + 1)) * s2,
        state_distance=q ** (layers + 1) * dist2,
    )
