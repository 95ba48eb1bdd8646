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
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    DensityMatrix,
    apply_gate_batch,
    computational_basis_state,
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


def _pauli_channel_inplace(mat: np.ndarray, params: PauliNoiseParams, qubits) -> None:
    # On bit k, rho is a 2x2 block matrix [[A, B], [C, D]] and the channel maps
    #   A, D <- A - t, D + t            with t = (1 - q_z)/2 (A - D)
    #   B, C <- q_x B - t, q_x C + t    with t = (q_x - q_y)/2 (B - C)
    # ``mat`` must be C-contiguous so that the reshape is a view.
    n = mat.shape[0].bit_length() - 1
    for k in qubits:
        if not 0 <= k < n:
            raise ValueError(f"qubit {k} out of range")
        lo, hi = 1 << k, 1 << (n - k - 1)
        v = mat.reshape(hi, 2, lo, hi, 2, lo)
        a, b = v[:, 0, :, :, 0, :], v[:, 0, :, :, 1, :]
        c, d = v[:, 1, :, :, 0, :], v[:, 1, :, :, 1, :]
        t = a - d
        t *= 0.5 * (1.0 - params.qz)
        a -= t
        d += t
        np.subtract(b, c, out=t)
        t *= 0.5 * (params.qx - params.qy)
        b *= params.qx
        b -= t
        c *= params.qx
        c += t


def apply_local_pauli_channel(
    rho: DensityMatrix, params: PauliNoiseParams, qubits=None
) -> DensityMatrix:
    """Apply the single-qubit Pauli channel to each listed qubit (default: all)."""
    mat = rho.matrix.copy()
    _pauli_channel_inplace(mat, params, range(rho.num_qubits) if qubits is None else qubits)
    return DensityMatrix(rho.num_qubits, mat)


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
    n = spec.num_qubits
    dim = 1 << n
    # x is re-uploaded, so every data layer is the same U(x): build the
    # one-layer circuit (the theta layer first for "parameterized") once.
    # Row j of a batch that starts as the identity ends as U|j>: it is U^T.
    unitaries = []
    for gates in layer_decomposition(replace(spec, layers=1), x, theta=theta):
        batch = np.eye(dim, dtype=np.complex128)
        for gate in gates:
            apply_gate_batch(batch, gate, n)
        unitaries.append(batch.T)
    if spec.family in ("hardware_efficient", "parameterized"):
        unitaries += unitaries[-1:] * (spec.layers - 1)
    mat = np.zeros((dim, dim), dtype=np.complex128)
    mat[0, 0] = 1.0
    _pauli_channel_inplace(mat, params, range(n))
    for u in unitaries:
        mat = u @ mat @ u.conj().T
        _pauli_channel_inplace(mat, params, range(n))
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
        rho0 = computational_basis_state(num_qubits)
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
