"""Local Pauli noise: noisy states as Pauli vectors, their kernels, decay bounds.

The noise model interleaves a tensor product of identical single-qubit Pauli
channels N with the embedding layers:

    rho_noisy = N . U_L . N . ... . N . U_1 . N (rho_0)

so an L-layer embedding suffers L+1 channel applications per state. The
single-qubit channel is diagonal in the Pauli basis, N(sigma) = q_sigma sigma
for sigma in {X, Y, Z}, with characteristic strength q = max |q_sigma|, so
states are simulated as real Pauli vectors: ``noisy_pauli_depths`` evolves a
batch once and hands it out at each requested depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _accel
from .core import DensityMatrix
from .embeddings import REUPLOADING_FAMILIES, EmbeddingSpec, _check_batch, _check_x, _kron_rows, _layer_gates
from .estimators import projected_kernel_from_bloch_diff

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
        # the Choi matrix's eigenvalues are twice the Kraus weights
        lo = 2.0 * float(self.kraus_probabilities().min())
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


# ---------------------------------------------------------------------------
# Pauli-vector engine
# ---------------------------------------------------------------------------
# A state is the real vector c_p = Tr(P_p rho) over the 4**n Pauli strings
# (``_accel.PAULIS``, p = sum_k a_k 4**k), so rho = sum_p c_p P_p / 2**n.
# The channel multiplies c_p by prod_k q_{a_k} with q_I = 1. A layer of
# one-qubit gates is the Kronecker product of their real transfer matrices
# T_ab = Tr(sigma_a g sigma_b g^dag) / 2, applied as T_hi @ C @ T_lo^T on the
# (4**(n-h), 4**h) view C of a row (h = n // 2), and an entangler ladder is a
# signed permutation of the strings. Rows run in blocks of about
# ``_BLOCK_COEFFICIENTS`` coefficients.

_BLOCK_COEFFICIENTS = 1 << 13


def _pauli_product(factors) -> np.ndarray:
    """The vector prod_k factors[k][a_k] over the Pauli strings (one 4-vector per qubit)."""
    out = np.ones(1)
    for f in factors:
        out = np.kron(f, out)
    return out


@lru_cache(maxsize=32)
def _channel_diagonal(params: PauliNoiseParams, num_qubits: int) -> np.ndarray:
    lam = _pauli_product([(1.0, params.qx, params.qy, params.qz)] * num_qubits)
    lam.flags.writeable = False
    return lam


def _digitwise(vec: np.ndarray, table: np.ndarray, num_qubits: int) -> np.ndarray:
    # the 4x4 table applied to each base-4 digit of the index, one contraction
    # per qubit; each step maps the leading digit and moves it last
    for _ in range(num_qubits):
        vec = (vec.reshape(4, -1).T @ table).reshape(-1)
    return vec


def _to_pauli(mat: np.ndarray, num_qubits: int) -> np.ndarray:
    """Pauli vector c_p = Tr(P_p rho) of a 2**n x 2**n hermitian matrix."""
    n = num_qubits
    pairs = mat.reshape((2,) * 2 * n).transpose([a for k in range(n) for a in (k, n + k)])
    # digit (i, j) of qubit k -> a with weight sigma_a[j, i]
    return _digitwise(pairs.reshape(-1), _accel.PAULIS.transpose(2, 1, 0).reshape(4, 4), n).real


def _from_pauli(vec: np.ndarray, num_qubits: int) -> np.ndarray:
    """The 2**n x 2**n matrix sum_p c_p P_p / 2**n of a Pauli vector."""
    n = num_qubits
    pairs = _digitwise(vec, _accel.PAULIS.reshape(4, 4), n).reshape((2,) * 2 * n)
    return pairs.transpose([*range(0, 2 * n, 2), *range(1, 2 * n, 2)]).reshape(1 << n, 1 << n) / (1 << n)


def _transfer(gates: np.ndarray) -> np.ndarray:
    """(..., 4, 4) Pauli transfer matrices Tr(sigma_a g sigma_b g^dag) / 2 of (..., 2, 2) gates."""
    p = _accel.PAULIS
    return 0.5 * np.einsum("aij,...jk,bkl,...il->...ab", p, gates, p, gates.conj()).real


def noisy_pauli_depths(
    spec: EmbeddingSpec,
    xs,
    params: PauliNoiseParams,
    depths,
):
    """Noisy states of the rows of ``xs`` at several depths, from one evolution.

    Evolves the batch once, through max(depths) data layers, and yields
    ``(layers, batch)`` at each distinct depth in increasing order: ``batch``
    is the (m, 4**n) Pauli-vector batch of ``spec`` with ``layers`` in place
    of ``spec.layers``, bit for bit. It is one buffer, which the next step
    overwrites, so copy what must outlive the step.
    """
    n = spec.num_qubits
    if n > NOISE_MAX_QUBITS:
        raise ValueError(
            f"noisy-state simulation is limited to {NOISE_MAX_QUBITS} qubits "
            "(4**n Pauli coefficients per state)"
        )
    depths = sorted(set(depths))
    if depths and depths[0] < 1:
        raise ValueError(f"depths must be >= 1, got {depths[0]}")
    xs = _check_batch(spec, xs)
    transfers = [_transfer(g) for g in _layer_gates(spec, xs)]
    # x is re-uploaded: the entangled families run their data layer (the last
    # one) once per layer, each followed by the ladder; the others run it once
    repeated = spec.family in REUPLOADING_FAMILIES
    ladder = repeated and n > 1
    lam = _channel_diagonal(params, n)
    if ladder:  # the ladder and then the channel, as one signed gather
        src, sign = _accel.pauli_ladder_map(n, spec.entangler)
        ladder_lam = sign * lam
    h, size = n // 2, 1 << (2 * n)
    out = np.empty((len(xs), size))
    out[:] = _pauli_product([(1.0, 0.0, 0.0, params.qz)] * n)  # N(|0...0><0...0|)
    step = max(1, _BLOCK_COEFFICIENTS // size)
    tmp = np.empty(min(step, len(xs)) * size)
    done = 0  # data layers applied so far
    for depth in depths:
        runs = (depth if repeated else 1) - done
        # (transfer, repeats): the layers before the data layer run in the
        # first segment only; a data layer run once leaves later segments empty
        segment = [(tr, 1) for tr in transfers[:-1]] if done == 0 else []
        segment.append((transfers[-1], runs))
        for lo in range(0, len(xs) if runs else 0, step):
            block = out[lo : lo + step]
            b = len(block)
            state = block.reshape(b, size >> (2 * h), 1 << (2 * h))
            # one scratch buffer: the product's temporary, then the gather's target
            t, gathered = tmp[: b * size].reshape(state.shape), tmp[: b * size].reshape(b, size)
            for i, (tr, reps) in enumerate(segment):
                tr = tr[lo : lo + b]
                t_lo_t, t_hi = _kron_rows(tr[:, :h].swapaxes(2, 3)), _kron_rows(tr[:, h:])
                last = i == len(segment) - 1
                for _ in range(reps):
                    np.matmul(state, t_lo_t, out=t)
                    np.matmul(t_hi, t, out=state)
                    if last and ladder:
                        np.take(block, src, axis=1, out=gathered)
                        np.multiply(gathered, ladder_lam, out=block)
                    else:
                        block *= lam
                del t_lo_t, t_hi  # one set of factors at a time
        done += runs
        yield depth, out


def pauli_fidelity_kernel(ca: np.ndarray, cb: np.ndarray) -> np.ndarray:
    """Tr[rho_a rho_b] = sum_p c_a,p c_b,p / 2**n over the last axis."""
    return np.einsum("...p,...p->...", ca, cb) / math.isqrt(ca.shape[-1])


def _bloch_rows(c: np.ndarray) -> np.ndarray:
    # the weight-one coefficients: qubit k's Bloch vector is c at a * 4**k, a = 1, 2, 3
    n = (c.shape[-1].bit_length() - 1) // 2
    return c[..., [[a << (2 * k) for a in (1, 2, 3)] for k in range(n)]]


def pauli_projected_kernel(ca: np.ndarray, cb: np.ndarray, gamma: float = 1.0) -> np.ndarray:
    """exp(-gamma sum_k ||rho_k(a) - rho_k(b)||_2^2) of Pauli vectors, over the last axis."""
    return projected_kernel_from_bloch_diff(_bloch_rows(ca) - _bloch_rows(cb), gamma)


def pauli_mixed_distance(c: np.ndarray) -> np.ndarray:
    """||rho - 1/2**n||_2 = sqrt(sum_{p >= 1} c_p**2 / 2**n) over the last axis."""
    rest = c[..., 1:]
    return np.sqrt(np.einsum("...p,...p->...", rest, rest) / math.isqrt(c.shape[-1]))


def noisy_embed(
    spec: EmbeddingSpec,
    x,
    params: PauliNoiseParams,
) -> DensityMatrix:
    """Embed under the layerwise noise model; returns the mixed output state."""
    x = _check_x(spec, x)
    c = next(noisy_pauli_depths(spec, x[None], params, [spec.layers]))[1][0]
    return DensityMatrix(spec.num_qubits, _from_pauli(c, spec.num_qubits))


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
) -> NoiseBounds:
    """Decay bounds on noisy kernels after ``layers`` embedding layers.

    With q = max |q_sigma| < 1 and initial state rho_0 = |0...0><0...0|:

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
    # rho_0 is pure, Tr rho_0^2 = 1: ||rho_0 - 1/2^n||_2 = sqrt(1 - 1/2^n) and
    # S2(rho_0 || 1/2^n) = log2(2^n Tr rho_0^2) = n
    dist2 = math.sqrt(1.0 - 1.0 / dim)
    s2 = float(num_qubits)
    return NoiseBounds(
        fidelity_mean=1.0 / dim,
        fidelity_deviation=q ** (2 * layers + 1) * dist2,
        projected_mean=1.0,
        projected_deviation=8.0 * math.log(2.0) * gamma * num_qubits * q ** (_B_EXPONENT * (layers + 1)) * s2,
        state_distance=q ** (layers + 1) * dist2,
    )
