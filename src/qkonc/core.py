"""Statevector and density-matrix primitives.

Qubit convention is little-endian throughout: qubit ``k`` is bit ``k`` of the
amplitude index, so ``|q_{n-1} ... q_1 q_0>`` has index ``sum_k q_k 2**k`` and
qubit 0 flips fastest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _accel

STATE_ATOL = 1e-10
HERM_ATOL = 1e-8
EIG_FLOOR = -1e-9

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / math.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state on ``num_qubits`` qubits; amplitudes are kept read-only."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        if amps.shape != (1 << self.num_qubits,):
            raise ValueError(
                f"expected {1 << self.num_qubits} amplitudes, got shape {amps.shape}"
            )
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > STATE_ATOL:
            raise ValueError(f"state is not normalized: |psi| = {norm!r}")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Mixed state on ``num_qubits`` qubits (hermitian, unit trace, PSD)."""

    num_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.ascontiguousarray(self.matrix, dtype=np.complex128)
        dim = 1 << self.num_qubits
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        if mat.shape != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} matrix, got shape {mat.shape}")
        if not np.allclose(mat, mat.conj().T, atol=HERM_ATOL, rtol=0.0):
            raise ValueError("matrix is not hermitian")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > HERM_ATOL:
            raise ValueError(f"trace is {tr!r}, expected 1")
        lo = float(np.linalg.eigvalsh(mat)[0])
        if lo < EIG_FLOOR:
            raise ValueError(f"matrix is not positive semidefinite (min eig {lo!r})")
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits


@dataclass(frozen=True)
class BlochVector:
    """Bloch coordinates of a single-qubit state, rho = (1 + c.sigma)/2."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if self.norm() > 1.0 + 1e-9:
            raise ValueError(f"Bloch vector lies outside the unit ball: {self}")

    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


_GATE_KINDS = ("rx", "ry", "rz", "h", "cz", "cnot")


@dataclass(frozen=True, eq=False)
class Gate:
    """One circuit gate; ``targets`` holds (target,) or (first, second)."""

    kind: str
    targets: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in _GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        want = 2 if self.kind in ("cz", "cnot") else 1
        if len(self.targets) != want or len(set(self.targets)) != len(self.targets):
            raise ValueError(f"gate {self.kind!r} needs {want} distinct targets")
        if self.kind in ("rx", "ry", "rz") and self.angle is None:
            raise ValueError(f"gate {self.kind!r} needs an angle")

    # -- constructors -------------------------------------------------
    @staticmethod
    def rx(angle: float, target: int) -> "Gate":
        return Gate("rx", (target,), angle=float(angle))

    @staticmethod
    def ry(angle: float, target: int) -> "Gate":
        return Gate("ry", (target,), angle=float(angle))

    @staticmethod
    def rz(angle: float, target: int) -> "Gate":
        return Gate("rz", (target,), angle=float(angle))

    @staticmethod
    def h(target: int) -> "Gate":
        return Gate("h", (target,))

    @staticmethod
    def cz(qubit_a: int, qubit_b: int) -> "Gate":
        return Gate("cz", (qubit_a, qubit_b))

    @staticmethod
    def cnot(control: int, target: int) -> "Gate":
        return Gate("cnot", (control, target))

    def matrix_1q(self) -> np.ndarray:
        """The 2x2 matrix of a single-qubit gate."""
        if self.kind == "rx":
            c, s = math.cos(self.angle / 2.0), math.sin(self.angle / 2.0)
            return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)
        if self.kind == "ry":
            c, s = math.cos(self.angle / 2.0), math.sin(self.angle / 2.0)
            return np.array([[c, -s], [s, c]], dtype=np.complex128)
        if self.kind == "rz":
            p = np.exp(-0.5j * self.angle)
            return np.array([[p, 0.0], [0.0, np.conj(p)]], dtype=np.complex128)
        if self.kind == "h":
            return _HADAMARD.copy()
        raise ValueError(f"gate {self.kind!r} is not single-qubit")


def computational_basis_state(num_qubits: int, index: int = 0) -> StateVector:
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(num_qubits, amps)


def ghz_state(num_qubits: int) -> StateVector:
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[0] = amps[-1] = 1.0 / math.sqrt(2.0)
    return StateVector(num_qubits, amps)


def maximally_mixed(num_qubits: int) -> DensityMatrix:
    dim = 1 << num_qubits
    return DensityMatrix(num_qubits, np.eye(dim, dtype=np.complex128) / dim)


def _as_dm_array(obj) -> tuple[np.ndarray, int]:
    if isinstance(obj, DensityMatrix):
        return obj.matrix, obj.num_qubits
    if isinstance(obj, StateVector):
        return np.outer(obj.amplitudes, obj.amplitudes.conj()), obj.num_qubits
    raise TypeError(f"expected StateVector or DensityMatrix, got {type(obj)!r}")


# ---------------------------------------------------------------------------
# gate application
# ---------------------------------------------------------------------------


def apply_gate_batch(states: np.ndarray, gate: Gate, num_qubits: int) -> None:
    """Apply one gate in place to a C-contiguous (m, 2**n) batch."""
    for t in gate.targets:
        if not 0 <= t < num_qubits:
            raise ValueError(f"gate target {t} out of range for {num_qubits} qubits")
    if gate.kind in ("rx", "ry", "rz", "h"):
        g = gate.matrix_1q()
        _accel.apply_1q_uniform(
            states, g[0, 0], g[0, 1], g[1, 0], g[1, 1], gate.targets[0]
        )
    elif gate.kind == "cz":
        _accel.apply_phase(states, _accel.cz_pair_mask(num_qubits, *gate.targets))
    else:  # cnot
        _accel.apply_perm(states, _accel.cnot_pair_perm(num_qubits, *gate.targets))


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    buf = state.amplitudes.copy().reshape(1, -1)
    apply_gate_batch(buf, gate, state.num_qubits)
    return StateVector(state.num_qubits, buf[0])


def apply_gate_dm(rho: DensityMatrix, gate: Gate) -> DensityMatrix:
    """Conjugate a density matrix by one gate: rho -> G rho G^dag."""
    # G @ M for the full matrix = gate applied independently to each column,
    # i.e. to the rows of M^T; G rho G^dag = G (G rho)^dag for hermitian rho.
    def lmul(mat: np.ndarray) -> np.ndarray:
        cols = np.ascontiguousarray(mat.T)
        apply_gate_batch(cols, gate, rho.num_qubits)
        return cols.T

    out = lmul(lmul(rho.matrix).conj().T)
    return DensityMatrix(rho.num_qubits, out)


# ---------------------------------------------------------------------------
# inner products, reductions, norms
# ---------------------------------------------------------------------------


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2 between pure states."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("states act on different qubit counts")
    ov = np.vdot(a.amplitudes, b.amplitudes)
    return float(ov.real * ov.real + ov.imag * ov.imag)


def hs_inner(a, b) -> float:
    """Hilbert-Schmidt inner product Tr[rho sigma] (real for hermitian args)."""
    ra, na = _as_dm_array(a)
    rb, nb = _as_dm_array(b)
    if na != nb:
        raise ValueError("states act on different qubit counts")
    return float(np.einsum("ij,ji->", ra, rb).real)


def reduce_to_qubit(obj, qubit: int) -> DensityMatrix:
    """Partial trace down to one qubit."""
    return DensityMatrix(1, _reduced_matrix(obj, qubit))


def _reduced_matrix(obj, qubit: int) -> np.ndarray:
    """The 2x2 array of ``reduce_to_qubit(obj, qubit)``, built without validation."""
    pure = isinstance(obj, StateVector)
    mat, n = (obj.amplitudes, obj.num_qubits) if pure else _as_dm_array(obj)
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} out of range")
    low = 1 << qubit
    hi = (1 << n) >> (qubit + 1)
    if pure:
        v = mat.reshape(hi, 2, low)
        return np.einsum("hbl,hcl->bc", v, v.conj())
    return np.einsum("hblhcl->bc", mat.reshape(hi, 2, low, hi, 2, low))


def bloch_vector(rho: DensityMatrix) -> BlochVector:
    """Bloch coordinates of a single-qubit density matrix."""
    if rho.num_qubits != 1:
        raise ValueError("bloch_vector expects a single-qubit state")
    m = rho.matrix
    return BlochVector(
        float(2.0 * m[0, 1].real), float(-2.0 * m[0, 1].imag), float((m[0, 0] - m[1, 1]).real)
    )


def bloch_vectors(state: StateVector) -> np.ndarray:
    """All single-qubit Bloch vectors of a pure state, shape (n, 3)."""
    batch = state.amplitudes.reshape(1, -1).copy()
    return _accel.bloch_batch(batch, state.num_qubits)[0]


def schatten2_distance(a, b) -> float:
    """Frobenius (Schatten 2-norm) distance ||rho - sigma||_2."""
    ra, na = _as_dm_array(a)
    rb, nb = _as_dm_array(b)
    if na != nb:
        raise ValueError("states act on different qubit counts")
    return float(np.linalg.norm(ra - rb))


def trace_norm(mat: np.ndarray) -> float:
    """Schatten 1-norm of a hermitian matrix (sum of |eigenvalues|)."""
    return float(np.sum(np.abs(np.linalg.eigvalsh(mat))))


# ---------------------------------------------------------------------------
# Haar sampling
# ---------------------------------------------------------------------------


def haar_random_states(num_qubits: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` states drawn from the Haar measure, as a (count, 2**n) batch.

    A normalized complex-Gaussian vector has exactly the distribution of
    U|0> for Haar-random U, without the QR cost.
    """
    dim = 1 << num_qubits
    z = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return np.ascontiguousarray(z, dtype=np.complex128)
