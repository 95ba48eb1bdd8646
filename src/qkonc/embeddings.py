"""Data-embedding circuit families.

Each family maps a feature vector x in R^n (one coordinate per qubit) to an
n-qubit pure state, always starting from |0...0>:

* ``tensor_ry``           -- one Ry(x_k) per qubit; a product state with a
                             closed-form kernel, usable far beyond the
                             statevector range.
* ``single_layer_rot``    -- per qubit Rz(x_k) . H . Ry(x_k) . Rx(x_k) |0>
                             (Rx applied first).
* ``hardware_efficient``  -- ``layers`` repetitions of an Rx(x_k) rotation
                             column followed by an entangler ladder on
                             adjacent pairs; the same x is re-uploaded in
                             every layer.
* ``parameterized``       -- a trainable Ry(theta_k) column applied first,
                             then ``layers`` hardware-efficient layers of x.
* ``haar``                -- a Haar-random state drawn deterministically per
                             (spec.seed, x); no circuit structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _accel
from .core import Gate, StateVector

FAMILIES = ("tensor_ry", "single_layer_rot", "hardware_efficient", "parameterized", "haar")
ENTANGLERS = ("cz", "cnot")

MAX_STATEVECTOR_QUBITS = 14


@dataclass(frozen=True)
class EmbeddingSpec:
    """Which embedding to use and its hyperparameters.

    ``layers`` is the hardware-efficient depth (also the data-block depth of
    the parameterized family); ``seed`` only matters for the haar family.
    """

    num_qubits: int
    family: str
    layers: int = 1
    entangler: str = "cz"
    seed: int = 0

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        if self.layers < 1:
            raise ValueError("layers must be >= 1")
        if self.entangler not in ENTANGLERS:
            raise ValueError(f"unknown entangler {self.entangler!r}")

    @property
    def theta_dim(self) -> int:
        return self.num_qubits if self.family == "parameterized" else 0


def _check_x(spec: EmbeddingSpec, x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape != (spec.num_qubits,):
        raise ValueError(f"expected {spec.num_qubits} features, got shape {arr.shape}")
    return arr


def _check_theta(spec: EmbeddingSpec, theta) -> np.ndarray | None:
    if spec.family != "parameterized":
        if theta is not None:
            raise ValueError(f"family {spec.family!r} takes no parameters")
        return None
    if theta is None:
        raise ValueError("parameterized family needs a theta vector")
    arr = np.asarray(theta, dtype=np.float64)
    if arr.shape != (spec.num_qubits,):
        raise ValueError(f"expected {spec.num_qubits} parameters, got shape {arr.shape}")
    return arr


def _entangler_gates(spec: EmbeddingSpec) -> list[Gate]:
    mk = Gate.cz if spec.entangler == "cz" else Gate.cnot
    return [mk(k, k + 1) for k in range(spec.num_qubits - 1)]


def layer_decomposition(spec: EmbeddingSpec, x, theta=None) -> list[list[Gate]]:
    """The circuit as a list of layers, each a list of gates in application order."""
    x = _check_x(spec, x)
    theta = _check_theta(spec, theta)
    n = spec.num_qubits
    if spec.family == "tensor_ry":
        return [[Gate.ry(x[k], k) for k in range(n)]]
    if spec.family == "single_layer_rot":
        layer = [Gate.rx(x[k], k) for k in range(n)]
        layer += [Gate.ry(x[k], k) for k in range(n)]
        layer += [Gate.h(k) for k in range(n)]
        layer += [Gate.rz(x[k], k) for k in range(n)]
        return [layer]
    if spec.family == "hardware_efficient":
        ent = _entangler_gates(spec)
        return [
            [Gate.rx(x[k], k) for k in range(n)] + ent for _ in range(spec.layers)
        ]
    if spec.family == "parameterized":
        ent = _entangler_gates(spec)
        layers = [[Gate.ry(theta[k], k) for k in range(n)]]
        layers += [
            [Gate.rx(x[k], k) for k in range(n)] + ent for _ in range(spec.layers)
        ]
        return layers
    raise ValueError(f"no gate decomposition for the {spec.family!r} family")


# ---------------------------------------------------------------------------
# batched state preparation
# ---------------------------------------------------------------------------


def _rows_rx(col: np.ndarray) -> np.ndarray:
    m = col.shape[0]
    g = np.empty((m, 2, 2), dtype=np.complex128)
    c = np.cos(0.5 * col)
    s = np.sin(0.5 * col)
    g[:, 0, 0] = c
    g[:, 0, 1] = -1j * s
    g[:, 1, 0] = -1j * s
    g[:, 1, 1] = c
    return g


def _rows_ry(col: np.ndarray) -> np.ndarray:
    m = col.shape[0]
    g = np.empty((m, 2, 2), dtype=np.complex128)
    c = np.cos(0.5 * col)
    s = np.sin(0.5 * col)
    g[:, 0, 0] = c
    g[:, 0, 1] = -s
    g[:, 1, 0] = s
    g[:, 1, 1] = c
    return g


def _rows_rz(col: np.ndarray) -> np.ndarray:
    m = col.shape[0]
    g = np.zeros((m, 2, 2), dtype=np.complex128)
    p = np.exp(-0.5j * col)
    g[:, 0, 0] = p
    g[:, 1, 1] = np.conj(p)
    return g


def _apply_entangler_batch(spec: EmbeddingSpec, states: np.ndarray) -> None:
    if spec.num_qubits < 2:
        return
    if spec.entangler == "cz":
        _accel.apply_phase(states, _accel.cz_ladder_mask(spec.num_qubits))
    else:
        _accel.apply_perm(states, _accel.cnot_ladder_perm(spec.num_qubits))


def _haar_rng_for(spec: EmbeddingSpec, x: np.ndarray) -> np.random.Generator:
    bits = np.ascontiguousarray(x).view(np.uint64)
    ss = np.random.SeedSequence((int(spec.seed),) + tuple(int(b) for b in bits))
    return np.random.default_rng(ss)


def embed_batch(spec: EmbeddingSpec, xs, theta=None) -> np.ndarray:
    """Embed ``m`` feature vectors at once; returns a (m, 2**n) state batch."""
    if spec.num_qubits > MAX_STATEVECTOR_QUBITS:
        raise ValueError(
            f"statevector embedding is limited to {MAX_STATEVECTOR_QUBITS} qubits; "
            "use the closed-form kernel paths for larger product-state systems"
        )
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != spec.num_qubits:
        raise ValueError(f"expected (m, {spec.num_qubits}) features, got {xs.shape}")
    theta = _check_theta(spec, theta)
    m = xs.shape[0]
    n = spec.num_qubits

    if spec.family == "haar":
        dim = 1 << n
        out = np.empty((m, dim), dtype=np.complex128)
        for r in range(m):
            g = _haar_rng_for(spec, xs[r])
            z = g.standard_normal(dim) + 1j * g.standard_normal(dim)
            out[r] = z / np.linalg.norm(z)
        return out

    states = np.zeros((m, 1 << n), dtype=np.complex128)
    states[:, 0] = 1.0

    if spec.family == "tensor_ry":
        for k in range(n):
            _accel.apply_1q_rows(states, _rows_ry(xs[:, k]), k)
        return states

    if spec.family == "single_layer_rot":
        for k in range(n):
            _accel.apply_1q_rows(states, _rows_rx(xs[:, k]), k)
        for k in range(n):
            _accel.apply_1q_rows(states, _rows_ry(xs[:, k]), k)
        h = Gate.h(0).matrix_1q()
        for k in range(n):
            _accel.apply_1q_uniform(states, h[0, 0], h[0, 1], h[1, 0], h[1, 1], k)
        for k in range(n):
            _accel.apply_1q_rows(states, _rows_rz(xs[:, k]), k)
        return states

    if spec.family == "parameterized":
        for k in range(n):
            g = Gate.ry(theta[k], k).matrix_1q()
            _accel.apply_1q_uniform(states, g[0, 0], g[0, 1], g[1, 0], g[1, 1], k)

    # hardware-efficient layers (also the data block of "parameterized")
    rx_rows = [_rows_rx(xs[:, k]) for k in range(n)]
    for _ in range(spec.layers):
        for k in range(n):
            _accel.apply_1q_rows(states, rx_rows[k], k)
        _apply_entangler_batch(spec, states)
    return states


def embed(spec: EmbeddingSpec, x, theta=None) -> StateVector:
    """Embed a single feature vector."""
    x = _check_x(spec, x)
    batch = embed_batch(spec, x.reshape(1, -1), theta=theta)
    return StateVector(spec.num_qubits, batch[0])
