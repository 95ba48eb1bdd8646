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

import math
from dataclasses import dataclass

import numpy as np

from . import _accel
from .core import _HADAMARD, Gate, StateVector

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
    if spec.family in ("hardware_efficient", "parameterized"):
        ent = _entangler_gates(spec)
        data = [[Gate.rx(x[k], k) for k in range(n)] + ent for _ in range(spec.layers)]
        return data if theta is None else [[Gate.ry(theta[k], k) for k in range(n)]] + data
    raise ValueError(f"no gate decomposition for the {spec.family!r} family")


# ---------------------------------------------------------------------------
# batched state preparation
# ---------------------------------------------------------------------------
# A layer puts one gate on every qubit, so on the (2**(n-h), 2**h) view S of
# a row (the low h = n // 2 qubits on the last axis) it is A_hi @ S @ A_lo^T,
# where A_lo and A_hi are the row's Kronecker factors of the two halves. The
# first layer acts on |0...0>, so it is the Kronecker product of each qubit's
# first gate column. Rows run in blocks of ``_block_rows(n)``.
#
# Rx(x) = S^dag Ry(x) S with S = diag(1, i), and S is diagonal, so it commutes
# with CZ and fixes |0>. A ``hardware_efficient`` circuit on a CZ ladder is
# therefore diag((-i)**popcount(k)) times the same circuit with Ry in place of
# Rx, which is real; ``tensor_ry`` is real already. Both run in float64, and
# each block is written to the complex output once, as phase * real state.


def _block_rows(num_qubits: int) -> int:
    """Rows per block: about 2**16 amplitudes, and at least one row."""
    return max(1, (1 << 16) >> num_qubits)


def _first_columns(family: str, xs: np.ndarray, theta) -> np.ndarray:
    """(..., n, 2, 1) state of every qubit after the gates before the first
    entangler, for the families that run in complex arithmetic; for
    ``single_layer_rot``, a product state, each qubit's whole state."""
    c, s = np.cos(0.5 * xs), np.sin(0.5 * xs)
    if family == "hardware_efficient":  # Rx(x)|0>
        pair = (c, -1j * s)
    elif family == "parameterized":  # Rx(x) Ry(theta)|0>
        ct, st = np.cos(0.5 * theta), np.sin(0.5 * theta)
        pair = (c * ct - 1j * (s * st), c * st - 1j * (s * ct))
    else:  # single_layer_rot: Rz(x) H Ry(x) Rx(x)|0>, written out elementwise
        cc, ss, cs, r = c * c, s * s, c * s, math.sqrt(0.5)
        pair = ((c - 1j * s) * ((cc + cs) + 1j * (ss - cs)) * r, (c + 1j * s) * ((cc - cs) + 1j * (ss + cs)) * r)
    out = np.empty(xs.shape + (2, 1), dtype=np.complex128)
    out[..., 0, 0], out[..., 1, 0] = pair
    return out


def _layer_gates(spec: EmbeddingSpec, xs: np.ndarray, theta) -> list[np.ndarray]:
    """(m, n, 2, 2) one-qubit gates of every row, one array per distinct layer.

    In application order: the Ry(theta) column first for ``parameterized``,
    then the data layer, Rx(x) (run ``spec.layers`` times by the entangled
    families), Ry(x) for ``tensor_ry`` or Rz(x) H Ry(x) Rx(x) for
    ``single_layer_rot``.
    """
    theta = _check_theta(spec, theta)
    if spec.family == "haar":
        raise ValueError("no gate decomposition for the 'haar' family")
    c, s = np.cos(0.5 * xs), np.sin(0.5 * xs)
    rx = _gates(c, -1j * s, -1j * s, c)
    if spec.family == "hardware_efficient":
        return [rx]
    if spec.family == "parameterized":
        ct, st = np.cos(0.5 * theta), np.sin(0.5 * theta)
        return [np.broadcast_to(_gates(ct, -st, st, ct), rx.shape), rx]
    ry = _gates(c, -s, s, c)
    if spec.family == "tensor_ry":
        return [ry]
    phase = np.exp(-0.5j * xs)
    return [_gates(phase, 0.0, 0.0, phase.conj()) @ (_HADAMARD @ (ry @ rx))]


def _gates(g00, g01, g10, g11) -> np.ndarray:
    """(..., 2, 2) complex gates from their broadcast entries."""
    entries = np.broadcast_arrays(g00, g01, g10, g11)
    return np.stack(entries, axis=-1).astype(np.complex128, copy=False).reshape(entries[0].shape + (2, 2))


def _ry_gates(xs: np.ndarray) -> np.ndarray:
    """(m, n, 2, 2) real Ry(x) gates of every row; column 0 is Ry(x)|0>."""
    c, s = np.cos(0.5 * xs), np.sin(0.5 * xs)
    return np.stack([c, -s, s, c], axis=-1).reshape(xs.shape + (2, 2))


def _kron_rows(factors: np.ndarray) -> np.ndarray:
    """Row-wise Kronecker product of the matrices ``factors[:, k]`` over k,
    with k = 0 the least significant. Each product is laid out in C order, so
    the reshape is a view even when the factors are transposed views."""
    out = np.ones((len(factors), 1, 1), dtype=factors.dtype)
    for k in range(factors.shape[1]):
        f = factors[:, k]
        out = np.multiply(f[:, :, None, :, None], out[:, None, :, None], order="C").reshape(
            len(f), f.shape[1] * out.shape[1], -1
        )
    return out


def _matmul_rows_last(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """``out[..., r] = a[..., r] @ b[..., r]`` with the rows on the last axis,
    as one broadcast multiply-add per contraction index."""
    np.multiply(a[:, 0, None], b[None, 0], out=out)
    for k in range(1, a.shape[1]):
        out += a[:, k, None] * b[None, k]


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


def _is_real(spec: EmbeddingSpec) -> bool:
    """The real circuits (see above): tensor_ry and cz hardware_efficient."""
    return spec.family == "tensor_ry" or (spec.family == "hardware_efficient" and spec.entangler == "cz")


def _state_blocks(spec: EmbeddingSpec, xs: np.ndarray, theta, out: np.ndarray | None):
    """Build the states of ``xs`` one row block at a time; yield (rows, psi)
    per block. For the real circuits psi is the block's float64 state, in a
    buffer the next block overwrites; the circuit's state is psi itself for
    ``tensor_ry`` and ``_accel.sdg_phase(n) * psi`` for cz
    ``hardware_efficient``. Otherwise psi is ``out[rows]``, built in place."""
    m, n = xs.shape
    h = n // 2
    entangled = spec.family in ("hardware_efficient", "parameterized")
    later = spec.layers - 1 if entangled else 0
    real = _is_real(spec)
    cols = _ry_gates(xs)[..., :1] if real else _first_columns(spec.family, xs, theta)
    step = _block_rows(n)
    # Up to 4 qubits the factors are at most 4x4, and one BLAS call per row
    # costs more than the product, so those layers run with the rows last.
    rows_last = n <= 4
    dtype = np.float64 if real else np.complex128
    work = np.empty(min(step, m) << n) if real else None
    tmp = np.empty(min(step, m) << n, dtype=dtype) if later else None
    for lo in range(0, m, step):
        b = min(step, m - lo)
        rows = slice(lo, lo + b)
        block = work[: b << n].reshape(b, 1 << n) if real else out[rows]
        psi = block
        state = psi.reshape(b, 1 << (n - h), 1 << h)
        np.multiply(_kron_rows(cols[rows, h:]), _kron_rows(cols[rows, :h]).swapaxes(1, 2), out=state)
        if entangled:
            _apply_entangler_batch(spec, psi)
        if later:
            # x is re-uploaded, so every later layer has the same factors
            gates = _ry_gates(xs[rows]) if real else _layer_gates(spec, xs[rows], theta)[-1]
            a_lo_t, a_hi = _kron_rows(gates[:, :h].swapaxes(2, 3)), _kron_rows(gates[:, h:])
            if rows_last:
                state, a_lo_t, a_hi = (np.ascontiguousarray(np.moveaxis(a, 0, -1)) for a in (state, a_lo_t, a_hi))
                psi = state.reshape(1 << n, b).T
            matmul = _matmul_rows_last if rows_last else np.matmul
            t = tmp[: b << n].reshape(state.shape)
            for _ in range(later):
                matmul(state, a_lo_t, out=t)
                matmul(a_hi, t, out=state)
                _apply_entangler_batch(spec, psi)
        if psi is not block:
            block[...] = psi
        yield rows, block


def _check_batch(spec: EmbeddingSpec, xs) -> np.ndarray:
    if spec.num_qubits > MAX_STATEVECTOR_QUBITS:
        raise ValueError(
            f"statevector embedding is limited to {MAX_STATEVECTOR_QUBITS} qubits; "
            "use the closed-form kernel paths for larger product-state systems"
        )
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != spec.num_qubits:
        raise ValueError(f"expected (m, {spec.num_qubits}) features, got {xs.shape}")
    return xs


def embed_batch(spec: EmbeddingSpec, xs, theta=None) -> np.ndarray:
    """Embed ``m`` feature vectors at once; returns a (m, 2**n) state batch.

    Each row's amplitudes depend on that row alone, bit for bit.
    """
    xs = _check_batch(spec, xs)
    theta = _check_theta(spec, theta)
    m, n = xs.shape
    out = np.empty((m, 1 << n), dtype=np.complex128)
    if spec.family == "haar":
        dim = 1 << n
        for r in range(m):
            g = _haar_rng_for(spec, xs[r])
            z = g.standard_normal(dim) + 1j * g.standard_normal(dim)
            out[r] = z / np.linalg.norm(z)
        return out
    # each real block is written to ``out`` once
    real = _is_real(spec)
    phase = _accel.sdg_phase(n) if real and spec.family != "tensor_ry" else None
    for rows, psi in _state_blocks(spec, xs, theta, out):
        if phase is not None:
            np.multiply(psi, phase, out=out[rows])
        elif real:
            out[rows] = psi
    return out


def _kernel_blocks(spec: EmbeddingSpec, xs, theta=None):
    """The states of ``xs`` in row blocks of ``_block_rows(n)``, in the
    narrowest exact form a kernel needs; yields (states, phased) per block.

    For the real circuits the states are the float64 rows the engine builds
    (valid until the next block), and ``phased`` says that the embedded
    states are ``_accel.sdg_phase(n)`` times them: fidelities are the same,
    and each Bloch vector (X, 0, Z) becomes (0, -X, Z). Every other family
    yields ``embed_batch`` blocks and ``phased`` False.
    """
    xs = _check_batch(spec, xs)
    if not _is_real(spec):
        step = _block_rows(spec.num_qubits)
        for lo in range(0, len(xs), step):
            yield embed_batch(spec, xs[lo : lo + step], theta=theta), False
        return
    _check_theta(spec, theta)
    for _, phi in _state_blocks(spec, xs, None, None):
        yield phi, spec.family != "tensor_ry"


def embed(spec: EmbeddingSpec, x, theta=None) -> StateVector:
    """Embed a single feature vector."""
    x = _check_x(spec, x)
    batch = embed_batch(spec, x.reshape(1, -1), theta=theta)
    return StateVector(spec.num_qubits, batch[0])
