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
from .core import Gate, StateVector

FAMILIES = ("tensor_ry", "single_layer_rot", "hardware_efficient", "parameterized", "haar")
ENTANGLERS = ("cz", "cnot")
# the families that re-upload x in each of their ``layers`` entangled layers
REUPLOADING_FAMILIES = ("hardware_efficient", "parameterized")

MAX_STATEVECTOR_QUBITS = 14


@dataclass(frozen=True)
class EmbeddingSpec:
    """Which embedding to use and its hyperparameters.

    ``layers`` is the hardware-efficient depth (also the data-block depth of
    the parameterized family); ``seed`` only matters for the haar family.
    ``theta`` holds the parameterized family's angles, one per qubit, as a
    tuple of floats, so a spec stays hashable; a parameterized spec without
    them is rejected when its circuit is first built.
    """

    num_qubits: int
    family: str
    layers: int = 1
    entangler: str = "cz"
    seed: int = 0
    theta: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        if self.layers < 1:
            raise ValueError("layers must be >= 1")
        if self.entangler not in ENTANGLERS:
            raise ValueError(f"unknown entangler {self.entangler!r}")
        if self.theta is not None:
            if self.family != "parameterized":
                raise ValueError(f"family {self.family!r} takes no parameters")
            arr = np.asarray(self.theta, dtype=np.float64)
            if arr.shape != (self.num_qubits,):
                raise ValueError(f"expected {self.num_qubits} parameters, got shape {arr.shape}")
            object.__setattr__(self, "theta", tuple(arr.tolist()))


def _check_x(spec: EmbeddingSpec, x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape != (spec.num_qubits,):
        raise ValueError(f"expected {spec.num_qubits} features, got shape {arr.shape}")
    return arr


def _theta(spec: EmbeddingSpec) -> np.ndarray:
    """The parameterized family's angles as an array."""
    if spec.theta is None:
        raise ValueError("parameterized family needs a theta vector")
    return np.array(spec.theta)


def layer_decomposition(spec: EmbeddingSpec, x) -> list[list[Gate]]:
    """The circuit as a list of layers, each a list of gates in application order."""
    x = _check_x(spec, x)
    n = spec.num_qubits
    if spec.family == "tensor_ry":
        return [[Gate.ry(x[k], k) for k in range(n)]]
    if spec.family == "single_layer_rot":
        layer = [Gate.rx(x[k], k) for k in range(n)]
        layer += [Gate.ry(x[k], k) for k in range(n)]
        layer += [Gate.h(k) for k in range(n)]
        layer += [Gate.rz(x[k], k) for k in range(n)]
        return [layer]
    if spec.family in REUPLOADING_FAMILIES:
        mk = Gate.cz if spec.entangler == "cz" else Gate.cnot
        ent = [mk(k, k + 1) for k in range(n - 1)]
        data = [[Gate.rx(x[k], k) for k in range(n)] + ent for _ in range(spec.layers)]
        if spec.family == "hardware_efficient":
            return data
        return [[Gate.ry(t, k) for k, t in enumerate(_theta(spec))]] + data
    raise ValueError(f"no gate decomposition for the {spec.family!r} family")


# ---------------------------------------------------------------------------
# batched state preparation
# ---------------------------------------------------------------------------
# ``_layer_gates`` is the one table of every family's one-qubit gates. A layer
# puts one gate on every qubit, so on the (2**(n-h), 2**h) view S of a row
# (the low h = n // 2 qubits on the last axis) it is A_hi @ S @ A_lo^T, where
# A_lo and A_hi are the row's Kronecker factors of the two halves. The first
# layer acts on |0...0>, so it is the Kronecker product of each qubit's first
# gate column. ``_state_blocks`` builds the rows of every family in blocks of
# ``_block_rows(n)``.
#
# Rx(x) = S^dag Ry(x) S with S = diag(1, i), and S is diagonal, so it commutes
# with CZ and fixes |0>. A ``hardware_efficient`` circuit on a CZ ladder is
# therefore diag((-i)**popcount(k)) (``_phase``) times the same circuit with
# the tensor_ry layer in place of Rx, which is real; ``tensor_ry`` is real
# already. Both run in float64, and only this module applies the phase.


def _block_rows(num_qubits: int) -> int:
    """Rows per block: about 2**16 amplitudes, and at least one row."""
    return max(1, (1 << 16) >> num_qubits)


def _layer_gates(spec: EmbeddingSpec, xs: np.ndarray) -> list[np.ndarray]:
    """(m, n, 2, 2) one-qubit gates of every row, one array per distinct layer,
    float64 where every entry is real.

    In application order: the Ry(theta) column first for ``parameterized``,
    then the data layer, Rx(x) (run ``spec.layers`` times by the entangled
    families), Ry(x) for ``tensor_ry`` or Rz(x) H Ry(x) Rx(x) for
    ``single_layer_rot``.
    """
    if spec.family == "haar":
        raise ValueError("no gate decomposition for the 'haar' family")
    c, s = np.cos(0.5 * xs), np.sin(0.5 * xs)
    if spec.family == "tensor_ry":
        return [_gates(c, -s, s, c)]
    if spec.family == "single_layer_rot":
        # column 0 (a, b) written out elementwise; the determinant is -1, so
        # column 1 is (conj(b), -conj(a))
        cc, ss, cs, r = c * c, s * s, c * s, math.sqrt(0.5)
        a = (c - 1j * s) * ((cc + cs) + 1j * (ss - cs)) * r
        b = (c + 1j * s) * ((cc - cs) + 1j * (ss + cs)) * r
        return [_gates(a, b.conj(), b, -a.conj())]
    rx = _gates(c, -1j * s, -1j * s, c)
    if spec.family == "hardware_efficient":
        return [rx]
    half = 0.5 * _theta(spec)
    ct, st = np.cos(half), np.sin(half)
    return [np.broadcast_to(_gates(ct, -st, st, ct), rx.shape), rx]


def _gates(g00, g01, g10, g11) -> np.ndarray:
    """(..., 2, 2) gates from their entries, arrays of one shape."""
    return np.stack([g00, g01, g10, g11], axis=-1).reshape(g00.shape + (2, 2))


def _first_columns(spec: EmbeddingSpec, xs: np.ndarray) -> np.ndarray:
    """(..., n, 2, 1) state of every qubit after the gates before the first
    entangler; for the product families, each qubit's whole state."""
    first, *rest = _layer_gates(spec, xs)
    col = first[..., :1]
    for gates in rest:
        col = gates @ col
    return col


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


def _haar_state(spec: EmbeddingSpec, x: np.ndarray) -> np.ndarray:
    """The normalized complex Gaussian of the (spec.seed, x) stream."""
    bits = np.ascontiguousarray(x).view(np.uint64)
    g = np.random.default_rng(np.random.SeedSequence((int(spec.seed),) + tuple(int(b) for b in bits)))
    z = g.standard_normal(1 << spec.num_qubits) + 1j * g.standard_normal(1 << spec.num_qubits)
    return z / np.linalg.norm(z)


def _phase(spec: EmbeddingSpec) -> np.ndarray | None:
    """The diagonal that turns ``_state_blocks`` rows into the embedded
    states: (-i)**popcount(k) for cz ``hardware_efficient``, else None."""
    if spec.family == "hardware_efficient" and spec.entangler == "cz":
        return _accel.sdg_phase(spec.num_qubits)
    return None


def _state_blocks(spec: EmbeddingSpec, xs, out: np.ndarray | None):
    """The states of ``xs`` in row blocks of ``_block_rows(n)``, each in its
    narrowest exact form.

    ``tensor_ry`` and cz ``hardware_efficient`` rows are float64, the rest
    complex128. A block's embedded states are ``_phase(spec)`` times it where
    that is not None, else the block itself. Complex blocks are built in place
    in ``out[rows]`` when ``out`` is given; every other block is a buffer the
    next block overwrites. ``haar`` rows are drawn one at a time, each from
    its own (spec.seed, x) stream.
    """
    xs = _check_batch(spec, xs)
    m, n = xs.shape
    h, step = n // 2, _block_rows(n)
    real = spec.family == "tensor_ry" or _phase(spec) is not None
    buf = np.empty(min(step, m) << n, np.float64 if real else np.complex128) if real or out is None else None
    gate_spec = EmbeddingSpec(n, "tensor_ry") if real else spec
    cols = None if spec.family == "haar" else _first_columns(gate_spec, xs)
    entangled = spec.family in REUPLOADING_FAMILIES
    later = spec.layers - 1 if entangled else 0
    # Up to 4 qubits the factors are at most 4x4, and one BLAS call per row
    # costs more than the product, so those layers run with the rows last.
    rows_last = n <= 4
    for lo in range(0, m, step):
        b = min(step, m - lo)
        rows = slice(lo, lo + b)
        block = out[rows] if buf is None else buf[: b << n].reshape(b, 1 << n)
        if cols is None:  # haar
            for r, x in enumerate(xs[rows]):
                block[r] = _haar_state(spec, x)
            yield block
            continue
        psi = block
        state = psi.reshape(b, 1 << (n - h), 1 << h)
        np.multiply(_kron_rows(cols[rows, h:]), _kron_rows(cols[rows, :h]).swapaxes(1, 2), out=state)
        if entangled:
            _apply_entangler_batch(spec, psi)
        if later:
            # x is re-uploaded, so every later layer has the same factors
            gates = _layer_gates(gate_spec, xs[rows])[-1]
            a_lo_t, a_hi = _kron_rows(gates[:, :h].swapaxes(2, 3)), _kron_rows(gates[:, h:])
            if rows_last:
                state, a_lo_t, a_hi = (np.ascontiguousarray(np.moveaxis(a, 0, -1)) for a in (state, a_lo_t, a_hi))
                psi = state.reshape(1 << n, b).T
            matmul = _matmul_rows_last if rows_last else np.matmul
            t = np.empty_like(state)
            for _ in range(later):
                matmul(state, a_lo_t, out=t)
                matmul(a_hi, t, out=state)
                _apply_entangler_batch(spec, psi)
        if psi is not block:
            block[...] = psi
        yield block


def _block_bloch(spec: EmbeddingSpec, states: np.ndarray) -> np.ndarray:
    """(m, n, 3) Bloch vectors of the embedded states of one ``_state_blocks`` block."""
    out = _accel.bloch_batch(states, spec.num_qubits)
    if _phase(spec) is not None:  # the (-i)**popcount phase turns (X, 0, Z) into (0, -X, Z)
        out[..., 1] = -out[..., 0]
        out[..., 0] = 0.0
    return out


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


def embed_batch(spec: EmbeddingSpec, xs) -> np.ndarray:
    """Embed ``m`` feature vectors at once; returns a (m, 2**n) state batch.

    Each row's amplitudes depend on that row alone, bit for bit.
    """
    xs = _check_batch(spec, xs)
    out = np.empty((len(xs), 1 << spec.num_qubits), dtype=np.complex128)
    phase, lo = _phase(spec), 0
    for psi in _state_blocks(spec, xs, out):
        if psi.dtype == np.float64:  # complex blocks are built in ``out``
            np.multiply(psi, 1.0 if phase is None else phase, out=out[lo : lo + len(psi)])
        lo += len(psi)
    return out


def embed(spec: EmbeddingSpec, x) -> StateVector:
    """Embed a single feature vector."""
    x = _check_x(spec, x)
    batch = embed_batch(spec, x.reshape(1, -1))
    return StateVector(spec.num_qubits, batch[0])
