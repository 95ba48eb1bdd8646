"""Numerical hot paths for batches of statevectors, written in numpy.

State batches are C-contiguous ``(m, 2**n)`` complex128 arrays (float64
where a function says so) using the little-endian qubit convention: qubit
``k`` is bit ``k`` of the amplitude index (stride ``2**k``). All
``apply_*`` functions mutate their batch in place; the remaining functions
return fresh arrays.

Pauli vectors (``qkonc.noise``) index the 4**n Pauli strings the same way:
string ``p = sum_k a_k 4**k`` puts ``PAULIS[a_k]`` (I, X, Y, Z) on qubit ``k``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

PAULIS = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=np.complex128
)


def apply_1q_uniform(states, g00, g01, g10, g11, target):
    """Apply the gate ``[[g00, g01], [g10, g11]]`` to qubit ``target`` of every row."""
    m, dim = states.shape
    low = 1 << target
    v = states.reshape(m, dim >> (target + 1), 2, low)
    a = v[:, :, 0, :].copy()
    b = v[:, :, 1, :]
    v[:, :, 0, :] = g00 * a + g01 * b
    v[:, :, 1, :] = g10 * a + g11 * b


def apply_phase(states, mask):
    """Multiply every row by the diagonal ``mask``."""
    states *= mask


def apply_perm(states, src):
    """Permute the amplitudes of every row: ``new[:, i] = old[:, src[i]]``."""
    states[:] = states[:, src]


def pair_absq(bra, ket):
    """Row-wise overlap ``|<bra_r|ket_r>|**2`` of complex or of float64 rows."""
    if bra.dtype != np.complex128:
        t = np.einsum("ij,ij->i", bra, ket)
        return t * t
    t = np.einsum("ij,ij->i", bra.conj(), ket)
    return (t.real * t.real + t.imag * t.imag).astype(np.float64)


def bloch_batch(states, num_qubits):
    """Single-qubit Bloch vectors of every row, shape ``(m, num_qubits, 3)``.

    Float64 rows have Y = 0, an X of one real dot per qubit, and Z from the
    probabilities with the top qubit summed out after each step.
    """
    m, dim = states.shape
    out = np.empty((m, num_qubits, 3), dtype=np.float64)
    if states.dtype != np.complex128:
        out[:, :, 1] = 0.0
        for k in range(num_qubits):
            v = states.reshape(m, dim >> (k + 1), 2, 1 << k)
            out[:, k, 0] = 2.0 * np.einsum("ijk,ijk->i", v[:, :, 0, :], v[:, :, 1, :])
        prob = states * states
        for k in reversed(range(num_qubits)):
            p = prob.reshape(m, 2, 1 << k)
            out[:, k, 2] = p[:, 0].sum(axis=1) - p[:, 1].sum(axis=1)
            prob = p[:, 0] + p[:, 1]
        return out
    bra = states.conj()
    prob = states.real * states.real + states.imag * states.imag
    for k in range(num_qubits):
        shape = (m, dim >> (k + 1), 2, 1 << k)
        t = np.einsum("ijk,ijk->i", bra.reshape(shape)[:, :, 0, :], states.reshape(shape)[:, :, 1, :])
        out[:, k, 0] = 2.0 * t.real
        out[:, k, 1] = 2.0 * t.imag
        p = prob.reshape(shape)
        out[:, k, 2] = np.einsum("ijk->i", p[:, :, 0, :]) - np.einsum("ijk->i", p[:, :, 1, :])
    return out


# Name -> primitive table; perfbench/tracer.py reads it to find the primitives it wraps.
IMPLEMENTATIONS = {
    "numpy": {f.__name__: f for f in (apply_1q_uniform, apply_phase, apply_perm, pair_absq, bloch_batch)}
}


# ---------------------------------------------------------------------------
# cached mask / permutation builders
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def cz_pair_mask(num_qubits: int, qubit_a: int, qubit_b: int) -> np.ndarray:
    """Diagonal of CZ between two qubits: -1 where both bits are set."""
    idx = np.arange(1 << num_qubits)
    both = ((idx >> qubit_a) & 1) & ((idx >> qubit_b) & 1)
    mask = np.where(both == 1, -1.0, 1.0)
    mask.flags.writeable = False
    return mask


@lru_cache(maxsize=None)
def cz_ladder_mask(num_qubits: int) -> np.ndarray:
    """Diagonal of the CZ ladder over adjacent pairs (k, k+1), k = 0..n-2."""
    mask = np.ones(1 << num_qubits)
    for k in range(num_qubits - 1):
        mask = mask * cz_pair_mask(num_qubits, k, k + 1)
    mask.flags.writeable = False
    return mask


@lru_cache(maxsize=None)
def sdg_phase(num_qubits: int) -> np.ndarray:
    """Diagonal of S^dagger = diag(1, -i) on every qubit: (-i)**popcount(k)."""
    idx = np.arange(1 << num_qubits)
    popcount = sum((idx >> k) & 1 for k in range(num_qubits))
    phase = np.array([1.0, -1j, -1.0, 1j])[popcount & 3]
    phase.flags.writeable = False
    return phase


def _cnot_sources(num_qubits: int, control: int, target: int) -> np.ndarray:
    idx = np.arange(1 << num_qubits, dtype=np.int64)
    return idx ^ (((idx >> control) & 1) << target)


@lru_cache(maxsize=None)
def cnot_pair_perm(num_qubits: int, control: int, target: int) -> np.ndarray:
    """Source-index permutation of a single CNOT: new[i] = old[perm[i]]."""
    perm = _cnot_sources(num_qubits, control, target)
    perm.flags.writeable = False
    return perm


@lru_cache(maxsize=None)
def cnot_ladder_perm(num_qubits: int) -> np.ndarray:
    """Composed source permutation of CNOTs on (k, k+1), applied k = 0 first."""
    total = np.arange(1 << num_qubits, dtype=np.int64)
    for k in range(num_qubits - 1):
        total = total[_cnot_sources(num_qubits, k, k + 1)]
    total.flags.writeable = False
    return total


@lru_cache(maxsize=None)
def pauli_ladder_map(num_qubits: int, entangler: str) -> tuple[np.ndarray, np.ndarray]:
    """The CZ or CNOT ladder on Pauli vectors: ``new[:, p] = sign[p] * old[:, src[p]]``.

    Returns ``(src, sign)``. Conjugating a state by the ladder E sends
    ``c_p = Tr(P_p rho)`` to ``Tr(E^dag P_p E rho)``, and ``E^dag P_p E`` is
    ``sign[p] P_src[p]``. Gates act on (k, k+1), k = 0 first, as in
    ``cz_ladder_mask`` and ``cnot_ladder_perm``.
    """
    u = np.diag(cz_pair_mask(2, 0, 1)) if entangler == "cz" else np.eye(4)[cnot_pair_perm(2, 0, 1)]
    # the same map for one gate U over the 16 two-qubit strings, from
    # expanding each U^dag P_p U in the strings
    strings = np.einsum("bij,akl->baikjl", PAULIS, PAULIS).reshape(16, 4, 4)
    coef = np.einsum("qij,pji->pq", strings, u.conj().T @ strings @ u).real / 4.0
    pair_src = np.argmax(np.abs(coef), axis=1)
    pair_sign = np.rint(coef[np.arange(16), pair_src])
    idx = np.arange(1 << (2 * num_qubits), dtype=np.int64)
    src, sign = idx, np.ones(len(idx))
    for k in range(num_qubits - 1):
        pair = (idx >> (2 * k)) & 15
        step = idx + ((pair_src[pair] - pair) << (2 * k))
        src, sign = src[step], sign[step] * pair_sign[pair]
    src.flags.writeable = False
    sign.flags.writeable = False
    return src, sign
