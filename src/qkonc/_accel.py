"""Numerical hot paths for batches of statevectors, written in numpy.

State batches are C-contiguous ``(m, 2**n)`` complex128 arrays using the
little-endian qubit convention: qubit ``k`` is bit ``k`` of the amplitude
index (stride ``2**k``). All ``apply_*`` functions mutate their batch in
place; the remaining functions return fresh arrays.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def apply_1q_uniform(states, g00, g01, g10, g11, target):
    """Apply the gate ``[[g00, g01], [g10, g11]]`` to qubit ``target`` of every row."""
    m, dim = states.shape
    low = 1 << target
    v = states.reshape(m, dim >> (target + 1), 2, low)
    a = v[:, :, 0, :].copy()
    b = v[:, :, 1, :]
    v[:, :, 0, :] = g00 * a + g01 * b
    v[:, :, 1, :] = g10 * a + g11 * b


def apply_1q_rows(states, gates, target):
    """Apply the 2x2 gate ``gates[r]`` to qubit ``target`` of row ``r``."""
    m, dim = states.shape
    low = 1 << target
    v = states.reshape(m, dim >> (target + 1), 2, low)
    a = v[:, :, 0, :].copy()
    b = v[:, :, 1, :].copy()
    g00 = gates[:, 0, 0].reshape(m, 1, 1)
    g01 = gates[:, 0, 1].reshape(m, 1, 1)
    g10 = gates[:, 1, 0].reshape(m, 1, 1)
    g11 = gates[:, 1, 1].reshape(m, 1, 1)
    v[:, :, 0, :] = g00 * a + g01 * b
    v[:, :, 1, :] = g10 * a + g11 * b


def apply_phase(states, mask):
    """Multiply every row by the diagonal ``mask``."""
    states *= mask


def apply_perm(states, src):
    """Permute the amplitudes of every row: ``new[:, i] = old[:, src[i]]``."""
    states[:] = states[:, src]


def pair_absq(bra, ket):
    """Row-wise overlap ``|<bra_r|ket_r>|**2``."""
    t = np.einsum("ij,ij->i", bra.conj(), ket)
    return (t.real * t.real + t.imag * t.imag).astype(np.float64)


def bloch_batch(states, num_qubits):
    """Single-qubit Bloch vectors of every row, shape ``(m, num_qubits, 3)``."""
    m, dim = states.shape
    out = np.empty((m, num_qubits, 3), dtype=np.float64)
    for k in range(num_qubits):
        low = 1 << k
        v = states.reshape(m, dim >> (k + 1), 2, low)
        a = v[:, :, 0, :]
        b = v[:, :, 1, :]
        t = np.einsum("ijk,ijk->i", a.conj(), b)
        out[:, k, 0] = 2.0 * t.real
        out[:, k, 1] = 2.0 * t.imag
        out[:, k, 2] = np.einsum("ijk,ijk->i", a, a.conj()).real - np.einsum(
            "ijk,ijk->i", b, b.conj()
        ).real
    return out


def product_cos2(x, y):
    """Row-wise tensor-Ry fidelity ``prod_k cos^2((x_k - y_k) / 2)``."""
    c = np.cos(0.5 * (x - y))
    return np.prod(c * c, axis=1)


# Name -> primitive table; perfbench/tracer.py reads it to find the primitives it wraps.
IMPLEMENTATIONS = {
    "numpy": {
        f.__name__: f
        for f in (
            apply_1q_uniform,
            apply_1q_rows,
            apply_phase,
            apply_perm,
            pair_absq,
            bloch_batch,
            product_cos2,
        )
    }
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
