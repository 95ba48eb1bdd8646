"""Statevector/density-matrix primitives checked against dense kron oracles."""

import math

import numpy as np
import pytest

from qkonc import _accel
from qkonc.core import (
    BlochVector,
    DensityMatrix,
    Gate,
    StateVector,
    apply_gate,
    apply_gate_batch,
    apply_gate_dm,
    bloch_vector,
    bloch_vectors,
    computational_basis_state,
    fidelity,
    ghz_state,
    haar_random_states,
    hs_inner,
    maximally_mixed,
    reduce_to_qubit,
    schatten2_distance,
    trace_norm,
)

I2 = np.eye(2, dtype=np.complex128)
X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


def kron_1q(mat2, target, num_qubits):
    """Embed a 2x2 matrix on one qubit, little-endian (qubit 0 = last factor)."""
    out = np.array([[1.0 + 0.0j]])
    for k in range(num_qubits):
        out = np.kron(mat2 if k == target else I2, out)
    return out


def dense_cz(num_qubits, qa, qb):
    dim = 1 << num_qubits
    diag = np.ones(dim, dtype=np.complex128)
    for i in range(dim):
        if (i >> qa) & 1 and (i >> qb) & 1:
            diag[i] = -1.0
    return np.diag(diag)


def dense_cnot(num_qubits, control, target):
    dim = 1 << num_qubits
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for i in range(dim):
        j = i ^ (((i >> control) & 1) << target)
        mat[j, i] = 1.0
    return mat


def random_state(rng, num_qubits):
    dim = 1 << num_qubits
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector(num_qubits, amps / np.linalg.norm(amps))


class TestStateValidation:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            StateVector(1, np.array([1.0, 1.0]))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="amplitudes"):
            StateVector(2, np.array([1.0, 0.0]))

    def test_rejects_zero_qubits(self):
        with pytest.raises(ValueError, match="num_qubits"):
            StateVector(0, np.array([1.0]))

    def test_amplitudes_are_read_only(self):
        s = computational_basis_state(2)
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.0

    def test_density_matrix_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="hermitian"):
            DensityMatrix(1, np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_density_matrix_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(1, np.eye(2))

    def test_density_matrix_rejects_negative_eigenvalue(self):
        mat = np.array([[1.2, 0.0], [0.0, -0.2]])
        with pytest.raises(ValueError, match="positive semidefinite"):
            DensityMatrix(1, mat)

    def test_bloch_vector_rejects_outside_ball(self):
        with pytest.raises(ValueError, match="unit ball"):
            BlochVector(1.0, 1.0, 1.0)


class TestGateConstruction:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown gate kind"):
            Gate("toffoli", (0, 1))

    def test_rotation_needs_angle(self):
        with pytest.raises(ValueError, match="needs an angle"):
            Gate("rx", (0,))

    def test_two_qubit_needs_distinct_targets(self):
        with pytest.raises(ValueError, match="distinct targets"):
            Gate.cz(1, 1)

    def test_matrix_1q_rejects_two_qubit_kinds(self):
        with pytest.raises(ValueError, match="not single-qubit"):
            Gate.cz(0, 1).matrix_1q()

    def test_rotation_matrices(self):
        theta = 0.7381
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        np.testing.assert_allclose(
            Gate.rx(theta, 0).matrix_1q(), [[c, -1j * s], [-1j * s, c]], atol=1e-15
        )
        np.testing.assert_allclose(
            Gate.ry(theta, 0).matrix_1q(), [[c, -s], [s, c]], atol=1e-15
        )
        rz = Gate.rz(theta, 0).matrix_1q()
        np.testing.assert_allclose(
            rz, np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)]), atol=1e-15
        )


class TestGateApplication:
    """apply_gate on small registers must match dense kron-built operators."""

    def test_single_qubit_kinds_match_kron(self):
        rng = np.random.default_rng(42)
        n = 3
        for target in range(n):
            for gate in (
                Gate.rx(0.83, target),
                Gate.ry(-1.91, target),
                Gate.rz(2.47, target),
                Gate.h(target),
            ):
                state = random_state(rng, n)
                got = apply_gate(state, gate).amplitudes
                want = kron_1q(gate.matrix_1q(), target, n) @ state.amplitudes
                np.testing.assert_allclose(got, want, atol=1e-12)

    def test_cz_matches_dense(self):
        rng = np.random.default_rng(42)
        for qa, qb in ((0, 1), (0, 2), (2, 1)):
            state = random_state(rng, 3)
            got = apply_gate(state, Gate.cz(qa, qb)).amplitudes
            want = dense_cz(3, qa, qb) @ state.amplitudes
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_cnot_matches_dense(self):
        rng = np.random.default_rng(42)
        for control, target in ((0, 1), (1, 0), (0, 2), (2, 0)):
            state = random_state(rng, 3)
            got = apply_gate(state, Gate.cnot(control, target)).amplitudes
            want = dense_cnot(3, control, target) @ state.amplitudes
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_cnot_builds_bell_state(self):
        state = apply_gate(computational_basis_state(2), Gate.h(0))
        state = apply_gate(state, Gate.cnot(0, 1))
        np.testing.assert_allclose(
            state.amplitudes, np.array([1, 0, 0, 1]) / math.sqrt(2), atol=1e-15
        )

    def test_target_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            apply_gate(computational_basis_state(2), Gate.h(2))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(42)
        states = [random_state(rng, 3) for _ in range(4)]
        batch = np.ascontiguousarray([s.amplitudes for s in states])
        gate = Gate.ry(0.37, 1)
        apply_gate_batch(batch, gate, 3)
        for row, s in zip(batch, states):
            np.testing.assert_allclose(row, apply_gate(s, gate).amplitudes, atol=1e-13)

    def test_density_matrix_conjugation(self):
        rng = np.random.default_rng(42)
        state = random_state(rng, 2)
        rho = DensityMatrix(2, np.outer(state.amplitudes, state.amplitudes.conj()))
        gate = Gate.ry(1.234, 1)
        evolved = apply_gate_dm(rho, gate)
        after = apply_gate(state, gate).amplitudes
        np.testing.assert_allclose(
            evolved.matrix, np.outer(after, after.conj()), atol=1e-12
        )


class TestGateHelpers:
    def test_cz_masks_are_signs(self):
        mask = _accel.cz_pair_mask(3, 0, 2)
        assert mask.shape == (8,)
        assert set(np.unique(mask)) == {-1.0, 1.0}
        neg = [i for i in range(8) if mask[i] == -1.0]
        assert neg == [5, 7]  # both bit0 and bit2 set

    def test_cnot_perm_is_involution(self):
        perm = _accel.cnot_pair_perm(4, 1, 3)
        assert np.array_equal(perm[perm], np.arange(16))

    def test_cnot_ladder_composition_order(self):
        # ladder = CNOT(0,1) then CNOT(1,2); applying via the fused source
        # permutation must match applying the two pair permutations in order.
        states = np.eye(8, dtype=np.complex128)
        fused = states[:, _accel.cnot_ladder_perm(3)]
        step = states[:, _accel.cnot_pair_perm(3, 0, 1)]
        step = step[:, _accel.cnot_pair_perm(3, 1, 2)]
        assert np.array_equal(fused, step)


class TestInnerProductsAndNorms:
    def test_fidelity_of_orthogonal_and_equal_states(self):
        zero = computational_basis_state(2, 0)
        three = computational_basis_state(2, 3)
        assert fidelity(zero, zero) == pytest.approx(1.0, abs=1e-15)
        assert fidelity(zero, three) == pytest.approx(0.0, abs=1e-15)

    def test_fidelity_dimension_mismatch(self):
        with pytest.raises(ValueError, match="different qubit counts"):
            fidelity(computational_basis_state(1), computational_basis_state(2))

    def test_hs_inner_equals_fidelity_for_pure_states(self):
        rng = np.random.default_rng(42)
        a, b = random_state(rng, 3), random_state(rng, 3)
        assert hs_inner(a, b) == pytest.approx(fidelity(a, b), abs=1e-13)

    def test_purity_values(self):
        # Tr[rho^2] as the Hilbert-Schmidt inner product of rho with itself
        rng = np.random.default_rng(42)
        s = random_state(rng, 3)
        assert hs_inner(s, s) == pytest.approx(1.0, abs=1e-12)
        assert hs_inner(maximally_mixed(3), maximally_mixed(3)) == pytest.approx(1.0 / 8.0, abs=1e-15)

    def test_schatten2_between_orthogonal_pure_states(self):
        a = computational_basis_state(1, 0)
        b = computational_basis_state(1, 1)
        assert schatten2_distance(a, b) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_trace_norm_hand_value(self):
        assert trace_norm(np.diag([3.0, -4.0])) == pytest.approx(7.0, abs=1e-12)

    def test_pure_state_distance_to_maxmixed(self):
        # ||rho - 1/d||_2^2 = Tr rho^2 - 1/d = 1 - 1/d for pure rho.
        rng = np.random.default_rng(42)
        for n in (1, 2, 4):
            s = random_state(rng, n)
            want = math.sqrt(1.0 - 2.0 ** (-n))
            assert schatten2_distance(s, maximally_mixed(n)) == pytest.approx(
                want, abs=1e-12
            )


class TestReductions:
    def test_reduce_matches_dense_partial_trace(self):
        rng = np.random.default_rng(42)
        state = random_state(rng, 3)
        rho = np.outer(state.amplitudes, state.amplitudes.conj())
        arr = rho.reshape(2, 2, 2, 2, 2, 2)  # axes: (q2,q1,q0) x (q2,q1,q0)
        oracles = {
            0: np.einsum("abiabj->ij", arr),
            1: np.einsum("aibajb->ij", arr),
            2: np.einsum("iabjab->ij", arr),
        }
        for qubit, want in oracles.items():
            got = reduce_to_qubit(state, qubit).matrix
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_reduce_from_density_matrix_agrees(self):
        rng = np.random.default_rng(42)
        state = random_state(rng, 3)
        rho = DensityMatrix(3, np.outer(state.amplitudes, state.amplitudes.conj()))
        for qubit in range(3):
            np.testing.assert_allclose(
                reduce_to_qubit(rho, qubit).matrix,
                reduce_to_qubit(state, qubit).matrix,
                atol=1e-12,
            )

    def test_ghz_reduces_to_maximally_mixed(self):
        state = ghz_state(3)
        for qubit in range(3):
            np.testing.assert_allclose(
                reduce_to_qubit(state, qubit).matrix, I2 / 2.0, atol=1e-12
            )

    def test_reduce_rejects_bad_qubit(self):
        with pytest.raises(ValueError, match="out of range"):
            reduce_to_qubit(computational_basis_state(2), 2)


class TestBlochVectors:
    def test_hand_values(self):
        zero = reduce_to_qubit(computational_basis_state(1), 0)
        c = bloch_vector(zero)
        assert (c.x, c.y, c.z) == pytest.approx((0.0, 0.0, 1.0), abs=1e-15)

        plus = reduce_to_qubit(apply_gate(computational_basis_state(1), Gate.h(0)), 0)
        c = bloch_vector(plus)
        assert (c.x, c.y, c.z) == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)

    def test_ry_rotation_traces_xz_circle(self):
        theta = 0.9273
        state = apply_gate(computational_basis_state(1), Gate.ry(theta, 0))
        c = bloch_vector(reduce_to_qubit(state, 0))
        assert (c.x, c.y, c.z) == pytest.approx(
            (math.sin(theta), 0.0, math.cos(theta)), abs=1e-12
        )

    def test_batch_matches_per_qubit_reduction(self):
        rng = np.random.default_rng(42)
        state = random_state(rng, 4)
        coords = bloch_vectors(state)
        assert coords.shape == (4, 3)
        for k in range(4):
            c = bloch_vector(reduce_to_qubit(state, k))
            np.testing.assert_allclose(coords[k], [c.x, c.y, c.z], atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
    def test_accel_batch_matches_reductions_row_by_row(self, n):
        rng = np.random.default_rng(n)
        states = np.stack([random_state(rng, n).amplitudes for _ in range(5)])
        coords = _accel.bloch_batch(states, n)
        for r in range(len(states)):
            assert np.array_equal(coords[r], _accel.bloch_batch(states[r : r + 1], n)[0])
            for k in range(n):
                c = bloch_vector(reduce_to_qubit(StateVector(n, states[r]), k))
                np.testing.assert_allclose(coords[r, k], [c.x, c.y, c.z], atol=1e-12)

    def test_requires_single_qubit(self):
        with pytest.raises(ValueError, match="single-qubit"):
            bloch_vector(maximally_mixed(2))

    def test_reconstruction_from_coordinates(self):
        rng = np.random.default_rng(42)
        rho = reduce_to_qubit(random_state(rng, 2), 0)
        c = bloch_vector(rho)
        rebuilt = 0.5 * (I2 + c.x * X + c.y * Y + c.z * Z)
        np.testing.assert_allclose(rebuilt, rho.matrix, atol=1e-12)


class TestHaarSampling:
    def test_states_are_normalized(self):
        rng = np.random.default_rng(42)
        batch = haar_random_states(3, 100, rng)
        np.testing.assert_allclose(
            np.linalg.norm(batch, axis=1), 1.0, atol=1e-12
        )

    def test_mean_pairwise_fidelity_is_one_over_dim(self):
        # E |<a|b>|^2 = 1/d for independent Haar pairs.
        rng = np.random.default_rng(42)
        n, pairs = 3, 20000
        a = haar_random_states(n, pairs, rng)
        b = haar_random_states(n, pairs, rng)
        ov = np.einsum("ij,ij->i", a.conj(), b)
        fid = ov.real**2 + ov.imag**2
        se = fid.std(ddof=1) / math.sqrt(pairs)
        assert abs(fid.mean() - 1.0 / 8.0) < 4.0 * se
