"""Local Pauli channels, noisy kernels, and deterministic decay bounds."""

import math
import tracemalloc

import numpy as np
import pytest

from qkonc import _accel
from qkonc.cli import point_rng, run_experiment
from qkonc.core import (
    DensityMatrix,
    Gate,
    apply_gate_batch,
    apply_gate_dm,
    computational_basis_state,
    maximally_mixed,
    reduce_to_qubit,
    schatten2_distance,
)
from qkonc.embeddings import EmbeddingSpec, embed, layer_decomposition
from qkonc.kernels import fidelity_kernel, projected_kernel
from qkonc.noise import (
    NOISE_MAX_QUBITS,
    PauliNoiseParams,
    _channel_diagonal,
    _from_pauli,
    _to_pauli,
    noise_bounds,
    noisy_embed,
    noisy_pauli_depths,
    pauli_fidelity_kernel,
    pauli_projected_kernel,
)

I2 = np.eye(2, dtype=np.complex128)
X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


def kraus_oracle_channel(rho, probs, qubit, num_qubits):
    """Explicit 4-term Kraus application sum_P p_P (P rho P) on one qubit."""
    out = np.zeros_like(rho)
    for p, pauli in zip(probs, (I2, X, Y, Z)):
        op = np.array([[1.0 + 0.0j]])
        for k in range(num_qubits):
            op = np.kron(pauli if k == qubit else I2, op)
        out += p * (op @ rho @ op.conj().T)
    return out


def pauli_string(p, num_qubits):
    """Dense P_p: sigma_{a_k} on qubit k for p = sum_k a_k 4**k."""
    op = np.array([[1.0 + 0.0j]])
    for k in range(num_qubits):
        op = np.kron((I2, X, Y, Z)[(p >> (2 * k)) & 3], op)
    return op


def random_dm(rng, num_qubits, rank=3):
    vecs = rng.normal(size=(rank, 1 << num_qubits)) + 1j * rng.normal(size=(rank, 1 << num_qubits))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    weights = rng.dirichlet(np.ones(rank))
    return np.einsum("r,ri,rj->ij", weights, vecs, vecs.conj())


def kraus_oracle_embed(spec, x, params):
    """Every gate as G rho G^dag, then the explicit 4-term Kraus sum on every
    qubit before the first layer and after each layer."""
    n = spec.num_qubits
    probs = params.kraus_probabilities()

    def channel(mat):
        for k in range(n):
            mat = kraus_oracle_channel(mat, probs, k, n)
        return DensityMatrix(n, mat)

    rho = channel(pure_dm(computational_basis_state(n)).matrix)
    for layer in layer_decomposition(spec, x):
        for gate in layer:
            rho = apply_gate_dm(rho, gate)
        rho = channel(rho.matrix)
    return rho


def pauli_channel(rho, params):
    """The engine's channel step on a dense matrix: the Pauli vector of rho
    scaled by ``_channel_diagonal``."""
    n = rho.shape[0].bit_length() - 1
    return _from_pauli(_to_pauli(rho, n) * _channel_diagonal(params, n), n)


def noisy_kernels(spec, x, y, params, gamma=1.0):
    """Noisy fidelity and projected kernels of one pair, read from Pauli vectors."""
    c = next(noisy_pauli_depths(spec, [x, y], params, [spec.layers]))[1]
    return float(pauli_fidelity_kernel(c[0], c[1])), float(pauli_projected_kernel(c[0], c[1], gamma))


def pure_dm(state):
    return DensityMatrix(
        state.num_qubits, np.outer(state.amplitudes, state.amplitudes.conj())
    )


class TestPauliNoiseParams:
    def test_kraus_probabilities_hand_value(self):
        # (qx, qy, qz) = (0.7, 0.5, 0.4) -> (p_I, p_X, p_Y, p_Z)
        probs = PauliNoiseParams(0.7, 0.5, 0.4).kraus_probabilities()
        np.testing.assert_allclose(probs, [0.65, 0.2, 0.1, 0.05], atol=1e-15)
        assert probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_q_is_max_absolute_factor(self):
        assert PauliNoiseParams(0.7, 0.5, 0.4).q == pytest.approx(0.7)
        assert PauliNoiseParams(0.5, 0.5, 0.25).q == pytest.approx(0.5)

    def test_identity_channel(self):
        probs = PauliNoiseParams(1.0, 1.0, 1.0).kraus_probabilities()
        np.testing.assert_allclose(probs, [1.0, 0.0, 0.0, 0.0], atol=1e-15)

    def test_depolarizing_channel(self):
        # uniform attenuation q on all axes = depolarizing with p = (1-q)*3/4
        probs = PauliNoiseParams(0.6, 0.6, 0.6).kraus_probabilities()
        np.testing.assert_allclose(probs, [0.7, 0.1, 0.1, 0.1], atol=1e-15)

    def test_choi_eigenvalues_are_twice_kraus_probs(self):
        params = PauliNoiseParams(0.7, 0.5, 0.4)
        eigs = np.sort(np.linalg.eigvalsh(params.choi_matrix()))
        want = np.sort(2.0 * params.kraus_probabilities())
        np.testing.assert_allclose(eigs, want, atol=1e-12)

    def test_invalid_factor_combination_rejected(self):
        # valid ranges per axis but negative Kraus weight overall
        with pytest.raises(ValueError, match="not a channel"):
            PauliNoiseParams(0.7, -0.2, 0.4)

    def test_out_of_range_factor_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            PauliNoiseParams(1.2, 0.0, 0.0)


class TestChannelApplication:
    def test_matches_kraus_oracle(self):
        rng = np.random.default_rng(42)
        params = PauliNoiseParams(0.7, 0.5, 0.4)
        probs = params.kraus_probabilities()
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps /= np.linalg.norm(amps)
        rho = np.outer(amps, amps.conj())
        got = pauli_channel(rho, params)
        want = kraus_oracle_channel(rho, probs, 0, 2)
        want = kraus_oracle_channel(want, probs, 1, 2)
        np.testing.assert_allclose(got, want, atol=1e-13)

    def test_identity_params_leave_state_unchanged(self):
        state = pure_dm(computational_basis_state(2, 3))
        got = pauli_channel(state.matrix, PauliNoiseParams(1.0, 1.0, 1.0))
        np.testing.assert_allclose(got, state.matrix, atol=1e-15)

    def test_fully_depolarizing_reaches_maxmixed(self):
        state = pure_dm(computational_basis_state(2, 1))
        got = pauli_channel(state.matrix, PauliNoiseParams(0.0, 0.0, 0.0))
        np.testing.assert_allclose(got, maximally_mixed(2).matrix, atol=1e-14)

    def test_attenuates_bloch_components(self):
        # N(rho) Bloch vector is (qx cx, qy cy, qz cz)
        from qkonc.core import Gate, apply_gate, bloch_vector

        params = PauliNoiseParams(0.7, 0.5, 0.4)
        state = apply_gate(computational_basis_state(1), Gate.ry(0.9, 0))
        state = apply_gate(state, Gate.rz(0.4, 0))
        rho = pure_dm(state)
        before = bloch_vector(rho)
        after = bloch_vector(DensityMatrix(1, pauli_channel(rho.matrix, params)))
        assert after.x == pytest.approx(0.7 * before.x, abs=1e-13)
        assert after.y == pytest.approx(0.5 * before.y, abs=1e-13)
        assert after.z == pytest.approx(0.4 * before.z, abs=1e-13)


class TestPauliVectors:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_round_trip_and_coefficients(self, n):
        rho = random_dm(np.random.default_rng(n), n)
        c = _to_pauli(rho, n)
        want = [np.trace(pauli_string(p, n) @ rho).real for p in range(4**n)]
        np.testing.assert_allclose(c, want, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(_from_pauli(c, n), rho, rtol=0.0, atol=1e-15)

    def test_zero_state_is_one_on_identity_and_z_strings(self):
        n = 3
        c = _to_pauli(pure_dm(computational_basis_state(n)).matrix, n)
        iz = [p for p in range(4**n) if all((p >> (2 * k)) & 3 in (0, 3) for k in range(n))]
        want = np.zeros(4**n)
        want[iz] = 1.0
        np.testing.assert_array_equal(c, want)

    @pytest.mark.parametrize("entangler", ["cz", "cnot"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_ladder_map_matches_brute_force(self, entangler, n):
        # rows of the identity batch end as E|j>, so the batch holds E^T
        batch = np.eye(1 << n, dtype=np.complex128)
        make = Gate.cz if entangler == "cz" else Gate.cnot
        for k in range(n - 1):
            apply_gate_batch(batch, make(k, k + 1), n)
        e = batch.T
        strings = np.array([pauli_string(p, n) for p in range(4**n)])
        conj = e @ strings @ e.conj().T  # E P_q E^dag
        transfer = np.einsum("pij,qji->pq", strings, conj).real / (1 << n)
        src, sign = _accel.pauli_ladder_map(n, entangler)
        want = np.zeros_like(transfer)
        want[np.arange(4**n), src] = sign
        np.testing.assert_allclose(transfer, want, rtol=0.0, atol=1e-12)


class TestNoiseScanColumns:
    CFG = {
        "qubits": 3,
        "family": "hardware_efficient",
        "entangler": "cnot",
        "q_values": [0.8, 0.95],
        "layers": [1, 3],
        "pairs": 3,
        "gamma": 0.7,
    }

    def test_rows_match_per_pair_kernels_on_oracle_states(self, tmp_path):
        run_experiment("noise-scan", self.CFG, seed=11, out=tmp_path)
        rows = np.loadtxt(tmp_path / "noise_scan.csv", delimiter=",", skiprows=1)
        n, gamma, pairs = 3, 0.7, 3
        mixed = maximally_mixed(n)
        want = []
        for i, q in enumerate(self.CFG["q_values"]):
            # every depth of one q reads the same inputs
            rng = point_rng(11, i)
            draws = [(rng.uniform(-np.pi, np.pi, n), rng.uniform(-np.pi, np.pi, n)) for _ in range(pairs)]
            for layers in self.CFG["layers"]:
                params = PauliNoiseParams(q, q, q)
                spec = EmbeddingSpec(n, "hardware_efficient", layers=layers, entangler="cnot")
                cols = np.zeros(3)
                for x, y in draws:
                    ra = kraus_oracle_embed(spec, x, params)
                    rb = kraus_oracle_embed(spec, y, params)
                    cols += [
                        abs(fidelity_kernel(ra, rb) - 1.0 / 2**n),
                        abs(1.0 - projected_kernel(ra, rb, gamma)),
                        schatten2_distance(ra, mixed),
                    ]
                want.append(cols / pairs)
        np.testing.assert_allclose(rows[:, [4, 6, 8]], want, rtol=0.0, atol=1e-12)

    def test_no_state_is_validated(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        run_experiment("noise-scan", self.CFG, seed=11, out=tmp_path)
        assert (tmp_path / "noise_scan.csv").exists()


class TestNoisyEmbedding:
    def test_identity_noise_reproduces_pure_state(self):
        rng = np.random.default_rng(42)
        spec = EmbeddingSpec(3, "hardware_efficient", layers=2)
        x = rng.uniform(-np.pi, np.pi, 3)
        rho = noisy_embed(spec, x, PauliNoiseParams(1.0, 1.0, 1.0))
        np.testing.assert_allclose(
            rho.matrix, pure_dm(embed(spec, x)).matrix, atol=1e-12
        )

    def test_channel_count_is_layers_plus_one(self):
        # tensor_ry on one qubit with x = 0: every gate is the identity, so
        # the output Bloch z equals qz^(L+1) with L=1 declared layer
        params = PauliNoiseParams(0.9, 0.9, 0.8)
        rho = noisy_embed(EmbeddingSpec(1, "tensor_ry"), [0.0], params)
        from qkonc.core import bloch_vector

        c = bloch_vector(reduce_to_qubit(rho, 0))
        assert c.z == pytest.approx(0.8**2, abs=1e-13)

    def test_multilayer_attenuation_exponent(self):
        # 3 layers of identity gates -> 4 channel applications
        params = PauliNoiseParams(0.9, 0.9, 0.8)
        spec = EmbeddingSpec(1, "hardware_efficient", layers=3)
        rho = noisy_embed(spec, [0.0], params)
        from qkonc.core import bloch_vector

        c = bloch_vector(reduce_to_qubit(rho, 0))
        assert c.z == pytest.approx(0.8**4, abs=1e-13)

    @pytest.mark.parametrize(
        "family, entangler, with_theta",
        [
            ("tensor_ry", "cz", False),
            ("single_layer_rot", "cz", False),
            ("hardware_efficient", "cz", False),
            ("hardware_efficient", "cnot", False),
            ("parameterized", "cz", True),
            ("parameterized", "cnot", True),
        ],
    )
    @pytest.mark.parametrize(
        "params",
        [PauliNoiseParams(0.9, 0.9, 0.9), PauliNoiseParams(0.7, 0.5, 0.4)],
        ids=["depolarizing", "anisotropic"],
    )
    def test_matches_gate_by_gate_kraus_oracle(self, family, entangler, with_theta, params):
        # up to 6 qubits, the size noise-scan runs
        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 4, 5, 6):
            for layers in (1, 3):
                x = rng.uniform(-np.pi, np.pi, n)
                theta = rng.uniform(0.0, 2.0 * np.pi, n) if with_theta else None
                spec = EmbeddingSpec(n, family, layers=layers, entangler=entangler, theta=theta)
                rho = kraus_oracle_embed(spec, x, params)
                got = noisy_embed(spec, x, params)
                np.testing.assert_allclose(got.matrix, rho.matrix, rtol=0.0, atol=1e-12)

    def test_qubit_cap(self):
        n = NOISE_MAX_QUBITS + 1
        with pytest.raises(ValueError, match="limited"):
            noisy_embed(
                EmbeddingSpec(n, "tensor_ry"), np.zeros(n), PauliNoiseParams(0.5, 0.5, 0.25)
            )

    def test_noisy_kernels_match_pure_under_identity_noise(self):
        rng = np.random.default_rng(42)
        spec = EmbeddingSpec(2, "hardware_efficient", layers=2)
        x, y = rng.uniform(-np.pi, np.pi, (2, 2))
        a, b = embed(spec, x), embed(spec, y)
        kf, kp = noisy_kernels(spec, x, y, PauliNoiseParams(1.0, 1.0, 1.0), gamma=1.0)
        assert kf == pytest.approx(fidelity_kernel(a, b), abs=1e-12)
        assert kp == pytest.approx(projected_kernel(a, b, gamma=1.0), abs=1e-12)

    def test_strong_noise_pushes_kernels_to_flat_limits(self):
        rng = np.random.default_rng(42)
        spec = EmbeddingSpec(2, "hardware_efficient", layers=4)
        x, y = rng.uniform(-np.pi, np.pi, (2, 2))
        # fidelity kernel concentrates to 1/2^n, projected kernel to 1
        kf, kp = noisy_kernels(spec, x, y, PauliNoiseParams(0.2, 0.2, 0.2))
        assert kf == pytest.approx(0.25, abs=0.01)
        assert kp == pytest.approx(1.0, abs=0.01)


class TestNoisyPauliDepths:
    @pytest.mark.parametrize("entangler", ["cz", "cnot"])
    @pytest.mark.parametrize("family", ["hardware_efficient", "tensor_ry", "single_layer_rot", "parameterized"])
    def test_each_depth_is_bitwise_the_single_depth_batch(self, family, entangler):
        params = PauliNoiseParams(0.9, 0.8, 0.7)
        depths = [5, 1, 9, 2, 5]  # unsorted, with a repeat
        for n in (1, 2, 3, 4, 5, 6):
            rng = np.random.default_rng(n)
            xs = rng.uniform(-np.pi, np.pi, (7, n))  # at n = 6, blocks of two rows
            theta = rng.uniform(0.0, 2.0 * np.pi, n) if family == "parameterized" else None
            spec = EmbeddingSpec(n, family, entangler=entangler, theta=theta)
            got = [(layers, batch.copy()) for layers, batch in noisy_pauli_depths(spec, xs, params, depths)]
            assert [layers for layers, _ in got] == [1, 2, 5, 9]
            for layers, batch in got:
                want = next(noisy_pauli_depths(
                    EmbeddingSpec(n, family, layers=layers, entangler=entangler, theta=theta), xs, params, [layers]
                ))[1]
                assert np.array_equal(batch, want), (n, layers)

    def test_depth_below_one_rejected(self):
        spec = EmbeddingSpec(2, "hardware_efficient")
        with pytest.raises(ValueError, match="depths must be >= 1"):
            next(noisy_pauli_depths(spec, np.zeros((1, 2)), PauliNoiseParams(0.9, 0.9, 0.9), [2, 0]))


class TestNoiseBounds:
    def test_bound_formulas_hand_checked(self):
        params = PauliNoiseParams(0.5, 0.5, 0.25)
        n, layers, gamma = 2, 3, 1.0
        b = noise_bounds(params, n, layers, gamma=gamma)
        dist = math.sqrt(1.0 - 0.25)  # ||rho_0 - 1/4||_2 for a pure state
        assert b.fidelity_mean == pytest.approx(0.25)
        assert b.fidelity_deviation == pytest.approx(0.5**7 * dist, abs=1e-14)
        assert b.state_distance == pytest.approx(0.5**4 * dist, abs=1e-14)
        bexp = 1.0 / (2.0 * math.log(2.0))
        want = 8.0 * math.log(2.0) * gamma * n * 0.5 ** (bexp * 4) * 2.0
        assert b.projected_deviation == pytest.approx(want, abs=1e-12)

    def test_bounds_hold_for_simulated_embeddings(self):
        rng = np.random.default_rng(42)
        params = PauliNoiseParams(0.5, 0.5, 0.25)
        for layers in (1, 2, 4):
            spec = EmbeddingSpec(2, "hardware_efficient", layers=layers)
            b = noise_bounds(params, 2, layers, gamma=1.0)
            x, y = rng.uniform(-np.pi, np.pi, (2, 2))
            kf, kp = noisy_kernels(spec, x, y, params, gamma=1.0)
            assert abs(kf - b.fidelity_mean) <= b.fidelity_deviation + 1e-12
            assert abs(1.0 - kp) <= b.projected_deviation + 1e-12
            rho = noisy_embed(spec, x, params)
            assert (
                schatten2_distance(rho, maximally_mixed(2))
                <= b.state_distance + 1e-12
            )

    def test_deviation_shrinks_with_depth(self):
        params = PauliNoiseParams(0.5, 0.5, 0.25)
        bounds = [noise_bounds(params, 3, layers) for layers in (1, 2, 4, 8)]
        for a, b in zip(bounds, bounds[1:]):
            assert b.fidelity_deviation < a.fidelity_deviation
            assert b.projected_deviation < a.projected_deviation
            assert b.state_distance < a.state_distance

    def test_per_layer_fidelity_decay_is_q_squared(self):
        params = PauliNoiseParams(0.5, 0.5, 0.25)
        b1 = noise_bounds(params, 3, 1)
        b2 = noise_bounds(params, 3, 2)
        assert b2.fidelity_deviation / b1.fidelity_deviation == pytest.approx(
            0.25, abs=1e-14
        )

    def test_noiseless_channel_rejected(self):
        with pytest.raises(ValueError, match="q < 1"):
            noise_bounds(PauliNoiseParams(1.0, 1.0, 1.0), 2, 1)

    def test_bad_layers_rejected(self):
        with pytest.raises(ValueError, match="layers"):
            noise_bounds(PauliNoiseParams(0.5, 0.5, 0.25), 2, 0)

    def test_closed_form_matches_dense_initial_state(self):
        # ||rho_0 - 1/2^n||_2 and S2(rho_0 || 1/2^n) from a dense |0...0><0...0|
        params, layers, gamma = PauliNoiseParams(0.95, 0.95, 0.95), 10, 0.7
        q, bexp = params.q, 1.0 / (2.0 * math.log(2.0))
        for n in range(1, 9):
            dim = 1 << n
            rho0 = pure_dm(computational_basis_state(n)).matrix
            dist2 = float(np.linalg.norm(rho0 - np.eye(dim) / dim))
            s2 = math.log2(dim * float(np.einsum("ij,ji->", rho0, rho0).real))
            b = noise_bounds(params, n, layers, gamma)
            assert b.fidelity_deviation == q ** (2 * layers + 1) * dist2
            assert b.state_distance == q ** (layers + 1) * dist2
            want = 8.0 * math.log(2.0) * gamma * n * q ** (bexp * (layers + 1)) * s2
            assert b.projected_deviation == want

    def test_memory_is_bounded_at_twelve_qubits(self):
        # a dense 2**12 x 2**12 rho_0 and identity would take hundreds of MB
        tracemalloc.start()
        try:
            b = noise_bounds(PauliNoiseParams(0.95, 0.95, 0.95), 12, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert 0.0 < b.state_distance < 1.0
