"""Embedding circuit families checked against gate-by-gate and closed-form oracles."""

import math
import tracemalloc

import numpy as np
import pytest

from qkonc.core import Gate, StateVector, apply_gate, computational_basis_state, fidelity
from qkonc.embeddings import (
    MAX_STATEVECTOR_QUBITS,
    EmbeddingSpec,
    _block_rows,
    _layer_gates,
    _phase,
    _state_blocks,
    embed,
    embed_batch,
    layer_decomposition,
)


def apply_layers(num_qubits, layers):
    state = computational_basis_state(num_qubits)
    for layer in layers:
        for gate in layer:
            state = apply_gate(state, gate)
    return state


class TestSpecValidation:
    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            EmbeddingSpec(2, "amplitude")

    def test_unknown_entangler(self):
        with pytest.raises(ValueError, match="unknown entangler"):
            EmbeddingSpec(2, "hardware_efficient", entangler="iswap")

    def test_bad_layers(self):
        with pytest.raises(ValueError, match="layers"):
            EmbeddingSpec(2, "hardware_efficient", layers=0)

    def test_bad_qubits(self):
        with pytest.raises(ValueError, match="num_qubits"):
            EmbeddingSpec(0, "tensor_ry")

    def test_theta_dim(self):
        assert EmbeddingSpec(3, "parameterized").theta_dim == 3
        assert EmbeddingSpec(3, "tensor_ry").theta_dim == 0

    def test_wrong_feature_count(self):
        with pytest.raises(ValueError, match="features"):
            embed(EmbeddingSpec(3, "tensor_ry"), [0.1, 0.2])

    def test_theta_rejected_outside_parameterized(self):
        with pytest.raises(ValueError, match="takes no parameters"):
            embed(EmbeddingSpec(2, "tensor_ry"), [0.1, 0.2], theta=[0.3, 0.4])

    def test_theta_required_for_parameterized(self):
        with pytest.raises(ValueError, match="needs a theta"):
            embed(EmbeddingSpec(2, "parameterized"), [0.1, 0.2])

    def test_wrong_theta_count(self):
        with pytest.raises(ValueError, match="parameters"):
            embed(EmbeddingSpec(2, "parameterized"), [0.1, 0.2], theta=[0.3])

    def test_statevector_qubit_cap(self):
        n = MAX_STATEVECTOR_QUBITS + 1
        with pytest.raises(ValueError, match="limited"):
            embed(EmbeddingSpec(n, "tensor_ry"), np.zeros(n))


class TestTensorRy:
    def test_closed_form_amplitudes(self):
        # product over qubits of cos(x_k/2)|0> + sin(x_k/2)|1>, qubit k = bit k
        rng = np.random.default_rng(42)
        x = rng.uniform(-np.pi, np.pi, 3)
        state = embed(EmbeddingSpec(3, "tensor_ry"), x)
        want = np.empty(8, dtype=np.complex128)
        for i in range(8):
            amp = 1.0
            for k in range(3):
                half = 0.5 * x[k]
                amp *= math.sin(half) if (i >> k) & 1 else math.cos(half)
            want[i] = amp
        np.testing.assert_allclose(state.amplitudes, want, atol=1e-13)

    def test_zero_input_is_ground_state(self):
        state = embed(EmbeddingSpec(4, "tensor_ry"), np.zeros(4))
        assert state.amplitudes[0] == pytest.approx(1.0, abs=1e-15)

    def test_kernel_closed_form(self):
        # fidelity between product Ry states is prod_k cos^2((x_k - y_k)/2)
        rng = np.random.default_rng(42)
        spec = EmbeddingSpec(4, "tensor_ry")
        x, y = rng.uniform(-np.pi, np.pi, (2, 4))
        want = float(np.prod(np.cos(0.5 * (x - y)) ** 2))
        assert fidelity(embed(spec, x), embed(spec, y)) == pytest.approx(
            want, abs=1e-13
        )


class TestSingleLayerRot:
    def test_single_qubit_matrix_oracle(self):
        # per qubit: Rz(x) . H . Ry(x) . Rx(x) applied to |0>, Rx first
        x = 0.8541
        u = (
            Gate.rz(x, 0).matrix_1q()
            @ Gate.h(0).matrix_1q()
            @ Gate.ry(x, 0).matrix_1q()
            @ Gate.rx(x, 0).matrix_1q()
        )
        state = embed(EmbeddingSpec(1, "single_layer_rot"), [x])
        np.testing.assert_allclose(state.amplitudes, u[:, 0], atol=1e-13)

    def test_factorizes_over_qubits(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(-np.pi, np.pi, 2)
        state = embed(EmbeddingSpec(2, "single_layer_rot"), x)
        s0 = embed(EmbeddingSpec(1, "single_layer_rot"), x[:1]).amplitudes
        s1 = embed(EmbeddingSpec(1, "single_layer_rot"), x[1:]).amplitudes
        np.testing.assert_allclose(state.amplitudes, np.kron(s1, s0), atol=1e-13)


class TestLayerDecomposition:
    """embed() must equal applying the declared gate list in order."""

    @pytest.mark.parametrize(
        "family,layers,entangler",
        [
            ("tensor_ry", 1, "cz"),
            ("single_layer_rot", 1, "cz"),
            ("hardware_efficient", 1, "cz"),
            ("hardware_efficient", 3, "cz"),
            ("hardware_efficient", 2, "cnot"),
            ("parameterized", 1, "cz"),
            ("parameterized", 2, "cnot"),
        ],
    )
    def test_composition_matches_embed(self, family, layers, entangler):
        rng = np.random.default_rng(42)
        spec = EmbeddingSpec(3, family, layers=layers, entangler=entangler)
        x = rng.uniform(-np.pi, np.pi, 3)
        theta = rng.uniform(-np.pi, np.pi, 3) if family == "parameterized" else None
        want = apply_layers(3, layer_decomposition(spec, x, theta=theta))
        got = embed(spec, x, theta=theta)
        np.testing.assert_allclose(got.amplitudes, want.amplitudes, atol=1e-12)

    def test_layer_counts(self):
        x = np.zeros(3)
        assert len(layer_decomposition(EmbeddingSpec(3, "tensor_ry"), x)) == 1
        assert (
            len(layer_decomposition(EmbeddingSpec(3, "hardware_efficient", layers=5), x))
            == 5
        )
        assert (
            len(
                layer_decomposition(
                    EmbeddingSpec(3, "parameterized", layers=5), x, theta=np.zeros(3)
                )
            )
            == 6
        )

    def test_haar_has_no_decomposition(self):
        with pytest.raises(ValueError, match="decomposition"):
            layer_decomposition(EmbeddingSpec(2, "haar"), np.zeros(2))


class TestLayerGates:
    """Each row's per-layer 2x2 gates equal the products of the declared gates."""

    @pytest.mark.parametrize("family", ["tensor_ry", "single_layer_rot", "hardware_efficient", "parameterized"])
    def test_matches_products_of_declared_gates(self, family):
        rng = np.random.default_rng(3)
        n, m = 3, 5
        spec = EmbeddingSpec(n, family)
        xs = rng.uniform(-np.pi, np.pi, (m, n))
        theta = rng.uniform(-np.pi, np.pi, n) if family == "parameterized" else None
        got = _layer_gates(spec, xs, theta)
        for r in range(m):
            layers = layer_decomposition(spec, xs[r], theta=theta)
            assert len(got) == len(layers)
            for gates, layer in zip(got, layers):
                for k in range(n):
                    want = np.eye(2, dtype=np.complex128)
                    for gate in layer:
                        if gate.targets == (k,):
                            want = gate.matrix_1q() @ want
                    np.testing.assert_allclose(gates[r, k], want, rtol=0.0, atol=1e-15)

    def test_haar_has_no_gates(self):
        with pytest.raises(ValueError, match="decomposition"):
            _layer_gates(EmbeddingSpec(2, "haar"), np.zeros((1, 2)), None)


class TestHardwareEfficient:
    def test_one_layer_fidelity_reduces_to_product_form(self):
        # with a single layer the trailing entangler cancels inside
        # |<psi(x)|psi(y)>|^2, leaving prod_k cos^2((x_k - y_k)/2)
        rng = np.random.default_rng(42)
        spec = EmbeddingSpec(4, "hardware_efficient", layers=1)
        for _ in range(5):
            x, y = rng.uniform(-np.pi, np.pi, (2, 4))
            want = float(np.prod(np.cos(0.5 * (x - y)) ** 2))
            assert fidelity(embed(spec, x), embed(spec, y)) == pytest.approx(
                want, abs=1e-12
            )

    def test_single_qubit_has_no_entangler(self):
        x = np.array([0.6])
        a = embed(EmbeddingSpec(1, "hardware_efficient", layers=3), x)
        b = apply_gate(
            apply_gate(
                apply_gate(computational_basis_state(1), Gate.rx(0.6, 0)),
                Gate.rx(0.6, 0),
            ),
            Gate.rx(0.6, 0),
        )
        np.testing.assert_allclose(a.amplitudes, b.amplitudes, atol=1e-13)

    def test_reuploading_differs_from_single_layer(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(-np.pi, np.pi, 3)
        one = embed(EmbeddingSpec(3, "hardware_efficient", layers=1), x)
        four = embed(EmbeddingSpec(3, "hardware_efficient", layers=4), x)
        assert fidelity(one, four) < 1.0 - 1e-6


class TestParameterized:
    def test_zero_theta_matches_hardware_efficient(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(-np.pi, np.pi, 3)
        plain = embed(EmbeddingSpec(3, "hardware_efficient", layers=2), x)
        param = embed(EmbeddingSpec(3, "parameterized", layers=2), x, theta=np.zeros(3))
        np.testing.assert_allclose(param.amplitudes, plain.amplitudes, atol=1e-13)

    def test_theta_column_applied_first(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(-np.pi, np.pi, 2)
        theta = rng.uniform(-np.pi, np.pi, 2)
        state = computational_basis_state(2)
        for k in range(2):
            state = apply_gate(state, Gate.ry(theta[k], k))
        for k in range(2):
            state = apply_gate(state, Gate.rx(x[k], k))
        state = apply_gate(state, Gate.cz(0, 1))
        got = embed(EmbeddingSpec(2, "parameterized", layers=1), x, theta=theta)
        np.testing.assert_allclose(got.amplitudes, state.amplitudes, atol=1e-13)


class TestHaarFamily:
    def test_deterministic_per_seed_and_input(self):
        spec = EmbeddingSpec(3, "haar", seed=11)
        x = np.array([0.1, -0.7, 2.4])
        a = embed(spec, x)
        b = embed(spec, x)
        np.testing.assert_allclose(a.amplitudes, b.amplitudes, atol=0.0)

    def test_different_inputs_give_different_states(self):
        spec = EmbeddingSpec(3, "haar", seed=11)
        a = embed(spec, np.array([0.1, -0.7, 2.4]))
        b = embed(spec, np.array([0.1, -0.7, 2.5]))
        assert fidelity(a, b) < 0.999

    def test_different_seeds_give_different_states(self):
        x = np.array([0.1, -0.7, 2.4])
        a = embed(EmbeddingSpec(3, "haar", seed=11), x)
        b = embed(EmbeddingSpec(3, "haar", seed=12), x)
        assert fidelity(a, b) < 0.999


class TestBatchEmbedding:
    @pytest.mark.parametrize(
        "family", ["tensor_ry", "single_layer_rot", "hardware_efficient", "haar"]
    )
    def test_batch_matches_stacked_single(self, family):
        rng = np.random.default_rng(42)
        spec = EmbeddingSpec(3, family, layers=2)
        xs = rng.uniform(-np.pi, np.pi, (5, 3))
        batch = embed_batch(spec, xs)
        assert batch.shape == (5, 8)
        for row, x in zip(batch, xs):
            np.testing.assert_allclose(row, embed(spec, x).amplitudes, atol=1e-13)

    def test_parameterized_batch(self):
        rng = np.random.default_rng(42)
        spec = EmbeddingSpec(3, "parameterized", layers=2)
        xs = rng.uniform(-np.pi, np.pi, (4, 3))
        theta = rng.uniform(-np.pi, np.pi, 3)
        batch = embed_batch(spec, xs, theta=theta)
        for row, x in zip(batch, xs):
            np.testing.assert_allclose(
                row, embed(spec, x, theta=theta).amplitudes, atol=1e-13
            )

    def test_rows_are_normalized_states(self):
        rng = np.random.default_rng(42)
        spec = EmbeddingSpec(4, "hardware_efficient", layers=3)
        xs = rng.uniform(-np.pi, np.pi, (6, 4))
        batch = embed_batch(spec, xs)
        np.testing.assert_allclose(np.linalg.norm(batch, axis=1), 1.0, atol=1e-12)
        StateVector(4, batch[0])  # constructor re-validates


GATE_FAMILIES = ["tensor_ry", "single_layer_rot", "hardware_efficient", "parameterized"]


class TestKroneckerEngine:
    """The Kronecker-block engine against the gate-by-gate oracle."""

    @pytest.mark.parametrize("family", GATE_FAMILIES)
    @pytest.mark.parametrize("entangler", ["cz", "cnot"])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_gate_oracle(self, family, entangler, n):
        rng = np.random.default_rng(100 * n + len(family))
        xs = rng.uniform(-np.pi, np.pi, (2, n))
        theta = rng.uniform(-np.pi, np.pi, n) if family == "parameterized" else None
        for layers in (1, 2, 3, 6):
            spec = EmbeddingSpec(n, family, layers=layers, entangler=entangler)
            batch = embed_batch(spec, xs, theta=theta)
            for row, x in zip(batch, xs):
                want = apply_layers(n, layer_decomposition(spec, x, theta=theta))
                np.testing.assert_allclose(row, want.amplitudes, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("family", ["tensor_ry", "hardware_efficient"])
    @pytest.mark.parametrize("n", [1, 3, 4, 5, 10])
    def test_real_circuit_times_a_fixed_phase(self, family, n):
        # Rx = S^dag Ry S with S = diag(1, i), and S commutes with CZ, so a CZ
        # hardware-efficient state is (-i)**popcount(k) times a real vector;
        # tensor_ry states are real
        if family == "tensor_ry":
            phase = np.ones(1 << n)
        else:
            phase = np.array([[1, -1j, -1, 1j][bin(k).count("1") % 4] for k in range(1 << n)])
        xs = np.random.default_rng(n).uniform(-np.pi, np.pi, (70, n))
        for layers in (1, 2, 6):
            batch = embed_batch(EmbeddingSpec(n, family, layers=layers), xs)
            assert np.all((batch * phase.conj()).imag == 0.0), layers

    @pytest.mark.parametrize("family", GATE_FAMILIES + ["haar"])
    @pytest.mark.parametrize("entangler", ["cz", "cnot"])
    @pytest.mark.parametrize("n", [3, 10])
    def test_rows_do_not_depend_on_the_batch(self, family, entangler, n):
        # n = 3 runs its later layers with the rows last, n = 10 through BLAS;
        # both batches cross a block boundary
        step = _block_rows(n)
        rng = np.random.default_rng(n)
        xs = rng.uniform(-np.pi, np.pi, (step + 3, n))
        theta = rng.uniform(-np.pi, np.pi, n) if family == "parameterized" else None
        spec = EmbeddingSpec(n, family, layers=3, entangler=entangler, seed=9)
        batch = embed_batch(spec, xs, theta=theta)
        for r in (0, 1, step - 1, step, step + 2):
            single = embed_batch(spec, xs[r : r + 1], theta=theta)[0]
            assert np.array_equal(batch[r], single), r
            if family == "haar":  # the normalized complex Gaussian of the row's own stream
                g = np.random.default_rng(np.random.SeedSequence((spec.seed, *xs[r].view(np.uint64))))
                z = g.standard_normal(1 << n) + 1j * g.standard_normal(1 << n)
                assert np.array_equal(single, z / np.linalg.norm(z)), r
        assert np.array_equal(batch, embed_batch(spec, xs, theta=theta))

    @pytest.mark.parametrize("family", GATE_FAMILIES + ["haar"])
    @pytest.mark.parametrize("entangler", ["cz", "cnot"])
    def test_state_blocks_are_the_narrowest_exact_rows(self, family, entangler):
        # float64 exactly for the real circuits; the phase times each block is
        # embed_batch's rows, bit for bit, across a block boundary
        n = 5
        rng = np.random.default_rng(len(family))
        xs = rng.uniform(-np.pi, np.pi, (_block_rows(n) + 3, n))
        theta = rng.uniform(-np.pi, np.pi, n) if family == "parameterized" else None
        spec = EmbeddingSpec(n, family, layers=2, entangler=entangler, seed=9)
        real = family == "tensor_ry" or (family == "hardware_efficient" and entangler == "cz")
        phase = _phase(spec)
        blocks = [psi.copy() for psi in _state_blocks(spec, xs, theta, None)]
        assert [len(psi) for psi in blocks] == [_block_rows(n), 3]
        assert {psi.dtype for psi in blocks} == {np.dtype(np.float64 if real else np.complex128)}
        rows = np.concatenate([psi if phase is None else phase * psi for psi in blocks])
        assert np.array_equal(rows, embed_batch(spec, xs, theta=theta))

    @pytest.mark.parametrize("family, layers", [("hardware_efficient", 3), ("single_layer_rot", 1)])
    def test_memory_stays_near_the_output_size(self, family, layers):
        xs = np.random.default_rng(5).uniform(-np.pi, np.pi, (400, 12))
        tracemalloc.start()
        try:
            out = embed_batch(EmbeddingSpec(12, family, layers=layers), xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * out.nbytes
