"""Kernel functions and Gram assembly: symmetry, PSD, closed forms, CSV I/O."""

import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from qkonc import _accel, kernels
from qkonc.core import (
    DensityMatrix,
    apply_gate,
    bloch_vectors,
    computational_basis_state,
    fidelity,
    maximally_mixed,
    reduce_to_qubit,
)
from qkonc.embeddings import (
    EmbeddingSpec,
    _block_bloch,
    _block_rows,
    _state_blocks,
    embed,
    embed_batch,
    layer_decomposition,
)
from qkonc.estimators import (
    EstimatorSpec,
    projected_estimate_from_bloch,
    projected_kernel_from_bloch_diff,
    sample_fidelity,
)
from qkonc.kernels import (
    GramMatrix,
    KernelKind,
    _all_bloch,
    fidelity_kernel,
    gram,
    kernel_matrix,
    product_bloch_vectors,
    product_kernel,
    projected_kernel,
    projected_sq_distance,
)
from qkonc.noise import PauliNoiseParams, noisy_embed


class TestKernelKind:
    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown kernel variant"):
            KernelKind("rbf")

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError, match="gamma"):
            KernelKind("projected", gamma=0.0)

    def test_constructors(self):
        assert KernelKind.fidelity().variant == "fidelity"
        assert KernelKind.projected(0.5).gamma == 0.5


class TestKernelValues:
    def test_self_kernel_is_one(self):
        rng = np.random.default_rng(42)
        spec = EmbeddingSpec(3, "hardware_efficient", layers=2)
        x = rng.uniform(-np.pi, np.pi, 3)
        s = embed(spec, x)
        assert fidelity_kernel(s, s) == pytest.approx(1.0, abs=1e-13)
        assert projected_kernel(s, s) == pytest.approx(1.0, abs=1e-13)

    def test_symmetry(self):
        rng = np.random.default_rng(42)
        spec = EmbeddingSpec(3, "hardware_efficient", layers=2)
        a = embed(spec, rng.uniform(-np.pi, np.pi, 3))
        b = embed(spec, rng.uniform(-np.pi, np.pi, 3))
        assert fidelity_kernel(a, b) == pytest.approx(fidelity_kernel(b, a), abs=1e-14)
        assert projected_kernel(a, b) == pytest.approx(projected_kernel(b, a), abs=1e-14)

    def test_fidelity_kernel_accepts_density_matrices(self):
        assert fidelity_kernel(maximally_mixed(2), maximally_mixed(2)) == pytest.approx(
            0.25, abs=1e-14
        )

    def test_projected_kernel_accepts_density_matrices(self):
        rng = np.random.default_rng(42)
        spec = EmbeddingSpec(3, "hardware_efficient", layers=2)
        a = embed(spec, rng.uniform(-np.pi, np.pi, 3))
        b = embed(spec, rng.uniform(-np.pi, np.pi, 3))
        ra, rb = (
            DensityMatrix(3, np.outer(s.amplitudes, s.amplitudes.conj())) for s in (a, b)
        )
        assert projected_kernel(ra, rb, gamma=0.7) == pytest.approx(
            projected_kernel(a, b, gamma=0.7), abs=1e-13
        )

    def test_density_matrix_distance_sums_reduced_state_distances(self):
        spec = EmbeddingSpec(3, "hardware_efficient", layers=2)
        params = PauliNoiseParams(0.7, 0.5, 0.4)
        ra = noisy_embed(spec, [0.3, -1.2, 2.0], params)
        rb = noisy_embed(spec, [1.1, 0.4, -2.5], params)
        want = 0.0
        for k in range(3):
            diff = reduce_to_qubit(ra, k).matrix - reduce_to_qubit(rb, k).matrix
            want += float(np.sum(diff.real**2 + diff.imag**2))
        assert projected_sq_distance(ra, rb) == want

    def test_projected_upper_bounds_via_distance(self):
        rng = np.random.default_rng(42)
        spec = EmbeddingSpec(3, "hardware_efficient", layers=2)
        a = embed(spec, rng.uniform(-np.pi, np.pi, 3))
        b = embed(spec, rng.uniform(-np.pi, np.pi, 3))
        d = projected_sq_distance(a, b)
        assert 0.0 <= d <= 2.0 * 3
        assert projected_kernel(a, b, gamma=0.7) == pytest.approx(
            math.exp(-0.7 * d), abs=1e-14
        )

    def test_distance_dimension_mismatch(self):
        a = embed(EmbeddingSpec(2, "tensor_ry"), [0.1, 0.2])
        b = embed(EmbeddingSpec(3, "tensor_ry"), [0.1, 0.2, 0.3])
        with pytest.raises(ValueError, match="different qubit counts"):
            projected_sq_distance(a, b)


def _reference_product_kernels(xs, ys, gamma):
    # the tensor-Ry closed forms evaluated in extended precision from one
    # (..., n) difference array
    diff = np.asarray(xs, dtype=np.longdouble) - np.asarray(ys, dtype=np.longdouble)
    c = np.cos(0.5 * diff)
    return np.prod(c * c, axis=-1), np.exp(-gamma * np.sum(1.0 - np.cos(diff), axis=-1))


def _product_pairs(xs, ys, kind, family="tensor_ry"):
    """A product-family kernel over the broadcast of ``xs`` and ``ys``, as
    concentration_scan takes it: the fidelity closed form, or the projected
    kernel of the two Bloch arrays' difference."""
    if kind.variant == "fidelity":
        return product_kernel(xs, ys, family)
    diff = product_bloch_vectors(xs, family) - product_bloch_vectors(ys, family)
    return projected_kernel_from_bloch_diff(diff, kind.gamma)


class TestClosedForms:
    def test_fidelity_matches_statevector(self):
        rng = np.random.default_rng(42)
        spec = EmbeddingSpec(4, "tensor_ry")
        for _ in range(5):
            x, y = rng.uniform(-np.pi, np.pi, (2, 4))
            want = fidelity_kernel(embed(spec, x), embed(spec, y))
            assert product_kernel(x, y) == pytest.approx(want, abs=1e-13)

    def test_projected_matches_statevector(self):
        rng = np.random.default_rng(42)
        spec = EmbeddingSpec(4, "tensor_ry")
        for _ in range(5):
            x, y = rng.uniform(-np.pi, np.pi, (2, 4))
            want = projected_kernel(embed(spec, x), embed(spec, y), gamma=1.3)
            assert _product_pairs(x, y, KernelKind.projected(1.3)) == pytest.approx(
                want, abs=1e-13
            )
            got = kernel_matrix(spec, x[None], y[None], KernelKind.projected(1.3))[0, 0]
            assert got == pytest.approx(want, abs=1e-13)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(42)
        xs = rng.uniform(-np.pi, np.pi, (8, 5))
        ys = rng.uniform(-np.pi, np.pi, (8, 5))
        for kind in (KernelKind.fidelity(), KernelKind.projected(0.9)):
            rows = _product_pairs(xs, ys, kind)
            assert rows.shape == (8,)
            for i in range(8):
                assert rows[i] == _product_pairs(xs[i], ys[i], kind)

    @pytest.mark.parametrize("n", [3, 12, 40])
    @pytest.mark.parametrize("near_orthogonal", [False, True])
    def test_matches_reference_formulas(self, n, near_orthogonal):
        rng = np.random.default_rng(n)
        xs = rng.uniform(-np.pi, np.pi, (9, n))
        ys = rng.uniform(-np.pi, np.pi, (7, n))
        if near_orthogonal:
            ys = xs[:7] + np.pi + rng.normal(0.0, 1e-3, (7, n))
        for a, b in ((xs[:7], ys), (xs[:, None], ys[None])):
            fid, proj = _reference_product_kernels(a, b, 1.3)
            np.testing.assert_allclose(
                _product_pairs(a, b, KernelKind.fidelity()), fid, rtol=1e-10, atol=1e-15
            )
            np.testing.assert_allclose(
                _product_pairs(a, b, KernelKind.projected(1.3)), proj, rtol=0.0, atol=1e-12
            )
        # the exact matrix path, the Gram of the (m, 3n) Bloch arrays, against the matrix reference
        matrix = kernel_matrix(EmbeddingSpec(n, "tensor_ry"), xs, ys, KernelKind.projected(1.3))
        np.testing.assert_allclose(matrix, proj, rtol=0.0, atol=1e-12)

    def test_matrix_diagonal_equals_row_wise_form(self):
        rng = np.random.default_rng(42)
        xs, ys = rng.uniform(-np.pi, np.pi, (2, 11, 40))
        for kind in (KernelKind.fidelity(), KernelKind.projected(0.7)):
            matrix = _product_pairs(xs[:, None], ys[None], kind)
            assert matrix.shape == (11, 11)
            np.testing.assert_array_equal(np.diag(matrix), _product_pairs(xs, ys, kind))

    @pytest.mark.parametrize("kind", [KernelKind.fidelity(), KernelKind.projected(0.7)])
    def test_transcendentals_per_input_row_and_symmetric_matrix(self, monkeypatch, kind):
        m, m2, n = 30, 20, 40
        rng = np.random.default_rng(42)
        xs, ys = rng.uniform(-np.pi, np.pi, (m, n)), rng.uniform(-np.pi, np.pi, (m2, n))
        counted = [0]

        def counting(ufunc):
            def wrapped(x, *args, **kwargs):
                counted[0] += np.size(x)
                return ufunc(x, *args, **kwargs)

            return wrapped

        monkeypatch.setattr(np, "cos", counting(np.cos))
        monkeypatch.setattr(np, "sin", counting(np.sin))
        assert _product_pairs(xs[:, None], ys[None], kind).shape == (m, m2)
        assert 0 < counted[0] <= 2 * (m + m2) * n
        counted[0] = 0
        assert kernel_matrix(EmbeddingSpec(n, "tensor_ry"), xs, ys, kind).shape == (m, m2)
        assert 0 < counted[0] <= 2 * (m + m2) * n
        matrix = _product_pairs(xs[:, None], xs[None], kind)
        np.testing.assert_array_equal(matrix, matrix.T)

    def test_width_mismatch(self):
        with pytest.raises(ValueError, match="widths"):
            product_kernel(np.zeros((3, 4)), np.zeros((3, 5)))

    def test_closed_forms_scale_past_statevector_range(self):
        rng = np.random.default_rng(42)
        x, y = rng.uniform(-np.pi, np.pi, (2, 100))
        kf = product_kernel(x, y)
        kp = _product_pairs(x, y, KernelKind.projected())
        assert 0.0 <= kf < 1e-10  # concentrates fast at n=100
        assert 0.0 < kp < 1.0

    def test_product_bloch_vectors(self):
        xs = np.array([[0.0, np.pi / 2.0]])
        c = product_bloch_vectors(xs)
        assert c.shape == (1, 2, 3)
        np.testing.assert_allclose(c[0, 0], [0.0, 0.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(c[0, 1], [1.0, 0.0, 0.0], atol=1e-15)


class TestGramMatrices:
    def setup_method(self):
        rng = np.random.default_rng(42)
        self.spec = EmbeddingSpec(3, "hardware_efficient", layers=2)
        self.xs = rng.uniform(-np.pi, np.pi, (6, 3))

    def test_exact_gram_diag_symmetry_psd(self):
        for kind in (KernelKind.fidelity(), KernelKind.projected(1.0)):
            g = gram(self.spec, self.xs, kind)
            assert g.matrix.shape == (6, 6)
            np.testing.assert_allclose(np.diag(g.matrix), 1.0, atol=0.0)
            np.testing.assert_allclose(g.matrix, g.matrix.T, atol=0.0)
            assert np.linalg.eigvalsh(g.matrix)[0] > -1e-10

    def test_exact_gram_entries_match_pairwise_kernel(self):
        g = gram(self.spec, self.xs, KernelKind.fidelity())
        a = embed(self.spec, self.xs[1])
        b = embed(self.spec, self.xs[4])
        assert g.matrix[1, 4] == pytest.approx(fidelity_kernel(a, b), abs=1e-13)

    def test_tensor_ry_gram_uses_closed_form(self):
        spec = EmbeddingSpec(3, "tensor_ry")
        g = gram(spec, self.xs, KernelKind.fidelity())
        want = product_kernel(self.xs[0], self.xs[2])
        assert g.matrix[0, 2] == pytest.approx(want, abs=1e-13)

    def test_estimated_gram_is_deterministic_per_seed(self):
        est = EstimatorSpec("swap", shots=64, seed=5)
        g1 = gram(self.spec, self.xs, KernelKind.fidelity(), est)
        g2 = gram(self.spec, self.xs, KernelKind.fidelity(), est)
        np.testing.assert_array_equal(g1.matrix, g2.matrix)
        g3 = gram(self.spec, self.xs, KernelKind.fidelity(), EstimatorSpec("swap", 64, 6))
        assert not np.array_equal(g1.matrix, g3.matrix)

    def test_estimated_gram_keeps_unit_diagonal(self):
        est = EstimatorSpec("loschmidt", shots=16, seed=5)
        g = gram(self.spec, self.xs, KernelKind.fidelity(), est)
        np.testing.assert_allclose(np.diag(g.matrix), 1.0, atol=0.0)
        np.testing.assert_allclose(g.matrix, g.matrix.T, atol=0.0)

    def test_estimated_gram_converges_to_exact(self):
        est = EstimatorSpec("swap", shots=400000, seed=5)
        g = gram(self.spec, self.xs, KernelKind.fidelity(), est)
        exact = gram(self.spec, self.xs, KernelKind.fidelity())
        np.testing.assert_allclose(g.matrix, exact.matrix, atol=0.01)

    def test_projected_gram_with_tomography(self):
        est = EstimatorSpec("tomography", shots=200000, seed=5)
        g = gram(self.spec, self.xs, KernelKind.projected(1.0), est)
        exact = gram(self.spec, self.xs, KernelKind.projected(1.0))
        np.testing.assert_allclose(g.matrix, exact.matrix, atol=0.02)

    def test_estimated_rows_follow_row_seed_rule(self):
        # row i of the strict upper triangle is one draw from
        # SeedSequence((seed, _SHOT_STREAM, i))
        est = EstimatorSpec("loschmidt", shots=64, seed=5)
        g = gram(self.spec, self.xs, KernelKind.fidelity(), est)
        exact = gram(self.spec, self.xs, KernelKind.fidelity()).matrix
        for i in range(len(self.xs) - 1):
            rng = np.random.default_rng(np.random.SeedSequence((5, kernels._SHOT_STREAM, i)))
            want = sample_fidelity(exact[i, i + 1:], "loschmidt", 64, rng)
            np.testing.assert_array_equal(g.matrix[i, i + 1:], want)

    def test_projected_gram_with_local_swap(self):
        est = EstimatorSpec("local_swap", shots=200000, seed=5)
        g = gram(self.spec, self.xs, KernelKind.projected(1.0), est)
        exact = gram(self.spec, self.xs, KernelKind.projected(1.0))
        np.testing.assert_allclose(g.matrix, exact.matrix, atol=0.02)

    def test_local_swap_gram_entries_match_single_pair_law(self):
        # 50 shots keep the estimator's upward bias visible; the Gram entries
        # and single-pair runs must share it, not just the exact value
        xs = self.xs[:4]
        kind, shots, seeds = KernelKind.projected(1.0), 50, 1000
        blochs = [bloch_vectors(embed(self.spec, x)) for x in xs]
        iu = np.triu_indices(4, k=1)
        grams = np.array([
            gram(self.spec, xs, kind, EstimatorSpec("local_swap", shots, seed)).matrix[iu]
            for seed in range(seeds)
        ])
        rng = np.random.default_rng(42)
        pairs = np.array([
            [
                projected_estimate_from_bloch(blochs[i], blochs[j], "local_swap", shots, rng)
                for i, j in zip(*iu)
            ]
            for _ in range(seeds)
        ])
        se = np.sqrt((grams.var(axis=0, ddof=1) + pairs.var(axis=0, ddof=1)) / seeds)
        assert np.all(np.abs(grams.mean(axis=0) - pairs.mean(axis=0)) < 5.0 * se)

    def test_incompatible_estimator_kernel_pairs(self):
        with pytest.raises(ValueError, match="incompatible"):
            gram(self.spec, self.xs, KernelKind.fidelity(), EstimatorSpec("tomography"))
        with pytest.raises(ValueError, match="incompatible"):
            gram(self.spec, self.xs, KernelKind.projected(1.0), EstimatorSpec("swap"))

    def test_input_shape_validation(self):
        with pytest.raises(ValueError, match="inputs"):
            gram(self.spec, np.zeros((4, 2)), KernelKind.fidelity())

    def test_gram_requires_square(self):
        with pytest.raises(ValueError, match="square"):
            GramMatrix(np.zeros((2, 3)), KernelKind.fidelity())


class TestRectangularKernelMatrix:
    def setup_method(self):
        rng = np.random.default_rng(42)
        self.spec = EmbeddingSpec(3, "hardware_efficient", layers=2)
        self.xs = rng.uniform(-np.pi, np.pi, (4, 3))
        self.ys = rng.uniform(-np.pi, np.pi, (7, 3))

    def test_exact_rectangular_entries(self):
        k = kernel_matrix(self.spec, self.xs, self.ys, KernelKind.fidelity())
        assert k.shape == (4, 7)
        a = embed(self.spec, self.xs[2])
        b = embed(self.spec, self.ys[5])
        assert k[2, 5] == pytest.approx(fidelity_kernel(a, b), abs=1e-13)

    def test_estimated_rectangular_deterministic(self):
        est = EstimatorSpec("loschmidt", shots=32, seed=9)
        k1 = kernel_matrix(self.spec, self.xs, self.ys, KernelKind.fidelity(), est)
        k2 = kernel_matrix(self.spec, self.xs, self.ys, KernelKind.fidelity(), est)
        np.testing.assert_array_equal(k1, k2)

    def test_rectangular_streams_do_not_collide_with_gram(self):
        # same seed: K[i, j] streams differ from Gram (i, j) streams by offset
        est = EstimatorSpec("loschmidt", shots=32, seed=9)
        g = gram(self.spec, self.xs, KernelKind.fidelity(), est)
        k = kernel_matrix(self.spec, self.xs, self.xs, KernelKind.fidelity(), est)
        assert not np.array_equal(np.triu(k, 1), np.triu(g.matrix, 1))

    @pytest.mark.parametrize(
        "kind, strategy",
        [(KernelKind.fidelity(), "loschmidt"), (KernelKind.projected(1.0), "tomography")],
    )
    def test_estimated_rows_do_not_depend_on_other_rows(self, kind, strategy, monkeypatch):
        est = EstimatorSpec(strategy, shots=32, seed=9)
        full = kernel_matrix(self.spec, self.xs, self.ys, kind, est)
        # row 2 alone, on row 2's seed stream
        monkeypatch.setattr(kernels, "_ROW_OFFSET", kernels._ROW_OFFSET + 2)
        row = kernel_matrix(self.spec, self.xs[2:3], self.ys, kind, est)
        np.testing.assert_array_equal(row, full[2:3])

    def test_estimator_compatibility_enforced(self):
        with pytest.raises(ValueError, match="incompatible"):
            kernel_matrix(
                self.spec, self.xs, self.ys, KernelKind.projected(1.0),
                EstimatorSpec("loschmidt"),
            )

    @pytest.mark.parametrize(
        "xs_shape, ys_shape, bad",
        [((3, 4), (2, 1), "(2, 1)"), ((3, 3), (3, 3), "(3, 3)"), ((3, 4), (4,), "(4,)")],
    )
    def test_inputs_must_be_m_by_num_qubits(self, xs_shape, ys_shape, bad):
        # the tensor_ry closed form broadcasts, so without the check the first
        # two cases would return a kernel matrix
        spec = EmbeddingSpec(4, "tensor_ry")
        with pytest.raises(ValueError, match=re.escape(f"expected (m, 4) inputs, got {bad}")):
            kernel_matrix(spec, np.zeros(xs_shape), np.ones(ys_shape), KernelKind.fidelity())

    def test_tensor_ry_matrix_memory_is_quadratic_not_cubic(self):
        # 64 qubits, 200 x 200 points: an (m, m', n) float64 temporary alone
        # would take 64 * m * m' * 8 bytes (20 MB); the per-qubit loop keeps a
        # few (m, m') buffers
        m = 200
        spec = EmbeddingSpec(64, "tensor_ry")
        rng = np.random.default_rng(42)
        xs, ys = rng.uniform(-np.pi, np.pi, (2, m, 64))
        tracemalloc.start()
        try:
            kernel_matrix(spec, xs, ys, KernelKind.fidelity())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * m * m * 8


def _whole_bloch(spec, xs):
    """Bloch vectors of the whole batch at once, in the arithmetic of the
    kernel path: each qubit's own state for the product families, the real rows
    for cz hardware_efficient (its states times conj((-i)**popcount), which
    is exactly real), the complex statevectors otherwise."""
    n = spec.num_qubits
    if spec.family in ("tensor_ry", "single_layer_rot"):
        return product_bloch_vectors(xs, spec.family)
    psi = embed_batch(spec, xs)
    if spec.family == "hardware_efficient" and spec.entangler == "cz":
        return _block_bloch(spec, np.ascontiguousarray((psi * _accel.sdg_phase(n).conj()).real))
    return _accel.bloch_batch(psi, n)


def _dense_projected(spec, xs, ys, gamma):
    """Projected kernel from the whole batch's Bloch vectors at once, in the
    floating-point order of the exact path."""
    ca = _whole_bloch(spec, xs).reshape(len(xs), -1)
    cb = ca if ys is None else _whole_bloch(spec, ys).reshape(len(ys), -1)
    sq_a = np.sum(ca * ca, axis=1)
    sq_b = np.sum(cb * cb, axis=1)
    d = 0.5 * (sq_a[:, None] + sq_b[None, :] - 2.0 * (ca @ cb.T))
    return np.exp(-gamma * d)


# the families whose kernels reduce statevectors, one row block at a time
STATEVECTOR_SPECS = [
    (family, entangler)
    for family in ("hardware_efficient", "parameterized", "haar")
    for entangler in ("cz", "cnot")
]


class TestBlockedProjectedKernels:
    @pytest.mark.parametrize("n", [10, 12])
    @pytest.mark.parametrize("family, entangler", STATEVECTOR_SPECS)
    def test_blocked_bloch_is_bitwise_the_whole_batch(self, family, entangler, n):
        rng = np.random.default_rng(n)
        xs = rng.uniform(0.0, 2.0 * np.pi, (_block_rows(n) + 3, n))
        theta = rng.uniform(0.0, 2.0 * np.pi, n) if family == "parameterized" else None
        spec = EmbeddingSpec(n, family, 2, entangler, seed=4, theta=theta)
        assert np.array_equal(_all_bloch(spec, xs), _whole_bloch(spec, xs))

    @pytest.mark.parametrize("gamma", [1.0, 0.37])
    @pytest.mark.parametrize(
        "family, entangler", STATEVECTOR_SPECS + [("single_layer_rot", "cz"), ("tensor_ry", "cz")]
    )
    def test_exact_gram_and_matrix_are_bitwise_the_dense_formula(self, family, entangler, gamma):
        n = 10
        rng = np.random.default_rng(7)
        xs = rng.uniform(0.0, 2.0 * np.pi, (_block_rows(n) + 3, n))
        ys = rng.uniform(0.0, 2.0 * np.pi, (5, n))
        theta = rng.uniform(0.0, 2.0 * np.pi, n) if family == "parameterized" else None
        spec = EmbeddingSpec(n, family, 2, entangler, seed=4, theta=theta)
        kind = KernelKind.projected(gamma)
        upper = _dense_projected(spec, xs, None, gamma)
        ref = np.eye(len(xs))
        iu = np.triu_indices(len(xs), k=1)
        ref[iu] = upper[iu]
        ref.T[iu] = upper[iu]
        assert np.array_equal(gram(spec, xs, kind).matrix, ref)
        rect = kernel_matrix(spec, ys, xs, kind)
        assert np.array_equal(rect, _dense_projected(spec, ys, xs, gamma))
        # an empty point set on either side gives an empty matrix
        assert gram(spec, xs[:0], kind).matrix.shape == (0, 0)
        assert kernel_matrix(spec, ys[:2], xs[:0], kind).shape == (2, 0)
        assert kernel_matrix(spec, xs[:0], ys[:2], kind).shape == (0, 2)

    @pytest.mark.parametrize(
        "family, entangler", [("single_layer_rot", "cz"), ("hardware_efficient", "cz"), ("hardware_efficient", "cnot")]
    )
    def test_exact_projected_gram_never_holds_the_state_batch(self, family, entangler):
        # 300 twelve-qubit states take 19.7 MB, and a whole-batch Bloch
        # reduction adds a conjugate and a |psi|^2 copy (about 49 MB); one row
        # block of states and two 300 x 300 matrices take about 3 MB, and
        # single_layer_rot makes no statevector at all
        spec = EmbeddingSpec(12, family, entangler=entangler)
        xs = np.random.default_rng(3).uniform(0.0, 2.0 * np.pi, (300, 12))
        tracemalloc.start()
        try:
            gram(spec, xs, KernelKind.projected())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 10**6


def _dense_fidelity(spec, xs, ys):
    """Fidelity kernel from one product of the whole statevector batches."""
    psi_a = embed_batch(spec, xs)
    psi_b = psi_a if ys is None else embed_batch(spec, ys)
    ov = psi_a @ psi_b.conj().T
    return ov.real**2 + ov.imag**2


class TestBlockedFidelityKernels:
    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
    @pytest.mark.parametrize("family", ["hardware_efficient", "parameterized", "haar"])
    def test_exact_gram_and_matrix_are_bitwise_the_dense_formula(self, family, n):
        rng = np.random.default_rng(n)
        xs = rng.uniform(0.0, 2.0 * np.pi, (min(_block_rows(n), 64) + 3, n))
        ys = rng.uniform(0.0, 2.0 * np.pi, (5, n))
        theta = rng.uniform(0.0, 2.0 * np.pi, n) if family == "parameterized" else None
        spec = EmbeddingSpec(n, family, 2, seed=4, theta=theta)
        kind = KernelKind.fidelity()
        upper = _dense_fidelity(spec, xs, None)
        ref = np.eye(len(xs))
        iu = np.triu_indices(len(xs), k=1)
        ref[iu] = upper[iu]
        ref.T[iu] = upper[iu]
        assert np.array_equal(gram(spec, xs, kind).matrix, ref)
        assert np.array_equal(kernel_matrix(spec, ys, xs, kind), _dense_fidelity(spec, ys, xs))
        assert np.array_equal(kernel_matrix(spec, xs, ys, kind), _dense_fidelity(spec, xs, ys))

    def test_exact_fidelity_gram_holds_no_conjugate_copy(self):
        # 300 twelve-qubit states take 19.7 MB; conjugating them all at once
        # would add another 19.7 MB, one row block of 16 states 1 MB
        spec = EmbeddingSpec(12, "hardware_efficient")
        xs = np.random.default_rng(3).uniform(0.0, 2.0 * np.pi, (300, 12))
        tracemalloc.start()
        try:
            gram(spec, xs, KernelKind.fidelity())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 28 * 10**6


def _gate_state(spec, x):
    """The embedded state built gate by gate."""
    state = computational_basis_state(spec.num_qubits)
    for layer in layer_decomposition(spec, x):
        for gate in layer:
            state = apply_gate(state, gate)
    return state


def _real_rows(spec, xs):
    """The float64 rows of ``_state_blocks``, copied out of its reused buffer."""
    return np.concatenate([phi.copy() for phi in _state_blocks(spec, xs, None)])


class TestNarrowStateForms:
    """Float64 rows of the real circuits and per-qubit states of
    single_layer_rot against the complex statevector path and the oracles."""

    @pytest.mark.parametrize("family", ["tensor_ry", "hardware_efficient"])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_real_rows_match_the_complex_path(self, family, n):
        rng = np.random.default_rng(n)
        xs, ys = rng.uniform(-np.pi, np.pi, (2, 40, n))
        phase = _accel.sdg_phase(n) if family == "hardware_efficient" else 1.0
        for layers in (1, 2, 3, 6):
            spec = EmbeddingSpec(n, family, layers=layers)
            psi_a, psi_b = embed_batch(spec, xs), embed_batch(spec, ys)
            phi_a, phi_b = _real_rows(spec, xs), _real_rows(spec, ys)
            assert phi_a.dtype == np.float64
            assert np.array_equal(phi_a * phase, psi_a), layers
            np.testing.assert_allclose(
                _all_bloch(spec, xs) if family == "hardware_efficient"
                else _block_bloch(spec, phi_a),
                _accel.bloch_batch(psi_a, n), rtol=0.0, atol=1e-13,
            )
            np.testing.assert_allclose(
                _accel.pair_absq(phi_a, phi_b), _accel.pair_absq(psi_a, psi_b), rtol=0.0, atol=1e-13
            )

    @pytest.mark.parametrize("n", [3, 10])
    def test_real_rows_do_not_depend_on_the_batch(self, n):
        # n = 3 runs its later layers with the rows last, n = 10 through BLAS;
        # both batches cross a block boundary
        step = _block_rows(n)
        rng = np.random.default_rng(n)
        xs, ys = rng.uniform(-np.pi, np.pi, (2, step + 3, n))
        spec = EmbeddingSpec(n, "hardware_efficient", layers=3)
        phi_a, phi_b = _real_rows(spec, xs), _real_rows(spec, ys)
        bloch, overlap = _all_bloch(spec, xs), _accel.pair_absq(phi_a, phi_b)
        for r in (0, 1, step - 1, step, step + 2):
            one_a, one_b = _real_rows(spec, xs[r : r + 1]), _real_rows(spec, ys[r : r + 1])
            assert np.array_equal(phi_a[r], one_a[0]), r
            assert np.array_equal(bloch[r], _all_bloch(spec, xs[r : r + 1])[0]), r
            assert overlap[r] == _accel.pair_absq(one_a, one_b)[0], r

    @pytest.mark.parametrize("n", range(1, 13))
    def test_single_layer_rot_matches_the_state_oracles(self, n):
        spec = EmbeddingSpec(n, "single_layer_rot")
        rng = np.random.default_rng(n)
        xs, ys = rng.uniform(-np.pi, np.pi, (2, 5, n))
        bloch = product_bloch_vectors(xs, spec.family)
        fid = product_kernel(xs, ys, spec.family)
        proj = _product_pairs(xs, ys, KernelKind.projected(0.7), spec.family)
        for i in range(len(xs)):
            a, b = _gate_state(spec, xs[i]), _gate_state(spec, ys[i])
            np.testing.assert_allclose(bloch[i], bloch_vectors(a), rtol=0.0, atol=1e-13)
            assert abs(fid[i] - fidelity(a, b)) <= 1e-13
            assert abs(proj[i] - projected_kernel(a, b, 0.7)) <= 1e-13

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_single_layer_rot_fidelity_matrix_matches_the_statevectors(self, n):
        spec = EmbeddingSpec(n, "single_layer_rot")
        rng = np.random.default_rng(n)
        xs, ys = rng.uniform(0.0, 2.0 * np.pi, (40, n)), rng.uniform(0.0, 2.0 * np.pi, (7, n))
        kind = KernelKind.fidelity()
        matrix = gram(spec, xs, kind).matrix
        np.testing.assert_allclose(matrix, _dense_fidelity(spec, xs, None), rtol=0.0, atol=1e-13)
        assert np.array_equal(np.diag(matrix), np.ones(len(xs)))
        rect = kernel_matrix(spec, ys, xs, kind)
        np.testing.assert_allclose(rect, _dense_fidelity(spec, ys, xs), rtol=0.0, atol=1e-13)

    def test_product_kernel_rejects_a_statevector_family(self):
        with pytest.raises(ValueError, match="not a product family"):
            product_kernel(np.zeros((2, 3)), np.zeros((2, 3)), "hardware_efficient")


def read_gram_csv(path) -> tuple[np.ndarray, dict]:
    """The matrix of a ``GramMatrix.to_csv`` file and its JSON header."""
    with open(path) as fh:
        meta = json.loads(fh.readline().removeprefix("#"))
    return np.loadtxt(path, delimiter=",", comments="#", ndmin=2), meta


class TestGramCsvRoundtrip:
    def test_matrix_and_metadata_survive(self, tmp_path):
        rng = np.random.default_rng(42)
        spec = EmbeddingSpec(3, "hardware_efficient", layers=2)
        xs = rng.uniform(-np.pi, np.pi, (5, 3))
        est = EstimatorSpec("swap", shots=128, seed=3)
        g = gram(spec, xs, KernelKind.fidelity(), est)
        path = tmp_path / "gram.csv"
        g.to_csv(path)
        matrix, meta = read_gram_csv(path)
        np.testing.assert_array_equal(matrix, g.matrix)
        assert KernelKind(meta["variant"], meta["gamma"]) == g.kind
        assert EstimatorSpec(meta["strategy"], meta["shots"], meta["seed"]) == est

    def test_exact_gram_roundtrip_without_estimator(self, tmp_path):
        rng = np.random.default_rng(42)
        spec = EmbeddingSpec(2, "tensor_ry")
        g = gram(spec, rng.uniform(-np.pi, np.pi, (4, 2)), KernelKind.projected(0.8))
        path = tmp_path / "gram.csv"
        g.to_csv(path)
        matrix, meta = read_gram_csv(path)
        np.testing.assert_array_equal(matrix, g.matrix)
        assert meta["gamma"] == 0.8
        assert "strategy" not in meta  # no estimator

    def test_writes_are_byte_identical(self, tmp_path):
        rng = np.random.default_rng(42)
        spec = EmbeddingSpec(2, "tensor_ry")
        g = gram(spec, rng.uniform(-np.pi, np.pi, (4, 2)), KernelKind.fidelity())
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        g.to_csv(p1)
        g.to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bytes_match_the_per_value_format(self, tmp_path):
        mat = np.array(
            [
                [1e-300, 0.0, -0.0, np.inf, np.nan],
                [-np.inf, 5e-324, 1.0 / 3.0, 0.1, 1.0],
                [2.0**-1074, 1e300, -1e-17, 123456789.123456789, -0.5],
                [0.25, 1 - 1e-16, np.pi, -np.e, 1e16],
                [7.0, 1e-5, 3e-310, -2.5e-8, 0.999999999999],
            ]
        )
        g = GramMatrix(mat, KernelKind.projected(0.5))
        path = tmp_path / "gram.csv"
        g.to_csv(path)
        header = "# " + '{"gamma": 0.5, "variant": "projected"}' + "\n"
        want = header + "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in mat)
        assert path.read_bytes() == want.encode()
