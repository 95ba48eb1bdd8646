"""Kernel models: ridge regression, SVM dual, alignment, generalization scan."""

import math

import numpy as np
import pytest

from qkonc.embeddings import EmbeddingSpec
from qkonc.estimators import EstimatorSpec
from qkonc.kernels import KernelKind, gram
from qkonc.learning import (
    SVM_SOLVER,
    TrainedModel,
    generalization_experiment,
    kernel_target_alignment,
    krr_fit,
    kta_variance_over_theta,
    predict,
    svm_fit,
    train,
)


def spd_matrix(rng, n):
    a = rng.normal(size=(n, n))
    return a @ a.T + n * np.eye(n)


class TestKrr:
    def test_identity_kernel_minus_sign(self):
        # (1 - lam)^-1 y for K = identity under the "minus" convention
        y = np.array([1.0, -2.0, 0.5])
        fit = krr_fit(np.eye(3), y, lam=0.3, sign="minus")
        np.testing.assert_allclose(fit.coefficients, y / 0.7, atol=1e-12)
        assert fit.condition_number == pytest.approx(1.0, abs=1e-9)

    def test_identity_kernel_plus_sign(self):
        y = np.array([1.0, -2.0, 0.5])
        fit = krr_fit(np.eye(3), y, lam=0.3, sign="plus")
        np.testing.assert_allclose(fit.coefficients, y / 1.3, atol=1e-12)

    def test_zero_lambda_solves_exactly(self):
        rng = np.random.default_rng(42)
        K = spd_matrix(rng, 5)
        y = rng.normal(size=5)
        fit = krr_fit(K, y)
        np.testing.assert_allclose(K @ fit.coefficients, y, atol=1e-9)

    def test_condition_number_reported(self):
        # the 2-norm condition number, on definite and indefinite matrices
        rng = np.random.default_rng(42)
        for n in (4, 30):
            a = rng.normal(size=(n, n))
            for K in (spd_matrix(rng, n), a + a.T):
                for lam, sign in ((0.0, "minus"), (0.1, "plus")):
                    fit = krr_fit(K, np.ones(n), lam=lam, sign=sign)
                    want = np.linalg.cond(K + (lam if sign == "plus" else -lam) * np.eye(n))
                    assert fit.condition_number == pytest.approx(float(want), rel=1e-9)

    def test_singular_matrix_rejected_with_condition(self):
        for K, cond in (
            (np.ones((3, 3)), r"\d\.\d{3}e\+(1[2-9]|[2-9]\d)"),  # rank one
            (np.diag([1.0, 1e-14]), r"1\.000e\+14"),
        ):
            with pytest.raises(ValueError, match=f"singular \\(condition number {cond}\\)"):
                krr_fit(K, np.ones(K.shape[0]))

    def test_non_symmetric_rejected_before_factorizing(self, monkeypatch):
        K = spd_matrix(np.random.default_rng(42), 4)
        K[0, 2] += 1e-9
        for name in ("eigvalsh", "solve", "cond"):
            monkeypatch.setattr(np.linalg, name, lambda *a, **k: pytest.fail("factorized"))
        with pytest.raises(ValueError, match=r"not symmetric: \|K - K\^T\| is 1\.000e-09 at \(0, 2\)"):
            krr_fit(K, np.ones(4))

    def test_minus_sign_can_singularize_identity(self):
        # every eigenvalue of I - 1 I is exactly 0
        with pytest.raises(ValueError, match=r"singular \(condition number inf\)"):
            krr_fit(np.eye(3), np.ones(3), lam=1.0, sign="minus")

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            krr_fit(np.eye(3), np.ones(4))

    def test_unknown_sign(self):
        with pytest.raises(ValueError, match="sign"):
            krr_fit(np.eye(2), np.ones(2), sign="abs")


class TestSvm:
    def test_identity_kernel_fixed_point(self):
        # dual for K = identity: a_i -> 1 for every point
        fit = svm_fit(np.eye(4), np.array([1.0, -1.0, 1.0, -1.0]))
        assert fit.converged
        np.testing.assert_allclose(fit.coefficients, 1.0, atol=1e-3)
        assert fit.objective == pytest.approx(2.0, abs=1e-3)

    def test_separable_two_point_problem(self):
        # K from two orthogonal unit vectors; optimum a = (1, 1), margin 2
        K = np.eye(2)
        fit = svm_fit(K, np.array([1.0, -1.0]))
        assert fit.converged
        assert fit.objective == pytest.approx(1.0, abs=1e-3)

    def test_nonnegativity_constraint(self):
        rng = np.random.default_rng(42)
        K = spd_matrix(rng, 6)
        d = np.sqrt(np.diag(K))
        K = K / np.outer(d, d)
        y = np.array([1.0, 1.0, -1.0, 1.0, -1.0, -1.0])
        fit = svm_fit(K, y)
        assert np.all(fit.coefficients >= 0.0)

    def test_iteration_cap_reports_nonconvergence(self):
        rng = np.random.default_rng(42)
        K = spd_matrix(rng, 6)
        y = np.ones(6)
        fit = svm_fit(K, y, max_iter=2, tol=1e-16)
        assert not fit.converged
        assert fit.iterations == 2

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            svm_fit(np.eye(3), np.ones(2))


def unit_gram(rng, m, rank):
    """PSD Gram with unit diagonal and rank at most ``rank``."""
    x = rng.normal(size=(m, rank))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x @ x.T


def assert_kkt(K, y, a, C, atol=1e-9):
    """KKT conditions of max sum(a) - a^T Q a / 2 over 0 <= a <= C."""
    g = 1.0 - (np.outer(y, y) * K) @ a
    assert np.all((a >= 0.0) & (a <= C))
    at_low, at_high = a <= atol, a >= C - atol
    assert np.all(g[at_low] <= atol)
    assert np.all(g[at_high] >= -atol)
    assert np.all(np.abs(g[~at_low & ~at_high]) <= atol)


class TestSvmSoftMargin:
    @pytest.mark.parametrize("m", [5, 50, 200])
    @pytest.mark.parametrize("C", [0.1, 1.0, 10.0])
    def test_kkt_conditions_on_psd_grams(self, m, C):
        rng = np.random.default_rng(m)
        y = np.where(rng.uniform(size=m) < 0.5, 1.0, -1.0)
        for rank in sorted({m, max(1, m // 4)}):  # full rank and singular
            K = unit_gram(rng, m, rank)
            fit = svm_fit(K, y, C=C)
            assert fit.converged
            assert fit.kkt_residual <= 1e-9
            assert_kkt(K, y, fit.coefficients, C)

    def test_two_point_closed_form(self):
        # K = [[1, r], [r, 1]], y = (1, -1): a = 1 / (1 - r) while it is <= C
        K = np.array([[1.0, 0.5], [0.5, 1.0]])
        y = np.array([1.0, -1.0])
        np.testing.assert_allclose(svm_fit(K, y, C=10.0).coefficients, 2.0, atol=1e-12)
        np.testing.assert_allclose(svm_fit(K, y, C=1.0).coefficients, 1.0, atol=1e-12)

    def test_indefinite_gram_is_repaired(self):
        rng = np.random.default_rng(5)
        m = 40
        A = rng.uniform(-1.0, 1.0, (m, m))
        K = 0.5 * (A + A.T)
        np.fill_diagonal(K, 1.0)
        y = np.where(rng.uniform(size=m) < 0.5, 1.0, -1.0)
        fit = svm_fit(K, y, C=1.0)
        evals, evecs = np.linalg.eigh(K)
        assert fit.min_eigenvalue == pytest.approx(evals[0], abs=1e-12)
        assert fit.min_eigenvalue < 0.0
        assert fit.eigenvalues_clipped == np.count_nonzero(evals < 0.0) > 0
        assert fit.converged and fit.kkt_residual <= 1e-9
        a = fit.coefficients
        assert np.all(np.isfinite(a)) and np.all((a >= 0.0) & (a <= 1.0))
        # the optimum of the problem on the clipped Gram
        K_plus = (evecs * np.maximum(evals, 0.0)) @ evecs.T
        assert_kkt(K_plus, y, a, 1.0)
        assert fit.objective == pytest.approx(svm_fit(K_plus, y).objective, abs=1e-9)

    def test_psd_gram_reports_no_clipping(self):
        fit = svm_fit(2.0 * np.eye(3), np.array([1.0, -1.0, 1.0]))
        assert fit.min_eigenvalue == 2.0
        assert fit.eigenvalues_clipped == 0
        assert fit.solver == SVM_SOLVER

    def test_nonpositive_c_is_rejected(self):
        with pytest.raises(ValueError, match="C must be positive"):
            svm_fit(np.eye(2), np.array([1.0, -1.0]), C=0.0)


class TestAlignment:
    def test_identity_kernel_value(self):
        # TA(I, y) = N / (sqrt(N) N) = 1/sqrt(N); with N = 2 gives 1/sqrt(2)
        y = np.array([1.0, -1.0])
        assert kernel_target_alignment(np.eye(2), y) == pytest.approx(
            1.0 / math.sqrt(2.0), abs=1e-12
        )

    def test_perfect_alignment(self):
        y = np.array([1.0, -1.0, 1.0])
        K = np.outer(y, y)
        assert kernel_target_alignment(K, y) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_denominator(self):
        with pytest.raises(ValueError, match="degenerate"):
            kernel_target_alignment(np.zeros((2, 2)), np.array([1.0, -1.0]))

    def test_scale_invariance_in_kernel(self):
        rng = np.random.default_rng(42)
        K = spd_matrix(rng, 5)
        y = np.sign(rng.normal(size=5))
        a1 = kernel_target_alignment(K, y)
        a2 = kernel_target_alignment(3.7 * K, y)
        assert a1 == pytest.approx(a2, abs=1e-12)


class TestTrainedModels:
    def setup_method(self):
        rng = np.random.default_rng(42)
        self.spec = EmbeddingSpec(3, "hardware_efficient", layers=2)
        self.xs = rng.uniform(-np.pi, np.pi, (8, 3))
        self.kind = KernelKind.fidelity()
        gm = gram(self.spec, self.xs, self.kind)
        w = rng.uniform(0.0, 1.0, 8)
        self.y = gm.matrix @ w

    def test_krr_interpolates_training_data(self):
        model, fit = train(self.spec, self.xs, self.y, self.kind)
        preds = predict(model, self.xs)
        np.testing.assert_allclose(preds, self.y, atol=1e-8)
        assert fit.condition_number < 1e12

    def test_krr_with_ridge_shrinks_residuals_smoothly(self):
        model, _ = train(self.spec, self.xs, self.y, self.kind, lam=0.01, sign="plus")
        preds = predict(model, self.xs)
        assert float(np.max(np.abs(preds - self.y))) < 0.1

    def test_svm_separates_training_signs(self):
        y = np.sign(self.y - np.median(self.y))
        y[y == 0.0] = 1.0
        model, fit = train(self.spec, self.xs, y, self.kind, "svm")
        assert fit.converged
        margins = y * predict(model, self.xs)
        assert np.all(margins > 0.0)

    def test_predict_at_new_points_matches_manual_expansion(self):
        from qkonc.kernels import kernel_matrix

        rng = np.random.default_rng(3)
        model, _ = train(self.spec, self.xs, self.y, self.kind)
        new = rng.uniform(-np.pi, np.pi, (4, 3))
        kmat = kernel_matrix(self.spec, new, self.xs, self.kind)
        np.testing.assert_allclose(
            predict(model, new), kmat @ model.coefficients, atol=1e-12
        )

    def test_json_roundtrip_preserves_predictions(self):
        model, _ = train(self.spec, self.xs, self.y, self.kind, lam=0.05, sign="plus")
        back = TrainedModel.from_json(model.to_json())
        rng = np.random.default_rng(3)
        new = rng.uniform(-np.pi, np.pi, (4, 3))
        np.testing.assert_allclose(predict(back, new), predict(model, new), atol=1e-14)
        assert back.spec == model.spec
        assert back.kind == model.kind
        assert back.lam == model.lam

    def test_svm_json_keeps_labels(self):
        y = np.sign(self.y - np.median(self.y))
        y[y == 0.0] = 1.0
        model, _ = train(self.spec, self.xs, y, self.kind, "svm")
        back = TrainedModel.from_json(model.to_json())
        np.testing.assert_allclose(
            predict(back, self.xs), predict(model, self.xs), atol=1e-14
        )

    def test_estimated_gram_training(self):
        est = EstimatorSpec("swap", shots=400000, seed=2)
        model, _ = train(
            self.spec, self.xs, self.y, self.kind, lam=0.01, sign="plus", estimator=est
        )
        preds = predict(model, self.xs)
        assert float(np.mean((preds - self.y) ** 2)) < 0.01

    @pytest.mark.parametrize("kwargs", [{"lam": 0.5}, {"sign": "plus"}])
    def test_svm_rejects_ridge_arguments(self, kwargs):
        # svm has no ridge term; lam and sign would be silently unread
        with pytest.raises(ValueError, match="ridge term"):
            train(self.spec, self.xs, np.sign(self.y - 0.5), self.kind, "svm", **kwargs)

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            train(self.spec, self.xs, self.y, self.kind, "lasso")


class TestKtaScan:
    def test_shapes_and_variance_definition(self):
        rng = np.random.default_rng(42)
        spec = EmbeddingSpec(2, "parameterized", layers=1)
        xs = rng.uniform(0.0, 2.0 * np.pi, (5, 2))
        y = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
        scan = kta_variance_over_theta(spec, xs, y, 20, np.random.default_rng(1))
        assert scan.ta_values.shape == (20,)
        assert scan.kernel_values.shape == (20, 5, 5)
        assert scan.kernel_variances.shape == (5, 5)
        assert scan.ta_variance == pytest.approx(
            float(scan.ta_values.var(ddof=1)), abs=1e-15
        )
        np.testing.assert_allclose(
            scan.kernel_variances, scan.kernel_values.var(axis=0, ddof=1), atol=1e-15
        )

    def test_diagonal_entries_never_vary(self):
        rng = np.random.default_rng(42)
        spec = EmbeddingSpec(2, "parameterized", layers=1)
        xs = rng.uniform(0.0, 2.0 * np.pi, (4, 2))
        y = np.array([1.0, -1.0, 1.0, -1.0])
        scan = kta_variance_over_theta(spec, xs, y, 10, np.random.default_rng(1))
        np.testing.assert_allclose(np.diagonal(scan.kernel_variances), 0.0, atol=1e-30)

    def test_variance_bound_from_scan_holds(self):
        from qkonc.analysis import kta_variance_bound

        rng = np.random.default_rng(42)
        spec = EmbeddingSpec(2, "parameterized", layers=1)
        xs = rng.uniform(0.0, 2.0 * np.pi, (4, 2))
        y = np.array([1.0, -1.0, 1.0, -1.0])
        scan = kta_variance_over_theta(spec, xs, y, 200, np.random.default_rng(1))
        assert scan.ta_variance <= kta_variance_bound(scan.kernel_variances, 4)


def eta(losses: np.ndarray) -> np.ndarray:
    """Per-size generalization ratio L(test | S_N) / L(test | S_first) of
    (repeats, sizes) losses, averaged over repeats."""
    return np.mean(losses / losses[:, :1], axis=0)


class TestGeneralizationExperiment:
    def test_exact_arm_interpolates_and_estimated_arm_fails_flat(self):
        rng = np.random.default_rng(42)
        results = [
            generalization_experiment(rng, num_qubits=40, train_sizes=(10, 25, 50), num_test=10, shots=500)
            for _ in range(2)
        ]
        assert all(res.train_sizes == (10, 25, 50) for res in results)
        assert results[0].loss_exact.shape == (3,)
        # exact kernel: interpolation is numerically perfect on train data
        assert max(float(res.train_error_exact.max()) for res in results) < 1e-6
        # exact test loss collapses with more data; estimated stays order-one
        eta_exact = eta(np.vstack([res.loss_exact for res in results]))
        eta_est = eta(np.vstack([res.loss_estimated for res in results]))
        assert eta_exact[-1] < 0.5
        assert eta_est[-1] > 0.5

    def test_size_validation(self):
        with pytest.raises(ValueError, match="positive"):
            generalization_experiment(np.random.default_rng(42), train_sizes=(0, 5))
