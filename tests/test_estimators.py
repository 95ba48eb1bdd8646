"""Finite-shot kernel estimators: distributions, unbiasedness, error modes."""

import math

import numpy as np
import pytest

from qkonc.core import computational_basis_state, fidelity
from qkonc.embeddings import EmbeddingSpec, embed
from qkonc.estimators import (
    EstimatorSpec,
    estimate_bloch_tomography,
    estimate_fidelity,
    estimate_local_swap,
    estimate_loschmidt,
    estimate_projected,
    estimate_swap,
    loschmidt_record,
    pauli_expectation_record,
    sample_biased_rand_kappa,
    sample_fidelity,
    sample_rand_kappa,
    swap_record,
)
from qkonc.kernels import projected_kernel


def embedded_pair(num_qubits=3, seed=42):
    rng = np.random.default_rng(seed)
    spec = EmbeddingSpec(num_qubits, "hardware_efficient", layers=2)
    x, y = rng.uniform(-np.pi, np.pi, (2, num_qubits))
    return embed(spec, x), embed(spec, y)


class TestSpecValidation:
    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            EstimatorSpec("mle")

    def test_bad_shots(self):
        with pytest.raises(ValueError, match="shots"):
            EstimatorSpec("swap", shots=0)

    def test_exact_ignores_shots(self):
        EstimatorSpec("exact", shots=0)  # no error: exact never samples


class TestShotRecords:
    def test_loschmidt_outcomes_are_binary(self):
        rec = loschmidt_record(0.7, 500, np.random.default_rng(42))
        assert rec.shots == 500
        assert set(np.unique(rec.outcomes)) <= {0, 1}
        assert rec.estimate == pytest.approx(rec.outcomes.mean(), abs=1e-15)
        assert rec.successes() == int(rec.outcomes.sum())

    def test_swap_outcomes_are_signs(self):
        rec = swap_record(0.3, 500, np.random.default_rng(42))
        assert set(np.unique(rec.outcomes)) <= {-1, 1}
        assert rec.estimate == pytest.approx(rec.outcomes.mean(), abs=1e-15)

    def test_degenerate_probabilities(self):
        rng = np.random.default_rng(42)
        assert loschmidt_record(1.0, 100, rng).estimate == 1.0
        assert loschmidt_record(0.0, 100, rng).estimate == 0.0
        assert swap_record(1.0, 100, rng).estimate == 1.0

    def test_invalid_kappa_rejected(self):
        rng = np.random.default_rng(42)
        with pytest.raises(ValueError, match="not a probability"):
            loschmidt_record(1.5, 10, rng)
        with pytest.raises(ValueError, match="not a probability"):
            swap_record(1.2, 10, rng)

    def test_pauli_record_mean(self):
        rec = pauli_expectation_record(-0.4, 200000, np.random.default_rng(42))
        assert rec.estimate == pytest.approx(-0.4, abs=0.01)


class TestUnbiasedness:
    def test_loschmidt_mean_and_variance(self):
        # n_hat is Binomial(N, kappa)/N: mean kappa, var kappa(1-kappa)/N
        rng = np.random.default_rng(42)
        kappa, shots, reps = 0.37, 64, 4000
        ests = np.array(
            [loschmidt_record(kappa, shots, rng).estimate for _ in range(reps)]
        )
        se = ests.std(ddof=1) / math.sqrt(reps)
        assert abs(ests.mean() - kappa) < 4.0 * se
        want_var = kappa * (1.0 - kappa) / shots
        assert ests.var(ddof=1) == pytest.approx(want_var, rel=0.15)

    def test_swap_mean_and_variance(self):
        # mean estimate kappa, variance (1 - kappa^2)/N
        rng = np.random.default_rng(42)
        kappa, shots, reps = 0.51, 64, 4000
        ests = np.array([swap_record(kappa, shots, rng).estimate for _ in range(reps)])
        se = ests.std(ddof=1) / math.sqrt(reps)
        assert abs(ests.mean() - kappa) < 4.0 * se
        want_var = (1.0 - kappa * kappa) / shots
        assert ests.var(ddof=1) == pytest.approx(want_var, rel=0.15)

    def test_guessing_baselines(self):
        rng = np.random.default_rng(42)
        fair = np.array([sample_rand_kappa(16, rng).estimate for _ in range(4000)])
        assert abs(fair.mean()) < 4.0 * fair.std(ddof=1) / math.sqrt(4000)
        assert fair.var(ddof=1) == pytest.approx(1.0 / 16.0, rel=0.15)

        biased = np.array(
            [sample_biased_rand_kappa(16, rng).estimate for _ in range(4000)]
        )
        assert biased.mean() == pytest.approx(0.5, abs=0.02)
        assert biased.var(ddof=1) == pytest.approx(3.0 / (4.0 * 16.0), rel=0.15)


class TestSampleFidelity:
    @pytest.mark.parametrize(
        "strategy, kappa, want_var",
        [("loschmidt", 0.37, 0.37 * 0.63 / 64), ("swap", 0.51, (1.0 - 0.51**2) / 64)],
    )
    def test_laws_match_shot_records(self, strategy, kappa, want_var):
        # one draw per entry of a 4000-entry array, 64 shots each
        ests = sample_fidelity(np.full(4000, kappa), strategy, 64, np.random.default_rng(42))
        assert ests.shape == (4000,)
        se = ests.std(ddof=1) / math.sqrt(ests.size)
        assert abs(ests.mean() - kappa) < 4.0 * se
        assert ests.var(ddof=1) == pytest.approx(want_var, rel=0.15)

    def test_invalid_kappa_rejected(self):
        rng = np.random.default_rng(42)
        with pytest.raises(ValueError, match="not a probability"):
            sample_fidelity(np.array([0.5, 1.5]), "loschmidt", 10, rng)
        with pytest.raises(ValueError, match="not a probability"):
            sample_fidelity(1.5, "swap", 10, rng)

    @pytest.mark.parametrize("strategy", ["tomography", "local_swap"])
    def test_projected_strategies_rejected(self, strategy):
        with pytest.raises(ValueError, match="cannot estimate a fidelity kernel"):
            sample_fidelity(np.array([0.5]), strategy, 10, np.random.default_rng(42))


class TestFidelityEstimation:
    def test_exact_matches_fidelity(self):
        a, b = embedded_pair()
        got = estimate_fidelity(a, b, EstimatorSpec("exact"))
        assert got == pytest.approx(fidelity(a, b), abs=1e-14)

    def test_loschmidt_converges(self):
        a, b = embedded_pair()
        rng = np.random.default_rng(42)
        got = estimate_fidelity(a, b, EstimatorSpec("loschmidt", shots=200000), rng)
        assert got == pytest.approx(fidelity(a, b), abs=0.01)

    def test_swap_converges(self):
        a, b = embedded_pair()
        rng = np.random.default_rng(42)
        got = estimate_fidelity(a, b, EstimatorSpec("swap", shots=200000), rng)
        assert got == pytest.approx(fidelity(a, b), abs=0.01)

    def test_record_wrappers_use_true_fidelity(self):
        a, b = embedded_pair()
        rec = estimate_loschmidt(a, b, 100000, np.random.default_rng(42))
        assert rec.estimate == pytest.approx(fidelity(a, b), abs=0.02)
        rec = estimate_swap(a, b, 100000, np.random.default_rng(42))
        assert rec.estimate == pytest.approx(fidelity(a, b), abs=0.02)

    def test_rng_required_for_finite_shots(self):
        a, b = embedded_pair()
        with pytest.raises(ValueError, match="random generator"):
            estimate_fidelity(a, b, EstimatorSpec("swap", shots=10))

    def test_projected_strategies_rejected(self):
        a, b = embedded_pair()
        with pytest.raises(ValueError, match="projected, not fidelity"):
            estimate_fidelity(a, b, EstimatorSpec("tomography"), np.random.default_rng(42))


class TestProjectedEstimation:
    def test_exact_matches_kernel(self):
        a, b = embedded_pair()
        got = estimate_projected(a, b, EstimatorSpec("exact"), gamma=1.0)
        assert got == pytest.approx(projected_kernel(a, b, gamma=1.0), abs=1e-14)

    def test_gamma_scaling(self):
        a, b = embedded_pair()
        k1 = estimate_projected(a, b, EstimatorSpec("exact"), gamma=1.0)
        k2 = estimate_projected(a, b, EstimatorSpec("exact"), gamma=2.0)
        assert k2 == pytest.approx(k1 * k1, abs=1e-12)

    @pytest.mark.parametrize("strategy", ["tomography", "local_swap"])
    def test_finite_shot_converges(self, strategy):
        a, b = embedded_pair()
        rng = np.random.default_rng(42)
        want = projected_kernel(a, b, gamma=1.0)
        got = estimate_projected(a, b, EstimatorSpec(strategy, shots=400000), rng)
        assert got == pytest.approx(want, abs=0.02)

    def test_fidelity_strategies_rejected(self):
        a, b = embedded_pair()
        with pytest.raises(ValueError, match="fidelity, not projected"):
            estimate_projected(a, b, EstimatorSpec("swap"), np.random.default_rng(42))

    def test_rng_required_for_finite_shots(self):
        a, b = embedded_pair()
        with pytest.raises(ValueError, match="random generator"):
            estimate_projected(a, b, EstimatorSpec("tomography", shots=10))

    def test_estimates_can_exceed_one(self):
        # identical states have distance 0; unclipped shot noise pushes the
        # estimated squared distance negative about half the time
        a, _ = embedded_pair()
        rng = np.random.default_rng(42)
        ests = [
            estimate_projected(a, a, EstimatorSpec("local_swap", shots=50), rng)
            for _ in range(200)
        ]
        assert max(ests) > 1.0


class TestBlochTomography:
    def test_counts_shape_and_range(self):
        a, _ = embedded_pair()
        tomo = estimate_bloch_tomography(a, 100, np.random.default_rng(42))
        assert tomo.components.shape == (3, 3)
        assert tomo.counts.shape == (3, 3)
        assert tomo.shots == 100
        assert np.all((0 <= tomo.counts) & (tomo.counts <= 100))

    def test_components_converge_to_bloch_vectors(self):
        from qkonc.core import bloch_vectors

        a, _ = embedded_pair()
        tomo = estimate_bloch_tomography(a, 500000, np.random.default_rng(42))
        np.testing.assert_allclose(tomo.components, bloch_vectors(a), atol=0.01)

    def test_estimate_consistent_with_counts(self):
        a, _ = embedded_pair()
        tomo = estimate_bloch_tomography(a, 64, np.random.default_rng(42))
        np.testing.assert_allclose(
            tomo.components, 2.0 * tomo.counts / 64 - 1.0, atol=1e-14
        )


class TestLocalSwap:
    def test_terms_converge(self):
        from qkonc.core import bloch_vectors

        a, b = embedded_pair()
        est = estimate_local_swap(a, b, 500000, np.random.default_rng(42))
        ca, cb = bloch_vectors(a), bloch_vectors(b)
        want = np.stack(
            [
                0.5 * (1.0 + np.sum(ca * ca, axis=1)),
                0.5 * (1.0 + np.sum(cb * cb, axis=1)),
                0.5 * (1.0 + np.sum(ca * cb, axis=1)),
            ],
            axis=1,
        )
        np.testing.assert_allclose(est.terms, want, atol=0.01)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="different qubit counts"):
            estimate_local_swap(
                computational_basis_state(2),
                computational_basis_state(3),
                10,
                np.random.default_rng(42),
            )
