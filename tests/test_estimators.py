"""Finite-shot kernel estimators: distributions, unbiasedness, error modes."""

import math

import numpy as np
import pytest

from qkonc.core import bloch_vectors, fidelity
from qkonc.embeddings import EmbeddingSpec, embed
from qkonc.estimators import (
    EstimatorSpec,
    _local_swap_from_bloch,
    _pm_one_mean,
    projected_estimate_from_bloch,
    projected_kernel_from_bloch_diff,
    sample_fidelity,
)
from qkonc.kernels import projected_kernel


def embedded_pair(num_qubits=3, seed=42):
    rng = np.random.default_rng(seed)
    spec = EmbeddingSpec(num_qubits, "hardware_efficient", layers=2)
    x, y = rng.uniform(-np.pi, np.pi, (2, num_qubits))
    return embed(spec, x), embed(spec, y)


class TestSpecValidation:
    @pytest.mark.parametrize("strategy", ["mle", "exact"])
    def test_unknown_strategy(self, strategy):
        # exact kernel values take no estimator (estimator=None)
        with pytest.raises(ValueError, match="unknown strategy"):
            EstimatorSpec(strategy)

    def test_bad_shots(self):
        with pytest.raises(ValueError, match="shots"):
            EstimatorSpec("swap", shots=0)


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


    def test_degenerate_probabilities(self):
        rng = np.random.default_rng(42)
        assert sample_fidelity(1.0, "loschmidt", 100, rng) == 1.0
        assert sample_fidelity(0.0, "loschmidt", 100, rng) == 0.0
        assert sample_fidelity(1.0, "swap", 100, rng) == 1.0


class TestFidelityEstimation:
    def test_loschmidt_converges(self):
        a, b = embedded_pair()
        rng = np.random.default_rng(42)
        got = sample_fidelity(fidelity(a, b), "loschmidt", 200000, rng)
        assert got == pytest.approx(fidelity(a, b), abs=0.01)

    def test_swap_converges(self):
        a, b = embedded_pair()
        rng = np.random.default_rng(42)
        got = sample_fidelity(fidelity(a, b), "swap", 200000, rng)
        assert got == pytest.approx(fidelity(a, b), abs=0.01)


def projected_estimate(a, b, strategy, shots, rng, gamma=1.0):
    return projected_estimate_from_bloch(
        bloch_vectors(a), bloch_vectors(b), strategy, shots, rng, gamma
    )


class TestProjectedEstimation:
    def test_bloch_formula_matches_kernel(self):
        a, b = embedded_pair()
        got = projected_kernel_from_bloch_diff(bloch_vectors(a) - bloch_vectors(b), gamma=1.0)
        assert got == pytest.approx(projected_kernel(a, b, gamma=1.0), abs=1e-14)

    def test_gamma_scaling(self):
        a, b = embedded_pair()
        diff = bloch_vectors(a) - bloch_vectors(b)
        k1 = projected_kernel_from_bloch_diff(diff, gamma=1.0)
        k2 = projected_kernel_from_bloch_diff(diff, gamma=2.0)
        assert k2 == pytest.approx(k1 * k1, abs=1e-12)

    @pytest.mark.parametrize("strategy", ["tomography", "local_swap"])
    def test_finite_shot_converges(self, strategy):
        a, b = embedded_pair()
        rng = np.random.default_rng(42)
        want = projected_kernel(a, b, gamma=1.0)
        got = projected_estimate(a, b, strategy, 400000, rng)
        assert got == pytest.approx(want, abs=0.02)

    def test_fidelity_strategies_rejected(self):
        a, b = embedded_pair()
        with pytest.raises(ValueError, match="cannot estimate a projected kernel"):
            projected_estimate(a, b, "swap", 10, np.random.default_rng(42))

    def test_estimates_can_exceed_one(self):
        # identical states have distance 0; unclipped shot noise pushes the
        # estimated squared distance negative about half the time
        a, _ = embedded_pair()
        rng = np.random.default_rng(42)
        ests = [projected_estimate(a, a, "local_swap", 50, rng) for _ in range(200)]
        assert max(ests) > 1.0


class TestBlochTomography:
    def test_components_converge_to_bloch_vectors(self):
        a, _ = embedded_pair()
        got = _pm_one_mean(bloch_vectors(a), 500000, np.random.default_rng(42))
        assert got.shape == (3, 3)
        np.testing.assert_allclose(got, bloch_vectors(a), atol=0.01)


class TestLocalSwap:
    def test_terms_converge(self):
        a, b = embedded_pair()
        ca, cb = bloch_vectors(a), bloch_vectors(b)
        got = _local_swap_from_bloch(ca, cb, 500000, np.random.default_rng(42))
        want = np.stack(
            [
                0.5 * (1.0 + np.sum(ca * ca, axis=1)),
                0.5 * (1.0 + np.sum(cb * cb, axis=1)),
                0.5 * (1.0 + np.sum(ca * cb, axis=1)),
            ],
            axis=1,
        )
        np.testing.assert_allclose(got, want, atol=0.01)
