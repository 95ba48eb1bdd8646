"""Concentration diagnostics: reference constants, scans, expressivity,
entanglement bounds, measurement statistics, and alignment bounds."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats

from qkonc import analysis
from qkonc.analysis import (
    ConcentrationReport,
    beta_haar,
    beta_haar_projected,
    binomial_pvalue,
    bound_entanglement,
    bound_expressivity,
    bound_global_measurement,
    concentration_scan,
    distinguish_success_bound,
    expressivity_epsilon,
    expressivity_from_states,
    gamma_s_from_bloch,
    kta_alignment_constant,
    kta_variance_bound,
    product_ry_moments,
    shots_budget,
    simulate_distinguish,
)
from qkonc.core import (
    computational_basis_state,
    ghz_state,
    haar_random_states,
    trace_norm,
)
from qkonc.embeddings import EmbeddingSpec, embed_batch
from qkonc.kernels import KernelKind, product_bloch_vectors, product_kernel


def haar_twofold_moment(num_qubits: int) -> np.ndarray:
    """Dense reference E_Haar[(psi psi^dag)^(x2)] = (I + SWAP) / (d (d + 1)) on C^d (x) C^d."""
    d = 1 << num_qubits
    swap = np.eye(d * d).reshape(d, d, d, d).transpose(0, 1, 3, 2).reshape(d * d, d * d)
    return (np.eye(d * d) + swap) / (d * (d + 1))


def dense_expressivity(states: np.ndarray, num_qubits: int) -> tuple[float, float]:
    """(value, split-half error) of the plug-in expressivity from the d^2 x d^2
    two-fold moments of the two half samples."""
    m, d = states.shape
    half = m // 2
    phi = np.einsum("mi,mj->mij", states, states).reshape(m, d * d)
    m1 = phi[:half].T @ phi[:half].conj() / half
    m2 = phi[half:].T @ phi[half:].conj() / (m - half)
    value = trace_norm((m1 * half + m2 * (m - half)) / m - haar_twofold_moment(num_qubits))
    return value, 0.5 * trace_norm(m1 - m2)


class TestReferenceConstants:
    def test_beta_haar_frozen_values(self):
        # 2 / (d (d+1)): d=2 -> 1/3, d=4 -> 1/10, d=8 -> 1/36
        assert beta_haar(1) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert beta_haar(2) == pytest.approx(0.1, abs=1e-15)
        assert beta_haar(3) == pytest.approx(1.0 / 36.0, abs=1e-15)

    def test_beta_haar_projected_frozen_values(self):
        # 3 / (2^(n+1) + 2): n=1 -> 1/2, n=2 -> 0.3, n=3 -> 1/6
        assert beta_haar_projected(1) == pytest.approx(0.5, abs=1e-15)
        assert beta_haar_projected(2) == pytest.approx(0.3, abs=1e-15)
        assert beta_haar_projected(3) == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_beta_haar_matches_monte_carlo(self):
        rng = np.random.default_rng(42)
        n, pairs = 2, 40000
        a = haar_random_states(n, pairs, rng)
        b = haar_random_states(n, pairs, rng)
        ov = np.einsum("ij,ij->i", a.conj(), b)
        k2 = (ov.real**2 + ov.imag**2) ** 2
        se = k2.std(ddof=1) / math.sqrt(pairs)
        assert abs(k2.mean() - beta_haar(n)) < 4.0 * se

    def test_product_ry_moments_quadrature(self):
        # per-coordinate integrals of cos^2 and cos^4 of half-differences
        # over a full period: 1/2 and 3/8
        mean, second, var = product_ry_moments(3)
        assert mean == pytest.approx(0.5**3, abs=1e-15)
        assert second == pytest.approx((3.0 / 8.0) ** 3, abs=1e-15)
        assert var == pytest.approx(second - mean * mean, abs=1e-15)

        cos2 = integrate.quad(lambda u: math.cos(0.5 * u) ** 2, 0.0, 2.0 * math.pi)[0]
        cos4 = integrate.quad(lambda u: math.cos(0.5 * u) ** 4, 0.0, 2.0 * math.pi)[0]
        assert cos2 / (2.0 * math.pi) == pytest.approx(0.5, abs=1e-12)
        assert cos4 / (2.0 * math.pi) == pytest.approx(3.0 / 8.0, abs=1e-12)


class TestConcentrationScan:
    def test_tensor_ry_matches_closed_form_moments(self):
        rng = np.random.default_rng(42)
        spec = EmbeddingSpec(3, "tensor_ry")
        rep = concentration_scan(spec, [KernelKind.fidelity()], 200000, rng)[0]
        mean, _, var = product_ry_moments(3)
        assert rep.mean == pytest.approx(mean, abs=4.0 * rep.std_error)
        assert rep.variance == pytest.approx(var, rel=0.05)

    def test_haar_matches_reference_constants(self):
        rng = np.random.default_rng(42)
        spec = EmbeddingSpec(2, "haar")
        rep = concentration_scan(spec, [KernelKind.fidelity()], 200000, rng)[0]
        want_var = beta_haar(2) - 0.25**2
        assert rep.mean == pytest.approx(0.25, abs=4.0 * rep.std_error)
        assert rep.variance == pytest.approx(want_var, rel=0.05)

    def test_shared_pairs_across_kinds(self):
        # both kernels evaluated on the same sampled pairs in one pass
        spec = EmbeddingSpec(2, "hardware_efficient", layers=2)
        kinds = [KernelKind.fidelity(), KernelKind.projected(1.0)]
        r1 = concentration_scan(spec, kinds, 500, np.random.default_rng(7))
        r2 = concentration_scan(spec, kinds, 500, np.random.default_rng(7))
        assert r1[0].mean == r2[0].mean
        assert r1[1].mean == r2[1].mean

    def test_parameterized_spec_at_zero_theta_is_hardware_efficient(self):
        # theta = 0 makes the Ry column the identity; the scan reads theta from the spec
        kinds = [KernelKind.fidelity(), KernelKind.projected(0.7)]
        param = EmbeddingSpec(3, "parameterized", layers=2, theta=np.zeros(3))
        plain = EmbeddingSpec(3, "hardware_efficient", layers=2)
        got = concentration_scan(param, kinds, 300, np.random.default_rng(11))
        want = concentration_scan(plain, kinds, 300, np.random.default_rng(11))
        for a, b in zip(got, want):
            assert a.mean == pytest.approx(b.mean, rel=1e-12, abs=1e-12)
            assert a.variance == pytest.approx(b.variance, rel=1e-12, abs=1e-12)

    def test_chunking_covers_all_requested_pairs(self, monkeypatch):
        # different chunk sizes draw the rng in a different order, so the
        # results are distinct MC estimates of the same moments
        spec = EmbeddingSpec(2, "tensor_ry")
        b = concentration_scan(spec, [KernelKind.fidelity()], 30000, np.random.default_rng(7))[0]
        monkeypatch.setattr(analysis, "_CHUNK_PAIRS", 640)
        a = concentration_scan(spec, [KernelKind.fidelity()], 30000, np.random.default_rng(7))[0]
        assert a.pairs == b.pairs == 30000
        tol = 4.0 * math.hypot(a.std_error, b.std_error)
        assert a.mean == pytest.approx(b.mean, abs=tol)
        assert a.variance == pytest.approx(b.variance, rel=0.1)

    def test_variance_shrinks_with_qubits(self):
        rng = np.random.default_rng(42)
        reps = [
            concentration_scan(
                EmbeddingSpec(n, "tensor_ry"), [KernelKind.fidelity()], 20000, rng
            )[0]
            for n in (2, 4, 6)
        ]
        assert reps[0].variance > reps[1].variance > reps[2].variance

    def test_memory_is_bounded_at_twelve_qubits(self):
        # a whole chunk of 1000 pairs would be 2 x 1000 x 2**12 amplitudes
        # (131 MB); embedded and reduced in row blocks it stays far below
        spec = EmbeddingSpec(12, "hardware_efficient", layers=2)
        kinds = [KernelKind.fidelity(), KernelKind.projected(1.0)]
        tracemalloc.start()
        try:
            reports = concentration_scan(spec, kinds, 1000, np.random.default_rng(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert all(0.0 < r.mean < 1.0 for r in reports)

    def test_haar_memory_is_bounded_at_twelve_qubits(self):
        # a whole chunk of 2000 pairs would be 2 x 2000 x 2**12 amplitudes
        # (262 MB); drawn and reduced in row blocks it stays far below
        spec = EmbeddingSpec(12, "haar")
        kinds = [KernelKind.fidelity(), KernelKind.projected(1.0)]
        tracemalloc.start()
        try:
            reports = concentration_scan(spec, kinds, 2000, np.random.default_rng(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert all(0.0 < r.mean < 1.0 for r in reports)

    @pytest.mark.parametrize("family", ["tensor_ry", "single_layer_rot"])
    def test_product_family_memory_does_not_grow_with_qubits(self, family):
        # past the drawn inputs, a scan holds one block of about 2**14
        # one-qubit states and its Bloch and amplitude arrays, at any n
        kinds = [KernelKind.fidelity(), KernelKind.projected(0.5)]
        pairs = 4096
        for n in (40, 200):
            tracemalloc.start()
            try:
                reports = concentration_scan(EmbeddingSpec(n, family), kinds, pairs, np.random.default_rng(3))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - 2 * pairs * n * 8 < 8 * 2**20, n
            # the blocks cover every pair: the same draws evaluated at once
            rng = np.random.default_rng(3)
            xs, ys = rng.uniform(-math.pi, math.pi, (2, pairs, n))
            fid = product_kernel(xs, ys, family)
            diff = product_bloch_vectors(xs, family) - product_bloch_vectors(ys, family)
            proj = np.exp(-0.25 * np.sum(diff * diff, axis=(1, 2)))
            assert reports[0].mean == pytest.approx(fid.mean(), rel=1e-12, abs=0.0)
            assert reports[1].mean == pytest.approx(proj.mean(), rel=1e-12)
            assert reports[1].variance == pytest.approx(proj.var(ddof=1), rel=1e-12)

    @pytest.mark.parametrize("n", [3, 6, 10])
    def test_haar_fidelity_mean_is_one_over_dimension(self, n):
        # Haar pairs: E[kappa] = 1/d, Var[kappa] = (d - 1) / (d^2 (d + 1));
        # 20000 pairs span several row blocks for n >= 3
        d, pairs = 2**n, 20000
        rep = concentration_scan(EmbeddingSpec(n, "haar"), [KernelKind.fidelity()], pairs, np.random.default_rng(n))[0]
        sigma = math.sqrt((d - 1) / (d * d * (d + 1)) / pairs)
        assert abs(rep.mean - 1.0 / d) < 5.0 * sigma

    def test_needs_two_pairs(self):
        with pytest.raises(ValueError, match="at least 2"):
            concentration_scan(
                EmbeddingSpec(2, "tensor_ry"),
                [KernelKind.fidelity()],
                1,
                np.random.default_rng(7),
            )

    @pytest.mark.parametrize("family", ["tensor_ry", "hardware_efficient"])
    def test_empty_input_interval_is_rejected(self, family):
        # every pair would be identical, and identical pairs are redrawn forever
        with pytest.raises(ValueError, match="empty"):
            concentration_scan(EmbeddingSpec(2, family), [KernelKind.fidelity()], 10, np.random.default_rng(7), 1.0, 1.0)

    def test_haar_ignores_the_input_interval(self):
        rep = concentration_scan(EmbeddingSpec(2, "haar"), [KernelKind.fidelity()], 10, np.random.default_rng(7), 1.0, 1.0)
        assert 0.0 < rep[0].mean < 1.0

    def test_report_std_error(self):
        rep = ConcentrationReport(
            EmbeddingSpec(2, "tensor_ry"), KernelKind.fidelity(), 400, 0.2, 0.04
        )
        assert rep.std_error == pytest.approx(0.01, abs=1e-15)


class TestExpressivity:
    def test_haar_twofold_moment_properties(self):
        v = haar_twofold_moment(2)
        assert v.shape == (16, 16)
        assert np.trace(v) == pytest.approx(1.0, abs=1e-13)
        np.testing.assert_allclose(v, v.T, atol=1e-14)
        # D v is the projector onto the symmetric subspace, of dimension D = 10
        np.testing.assert_allclose(10 * v @ (10 * v), 10 * v, atol=1e-13)
        assert np.linalg.matrix_rank(v) == 10
        psi = haar_random_states(2, 1, np.random.default_rng(0))[0]
        np.testing.assert_allclose(10 * v @ np.kron(psi, psi), np.kron(psi, psi), atol=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("family", ["tensor_ry", "single_layer_rot", "hardware_efficient", "haar"])
    def test_from_states_matches_dense_reference(self, n, family):
        # m = 2 lies below D = d (d + 1) / 2 at every n, 50 below it at n = 4, 300 above it
        rng = np.random.default_rng(n)
        for m in (2, 50, 300):
            if family == "haar":
                states = haar_random_states(n, m, rng)
            else:
                states = embed_batch(EmbeddingSpec(n, family, layers=2), rng.uniform(-math.pi, math.pi, (m, n)))
            est = expressivity_from_states(states, n)
            value, err = dense_expressivity(states, n)
            assert est.value == pytest.approx(value, abs=1e-12)
            assert est.mc_error == pytest.approx(err, abs=1e-12)

    def test_from_states_memory_is_that_of_the_symmetric_subspace(self):
        # the two-fold moments live in D = 528 dimensions at n = 5; the d^2 = 1024
        # dimensional moments of the full space peak at about 72 MiB here
        n, dim = 5, 528
        states = haar_random_states(n, 1000, np.random.default_rng(5))
        tracemalloc.start()
        try:
            est = expressivity_from_states(states, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 16 * dim * dim
        assert 0.0 < est.value < 2.0

    def test_haar_family_expressivity_vanishes(self):
        rng = np.random.default_rng(42)
        est = expressivity_epsilon(EmbeddingSpec(2, "haar"), 60000, rng)
        assert est.value < 0.06
        assert est.mc_error < 0.06

    def test_product_family_has_large_expressivity(self):
        rng = np.random.default_rng(42)
        est = expressivity_epsilon(EmbeddingSpec(2, "tensor_ry"), 40000, rng)
        assert est.value > 0.4

    def test_parameterized_spec_at_zero_theta_is_hardware_efficient(self):
        param = EmbeddingSpec(2, "parameterized", layers=2, theta=np.zeros(2))
        plain = EmbeddingSpec(2, "hardware_efficient", layers=2)
        got = expressivity_epsilon(param, 2000, np.random.default_rng(5))
        want = expressivity_epsilon(plain, 2000, np.random.default_rng(5))
        assert got.value == pytest.approx(want.value, rel=1e-12, abs=1e-12)
        assert got.mc_error == pytest.approx(want.mc_error, rel=1e-12, abs=1e-12)

    def test_split_half_error_shrinks_with_samples(self):
        rng = np.random.default_rng(42)
        spec = EmbeddingSpec(2, "haar")
        small = expressivity_epsilon(spec, 2000, rng)
        large = expressivity_epsilon(spec, 80000, rng)
        assert large.mc_error < small.mc_error

    def test_from_states_exact_single_point(self):
        # all samples equal |0><0|: eps = ||P - V||_1 exactly computable
        n = 1
        states = np.tile(computational_basis_state(n).amplitudes, (512, 1))
        est = expressivity_from_states(states, n)
        proj = np.zeros((4, 4))
        proj[0, 0] = 1.0
        want = trace_norm(proj - haar_twofold_moment(n))
        assert est.value == pytest.approx(want, abs=1e-12)
        assert est.mc_error == pytest.approx(0.0, abs=1e-12)

    def test_dimension_validation(self):
        with pytest.raises(ValueError, match="dimension"):
            expressivity_from_states(np.zeros((10, 8)), 2)

    def test_qubit_cap(self):
        with pytest.raises(ValueError, match="limited"):
            expressivity_epsilon(
                EmbeddingSpec(7, "tensor_ry"), 10, np.random.default_rng(7)
            )


class TestExpressivityBounds:
    def test_fidelity_bound_formula(self):
        b = beta_haar(3)
        want = b + 0.01 * 0.01 + math.sqrt(b) * 0.02
        assert bound_expressivity(3, KernelKind.fidelity(), 0.01) == pytest.approx(
            want, abs=1e-15
        )

    def test_single_ensemble_reduction(self):
        b = beta_haar(2)
        want = b + 0.04**2 + 2.0 * 0.04 * math.sqrt(b)
        assert bound_expressivity(2, KernelKind.fidelity(), 0.04) == pytest.approx(
            want, abs=1e-15
        )

    def test_projected_bound_formula(self):
        want = 2.0 * 1.5 * 4 * (2.0 * beta_haar_projected(4) + 0.02)
        assert bound_expressivity(
            4, KernelKind.projected(1.5), 0.01
        ) == pytest.approx(want, abs=1e-14)

    def test_zero_expressivity_recovers_haar_constants(self):
        assert bound_expressivity(3, KernelKind.fidelity(), 0.0) == pytest.approx(
            beta_haar(3), abs=1e-15
        )
        assert bound_expressivity(3, KernelKind.projected(1.0), 0.0) == pytest.approx(
            4.0 * 3 * beta_haar_projected(3), abs=1e-15
        )

    def test_negative_expressivity_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            bound_expressivity(2, KernelKind.fidelity(), -0.1)

    def test_bound_dominates_scan_variance(self):
        # Haar ensemble: variance of kappa <= beta for every n
        rng = np.random.default_rng(42)
        for n in (1, 2, 3):
            rep = concentration_scan(
                EmbeddingSpec(n, "haar"), [KernelKind.fidelity()], 20000, rng
            )[0]
            assert rep.variance <= beta_haar(n)

    def test_global_measurement_product_bound(self):
        assert bound_global_measurement(3) == pytest.approx((1.0 / 3.0) ** 3, abs=1e-15)
        one = 1.0 / 3.0 + 0.1 * (0.1 + math.sqrt(4.0 / 3.0))
        assert bound_global_measurement(2, 0.1) == pytest.approx(one**2, abs=1e-14)
        with pytest.raises(ValueError, match="nonnegative"):
            bound_global_measurement(2, -0.5)


class TestEntanglementBound:
    def test_ghz_saturates_at_zero(self):
        # GHZ reduces to maximally mixed on every qubit: bound and deviation 0
        eb = bound_entanglement(ghz_state(3), ghz_state(3))
        assert eb.bound == pytest.approx(0.0, abs=1e-12)
        assert eb.deviation == pytest.approx(0.0, abs=1e-12)

    def test_bound_dominates_deviation_for_embeddings(self):
        from qkonc.embeddings import embed

        rng = np.random.default_rng(42)
        spec = EmbeddingSpec(3, "hardware_efficient", layers=3)
        for _ in range(10):
            x, y = rng.uniform(-np.pi, np.pi, (2, 3))
            eb = bound_entanglement(embed(spec, x), embed(spec, y), gamma=1.0)
            assert eb.deviation <= eb.bound + 1e-12

    def test_gamma_s_pure_product_value(self):
        # pure single-qubit states have S(rho_k || 1/2) = 1 bit
        ca = np.array([[0.0, 0.0, 1.0]])
        cb = np.array([[1.0, 0.0, 0.0]])
        assert gamma_s_from_bloch(ca, cb) == pytest.approx(4.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="different qubit counts"):
            bound_entanglement(ghz_state(2), ghz_state(3))


class TestMeasurementStatistics:
    def test_binomial_pvalue_exact_hand_case(self):
        # two-sided exact test, 8 successes in 10 at p = 1/2:
        # P(|X - 5| >= 3) = 2 * (C(10,8)+C(10,9)+C(10,10)) / 2^10 = 112/1024
        assert binomial_pvalue(8, 10, 0.5) == pytest.approx(112.0 / 1024.0, abs=1e-12)

    def test_binomial_pvalue_matches_scipy(self):
        assert binomial_pvalue(130, 400, 0.3) == pytest.approx(
            float(stats.binomtest(130, 400, 0.3).pvalue), abs=1e-15
        )

    def test_distinguish_bound_formula(self):
        assert distinguish_success_bound(100, 0.004) == pytest.approx(0.7, abs=1e-15)
        assert distinguish_success_bound(10**6, 0.5) == 1.0

    def test_simulate_distinguish_zero_gap_is_coin_flip(self):
        rng = np.random.default_rng(42)
        rate = simulate_distinguish(100, 0.0, 40000, rng)
        assert rate == pytest.approx(0.5, abs=0.01)

    def test_simulate_distinguish_respects_bound(self):
        rng = np.random.default_rng(42)
        for shots, eps in ((50, 0.004), (200, 0.002)):
            rate = simulate_distinguish(shots, eps, 20000, rng)
            assert rate <= distinguish_success_bound(shots, eps) + 0.01

    def test_simulate_distinguish_large_gap_succeeds(self):
        rng = np.random.default_rng(42)
        rate = simulate_distinguish(200, 0.3, 5000, rng)
        assert rate > 0.95

    def test_simulate_distinguish_validates_probabilities(self):
        with pytest.raises(ValueError, match="probability"):
            simulate_distinguish(10, 0.7, 10, np.random.default_rng(7))


class TestShotsBudget:
    def test_frozen_reference_value(self):
        # variance 2^-4, unit precision, 5% failure: ceil(2 ln 40 * 16) = 119
        assert shots_budget(2.0**-4) == 119

    def test_haar_budget_at_moderate_width(self):
        # Haar fidelity-kernel variance at n = 4: beta - 1/d^2 = 0.0034467,
        # so ceil(2 ln 40 / var) = 2141
        var = beta_haar(4) - (1.0 / 16.0) ** 2
        assert shots_budget(var) == 2141

    def test_exponential_growth_in_qubits(self):
        budgets = [
            shots_budget(beta_haar(n) - 0.25**n) for n in (2, 4, 6, 8)
        ]
        assert budgets == sorted(budgets)
        assert budgets[-1] > 100 * budgets[0]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            shots_budget(0.0)
        with pytest.raises(ValueError):
            shots_budget(0.1, precision=0.0)
        with pytest.raises(ValueError):
            shots_budget(0.1, fail_prob=1.5)


class TestAlignmentConstants:
    def test_frozen_values_at_ten_samples(self):
        assert kta_alignment_constant(10, "statement") == pytest.approx(
            18625.2, abs=1e-9
        )
        assert kta_alignment_constant(10, "proof") == pytest.approx(1862.7, abs=1e-9)

    def test_frozen_values_at_two_samples(self):
        # (8 + 8 (9 + 16)) / 8 = 26 and (8 + 4 (9 + 16)) / 8 = 13.5
        assert kta_alignment_constant(2, "statement") == pytest.approx(26.0, abs=1e-12)
        assert kta_alignment_constant(2, "proof") == pytest.approx(13.5, abs=1e-12)

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown variant"):
            kta_alignment_constant(4, "appendix")

    def test_variance_bound_is_linear_in_summed_variances(self):
        vars_ = np.full((3, 3), 1e-4)
        want = kta_alignment_constant(3) * 9e-4
        assert kta_variance_bound(vars_, 3) == pytest.approx(want, rel=1e-12)
