"""End-to-end acceptance checks.

Each test verifies one headline property of the toolkit at desk scale and
prints a single PASS line with the measured numbers. Tolerances, sample
counts, and seeds are fixed; reruns are deterministic.
"""

import math

import numpy as np
from scipy import optimize, stats

from qkonc.analysis import (
    beta_haar,
    binomial_pvalue,
    bound_entanglement,
    bound_expressivity,
    concentration_scan,
    distinguish_success_bound,
    expressivity_from_states,
    kta_variance_bound,
    product_ry_moments,
    simulate_distinguish,
)
from qkonc.core import (
    Gate,
    StateVector,
    apply_gate,
    computational_basis_state,
    ghz_state,
    haar_random_states,
    maximally_mixed,
    reduce_to_qubit,
    schatten2_distance,
    trace_norm,
)
from qkonc.datasets import gen_hypercube
from qkonc.embeddings import EmbeddingSpec, embed_batch
from qkonc.estimators import EstimatorSpec
from qkonc.kernels import KernelKind, gram, projected_kernel
from qkonc.learning import (
    TrainedModel,
    generalization_experiment,
    krr_fit,
    kta_variance_over_theta,
    predict,
)
from qkonc.noise import PauliNoiseParams, noise_bounds, noisy_embed
from qkonc import _accel


def rng_for(*key):
    return np.random.default_rng(np.random.SeedSequence(key))


def test_product_kernel_moments_match_closed_form():
    """Product-Ry kernel over full-period data: mean 2^-n and variance
    (3/8)^n - (1/4)^n, both within 5% relative at 1e5 pairs, n = 2..10."""
    worst_mean = worst_var = 0.0
    for n in range(2, 11):
        rep = concentration_scan(
            EmbeddingSpec(n, "tensor_ry"),
            [KernelKind.fidelity()],
            100_000,
            rng_for(1, n),
        )[0]
        mean, _, var = product_ry_moments(n)
        rel_mean = abs(rep.mean - mean) / mean
        rel_var = abs(rep.variance - var) / var
        worst_mean = max(worst_mean, rel_mean)
        worst_var = max(worst_var, rel_var)
        assert rel_mean < 0.05, f"n={n}: mean off by {rel_mean:.3%}"
        assert rel_var < 0.05, f"n={n}: variance off by {rel_var:.3%}"
    print(
        f"PASS product-kernel moments: n=2..10, 1e5 pairs, "
        f"worst |mean| dev {worst_mean:.2%}, worst |var| dev {worst_var:.2%} (< 5%)"
    )


def test_haar_ensemble_variance_bound():
    """Haar-random embeddings: Var(kappa) <= 2/(d(d+1)) and mean within
    3 MC standard errors of 1/d, n = 2..6 at 1e5 pairs."""
    margins = []
    for n in range(2, 7):
        rep = concentration_scan(
            EmbeddingSpec(n, "haar"),
            [KernelKind.fidelity()],
            100_000,
            rng_for(42, n),
        )[0]
        cap = beta_haar(n)
        assert rep.variance <= cap, f"n={n}: {rep.variance} > {cap}"
        dev = abs(rep.mean - 0.5**n)
        assert dev <= 3.0 * rep.std_error, f"n={n}: mean off by {dev}"
        margins.append(rep.variance / cap)
    print(
        f"PASS haar variance bound: n=2..6, Var/bound in "
        f"[{min(margins):.3f}, {max(margins):.3f}] (<= 1), means within 3 SE of 1/2^n"
    )


def test_expressivity_bound_and_monotone_approach_to_haar():
    """Layered embeddings on [0, pi] inputs: the sampled-moment distance to
    the Haar moment shrinks strictly with depth L in {1, 4, 16, 64}, and the
    kernel variance never exceeds the bound built from eps-hat + 3 MC errors
    (both kernel types), n in {2, 3, 4}."""
    layer_grid = (1, 4, 16, 64)
    eps_last = {}
    for n in (2, 3, 4):
        rng = rng_for(42, n)
        xs = rng.uniform(0.0, math.pi, (4000, n))
        eps_by_layer = []
        for layers in layer_grid:
            spec = EmbeddingSpec(n, "hardware_efficient", layers=layers)
            states = embed_batch(spec, xs)
            est = expressivity_from_states(states, n)
            eps_plus = est.value + 3.0 * est.mc_error
            a, b = states[:2000], states[2000:]
            kf = _accel.pair_absq(a, b)
            ca = _accel.bloch_batch(a, n)
            cb = _accel.bloch_batch(b, n)
            kp = np.exp(-0.5 * np.sum((ca - cb) ** 2, axis=(1, 2)))
            var_f = float(kf.var(ddof=1))
            var_p = float(kp.var(ddof=1))
            bound_f = bound_expressivity(n, KernelKind.fidelity(), eps_plus)
            bound_p = bound_expressivity(n, KernelKind.projected(1.0), eps_plus)
            assert var_f <= bound_f, f"n={n} L={layers}: {var_f} > {bound_f}"
            assert var_p <= bound_p, f"n={n} L={layers}: {var_p} > {bound_p}"
            eps_by_layer.append(est.value)
        for prev, nxt in zip(eps_by_layer, eps_by_layer[1:]):
            assert nxt < prev, f"n={n}: eps sequence {eps_by_layer} not decreasing"
        eps_last[n] = eps_by_layer
    seq = ", ".join(f"n={n}: " + "->".join(f"{e:.3f}" for e in eps_last[n]) for n in eps_last)
    print(
        f"PASS expressivity: eps strictly decreasing over L=1,4,16,64 ({seq}); "
        f"variance <= bound(eps+3MCerr) for both kernels"
    )


def test_entanglement_bound_pointwise_and_mixed_reduction_limit():
    """Projected-kernel deviation bound holds pointwise on 1000 Haar pairs per
    n in 2..5 (slack 1e-9); states whose every reduced qubit sits within 1e-6
    of maximally mixed have |1 - kappa| <= 1e-5 * n."""
    worst = -math.inf
    for n in (2, 3, 4, 5):
        rng = rng_for(7, n)
        batch = haar_random_states(n, 2000, rng)
        for i in range(1000):
            a = StateVector(n, batch[i])
            b = StateVector(n, batch[1000 + i])
            eb = bound_entanglement(a, b, gamma=1.0)
            assert eb.deviation <= eb.bound + 1e-9
            worst = max(worst, eb.deviation - eb.bound)

    # near-maximally-mixed reductions: entangled states built from a
    # GHZ state by local phase / tiny-rotation edits
    near_mixed_worst = 0.0
    for n in (2, 3, 4, 5):
        base = ghz_state(n)
        variants = [
            base,
            apply_gate(base, Gate.rz(0.7, 0)),
            apply_gate(base, Gate.ry(1e-3, 0)),
        ]
        mixed1 = maximally_mixed(1)
        for v in variants:
            for k in range(n):
                assert schatten2_distance(reduce_to_qubit(v, k), mixed1) <= 1e-6
        for i in range(len(variants)):
            for j in range(i + 1, len(variants)):
                dev = abs(1.0 - projected_kernel(variants[i], variants[j], gamma=1.0))
                assert dev <= 1e-5 * n
                near_mixed_worst = max(near_mixed_worst, dev / (1e-5 * n))
    print(
        f"PASS entanglement bound: 4000 Haar pairs pointwise "
        f"(worst dev-bound {worst:.3f} <= 0); near-mixed reductions give "
        f"|1-kappa| <= 1e-5*n (worst fraction {near_mixed_worst:.2e})"
    )


def test_noise_decay_bounds_and_geometric_rate():
    """Layerwise Pauli noise at n=4: state and kernel deviations stay inside
    the q-power bounds for L = 1..30 (slack 1e-9), and the average per-layer
    decay factor of the fidelity-kernel deviation is at most q^2 + 0.01."""
    n, num_pairs = 4, 8
    mixed = maximally_mixed(n)
    ratios = {}
    for qi, q in enumerate((0.90, 0.95, 0.98)):
        params = PauliNoiseParams(q, q, q)
        rng = rng_for(42, qi)
        pairs = [
            (rng.uniform(-math.pi, math.pi, n), rng.uniform(-math.pi, math.pi, n))
            for _ in range(num_pairs)
        ]
        devs = []
        for layers in range(1, 31):
            spec = EmbeddingSpec(n, "hardware_efficient", layers=layers)
            bnd = noise_bounds(params, n, layers, gamma=1.0)
            fdev = 0.0
            for x, y in pairs:
                ra = noisy_embed(spec, x, params)
                rb = noisy_embed(spec, y, params)
                kf = float(np.einsum("ij,ji->", ra.matrix, rb.matrix).real)
                assert abs(kf - bnd.fidelity_mean) <= bnd.fidelity_deviation + 1e-9
                d = 0.0
                for k in range(n):
                    diff = reduce_to_qubit(ra, k).matrix - reduce_to_qubit(rb, k).matrix
                    d += float(np.sum(diff.real**2 + diff.imag**2))
                kp = math.exp(-d)
                assert abs(1.0 - kp) <= bnd.projected_deviation + 1e-9
                for rho in (ra, rb):
                    assert (
                        schatten2_distance(rho, mixed) <= bnd.state_distance + 1e-9
                    )
                fdev += abs(kf - bnd.fidelity_mean)
            devs.append(fdev / num_pairs)
        ratio = (devs[-1] / devs[0]) ** (1.0 / 29.0)
        assert ratio <= q * q + 0.01, f"q={q}: decay factor {ratio:.4f}"
        ratios[q] = ratio
    pretty = ", ".join(f"q={q}: {r:.3f}<={q * q + 0.01:.3f}" for q, r in ratios.items())
    print(f"PASS noise decay: all bounds pointwise (L=1..30), per-layer factors {pretty}")


def test_shot_estimated_gram_collapses_to_identity():
    """40-qubit product kernel, 25 points, 1000 overlap shots per entry: the
    estimated Gram equals the identity in at least 99 of 100 seeded runs, the
    survival of measured zeros barely moves with shots at n=40 but falls
    at n=20, and the shot count needed to push the expected zero fraction
    to 0.75 at least doubles per added qubit on n = 6..14."""
    spec = EmbeddingSpec(40, "tensor_ry")
    identity_runs = 0
    eye = np.eye(25)
    for trial in range(100):
        xs = rng_for(42, trial).uniform(-math.pi, math.pi, (25, 40))
        g = gram(
            spec,
            xs,
            KernelKind.fidelity(),
            EstimatorSpec("loschmidt", shots=1000, seed=trial),
        )
        if np.array_equal(g.matrix, eye):
            identity_runs += 1
    assert identity_runs >= 99

    # common-random-number pairs: per-coordinate factors multiply in, so
    # kernels shrink pointwise as qubits are added
    deltas = rng_for(42, 1).uniform(-math.pi, math.pi, (4000, 40))
    factors = np.cos(0.5 * deltas) ** 2

    def zero_fraction(num_qubits, shots):
        kappa = np.prod(factors[:, :num_qubits], axis=1)
        return float(np.mean(np.exp(shots * np.log1p(-kappa))))

    drop20 = zero_fraction(20, 1_000) - zero_fraction(20, 2_000_000)
    drop40 = zero_fraction(40, 1_000) - zero_fraction(40, 2_000_000)
    assert drop20 > 0.01, f"n=20 zero fraction only moved by {drop20}"
    assert drop40 < 1e-4, f"n=40 zero fraction moved by {drop40}"

    def shots_to_75(num_qubits):
        kappa = np.prod(factors[:, :num_qubits], axis=1)
        f = lambda s: float(np.mean(np.exp(s * np.log1p(-kappa)))) - 0.75
        return optimize.brentq(f, 1.0, 1e9, xtol=1e-6, rtol=1e-12)

    budget = [shots_to_75(n) for n in range(6, 15)]
    growth = [b / a for a, b in zip(budget, budget[1:])]
    assert all(g >= 2.0 for g in growth), f"growth factors {growth}"
    print(
        f"PASS estimated-Gram identity: {identity_runs}/100 runs gave exactly 1;"
        f" zero-fraction drop n=20: {drop20:.4f} vs n=40: {drop40:.2e};"
        f" shots-to-0.75 growth/qubit in [{min(growth):.2f}, {max(growth):.2f}] (>= 2)"
    )


def test_swap_test_rejection_rate_decays_with_qubits():
    """Exact two-sided binomial test at 1e4 swap-test shots, level 0.01:
    the probability of rejecting the fully-mixed null is nonincreasing in the
    qubit count over n = 6..20 and is at most 0.05 at n = 20."""
    shots = 10_000
    half = shots // 2
    m_star = next(
        m for m in range(100, 200) if binomial_pvalue(half + m, shots, 0.5) < 0.01
    )

    def rejection_probability(kappa):
        p = 0.5 * (1.0 + kappa)
        return stats.binom.sf(half + m_star - 1, shots, p) + stats.binom.cdf(
            half - m_star, shots, p
        )

    deltas = rng_for(42, 2).uniform(-math.pi, math.pi, (2000, 20))
    factors = np.cos(0.5 * deltas) ** 2
    rates = []
    for n in range(6, 21):
        kappa = np.prod(factors[:, :n], axis=1)
        rates.append(float(np.mean(rejection_probability(kappa))))
    for prev, nxt in zip(rates, rates[1:]):
        assert nxt <= prev + 1e-12, f"rates not nonincreasing: {rates}"
    assert rates[-1] <= 0.05
    print(
        f"PASS swap-test power decay: critical offset {m_star}, rejection rate "
        f"{rates[0]:.3f} (n=6) -> {rates[-1]:.4f} (n=20) nonincreasing, final <= 0.05"
    )


def test_identity_gram_ridge_solution_is_exact():
    """A Gram matrix estimated as the identity gives ridge coefficients
    y/(1 - lambda) exactly, and all-zero test kernel estimates give
    predictions exactly 0."""
    y = np.array([1.0, -0.5, 0.25, 2.0, -1.25])
    for lam in (0.0, 0.3):
        fit = krr_fit(np.eye(5), y, lam=lam, sign="minus")
        assert np.array_equal(fit.coefficients, y / (1.0 - lam)), f"lam={lam}"

    # 40-qubit product kernel: every overlap estimate is 0 almost surely
    xs = rng_for(8).uniform(-math.pi, math.pi, (5, 40))
    model = TrainedModel(
        spec=EmbeddingSpec(40, "tensor_ry"),
        kind=KernelKind.fidelity(),
        algorithm="krr",
        anchors=xs,
        coefficients=y,
    )
    new = rng_for(9).uniform(-math.pi, math.pi, (3, 40))
    preds = predict(model, new, EstimatorSpec("loschmidt", shots=1000, seed=0))
    assert np.array_equal(preds, np.zeros(3))
    print(
        "PASS identity-Gram ridge: coefficients == y/(1-lambda) for lambda in {0, 0.3}; "
        "all-zero kernel estimates predict exactly 0"
    )


def test_train_size_scan_flat_for_shot_estimated_kernel():
    """40-qubit regression with engineered labels: the exact-kernel test loss
    collapses with training size (ratio far below 0.5 by 150 points) while the
    1000-shot estimated kernel never improves (ratio exactly 1); training
    residuals vanish in every arm at lambda = 0."""
    rng = np.random.default_rng(42)
    results = [generalization_experiment(rng) for _ in range(10)]
    loss_exact = np.vstack([res.loss_exact for res in results])
    loss_est = np.vstack([res.loss_estimated for res in results])
    # per-size loss ratio to the first size, averaged over the 10 repeats
    eta_exact = np.mean(loss_exact / loss_exact[:, :1], axis=0)
    eta_est = np.mean(loss_est / loss_est[:, :1], axis=0)
    assert eta_exact[-1] < 0.5, f"exact-arm final ratio {eta_exact[-1]}"
    assert np.all(eta_est == 1.0), f"estimated-arm ratios {eta_est}"
    train_worst = max(
        max(float(res.train_error_exact.max()), float(res.train_error_estimated.max())) for res in results
    )
    assert train_worst <= 1e-8
    print(
        f"PASS train-size scan: exact-arm loss ratio at 150 points "
        f"{eta_exact[-1]:.2e} (< 0.5), estimated-arm ratio == 1 everywhere, "
        f"max train residual {train_worst:.2e}"
    )


def test_alignment_variance_bound_and_decay():
    """Alignment variability over 500 random parameter vectors, 10-point
    hypercube data: each draw obeys the summed-kernel-variance bound, and the
    dataset-averaged variance falls with qubit count two steps apart
    (n = 2..6, 12 dataset draws)."""
    draws = 12
    mean_var = {}
    for n in range(2, 7):
        spec = EmbeddingSpec(n, "parameterized", layers=1)
        vals = []
        for d in range(draws):
            rng = rng_for(5, n, d)
            ds = gen_hypercube(10, n, rng)
            scan = kta_variance_over_theta(spec, ds.inputs, ds.labels, 500, rng)
            cap = kta_variance_bound(scan.kernel_variances, 10, "statement")
            assert scan.ta_variance <= cap, f"n={n} draw {d}: {scan.ta_variance} > {cap}"
            vals.append(scan.ta_variance)
        mean_var[n] = float(np.mean(vals))
    ratios = {n: mean_var[n + 2] / mean_var[n] for n in (2, 3, 4)}
    for n, r in ratios.items():
        assert r < 1.0, f"Var({n + 2})/Var({n}) = {r}"
    pretty = ", ".join(f"{n + 2}/{n}: {r:.3f}" for n, r in ratios.items())
    print(
        f"PASS alignment variance: per-draw bound holds (60 draws); "
        f"dataset-averaged decay ratios {pretty} (all < 1)"
    )


def test_decision_success_bound_and_helstrom():
    """Likelihood-ratio discrimination of (1/2, 1/2) vs (1/2 + eps, ...) never
    beats 1/2 + N|eps|/2 by more than 3 MC standard errors on a
    (N, eps) grid at 1e5 trials; the single-copy optimal success for
    orthogonal pure states is exactly 1."""
    rng = rng_for(13)
    trials = 100_000
    se3 = 3.0 * math.sqrt(0.25 / trials)
    worst = -math.inf
    for shots in (1, 10, 100):
        for eps in (0.0, 0.01, 0.1):
            success = simulate_distinguish(shots, eps, trials, rng)
            cap = distinguish_success_bound(shots, eps) + se3
            assert success <= cap, f"N={shots} eps={eps}: {success} > {cap}"
            worst = max(worst, success - cap)
    # Helstrom: the optimal single-copy success is 1/2 + ||rho_a - rho_b||_1 / 4
    a = computational_basis_state(1, 0).amplitudes
    b = computational_basis_state(1, 1).amplitudes
    helstrom = 0.5 + trace_norm(np.outer(a, a.conj()) - np.outer(b, b.conj())) / 4.0
    assert helstrom == 1.0
    print(
        f"PASS decision bounds: grid N in (1,10,100) x eps in (0,0.01,0.1), "
        f"worst success-(bound+3SE) = {worst:.4f} (<= 0); orthogonal-state "
        f"optimum exactly 1.0"
    )
