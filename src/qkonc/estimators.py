"""Finite-shot estimators for kernel values.

All estimators are distribution-level simulations of the measurement
statistics (no circuit-level shot simulation): the exact outcome
probabilities are computed from the states, then outcomes are drawn from the
corresponding Bernoulli/binomial laws. Exact kernel values take no
estimator: pass ``estimator=None``.

Strategies:

* ``loschmidt``   -- measure |<psi(x)|psi(x')>|^2 as the probability of the
                     all-zeros outcome; outcomes in {1, 0}, estimate is the
                     fraction of 1s. Unbiased for the fidelity kernel.
* ``swap``        -- destructive swap test; outcomes in {-1, +1} with
                     p(+1) = (1 + kappa)/2, estimate is the mean. Unbiased.
* ``tomography``  -- estimate every single-qubit Bloch component of both
                     states with ``shots`` shots each, afresh for every
                     kernel entry (2 * 3 n shot sets per entry), plug into
                     the projected kernel. Biased upward in the squared
                     distances by the component variances; no correction and
                     no clipping is applied, so estimates can exceed 1.
* ``local_swap``  -- estimate each reduced 2-norm distance from three swap
                     tests (two purities and one overlap). Same caveats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# strategy -> the kernel variant it estimates
STRATEGY_KERNELS = {"loschmidt": "fidelity", "swap": "fidelity", "tomography": "projected", "local_swap": "projected"}
STRATEGIES = tuple(STRATEGY_KERNELS)


@dataclass(frozen=True)
class EstimatorSpec:
    strategy: str
    shots: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}, expected one of {STRATEGIES}"
            )
        if self.shots < 1:
            raise ValueError("shots must be >= 1")


def _check_prob(p, what: str) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    bad = ~((p >= -1e-12) & (p <= 1.0 + 1e-12))
    if bad.any():
        raise ValueError(f"{what} = {float(p[bad][0])!r} is not a probability")
    return np.clip(p, 0.0, 1.0)


def _pm_one_mean(e, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Mean of ``shots`` outcomes in {-1, +1} whose expectation is ``e``,
    clipped to [-1, 1]: 2 binomial(shots, (1 + e)/2) / shots - 1 per entry."""
    p = 0.5 * (1.0 + np.clip(e, -1.0, 1.0))
    return 2.0 * rng.binomial(shots, p) / shots - 1.0


def sample_fidelity(kappa, strategy: str, shots: int, rng: np.random.Generator) -> np.ndarray:
    """One independent ``shots``-shot estimate per entry of an array of fidelity
    kernel values, drawn as binomial counts: ``loschmidt`` counts all-zeros
    outcomes of probability kappa, ``swap`` counts +1 outcomes of probability
    (1 + kappa)/2."""
    kappa = np.asarray(kappa, dtype=np.float64)
    if strategy == "loschmidt":
        return rng.binomial(shots, _check_prob(kappa, "kappa")) / shots
    if strategy == "swap":
        _check_prob(0.5 * (1.0 + kappa), "(1+kappa)/2")
        return _pm_one_mean(kappa, shots, rng)
    raise ValueError(f"strategy {strategy!r} cannot estimate a fidelity kernel")


# ---------------------------------------------------------------------------
# projected-kernel estimators (work on per-qubit Bloch vectors)
# ---------------------------------------------------------------------------


def _local_swap_from_bloch(
    ca: np.ndarray, cb: np.ndarray, shots: int, rng: np.random.Generator
) -> np.ndarray:
    """Estimated per-qubit swap-test terms [purity(a), purity(b), overlap], shape (..., n, 3)."""
    # Reduced single-qubit states: Tr[rho^2] = (1+|c|^2)/2, Tr[rho rho'] = (1+c.c')/2.
    vals = np.stack(
        [
            0.5 * (1.0 + np.sum(ca * ca, axis=-1)),
            0.5 * (1.0 + np.sum(cb * cb, axis=-1)),
            0.5 * (1.0 + np.sum(ca * cb, axis=-1)),
        ],
        axis=-1,
    )
    return _pm_one_mean(vals, shots, rng)


def projected_kernel_from_bloch_diff(diff: np.ndarray, gamma: float = 1.0) -> np.ndarray:
    """exp(-gamma sum_k ||rho_k(a) - rho_k(b)||_2^2) from ``diff``, the (..., n, 3)
    difference of two states' Bloch arrays: each term is half its squared row."""
    return np.exp(-gamma * 0.5 * np.sum(diff * diff, axis=(-2, -1)))


def projected_estimate_from_bloch(
    ca: np.ndarray,
    cb: np.ndarray,
    strategy: str,
    shots: int,
    rng: np.random.Generator,
    gamma: float = 1.0,
) -> np.ndarray:
    """Projected-kernel estimate given both states' (n, 3) Bloch arrays.

    ``cb`` may carry a leading entry axis, (k, n, 3): then ``ca`` is paired
    with each of the k states, every pair is an independent estimator run,
    and k estimates are returned.

    Negative estimated squared distances are exponentiated as-is (no
    clipping), so finite-shot estimates can exceed 1.
    """
    ca = np.broadcast_to(ca, cb.shape)
    if strategy == "tomography":  # each Bloch component from ``shots`` single-component measurements
        ea = _pm_one_mean(ca, shots, rng)
        eb = _pm_one_mean(cb, shots, rng)
        return projected_kernel_from_bloch_diff(ea - eb, gamma)
    if strategy != "local_swap":
        raise ValueError(f"strategy {strategy!r} cannot estimate a projected kernel")
    t = _local_swap_from_bloch(ca, cb, shots, rng)
    return np.exp(-gamma * np.sum(t[..., 0] + t[..., 1] - 2.0 * t[..., 2], axis=-1))
