"""Finite-shot estimators for kernel values.

All estimators are distribution-level simulations of the measurement
statistics (no circuit-level shot simulation): the exact outcome
probabilities are computed from the states, then outcomes are drawn from the
corresponding Bernoulli/binomial laws.

Strategies:

* ``loschmidt``   -- measure |<psi(x)|psi(x')>|^2 as the probability of the
                     all-zeros outcome; outcomes in {1, 0}, estimate is the
                     fraction of 1s. Unbiased for the fidelity kernel.
* ``swap``        -- destructive swap test; outcomes in {-1, +1} with
                     p(+1) = (1 + kappa)/2, estimate is the mean. Unbiased.
* ``tomography``  -- estimate every single-qubit Bloch component with
                     ``shots`` shots each (3 n shots-sets per state), plug
                     into the projected kernel. Biased upward in the squared
                     distances by the component variances; no correction and
                     no clipping is applied, so estimates can exceed 1.
* ``local_swap``  -- estimate each reduced 2-norm distance from three swap
                     tests (two purities and one overlap). Same caveats.
* ``exact``       -- no sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import StateVector, bloch_vectors, fidelity

STRATEGIES = ("exact", "loschmidt", "swap", "tomography", "local_swap")


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
        if self.strategy != "exact" and self.shots < 1:
            raise ValueError("shots must be >= 1")


@dataclass(frozen=True, eq=False)
class ShotRecord:
    """Raw outcomes of one estimator run; ``estimate`` is their mean."""

    strategy: str
    outcomes: np.ndarray
    estimate: float

    @property
    def shots(self) -> int:
        return int(self.outcomes.shape[0])

    def successes(self) -> int:
        """Number of favorable outcomes (+1 for +-1-valued, 1 for binary)."""
        return int(np.sum(self.outcomes == 1))


def _check_prob(p, what: str) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    bad = ~((p >= -1e-12) & (p <= 1.0 + 1e-12))
    if bad.any():
        raise ValueError(f"{what} = {float(p[bad][0])!r} is not a probability")
    return np.clip(p, 0.0, 1.0)


def loschmidt_record(kappa: float, shots: int, rng: np.random.Generator) -> ShotRecord:
    """Bernoulli(kappa) outcomes in {1, 0} for a known kernel value."""
    p = _check_prob(kappa, "kappa")
    outcomes = (rng.random(shots) < p).astype(np.int8)
    return ShotRecord("loschmidt", outcomes, float(outcomes.mean()))


def swap_record(kappa: float, shots: int, rng: np.random.Generator) -> ShotRecord:
    """Swap-test outcomes in {-1, +1} with p(+1) = (1 + kappa)/2."""
    p = _check_prob(0.5 * (1.0 + kappa), "(1+kappa)/2")
    outcomes = np.where(rng.random(shots) < p, 1, -1).astype(np.int8)
    return ShotRecord("swap", outcomes, float(outcomes.mean()))


def sample_fidelity(kappa, strategy: str, shots: int, rng: np.random.Generator) -> np.ndarray:
    """One independent ``shots``-shot estimate per entry of an array of fidelity
    kernel values: the laws of ``loschmidt_record`` and ``swap_record``, drawn as
    binomial counts without materializing the outcomes."""
    kappa = np.asarray(kappa, dtype=np.float64)
    if strategy == "loschmidt":
        return rng.binomial(shots, _check_prob(kappa, "kappa")) / shots
    if strategy == "swap":
        p = _check_prob(0.5 * (1.0 + kappa), "(1+kappa)/2")
        return 2.0 * rng.binomial(shots, p) / shots - 1.0
    raise ValueError(f"strategy {strategy!r} cannot estimate a fidelity kernel")


def pauli_expectation_record(
    mean_value: float, shots: int, rng: np.random.Generator
) -> ShotRecord:
    """+-1 outcomes of a two-outcome observable with the given expectation."""
    p = _check_prob(0.5 * (1.0 + mean_value), "(1+m)/2")
    outcomes = np.where(rng.random(shots) < p, 1, -1).astype(np.int8)
    return ShotRecord("pauli", outcomes, float(outcomes.mean()))


def estimate_loschmidt(
    a: StateVector, b: StateVector, shots: int, rng: np.random.Generator
) -> ShotRecord:
    return loschmidt_record(fidelity(a, b), shots, rng)


def estimate_swap(
    a: StateVector, b: StateVector, shots: int, rng: np.random.Generator
) -> ShotRecord:
    return swap_record(fidelity(a, b), shots, rng)


def sample_rand_kappa(shots: int, rng: np.random.Generator) -> ShotRecord:
    """Fair random guessing baseline: +-1 with p(+1) = 1/2 (mean 0)."""
    outcomes = np.where(rng.random(shots) < 0.5, 1, -1).astype(np.int8)
    return ShotRecord("rand", outcomes, float(outcomes.mean()))


def sample_biased_rand_kappa(shots: int, rng: np.random.Generator) -> ShotRecord:
    """Biased guessing baseline: +-1 with p(+1) = 3/4 (mean 1/2, var 3/(4 shots))."""
    outcomes = np.where(rng.random(shots) < 0.75, 1, -1).astype(np.int8)
    return ShotRecord("biased_rand", outcomes, float(outcomes.mean()))


# ---------------------------------------------------------------------------
# projected-kernel estimators (work on per-qubit Bloch vectors)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BlochTomography:
    """Per-qubit Bloch component estimates; counts[..., k, s] = #(+1) outcomes."""

    components: np.ndarray  # (..., n, 3) estimated <X>, <Y>, <Z> per qubit
    counts: np.ndarray  # (..., n, 3) ints
    shots: int


@dataclass(frozen=True, eq=False)
class LocalSwapEstimate:
    """Per-qubit swap-test terms [purity(a), purity(b), overlap], plus counts."""

    terms: np.ndarray  # (..., n, 3)
    counts: np.ndarray  # (..., n, 3) ints
    shots: int


def _tomography_from_bloch(
    c: np.ndarray, shots: int, rng: np.random.Generator
) -> BlochTomography:
    p = 0.5 * (1.0 + np.clip(c, -1.0, 1.0))
    counts = rng.binomial(shots, p)
    est = 2.0 * counts / shots - 1.0
    return BlochTomography(est, counts, shots)


def estimate_bloch_tomography(
    state: StateVector, shots: int, rng: np.random.Generator
) -> BlochTomography:
    """Tomograph all single-qubit Bloch components, ``shots`` per component."""
    return _tomography_from_bloch(bloch_vectors(state), shots, rng)


def _local_swap_from_bloch(
    ca: np.ndarray, cb: np.ndarray, shots: int, rng: np.random.Generator
) -> LocalSwapEstimate:
    # Reduced single-qubit states: Tr[rho^2] = (1+|c|^2)/2, Tr[rho rho'] = (1+c.c')/2.
    vals = np.stack(
        [
            0.5 * (1.0 + np.sum(ca * ca, axis=-1)),
            0.5 * (1.0 + np.sum(cb * cb, axis=-1)),
            0.5 * (1.0 + np.sum(ca * cb, axis=-1)),
        ],
        axis=-1,
    )
    p = 0.5 * (1.0 + np.clip(vals, -1.0, 1.0))
    counts = rng.binomial(shots, p)
    est = 2.0 * counts / shots - 1.0
    return LocalSwapEstimate(est, counts, shots)


def estimate_local_swap(
    a: StateVector, b: StateVector, shots: int, rng: np.random.Generator
) -> LocalSwapEstimate:
    if a.num_qubits != b.num_qubits:
        raise ValueError("states act on different qubit counts")
    return _local_swap_from_bloch(bloch_vectors(a), bloch_vectors(b), shots, rng)


def projected_estimate_from_bloch(
    ca: np.ndarray,
    cb: np.ndarray,
    strategy: str,
    shots: int,
    rng: np.random.Generator | None,
    gamma: float = 1.0,
) -> float | np.ndarray:
    """Projected-kernel estimate given both states' (n, 3) Bloch arrays.

    ``cb`` may carry a leading entry axis, (k, n, 3): then ``ca`` is paired
    with each of the k states, every pair is an independent estimator run,
    and an array of k estimates is returned instead of a float.

    Negative estimated squared distances are exponentiated as-is (no
    clipping), so finite-shot estimates can exceed 1.
    """
    ca = np.broadcast_to(ca, cb.shape)
    if strategy == "exact":
        d = 0.5 * np.sum((ca - cb) ** 2, axis=(-2, -1))
    elif strategy == "tomography":
        ea = _tomography_from_bloch(ca, shots, rng).components
        eb = _tomography_from_bloch(cb, shots, rng).components
        d = 0.5 * np.sum((ea - eb) ** 2, axis=(-2, -1))
    elif strategy == "local_swap":
        t = _local_swap_from_bloch(ca, cb, shots, rng).terms
        d = np.sum(t[..., 0] + t[..., 1] - 2.0 * t[..., 2], axis=-1)
    else:
        raise ValueError(f"strategy {strategy!r} cannot estimate a projected kernel")
    if d.ndim == 0:
        return math.exp(-gamma * float(d))
    return np.exp(-gamma * d)


def estimate_projected(
    a: StateVector,
    b: StateVector,
    est: EstimatorSpec,
    rng: np.random.Generator | None = None,
    gamma: float = 1.0,
) -> float:
    """Estimate the projected kernel between two pure states."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("states act on different qubit counts")
    if est.strategy in ("loschmidt", "swap"):
        raise ValueError(f"strategy {est.strategy!r} estimates fidelity, not projected, kernels")
    if est.strategy != "exact" and rng is None:
        raise ValueError("a random generator is required for finite-shot estimation")
    return projected_estimate_from_bloch(
        bloch_vectors(a), bloch_vectors(b), est.strategy, est.shots, rng, gamma
    )


def estimate_fidelity(
    a: StateVector,
    b: StateVector,
    est: EstimatorSpec,
    rng: np.random.Generator | None = None,
) -> float:
    """Estimate the fidelity kernel between two pure states."""
    if est.strategy == "exact":
        return fidelity(a, b)
    if est.strategy in ("tomography", "local_swap"):
        raise ValueError(f"strategy {est.strategy!r} estimates projected, not fidelity, kernels")
    if rng is None:
        raise ValueError("a random generator is required for finite-shot estimation")
    if est.strategy == "loschmidt":
        return estimate_loschmidt(a, b, est.shots, rng).estimate
    return estimate_swap(a, b, est.shots, rng).estimate
