"""Concentration diagnostics: variance scans, expressivity and entanglement
bounds, noise-free reference constants, and measurement-statistics tests.

Reference constants over the Haar ensemble (independent pairs of states):

* ``beta_haar(n)``            -- E[kappa_FQ^2] = 1 / (2^(n-1) (2^n + 1)); the
                                 mean is 1/2^n.
* ``beta_haar_projected(n)``  -- 3 / (2^(n+1) + 2), the per-qubit constant of
                                 the projected-kernel variance bound.

For the tensor-Ry product family with data uniform on a full period,
E[kappa_FQ] = 1/2^n and E[kappa_FQ^2] = (3/8)^n exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import _accel
from .core import (
    StateVector,
    bloch_vectors,
    haar_random_states,
    trace_norm,
)
from .embeddings import EmbeddingSpec, _block_bloch, _block_rows, _state_blocks, embed_batch
from .estimators import projected_kernel_from_bloch_diff
from .kernels import PRODUCT_FAMILIES, KernelKind, product_bloch_vectors, product_kernel, projected_kernel


def beta_haar(num_qubits: int) -> float:
    """Second moment of the fidelity kernel over independent Haar pairs."""
    d = 1 << num_qubits
    return 2.0 / (d * (d + 1))


def beta_haar_projected(num_qubits: int) -> float:
    """Per-qubit Haar constant entering the projected-kernel variance bound."""
    return 3.0 / (2.0 ** (num_qubits + 1) + 2.0)


def product_ry_moments(num_qubits: int) -> tuple[float, float, float]:
    """(mean, second moment, variance) of the tensor-Ry fidelity kernel
    for inputs uniform over a full period per coordinate."""
    mean = 0.5**num_qubits
    second = (3.0 / 8.0) ** num_qubits
    return mean, second, second - mean * mean


# ---------------------------------------------------------------------------
# variance scans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConcentrationReport:
    spec: EmbeddingSpec
    kind: KernelKind
    pairs: int
    mean: float
    variance: float

    @property
    def std_error(self) -> float:
        """Monte-Carlo standard error of ``mean``."""
        return math.sqrt(self.variance / self.pairs)


def _sample_inputs(
    spec: EmbeddingSpec, count: int, rng: np.random.Generator, low: float, high: float
) -> tuple[np.ndarray, np.ndarray]:
    n = spec.num_qubits
    xs = rng.uniform(low, high, (count, n))
    ys = rng.uniform(low, high, (count, n))
    # identical pairs are excluded from concentration statistics
    same = np.all(xs == ys, axis=1)
    while np.any(same):  # pragma: no cover - probability-zero branch
        ys[same] = rng.uniform(low, high, (int(same.sum()), n))
        same = np.all(xs == ys, axis=1)
    return xs, ys


# the order of the haar draws, which the variance-scan manifest names
HAAR_STATE_RULE = "v2: per row block of max(1, 2**16 >> n) pairs, the first states, then the second states"
# the pairs concentration_scan draws and evaluates at a time
_CHUNK_PAIRS = 1 << 15


def _chunk_kappas(
    spec: EmbeddingSpec,
    kinds: list[KernelKind],
    count: int,
    rng: np.random.Generator,
    low: float,
    high: float,
) -> list[np.ndarray]:
    # inputs, or states made and reduced, in row blocks, which bounds memory at any
    # pair count; haar draws each block's first states, then its second states
    n = spec.num_qubits
    overlap, bloch = _accel.pair_absq, partial(_block_bloch, spec)
    if spec.family == "haar":
        step = _block_rows(n)
        sizes = (min(step, count - i) for i in range(0, count, step))
        blocks = ((haar_random_states(n, k, rng), haar_random_states(n, k, rng)) for k in sizes)
    elif spec.family in PRODUCT_FAMILIES:  # blocks of inputs, about 2**14 one-qubit states each
        xs, ys = _sample_inputs(spec, count, rng, low, high)
        step = max(1, (1 << 14) // n)
        blocks = ((xs[i : i + step], ys[i : i + step]) for i in range(0, count, step))
        overlap = partial(product_kernel, family=spec.family)
        bloch = partial(product_bloch_vectors, family=spec.family)
    else:  # the chunk's inputs are drawn at once
        xs, ys = _sample_inputs(spec, count, rng, low, high)
        blocks = zip(_state_blocks(spec, xs, None), _state_blocks(spec, ys, None))

    out = [[] for _ in kinds]
    for a, b in blocks:
        diff = None
        for acc, kind in zip(out, kinds):
            if kind.variant == "fidelity":
                acc.append(overlap(a, b))
                continue
            if diff is None:
                diff = bloch(a) - bloch(b)
            acc.append(projected_kernel_from_bloch_diff(diff, kind.gamma))
    return [np.concatenate(acc) for acc in out]


def concentration_scan(
    spec: EmbeddingSpec,
    kinds,
    pairs: int,
    rng: np.random.Generator,
    low: float = -math.pi,
    high: float = math.pi,
) -> list[ConcentrationReport]:
    """Sample kernel values over independent input pairs, for several kernel
    kinds on the same pairs, and report mean/variance per kind."""
    kinds = list(kinds)
    if pairs < 2:
        raise ValueError("need at least 2 pairs for a variance")
    if low == high and spec.family != "haar":
        # every pair would be identical, and identical pairs are redrawn
        raise ValueError("the input interval [low, high] is empty")
    values = [np.empty(pairs) for _ in kinds]
    done = 0
    while done < pairs:
        c = min(_CHUNK_PAIRS, pairs - done)
        for acc, kap in zip(values, _chunk_kappas(spec, kinds, c, rng, low, high)):
            acc[done : done + c] = kap
        done += c
    return [
        ConcentrationReport(
            spec, kind, pairs, float(v.mean()), float(v.var(ddof=1))
        )
        for kind, v in zip(kinds, values)
    ]


# ---------------------------------------------------------------------------
# expressivity
# ---------------------------------------------------------------------------

MAX_EXPRESSIVITY_QUBITS = 6


@dataclass(frozen=True)
class ExpressivityEstimate:
    value: float
    mc_error: float


def expressivity_from_states(states: np.ndarray, num_qubits: int) -> ExpressivityEstimate:
    """Plug-in expressivity from a sample of states (rows of a (m, 2**n) array).

    epsilon-hat is the trace norm of the sampled two-fold moment minus the
    Haar two-fold moment, taken in the symmetric subspace that holds every
    psi (x) psi: in its coordinates psi_i psi_j (sqrt 2 if i < j else 1),
    i <= j, the Haar moment is I / D with D = d (d + 1) / 2. The Monte-Carlo
    error is the split-half proxy ||M_1 - M_2||_1 / 2 over the two
    half-sample moment estimates; the plug-in value itself is biased upward,
    which is safe where the estimate feeds an upper bound.
    """
    m, d = states.shape
    if d != 1 << num_qubits:
        raise ValueError("state dimension does not match num_qubits")
    if m < 2:
        raise ValueError("need at least 2 samples")
    half = m // 2
    iu, ju = np.triu_indices(d)
    weight = np.where(iu < ju, math.sqrt(2.0), 1.0)
    dim = iu.size
    step = max(1, (1 << 22) // (dim * 16))
    sums = np.zeros((2, dim, dim), dtype=np.complex128)  # of each half's (psi psi^dag)^(x2)
    for acc, start, stop in ((sums[0], 0, half), (sums[1], half, m)):
        for lo in range(start, stop, step):
            block = states[lo : min(lo + step, stop)]
            phi = block[:, iu] * block[:, ju] * weight
            acc += phi.T @ phi.conj()
    value = trace_norm((sums[0] + sums[1]) / m - np.eye(dim) / dim)
    err = 0.5 * trace_norm(sums[0] / half - sums[1] / (m - half))
    return ExpressivityEstimate(float(value), float(err))


def expressivity_epsilon(
    spec: EmbeddingSpec,
    samples: int,
    rng: np.random.Generator,
    low: float = -math.pi,
    high: float = math.pi,
) -> ExpressivityEstimate:
    """Monte-Carlo expressivity of an embedding over uniform inputs."""
    if spec.num_qubits > MAX_EXPRESSIVITY_QUBITS:
        raise ValueError(
            f"expressivity estimation is limited to {MAX_EXPRESSIVITY_QUBITS} qubits"
        )
    if spec.family == "haar":
        states = haar_random_states(spec.num_qubits, samples, rng)
    else:
        xs = rng.uniform(low, high, (samples, spec.num_qubits))
        states = embed_batch(spec, xs)
    return expressivity_from_states(states, spec.num_qubits)


def bound_expressivity(num_qubits: int, kind: KernelKind, eps: float) -> float:
    """Variance upper bound G_n from the expressivity ``eps`` of one ensemble:
    beta + eps (eps + 2 sqrt(beta)) for the fidelity kernel and
    4 gamma n (beta~ + eps) for the projected kernel.
    """
    e = float(eps)
    if e < 0:
        raise ValueError("expressivities must be nonnegative")
    if kind.variant == "fidelity":
        b = beta_haar(num_qubits)
        return b + e * e + math.sqrt(b) * (e + e)
    bt = beta_haar_projected(num_qubits)
    return 2.0 * kind.gamma * num_qubits * (2.0 * bt + e + e)


# ---------------------------------------------------------------------------
# entanglement and global-measurement bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EntanglementBound:
    bound: float
    deviation: float


def _binary_entropy(p: np.ndarray) -> np.ndarray:
    p = np.clip(p, 0.0, 1.0)
    out = np.zeros_like(p)
    mask = (p > 0.0) & (p < 1.0)
    pm = p[mask]
    out[mask] = -pm * np.log2(pm) - (1.0 - pm) * np.log2(1.0 - pm)
    return out


def gamma_s_from_bloch(ca: np.ndarray, cb: np.ndarray) -> float:
    """sum_k (sqrt(S(rho_k || 1/2)) + sqrt(S(rho'_k || 1/2)))^2 from Bloch arrays.

    For a single qubit with Bloch radius r, S(rho || 1/2) = 1 - h2((1+r)/2) bits.
    """
    ra = np.sqrt(np.sum(ca * ca, axis=1))
    rb = np.sqrt(np.sum(cb * cb, axis=1))
    sa = 1.0 - _binary_entropy(0.5 * (1.0 + ra))
    sb = 1.0 - _binary_entropy(0.5 * (1.0 + rb))
    return float(np.sum((np.sqrt(sa) + np.sqrt(sb)) ** 2))


def bound_entanglement(a: StateVector, b: StateVector, gamma: float = 1.0) -> EntanglementBound:
    """Entanglement-driven bound |1 - kappa_PQ| <= (2 ln 2) gamma Gamma_s.

    Returns the bound together with the actual deviation |1 - kappa_PQ| for
    comparison. When every reduced state is maximally mixed the bound is 0
    and the projected kernel equals 1.
    """
    if a.num_qubits != b.num_qubits:
        raise ValueError("states act on different qubit counts")
    bound = 2.0 * math.log(2.0) * gamma * gamma_s_from_bloch(bloch_vectors(a), bloch_vectors(b))
    dev = abs(1.0 - projected_kernel(a, b, gamma))
    return EntanglementBound(bound, dev)


def bound_global_measurement(num_qubits: int, eps=0.0) -> float:
    """Variance bound for the tensor-Ry kernel as a product of per-qubit terms
    G_1^(k) = 1/3 + eps_k (eps_k + sqrt(4/3)); eps may be a scalar or per-qubit."""
    e = np.broadcast_to(np.asarray(eps, dtype=np.float64), (num_qubits,))
    if np.any(e < 0):
        raise ValueError("expressivities must be nonnegative")
    return float(np.prod(1.0 / 3.0 + e * (e + math.sqrt(4.0 / 3.0))))


# ---------------------------------------------------------------------------
# measurement statistics
# ---------------------------------------------------------------------------


def binomial_pvalue(successes: int, shots: int, null_p: float) -> float:
    """Exact two-sided binomial-test p-value."""
    from scipy.stats import binomtest

    return float(binomtest(successes, shots, null_p).pvalue)


def distinguish_success_bound(shots: int, eps: float) -> float:
    """Optimal success probability for telling (p0, 1-p0) from (p0+eps, 1-p0-eps)
    with ``shots`` samples: at most 1/2 + shots |eps| / 2."""
    return min(1.0, 0.5 + shots * abs(eps) / 2.0)


def simulate_distinguish(
    shots: int,
    eps: float,
    trials: int,
    rng: np.random.Generator,
    p0: float = 0.5,
) -> float:
    """Empirical success rate of the likelihood-ratio decision between two
    binary distributions (equal priors, fair-coin tie breaking)."""
    p1 = p0 + eps
    if not 0.0 < p0 < 1.0 or not 0.0 <= p1 <= 1.0:
        raise ValueError("p0 must be interior and p0+eps a probability")
    h = rng.random(trials) < 0.5
    k = rng.binomial(shots, np.where(h, p1, p0))
    if eps == 0.0:
        llr = np.zeros(trials)
    else:
        llr = k * (math.log(p1) - math.log(p0)) + (shots - k) * (
            math.log1p(-p1) - math.log1p(-p0)
        )
    guess = np.where(llr > 0, True, np.where(llr < 0, False, rng.random(trials) < 0.5))
    return float(np.mean(guess == h))


def shots_budget(
    variance: float,
    precision: float = 1.0,
    fail_prob: float = 0.05,
) -> int:
    """Shots needed to resolve a concentrated value of a [-1, 1]-bounded
    observable at relative precision ``precision`` (in units of sqrt(variance))
    with failure probability ``fail_prob``: ceil(2 ln(2/fail_prob) / (precision^2 variance))."""
    if variance <= 0 or precision <= 0 or not 0 < fail_prob < 1:
        raise ValueError("variance and precision must be positive, fail_prob in (0,1)")
    return math.ceil(2.0 * math.log(2.0 / fail_prob) / (precision**2 * variance))


# ---------------------------------------------------------------------------
# alignment variance bound
# ---------------------------------------------------------------------------


def kta_alignment_constant(num_samples: int, variant: str = "statement") -> float:
    """Constant M(N_s) in Var[TA] <= M(N_s) sum_ij Var[kappa_ij].

    Two published forms exist; the "statement" form carries N_s^3 where the
    "proof" form carries N_s^2.
    """
    ns = float(num_samples)
    if variant == "statement":
        return (8.0 + ns**3 * (9.0 * (ns - 1.0) ** 2 + 16.0)) / (4.0 * ns)
    if variant == "proof":
        return (8.0 + ns**2 * (9.0 * (ns - 1.0) ** 2 + 16.0)) / (4.0 * ns)
    raise ValueError(f"unknown variant {variant!r}")


def kta_variance_bound(
    kernel_variances, num_samples: int, variant: str = "statement"
) -> float:
    """Upper bound on the variance of kernel-target alignment over parameters."""
    return kta_alignment_constant(num_samples, variant) * float(
        np.sum(np.asarray(kernel_variances))
    )
