"""Kernel models: ridge regression, soft-margin SVM dual, target alignment,
and the train-size generalization experiment for product-state kernels.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .embeddings import EmbeddingSpec
from .estimators import EstimatorSpec, sample_fidelity
from .kernels import GramMatrix, KernelKind, gram, kernel_matrix

MAX_CONDITION = 1e12


@dataclass(frozen=True, eq=False)
class KrrResult:
    coefficients: np.ndarray
    condition_number: float


def krr_fit(K: np.ndarray, y: np.ndarray, lam: float = 0.0, sign: str = "minus") -> KrrResult:
    """Kernel ridge coefficients a = (K -+ lam)^-1 y.

    The default regularization sign is "minus" (a = (K - lam 1)^-1 y, so a
    Gram matrix estimated as the identity gives a = y / (1 - lam)); pass
    sign="plus" for the conventional (K + lam 1)^-1 y. K must be exactly
    symmetric. The condition number is the 2-norm one, max|l| / min|l| over
    the eigenvalues l of the symmetric regularized matrix; raises when that
    matrix is numerically singular, reporting it.
    """
    K = np.asarray(K, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if K.ndim != 2 or K.shape[0] != K.shape[1] or K.shape[0] != y.shape[0]:
        raise ValueError(f"shape mismatch: K {K.shape}, y {y.shape}")
    if sign not in ("minus", "plus"):
        raise ValueError("sign must be 'minus' or 'plus'")
    if not np.array_equal(K, K.T):  # eigvalsh reads one triangle only
        asym = np.abs(K - K.T)
        i, j = np.unravel_index(np.argmax(asym), asym.shape)
        raise ValueError(f"K is not symmetric: |K - K^T| is {asym[i, j]:.3e} at ({i}, {j})")
    s = -1.0 if sign == "minus" else 1.0
    a_mat = K + s * lam * np.eye(K.shape[0])
    mags = np.abs(np.linalg.eigvalsh(a_mat))
    cond = float(mags.max() / mags.min()) if mags.min() > 0.0 else math.inf
    if not math.isfinite(cond) or cond > MAX_CONDITION:
        raise ValueError(
            f"regularized kernel matrix is numerically singular (condition number {cond:.3e})"
        )
    coeff = np.linalg.solve(a_mat, y)
    return KrrResult(coeff, cond)


SVM_SOLVER = "projected_newton_clipped_v1"
ARMIJO_SIGMA = 1e-4
MAX_BACKTRACKS = 60


@dataclass(frozen=True, eq=False)
class SvmResult:
    coefficients: np.ndarray
    iterations: int
    objective: float
    converged: bool
    min_eigenvalue: float  # of the Gram matrix, before clipping
    eigenvalues_clipped: int
    kkt_residual: float
    solver: str = SVM_SOLVER


def svm_fit(
    K: np.ndarray,
    y: np.ndarray,
    C: float = 1.0,
    max_iter: int = 1000,
    tol: float = 1e-10,
) -> SvmResult:
    """Soft-margin SVM dual by projected Newton on the eigenvalue-clipped Gram.

    Maximizes sum(a) - (1/2) a^T Q a over the box 0 <= a <= C, with
    Q = (y y^T) * K_+ and K_+ the Gram matrix with its negative eigenvalues
    set to 0. A shot-estimated Gram can be indefinite, and its dual is then
    unbounded; the clipped problem is concave, so its optimal value is unique
    (spectrum repair as in Hubregtsen et al., PRA 106, 042431, 2022).

    Each iteration (Bertsekas, SIAM J. Control Optim. 20, 1982) takes the
    gradient g = 1 - Q a, fixes the coordinates at a bound whose gradient
    points out of the box, and solves the free block for its Newton step by
    least squares, since the block can be singular; the part of g the block
    cannot reach, along which the objective is linear, is added as a gradient
    step. The step is projected onto the box and halved until it gains an
    Armijo fraction of its first-order gain. The solver stops when the
    projected-gradient (KKT) residual max |a - clip(a + g, 0, C)| is <= tol.
    """
    K = np.asarray(K, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if K.ndim != 2 or K.shape[0] != K.shape[1] or K.shape[0] != y.shape[0]:
        raise ValueError(f"shape mismatch: K {K.shape}, y {y.shape}")
    if not C > 0.0:
        raise ValueError(f"C must be positive, got {C}")
    evals, evecs = np.linalg.eigh(K)
    clipped = int(np.count_nonzero(evals < 0.0))
    if clipped:
        K = (evecs * np.maximum(evals, 0.0)) @ evecs.T
    q_mat = np.outer(y, y) * K
    a = np.zeros(K.shape[0])
    for it in range(max_iter + 1):
        g = 1.0 - q_mat @ a
        residual = float(np.max(np.abs(a - np.clip(a + g, 0.0, C))))
        if residual <= tol or it == max_iter:
            break
        free = ~(((a <= 0.0) & (g < 0.0)) | ((a >= C) & (g > 0.0)))
        q_free, g_free = q_mat[np.ix_(free, free)], g[free]
        newton = np.linalg.lstsq(q_free, g_free, rcond=1e-12)[0]
        d = np.zeros_like(a)
        d[free] = newton + (g_free - q_free @ newton)
        t = 1.0
        for _ in range(MAX_BACKTRACKS):
            trial = np.clip(a + t * d, 0.0, C)
            s = trial - a
            gain = g @ s
            if gain > 0.0 and gain - 0.5 * (s @ q_mat @ s) >= ARMIJO_SIGMA * gain:
                break
            t *= 0.5
        else:  # no ascent left at this precision
            break
        a = trial
    objective = float(np.sum(a) - 0.5 * (a @ q_mat @ a))
    return SvmResult(
        a, it, objective, residual <= tol, float(evals[0]), clipped, residual
    )


def kernel_target_alignment(K: np.ndarray, y: np.ndarray) -> float:
    """TA = sum_ij y_i y_j K_ij / sqrt(sum_ij K_ij^2 * sum_ij (y_i y_j)^2),
    diagonal included."""
    K = np.asarray(K, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    num = float(y @ K @ y)
    den = float(np.linalg.norm(K)) * float(np.sum(y * y))
    if den == 0.0:
        raise ValueError("degenerate alignment denominator")
    return num / den


# ---------------------------------------------------------------------------
# trained models
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TrainedModel:
    spec: EmbeddingSpec
    kind: KernelKind
    algorithm: str  # "krr" | "svm"
    anchors: np.ndarray
    coefficients: np.ndarray
    lam: float = 0.0
    labels: np.ndarray | None = None  # training labels (svm decision function)

    @property
    def weights(self) -> np.ndarray:
        """Per-anchor weights of the model values: the coefficients, times the labels for SVM."""
        if self.algorithm != "svm":
            return self.coefficients
        if self.labels is None:
            raise ValueError("SVM model is missing training labels")
        return self.coefficients * self.labels

    def to_json(self) -> str:
        payload = {
            "spec": {
                "num_qubits": self.spec.num_qubits,
                "family": self.spec.family,
                "layers": self.spec.layers,
                "entangler": self.spec.entangler,
                "seed": self.spec.seed,
            },
            "kind": {"variant": self.kind.variant, "gamma": self.kind.gamma},
            "algorithm": self.algorithm,
            "anchors": self.anchors.tolist(),
            "coefficients": self.coefficients.tolist(),
            "lam": self.lam,
            "theta": self.spec.theta,
            "labels": None if self.labels is None else self.labels.tolist(),
        }
        return json.dumps(payload, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "TrainedModel":
        d = json.loads(text)
        return TrainedModel(
            spec=EmbeddingSpec(**d["spec"], theta=d["theta"]),
            kind=KernelKind(**d["kind"]),
            algorithm=d["algorithm"],
            anchors=np.asarray(d["anchors"], dtype=np.float64),
            coefficients=np.asarray(d["coefficients"], dtype=np.float64),
            lam=d["lam"],
            labels=None if d["labels"] is None else np.asarray(d["labels"]),
        )


def train(
    spec: EmbeddingSpec,
    xs,
    y,
    kind: KernelKind,
    algorithm: str = "krr",
    lam: float = 0.0,
    sign: str = "minus",
    estimator: EstimatorSpec | None = None,
) -> tuple[TrainedModel, KrrResult | SvmResult, GramMatrix]:
    """Fit ``algorithm``, "krr" (``krr_fit`` with ``lam`` and ``sign``) or "svm" (``svm_fit``,
    no ridge term: ``lam`` and ``sign`` keep their defaults), on the Gram matrix of ``xs``.

    Returns the model, the solver's report and the Gram matrix it was fitted on,
    whose product with ``model.weights`` gives the model values at ``xs``."""
    if algorithm not in ("krr", "svm"):
        raise ValueError(f"unknown algorithm {algorithm!r}, expected 'krr' or 'svm'")
    svm = algorithm == "svm"
    if svm and (lam != 0.0 or sign != "minus"):
        raise ValueError(f"'svm' has no ridge term, but lam = {lam!r} and sign = {sign!r} set one")
    gm = gram(spec, xs, kind, estimator=estimator)
    fit = svm_fit(gm.matrix, y) if svm else krr_fit(gm.matrix, y, lam=lam, sign=sign)
    model = TrainedModel(
        spec,
        kind,
        algorithm,
        np.asarray(xs, dtype=np.float64),
        fit.coefficients,
        lam=lam,
        labels=np.asarray(y, dtype=np.float64) if svm else None,
    )
    return model, fit, gm


def predict(
    model: TrainedModel,
    xs,
    estimator: EstimatorSpec | None = None,
) -> np.ndarray:
    """Model values at new points: sum_i a_i kappa(x_new, x_i) (times y_i for SVM).

    All-zero kernel estimates give predictions of exactly 0.
    """
    kmat = kernel_matrix(model.spec, xs, model.anchors, model.kind, estimator)
    return kmat @ model.weights


# ---------------------------------------------------------------------------
# alignment scan over embedding parameters
# ---------------------------------------------------------------------------


# how kta_variance_over_theta accumulates the per-entry variances, which the
# kta-scan manifest names
KTA_VARIANCE_RULE = "v2: Welford running mean and sum of squared deviations over the thetas"


@dataclass(frozen=True, eq=False)
class KtaScan:
    ta_values: np.ndarray  # (num_thetas,)
    ta_variance: float
    kernel_variances: np.ndarray  # (n_pts, n_pts), variance over theta per entry


def kta_variance_over_theta(
    spec: EmbeddingSpec,
    xs,
    y,
    num_thetas: int,
    rng: np.random.Generator,
    kind: KernelKind = KernelKind.fidelity(),
) -> KtaScan:
    """Sample parameter vectors uniform on [0, 2 pi), each the ``theta`` of
    ``spec``, and record alignment + per-entry kernel variability (everything
    evaluated exactly).

    The per-entry variances come from Welford's running mean and sum of
    squared deviations over the thetas, so the scan holds a few (n_pts,
    n_pts) arrays at any number of thetas."""
    xs = np.asarray(xs, dtype=np.float64)
    npts = xs.shape[0]
    tas = np.empty(num_thetas)
    mean, sq_dev = np.zeros((npts, npts)), np.zeros((npts, npts))
    for t in range(num_thetas):
        theta = rng.uniform(0.0, 2.0 * math.pi, spec.num_qubits)
        k = gram(replace(spec, theta=theta), xs, kind).matrix
        tas[t] = kernel_target_alignment(k, y)
        k -= mean  # the deviation from the mean of the first t thetas
        mean += k / (t + 1)
        k *= k
        k *= t / (t + 1)
        sq_dev += k
    return KtaScan(tas, float(tas.var(ddof=1)), sq_dev / (num_thetas - 1))


# ---------------------------------------------------------------------------
# generalization experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GeneralizationResult:
    train_sizes: tuple[int, ...]
    loss_exact: np.ndarray  # (sizes,) test MSE, exact kernel
    loss_estimated: np.ndarray  # (sizes,) test MSE, finite shots
    train_error_exact: np.ndarray  # (sizes,) max train residual
    train_error_estimated: np.ndarray


def generalization_experiment(
    rng: np.random.Generator,
    num_qubits: int = 40,
    train_sizes=(10, 25, 50, 75, 100, 125, 150),
    num_test: int = 20,
    shots: int = 1000,
    lam: float = 0.0,
    low: float = 0.0,
    high: float = 2.0 * math.pi,
) -> GeneralizationResult:
    """One repeat of a train-size scan of kernel ridge regression on engineered labels.

    A pool of max(train_sizes) uniform points gets labels
    y(x) = sum_i w_i kappa_FQ(x_i, x) with w_i ~ U[0,1] over the whole pool;
    training subsets are nested prefixes; the exact arm solves on the exact
    Gram matrix while the estimated arm re-measures every kernel entry with
    ``shots`` single-shot overlap tests (sampled once for the full pool and
    sliced per subset). Losses are test-set MSE.
    """
    spec = EmbeddingSpec(num_qubits, "tensor_ry")
    kind = KernelKind.fidelity()
    sizes = tuple(int(s) for s in train_sizes)
    pool = max(sizes)
    if min(sizes) < 1 or num_test < 1:
        raise ValueError("sizes must be positive")

    xs = rng.uniform(low, high, (pool, num_qubits))
    w = rng.uniform(0.0, 1.0, pool)
    ts = rng.uniform(low, high, (num_test, num_qubits))
    k_pool = gram(spec, xs, kind).matrix
    k_test = kernel_matrix(spec, ts, xs, kind)
    y_pool = k_pool @ w
    y_test = k_test @ w

    # one finite-shot re-measurement of every entry, sliced per subset
    k_pool_hat = np.triu(sample_fidelity(k_pool, "loschmidt", shots, rng), k=1)
    k_pool_hat = k_pool_hat + k_pool_hat.T + np.eye(pool)
    k_test_hat = sample_fidelity(k_test, "loschmidt", shots, rng)

    # rows: exact arm, estimated arm
    losses, train_errors = np.empty((2, len(sizes))), np.empty((2, len(sizes)))
    for arm, (kp, kt) in enumerate(((k_pool, k_test), (k_pool_hat, k_test_hat))):
        for si, ns in enumerate(sizes):
            ys = y_pool[:ns]
            coeff = krr_fit(kp[:ns, :ns], ys, lam=lam).coefficients
            losses[arm, si] = np.mean((kt[:, :ns] @ coeff - y_test) ** 2)
            train_errors[arm, si] = np.max(np.abs(kp[:ns, :ns] @ coeff - ys))
    return GeneralizationResult(sizes, losses[0], losses[1], train_errors[0], train_errors[1])
