"""Simulation and analysis toolkit for concentration in quantum kernel methods.

The package simulates qubit feature maps, evaluates fidelity and projected
kernels exactly or through shot-based estimators, and checks the measured
statistics against analytic concentration, expressivity, entanglement, and
noise bounds.  Batched statevector updates run as vectorized numpy
primitives in ``qkonc._accel``.
"""

__version__ = "0.12.0"

import os as _os
import sys as _sys

# OpenBLAS sizes its thread pool when numpy loads it, from these variables or
# else the core count. Every run pins one thread (``cli._one_blas_thread``), so
# a larger pool only costs start-up: start it at one thread unless the caller
# chose a count, and drop the variable once numpy has loaded, so that child
# processes and libraries loaded later see the caller's environment.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
_one_blas_thread_at_load = "numpy" not in _sys.modules and not any(v in _os.environ for v in _BLAS_THREAD_VARS)
if _one_blas_thread_at_load:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    import numpy as _numpy  # noqa: F401
finally:
    if _one_blas_thread_at_load:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .core import (
    BlochVector,
    DensityMatrix,
    Gate,
    StateVector,
    apply_gate,
    apply_gate_batch,
    apply_gate_dm,
    bloch_vector,
    bloch_vectors,
    computational_basis_state,
    fidelity,
    ghz_state,
    haar_random_states,
    hs_inner,
    maximally_mixed,
    reduce_to_qubit,
    schatten2_distance,
    trace_norm,
)
from .embeddings import FAMILIES, EmbeddingSpec, embed, embed_batch, layer_decomposition
from .estimators import STRATEGIES, EstimatorSpec, projected_kernel_from_bloch_diff
from .kernels import (
    GramMatrix,
    KernelKind,
    fidelity_kernel,
    gram,
    kernel_matrix,
    product_bloch_vectors,
    product_kernel,
    projected_kernel,
    projected_sq_distance,
)
from .noise import (
    NoiseBounds,
    PauliNoiseParams,
    noise_bounds,
    noisy_embed,
    noisy_pauli_depths,
    pauli_fidelity_kernel,
    pauli_mixed_distance,
    pauli_projected_kernel,
)
from .analysis import (
    ConcentrationReport,
    EntanglementBound,
    ExpressivityEstimate,
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
from .learning import (
    GeneralizationResult,
    KrrResult,
    SvmResult,
    TrainedModel,
    generalization_experiment,
    kernel_target_alignment,
    krr_fit,
    kta_variance_over_theta,
    predict,
    svm_fit,
    train,
)
from .datasets import Dataset, gen_hypercube, gen_uniform, load_csv, save_csv

__all__ = [name for name in dir() if not name.startswith("_")]
