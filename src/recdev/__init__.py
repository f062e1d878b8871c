"""Recursive kernel density estimation and its deviation rates.

The estimator smooths each observation with its own bandwidth, so it
updates in O(1) per observation; the asymptotic price is a modified
variance and a family of large/moderate deviation rates, all computable
here: the limiting cumulant transform, its convex conjugate, finite-n
cumulant curves, Chernoff upper bounds, and Monte Carlo tail harnesses.
"""

from .bandwidth import BandwidthSchedule, ScalingSequence, speed
from .cgf import CgfConvergence, CgfSpec, cgf_finite_n, cgf_limit, convergence_diagnostic
from .densities import (
    Density,
    GaussianDensity,
    GaussianMixtureDensity,
    UniformBoxDensity,
    build_density,
)
from .deviations import (
    BiasRow,
    DeviationExperiment,
    DeviationReport,
    DeviationRow,
    UnderpoweredExperimentError,
    Verdict,
    chernoff_upper_curve,
    run_bias_study,
    run_pointwise,
    run_uniform,
)
from .estimator import (
    RecursiveEstimator,
    batch_values,
    bias_normalizer,
    bias_sup_bound,
    expected_estimate,
)
from .kernels import KernelModel, MultiIndex, builtin_kernel, kernel_moment, norm_moment
from .numerics import (
    NeumaierSum,
    OverflowGuardError,
    QuadratureError,
    RootFindError,
    compensated_cumsum,
    gauss_legendre_panels,
    tanh_sinh,
)
from .ratefn import PsiEvaluator, RateValue, pointwise_rate_density, quadratic_rate

__version__ = "0.1.0"

__all__ = [
    "BandwidthSchedule",
    "BiasRow",
    "CgfConvergence",
    "CgfSpec",
    "Density",
    "DeviationExperiment",
    "DeviationReport",
    "DeviationRow",
    "GaussianDensity",
    "GaussianMixtureDensity",
    "KernelModel",
    "MultiIndex",
    "NeumaierSum",
    "OverflowGuardError",
    "PsiEvaluator",
    "QuadratureError",
    "RateValue",
    "RecursiveEstimator",
    "RootFindError",
    "ScalingSequence",
    "UnderpoweredExperimentError",
    "UniformBoxDensity",
    "Verdict",
    "batch_values",
    "bias_normalizer",
    "bias_sup_bound",
    "build_density",
    "builtin_kernel",
    "cgf_finite_n",
    "cgf_limit",
    "chernoff_upper_curve",
    "compensated_cumsum",
    "convergence_diagnostic",
    "expected_estimate",
    "gauss_legendre_panels",
    "kernel_moment",
    "norm_moment",
    "pointwise_rate_density",
    "quadratic_rate",
    "run_bias_study",
    "run_pointwise",
    "run_uniform",
    "speed",
    "tanh_sinh",
]
