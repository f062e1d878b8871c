"""Recursive kernel density estimation and its deviation rates.

The estimator smooths each observation with its own bandwidth, so it
updates in O(1) per observation; the asymptotic price is a modified
variance and a family of large/moderate deviation rates, all computable
here: the limiting cumulant transform, its convex conjugate, finite-n
cumulant curves, Chernoff upper bounds, and Monte Carlo tail harnesses.
The root re-exports the names the scripts and examples use; everything
else is imported from its module.
"""

from .bandwidth import BandwidthSchedule, ScalingSequence
from .cgf import CgfSpec
from .densities import GaussianDensity, build_density
from .deviations import (
    DeviationExperiment,
    UnderpoweredExperimentError,
    chernoff_upper_curve,
    run_pointwise,
    run_uniform,
)
from .estimator import RecursiveEstimator, batch_values
from .kernels import builtin_kernel
from .ratefn import PsiEvaluator

__version__ = "0.1.0"

__all__ = [
    "BandwidthSchedule",
    "CgfSpec",
    "DeviationExperiment",
    "GaussianDensity",
    "PsiEvaluator",
    "RecursiveEstimator",
    "ScalingSequence",
    "UnderpoweredExperimentError",
    "batch_values",
    "build_density",
    "builtin_kernel",
    "chernoff_upper_curve",
    "run_pointwise",
    "run_uniform",
]
