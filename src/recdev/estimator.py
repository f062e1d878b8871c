"""Streaming kernel estimator with per-observation bandwidths.

The estimator of the alpha-partial of a density f from observations
X_1, X_2, ... is

    f_n(x) = (1/n) sum_{i<=n} h_i^-(d+|alpha|) (d^alpha K)((x - X_i)/h_i),

with h_i = h(i) a decreasing bandwidth schedule.  Each observation enters
with the bandwidth of its arrival index, so the update is O(grid) per
observation and never revisits history; the price is that the estimate
depends on the observation order (a permutation of the sample changes the
value).  Running sums are compensated, so long streams do not lose the
small late terms against the large early ones.

Also provided: a closed-batch evaluation used as an independent test
oracle, the exact mean of the estimator under a known sampling density,
and the bias/fluctuation decomposition with the bias normalizer and
uniform bias bound used in convergence studies.  The exact mean is a
kernel-support quadrature per bandwidth, summed over i <= n by
`bandwidth.bandwidth_sum`: a Chebyshev interpolant in log h whose cost does
not grow with n, certified by comparing two polynomial degrees and falling
back to the direct sum when that certificate fails; two quadrature levels
must then agree by `numerics.refine` before a mean is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bandwidth import SUM_BLOCK_ENTRIES, BandwidthSchedule, bandwidth_sum
from .densities import Density
from .kernels import (
    KernelModel,
    as_multi_index,
    as_points,
    kernel_moment,
    kernel_quadrature,
    norm_moment,
)
from .numerics import NeumaierSum, refine

# kernel evaluations per batch_values block, over observations x grid points
_BATCH_ENTRIES = 65536
# two quadrature levels of the exact mean must agree to this gap, relative
# once the mean exceeds 1
_MEAN_TOL = 1e-9


class RecursiveEstimator:
    """Order-sensitive streaming estimator on a fixed evaluation grid."""

    def __init__(self, kernel: KernelModel, schedule: BandwidthSchedule, grid, alpha=None):
        self.kernel = kernel
        self.schedule = schedule
        self.alpha = as_multi_index(alpha, kernel.dimension)
        schedule.check_compatible(kernel.dimension, self.alpha.order)
        self.grid, _ = as_points(grid, kernel.dimension)
        # resolved once: update() runs per observation
        self._kernel_fn = kernel.partial_fn(self.alpha)
        self._power = kernel.dimension + self.alpha.order
        self._sum = NeumaierSum(shape=(len(self.grid),))
        self.count = 0

    def reset(self) -> None:
        self._sum = NeumaierSum(shape=(len(self.grid),))
        self.count = 0

    def update(self, x) -> None:
        """Fold in one observation; O(grid size), independent of history."""
        x = np.asarray(x, dtype=np.float64).reshape(self.kernel.dimension)
        self.count += 1
        h = self.schedule.h(self.count)
        self._sum.add(self._kernel_fn((self.grid - x) / h) / h**self._power)

    def update_batch(self, X) -> None:
        """Fold in rows of X in order (order matters; see module docstring)."""
        X, _ = as_points(X, self.kernel.dimension)
        for row in X:
            self.update(row)

    def values(self) -> np.ndarray:
        """Current estimate on the grid; raises before any observation."""
        if self.count == 0:
            raise ValueError("estimator has no observations yet")
        return self._sum.total / self.count


def batch_values(
    kernel: KernelModel,
    schedule: BandwidthSchedule,
    X,
    grid,
    alpha=None,
) -> np.ndarray:
    """Whole-sample evaluation of the estimator, vectorised over observations.

    Mathematically identical to streaming the rows of X through
    RecursiveEstimator; computed by a different summation route, so tests
    can compare the two.
    """
    mi = as_multi_index(alpha, kernel.dimension)
    schedule.check_compatible(kernel.dimension, mi.order)
    X, _ = as_points(X, kernel.dimension)
    pts, _ = as_points(grid, kernel.dimension)
    n, d = X.shape
    if n == 0:
        raise ValueError("empty sample")
    hs = schedule.values(n)
    power = d + mi.order
    acc = NeumaierSum(shape=(len(pts),))
    step = max(1, _BATCH_ENTRIES // max(len(pts), 1))
    for i0 in range(0, n, step):
        hb = hs[i0 : i0 + step]
        z = (pts[None, :, :] - X[i0 : i0 + step, None, :]) / hb[:, None, None]
        vals = kernel.deriv_eval(mi, z.reshape(-1, d)).reshape(len(hb), len(pts))
        vals /= (hb**power)[:, None]
        acc.add(vals.sum(axis=0))
    return acc.total / n


def expected_estimate(
    kernel: KernelModel,
    schedule: BandwidthSchedule,
    density: Density,
    n: int,
    points,
    alpha=None,
) -> np.ndarray:
    """Exact mean (1/n) sum_i int K(y) g(x - h_i y) dy with g the alpha-partial of f.

    Integrating the kernel against the shifted density in the substituted
    variable keeps every factor bounded (no h^-|alpha| appears).  Each term
    is a kernel-support quadrature and depends on i only through h_i, so
    the sum over i is `bandwidth.bandwidth_sum`: a Chebyshev interpolant in
    log h certified by two degrees, or the direct sum when that does not
    pay or does not converge.  The quadrature is refined once, and the two
    levels must agree within `_MEAN_TOL`, relative once the mean exceeds 1;
    disagreement raises QuadratureError rather than returning a doubtful
    mean.  Returns one value per point, shape (m,).
    """
    mi = as_multi_index(alpha, kernel.dimension)
    pts, _ = as_points(points, kernel.dimension)
    if n < 1:
        raise ValueError("n must be >= 1")
    m, d = pts.shape
    # quadrature nodes per block, so one block of arguments x - h y stays
    # within the temporary budget whatever d and the point count
    kstep = max(1, SUM_BLOCK_ENTRIES // (m * d))

    def at_level(level):
        y, w = kernel_quadrature(kernel, level=level)
        wk = w * kernel.eval_fn(y)

        def terms(hb):
            rows = np.zeros((len(hb), m))
            for k0 in range(0, len(y), kstep):
                yk = y[k0 : k0 + kstep]
                args = pts[None, None, :, :] - hb[:, None, None, None] * yk[None, :, None, :]
                g = density.partial(mi.components, args.reshape(-1, d))
                rows += np.einsum("k,bkm->bm", wk[k0 : k0 + kstep], g.reshape(len(hb), len(yk), m))
            return rows

        return bandwidth_sum(schedule, n, terms, min(len(y), kstep) * m * d, 1.0 / n)

    return refine(at_level, (1, 2), _MEAN_TOL, "mean-estimate quadrature")[0]


@dataclass(frozen=True)
class CenteredDecomposition:
    """estimate = target + bias + fluctuation, all on the same points."""

    estimate: np.ndarray
    mean: np.ndarray
    target: np.ndarray
    bias: np.ndarray
    fluctuation: np.ndarray


def decompose(
    kernel: KernelModel,
    schedule: BandwidthSchedule,
    density: Density,
    X,
    points,
    alpha=None,
) -> CenteredDecomposition:
    """Split the estimate into deterministic bias and centred fluctuation.

    The deviation theory applies to the fluctuation part; the bias part is
    deterministic and has its own normalized limit (see bias_ratio_limit).
    """
    mi = as_multi_index(alpha, kernel.dimension)
    n = len(as_points(X, kernel.dimension)[0])
    est = batch_values(kernel, schedule, X, points, alpha=mi.components)
    mean = expected_estimate(kernel, schedule, density, n, points, alpha=mi.components)
    target = density.partial(mi.components, points)
    return CenteredDecomposition(
        estimate=est,
        mean=mean,
        target=target,
        bias=mean - target,
        fluctuation=est - mean,
    )


def bias_normalizer(schedule: BandwidthSchedule, q: int, n: int) -> float:
    """(1/n) sum_{i<=n} h_i^q, the scale on which the bias stabilises."""
    if q < 1:
        raise ValueError("q must be >= 1")
    return schedule.prefix_sum(float(q), n) / n


def bias_ratio_limit(kernel: KernelModel, density: Density, q: int, points, alpha=None):
    """Limit of bias / bias_normalizer for a q-smooth target.

    For symmetric kernels the lower Taylor terms integrate to zero and the
    normalized bias converges to sum over q-th partials of the target
    weighted by kernel moments; in one dimension this is
    ((-1)^q / q!) m_q(K) g^(q+|alpha|)(x), e.g. m_2(K) f''(x)/2 for the
    plain density estimate with q = 2.
    """
    d = kernel.dimension
    mi = as_multi_index(alpha, d)
    if d == 1:
        m_q = kernel_moment(kernel, q)
        g_q = density.partial((mi.components[0] + q,), points)
        return ((-1) ** q / math.factorial(q)) * m_q * g_q
    if q != 2:
        raise ValueError("multivariate ratio limits are implemented for q = 2 only")
    pts, _ = as_points(points, d)
    out = np.zeros(len(pts))
    for j in range(d):
        comps = list(mi.components)
        comps[j] += 2
        out += 0.5 * kernel_moment(kernel, 2, axis=j) * density.partial(tuple(comps), pts)
    return out


def bias_sup_bound(kernel: KernelModel, q: int, deriv_sup: float) -> float:
    """Uniform bias bound per unit of bias_normalizer, valid at every n.

    sup_x |E f_n - target| <= (deriv_sup / q!) int ||z||^q |K(z)| dz
    * bias_normalizer(n), where deriv_sup bounds the q-th directional
    derivatives of the target.  A Taylor-Lagrange remainder gives the
    inequality for each term of the sum separately, hence for all n, not
    only in the limit.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if deriv_sup < 0:
        raise ValueError("derivative sup bound must be nonnegative")
    return deriv_sup / math.factorial(q) * norm_moment(kernel, q)
