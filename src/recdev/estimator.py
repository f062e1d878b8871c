"""Streaming kernel estimator with per-observation bandwidths.

The estimator of the alpha-partial of a density f from observations
X_1, X_2, ... is

    f_n(x) = (1/n) sum_{i<=n} h_i^-(d+|alpha|) (d^alpha K)((x - X_i)/h_i),

with h_i = `BandwidthSchedule.at(i)` a decreasing bandwidth schedule.  Each
observation enters with the bandwidth of its arrival index and never
revisits history; the price is that the estimate depends on the observation
order (a permutation of the sample changes the value).  An update only
records the observation; the kernel work for all pending observations runs
as one block of at most `numerics.BLOCK_ENTRIES` evaluations at the next
read (or when the block fills), and the block's rows are folded into the
running sums in arrival order, so every read is bit for bit what one kernel
call and one sum step per observation would give.  Running sums are
compensated, so long streams do not lose the small late terms against the
large early ones.

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
from .numerics import BLOCK_ENTRIES, NeumaierSum, refine

# two quadrature levels of the exact mean must agree to this gap, relative
# once the mean exceeds 1
_MEAN_TOL = 1e-9


def _block_rows(m: int) -> int:
    """Observations per block of BLOCK_ENTRIES kernel evaluations on m points."""
    return max(1, BLOCK_ENTRIES // max(m, 1))


class RecursiveEstimator:
    """Order-sensitive streaming estimator on a fixed evaluation grid.

    `update` records an observation in O(1); the kernel work is deferred to
    the next `values()` read, or to the update that fills the block of
    `BLOCK_ENTRIES // len(grid)` pending observations, whichever comes
    first.  A read therefore costs at most one block evaluation, and a
    custom kernel's `eval_fn` error surfaces at `values()` (or at the update
    that fills the block), not at the update that supplied the observation;
    the pending observations stay counted, their terms are dropped, and the
    estimator stays usable.
    The deferral pays off when several observations arrive between reads.
    On a 20-point gaussian grid (2-vCPU x86 host) a read after every update
    costs about 40 us per observation, twice the cost of evaluating each
    observation as it arrives, as each read runs the block route's numpy
    calls for one row; reading every 10 or 100 updates costs 5-7 or 2-3 us
    (no CLI command streams; this concerns library callers).
    Pending rows are bounded by the block, so memory does not grow with the
    stream.
    """

    def __init__(self, kernel: KernelModel, schedule: BandwidthSchedule, grid, alpha=None):
        self.kernel = kernel
        self.schedule = schedule
        self.alpha = as_multi_index(alpha, kernel.dimension)
        schedule.check_compatible(kernel.dimension, self.alpha.order)
        self.grid, _ = as_points(grid, kernel.dimension)
        # resolved once: _flush() runs per block
        self._kernel_fn = kernel.partial_fn(self.alpha)
        self._power = kernel.dimension + self.alpha.order
        m, d = self.grid.shape
        rows = _block_rows(m)
        # pending observations and the kernel arguments (grid - X) / h of
        # the whole block
        self._X = np.empty((rows, d))
        self._z = np.empty((rows, m, d))
        self.reset()

    def reset(self) -> None:
        """Forget every observation, pending ones included."""
        self._sum = NeumaierSum(shape=(len(self.grid),))
        self._pending = 0
        self.count = 0

    def update(self, x) -> None:
        """Record one observation in O(1), independent of history.

        A malformed x raises here.  The kernel work runs at the next
        `values()`, or here when this observation fills the pending block.
        """
        x = np.asarray(x, dtype=np.float64).reshape(self.kernel.dimension)
        self.count += 1
        self._X[self._pending] = x
        self._pending += 1
        if self._pending == len(self._X):
            self._flush()

    def _flush(self) -> None:
        """Evaluate the pending rows in one kernel call and fold them in order."""
        # cleared first: if the kernel raises, the rows are counted but
        # dropped, and later updates still find room in the block
        k, self._pending = self._pending, 0
        if k == 0:
            return
        h = self.schedule.at(np.arange(self.count - k + 1, self.count + 1, dtype=np.float64))
        z = self._z[:k]
        np.subtract(self.grid, self._X[:k, None, :], out=z)
        z /= h[:, None, None]
        vals = self._kernel_fn(z.reshape(-1, z.shape[-1])).reshape(k, -1)
        vals /= (h**self._power)[:, None]
        self._sum.add_rows(vals)

    def update_batch(self, X) -> None:
        """Fold in rows of X in order (order matters; see module docstring)."""
        X, _ = as_points(X, self.kernel.dimension)
        for row in X:
            self.update(row)

    def values(self) -> np.ndarray:
        """Current estimate on the grid; raises before any observation.

        Evaluates the observations pending since the last read first, in one
        block, so a read costs up to one block evaluation.
        """
        if self.count == 0:
            raise ValueError("estimator has no observations yet")
        self._flush()
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
    step = _block_rows(len(pts))
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
