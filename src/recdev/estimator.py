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
large early ones.  The kernel term h_i^-(d+|alpha|) (d^alpha K)((x - X_i)/h_i)
of a block is `kernel_terms`, which the Monte Carlo harness in `deviations`
calls too, so the simulated estimator is this one's arithmetic.

Also provided: a closed-batch evaluation used as an independent test
oracle (its own kernel and summation code), the exact mean E f_n under a
known sampling density, and the bias normalizer and uniform bias bound
used in convergence studies.  `support_sum` is the one engine behind E f_n
and the finite-n cumulant L_n of `cgf`: a kernel-support quadrature per
bandwidth, summed over i <= n by `bandwidth.bandwidth_sum` (a Chebyshev
interpolant in log h whose cost does not grow with n, or the direct sum),
each element's two quadrature levels checked by `numerics.refine_each`.
"""

from __future__ import annotations

import math

import numpy as np

from .bandwidth import SUM_BLOCK_ENTRIES, BandwidthSchedule, bandwidth_sum
from .densities import Density
from .kernels import (
    KernelModel,
    as_multi_index,
    as_points,
    derivative_index,
    kernel_quadrature,
    norm_moment,
)
from .numerics import BLOCK_ENTRIES, NeumaierSum, as_count, finite_array, is_real, refine_each

# two quadrature levels of each point's exact mean must agree to this gap,
# relative once that mean exceeds 1
_MEAN_TOL = 1e-9


def _block_rows(m: int) -> int:
    """Observations per block of BLOCK_ENTRIES kernel evaluations on m points."""
    return max(1, BLOCK_ENTRIES // max(m, 1))


def kernel_terms(kernel: KernelModel, alpha, x, X, h, hp, out) -> np.ndarray:
    """h^-p (d^alpha K)((x - X) / h), the kernel term of each observation X at x.

    x - X is written into `out` (shape (..., d)) and divided there by h,
    which broadcasts against out's leading shape; the kernel values, of
    that leading shape, are divided by hp = h**p.  The streaming estimator
    and the Monte Carlo harness both call this, so a term has the same bits
    on either route.
    """
    np.subtract(x, X, out=out)
    out /= h[..., None]
    vals = kernel.deriv_eval(alpha, out.reshape(-1, out.shape[-1])).reshape(out.shape[:-1])
    vals /= hp
    return vals


class RecursiveEstimator:
    """Order-sensitive streaming estimator on a fixed evaluation grid.

    `update` records an observation in O(1); the kernel work is deferred to
    the next `values()` read, or to the update that fills the block of
    `BLOCK_ENTRIES // len(grid)` pending observations, whichever comes
    first.  A read therefore costs at most one block evaluation, and a
    custom kernel's `fn` error surfaces at `values()` (or at the update
    that fills the block), not at the update that supplied the observation;
    the pending observations stay counted, their terms are dropped, and the
    estimator stays usable.
    The deferral pays off when several observations arrive between reads.
    On a 20-point gaussian grid (2-vCPU x86 host, 20,000 observations, best
    of 3) a read after every update costs 48-50 us per observation, as each
    read runs the block route's numpy calls, `KernelModel.deriv_eval`
    included, for one row; reading every 10 or 100 updates costs 6-7 or
    1.7-2.0 us, of which the update itself is about 0.6 us for a scalar
    (no CLI command streams; this concerns library callers).
    Pending rows are bounded by the block, so memory does not grow with the
    stream.
    """

    def __init__(self, kernel: KernelModel, schedule: BandwidthSchedule, grid, alpha=None):
        self.kernel = kernel
        self.schedule = schedule
        self.alpha = derivative_index(alpha, kernel, "kernel")
        schedule.check_compatible(kernel.dimension, self.alpha.order)
        self.grid, _ = as_points(finite_array(grid, "grid points"), kernel.dimension)
        self._power = kernel.dimension + self.alpha.order
        m, d = self.grid.shape
        self._rows = _block_rows(m)
        # pending observations and the kernel arguments (grid - X) / h of
        # the whole block; in d = 1 a scalar is stored through a flat view
        self._X = np.empty((self._rows, d))
        self._x1 = self._X.reshape(-1) if d == 1 else None
        self._z = np.empty((self._rows, m, d))
        self.reset()

    def reset(self) -> None:
        """Forget every observation, pending ones included."""
        self._sum = NeumaierSum(shape=(len(self.grid),))
        self._pending = 0
        self.count = 0

    def update(self, x) -> None:
        """Record one observation in O(1), independent of history.

        In d = 1, a float (`np.float64` included) is taken by `float(x)`;
        any other x, in any d, is read by `numerics.finite_array` and must
        reshape to d values (in d = 1 an int, an `np.float32`, a 0-d array,
        `[x]`, `np.array([x])`).
        Both routes store the same float64.  A malformed x raises here, a
        bool, a non-number, a NaN, an infinity or an int beyond the float
        range as ValueError, and `count` and the pending rows do not
        change.  The kernel work runs at the next `values()`, or here when
        this observation fills the pending block.
        """
        # a float is never a bool and float() takes it whole, so finiteness is its one check
        if self._x1 is not None and isinstance(x, float):
            x = float(x)
            if not math.isfinite(x):
                raise ValueError(f"observation must be finite; got {x!r}")
            self._x1[self._pending] = x
        else:
            self._X[self._pending] = finite_array(x, "observation").reshape(self.kernel.dimension)
        self.count += 1
        self._pending += 1
        if self._pending == self._rows:
            self._flush()

    def _flush(self) -> None:
        """Evaluate the pending rows in one kernel call and fold them in order."""
        # cleared first: if the kernel raises, the rows are counted but
        # dropped, and later updates still find room in the block
        k, self._pending = self._pending, 0
        if k == 0:
            return
        h = self.schedule.at(np.arange(self.count - k + 1, self.count + 1, dtype=np.float64))
        hp = h**self._power
        vals = kernel_terms(
            self.kernel, self.alpha, self.grid, self._X[:k, None, :], h[:, None], hp[:, None], self._z[:k]
        )
        self._sum.add_rows(vals)

    def update_batch(self, X) -> None:
        """Fold in rows of X in order (order matters; see module docstring).

        Bit-identical to one `update` per row: the rows are copied into the
        pending block, which is evaluated each time it fills.  An entry that
        `numerics.finite_array` refuses raises ValueError before any row is
        recorded.
        """
        X, _ = as_points(finite_array(X, "observations"), self.kernel.dimension)
        i = 0
        while i < len(X):
            k = min(len(X) - i, self._rows - self._pending)
            self._X[self._pending : self._pending + k] = X[i : i + k]
            self.count += k
            self._pending += k
            i += k
            if self._pending == self._rows:
                self._flush()

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
    X, _ = as_points(finite_array(X, "observations"), kernel.dimension)
    pts, _ = as_points(finite_array(grid, "grid points"), kernel.dimension)
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


def support_sum(kernel, schedule, density, n, count, nodes, width, weight, tol, what,
                alpha=None, post=None, centre=None) -> np.ndarray:
    """weight * sum_{i<=n} F_j(h_i) for each of `count` elements j, refined by quadrature level.

    F_j(h) is a kernel-support quadrature.  At levels 1 and 2 of
    `kernel_quadrature` (nodes y, weights w), `nodes(idx, y, w)` gives the
    points x of the open elements idx and contract(h, s, g), which maps the
    density's alpha-partial g at x - h y[s], shape (len(h), len(y[s]),
    len(x)), to rows (len(h), len(idx)).  The nodes run in chunks of
    SUM_BLOCK_ENTRIES // width (`width`: temporaries per node and
    bandwidth), the rows of the chunks are added, mapped by post(h, rows)
    if given, summed over i by `bandwidth_sum` and less `centre` if given.
    `refine_each` then holds each element to `tol`; the first failure
    raises its QuadratureError naming `what`.
    """
    kstep = max(1, SUM_BLOCK_ENTRIES // width)

    def at_level(idx, level):
        y, w = kernel_quadrature(kernel, level=level)
        x, contract = nodes(idx, y, w)

        def terms(hb):
            rows = np.zeros((len(hb), len(idx)))
            for k0 in range(0, len(y), kstep):
                s = slice(k0, k0 + kstep)
                args = x[None, None, :, :] - hb[:, None, None, None] * y[None, s, None, :]
                g = density.partial(alpha, args.reshape(-1, x.shape[1])).reshape(len(hb), -1, len(x))
                rows += contract(hb, s, g)
            return rows if post is None else post(hb, rows)

        out = bandwidth_sum(schedule, n, terms, min(len(y), kstep) * width, weight)
        return out if centre is None else out - centre[idx]

    out, _, failed = refine_each(at_level, count, (1, 2), tol, what)
    if failed:
        raise failed[min(failed)]
    return out


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
    variable keeps every factor bounded (no h^-|alpha| appears).  This is
    `support_sum` with the node factor w K(y); each point's two levels must
    agree within `_MEAN_TOL` (relative above 1).  Returns shape (m,).
    """
    mi = as_multi_index(alpha, kernel.dimension)
    pts, _ = as_points(finite_array(points, "points"), kernel.dimension)
    n = as_count(n, "n")

    def nodes(idx, y, w):
        wk = w * kernel.partial_fn(None)(y)
        return pts[idx], lambda hb, s, g: np.einsum("k,bkm->bm", wk[s], g)

    # per node, a block's arguments x - h y hold all m points' d coordinates
    return support_sum(kernel, schedule, density, n, len(pts), nodes, pts.size, 1.0 / n,
                       _MEAN_TOL, "mean-estimate quadrature", alpha=mi.components)


def bias_normalizer(schedule: BandwidthSchedule, q: int, n: int) -> float:
    """(1/n) sum_{i<=n} h_i^q, the scale on which the bias stabilises."""
    if q < 1:
        raise ValueError("q must be >= 1")
    return schedule.prefix_sum(float(q), n) / n


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
    if q > 170:  # 171! exceeds the float range
        raise ValueError(f"q must be at most 170, so that q! is a float; got q={q}")
    if not (is_real(deriv_sup) and deriv_sup >= 0):
        raise ValueError(f"derivative sup bound must be finite and nonnegative; got {deriv_sup!r}")
    return deriv_sup / math.factorial(q) * norm_moment(kernel, q)
