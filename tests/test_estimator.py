import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from recdev.bandwidth import BandwidthSchedule
from recdev.densities import GaussianDensity
from recdev.estimator import (
    RecursiveEstimator,
    _block_rows,
    batch_values,
    bias_normalizer,
    bias_sup_bound,
    expected_estimate,
)
from recdev.kernels import KernelModel, builtin_kernel, kernel_moment
from recdev.numerics import NeumaierSum

SCHED = BandwidthSchedule(kind="power", c=0.7, a=0.3)
# observations per deferred block on a 20-point grid
BLOCK_20 = _block_rows(20)


def bias_ratio_limit(kernel, density, q, points):
    """Limit of bias / bias_normalizer in d = 1: ((-1)^q / q!) m_q(K) f^(q)(x).

    For symmetric kernels the lower Taylor terms integrate to zero, so the
    normalized bias of the plain density estimate converges to this, e.g.
    m_2(K) f''(x)/2 for q = 2.
    """
    return ((-1) ** q / math.factorial(q)) * kernel_moment(kernel, q) * density.partial((q,), points)


def _naive(kernel, schedule, X, grid, alpha=None):
    # direct transcription of the defining average, one term at a time
    d = kernel.dimension
    p = d + (sum(alpha) if alpha else 0)
    alpha = alpha if alpha is not None else (0,) * d
    out = np.zeros(len(grid))
    for xi, h in zip(X, schedule.values(len(X))):
        out += kernel.deriv_eval(alpha, (grid - xi) / h) / h**p
    return out / len(X)


@pytest.mark.parametrize("d,alpha", [(1, None), (1, (1,)), (2, None), (2, (1, 0))])
def test_streaming_equals_batch_equals_naive(d, alpha):
    rng = np.random.Generator(np.random.Philox(key=np.array([3, 0], dtype=np.uint64)))
    kernel = builtin_kernel("gaussian", d)
    # keep a (d + 2|alpha|) < 1 across every parametrization
    sched = BandwidthSchedule(kind="power", c=0.7, a=0.2)
    X = rng.normal(size=(400, d))
    grid = rng.normal(size=(7, d))
    est = RecursiveEstimator(kernel, sched, grid, alpha=alpha)
    for row in X:
        est.update(row)
    stream = est.values()
    batch = batch_values(kernel, sched, X, grid, alpha=alpha)
    naive = _naive(kernel, sched, X, grid, alpha=alpha)
    assert_allclose(stream, batch, rtol=0, atol=1e-12)
    assert_allclose(stream, naive, rtol=0, atol=1e-12)


# kernel, d, alpha; a = 0.2 keeps a (d + 2|alpha|) < 1 for each
_STREAM_SETUPS = [
    ("gaussian", 1, None),
    ("gaussian", 1, (1,)),
    ("gaussian", 2, (1, 0)),
    ("epanechnikov", 1, None),
    ("quartic", 2, None),
]
_STREAM_SCHED = BandwidthSchedule(kind="power", c=0.7, a=0.2)


@functools.lru_cache(maxsize=None)
def _per_observation_reads(name, d, alpha):
    """Sample, grid and the read after every observation, one kernel call per observation."""
    kernel = builtin_kernel(name, d)
    rng = np.random.Generator(np.random.Philox(key=np.array([21, d], dtype=np.uint64)))
    grid = rng.normal(size=(20, d))
    X = rng.normal(size=(2 * BLOCK_20 + 3, d))
    p = d + (sum(alpha) if alpha else 0)
    # h and h**p as arrays: ** on a numpy scalar rounds differently
    h = _STREAM_SCHED.values(len(X))
    hp = h**p
    acc = NeumaierSum(shape=(len(grid),))
    reads = []
    for i, x in enumerate(X, start=1):
        acc.add(kernel.deriv_eval(alpha, (grid - x) / h[i - 1]) / hp[i - 1])
        reads.append(acc.total / i)
    return X, grid, reads


@pytest.mark.parametrize("every", [1, 7, 100, None])
@pytest.mark.parametrize("name,d,alpha", _STREAM_SETUPS)
def test_streaming_reads_are_bit_identical_to_per_observation_updates(name, d, alpha, every):
    # deferring the kernel work to the read changes no bit, whatever the cadence
    X, grid, reads = _per_observation_reads(name, d, alpha)
    est = RecursiveEstimator(builtin_kernel(name, d), _STREAM_SCHED, grid, alpha=alpha)
    for i, x in enumerate(X, start=1):
        est.update(x)
        if every and i % every == 0:
            assert est.values().tobytes() == reads[i - 1].tobytes()
    assert est.values().tobytes() == reads[-1].tobytes()


def test_update_batch_matches_single_updates():
    kernel = builtin_kernel("epanechnikov", 1)
    rng = np.random.Generator(np.random.Philox(key=np.array([4, 0], dtype=np.uint64)))
    grid = np.linspace(-2, 2, 5).reshape(-1, 1)
    block = _block_rows(len(grid))
    X = rng.normal(size=(block + 40, 1))
    one = RecursiveEstimator(kernel, SCHED, grid)
    for row in X:
        one.update(row)
    # splits inside, just before, at and just after the first deferred block
    for split in (37, block - 1, block, block + 1):
        many = RecursiveEstimator(kernel, SCHED, grid)
        many.update_batch(X[:split])
        many.update_batch(X[split:])
        assert many.count == one.count == len(X)
        assert many.values().tobytes() == one.values().tobytes()


def test_estimator_is_order_sensitive():
    # h_i attaches to arrival order, so permuting the stream moves the value
    kernel = builtin_kernel("gaussian", 1)
    X = np.array([[0.0], [2.0], [-1.0], [0.5]])
    grid = np.array([[0.0]])
    fwd = batch_values(kernel, SCHED, X, grid)
    rev = batch_values(kernel, SCHED, X[::-1], grid)
    assert abs(fwd[0] - rev[0]) > 1e-6


def _fed(d, inputs):
    """A d-dimensional estimator on a 5-point grid after one update per input."""
    grid = np.linspace(-1.0, 1.0, 5 * d).reshape(5, d)
    est = RecursiveEstimator(builtin_kernel("gaussian", d), SCHED, grid)
    for x in inputs:
        est.update(x)
    return est


_ACCEPTED = [
    (1, 0.3),
    (1, 3),
    (1, np.float64(0.3)),
    (1, np.float32(0.3)),
    (1, np.array(0.3)),
    (1, np.array([0.3])),
    (1, [0.3]),
    (2, [0.3, -0.5]),
    (2, np.array([[0.3, -0.5]])),
]
_REFUSED = [
    (1, [0.3, -0.5]),
    (2, 0.3),
    (1, "abc"),
    (1, math.nan),
    (1, np.float64(-math.inf)),
    (1, None),
    (2, [0.3, math.nan]),
    (1, True),
    (1, False),
    (1, np.True_),
    (1, [True]),
    (2, [0.3, True]),
]


@pytest.mark.parametrize(
    "d,x,accepted",
    [(d, x, True) for d, x in _ACCEPTED] + [(d, x, False) for d, x in _REFUSED],
    ids=[f"{'ok' if ok else 'refused'}-d{d}-{type(x).__name__}-{x!r}"
         for ok, cases in ((True, _ACCEPTED), (False, _REFUSED)) for d, x in cases],
)
def test_update_routes_store_the_general_routes_float64(d, x, accepted):
    # a d = 1 scalar skips np.asarray but stores the same bits; a refused
    # input raises at its own call and leaves the count and pending rows
    before, after = [0.1] * d, [-0.7] * d
    est = _fed(d, [before])
    if accepted:
        est.update(x)
        ref = _fed(d, [before, np.asarray(x, dtype=np.float64).reshape(d)])
    else:
        with pytest.raises(ValueError):
            est.update(x)
        assert est.count == 1
        ref = _fed(d, [before])
    est.update(after)
    ref.update(after)
    assert est.count == ref.count
    assert est.values().tobytes() == ref.values().tobytes()


def test_non_finite_observations_are_refused_everywhere():
    # a NaN would poison every later read and an infinity would count as an
    # observation with zero terms, so neither is recorded
    kernel = builtin_kernel("gaussian", 1)
    grid = np.linspace(-2.0, 2.0, 20).reshape(-1, 1)
    clean = np.array([0.2, -0.4, 1.1])
    for bad in (math.nan, math.inf, -math.inf):
        est = RecursiveEstimator(kernel, SCHED, grid)
        est.update_batch(clean[:2])
        with pytest.raises(ValueError, match="finite"):
            est.update(bad)
        with pytest.raises(ValueError, match="finite"):
            est.update_batch([clean[2], bad])
        assert est.count == 2
        est.update(clean[2])
        ref = RecursiveEstimator(kernel, SCHED, grid)
        ref.update_batch(clean)
        assert est.values().tobytes() == ref.values().tobytes()
        with pytest.raises(ValueError, match="finite"):
            batch_values(kernel, SCHED, np.append(clean, bad), grid)


@pytest.mark.parametrize("d, x", [(1, 10**400), (1, [10**400]), (2, [0.1, 10**400])],
                         ids=["scalar_route", "general_route", "d2"])
def test_an_int_beyond_the_float_range_is_refused_as_non_finite(d, x):
    # float(x) and np.asarray(x, float64) raise OverflowError on such an int
    kernel = builtin_kernel("gaussian", d)
    est = RecursiveEstimator(kernel, SCHED, np.zeros((3, d)))
    est.update(np.full(d, 0.2))
    with pytest.raises(ValueError, match="finite"):
        est.update(x)
    with pytest.raises(ValueError, match="finite"):
        est.update_batch([x])
    assert (est.count, est._pending) == (1, 1)
    ref = RecursiveEstimator(kernel, SCHED, np.zeros((3, d)))
    ref.update(np.full(d, 0.2))
    assert est.values().tobytes() == ref.values().tobytes()


def test_booleans_are_refused_in_batches_of_observations_and_grid_points():
    kernel = builtin_kernel("gaussian", 1)
    # update(True) and update(np.True_) are among test_update_routes_store_the_general_routes_float64's refusals
    est = RecursiveEstimator(kernel, SCHED, np.zeros((3, 1)))
    with pytest.raises(ValueError, match=r"^observations must be a list of numbers; got \[0.2, True\]$"):
        est.update_batch([0.2, True])
    assert (est.count, est._pending) == (0, 0)
    with pytest.raises(ValueError, match="observations must be a list of numbers"):
        batch_values(kernel, SCHED, [True, 0.2], [0.0])
    with pytest.raises(ValueError, match="grid points must be a list of numbers"):
        RecursiveEstimator(kernel, SCHED, [0.0, False])


def test_a_non_finite_mean_point_is_a_usage_error_not_a_quadrature_failure():
    # a NaN point used to reach the level check and fail it as QuadratureError
    kernel = builtin_kernel("gaussian", 1)
    density = GaussianDensity(mean=[0.0], sigma=[1.0])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"^points must be finite; got {bad}$"):
            expected_estimate(kernel, SCHED, density, 10, [0.0, bad])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_grid_points_are_refused_on_both_routes(bad):
    kernel = builtin_kernel("gaussian", 1)
    grid = [[0.0], [bad]]
    with pytest.raises(ValueError, match="grid points must be finite"):
        RecursiveEstimator(kernel, SCHED, grid)
    with pytest.raises(ValueError, match="grid points must be finite"):
        batch_values(kernel, SCHED, [0.1, 0.2], grid)


def test_values_requires_data_and_reset_clears():
    kernel = builtin_kernel("gaussian", 1)
    est = RecursiveEstimator(kernel, SCHED, np.array([[0.0]]))
    with pytest.raises(ValueError):
        est.values()
    est.update(np.array([0.3]))
    assert est.count == 1
    est.reset()
    assert est.count == 0
    with pytest.raises(ValueError):
        est.values()
    # reset with observations still pending drops them too
    est.update(np.array([0.3]))
    est.values()
    est.update(np.array([5.0]))
    est.update(np.array([-1.0]))
    est.reset()
    with pytest.raises(ValueError):
        est.values()
    fresh = RecursiveEstimator(kernel, SCHED, np.array([[0.0]]))
    for x in (0.1, -0.4, 0.7):
        est.update(np.array([x]))
        fresh.update(np.array([x]))
    assert est.count == fresh.count == 3
    assert est.values().tobytes() == fresh.values().tobytes()


def test_kernel_error_drops_the_pending_rows_and_keeps_the_estimator_usable():
    # a custom kernel that fails on one marked observation: the error
    # surfaces at the read (or at the update that fills the block), those
    # rows stay counted without terms, and later updates and reads work
    base = builtin_kernel("epanechnikov", 1)

    def fn(mi, pts):
        if np.any(np.abs(pts) > 1e6):
            raise ValueError("marked observation")
        return base.fn(mi, pts)

    kernel = dataclasses.replace(base, name="failing", fn=fn)
    grid = np.linspace(-2.0, 2.0, 20).reshape(-1, 1)

    def term(i, x):
        h = SCHED.values(i)[-1]
        return base.eval((grid - x) / h) / h

    est = RecursiveEstimator(kernel, SCHED, grid)
    est.update(0.1)
    est.values()
    est.update(1e9)
    with pytest.raises(ValueError, match="marked"):
        est.values()
    est.update(0.2)
    acc = NeumaierSum(shape=(len(grid),))
    acc.add(term(1, 0.1))
    acc.add(term(3, 0.2))
    assert est.count == 3
    assert est.values().tobytes() == (acc.total / 3).tobytes()

    # the marked row fills the block: the update raises, the block is dropped
    est = RecursiveEstimator(kernel, SCHED, grid)
    for _ in range(BLOCK_20 - 1):
        est.update(0.1)
    with pytest.raises(ValueError, match="marked"):
        est.update(1e9)
    est.update(0.2)
    acc = NeumaierSum(shape=(len(grid),))
    acc.add(term(BLOCK_20 + 1, 0.2))
    assert est.count == BLOCK_20 + 1
    assert est.values().tobytes() == (acc.total / (BLOCK_20 + 1)).tobytes()


def test_update_batch_drops_a_failing_block_like_single_updates():
    # the batch copies rows block by block; a kernel error at a full block
    # leaves the count and the later state that one update per row leaves
    base = builtin_kernel("epanechnikov", 1)

    def fn(mi, pts):
        if np.any(np.abs(pts) > 1e6):
            raise ValueError("marked observation")
        return base.fn(mi, pts)

    kernel = dataclasses.replace(base, name="failing", fn=fn)
    grid = np.linspace(-2.0, 2.0, 20).reshape(-1, 1)
    X = np.full(2 * BLOCK_20 + 5, 0.1)
    X[BLOCK_20 + 3] = 1e9
    one, many = RecursiveEstimator(kernel, SCHED, grid), RecursiveEstimator(kernel, SCHED, grid)
    with pytest.raises(ValueError, match="marked"):
        for x in X:
            one.update(x)
    with pytest.raises(ValueError, match="marked"):
        many.update_batch(X)
    assert many.count == one.count == 2 * BLOCK_20
    for est in (one, many):
        est.update_batch(X[2 * BLOCK_20 :])
    assert many.values().tobytes() == one.values().tobytes()


def test_pending_observations_stay_within_the_block():
    # memory is bounded by one block, however many updates go unread
    kernel = builtin_kernel("gaussian", 1)
    grid = np.linspace(-2.0, 2.0, 20).reshape(-1, 1)
    X = np.random.default_rng(8).standard_normal(20 * BLOCK_20)
    peaks = []
    for n in (5 * BLOCK_20, 20 * BLOCK_20):
        tracemalloc.start()
        try:
            est = RecursiveEstimator(kernel, SCHED, grid)
            for x in X[:n]:
                est.update(x)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert est.count == n
    assert max(peaks) <= 5e6
    assert abs(peaks[1] - peaks[0]) <= 0.01 * peaks[0]


def test_streaming_reads_evaluate_through_deriv_eval(monkeypatch):
    # the kernel work of a read goes through KernelModel.deriv_eval, the
    # entry point that per-layer kernel timings wrap: one call per block
    seen = []
    original = KernelModel.deriv_eval

    def counting(self, alpha, points):
        seen.append(len(points))
        return original(self, alpha, points)

    monkeypatch.setattr(KernelModel, "deriv_eval", counting)
    grid = np.linspace(-2.0, 2.0, 20).reshape(-1, 1)
    est = RecursiveEstimator(builtin_kernel("gaussian", 1), SCHED, grid)
    for x in np.linspace(-1.0, 1.0, 2 * BLOCK_20 + 3):
        est.update(x)
    assert len(seen) == 2  # the two full blocks
    est.values()
    assert seen == [20 * BLOCK_20, 20 * BLOCK_20, 20 * 3]


@given(st.integers(min_value=1, max_value=60))
@settings(max_examples=20, deadline=None)
def test_streaming_prefix_consistency(n):
    # after n updates the state equals a fresh batch over the first n rows
    kernel = builtin_kernel("gaussian", 1)
    rng = np.random.Generator(np.random.Philox(key=np.array([9, 0], dtype=np.uint64)))
    X = rng.normal(size=(n, 1))
    grid = np.array([[0.0], [0.8]])
    est = RecursiveEstimator(kernel, SCHED, grid)
    est.update_batch(X)
    assert_allclose(est.values(), batch_values(kernel, SCHED, X, grid), atol=1e-13)


def test_expected_estimate_gaussian_convolution_oracle():
    from scipy.stats import norm

    # K and f standard normal: E K_h * f at x is a normal pdf with the
    # bandwidth folded into the variance, averaged over the schedule
    kernel = builtin_kernel("gaussian", 1)
    f = GaussianDensity(mean=[0.0], sigma=[1.0])
    n = 50
    hs = SCHED.values(n)
    for x in (0.0, 0.9):
        ref = np.mean(norm.pdf(x, scale=np.sqrt(1.0 + hs**2)))
        ours = expected_estimate(kernel, SCHED, f, n, np.array([[x]]))[0]
        assert_allclose(ours, ref, rtol=1e-11)


def test_expected_estimate_derivative_case():
    from scipy.stats import norm

    kernel = builtin_kernel("gaussian", 1)
    f = GaussianDensity(mean=[0.0], sigma=[1.0])
    n = 30
    hs = SCHED.values(n)
    x = 0.4
    # differentiating the smoothed density: mean of N(0, 1 + h_i^2) slopes
    s2 = 1.0 + hs**2
    ref = np.mean(-x / s2 * norm.pdf(x, scale=np.sqrt(s2)))
    ours = expected_estimate(kernel, SCHED, f, n, np.array([[x]]), alpha=(1,))[0]
    assert_allclose(ours, ref, rtol=1e-10)


def test_bias_normalizer():
    n = 1000
    expected = math.fsum(SCHED.values(n) ** 2) / n
    assert_allclose(bias_normalizer(SCHED, 2, n), expected, rtol=1e-13)


def test_bias_ratio_limit_gaussian():
    kernel = builtin_kernel("gaussian", 1)
    f = GaussianDensity(mean=[0.0], sigma=[1.0])
    lim = bias_ratio_limit(kernel, f, 2, np.array([[0.0]]))[0]
    # ((-1)^2/2!) m_2(K) f''(0) with m_2 = 1
    assert_allclose(lim, -1.0 / (2 * math.sqrt(2 * math.pi)), rtol=1e-12)


def test_bias_ratio_converges_to_limit():
    kernel = builtin_kernel("gaussian", 1)
    f = GaussianDensity(mean=[0.0], sigma=[1.0])
    pt = np.array([[0.0]])
    lim = bias_ratio_limit(kernel, f, 2, pt)[0]
    errs = []
    for n in (200, 2000, 20000):
        ratio = (expected_estimate(kernel, SCHED, f, n, pt)[0] - f.pdf(pt)[0]) / bias_normalizer(
            SCHED, 2, n
        )
        errs.append(abs(ratio - lim))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.02 * abs(lim)


def test_bias_sup_bound_holds_at_every_n():
    kernel = builtin_kernel("gaussian", 1)
    f = GaussianDensity(mean=[0.0], sigma=[1.0])
    m2 = f.max_abs_derivative(2)
    bound = bias_sup_bound(kernel, 2, m2)
    assert_allclose(bound, m2 / 2.0, rtol=1e-9)  # gaussian second abs moment is 1
    grid = np.linspace(-2.5, 2.5, 11).reshape(-1, 1)
    targets = f.pdf(grid)
    for n in (1, 7, 100, 500):
        sup_norm = np.max(
            np.abs(expected_estimate(kernel, SCHED, f, n, grid) - targets)
        ) / bias_normalizer(SCHED, 2, n)
        assert sup_norm <= bound * (1 + 1e-9)


def test_bias_sup_bound_refuses_an_order_or_a_sup_it_cannot_use():
    kernel = builtin_kernel("gaussian", 1)
    assert math.isfinite(bias_sup_bound(kernel, 170, 1.0))  # the largest q whose q! is a float
    with pytest.raises(ValueError, match="q=171"):
        bias_sup_bound(kernel, 171, 1.0)
    for sup in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="derivative sup bound"):
            bias_sup_bound(kernel, 2, sup)


def test_bias_ratio_limit_vanishes_at_inflection():
    # at |x| = 1 the second derivative of the standard normal is zero
    kernel = builtin_kernel("gaussian", 1)
    f = GaussianDensity(mean=[0.0], sigma=[1.0])
    lim = bias_ratio_limit(kernel, f, 2, np.array([[1.0]]))[0]
    assert abs(lim) < 1e-14
