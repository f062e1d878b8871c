"""The Chebyshev bandwidth sum against direct O(n) sums over the sequence.

`_direct_mean` and `_direct_term1` are the chunked loops that
`expected_estimate` and the finite-n cumulant ran before
`bandwidth.bandwidth_sum` replaced them, kept here at the returned
quadrature level (2) as oracles.  Their rows are summed with `math.fsum`:
the einsum accumulation of the old loops drifts by up to 1.8e-12 from the
exact sum at n = 1e5 (a constant box mean), more than the 1e-12 these
tests allow.  The tolerances were fixed before the interpolated sum was
written: 1e-12 absolute against the direct sums, 5e-15 against the
closed-form gaussian mean.
"""

import functools
import math
import tracemalloc

import numpy as np
import pytest

from recdev.bandwidth import (
    SUM_BLOCK_ENTRIES,
    SUM_TOL,
    BandwidthSchedule,
    ScalingSequence,
    bandwidth_sum,
)
from recdev.cgf import CgfSpec, cgf_finite_n
from recdev.densities import GaussianDensity, GaussianMixtureDensity, UniformBoxDensity
from recdev.estimator import expected_estimate
from recdev.kernels import as_multi_index, as_points, builtin_kernel, kernel_quadrature
from recdev.numerics import ROW_BLOCK_ENTRIES

ORACLE_TOL = 1e-12
LEVEL = 2  # the level both routines return after their two-level check

DENSITIES = {
    "gaussian": GaussianDensity([0.0], [1.0]),
    "mixture": GaussianMixtureDensity([0.3, 0.7], [[-1.0], [1.5]], [[0.5], [1.2]]),
    "box": UniformBoxDensity([0.0], [1.0]),
}
POINTS = {"gaussian": [0.0, 0.9, -1.7], "mixture": [-1.0, 0.2, 1.5], "box": [0.3, 0.5, 0.7]}
# the box density is discontinuous, so its kernel-support quadrature meets
# the two-level check only while the bandwidths stay well inside the box
C = {"gaussian": 0.3, "mixture": 0.3, "box": 0.05}
KERNELS = ("gaussian", "epanechnikov", "quartic")
NS = (1, 31, 33, 5000, 100_000)
U = np.array([-20.0, 8.0])
REGIMES = {"ldp": ScalingSequence("constant_one"), "mdp": ScalingSequence("power", 0.1)}


def _fsum_rows(rows):
    rows = np.concatenate(rows)
    return np.array([math.fsum(rows[:, j]) for j in range(rows.shape[1])])


def _direct_mean(kernel, schedule, density, n, points, alpha=None):
    mi = as_multi_index(alpha, kernel.dimension)
    pts, _ = as_points(points, kernel.dimension)
    hs = schedule.values(n)
    y, w = kernel_quadrature(kernel, level=LEVEL)
    wk = w * kernel.eval(y)
    rows = []
    step = max(1, int(4_000_000 // max(len(y) * len(pts), 1)))
    for i0 in range(0, n, step):
        hb = hs[i0 : i0 + step]
        args = pts[None, None, :, :] - hb[:, None, None, None] * y[None, :, None, :]
        g = density.partial(mi.components, args.reshape(-1, kernel.dimension))
        rows.append(np.einsum("k,bkm->bm", wk, g.reshape(len(hb), len(y), len(pts))))
    return _fsum_rows(rows) / n


def _direct_term1(spec, u, n):
    kernel, schedule = spec.kernel, spec.schedule
    d = kernel.dimension
    p = d + spec.alpha.order
    hs = schedule.values(n)
    v_n = spec.scaling.value(n)
    a_n = schedule.prefix_sum(float(d + 2 * spec.alpha.order), n)
    y, w = kernel_quadrature(kernel, level=LEVEL)
    ky = kernel.deriv_eval(spec.alpha, y)
    theta_scale = a_n / (n * v_n)
    rows = []
    step = max(1, int(2_000_000 // max(len(y), 1)))
    for i0 in range(0, n, step):
        hb = hs[i0 : i0 + step]
        args = spec.point[None, None, :] - hb[:, None, None] * y[None, :, :]
        fw = spec.density.pdf(args.reshape(-1, d)).reshape(len(hb), len(y)) * w[None, :]
        theta = (u[:, None] * (theta_scale / hb**p)[None, :]).T
        m = np.einsum("iuk,ik->iu", np.expm1(theta[:, :, None] * ky[None, None, :]), fw)
        rows.append(np.log1p(hb[:, None] ** d * m))
    return (v_n * v_n / a_n) * _fsum_rows(rows)


def _schedule(dens, kind="power"):
    # i^-0.3 log(i + 1) peaks near 1.24, so power_log keeps h_i <= C
    return BandwidthSchedule(kind=kind, c=C[dens] / (1.25 if kind == "power_log" else 1.0), a=0.3)


@functools.lru_cache(maxsize=None)
def _oracle_mean(dens, kern, n, kind, alpha, d):
    kernel = builtin_kernel(kern, d)
    pts = np.tile(np.asarray(POINTS[dens])[:, None], (1, d))
    return _direct_mean(kernel, _schedule(dens, kind), _density(dens, d), n, pts, alpha)


def _density(dens, d):
    if d == 1:
        return DENSITIES[dens]
    return GaussianDensity([0.0] * d, [1.0] * d)


def _cases():
    # (density, kernel, n, schedule kind, alpha, dimension)
    out = [(dn, kn, n, "power", None, 1) for dn in DENSITIES for kn in KERNELS for n in NS]
    # the variants run at a size below the direct-sum threshold and one
    # above it; alpha = (1,) needs a differentiable kernel and density; in
    # d = 2 the direct oracle costs n x 16,384 nodes per point (331,776 for
    # the gaussian kernel, which is left out), so n stays at 1000
    for n in (33, 5000):
        out += [(dn, kn, n, "power_log", None, 1) for dn in DENSITIES for kn in KERNELS]
        out += [
            (dn, kn, n, "power", (1,), 1)
            for dn in ("gaussian", "mixture")
            for kn in ("gaussian", "quartic")
        ]
    for n in (33, 1000):
        out += [("gaussian", kn, n, "power", None, 2) for kn in ("epanechnikov", "quartic")]
    return out


CASES = _cases()


def _case_id(case):
    dn, kn, n, kind, alpha, d = case
    return f"{dn}-{kn}-n{n}-{kind}" + ("-alpha1" if alpha else "") + (f"-d{d}" if d > 1 else "")


@pytest.mark.parametrize("case", CASES, ids=[_case_id(c) for c in CASES])
def test_mean_matches_direct_sum(case):
    dn, kn, n, kind, alpha, d = case
    kernel = builtin_kernel(kn, d)
    pts = np.tile(np.asarray(POINTS[dn])[:, None], (1, d))
    ours = expected_estimate(kernel, _schedule(dn, kind), _density(dn, d), n, pts, alpha=alpha)
    ref = _oracle_mean(dn, kn, n, kind, alpha, d)
    assert np.max(np.abs(ours - ref)) <= ORACLE_TOL


@pytest.mark.parametrize("regime", sorted(REGIMES))
@pytest.mark.parametrize("case", CASES, ids=[_case_id(c) for c in CASES])
def test_finite_n_matches_direct_sum(case, regime):
    dn, kn, n, kind, alpha, d = case
    spec = CgfSpec(
        kernel=builtin_kernel(kn, d),
        schedule=_schedule(dn, kind),
        scaling=REGIMES[regime],
        density=_density(dn, d),
        point=[POINTS[dn][0]] * d,
        alpha=alpha,
    )
    ours = cgf_finite_n(spec, U, n)
    mean = _oracle_mean(dn, kn, n, kind, alpha, d)[0]
    ref = _direct_term1(spec, U, n) - U * spec.scaling.value(n) * mean
    assert np.max(np.abs(ours - ref)) <= ORACLE_TOL


def test_mean_matches_gaussian_convolution_closed_form():
    # K and f standard normal: each term is the N(0, 1 + h_i^2) pdf at x
    kernel = builtin_kernel("gaussian", 1)
    sched = BandwidthSchedule(kind="power", c=0.7, a=0.3)
    n = 8000
    xs = np.linspace(-2.0, 2.0, 9)
    ours = expected_estimate(kernel, sched, GaussianDensity([0.0], [1.0]), n, xs)
    hs = sched.values(n).tolist()
    for x, got in zip(xs, ours):
        terms = (math.exp(-x * x / (2.0 * (1.0 + h * h))) / math.sqrt(2.0 * math.pi * (1.0 + h * h)) for h in hs)
        assert abs(got - math.fsum(terms) / n) <= 5e-15


def test_box_density_near_its_edge_keeps_the_direct_value():
    # the gaussian kernel's tail crosses the box edge, so each term is a
    # step function of h; the sum must still be the direct one, not raise
    kernel = builtin_kernel("gaussian", 1)
    sched = BandwidthSchedule(kind="power", c=0.05, a=0.3)
    box = UniformBoxDensity([0.0], [1.0])
    pts = [0.3, 0.5, 0.7]
    ours = expected_estimate(kernel, sched, box, 2000, pts)
    ref = _direct_mean(kernel, sched, box, 2000, pts)
    assert np.max(np.abs(ours - ref)) <= ORACLE_TOL


def test_constant_schedule_sums_one_term():
    kernel = builtin_kernel("epanechnikov", 1)
    sched = BandwidthSchedule(kind="power", c=0.4, a=0.0)
    f = DENSITIES["mixture"]
    ours = expected_estimate(kernel, sched, f, 5000, [0.2])
    assert abs(ours[0] - _direct_mean(kernel, sched, f, 5000, [0.2])[0]) <= ORACLE_TOL


def test_sum_depends_on_its_inputs_alone():
    # the same sum from a fresh schedule, from one whose moment cache was
    # grown first, and with F called on row blocks of any size: every
    # sample in one call (entries = 1), three rows, or one row per call
    seen = []

    def terms(h):
        seen.append(len(h))
        return np.stack([np.exp(-h), np.sin(3.0 * h)], axis=1)

    def total(schedule, entries):
        seen.clear()
        out = bandwidth_sum(schedule, 20_000, terms, entries, 1.0)
        # certified by the interpolant: a few samples, not the direct sum
        assert sum(seen) < 1000
        return out

    fresh = total(BandwidthSchedule(kind="power_log", c=0.5, a=0.4), 1)
    assert seen == [33]
    used = BandwidthSchedule(kind="power_log", c=0.5, a=0.4)
    used.chebyshev_moments(20_000, 512)
    used.chebyshev_moments(777, 64)
    assert total(used, 1).tobytes() == fresh.tobytes()
    assert total(used, ROW_BLOCK_ENTRIES // 3).tobytes() == fresh.tobytes()
    assert max(seen) == 3
    assert total(used, 10**9).tobytes() == fresh.tobytes()
    assert set(seen) == {1}
    hs = used.values(20_000)
    assert np.max(np.abs(fresh - np.array([math.fsum(col) for col in terms(hs).T]))) <= 1e-10


def test_each_column_is_certified_on_its_own_scale():
    # a large smooth column and a small one whose Chebyshev terms fall
    # slowly: at degree 32 the small column misses SUM_TOL by about 400x,
    # a gap the large column's scale would hide
    seen = []

    def terms(h, cols=slice(None)):
        seen.append(len(h))
        small = 0.01 / (1.0 + 4.0 * (np.log(h) + 2.0) ** 2)
        return np.stack([1e9 * np.exp(-h), small], axis=1)[:, cols]

    sched = BandwidthSchedule(kind="power", c=0.5, a=0.3)
    n = 20_000
    exact = np.array([math.fsum(col) / n for col in terms(sched.values(n)).T])
    seen.clear()
    both = bandwidth_sum(sched, n, terms, 1, 1.0 / n)
    pair = sum(seen)
    seen.clear()
    small = bandwidth_sum(sched, n, functools.partial(terms, cols=slice(1, 2)), 1, 1.0 / n)
    # the pair takes the degree the small column takes alone, past 32
    assert pair == sum(seen) > 33
    assert abs(both[1] - exact[1]) <= SUM_TOL and abs(small[0] - exact[1]) <= SUM_TOL
    assert abs(both[0] - exact[0]) <= SUM_TOL * exact[0]


def test_failed_certificate_falls_back_within_budget():
    # a jump in F defeats the interpolant; the direct sum is returned and
    # no more than 1.5 n bandwidths are evaluated in all
    seen = []

    def terms(h):
        seen.append(len(h))
        return np.where(h > 0.1, 1.0, 0.0)[:, None] + h[:, None]

    sched = BandwidthSchedule(kind="power", c=0.5, a=0.3)
    n = 4000
    got = bandwidth_sum(sched, n, terms, 1, 1.0)[0]
    hs = sched.values(n)
    assert got == pytest.approx(math.fsum(np.where(hs > 0.1, 1.0, 0.0) + hs), abs=1e-9)
    assert n < sum(seen) <= 1.5 * n


@pytest.mark.parametrize("n", [50, 4000])
def test_direct_fallback_folds_like_one_add_per_block(n):
    # n = 50 is too small for the interpolant, and the jump defeats it at
    # n = 4000; blocks of 7 bandwidths, whose sums are folded in one step
    def terms(h):
        return np.where(h > 0.1, 1.0, 0.0)[:, None] + np.stack([h, h**-1.5], axis=1)

    sched = BandwidthSchedule(kind="power", c=0.5, a=0.3)
    got = bandwidth_sum(sched, n, terms, SUM_BLOCK_ENTRIES // 7, 0.3)
    # the per-block Neumaier loop the fold replaced, in its branch form
    hs = sched.values(n)
    s = c = np.zeros(2)
    for i0 in range(0, n, 7):
        x = terms(hs[i0 : i0 + 7]).sum(axis=0)
        t = s + x
        c = c + np.where(np.abs(s) >= np.abs(x), (s - t) + x, (x - t) + s)
        s = t
    assert got.tobytes() == (0.3 * (s + c)).tobytes()


def test_mean_temporaries_stay_in_row_blocks():
    # the 1-d gaussian mean at 10 points and n = 8000: F runs on row blocks
    # of ROW_BLOCK_ENTRIES entries per temporary (128 KiB), so the peak is
    # about 0.5 MB where one block of all 65 samples took 7.6 MB
    kernel = builtin_kernel("gaussian", 1)
    f = GaussianDensity([0.0], [1.0])
    pts = np.concatenate([[0.0], np.arange(-1.0, 1.0 + 1e-9, 0.25)])
    # the quadrature rules are built once per process; leave them out
    expected_estimate(kernel, BandwidthSchedule(kind="power", c=0.7, a=0.3), f, 100, pts)
    sched = BandwidthSchedule(kind="power", c=0.7, a=0.3)
    tracemalloc.start()
    try:
        expected_estimate(kernel, sched, f, 8000, pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1e6


def test_mean_memory_is_bounded_in_two_dimensions():
    kernel = builtin_kernel("gaussian", 2)
    sched = BandwidthSchedule(kind="power", c=0.7, a=0.3)
    f = GaussianDensity([0.0, 0.0], [1.0, 1.0])
    grid = np.stack(np.meshgrid([-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0]), axis=-1).reshape(-1, 2)
    tracemalloc.start()
    try:
        expected_estimate(kernel, sched, f, 400, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a handful of 4e6-entry float64 temporaries (32 MB each)
    assert peak <= 200e6


def test_cumulant_memory_does_not_grow_with_u():
    # the nodes are chunked so one block's (bandwidths, u, nodes) temporaries
    # stay within SUM_BLOCK_ENTRIES whatever len(u): about 70 MB here
    spec = CgfSpec(
        builtin_kernel("gaussian", 2),
        BandwidthSchedule(kind="power", c=0.5, a=0.2),
        ScalingSequence("power", 0.1),
        GaussianDensity([0.0, 0.0], [1.0, 1.0]),
        [0.1, 0.2],
    )
    spec.mean(20)
    tracemalloc.start()
    try:
        cgf_finite_n(spec, np.linspace(-1.0, 1.0, 40), 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 100e6


def test_cumulant_node_chunks_do_not_move_the_value(monkeypatch):
    # chunking the nodes only reorders the quadrature sum
    import recdev.estimator

    spec = CgfSpec(
        builtin_kernel("gaussian", 1),
        BandwidthSchedule(kind="power", c=0.5, a=0.2),
        ScalingSequence("power", 0.1),
        GaussianDensity([0.0], [1.0]),
        [0.3],
    )
    u = np.linspace(-2.0, 2.0, 5)
    whole = cgf_finite_n(spec, u, 100)
    monkeypatch.setattr(recdev.estimator, "SUM_BLOCK_ENTRIES", 6 * 50)
    chunked = cgf_finite_n(spec, u, 100)
    assert np.max(np.abs(chunked - whole)) <= 1e-14 * np.max(np.abs(whole))


def test_mean_node_chunks_do_not_move_the_value(monkeypatch):
    import recdev.estimator

    kernel = builtin_kernel("gaussian", 1)
    sched = BandwidthSchedule(kind="power", c=0.5, a=0.2)
    f = DENSITIES["mixture"]
    pts = np.linspace(-1.0, 2.0, 5)
    whole = expected_estimate(kernel, sched, f, 100, pts)
    monkeypatch.setattr(recdev.estimator, "SUM_BLOCK_ENTRIES", 5 * 50)
    # 50 nodes per chunk: the level-1 rule splits into several
    assert len(kernel_quadrature(kernel, 1)[0]) > 3 * 50
    chunked = expected_estimate(kernel, sched, f, 100, pts)
    assert np.max(np.abs(chunked - whole)) <= 1e-14 * np.max(np.abs(whole))
