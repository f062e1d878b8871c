import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from recdev.bandwidth import BandwidthSchedule, ScalingSequence, regular_variation_limit_check
from recdev.cgf import CgfSpec
from recdev.densities import GaussianDensity
from recdev.kernels import builtin_kernel


def test_power_schedule_values():
    sch = BandwidthSchedule(kind="power", c=0.7, a=0.3)
    assert_allclose(sch.at(np.array([1, 32])), [0.7, 0.7 * 32 ** (-0.3)])
    vals = sch.values(5)
    assert_allclose(vals, [0.7 * i ** (-0.3) for i in range(1, 6)])
    assert np.all(np.diff(vals) < 0)


def test_power_log_schedule_values():
    sch = BandwidthSchedule(kind="power_log", c=0.5, a=0.4)
    assert_allclose(sch.at(np.array([10])), [0.5 * 10 ** (-0.4) * math.log(11.0)])
    # log factor makes the first few terms non-monotone, later ones decay
    vals = sch.values(2000)
    assert vals[-1] < vals[100] < vals[10]


@pytest.mark.parametrize(
    "sch",
    [
        BandwidthSchedule(kind="power", c=0.7, a=0.3),
        BandwidthSchedule(kind="power_log", c=0.5, a=0.4),
    ],
    ids=["power", "power_log"],
)
def test_at_over_any_index_range_is_that_slice_of_values(sch):
    # the streaming estimator takes h_i from `at` on the pending indices,
    # batch_values and the Monte Carlo harness from `values`: same bits
    n = 20_000
    ref = sch.values(n)
    # each index alone, as a read after every update asks for it
    for i in range(1, 5001):
        assert sch.at(np.array([float(i)])).tobytes() == ref[i - 1 : i].tobytes()
    rng = np.random.default_rng(17)
    for k in [*range(2, 33), *rng.integers(33, 400, 300)]:
        i0 = int(rng.integers(1, n - k + 2))
        got = sch.at(np.arange(i0, i0 + k, dtype=np.float64))
        assert got.tobytes() == ref[i0 - 1 : i0 - 1 + k].tobytes()


def test_schedule_domain_errors():
    with pytest.raises(ValueError, match="starts at 1"):
        BandwidthSchedule(kind="power", c=0.7, a=0.3).at(np.array([3.0, 0.0]))
    with pytest.raises(ValueError):
        BandwidthSchedule(kind="power", c=-1.0, a=0.3)
    with pytest.raises(ValueError):
        BandwidthSchedule(kind="power", c=1.0, a=1.0)
    with pytest.raises(ValueError):
        BandwidthSchedule(kind="geometric", c=1.0, a=0.3)


@given(
    st.floats(min_value=0.05, max_value=3.0),
    st.floats(min_value=0.0, max_value=0.95),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=400),
)
@settings(max_examples=60, deadline=None)
def test_prefix_sum_matches_fsum(c, a, beta, n):
    sch = BandwidthSchedule(kind="power", c=c, a=a)
    ref = math.fsum((c * i ** (-a)) ** beta for i in range(1, n + 1))
    assert_allclose(sch.prefix_sum(beta, n), ref, rtol=1e-13)


def test_prefix_sums_vector_and_cache():
    sch = BandwidthSchedule(kind="power", c=1.0, a=0.25)
    sums = sch.prefix_sums(2, 50)
    assert sums.shape == (50,)
    assert_allclose(sums[-1], sch.prefix_sum(2, 50), rtol=1e-14)
    assert np.all(np.diff(sums) > 0)


def test_log_range_is_computed_once_per_n(monkeypatch):
    sch = BandwidthSchedule(kind="power_log", c=0.5, a=0.4)
    logs = np.log(sch.values(5000))
    assert sch._log_range(5000) == (float(logs.min()), float(logs.max()))
    monkeypatch.setattr(sch, "values", None)  # a second computation would fail
    assert sch._log_range(5000) == (float(logs.min()), float(logs.max()))
    assert sch == BandwidthSchedule(kind="power_log", c=0.5, a=0.4)


def test_each_cache_entry_is_built_once_under_concurrent_reads(monkeypatch):
    sch = BandwidthSchedule(kind="power_log", c=0.5, a=0.4)
    values, builds = sch.values, []
    monkeypatch.setattr(sch, "values", lambda n: builds.append(n) or values(n))
    start = threading.Barrier(8)

    def read():
        start.wait(timeout=10)
        return sch.chebyshev_moments(3000, 64), sch.prefix_sums(2.0, 3000)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = [f.result(timeout=60) for f in [pool.submit(read) for _ in range(8)]]
    finally:
        sys.setswitchinterval(interval)
    assert builds == [3000, 3000, 3000]  # the log range, the moments and the prefix sums, once each
    fresh = BandwidthSchedule(kind="power_log", c=0.5, a=0.4)
    mu, sums = fresh.chebyshev_moments(3000, 64), fresh.prefix_sums(2.0, 3000)
    for m, s in results:
        assert m.tobytes() == mu.tobytes() and s.tobytes() == sums.tobytes()


def test_normalized_sum_limit():
    # (1/(n h_n^beta)) sum h_i^beta -> 1/(1 - a beta) when a beta < 1
    for a, beta in ((0.5, 1), (0.2, 1)):
        sch = BandwidthSchedule(kind="power", c=1.3, a=a)
        n = 100_000
        val = sch.prefix_sum(beta, n) / (n * sch.values(n)[-1] ** beta)
        assert_allclose(val, 1.0 / (1.0 - a * beta), rtol=1e-2)


def test_normalized_sum_error_shrinks_with_n():
    sch = BandwidthSchedule(kind="power", c=0.9, a=0.4)
    lim = 1.0 / (1.0 - 0.4)
    errs = []
    for n in (100, 1000, 10000):
        val = sch.prefix_sum(1, n) / (n * sch.values(n)[-1])
        errs.append(abs(val - lim))
    assert errs[0] > errs[1] > errs[2]


def test_constants_and_exponents_are_real_scalars():
    for c in (True, "0.7", math.inf, 10**400):
        with pytest.raises(ValueError, match=f"^bandwidth constant c must be finite and > 0, got {c!r}$"):
            BandwidthSchedule(kind="power", c=c, a=0.3)
    for a in (False, "0.3", math.nan):
        with pytest.raises(ValueError, match=f"^bandwidth exponent a must satisfy 0 <= a < 1, got {a!r}$"):
            BandwidthSchedule(kind="power", c=0.7, a=a)
    for b in (True, "0.1", math.nan):
        with pytest.raises(ValueError, match=f"^scaling exponent b must satisfy 0 < b < 1/2, got {b!r}$"):
            ScalingSequence(kind="power", b=b)
    with pytest.raises(ValueError, match="^constant_one scaling takes no exponent; got b=False$"):
        ScalingSequence(kind="constant_one", b=False)
    # numpy scalars are real numbers, with the bits of the Python ones
    sch = BandwidthSchedule(kind="power", c=np.float32(0.5), a=np.int64(0))
    assert sch.values(3).tolist() == [0.5, 0.5, 0.5]
    assert ScalingSequence(kind="power", b=np.float64(0.25)).value(16) == 2.0


def test_check_compatible():
    sch = BandwidthSchedule(kind="power", c=1.0, a=0.4)
    sch.check_compatible(1, 0)  # a * 1 < 1
    with pytest.raises(ValueError):
        sch.check_compatible(1, 1)  # a * 3 > 1


def test_scaling_sequence():
    one = ScalingSequence(kind="constant_one")
    assert one.is_constant_one and one.value(17) == 1.0
    pw = ScalingSequence(kind="power", b=0.1)
    assert_allclose(pw.value(32), 32**0.1)
    with pytest.raises(ValueError):
        ScalingSequence(kind="power", b=0.5)
    with pytest.raises(ValueError):
        ScalingSequence(kind="constant_one", b=0.2)


def _spec(schedule, scaling):
    return CgfSpec(kernel=builtin_kernel("gaussian", 1), schedule=schedule, scaling=scaling,
                   density=GaussianDensity(mean=[0.0], sigma=[1.0]), point=[0.0])


def test_speed_formula():
    sch = BandwidthSchedule(kind="power", c=0.7, a=0.3)
    v = ScalingSequence(kind="power", b=0.1)
    n = 500
    expected = sch.prefix_sum(1, n) / v.value(n) ** 2
    assert_allclose(_spec(sch, v).speed(n), expected, rtol=1e-14)
    # constant scaling: the speed is the raw bandwidth sum
    one = ScalingSequence(kind="constant_one")
    assert_allclose(_spec(sch, one).speed(n), sch.prefix_sum(1, n), rtol=1e-14)


def test_regular_variation_limit_check():
    sch = BandwidthSchedule(kind="power", c=1.0, a=0.3)
    ratios = regular_variation_limit_check(sch, beta=2, n_list=[1000, 100_000])
    lim = 1.0 / (1.0 - 0.6)
    assert abs(ratios[-1] - lim) < abs(ratios[0] - lim)
    assert_allclose(ratios[-1], lim, rtol=1e-2)
    with pytest.raises(ValueError):
        regular_variation_limit_check(sch, beta=4, n_list=[100])


@given(st.floats(min_value=0.05, max_value=0.45), st.integers(min_value=2, max_value=2000))
@settings(max_examples=40, deadline=None)
def test_speed_increases_with_n(a, n):
    spec = _spec(BandwidthSchedule(kind="power", c=1.0, a=a), ScalingSequence(kind="power", b=0.05))
    assert spec.speed(n) > spec.speed(n - 1) * (n / (n + 1.0)) ** 0.2
