import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from recdev import estimator
from recdev.bandwidth import BandwidthSchedule, ScalingSequence
from recdev.cgf import CgfSpec, cgf_finite_n, cgf_limit, convergence_diagnostic
from recdev.densities import GaussianDensity
from recdev.estimator import expected_estimate
from recdev.kernels import builtin_kernel
from recdev.numerics import OverflowGuardError, QuadratureError
from recdev.ratefn import PsiEvaluator

KERNEL = builtin_kernel("gaussian", 1)
DENSITY = GaussianDensity(mean=[0.0], sigma=[1.0])


def _spec(c=0.7, a=0.3, scaling=None, alpha=None, point=0.0):
    return CgfSpec(
        kernel=KERNEL,
        schedule=BandwidthSchedule(kind="power", c=c, a=a),
        scaling=scaling or ScalingSequence(kind="constant_one"),
        density=DENSITY,
        point=[point],
        alpha=alpha,
    )


def _finite_n_oracle(spec, u, n):
    # independent route: scipy quadrature per observation, log/expm1 form
    from scipy.integrate import quad
    from scipy.stats import norm

    sch, scal = spec.schedule, spec.scaling
    alpha = spec.alpha.components
    p = KERNEL.dimension + spec.alpha.order
    hs = sch.values(n)
    v = scal.value(n)
    a_n = math.fsum(h ** (1 + 2 * spec.alpha.order) for h in hs)
    x = float(spec.point[0])
    total = 0.0
    for h in hs:
        theta = u * a_n / (n * v * h**p)
        m, _ = quad(
            lambda z: math.expm1(theta * float(KERNEL.deriv_eval(alpha, np.array([[z]]))[0]))
            * norm.pdf(x - h * z),
            -9.0,
            9.0,
            epsabs=1e-14,
            limit=300,
        )
        total += math.log1p(h * m)
    mean_terms = []
    for h in hs:
        val, _ = quad(
            lambda z: float(KERNEL.deriv_eval(alpha, np.array([[z]]))[0])
            * norm.pdf(x - h * z)
            / h**spec.alpha.order,
            -9.0,
            9.0,
            epsabs=1e-14,
            limit=300,
        )
        mean_terms.append(val)
    mean = math.fsum(mean_terms) / n
    return (v**2 / a_n) * total - u * v * mean


def test_finite_n_matches_scipy_oracle_ldp():
    spec = _spec()
    for u, n in ((0.7, 12), (-1.5, 12), (1.0, 40)):
        ours = cgf_finite_n(spec, u, n)
        ref = _finite_n_oracle(spec, u, n)
        assert_allclose(ours, ref, rtol=1e-9, atol=1e-13)


def test_finite_n_matches_scipy_oracle_moderate():
    spec = _spec(scaling=ScalingSequence(kind="power", b=0.1))
    for u, n in ((0.8, 15), (-0.6, 25)):
        ours = cgf_finite_n(spec, u, n)
        ref = _finite_n_oracle(spec, u, n)
        assert_allclose(ours, ref, rtol=1e-9, atol=1e-13)


def test_finite_n_matches_scipy_oracle_derivative():
    spec = _spec(
        c=0.5, a=0.2, scaling=ScalingSequence(kind="power", b=0.1), alpha=(1,), point=0.4
    )
    ours = cgf_finite_n(spec, 0.9, 10)
    ref = _finite_n_oracle(spec, 0.9, 10)
    assert_allclose(ours, ref, rtol=1e-8, atol=1e-13)


def _engine_levels(monkeypatch, value):
    """Make each bandwidth sum of `estimator.support_sum` return value(level)."""
    levels = []
    rule = estimator.kernel_quadrature

    def quadrature(kernel, level):
        levels.append(level)
        return rule(kernel, level)

    monkeypatch.setattr(estimator, "kernel_quadrature", quadrature)
    monkeypatch.setattr(estimator, "bandwidth_sum", lambda *args: value(levels[-1]))


def test_finite_n_holds_each_u_to_its_own_tolerance(monkeypatch):
    # levels 1 and 2 of the fake sum agree at u = 30 (about 1e3) and differ
    # by 2.3e-6 at u = 0.5 (about 0.015): inside the pair's largest value
    # times 1e-8, outside u = 0.5's own 1e-8
    spec = _spec()
    mean = spec.mean(100)  # before the fake replaces the sums
    u = 30.0
    # the fake reads the u of the call under way
    _engine_levels(monkeypatch, lambda level: np.where(np.atleast_1d(u) > 1.0, 1e3,
                                                       0.015 + (2.3e-6 if level == 2 else 0.0)))
    assert cgf_finite_n(spec, u, 100) == 1e3 - 30.0 * mean
    for u in (0.5, [30.0, 0.5]):
        with pytest.raises(QuadratureError, match="finite-n cumulant quadrature"):
            cgf_finite_n(spec, u, 100)


def test_mean_holds_each_point_to_its_own_tolerance(monkeypatch):
    # the same fake at the mean's 1e-9: a 2.3e-7 gap at x = 1 (a mean of
    # about 0.015) fails, though it is within 1e-9 of the 1e3 at x = 0
    x = [0.0]
    _engine_levels(monkeypatch, lambda level: np.where(np.equal(x, 0.0), 1e3,
                                                       0.015 + (2.3e-7 if level == 2 else 0.0)))
    sched = BandwidthSchedule(kind="power", c=0.7, a=0.3)
    assert expected_estimate(KERNEL, sched, DENSITY, 100, x)[0] == 1e3
    for x in ([1.0], [0.0, 1.0]):
        with pytest.raises(QuadratureError, match="mean-estimate quadrature"):
            expected_estimate(KERNEL, sched, DENSITY, 100, x)


def test_regime_classification():
    assert _spec().regime == "ldp"
    assert _spec(scaling=ScalingSequence(kind="power", b=0.1)).regime == "moderate"
    assert (
        _spec(c=0.5, a=0.2, scaling=ScalingSequence(kind="constant_one"), alpha=(1,)).regime
        == "moderate"
    )


def test_limit_ldp_closed_form():
    spec = _spec()
    fx = DENSITY.pdf(np.array([0.0]))[0]
    psi = PsiEvaluator(KERNEL, 0.3)
    for u in (-1.0, 0.5, 1.5):
        expected = fx * 0.7 * float(psi.psi(u)) - u * fx
        assert_allclose(cgf_limit(spec, u), expected, rtol=1e-10)
    assert cgf_limit(spec, 0.0) == 0.0


def test_limit_moderate_closed_form():
    spec = _spec(scaling=ScalingSequence(kind="power", b=0.1))
    fx = DENSITY.pdf(np.array([0.0]))[0]
    l2 = 1.0 / (2 * math.sqrt(math.pi))
    for u in (-2.0, 1.0):
        assert_allclose(cgf_limit(spec, u), u * u * fx * l2 / (2 * (1 - 0.09)), rtol=1e-12)


def test_limit_moderate_derivative_closed_form():
    spec = _spec(c=0.5, a=0.2, scaling=ScalingSequence(kind="power", b=0.1), alpha=(1,))
    fx = DENSITY.pdf(np.array([0.0]))[0]
    l2d = 1.0 / (4 * math.sqrt(math.pi))  # squared L2 norm of the kernel slope
    m = 0.2 * 3
    assert_allclose(cgf_limit(spec, 1.0), fx * l2d / (2 * (1 - m * m)), rtol=1e-12)


def test_vector_u_matches_scalars():
    spec = _spec(scaling=ScalingSequence(kind="power", b=0.1))
    us = np.array([-1.0, -0.2, 0.4, 1.3])
    vec = cgf_finite_n(spec, us, 30)
    scal = [cgf_finite_n(spec, float(u), 30) for u in us]
    assert_allclose(vec, scal, rtol=1e-12)
    # a (2, 2) u keeps its shape in both regimes.  The limit equals its
    # elementwise calls bit for bit; the finite-n curve equals its flat call
    # bit for bit, and its one-u calls to the tolerance above, since the sum
    # over bandwidths adds a one-column block in another order
    square = us.reshape(2, 2)
    for spec in (spec, _spec()):
        vec = cgf_finite_n(spec, square, 30)
        np.testing.assert_array_equal(vec, cgf_finite_n(spec, us, 30).reshape(2, 2))
        assert_allclose(vec, [[cgf_finite_n(spec, u, 30) for u in row] for row in square], rtol=1e-12)
        limit = [[cgf_limit(spec, u) for u in row] for row in square]
        np.testing.assert_array_equal(cgf_limit(spec, square), limit)


def test_limit_over_a_u_array_equals_scalar_calls():
    # the cgf_ldp golden's pair, and u values whose psi levels differ
    spec = _spec(c=0.3)
    for us in ([0.5, 1.0], [-300.0, -2.0, 0.5, 1.0, 40.0]):
        vec = cgf_limit(spec, np.array(us))
        np.testing.assert_array_equal(vec, [cgf_limit(spec, u) for u in us])


def test_finite_n_is_convex_in_u():
    spec = _spec()
    us = np.linspace(-2.0, 2.0, 9)
    vals = cgf_finite_n(spec, us, 25)
    second = np.diff(vals, 2)
    assert np.all(second > 0)
    # normalized cumulant transform vanishes at u = 0
    assert abs(cgf_finite_n(spec, 0.0, 25)) < 1e-14


def test_convergence_diagnostic_gaps_shrink():
    spec = _spec(c=0.3)
    conv = convergence_diagnostic(spec, [0.5, 1.0], [100, 1000, 10000])
    assert conv.finite_n.shape == (3, 2)
    assert conv.gaps_decrease
    assert conv.sup_gap[-1] < 0.05 * np.max(np.abs(conv.limit))


@pytest.mark.parametrize("scaling", [None, ScalingSequence(kind="power", b=0.1)], ids=["ldp", "moderate"])
def test_non_finite_arguments_and_bad_levels_are_refused(scaling):
    spec = _spec(scaling=scaling)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"cumulant argument u must be finite; got {bad}"):
            cgf_finite_n(spec, [0.5, bad], 10)
        with pytest.raises(ValueError, match=f"cumulant argument u must be finite; got {bad}"):
            cgf_limit(spec, bad)
        for call in (spec.rate, spec.tilt):
            with pytest.raises(ValueError, match=f"deviation t must be finite; got {bad}"):
                call(bad, 0.3)
    for call in (spec.rate, spec.tilt):
        with pytest.raises(ValueError, match="density level must be finite and >= 0; got -0.1"):
            call(0.2, -0.1)
    with pytest.raises(ValueError, match="the tilt needs a density level > 0"):
        spec.tilt(0.2, 0.0)


def test_sample_sizes_are_counts_and_points_real_arrays():
    spec = _spec(scaling=ScalingSequence(kind="power", b=0.1))
    calls = (
        spec.schedule.values,
        lambda n: spec.schedule.prefix_sums(1.0, n),
        spec.scaling.value,
        lambda n: expected_estimate(KERNEL, spec.schedule, DENSITY, n, [0.0]),
        lambda n: cgf_finite_n(spec, 0.5, n),
    )
    for call in calls:
        for bad in (0, 10.0, True):
            with pytest.raises(ValueError, match=f"^n must be an integer >= 1; got {bad!r}$"):
                call(bad)
    for point, message in (([True], "point must be a list of numbers; got [True]"),
                           ([math.nan], "point must be finite; got nan")):
        with pytest.raises(ValueError) as exc:
            _spec(point=point[0])
        assert str(exc.value) == message
    with pytest.raises(ValueError, match=r"^cumulant argument u must be a list of numbers; got \[0.5, True\]"):
        cgf_limit(spec, [0.5, True])
    for call in (spec.rate, spec.tilt):
        with pytest.raises(ValueError, match="^deviation t must be finite; got True$"):
            call(True, 0.3)
        with pytest.raises(ValueError, match="^density level must be finite and >= 0; got True$"):
            call(0.2, True)


def test_overflow_guard_trips_before_exp():
    spec = _spec()
    with pytest.raises(OverflowGuardError):
        cgf_finite_n(spec, 1e9, 10)


def test_spec_rejects_what_the_kernel_cannot_serve():
    flat = GaussianDensity(mean=[0.0, 0.0], sigma=[1.0, 1.0])
    with pytest.raises(ValueError, match="density has dimension 2, kernel has 1"):
        CgfSpec(kernel=KERNEL, schedule=BandwidthSchedule(kind="power", c=0.7, a=0.3),
                scaling=ScalingSequence(kind="constant_one"), density=flat, point=[0.0])
    with pytest.raises(ValueError, match="derivatives up to order 0"):
        CgfSpec(kernel=builtin_kernel("epanechnikov", 1),
                schedule=BandwidthSchedule(kind="power", c=0.7, a=0.3),
                scaling=ScalingSequence(kind="power", b=0.1), density=DENSITY,
                point=[0.0], alpha=(1,))


def test_diagnostic_input_validation():
    spec = _spec()
    with pytest.raises(ValueError):
        convergence_diagnostic(spec, [], [10, 20])
    with pytest.raises(ValueError):
        convergence_diagnostic(spec, [1.0], [20, 10])
    with pytest.raises(ValueError):
        convergence_diagnostic(spec, [1.0], [10.5, 20])
