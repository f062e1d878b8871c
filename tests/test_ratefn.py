import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from recdev.bandwidth import BandwidthSchedule, ScalingSequence
from recdev.cgf import CgfSpec, cgf_limit
from recdev.densities import GaussianDensity
from recdev.kernels import KernelModel, builtin_kernel
from recdev import ratefn
from recdev.numerics import BLOCK_ENTRIES, QuadratureError, tanh_sinh
from recdev.ratefn import PsiEvaluator, RateValue

GAUSS = builtin_kernel("gaussian", 1)
EPAN = builtin_kernel("epanechnikov", 1)


def _psi_oracle_1d(kernel, a, u, zmax):
    # independent route: scipy nested quadrature of the defining integral
    from scipy.integrate import quad

    def inner(s):
        val, _ = quad(
            lambda z: math.expm1(
                s**a * u * float(kernel.eval(np.array([[z]]))[0]) / (1 - a)
            ),
            -zmax,
            zmax,
            epsabs=1e-13,
            limit=200,
        )
        return s ** (-a) * val

    out, _ = quad(inner, 0.0, 1.0, epsabs=1e-12, limit=200)
    return out


@pytest.mark.parametrize(
    "kernel,a,u,zmax",
    [
        (GAUSS, 0.3, 1.0, 9.0),
        (GAUSS, 0.3, -2.0, 9.0),
        (EPAN, 0.25, 1.0, 1.0),
        (EPAN, 0.25, -3.0, 1.0),
    ],
)
def test_psi_matches_nested_quad_oracle(kernel, a, u, zmax):
    ours = float(PsiEvaluator(kernel, a).psi(u))
    ref = _psi_oracle_1d(kernel, a, u, zmax)
    assert_allclose(ours, ref, rtol=5e-10)


def _psi_oracle_large_u(kernel, a, u):
    # relative-tolerance nested quad, folded in z since the kernels are even;
    # psi grows like exp(u sup K/(1 - a)), so an absolute tolerance says nothing
    from scipy.integrate import quad

    r = kernel.support_radius
    k = lambda z: float(kernel.eval(np.array([[z]]))[0])

    def inner(s):
        val, _ = quad(lambda z: math.expm1(s**a * u * k(z) / (1 - a)), 0.0, r,
                      epsabs=0.0, epsrel=1e-13, limit=200)
        return 2.0 * s ** (-a) * val

    return quad(inner, 0.0, 1.0, epsabs=0.0, epsrel=1e-12, limit=200)[0]


@pytest.mark.parametrize("name", ("gaussian", "epanechnikov", "quartic"))
def test_psi_at_large_u_matches_relative_oracle(name):
    # at u = 40, psi reaches 6e8 (gaussian) to 2e21 (quartic); two levels
    # can only agree relatively there
    kernel = builtin_kernel(name, 1)
    ev = PsiEvaluator(kernel, 0.3)
    for u in (10.0, 20.0, 40.0):
        assert_allclose(ev.psi(u), _psi_oracle_large_u(kernel, 0.3, u), rtol=1e-10)


def test_psi_at_zero_and_slope():
    ev = PsiEvaluator(GAUSS, 0.3)
    assert float(ev.psi(0.0)) == 0.0
    assert_allclose(ev.prime_at_zero, 1.0 / 0.7, rtol=1e-15)
    assert_allclose(float(ev.psi_prime(0.0)), 1.0 / 0.7, rtol=1e-9)


def test_psi_prime_matches_central_difference():
    ev = PsiEvaluator(GAUSS, 0.3)
    for u in (-3.0, -0.5, 0.4, 2.0):
        h = 1e-5 * max(1.0, abs(u))
        fd = (float(ev.psi(u + h)) - float(ev.psi(u - h))) / (2 * h)
        assert_allclose(float(ev.psi_prime(u)), fd, rtol=1e-7)


@given(st.floats(min_value=-20.0, max_value=4.0))
@settings(max_examples=30, deadline=None)
def test_psi_strictly_convex(u):
    ev = PsiEvaluator(GAUSS, 0.3)
    assert float(ev.psi_second(u)) > 0.0


def test_psi_negative_saturation_compact_support():
    # u -> -inf: psi tends to -(measure of positive support)/(1 - a d); at
    # a = 0.05 (beta + 2 = 21) most of u = -1000 takes the Gamma(b) x^-b branch
    for a in (0.25, 0.05):
        ev = PsiEvaluator(EPAN, a)
        floor = -2.0 / (1.0 - a)
        v50, v1000 = float(ev.psi(-50.0)), float(ev.psi(-1000.0))
        assert floor < v1000 < v50 < 0.0
        assert abs(v1000 - floor) < 0.02


def test_psi_vectorized_matches_scalar():
    # each point of a vectorised call is accepted at its own level, so each
    # of 401 points across the sign change equals its own call bit for bit
    cases = [
        (GAUSS, np.array([-2.0, -0.3, 0.0, 0.7, 1.9])),
        (_signed_kernel(), np.linspace(-8.0, 4.0, 401)),
    ]
    for kernel, us in cases:
        ev = PsiEvaluator(kernel, 0.3)
        vec = ev.psi(us)
        assert_array_equal(vec, [float(ev.psi(float(u))) for u in us])


def test_psi_of_a_pair_equals_each_alone():
    # a call-wide acceptance rule took -300 at level 5 beside u = 40, whose
    # psi of 6e8 set the tolerance; alone it needs level 6
    ev = PsiEvaluator(GAUSS, 0.3)
    assert ev.psi(np.array([-300.0, 40.0])).tolist() == [ev.psi(-300.0), ev.psi(40.0)]
    assert ev.psi(-300.0) == -9.22049673184089


def test_one_node_series_sums_as_alone():
    # at u = -5e16 only the edge node with c K = 6.7e-16 falls in the near
    # branch at levels 3 and 4 (the rest are far, or K = 0): alone, its series
    # block would be (16, 1), which numpy sums pairwise, unlike a column of a
    # wider block, so `_series` pads it to two columns
    ev = PsiEvaluator(EPAN, 0.25)
    us = np.array([-5e16, -3.0, 1.0])
    for f in (ev.psi, ev.psi_prime, ev.psi_second):
        assert f(us).tolist() == [f(float(u)) for u in us]


@functools.lru_cache(maxsize=None)
def _bit_equal_case(name):
    return {
        "gaussian": (PsiEvaluator(GAUSS, 0.3), (-30.0, 6.0), (-0.5, 3.0)),
        "epanechnikov": (PsiEvaluator(EPAN, 0.25), (-200.0, 15.0), (-0.5, 3.0)),
        "signed": (PsiEvaluator(_signed_kernel(), 0.3), (-30.0, 8.0), (-1.0, 3.0)),
        # level 4 holds 139^2 nodes in d = 2: five node chunks per u
        "epanechnikov_2d": (
            PsiEvaluator(builtin_kernel("epanechnikov", 2), 0.2), (-20.0, 4.0), (-0.5, 3.0)
        ),
        # batches of more than one group of the nested level walk
        "gaussian_groups": (PsiEvaluator(GAUSS, 0.3), (-30.0, 6.0), (-0.5, 3.0)),
    }[name]


@pytest.mark.parametrize(
    "name", ["epanechnikov", "epanechnikov_2d", "gaussian", "signed", "gaussian_groups"]
)
@given(data=st.data())
@settings(max_examples=4, deadline=None)
def test_batched_calls_equal_calls_on_each_element(name, data):
    ev, (u_lo, u_hi), (t_lo, t_hi) = _bit_equal_case(name)
    small = 3 if name.endswith("2d") else 5
    least = 1
    if name.endswith("groups"):
        least, small = ratefn._GROUP + 1, 2 * ratefn._GROUP + 3
    us = data.draw(st.lists(st.floats(u_lo, u_hi), min_size=least, max_size=small))
    for f in (ev.psi, ev.psi_prime, ev.psi_second):
        assert f(np.array(us)).tolist() == [f(u) for u in us]
    # points of t grids of step 0.05 that cross t <= 0, where an unsigned
    # kernel's rate branches (a t > 0 far below 0.05 has no reachable root)
    steps = st.integers(round(20 * t_lo), round(20 * t_hi))
    ts = [k / 20 for k in data.draw(st.lists(steps, min_size=least, max_size=small))]
    rates = ev.legendre(np.array(ts))
    assert [(r.value, r.finite) for r in rates] == [
        (r.value, r.finite) for r in (ev.legendre(t) for t in ts)
    ]
    solvable = [t for t in ts if ev.signed_kernel or t > 0.0]
    roots = ev.inverse_prime(np.array(solvable))
    assert roots.tolist() == [ev.inverse_prime(t) for t in solvable]


def test_batched_solve_counts_the_same_work_as_a_loop():
    ts = np.linspace(-0.5, 3.0, 15)
    batched, looped = PsiEvaluator(EPAN, 0.25), PsiEvaluator(EPAN, 0.25)
    batched.legendre(ts)
    for t in ts:
        looped.legendre(float(t))
    assert batched.counts == looped.counts
    assert batched.counts["newton_steps"] > 0 and batched.counts["bracket_doublings"] > 0


@pytest.mark.parametrize(
    "call",
    [
        lambda ev, x: ev.psi(x),
        lambda ev, x: ev.psi_prime(x),
        lambda ev, x: ev.psi_second(x),
        lambda ev, x: ev.inverse_prime(x),
        lambda ev, x: ev.legendre(x),
    ],
)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_input_is_refused_before_any_quadrature(call, bad):
    ev = PsiEvaluator(GAUSS, 0.3)
    with pytest.raises(ValueError, match=f"must be finite; got {bad}"):
        call(ev, bad)
    assert not ev.counts["psi_evaluations_per_level"]
    # in a batch, the elements before it still run, as a loop would run them
    with pytest.raises(ValueError, match=f"must be finite; got {bad}"):
        call(ev, np.array([1.5, bad, 2.0]))
    assert sum(ev.counts["psi_evaluations_per_level"].values()) > 0


def test_batched_failure_raises_the_first_failing_elements_error():
    ev = PsiEvaluator(GAUSS, 0.3)
    for call, first_bad, second_bad in (
        (ev.legendre, 1e300, 2e300),  # past the exp guard: RootFindError
        (ev.inverse_prime, -1.0, 2e300),  # outside the range of psi': ValueError
        (ev.psi, 1e4, 2e4),  # past the exp guard: OverflowGuardError
    ):
        with pytest.raises(Exception) as alone:
            call(first_bad)
        with pytest.raises(type(alone.value)) as batched:
            call(np.array([1.5, first_bad, second_bad, math.nan]))
        assert str(batched.value) == str(alone.value)


def test_psi_gives_up_on_a_jump_inside_its_z_rule():
    # a box kernel declared with a wider support than it has puts its jump at
    # |z| = 1 inside psi's z rule, which then never meets its tolerance
    box = KernelModel(
        name="box_in_a_wider_support",
        dimension=1,
        fn=lambda mi, pts: np.where(np.abs(pts[:, 0]) < 1.0, 0.5, 0.0),
        support_radius=2.0,
        positive_support_measure=2.0,
        negative_support_measure=0.0,
        max_derivative_order=0,
    )
    ev = PsiEvaluator(box, 0.3)
    errors = {}
    for u in (0.5, 1.0):
        with pytest.raises(QuadratureError, match="^psi z rule did not reach tol 1e-10 by level 8 ") as alone:
            ev.psi(u)
        errors[u] = str(alone.value)
    assert errors[0.5] != errors[1.0]
    # u = 0 is accepted at its first level; a batch raises its first failing element's own error
    assert ev.psi(0.0) == 0.0
    for batch, first in (([0.0, 0.5], 0.5), ([1.0, 0.5], 1.0), ([0.5, 1.0], 0.5)):
        with pytest.raises(QuadratureError) as batched:
            ev.psi(np.array(batch))
        assert str(batched.value) == errors[first]


def test_values_do_not_depend_on_call_history():
    # psi(-300) needs a fine quadrature level; calls after it must still
    # pick their level from their own input and return the same bits
    calls = (
        lambda ev: ev.psi(2.0),
        lambda ev: ev.psi_prime(2.0),
        lambda ev: ev.legendre(2.0).value,
    )
    fresh = [call(PsiEvaluator(GAUSS, 0.4)) for call in calls]
    used = PsiEvaluator(GAUSS, 0.4)
    used.psi(-300.0)
    assert [call(used) for call in calls] == fresh


def test_legendre_branches():
    ev_g = PsiEvaluator(GAUSS, 0.3)
    assert not ev_g.legendre(-0.4).finite  # negative deviations impossible
    assert not ev_g.legendre(0.0).finite  # unbounded positive support
    ev_e = PsiEvaluator(EPAN, 0.3)
    at_zero = ev_e.legendre(0.0)
    assert at_zero.finite
    assert_allclose(at_zero.value, 2.0 / 0.7, rtol=1e-12)
    # strict minimum of the conjugate sits at the mean 1/(1-ad)
    assert ev_g.legendre(1.0 / 0.7).value <= 1e-10
    assert ev_e.legendre(1.0 / 0.7).value <= 1e-10


def test_legendre_matches_grid_supremum():
    ev = PsiEvaluator(GAUSS, 0.25)
    us = np.linspace(-40.0, 12.0, 4001)
    psis = ev.psi(us)
    for t in (0.4, 1.0 / 0.75, 2.5):
        grid_sup = float(np.max(us * t - psis))
        val = ev.legendre(t).value
        assert val >= grid_sup - 1e-9
        assert val <= grid_sup + 5e-4  # grid misses the exact maximizer


def test_legendre_derivative_is_inverse_prime():
    ev = PsiEvaluator(GAUSS, 0.3)
    for t in (0.6, 1.1, 2.0, 3.5):
        h = 1e-5
        fd = (ev.legendre(t + h).value - ev.legendre(t - h).value) / (2 * h)
        assert_allclose(fd, ev.inverse_prime(t), atol=2e-6, rtol=1e-6)


@given(st.floats(min_value=0.08, max_value=6.0))
@settings(max_examples=25, deadline=None)
def test_inverse_prime_round_trip(t):
    ev = PsiEvaluator(GAUSS, 0.3)
    u = ev.inverse_prime(t)
    assert_allclose(float(ev.psi_prime(u)), t, rtol=1e-8, atol=1e-10)


@given(st.floats(min_value=0.05, max_value=4.0), st.floats(min_value=0.05, max_value=4.0))
@settings(max_examples=25, deadline=None)
def test_legendre_convexity(t1, t2):
    ev = PsiEvaluator(EPAN, 0.2)
    mid = ev.legendre(0.5 * (t1 + t2)).value
    assert mid <= 0.5 * (ev.legendre(t1).value + ev.legendre(t2).value) + 1e-9


def test_rate_value_contract():
    assert RateValue.of(-1e-12).value == 0.0
    with pytest.raises(ValueError):
        RateValue.of(-1e-3)
    inf = RateValue.infinite()
    assert not inf.finite
    assert float(RateValue.of(0.25)) == 0.25


def _level_spec(scaling, level, a=0.3, alpha=(0,), kernel=GAUSS):
    # a gaussian with f(0) = level puts that density level at the point
    sigma = 1.0 / (level * math.sqrt(2 * math.pi))
    return CgfSpec(
        kernel=kernel,
        schedule=BandwidthSchedule(kind="power", c=1.0, a=a),
        scaling=scaling,
        density=GaussianDensity(mean=[0.0], sigma=[sigma]),
        point=[0.0],
        alpha=alpha,
    )


def _quad_spec():
    return _level_spec(ScalingSequence(kind="power", b=0.1), 1.0 / math.sqrt(2 * math.pi))


def _ldp_spec():
    return _level_spec(ScalingSequence(kind="constant_one"), 0.5)


def _derivative_spec():
    # alpha = (1,) at constant-one scaling: quadratic at the large-deviation scale
    return _level_spec(ScalingSequence(kind="constant_one"), 0.5, alpha=(1,))


def test_pointwise_rate_density_floor_and_zero():
    fx = 0.35
    spec_e = _level_spec(ScalingSequence(kind="constant_one"), 0.5, kernel=EPAN)
    assert spec_e.rate(0.0, fx).value == 0.0
    # estimator of a density cannot undershoot below 0: floor at t = -f(x)
    at_floor = spec_e.rate(-fx, fx)
    assert at_floor.finite
    assert_allclose(at_floor.value, 2.0 * fx, rtol=1e-12)
    assert not spec_e.rate(-fx - 1e-12, fx).finite
    spec_g = _level_spec(ScalingSequence(kind="constant_one"), 0.5)
    assert not spec_g.rate(-fx, fx).finite
    assert spec_g.rate(0.4, fx).finite


def test_pointwise_rate_degenerate_point():
    spec = _level_spec(ScalingSequence(kind="constant_one"), 0.5)
    assert spec.rate(0.0, 0.0).value == 0.0
    assert not spec.rate(0.1, 0.0).finite


def test_quadratic_rate_closed_form():
    fx = 1.0 / math.sqrt(2 * math.pi)
    l2 = 1.0 / (2 * math.sqrt(math.pi))
    val = _level_spec(ScalingSequence(kind="power", b=0.1), 0.5).rate(0.2, fx)
    assert_allclose(val.value, 0.16172093894896455, rtol=1e-14)
    assert_allclose(val.value, 0.04 * (1 - 0.09) / (2 * fx * l2), rtol=1e-14)
    # derivative case widens the variance through the kernel derivative norm,
    # with a growing scaling and with the constant one alike
    for scaling in (ScalingSequence(kind="power", b=0.1), ScalingSequence(kind="constant_one")):
        val1 = _level_spec(scaling, 0.5, a=0.2, alpha=(1,)).rate(0.2, fx)
        assert_allclose(
            val1.value, 0.04 * (1 - 0.36) / (2 * fx * (1.0 / (4 * math.sqrt(math.pi)))), rtol=1e-9
        )


def test_quadratic_rate_domain_errors():
    with pytest.raises(ValueError, match=r"a \(d \+ 2\|alpha\|\) = 1.5 >= 1"):
        _level_spec(ScalingSequence(kind="power", b=0.1), 0.4, a=0.5, alpha=(1,))
    with pytest.raises(ValueError, match="density level must be finite and >= 0"):
        _level_spec(ScalingSequence(kind="power", b=0.1), 0.4, a=0.2).rate(0.1, -0.1)
    zero = KernelModel(
        name="zero", dimension=1, fn=lambda mi, p: np.zeros(len(p)), support_radius=1.0,
        positive_support_measure=0.0, negative_support_measure=0.0, max_derivative_order=0,
    )
    with pytest.raises(ValueError, match="kernel L2 norm must be positive"):
        _level_spec(ScalingSequence(kind="power", b=0.1), 0.4, kernel=zero).rate(0.1, 0.4)


def test_spec_rate_quadratic_symmetric():
    spec = _quad_spec()
    level = spec.density_at_point
    plus, minus = spec.rate(0.2, level), spec.rate(-0.2, level)
    assert plus.value == minus.value
    assert_allclose(plus.value, 0.16172093894896455, rtol=1e-14)


def test_spec_rate_ldp_two_sided():
    spec = _ldp_spec()
    plus, minus = spec.rate(0.2, 0.5), spec.rate(-0.2, 0.5)
    assert plus.finite and minus.finite
    # down-crossings are harder than up-crossings for a density estimator
    assert minus.value > plus.value
    # crossing below zero density is impossible under a positive kernel
    assert not spec.rate(-(0.5 + 1e-9), 0.5).finite


@given(st.floats(min_value=0.02, max_value=1.5))
@settings(max_examples=25, deadline=None)
def test_spec_tilt_duality_quadratic(delta):
    for spec in (_quad_spec(), _derivative_spec()):
        level = spec.density_at_point
        for signed in (delta, -delta):
            u = spec.tilt(signed, level)
            g = spec.rate(signed, level)
            assert abs(u * signed - cgf_limit(spec, u) - g.value) <= 1e-8


@given(st.floats(min_value=0.02, max_value=0.9))
@settings(max_examples=20, deadline=None)
def test_spec_tilt_duality_ldp(delta):
    spec = _ldp_spec()
    level = spec.density_at_point
    for signed in (delta, -delta):
        g = spec.rate(signed, level)
        if not g.finite:
            continue
        u = spec.tilt(signed, level)
        assert abs(u * signed - cgf_limit(spec, u) - g.value) <= 1e-8


def test_spec_cgf_limit_quadratic_closed_form():
    spec = _quad_spec()
    u = 0.8
    expected = 0.5 * u * u * spec.density_at_point * GAUSS.l2_norm_sq((0,)) / (1 - 0.09)
    assert_allclose(cgf_limit(spec, u), expected, rtol=1e-12)
    spec = _derivative_spec()
    expected = 0.5 * u * u * spec.density_at_point * GAUSS.l2_norm_sq((1,)) / (1 - 0.81)
    assert_allclose(cgf_limit(spec, u), expected, rtol=1e-12)


def test_uniform_spec_validation():
    # the spec that carries the uniform rates rejects a (d + 2|alpha|) >= 1
    with pytest.raises(ValueError, match=r"a \(d \+ 2\|alpha\|\) = 1.8 >= 1"):
        _level_spec(ScalingSequence(kind="power", b=0.1), 0.5, a=0.6, alpha=(1,))


def test_public_names_resolve():
    import recdev

    for name in recdev.__all__:
        assert getattr(recdev, name) is not None


def test_two_dimensional_psi_slope():
    ev = PsiEvaluator(builtin_kernel("gaussian", 2), 0.2)
    assert_allclose(float(ev.psi_prime(0.0)), 1.0 / (1 - 0.4), rtol=1e-9)
    assert float(ev.psi(0.5)) > 0.5 * ev.prime_at_zero  # convexity above tangent


def _psi_oracle_2d(kernel, a, u, r):
    # independent route: scipy quad over s of a Gauss-Legendre tensor in z
    # on the whole box [-r, r]^2, with neither the fold nor the closed form
    from scipy.integrate import quad

    x, w = np.polynomial.legendre.leggauss(120)
    z = r * np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1).reshape(-1, 2)
    wz = r * r * np.outer(w, w).ravel()
    g = 2 * a
    arg = u * kernel.eval(z) / (1 - g)
    integrand = lambda s: s**-g * (wz @ np.expm1(s**g * arg))
    return quad(integrand, 0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)[0]


@pytest.mark.parametrize("name,r", [("epanechnikov", 1.0), ("gaussian", 8.5)])
def test_two_dimensional_psi_matches_tensor_oracle(name, r):
    kernel = builtin_kernel(name, 2)
    ev = PsiEvaluator(kernel, 0.2)
    for u in (-2.0, 0.5, 2.0):
        assert_allclose(ev.psi(u), _psi_oracle_2d(kernel, 0.2, u, r), rtol=1e-9)


def test_constructor_refuses_zero_exponent_and_uneven_kernel():
    with pytest.raises(ValueError, match="0 < a\\*d < 1"):
        PsiEvaluator(GAUSS, 0.0)
    signed = _signed_kernel()
    shifted = KernelModel(
        name="shifted_parabola",
        dimension=1,
        fn=lambda mi, pts: signed.fn(mi, pts - 0.1),
        support_radius=1.1,
        positive_support_measure=signed.positive_support_measure,
        negative_support_measure=signed.negative_support_measure,
        max_derivative_order=0,
    )
    with pytest.raises(ValueError, match="even in each coordinate"):
        PsiEvaluator(shifted, 0.3)


def test_psi_memory_stays_within_the_block_budget():
    # the (u x node x term) work is chunked, so 4001 points cost no more
    # than a few series blocks on top of the answer
    import tracemalloc

    ev = PsiEvaluator(GAUSS, 0.25)
    us = np.linspace(-40.0, 12.0, 4001)
    tracemalloc.start()
    try:
        ev.psi(us)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_newton_memory_stays_within_the_block_budget():
    # Newton holds psi' and psi'' between the nested levels of each group of u
    import tracemalloc

    ev = PsiEvaluator(GAUSS, 0.25)
    ts = np.linspace(0.05, 3.0, 4001)
    tracemalloc.start()
    try:
        ev.inverse_prime(ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_a_group_of_the_nested_walk_fits_the_block_budget_at_the_top_level():
    top = len(tanh_sinh(0.0, 1.0, ratefn._LEVELS[-1])[0])
    assert ratefn._GROUP * top <= BLOCK_ENTRIES < (ratefn._GROUP + 1) * top


@pytest.mark.parametrize("kernel,a", [(GAUSS, 0.3), (EPAN, 0.25)])
def test_each_nested_level_equals_the_level_evaluated_afresh(kernel, a):
    ev = PsiEvaluator(kernel, a)
    kinds = ("psi", "prime", "second")
    us = np.array([-300.0, -30.0, -2.5, -0.1, 0.0, 0.7, 3.0, 12.0])
    at_level = ev._nested(us, kinds)
    idx = np.arange(len(us))
    for level in ratefn._LEVELS:
        assert at_level(idx, level).tobytes() == ev._at_level(us[idx], level, kinds).tobytes()
        if level == ratefn._LEVELS[1]:  # the u still open are a subset of those before
            idx = idx[[0, 2, 3, 6]]


@pytest.mark.parametrize(
    "kernel,level,elements", [(GAUSS, 5, 279), (EPAN, 4, 141)]
)
def test_nested_levels_evaluate_each_node_once(monkeypatch, kernel, level, elements):
    # level 4's 139 nodes and level 3's outermost pair, then level 5's 138
    # odd nodes; evaluated afresh, levels 3 to 5 cost 71 + 139 + 277
    seen = []
    s_integral = ratefn._s_integral

    def counted(b, A, excess=False):
        seen.append(A.size)
        return s_integral(b, A, excess)

    monkeypatch.setattr(ratefn, "_s_integral", counted)
    ev = PsiEvaluator(kernel, 0.25)
    for f in (ev.psi, ev.psi_prime, ev.psi_second):
        for u in (-1.0, 1.0, 3.0):
            seen.clear()
            before = ev.counts["psi_evaluations_per_level"][level]
            f(u)
            assert ev.counts["psi_evaluations_per_level"][level] == before + 1
            assert sum(seen) == elements


def _signed_kernel():
    # 1.5 (1 - 2 z^2) on [-1, 1]: unit mass, sign change at |z| = 1/sqrt(2)
    def fn(mi, pts):
        z = pts[:, 0]
        return np.where(np.abs(z) <= 1.0, 1.5 * (1.0 - 2.0 * z * z), 0.0)

    return KernelModel(
        name="signed_parabola",
        dimension=1,
        fn=fn,
        support_radius=1.0,
        positive_support_measure=math.sqrt(2.0),
        negative_support_measure=2.0 - math.sqrt(2.0),
        max_derivative_order=0,
    )


def test_signed_kernel_keeps_negative_arguments_finite():
    ev = PsiEvaluator(_signed_kernel(), 0.3)
    assert ev.legendre(1.0 / 0.7).value <= 1e-10
    for t in (-0.8, -0.2, 0.0, 0.4):
        rv = ev.legendre(t)
        assert rv.finite
        assert rv.value > 0


def test_signed_kernel_duality_spans_the_sign_change():
    ev = PsiEvaluator(_signed_kernel(), 0.3)
    us = np.linspace(-8.0, 4.0, 4001)
    psi_vals = ev.psi(us)
    for t in (-0.6, 0.5, 2.0):
        dual = float(np.max(us * t - psi_vals))
        assert ev.legendre(float(t)).value == pytest.approx(dual, abs=5e-5)
    ts = np.linspace(-0.8, 3.0, 25)
    vals = [ev.legendre(float(t)).value for t in ts]
    assert np.all(np.diff(vals, 2) > -1e-9)  # convex across the sign change
