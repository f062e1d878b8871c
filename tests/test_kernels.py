import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from recdev import kernels, ratefn
from recdev.bandwidth import BandwidthSchedule, ScalingSequence
from recdev.cgf import CgfSpec
from recdev.densities import GaussianDensity, UniformBoxDensity
from recdev.deviations import DeviationExperiment
from recdev.estimator import RecursiveEstimator, batch_values, expected_estimate
from recdev.kernels import (
    _TENSOR_TOL,
    KernelModel,
    MultiIndex,
    as_multi_index,
    as_points,
    builtin_kernel,
    hermite_phi,
    kernel_moment,
    kernel_quadrature,
    norm_moment,
    tensor_grid,
    tensor_rule,
)
from recdev.numerics import tanh_sinh, within
from recdev.ratefn import PsiEvaluator

KERNEL_NAMES = ("gaussian", "epanechnikov", "quartic")


def _lowered(mi: MultiIndex, axis: int) -> MultiIndex:
    """The multi-index with one derivative removed on `axis`."""
    if mi.components[axis] < 1:
        raise ValueError(f"axis {axis} has no derivative to lower")
    comps = list(mi.components)
    comps[axis] -= 1
    return MultiIndex(tuple(comps))


def finite_difference_check(model, alpha, points, h: float = 1e-3) -> float:
    """Largest gap between d^alpha K and a central difference of d^(alpha - e_j).

    Differentiates once along the first axis carrying a derivative; the
    lower-order partial comes from the model itself, so the check validates
    each derivative order against the one below it.
    """
    mi = as_multi_index(alpha, model.dimension)
    if mi.order == 0:
        raise ValueError("finite-difference check needs |alpha| >= 1")
    axis = next(j for j, aj in enumerate(mi.components) if aj > 0)
    lower = _lowered(mi, axis)
    pts, _ = as_points(points, model.dimension)
    shift = np.zeros(model.dimension)
    shift[axis] = h
    fd = (model.deriv_eval(lower, pts + shift) - model.deriv_eval(lower, pts - shift)) / (
        2.0 * h
    )
    exact = model.deriv_eval(mi, pts)
    return float(np.max(np.abs(fd - exact)))


@pytest.mark.parametrize("name", KERNEL_NAMES)
@pytest.mark.parametrize("d", (1, 2))
def test_unit_mass(name, d):
    from scipy.integrate import quad

    k1 = builtin_kernel(name, 1)
    mass, _ = quad(lambda t: float(k1.eval(np.array([[t]]))[0]), -k1.support_radius, k1.support_radius)
    assert_allclose(mass, 1.0, atol=1e-10)
    # product construction: mass in d dimensions is the 1-d mass to the d-th power
    kd = builtin_kernel(name, d)
    y, w = kernel_quadrature(kd, level=1)
    assert_allclose(w @ kd.eval(y), 1.0, atol=1e-9)


def test_sup_and_l2_against_closed_forms():
    g = builtin_kernel("gaussian", 1)
    assert_allclose(g.sup_norm(), 1.0 / math.sqrt(2 * math.pi), rtol=1e-12)
    assert_allclose(g.l2_norm_sq(), 1.0 / (2 * math.sqrt(math.pi)), rtol=1e-12)
    e = builtin_kernel("epanechnikov", 1)
    assert_allclose(e.sup_norm(), 0.75, rtol=1e-12)
    assert_allclose(e.l2_norm_sq(), 0.6, rtol=1e-12)
    q = builtin_kernel("quartic", 1)
    assert_allclose(q.sup_norm(), 15.0 / 16.0, rtol=1e-12)
    assert_allclose(q.l2_norm_sq(), 5.0 / 7.0, rtol=1e-12)


def _parabola_kernel(d):
    """The product parabola 0.75 (1 - y_j^2) on (-1, 1)^d, built from `fn` alone."""

    def fn(mi, pts):
        out = np.ones(len(pts))
        for y in pts.T:
            out = out * np.where(np.abs(y) < 1.0, 0.75 * (1.0 - y * y), 0.0)
        return out

    return KernelModel(
        name="parabola",
        dimension=d,
        fn=fn,
        support_radius=1.0,
        positive_support_measure=2.0**d,
        negative_support_measure=0.0,
        max_derivative_order=0,
    )


@pytest.mark.parametrize("d", (1, 2))
def test_custom_kernel_from_fn_alone(d):
    # no profile: the sup scan (d = 1) or mesh (d = 2) and the tensor L2
    # quadrature stand in for the closed forms of the built-in epanechnikov
    k = _parabola_kernel(d)
    pts = np.random.default_rng(5).uniform(-1.3, 1.3, size=(400, d))
    assert k.eval(pts).tobytes() == builtin_kernel("epanechnikov", d).eval(pts).tobytes()
    assert k.sup_norm() == 0.75**d  # both grids contain 0
    assert_allclose(k.l2_norm_sq(), 0.6**d, rtol=1e-9)
    with pytest.raises(ValueError, match="up to order 0, requested \\|alpha\\| = 1"):
        k.deriv_eval((1,) + (0,) * (d - 1), pts)


@pytest.mark.parametrize("d", (1, 2, 3))
def test_tensor_rule_slices_concatenate_to_the_whole_rule(d):
    # psi's z rule, made chunk by chunk, is the whole rule bit for bit
    x, w = tanh_sinh(0.0, 1.0, 0)
    pts, ws = tensor_rule(x, w, d)
    n = len(x) ** d
    for step in (1, 4, 10, n - 1, n):
        parts = [tensor_rule(x, w, d, j, min(j + step, n)) for j in range(0, n, step)]
        assert np.concatenate([p for p, _ in parts]).tobytes() == pts.tobytes()
        assert np.concatenate([q for _, q in parts]).tobytes() == ws.tobytes()
    # row-major with the last axis fastest; each weight is a left-to-right product
    rows = list(itertools.product(range(len(x)), repeat=d))
    assert pts.tobytes() == np.array([[x[i] for i in r] for r in rows]).tobytes()
    assert ws.tobytes() == np.array([math.prod([w[i] for i in r]) for r in rows]).tobytes()
    assert tensor_grid(x, d).tobytes() == pts.tobytes()


def _custom_copy(name, d):
    """A built-in kernel's body without its profile, so every constant is integrated."""
    base = builtin_kernel(name, d)
    return KernelModel(
        name=f"custom_{name}",
        dimension=d,
        fn=base.fn,
        support_radius=base.support_radius,
        positive_support_measure=base.positive_support_measure,
        negative_support_measure=0.0,
        max_derivative_order=0,
    )


@pytest.mark.parametrize("name", ("epanechnikov", "quartic"))
@pytest.mark.parametrize("d", (1, 2))
def test_custom_constants_on_the_support_rule_match_the_closed_forms(name, d):
    closed, custom = builtin_kernel(name, d), _custom_copy(name, d)
    m2, m4 = kernel_moment(closed, 2), kernel_moment(closed, 4)
    pairs = [(custom.l2_norm_sq(), closed.l2_norm_sq()), (norm_moment(custom, 2), d * m2)]
    for s in (0, 1, 2, 4):
        pairs += [(kernel_moment(custom, s, axis=j), kernel_moment(closed, s)) for j in range(d)]
    # ||y||^4 = sum_j y_j^4 + sum_(j != k) y_j^2 y_k^2 under a product kernel of unit mass
    pairs.append((norm_moment(custom, 4), d * m4 + d * (d - 1) * m2 * m2))
    for got, want in pairs:
        assert within(abs(got - want), abs(want), _TENSOR_TOL), (got, want)


def test_tensor_rules_refuse_more_than_three_dimensions_before_any_node(monkeypatch):
    def no_nodes(*args, **kwargs):
        raise AssertionError("a node was built")

    for module, name in ((kernels, "gauss_legendre_panels"), (kernels, "tensor_rule"),
                         (ratefn, "tanh_sinh"), (ratefn, "tensor_rule")):
        monkeypatch.setattr(module, name, no_nodes)
    d = kernels.MAX_TENSOR_DIMENSION + 1
    assert d == 4
    with pytest.raises(ValueError, match="^tensor quadrature beyond d = 3 is not supported$"):
        kernel_quadrature(builtin_kernel("gaussian", d))
    with pytest.raises(ValueError, match="^tensor quadrature beyond d = 3 is not supported$"):
        _parabola_kernel(d).l2_norm_sq()
    with pytest.raises(ValueError, match="^sup scan beyond d = 3 is not supported; supply the constant$"):
        _parabola_kernel(d).sup_norm()
    with pytest.raises(ValueError, match="^psi quadrature supports d <= 3$"):
        PsiEvaluator(builtin_kernel("epanechnikov", d), 0.1)


def test_kernels_and_densities_share_the_derivative_order_check():
    with pytest.raises(
        ValueError, match=r"^kernel 'epanechnikov' supports derivatives up to order 0, requested \|alpha\| = 1$"
    ):
        builtin_kernel("epanechnikov", 1).partial_fn((1,))
    with pytest.raises(
        ValueError, match=r"^density 'uniform_box' supports derivatives up to order 0, requested \|alpha\| = 2$"
    ):
        UniformBoxDensity([0.0], [1.0]).partial((2,), [0.5])
    assert kernels.derivative_index((1, 0), builtin_kernel("quartic", 2), "kernel").order == 1


def test_support_measures():
    g = builtin_kernel("gaussian", 2)
    assert g.positive_support_measure == math.inf
    assert g.negative_support_measure == 0.0
    e = builtin_kernel("epanechnikov", 1)
    assert_allclose(e.positive_support_measure, 2.0, rtol=1e-12)
    assert e.negative_support_measure == 0.0


def test_second_moments_against_quad_oracle():
    from scipy.integrate import quad

    for name, expected in (("gaussian", 1.0), ("epanechnikov", 0.2), ("quartic", 1.0 / 7.0)):
        k = builtin_kernel(name, 1)
        ref, _ = quad(
            lambda t: t * t * float(k.eval(np.array([[t]]))[0]),
            -k.support_radius,
            k.support_radius,
        )
        assert_allclose(kernel_moment(k, 2, axis=0), expected, rtol=1e-9)
        assert_allclose(kernel_moment(k, 2, axis=0), ref, rtol=1e-9)


def test_odd_moments_vanish():
    for name in KERNEL_NAMES:
        k = builtin_kernel(name, 1)
        assert abs(kernel_moment(k, 1, axis=0)) < 1e-12
        assert abs(kernel_moment(k, 3, axis=0)) < 1e-10


def test_norm_moment_gaussian():
    # E|Z|^2 under the weight |K| equals the second moment for K >= 0
    g = builtin_kernel("gaussian", 1)
    assert_allclose(norm_moment(g, 2), 1.0, rtol=1e-9)


def test_gaussian_derivatives_match_finite_differences():
    g = builtin_kernel("gaussian", 2)
    pts = np.array([[0.3, -0.4], [1.0, 0.2], [-0.7, 1.5]])
    for alpha in ((1, 0), (0, 1), (2, 0), (1, 1)):
        err = finite_difference_check(g, alpha, pts)
        assert err < 1e-6


def test_gaussian_hermite_values():
    # d/dz of the standard normal pdf at z: -z phi(z)
    g = builtin_kernel("gaussian", 1)
    z = np.array([[0.5], [-1.2], [2.0]])
    phi = np.exp(-z[:, 0] ** 2 / 2) / math.sqrt(2 * math.pi)
    assert_allclose(g.deriv_eval((1,), z), -z[:, 0] * phi, rtol=1e-12)
    assert_allclose(g.deriv_eval((2,), z), (z[:, 0] ** 2 - 1) * phi, rtol=1e-12)


def _unflushed_phi(k, x):
    """phi^(k)(x) by the formula without the e^-700 floor on exp."""
    phi = np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
    if k == 0:
        return phi
    he_prev, he = np.ones_like(x), np.array(x, dtype=float, copy=True)
    for j in range(1, k):
        he_prev, he = he, x * he - j * he_prev
    return ((-1.0) ** k) * he * phi


def _gaussian_phi_routes(k):
    """hermite_phi and the gaussian kernel's eval/deriv_eval, as functions of x."""
    g = builtin_kernel("gaussian", 1)
    routes = [lambda x: hermite_phi(k, x), lambda x: g.deriv_eval((k,), x)]
    if k == 0:
        routes.append(g.eval)
    return routes


@pytest.mark.parametrize("k", range(7))
def test_gaussian_phi_flush_keeps_every_bit_above_the_floor(k):
    edge = math.sqrt(1400.0)
    near_edge = [edge]
    for _ in range(3):
        near_edge = [np.nextafter(near_edge[0], 0.0)] + near_edge + [np.nextafter(near_edge[-1], 40.0)]
    rng = np.random.default_rng(3)
    x = np.concatenate([np.linspace(-37.4, 37.4, 20001), rng.normal(0.0, 15.0, 5000), near_edge])
    x = np.concatenate([x, -x])
    inside = -0.5 * x * x >= -700.0
    assert inside[-7:].any() and not inside[-7:].all()  # the floor falls among the edge ulps
    want = _unflushed_phi(k, x[inside]).view(np.uint64)
    for route in _gaussian_phi_routes(k):
        got = route(x)
        assert np.array_equal(got[inside].view(np.uint64), want)
        assert np.all(got[~inside] == 0.0)


@pytest.mark.parametrize("k", range(7))
def test_gaussian_phi_is_zero_beyond_the_floor_and_keeps_nan(k):
    far = np.array([37.5, 38.6, 1e3, np.inf])
    x = np.concatenate([far, -far, [np.nan]])
    for route in _gaussian_phi_routes(k):
        got = route(x)
        assert np.all(got[:-1] == 0.0)
        assert np.isnan(got[-1])
        # scalar and 0-d input give the value of the 1-element array
        for v in (1.5, -37.5, np.inf):
            want = route(np.array([v]))[0]
            for arg in (v, np.array(v)):
                out = route(arg)
                assert np.shape(out) == () and out == want
        assert np.isnan(route(np.nan))


def test_derivative_order_cap():
    e = builtin_kernel("epanechnikov", 1)
    with pytest.raises(ValueError):
        e.deriv_eval((1,), np.array([[0.0]]))
    # the L2 norm refuses the same orders, past the end of its closed-form table
    with pytest.raises(ValueError, match="up to order 6"):
        builtin_kernel("gaussian", 1).l2_norm_sq((7,))
    with pytest.raises(ValueError, match="up to order 1"):
        builtin_kernel("quartic", 2).l2_norm_sq((1, 1))


def test_multi_index_validation():
    mi = as_multi_index((1, 2), 2)
    assert isinstance(mi, MultiIndex) and mi.order == 3
    with pytest.raises(ValueError):
        as_multi_index((1,), 2)
    with pytest.raises(ValueError):
        as_multi_index((-1, 0), 2)
    assert as_multi_index(None, 3).components == (0, 0, 0)
    with pytest.raises(ValueError, match="alpha"):
        as_multi_index((1,), 2)
    with pytest.raises(ValueError, match="integer"):
        MultiIndex((1.5,))
    assert MultiIndex((np.int64(2), 0)).components == (2, 0)


def test_builtin_kernel_dimension_is_a_positive_integer():
    for d in (0, 1.5, 2.0):
        with pytest.raises(ValueError, match="dimension"):
            builtin_kernel("gaussian", d)
    assert builtin_kernel("gaussian", np.int64(2)).dimension == 2


@given(st.sampled_from(KERNEL_NAMES), st.floats(min_value=-3.0, max_value=3.0))
@settings(max_examples=50, deadline=None)
def test_symmetry_and_sign(name, t):
    k = builtin_kernel(name, 1)
    left = float(k.eval(np.array([[-t]]))[0])
    right = float(k.eval(np.array([[t]]))[0])
    assert_allclose(left, right, rtol=1e-12, atol=1e-300)
    assert right >= 0.0  # all builtin kernels are nonnegative
    if abs(t) > k.support_radius:
        assert right == 0.0


def test_point_shape_handling_one_dimension():
    k = builtin_kernel("gaussian", 1)
    single = k.eval(np.array([0.5]))  # a length-1 batch, not a 1-d point
    batch = k.eval(np.array([0.5, 1.0]))
    column = k.eval(np.array([[0.5], [1.0]]))
    assert single.shape == (1,)
    assert batch.shape == (2,)
    assert_allclose(batch, column)
    assert_allclose(k.eval(0.5), single[0])  # a scalar is one point, shape ()
    assert k.eval(0.5).shape == ()


def test_as_points_rule():
    pts, lead = as_points(0.5, 1)
    assert pts.shape == (1, 1) and lead == ()
    pts, lead = as_points(np.zeros((4, 3)), 1)  # d = 1: every entry is a point
    assert pts.shape == (12, 1) and lead == (4, 3)
    pts, lead = as_points(np.zeros((4, 1)), 1)
    assert pts.shape == (4, 1) and lead == (4,)
    pts, lead = as_points([0.1, 0.2], 2)  # d = 2: one point
    assert pts.shape == (1, 2) and lead == ()
    pts, lead = as_points(np.zeros((3, 5, 2)), 2)
    assert pts.shape == (15, 2) and lead == (3, 5)
    for bad in (0.5, np.zeros((4, 3)), np.zeros((4, 1))):
        with pytest.raises(ValueError):
            as_points(bad, 2)


@pytest.mark.parametrize(
    "d,bad",
    [
        (1, True),
        (1, np.True_),
        (1, [True]),
        (1, [0.5, True]),
        (1, np.array([True, False])),
        (1, np.array([0.5, True], dtype=object)),
        (2, [[0.0, True]]),
    ],
)
def test_points_refuse_booleans(d, bad):
    # a bool used to read as 1.0 or 0.0: the gaussian pdf at [True] was 0.242
    kernel = builtin_kernel("gaussian", d)
    density = GaussianDensity(mean=[0.0] * d, sigma=[1.0] * d)
    for call in (
        kernel.eval,
        lambda p: kernel.deriv_eval((1,) * d, p),
        density.pdf,
        lambda p: density.partial((1,) * d, p),
    ):
        with pytest.raises(ValueError, match="points must be numbers, not booleans"):
            call(bad)
    assert kernel.eval(np.ones((2, d))).tolist() == kernel.eval([[1] * d, [1.0] * d]).tolist()


def _entry_point_outputs(d, points):
    """What each entry point built on as_points makes of the same points."""
    kernel = builtin_kernel("gaussian", d)
    density = GaussianDensity(mean=[0.1] * d, sigma=[1.0] * d)
    schedule = BandwidthSchedule(kind="power", c=0.7, a=0.2)
    est = RecursiveEstimator(kernel, schedule, points)
    est.update_batch(points)
    spec = CgfSpec(
        kernel=kernel,
        schedule=schedule,
        scaling=ScalingSequence(kind="constant_one"),
        density=density,
        point=[0.0] * d,
    )
    exp = DeviationExperiment(
        spec=spec, delta=0.3, n_list=(10,), replications=1, rng_seed=0, region=points
    )
    return {
        "grid": est.grid,
        "stream": est.values(),
        "batch_X": batch_values(kernel, schedule, points, np.zeros((1, d))),
        "batch_grid": batch_values(kernel, schedule, np.zeros((3, d)), points),
        "mean": expected_estimate(kernel, schedule, density, 5, points),
        "region": exp.region,
    }


@pytest.mark.parametrize(
    "d,shapes", [(1, [(4,), (4, 1)]), (2, [(4, 2)])]
)
def test_point_shape_rule_at_every_entry_point(d, shapes):
    rng = np.random.default_rng(0)
    base = rng.normal(size=(4, d))
    ref = _entry_point_outputs(d, base)
    assert ref["grid"].shape == ref["region"].shape == (4, d)
    assert ref["stream"].shape == ref["batch_grid"].shape == ref["mean"].shape == (4,)
    for shape in shapes:
        got = _entry_point_outputs(d, base.reshape(shape))
        for key, value in ref.items():
            assert_allclose(got[key], value, rtol=0, atol=0, err_msg=f"{key} at {shape}")
    if d == 2:  # a single (d,) point is a one-point grid
        one = _entry_point_outputs(d, base[0])
        assert one["grid"].shape == one["region"].shape == (1, 2)
        assert_allclose(one["mean"], ref["mean"][:1], rtol=1e-12)
