import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from recdev import densities
from recdev.densities import (
    GaussianDensity,
    GaussianMixtureDensity,
    UniformBoxDensity,
    build_density,
)


def test_gaussian_pdf_matches_scipy():
    from scipy.stats import norm

    f = GaussianDensity(mean=[0.5], sigma=[2.0])
    x = np.linspace(-4, 6, 31)
    assert_allclose(f.pdf(x), norm.pdf(x, loc=0.5, scale=2.0), rtol=1e-12)


def test_gaussian_product_form_two_dimensions():
    from scipy.stats import norm

    f = GaussianDensity(mean=[0.0, 1.0], sigma=[1.0, 0.5])
    pts = np.array([[0.0, 1.0], [1.0, 0.0], [-2.0, 2.0]])
    expected = norm.pdf(pts[:, 0]) * norm.pdf(pts[:, 1], loc=1.0, scale=0.5)
    assert_allclose(f.pdf(pts), expected, rtol=1e-12)


def test_gaussian_partial_derivatives():
    from scipy.stats import norm

    f = GaussianDensity(mean=[0.0], sigma=[1.0])
    x = np.array([0.0, 0.7, -1.3])
    assert_allclose(f.partial((1,), x), -x * norm.pdf(x), rtol=1e-12)
    assert_allclose(f.partial((2,), x), (x**2 - 1) * norm.pdf(x), rtol=1e-12)
    # scaled and shifted: chain rule brings a 1/sigma per order
    g = GaussianDensity(mean=[1.0], sigma=[2.0])
    z = (x - 1.0) / 2.0
    assert_allclose(g.partial((1,), x), -z * norm.pdf(z) / 4.0, rtol=1e-12)


def test_partial_zero_order_is_pdf():
    f = GaussianDensity(mean=[0.0, 0.0], sigma=[1.0, 1.0])
    pts = np.array([[0.1, 0.2], [0.3, -0.4]])
    assert_allclose(f.partial((0, 0), pts), f.pdf(pts), rtol=1e-15)


def test_mixture_pdf_and_partial():
    from scipy.stats import norm

    mix = GaussianMixtureDensity(
        weights=[0.3, 0.7], means=[[-1.0], [2.0]], sigmas=[[1.0], [0.5]]
    )
    x = np.linspace(-4, 5, 19)
    expected = 0.3 * norm.pdf(x, -1.0, 1.0) + 0.7 * norm.pdf(x, 2.0, 0.5)
    assert_allclose(mix.pdf(x), expected, rtol=1e-12)
    d1 = (
        0.3 * (-(x + 1.0)) * norm.pdf(x, -1.0, 1.0)
        + 0.7 * (-(x - 2.0) / 0.25) * norm.pdf(x, 2.0, 0.5)
    )
    assert_allclose(mix.partial((1,), x), d1, rtol=1e-12)


def test_mixture_weight_validation():
    with pytest.raises(ValueError):
        GaussianMixtureDensity(weights=[0.5, 0.2], means=[[0.0], [1.0]], sigmas=[[1.0], [1.0]])


def test_uniform_box():
    box = UniformBoxDensity(low=[0.0, -1.0], high=[2.0, 1.0])
    pts = np.array([[1.0, 0.0], [3.0, 0.0], [1.0, -2.0]])
    assert_allclose(box.pdf(pts), [0.25, 0.0, 0.0])
    assert_allclose(box.partial((0, 0), pts), box.pdf(pts))


def test_uniform_box_derivative_sup():
    box = UniformBoxDensity(low=[0.0], high=[2.0])
    assert box.max_abs_derivative(0) == 0.5
    with pytest.raises(ValueError, match="not differentiable across its boundary"):
        box.max_abs_derivative(1)


@pytest.mark.parametrize("build, message", [
    (lambda: GaussianDensity(mean=[True], sigma=[1.0]), "mean must be a list of numbers; got [True]"),
    (lambda: GaussianDensity(mean=[0.0], sigma=["1"]), "sigma must be a list of numbers; got ['1']"),
    (lambda: GaussianDensity(mean=[math.nan], sigma=[1.0]), "mean must be finite; got nan"),
    (lambda: GaussianMixtureDensity(weights=[1.0], means=[[0.0]], sigmas=[[math.inf]]),
     "sigmas must be finite; got inf"),
    (lambda: GaussianMixtureDensity(weights=[True], means=[[0.0]], sigmas=[[1.0]]),
     "weights must be a list of numbers; got [True]"),
    (lambda: UniformBoxDensity(low=[0.0], high=[False]), "high must be a list of numbers; got [False]"),
])
def test_parameters_are_real_arrays_named_in_their_refusal(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_sampling_moments():
    f = GaussianDensity(mean=[0.5], sigma=[2.0])
    rng = np.random.Generator(np.random.Philox(key=np.array([7, 0], dtype=np.uint64)))
    x = f.sample(rng, 200_000)
    assert x.shape == (200_000, 1)
    assert abs(x.mean() - 0.5) < 0.02
    assert abs(x.std() - 2.0) < 0.02


def test_mixture_sampling_is_seed_deterministic():
    mix = GaussianMixtureDensity(
        weights=[0.4, 0.6], means=[[-2.0], [1.0]], sigmas=[[0.5], [1.5]]
    )
    draws = []
    for _ in range(2):
        rng = np.random.Generator(np.random.Philox(key=np.array([11, 3], dtype=np.uint64)))
        draws.append(mix.sample(rng, 1000))
    assert np.array_equal(draws[0], draws[1])
    assert abs(draws[0].mean() - (0.4 * -2.0 + 0.6 * 1.0)) < 0.15


def test_uniform_box_sampling_inside():
    box = UniformBoxDensity(low=[0.0], high=[2.0])
    rng = np.random.Generator(np.random.Philox(key=np.array([5, 0], dtype=np.uint64)))
    x = box.sample(rng, 5000)
    assert x.min() >= 0.0 and x.max() <= 2.0


@pytest.mark.parametrize(
    "density",
    [
        GaussianDensity(mean=[0.3, -1.0], sigma=[0.7, 2.5]),
        GaussianMixtureDensity(weights=[0.3, 0.7], means=[[-1.0], [2.0]], sigmas=[[0.5], [1.3]]),
        UniformBoxDensity(low=[-0.3, 1.0], high=[0.9, 4.0]),
    ],
    ids=lambda f: f.name,
)
def test_sampling_into_a_buffer_matches_a_fresh_draw_bit_for_bit(density):
    def rng():
        return np.random.Generator(np.random.Philox(key=np.array([9, 2], dtype=np.uint64)))

    fresh = density.sample(rng(), 3000)
    buf = np.full((2, 3000, density.dimension), np.nan)
    out = buf[1]
    assert density.sample(rng(), 3000, out=out) is out
    assert out.tobytes() == fresh.tobytes()
    assert np.isnan(buf[0]).all()


def test_max_abs_derivative_against_scan_oracle():
    from scipy.stats import norm

    f = GaussianDensity(mean=[0.0], sigma=[1.0])
    # sup |f''| over the line is at the origin for the standard normal
    assert_allclose(f.max_abs_derivative(2), norm.pdf(0.0), rtol=1e-6)
    grid = np.linspace(-8, 8, 200_001)
    sup3 = np.max(np.abs((3 * grid - grid**3) * norm.pdf(grid)))
    assert_allclose(f.max_abs_derivative(3), sup3, rtol=1e-5)


def test_build_density_dispatch():
    f = build_density("gaussian", {"mean": [0.0], "sigma": [1.0]})
    assert isinstance(f, GaussianDensity)
    mix = build_density(
        "gaussian_mixture",
        {"weights": [1.0], "means": [[0.0]], "sigmas": [[1.0]]},
    )
    assert isinstance(mix, GaussianMixtureDensity)
    box = build_density("uniform_box", {"low": [0.0], "high": [1.0]})
    assert isinstance(box, UniformBoxDensity)
    with pytest.raises(ValueError):
        build_density("cauchy", {})
    with pytest.raises(ValueError, match="takes parameters low, high; got unknown mean"):
        build_density("uniform_box", {"low": [0.0], "mean": [1.0]})


@given(st.floats(min_value=-3, max_value=3), st.floats(min_value=0.3, max_value=2.5))
@settings(max_examples=40, deadline=None)
def test_pdf_nonnegative_and_symmetric_about_mean(mu, sig):
    f = GaussianDensity(mean=[mu], sigma=[sig])
    t = 0.8
    assert f.pdf(np.array([mu + t]))[0] == pytest.approx(f.pdf(np.array([mu - t]))[0], rel=1e-12)
    assert f.pdf(np.array([mu + t]))[0] > 0


def test_point_shape_contract():
    f = GaussianDensity(mean=[0.0], sigma=[1.0])
    assert f.pdf(np.array([0.3])).shape == (1,)
    assert f.pdf(np.array([0.3, 0.4])).shape == (2,)
    assert f.pdf(np.array([[0.3], [0.4]])).shape == (2,)
    g = GaussianDensity(mean=[0.0, 0.0], sigma=[1.0, 1.0])
    assert g.pdf(np.array([0.3, 0.4])).shape == ()  # one 2-d point
    assert g.pdf(np.array([[0.3, 0.4]])).shape == (1,)
    x = np.array([-0.2, 0.3, 0.9])
    for h in (
        f,
        GaussianMixtureDensity([0.4, 0.6], [[-1.0], [1.0]], [[0.5], [1.0]]),
        UniformBoxDensity(low=[0.0], high=[1.0]),
    ):
        assert_allclose(h.pdf(x), h.pdf(x.reshape(-1, 1)), rtol=0, atol=0)
        assert_allclose(h.partial((0,), x), h.pdf(x), rtol=0, atol=0)
        assert h.pdf(0.3).shape == ()
    pts = np.array([[0.3, 0.4], [-1.0, 2.0]])
    assert_allclose(g.pdf(pts[0]), g.pdf(pts)[0], rtol=0, atol=0)
    assert g.pdf(pts.reshape(1, 2, 2)).shape == (1, 2)
    with pytest.raises(ValueError):
        g.pdf(np.array([[0.3], [0.4]]))


def test_densities_compare_by_identity_and_hash():
    a = GaussianDensity(mean=[0.0], sigma=[1.0])
    assert a == a
    assert a != GaussianDensity(mean=[5.0], sigma=[2.0])
    assert a != GaussianDensity(mean=[0.0], sigma=[1.0])
    for f in (
        a,
        GaussianMixtureDensity([1.0], [[0.0]], [[1.0]]),
        UniformBoxDensity(low=[0.0], high=[1.0]),
    ):
        assert {f: 1}[f] == 1
        assert hash(f) == hash(f)


def test_gaussian_derivative_sup_is_scanned_once_per_order(monkeypatch):
    first = GaussianDensity(mean=[0.0], sigma=[0.7]).max_abs_derivative(4)

    def no_scan(*args):
        raise AssertionError("the sup of an order already scanned was scanned again")

    monkeypatch.setattr(densities, "scan_sup", no_scan)
    again = GaussianDensity(mean=[2.0], sigma=[0.7]).max_abs_derivative(4)
    assert np.float64(again).tobytes() == np.float64(first).tobytes()
