"""Sampling densities with analytic partial derivatives.

The estimator targets d^alpha f, so densities used in experiments must
expose the same partial derivatives as the kernels do.  Three families are
provided: diagonal gaussian, gaussian mixture, and uniform box.  The box
density is not differentiable across its boundary and therefore only
supports |alpha| = 0.

Points follow the kernels' shape rule (`kernels.as_points`), and the pdf
is the partial at the zero multi-index, so each family writes one
evaluation body.  Derivative sups of the 1-d gaussian families use the
shared `kernels.scan_sup` search.
"""

from __future__ import annotations

import functools

import numpy as np

from .kernels import MultiIndex, as_points, derivative_index, hermite_phi, scan_sup
from .numerics import finite_array


class Density:
    """Shared point handling; subclasses fill _partial/sample."""

    dimension: int = 1
    name: str = ""
    max_derivative_order: int = 0

    def pdf(self, points):
        return self.partial(None, points)

    def partial(self, alpha, points):
        mi = derivative_index(alpha, self, "density")
        pts, lead = as_points(points, self.dimension)
        return self._partial(mi, pts).reshape(lead)

    def sample(self, rng: np.random.Generator, n: int, out=None) -> np.ndarray:
        """n draws, shape (n, d), written into `out` when given and returned."""
        raise NotImplementedError

    def max_abs_derivative(self, order: int) -> float:
        """sup_x |f^(order)(x)| (one-dimensional densities only)."""
        raise NotImplementedError

    def _partial(self, mi, pts):
        raise NotImplementedError


@functools.lru_cache(maxsize=None)
def _standard_gaussian_sup(order: int) -> float:
    """sup_x |phi^(order)(x)| of the standard normal, scanned once per order."""
    return scan_sup(lambda x: hermite_phi(order, x), -10.0, 10.0, 40001)


class GaussianDensity(Density):
    """Product of independent normals with per-coordinate mean and sigma."""

    def __init__(self, mean, sigma):
        self.mean = np.atleast_1d(finite_array(mean, "mean"))
        self.sigma = np.atleast_1d(finite_array(sigma, "sigma"))
        if self.mean.shape != self.sigma.shape or self.mean.ndim != 1:
            raise ValueError("mean and sigma must be 1-D arrays of equal length")
        if np.any(self.sigma <= 0):
            raise ValueError("sigma must be positive")
        self.dimension = len(self.mean)
        self.name = "gaussian"
        self.max_derivative_order = 6

    def _partial(self, mi, pts):
        # z and each factor are fresh arrays, scaled in place; the product
        # starts from axis 0's factor, at the plain product's bits (1.0 v = v)
        z = pts - self.mean
        z /= self.sigma
        out = None
        for j, aj in enumerate(mi.components):
            factor = hermite_phi(aj, z[:, j])
            factor /= self.sigma[j] ** (aj + 1)
            out = factor if out is None else out * factor
        return out

    def sample(self, rng, n, out=None):
        # in place, at the bits of mean + sigma * eps
        x = rng.standard_normal((n, self.dimension), out=out)
        x *= self.sigma
        x += self.mean
        return x

    def max_abs_derivative(self, order):
        if self.dimension != 1:
            raise ValueError("derivative sup is implemented for d = 1 only")
        return _standard_gaussian_sup(order) / float(self.sigma[0]) ** (order + 1)


class GaussianMixtureDensity(Density):
    """Weighted mixture of diagonal gaussians."""

    def __init__(self, weights, means, sigmas):
        self.weights = finite_array(weights, "weights")
        self.means = np.atleast_2d(finite_array(means, "means"))
        self.sigmas = np.atleast_2d(finite_array(sigmas, "sigmas"))
        if self.weights.ndim != 1 or len(self.weights) != len(self.means):
            raise ValueError("weights and means must have matching first dimension")
        if self.means.shape != self.sigmas.shape:
            raise ValueError("means and sigmas must have matching shapes")
        if np.any(self.weights <= 0) or abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be positive and sum to one")
        if np.any(self.sigmas <= 0):
            raise ValueError("sigmas must be positive")
        self.dimension = self.means.shape[1]
        self.name = "gaussian_mixture"
        self.max_derivative_order = 6
        self._components = [
            GaussianDensity(self.means[m], self.sigmas[m]) for m in range(len(self.weights))
        ]

    def _partial(self, mi, pts):
        out = np.zeros(len(pts))
        for w, comp in zip(self.weights, self._components):
            out += w * comp._partial(mi, pts)
        return out

    def sample(self, rng, n, out=None):
        comp = rng.choice(len(self.weights), size=n, p=self.weights)
        x = rng.standard_normal((n, self.dimension), out=out)
        x *= self.sigmas[comp]
        x += self.means[comp]
        return x

    def max_abs_derivative(self, order):
        if self.dimension != 1:
            raise ValueError("derivative sup is implemented for d = 1 only")
        span = np.abs(self.means[:, 0]) + 10.0 * self.sigmas[:, 0]
        r = float(np.max(span))
        mi = MultiIndex((order,))
        return scan_sup(lambda x: self._partial(mi, x.reshape(-1, 1)), -r, r, 80001)


class UniformBoxDensity(Density):
    """Constant density on an axis-aligned box; |alpha| = 0 only."""

    def __init__(self, low, high):
        self.low = np.atleast_1d(finite_array(low, "low"))
        self.high = np.atleast_1d(finite_array(high, "high"))
        if self.low.shape != self.high.shape or self.low.ndim != 1:
            raise ValueError("low and high must be 1-D arrays of equal length")
        if np.any(self.high <= self.low):
            raise ValueError("box must have positive volume")
        self.dimension = len(self.low)
        self.name = "uniform_box"
        self.max_derivative_order = 0
        self._volume = float(np.prod(self.high - self.low))

    def _partial(self, mi, pts):
        inside = np.all((pts >= self.low) & (pts <= self.high), axis=1)
        return np.where(inside, 1.0 / self._volume, 0.0)

    def sample(self, rng, n, out=None):
        x = rng.random((n, self.dimension), out=out)
        x *= self.high - self.low
        x += self.low
        return x

    def max_abs_derivative(self, order):
        if order == 0:
            return 1.0 / self._volume
        raise ValueError("uniform box density is not differentiable across its boundary")


_DENSITY_KEYS = {
    "gaussian": ("mean", "sigma"),
    "gaussian_mixture": ("weights", "means", "sigmas"),
    "uniform_box": ("low", "high"),
}


def build_density(name: str, params: dict) -> Density:
    """Construct a density from flat config parameters; a key its family does not name raises."""
    if name not in tuple(_DENSITY_KEYS):  # compared by ==, so any JSON value gets this message
        raise ValueError(f"unknown density '{name}'; choose from {', '.join(_DENSITY_KEYS)}")
    stray = sorted(set(params) - set(_DENSITY_KEYS[name]))
    if stray:
        raise ValueError(
            f"density '{name}' takes parameters {', '.join(_DENSITY_KEYS[name])}; "
            f"got unknown {', '.join(stray)}"
        )
    if name == "gaussian":
        return GaussianDensity(params.get("mean", [0.0]), params.get("sigma", [1.0]))
    if name == "gaussian_mixture":
        if not {"weights", "means", "sigmas"} <= params.keys():
            raise ValueError("gaussian_mixture needs weights, means and sigmas")
        return GaussianMixtureDensity(params["weights"], params["means"], params["sigmas"])
    return UniformBoxDensity(params.get("low", [0.0]), params.get("high", [1.0]))
