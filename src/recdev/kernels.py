"""Kernel models: evaluation, partial derivatives, and the constants they feed.

A kernel here is a bounded integrable function K on R^d with integral one.
Every kernel has one body, `fn(mi, pts)`, the alpha-partial d^mi K, with K
itself at the zero index.  The built-in families (gaussian, epanechnikov,
quartic) are products of a one-dimensional profile across coordinates: a
profile is `derivative(k, x)` (k = 0 is the value) plus its constants, so
every constant is a product of one-dimensional factors.  Signed or
non-product kernels are wrapped by passing their own `fn` to KernelModel;
they must then supply the support-sign measures themselves.

The built-in families fill their constants (L2 norms, low moments, sup
norms) in closed form; a custom kernel's integrals run on the support rule
to a hard tolerance (relative for values above 1), its sup on a scan.

The primitives every other module builds on live here, one helper each:
`as_points` (the point-shape rule), `as_multi_index` (None is the zero
index), `derivative_index` (the order check of kernels and densities),
`tensor_rule` (the tensor product of a 1-d rule, or a slice of its rows;
`tensor_grid` is its points; d <= `MAX_TENSOR_DIMENSION`),
`kernel_quadrature` (the Gauss-Legendre support-box rule behind E f_n, L_n
and a custom kernel's constants), `scan_sup` (dense scan plus bracketing
refinement) and `hermite_phi` (derivatives of the standard normal pdf).

`hermite_phi` is the one gaussian formula, and it flushes phi to 0 where
-x^2/2 < -700 (|x| > 37.42).  numpy's exp takes a slow path, 15-130x the
cost per element, for arguments below about -708, and in the Monte Carlo
harness about a quarter of the kernel arguments (x - X_i)/h_i lie there
once h_i is small; with the floor every nonzero phi is a normal double
and every other value keeps its bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .numerics import as_count, gauss_legendre_panels, positive_finite, refine_each

SQRT_2PI = math.sqrt(2.0 * math.pi)
# two panel doublings of a custom kernel's constant must agree to this gap,
# relative once the constant exceeds 1
_TENSOR_TOL = 1e-10
# the support rule, a custom kernel's sup mesh and psi's z rule refuse a larger d
MAX_TENSOR_DIMENSION = 3


@dataclass(frozen=True)
class MultiIndex:
    """Partial-derivative multi-index (a_1, ..., a_d) with |a| = sum a_j."""

    components: tuple[int, ...]

    def __post_init__(self):
        comps = tuple(as_count(c, "alpha component", 0) for c in self.components)
        if len(comps) == 0:
            raise ValueError("multi-index alpha needs at least one component")
        object.__setattr__(self, "components", comps)

    @property
    def order(self) -> int:
        return sum(self.components)

    @property
    def dimension(self) -> int:
        return len(self.components)


def as_multi_index(alpha, dimension: int) -> MultiIndex:
    """alpha as a MultiIndex of the given dimension; None is the zero index."""
    if alpha is None:
        return MultiIndex((0,) * dimension)
    try:
        mi = alpha if isinstance(alpha, MultiIndex) else MultiIndex(tuple(alpha))
    except TypeError:  # not a sequence
        raise ValueError(f"alpha must be a list of integers; got {alpha!r}") from None
    if mi.dimension != dimension:
        raise ValueError(
            f"alpha {mi.components} has dimension {mi.dimension}, kernel has {dimension}"
        )
    return mi


def derivative_index(alpha, owner, kind: str) -> MultiIndex:
    """alpha as a MultiIndex of `owner` (a KernelModel or a Density), refused past its order."""
    mi = as_multi_index(alpha, owner.dimension)
    if mi.order > owner.max_derivative_order:
        raise ValueError(
            f"{kind} '{owner.name}' supports derivatives up to order "
            f"{owner.max_derivative_order}, requested |alpha| = {mi.order}"
        )
    return mi


def as_points(points, d: int) -> tuple[np.ndarray, tuple]:
    """(m, d) float64 points plus the leading shape the input had.

    In d = 1 inputs are scalars, so (m,) is m points and only an explicit
    (m, 1) array is already in point form; in d >= 2 the last axis holds
    the coordinates, so a (d,) array is one point with leading shape ().
    A bool, or an array holding one, and an int beyond the float range
    raise ValueError; a float array passes with one dtype test.
    """
    arr = points if isinstance(points, np.ndarray) else np.array(points, dtype=object)
    if arr.dtype.kind in "bO" and (
        arr.dtype.kind == "b" or any(isinstance(v, (bool, np.bool_)) for v in arr.flat)
    ):
        raise ValueError(f"points must be numbers, not booleans; got {points!r}")
    try:
        pts = np.asarray(points, dtype=np.float64)
    except OverflowError:
        raise ValueError("points must be finite; got an int beyond the float range") from None
    if d == 1 and not (pts.ndim == 2 and pts.shape[-1] == 1):
        pts = pts.reshape(pts.shape + (1,))
    if pts.ndim == 0 or pts.shape[-1] != d:
        raise ValueError(f"points have shape {pts.shape}, need a last dimension of {d}")
    return pts.reshape(-1, d), pts.shape[:-1]


def tensor_rule(x: np.ndarray, w: np.ndarray, d: int, start: int = 0, stop=None):
    """Rows start:stop (stop <= len(x)**d) of the tensor product of the 1-d rule (x, w).

    Returns points (m, d) and weights (m,).  Rows run row-major (the last
    axis fastest) and weights multiply from the first axis on, so slices
    concatenate to the whole rule bit for bit.
    """
    ij = np.unravel_index(np.arange(start, len(x) ** d if stop is None else stop), (len(x),) * d)
    ws = w[ij[0]]
    for i in ij[1:]:
        ws = ws * w[i]
    return np.stack([x[i] for i in ij], axis=-1), ws


def tensor_grid(x: np.ndarray, d: int) -> np.ndarray:
    """Every d-tuple of the 1-d nodes x, as (len(x)**d, d): the points of `tensor_rule`."""
    return tensor_rule(x, np.ones_like(x), d)[0]


def scan_sup(f, lo: float, hi: float, num: int) -> float:
    """sup |f| on [lo, hi]: the largest of `num` even samples, refined by bracketing.

    Sixty rounds of a 9-point scan around the running maximum shrink the
    bracket by 4x each, far below float spacing; f maps a 1-d array to values.
    """
    x = np.linspace(lo, hi, num)
    i = int(np.argmax(np.abs(f(x))))
    lo, hi = x[max(i - 1, 0)], x[min(i + 1, num - 1)]
    for _ in range(60):
        xs = np.linspace(lo, hi, 9)
        j = int(np.argmax(np.abs(f(xs))))
        lo, hi = xs[max(j - 1, 0)], xs[min(j + 1, 8)]
    return float(np.abs(f(np.array([0.5 * (lo + hi)])))[0])


# phi below exp(_EXP_FLOOR) / sqrt(2 pi) = 3.9e-305 is flushed to 0 (module docstring)
_EXP_FLOOR = -700.0


def hermite_phi(k: int, x) -> np.ndarray:
    """phi^(k)(x) = (-1)^k He_k(x) phi(x), with He_k the probabilists' Hermite polynomial.

    phi is exactly 0 where -x^2/2 < -700, i.e. |x| > 37.42, including
    |x| = inf; everywhere else every bit is that of exp(-x^2/2)/sqrt(2 pi).
    The floor keeps exp off numpy's slow path for arguments below about
    -708 (bottom of the normal range and subnormal results), and leaves
    every nonzero phi a normal double.  NaN propagates.
    """
    a = np.asarray(-0.5 * x * x)
    keep = a >= _EXP_FLOOR
    # in place on a: one temporary per call instead of three
    phi = np.exp(np.maximum(a, _EXP_FLOOR, out=a), out=a)
    phi *= keep
    phi /= SQRT_2PI
    if k == 0:
        return phi[()]
    # He_k at 0 where phi was flushed, so |x| = inf gives 0, not inf * 0
    x = np.where(keep, x, 0.0)
    he_prev = np.ones_like(x)
    he = np.array(x, dtype=float, copy=True)
    for j in range(1, k):
        he_prev, he = he, x * he - j * he_prev
    return ((-1.0) ** k) * he * phi


class _GaussianProfile:
    name = "gaussian"
    # phi(8.5) ~ 5e-17; integrand tails beyond the box are < 1e-14 even
    # after multiplication by moderate exp factors
    radius = 8.5
    max_order = 6
    # int (phi^(k))^2 = (2k)! / (k! 4^k 2 sqrt(pi))
    l2_table = {
        k: math.factorial(2 * k) / (math.factorial(k) * 4.0**k * 2.0 * math.sqrt(math.pi))
        for k in range(max_order + 1)
    }
    sup = 1.0 / SQRT_2PI  # phi(0)

    derivative = staticmethod(hermite_phi)

    def moment(self, s):
        # double factorial (s-1)!!
        return float(math.prod(range(1, s, 2)))


class _EpanechnikovProfile:
    name = "epanechnikov"
    radius = 1.0
    max_order = 0  # the slope is discontinuous at the support edge
    l2_table = {0: 3.0 / 5.0}
    sup = 0.75

    def derivative(self, k, x):
        if k == 0:
            inside = np.abs(x) < 1.0
            return np.where(inside, 0.75 * (1.0 - x * x), 0.0)
        raise ValueError("epanechnikov kernel is not differentiable at its support edge")

    def moment(self, s):
        # int x^s 3/4 (1 - x^2) on [-1, 1]
        return 1.5 * (1.0 / (s + 1.0) - 1.0 / (s + 3.0))


class _QuarticProfile:
    name = "quartic"
    radius = 1.0
    max_order = 1  # C^1 across the support edge, second derivative jumps
    l2_table = {0: 5.0 / 7.0, 1: 15.0 / 7.0}
    sup = 15.0 / 16.0

    def derivative(self, k, x):
        inside = np.abs(x) < 1.0
        if k == 0:
            t = 1.0 - x * x
            return np.where(inside, (15.0 / 16.0) * t * t, 0.0)
        if k == 1:
            return np.where(inside, -(15.0 / 4.0) * x * (1.0 - x * x), 0.0)
        raise ValueError("quartic kernel has no continuous derivatives past order 1")

    def moment(self, s):
        # int x^s 15/16 (1 - x^2)^2 on [-1, 1]
        return (15.0 / 8.0) * (
            1.0 / (s + 1.0) - 2.0 / (s + 3.0) + 1.0 / (s + 5.0)
        )


_PROFILES = {
    "gaussian": _GaussianProfile(),
    "epanechnikov": _EpanechnikovProfile(),
    "quartic": _QuarticProfile(),
}


@dataclass(eq=False)
class KernelModel:
    """A kernel on R^d plus the metadata the deviation theory needs.

    `fn(mi, pts)` maps a MultiIndex and an (n, d) array to the (n,) values
    of the partial d^mi K; the zero index gives K itself.  It is only asked
    for orders up to `max_derivative_order`, so a custom kernel without
    derivatives sets that to 0 and may ignore `mi`.  The sign-set measures
    are Lebesgue measures of {K > 0} and {K < 0} and drive the branch logic
    of the rate transform, so custom kernels must state them explicitly.
    Built-in kernels carry the 1-d `profile` they are a product of: its
    `derivative(k, x)` (k = 0 is the value) and its constants in closed form.
    Kernels are even in each coordinate: psi folds its z rule onto (0, r)^d,
    and `PsiEvaluator` checks.  Kernels compare and hash by identity.
    """

    name: str
    dimension: int
    fn: Callable[[MultiIndex, np.ndarray], np.ndarray]
    support_radius: float
    positive_support_measure: float
    negative_support_measure: float
    max_derivative_order: int
    profile: Optional[object] = None

    def __post_init__(self):
        self.dimension = as_count(self.dimension, "kernel dimension")
        if not positive_finite(self.support_radius):
            raise ValueError(f"support_radius must be finite and > 0; got {self.support_radius!r}")
        if min(self.positive_support_measure, self.negative_support_measure) < 0:
            raise ValueError("support measures must be >= 0")

    # -- evaluation ----------------------------------------------------

    def partial_fn(self, alpha) -> Callable[[np.ndarray], np.ndarray]:
        """d^alpha K as a function of an (n, d) array, validated once here."""
        return functools.partial(self.fn, derivative_index(alpha, self, "kernel"))

    def eval(self, points):
        return self.deriv_eval(None, points)

    def deriv_eval(self, alpha, points):
        fn = self.partial_fn(alpha)
        pts, lead = as_points(points, self.dimension)
        return fn(pts).reshape(lead)

    # -- constants -----------------------------------------------------

    def sup_norm(self) -> float:
        """sup |K|: the profile's constant per axis, else a scan (d = 1) or a mesh (d = 2, 3)."""
        d, r = self.dimension, self.support_radius
        if self.profile is not None:
            return math.prod([self.profile.sup] * d)
        f = self.partial_fn(None)
        if d == 1:
            return scan_sup(lambda x: f(x.reshape(-1, 1)), -r, r, 20001)
        if d > MAX_TENSOR_DIMENSION:
            raise ValueError(
                f"sup scan beyond d = {MAX_TENSOR_DIMENSION} is not supported; supply the constant"
            )
        mesh = tensor_grid(np.linspace(-r, r, 201 if d == 2 else 41), d)
        return float(np.max(np.abs(f(mesh))))

    def l2_norm_sq(self, alpha=None) -> float:
        """integral of (d^alpha K)^2 over R^d; refuses the orders `partial_fn` refuses."""
        mi = derivative_index(alpha, self, "kernel")
        if self.profile is not None:
            return math.prod(self.profile.l2_table[aj] for aj in mi.components)
        return _support_integral(self, lambda p: self.fn(mi, p) ** 2)


def kernel_quadrature(model: KernelModel, level: int = 0):
    """Tensor Gauss-Legendre nodes/weights (16 per panel) over the kernel's support box.

    Returns (points (m, d), weights (m,)); `level` doubles the panel count,
    so integrals evaluated at consecutive levels give an error estimate.
    """
    if model.dimension > MAX_TENSOR_DIMENSION:
        raise ValueError(f"tensor quadrature beyond d = {MAX_TENSOR_DIMENSION} is not supported")
    r = model.support_radius
    panels = max(2, int(np.ceil(r))) * 2**level
    return tensor_rule(*gauss_legendre_panels(-r, r, panels, order=16), model.dimension)


def _support_integral(model: KernelModel, f) -> float:
    """integral of f over the support box: `kernel_quadrature`, levels run by `refine_each`."""

    def at_level(_, level):
        y, w = kernel_quadrature(model, level)
        return np.array([np.dot(w, f(y))])

    out, _, failed = refine_each(
        at_level, 1, range(6), _TENSOR_TOL, f"tensor integral in d={model.dimension}"
    )
    if failed:
        raise failed[0]
    return float(out[0])


def builtin_kernel(name: str, d: int = 1) -> KernelModel:
    """Construct a built-in product kernel on R^d.

    Supported names: gaussian, epanechnikov, quartic.  The non-gaussian
    families have compact support, so the measure of {K > 0} is the volume
    of the open box (-1, 1)^d; the gaussian's is infinite.
    """
    if name not in _PROFILES:
        raise ValueError(f"unknown kernel '{name}'; choose from {sorted(_PROFILES)}")
    profile = _PROFILES[name]

    def fn(mi: MultiIndex, pts: np.ndarray) -> np.ndarray:
        out = profile.derivative(mi.components[0], pts[:, 0])
        for j in range(1, d):
            out = out * profile.derivative(mi.components[j], pts[:, j])
        return out

    pos = math.inf if name == "gaussian" else 2.0**d
    return KernelModel(
        name=name,
        dimension=d,
        fn=fn,
        support_radius=profile.radius,
        positive_support_measure=pos,
        negative_support_measure=0.0,
        max_derivative_order=profile.max_order,
        profile=profile,
    )


def kernel_moment(model: KernelModel, s: int, axis: int = 0) -> float:
    """integral of y_axis^s K(y) dy."""
    if s < 0:
        raise ValueError("moment order must be >= 0")
    if axis < 0 or axis >= model.dimension:
        raise ValueError(f"axis {axis} out of range for d={model.dimension}")
    if model.profile is not None:
        # an even profile's odd moments vanish
        return model.profile.moment(s) if s % 2 == 0 else 0.0
    return _support_integral(model, lambda p: model.eval(p) * p[:, axis] ** s)


def norm_moment(model: KernelModel, s: int = 2) -> float:
    """integral of ||y||^s |K(y)| dy, the constant in the uniform bias bound."""
    if s == 2 and model.negative_support_measure == 0.0:
        # ||y||^2 splits across axes and |K| = K
        return sum(kernel_moment(model, 2, axis=j) for j in range(model.dimension))
    return _support_integral(model, lambda p: abs(model.eval(p)) * (p * p).sum(axis=1) ** (s / 2.0))

