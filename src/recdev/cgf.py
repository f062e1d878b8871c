"""Finite-n cumulant generating functions of the centred estimator.

With the deviation statistic v_n (f_n(x) - E f_n(x)) and the speed
b_n = (sum_i h_i^(d+2|alpha|)) / v_n^2, the normalized log moment
generating function is

    L_n(u) = (1/b_n) log E exp(u b_n v_n (f_n(x) - E f_n(x)))
           = (v_n^2/a_n) sum_i log E exp(theta_i Y_i) - u v_n E f_n(x),

with a_n = sum_i h_i^(d+2|alpha|), theta_i = u a_n/(n v_n h_i^(d+|alpha|))
and Y_i the kernel term of observation i.  Independence turns the log MGF
into the sum above; each factor is an integral against the sampling
density localized by the kernel support,

    E exp(theta Y_i) = 1 + h_i^d int expm1(theta (d^alpha K)(z)) f(x - h_i z) dz,

which is evaluated by kernel-support quadrature.  The centring term uses
the integrated-by-parts form int K(z) (d^alpha f)(x - h_i z) dz, which has
no h^-|alpha| amplification; it is computed once per n and kept on the
`CgfSpec`.  Both sums over i <= n run on `estimator.support_sum`, the one
engine behind E f_n and L_n, which holds each u to its own tolerance.

L_n converges pointwise to an explicit limit: the transform-based curve
f(x)(1-ad) (psi(u) - u/(1-ad)) for the plain unscaled estimator, and the
quadratic u^2 f(x) ||d^alpha K||_2^2 / (2 (1 - a^2 (d+2|alpha|)^2)) in
every scaled or derivative case.  `regime_of` is the one rule that tells
the two apart; `CgfSpec.regime` and the CLI's checks apply it.  The spec
holds each regime's limit: the speed b_n, the limit's conjugate (the rate)
and its maximizer (the tilt) at a density level f: f(x) for pointwise
statements, sup_U f for the sup over a region U.  `convergence_diagnostic`
tabulates the finite-n curves against the limit over a grid of u, with its
verdict; `Verdict` is the one pass/fail record every report here and in
`deviations` carries.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bandwidth import BandwidthSchedule, ScalingSequence
from .densities import Density
from .kernels import KernelModel, derivative_index
from .numerics import as_count, check_exp_bound, finite_array, is_real, sample_sizes
from .estimator import expected_estimate, support_sum
from .ratefn import PsiEvaluator, RateValue

# the level-1 and level-2 kernel-support quadratures must agree to this gap
# at each u, relative once that cumulant exceeds 1
_FINITE_N_TOL = 1e-8


def regime_of(scaling_kind: str, alpha_order: int) -> str:
    """"ldp" for the plain unscaled estimator (constant-one scaling, alpha = 0), else "moderate"."""
    return "ldp" if scaling_kind == "constant_one" and alpha_order == 0 else "moderate"


@dataclass(eq=False)
class CgfSpec:
    """Everything the cumulant curves depend on: model, schedule, and point.

    Compared and hashed by identity: the point is an array, and the caches fill with use.
    """

    kernel: KernelModel
    schedule: BandwidthSchedule
    scaling: ScalingSequence
    density: Density
    point: np.ndarray
    alpha: tuple = None
    _psi: Optional[PsiEvaluator] = field(default=None, init=False, repr=False)
    _means: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        d = self.kernel.dimension
        self.alpha = derivative_index(self.alpha, self.kernel, "kernel")
        if self.density.dimension != d:
            raise ValueError(f"density has dimension {self.density.dimension}, kernel has {d}")
        self.schedule.check_compatible(d, self.alpha.order)
        self.beta = d + 2 * self.alpha.order  # the bandwidth exponent of the speed
        self.point = finite_array(self.point, "point").reshape(-1)
        if len(self.point) != d:
            raise ValueError(f"point must have {d} coordinates")

    @property
    def regime(self) -> str:
        return regime_of(self.scaling.kind, self.alpha.order)

    @functools.cached_property
    def density_at_point(self) -> float:
        """f(x), evaluated once per spec."""
        return float(self.density.pdf(self.point.reshape(1, -1))[0])

    def mean(self, n: int) -> float:
        """Exact mean E f_n at the point, computed once per n."""
        if n not in self._means:
            self._means[n] = float(
                expected_estimate(
                    self.kernel, self.schedule, self.density, n, self.point.reshape(1, -1),
                    alpha=self.alpha.components,
                )[0]
            )
        return self._means[n]

    def psi(self) -> PsiEvaluator:
        if self._psi is None:
            self._psi = PsiEvaluator(self.kernel, self.schedule.a)
        return self._psi

    @functools.cached_property
    def quadratic(self) -> tuple:
        """The quadratic limit's constants (1 - m^2, ||d^alpha K||_2^2), m = a (d + 2|alpha|)."""
        m, l2 = self.schedule.a * self.beta, self.kernel.l2_norm_sq(self.alpha)
        if l2 <= 0:
            raise ValueError("kernel L2 norm must be positive")
        return 1.0 - m * m, l2

    def speed(self, n: int) -> float:
        """The deviation speed b_n = sum_{i<=n} h_i^(d + 2|alpha|) / v_n^2."""
        return self.schedule.prefix_sum(self.beta, n) / self.scaling.value(n) ** 2

    def rate(self, t: float, level: float) -> RateValue:
        """The limiting rate of the signed deviation t at density level f = `level`.

        f (1 - a d) I(1/(1 - a d) + t/(f (1 - a d))) for the conjugate I of psi
        (ldp), else t^2 (1 - m^2) / (2 f ||d^alpha K||^2); at f = 0, 0 at t = 0, else +inf.
        """
        _check_deviation(t, level)
        if level == 0.0:
            return RateValue.of(0.0) if t == 0.0 else RateValue.infinite()
        if self.regime == "moderate":
            one_m2, l2 = self.quadratic
            return RateValue.of(t * t * one_m2 / (2.0 * level * l2))
        ev = self.psi()
        scale = level * (1.0 - ev.ad)
        # (level + t)/scale == 1/(1-ad) + t/scale, but is exactly 0 at the
        # floor t = -level, keeping the branch at the conjugate's left endpoint
        base = ev.legendre((level + t) / scale)
        return RateValue.of(scale * base.value) if base.finite else RateValue.infinite()

    def tilt(self, t: float, level: float) -> float:
        """The u at which u t - Lambda(u) attains `rate(t, level)`, for a level > 0.

        Lambda is the limiting cumulant curve at density level `level`; the
        duality holds to root-finding accuracy in the ldp regime and in
        closed form in the quadratic one.
        """
        _check_deviation(t, level)
        if level == 0.0:
            raise ValueError("the tilt needs a density level > 0")
        if self.regime == "ldp":
            ev = self.psi()
            return ev.inverse_prime(ev.prime_at_zero + t / (level * (1.0 - ev.ad)))
        one_m2, l2 = self.quadratic
        return t * (one_m2 / (level * l2))


def _check_deviation(t: float, level: float) -> None:
    """Refuse a t or a level that is not `numerics.is_real`, and a negative level."""
    if not is_real(t):
        raise ValueError(f"deviation t must be finite; got {t}")
    if not (is_real(level) and level >= 0.0):
        raise ValueError(f"density level must be finite and >= 0; got {level}")


def cgf_finite_n(spec: CgfSpec, u, n: int):
    """L_n(u) at sample size n, scalar or vectorised over u.

    `support_sum` with the node factor expm1(theta_i (d^alpha K)(y)) w and
    the post-map log1p(h^d m), centred by the spec's cached exact mean; each
    u's two levels must agree within `_FINITE_N_TOL` (relative above 1).
    """
    n = as_count(n, "n")
    arr = finite_array(u, "cumulant argument u").ravel()
    d = spec.kernel.dimension
    p = d + spec.alpha.order
    v_n = spec.scaling.value(n)
    a_n = spec.schedule.prefix_sum(spec.beta, n)
    theta_scale = a_n / (n * v_n)

    def nodes(idx, y, w):
        ky = spec.kernel.deriv_eval(spec.alpha, y)
        # theta_i is largest at the smallest bandwidth; guard before any exp
        max_theta = float(np.abs(arr[idx]).max()) * theta_scale / float(np.min(spec.schedule.values(n))) ** p
        check_exp_bound(max_theta * float(np.max(np.abs(ky))), "finite-n cumulant")

        def contract(hb, s, g):
            # sum_k w_k expm1(theta_i ky_k) f(x - h_i y_k), for every (i, u)
            theta = (theta_scale / hb**p)[:, None] * arr[idx]
            return np.einsum("iuk,ik->iu", np.expm1(theta[:, :, None] * ky[None, None, s]), g[..., 0] * w[s])

        return spec.point[None], contract

    # per node, a block holds (u, nodes) temporaries and the arguments x - h y
    out = support_sum(spec.kernel, spec.schedule, spec.density, n, len(arr), nodes, len(arr) + d,
                      v_n * v_n / a_n, _FINITE_N_TOL, "finite-n cumulant quadrature",
                      post=lambda hb, m: np.log1p(hb[:, None] ** d * m), centre=arr * v_n * spec.mean(n))
    return float(out[0]) if np.ndim(u) == 0 else out.reshape(np.shape(u))


def cgf_limit(spec: CgfSpec, u):
    """The n -> infinity cumulant curve for the spec's regime, scalar or vectorised over u."""
    arr = finite_array(u, "cumulant argument u").ravel()
    fx = spec.density_at_point
    if spec.regime == "ldp":
        ev = spec.psi()
        out = fx * (1.0 - ev.ad) * ev.psi(arr) - arr * fx
    else:
        one_m2, l2 = spec.quadratic
        out = arr * arr * fx * l2 / (2.0 * one_m2)
    return float(out[0]) if np.ndim(u) == 0 else out.reshape(np.shape(u))


@dataclass(frozen=True)
class Verdict:
    """One named pass/fail check of a report, with the numbers it compared."""

    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class CgfConvergence:
    """Finite-n cumulant curves tabulated against their limit."""

    u: np.ndarray
    n_values: np.ndarray
    finite_n: np.ndarray  # shape (len(n_values), len(u))
    limit: np.ndarray
    sup_gap: np.ndarray  # max_u |L_n - L| per n

    @property
    def gaps_decrease(self) -> bool:
        return bool(np.all(np.diff(self.sup_gap) < 0))

    @property
    def verdicts(self) -> tuple:
        """abs_error_decreasing: sup_u |L_n - L| shrinks along n."""
        detail = "sup_u gaps " + " -> ".join(f"{g:.6g}" for g in self.sup_gap)
        return (Verdict("abs_error_decreasing", self.gaps_decrease, detail),)


def convergence_diagnostic(spec: CgfSpec, u_values, n_values) -> CgfConvergence:
    """Tabulate L_n over u for each n against the limiting curve."""
    u = finite_array(u_values, "cumulant argument u").ravel()
    ns = np.asarray(sample_sizes(n_values, "n_values"), dtype=np.int64)
    if len(u) == 0:
        raise ValueError("need at least one u")
    limit = cgf_limit(spec, u)
    rows = np.empty((len(ns), len(u)))
    for r, n in enumerate(ns):
        rows[r] = cgf_finite_n(spec, u, int(n))
    gaps = np.max(np.abs(rows - limit[None, :]), axis=1)
    return CgfConvergence(u=u, n_values=ns, finite_n=rows, limit=limit, sup_gap=gaps)
