"""Deviation rate functions built from the kernel transform psi.

For a kernel K on R^d and bandwidth exponent a with 0 < a*d < 1, define

    psi(u)  = int_0^1 int_{R^d} s^(-a d) (exp(s^(a d) u K(z)/(1 - a d)) - 1) dz ds.

psi is strictly convex and smooth with psi(0) = 0 and psi'(0) = 1/(1 - a d).
Its convex conjugate I(t) = sup_u (u t - psi(u)) is the pointwise rate of
the density estimator in the large-deviation regime, after recentring and
scaling by the density value.  The moderate-deviation regime has the
explicit quadratic rate and needs no transform.  Both rates are evaluated
at a density level, f(x) at a point or sup_U f over a region;
`pointwise_rate_density` and `quadratic_rate` are the two closed forms,
and `cgf.CgfSpec.rate`/`tilt` pick the one for the spec's regime.

The shape of I depends on the sign sets of K.  With lambda{K < 0} = 0 the
range of psi' is (0, inf): I is +inf on t < 0, equals lambda{K > 0}/(1 - a d)
at t = 0 (infinite for kernels with unbounded positive support), and is
finite for t > 0.  With lambda{K < 0} > 0 the range of psi' is all of R and
I is finite everywhere.  I vanishes exactly at t = psi'(0).

Numerics: the s-integral is in closed form, so psi and its derivatives need
one rule, in z: tanh-sinh on (0, r)^d, folded since the kernel is even,
whose nodes crowd the support edges where very negative u puts the exp
boundary layer; `numerics.refine` raises its level until every point of a
call agrees.  The conjugate inverts psi' by bracketed Newton safeguarded
by bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import KernelModel
from .numerics import (
    BLOCK_ENTRIES,
    EXP_ARG_LIMIT,
    RootFindError,
    check_exp_bound,
    refine,
    tanh_sinh,
)


@dataclass(frozen=True)
class RateValue:
    """A rate-function value: a finite number >= 0, or explicit +infinity.

    Infinity is a modelled state, never the result of a float overflow, so
    downstream code can branch on `finite` instead of testing isinf.
    """

    value: float
    finite: bool = True

    def __post_init__(self):
        if self.finite:
            if not math.isfinite(self.value):
                raise ValueError("finite RateValue holds a non-finite float")
            if self.value < 0:
                raise ValueError(f"rate values are nonnegative, got {self.value}")
        else:
            if not (math.isinf(self.value) and self.value > 0):
                raise ValueError("non-finite RateValue must hold +inf")

    @classmethod
    def infinite(cls) -> "RateValue":
        return cls(math.inf, False)

    @classmethod
    def of(cls, value: float) -> "RateValue":
        # tolerate tiny negative round-off from t u - psi(u) near the minimum
        if -1e-9 < value < 0.0:
            value = 0.0
        return cls(value)

    def __float__(self) -> float:
        return self.value


# two levels must agree to this gap at every point (relative above 1)
_PSI_TOL = 1e-10
# tanh-sinh levels of the folded z rule: 71 ... 2,203 nodes per axis on (0, r)
_LEVELS = range(3, 9)
# psi'(u) = t is solved to this absolute residual (plus a 4-ulp cushion)
_ROOT_TOL = 1e-10
# series blocks of _TERMS terms on BLOCK_ENTRIES // _TERMS (u, z) pairs, so
# the temporaries stay within the block budget whatever len(u), d or level
_TERMS = 16
_SHIFT = {"psi": 0, "prime": 1, "second": 2}  # k in the class docstring


def _series(y: np.ndarray, coef) -> np.ndarray:
    """sum_(k >= 1) t_k, t_0 = 1, t_k = t_(k-1) y coef(k), elementwise for nonempty y >= 0.

    _TERMS terms per np.cumprod, until k > max y (the terms fall from there)
    and the last term is below 1e-17 of 1 + the sum everywhere.
    """
    top = float(np.max(y))
    tail, term, k = np.zeros_like(y), np.ones_like(y), 1
    while k <= top or np.any(term > 1e-17 * (1.0 + tail)):
        block = np.multiply.outer(coef(np.arange(k, k + _TERMS)), y)
        np.cumprod(block, axis=0, out=block)
        block *= term
        tail += block.sum(axis=0)
        term, k = block[-1], k + _TERMS
    return tail


def _s_integral(b: float, A: np.ndarray, excess: bool = False) -> np.ndarray:
    """int_0^1 w^(b-1) e^(A w) dw = M(b, b+1, A)/b elementwise for b > 0 (A-S 13.1).

    Positive-term series: sum_k A^k/(k! (b+k)) for A >= 0, and for A = -x
    the incomplete gamma series e^-x sum_k x^k/(b (b+1) ... (b+k)) (NR 6.2),
    or Gamma(b) x^-b past x = b + 60 + 8 sqrt(b), where Gamma(b, x) is below
    1e-20 Gamma(b) for every b.  `excess` leaves out the k = 0 term, 1/b.
    """
    h = float(excess)
    out = np.empty_like(A)
    far = -A > b + 60.0 + 8.0 * math.sqrt(b)
    up = A >= 0.0
    near = ~(far | up)
    if far.any():
        out[far] = np.exp(math.lgamma(b) - b * np.log(-A[far])) - h / b
    if up.any():
        out[up] = (_series(A[up], lambda k: (b + k - 1.0) / (k * (b + k))) + (1.0 - h)) / b
    if near.any():
        x = -A[near]
        e = np.exp(-x)
        out[near] = (e * _series(x, lambda k: 1.0 / (b + k)) + (np.expm1(-x) if excess else e)) / b
    return out


class PsiEvaluator:
    """Evaluates psi, psi', psi'' and the conjugate transform for one kernel.

    With w = s^(a d), beta = 1/(a d) - 1 and c = 1/(1 - a d), psi, psi' and
    psi'' are the z-integrals, over a d, of `_s_integral` at b = beta + k
    times (c K)^k, k = 0, 1, 2 (psi less 1/beta), on tanh-sinh nodes in
    (0, r)^d with weights times 2^d, as K is even in each coordinate (checked
    here).  A call accepts a level once all its points agree with the level
    before, so a value depends on its input alone; past `_LEVELS` it raises
    QuadratureError, past the exp guard OverflowGuardError.
    """

    def __init__(self, kernel: KernelModel, a: float):
        if kernel.dimension > 3:
            raise ValueError("psi quadrature supports d <= 3")
        self.kernel = kernel
        self._k = kernel.partial_fn(None)
        self.a = float(a)
        self.ad = self.a * kernel.dimension
        if not (0.0 < self.ad < 1.0):
            raise ValueError(f"need 0 < a*d < 1, got a*d = {self.ad}")
        self._beta = 1.0 / self.ad - 1.0
        self._c = 1.0 / (1.0 - self.ad)
        self._rules: dict[int, tuple] = {}
        # exp-argument extremes per unit u, for the overflow guard; only
        # the positive side can overflow (the negative side underflows to 0)
        sup = kernel.sup_norm()
        self._arg_hi = self._c * sup
        self._arg_lo = -self._c * sup if kernel.negative_support_measure > 0 else 0.0
        flips = 1.0 - 2.0 * np.eye(kernel.dimension)  # each row negates one coordinate
        for z, _ in self._nodes(_LEVELS[0]):
            kz = self._k(z)
            if not all(np.allclose(self._k(z * f), kz, rtol=1e-12, atol=0.0) for f in flips):
                raise ValueError(f"kernel '{kernel.name}' must be even in each coordinate for psi")

    # -- plumbing --------------------------------------------------------

    def _nodes(self, level: int):
        """The folded z rule at `level`, as (nodes, weights) chunks of BLOCK_ENTRIES // _TERMS."""
        if level not in self._rules:
            self._rules[level] = tanh_sinh(0.0, self.kernel.support_radius, level)
        x, w = self._rules[level]
        shape = (len(x),) * self.kernel.dimension
        n, step = math.prod(shape), BLOCK_ENTRIES // _TERMS
        for j in range(0, n, step):
            ij = np.stack(np.unravel_index(np.arange(j, min(j + step, n)), shape), axis=1)
            yield x[ij], w[ij].prod(axis=1) * 2.0 ** len(shape)

    def _at_level(self, u: np.ndarray, level: int, kinds: tuple) -> np.ndarray:
        """Row k holds quantity kinds[k] at every u, from one z rule and one exp argument."""
        out = np.zeros((len(kinds), len(u)))
        for z, w in self._nodes(level):
            ck = self._c * self._k(z)
            u_step = max(1, BLOCK_ENTRIES // _TERMS // len(ck))
            for i in range(0, len(u), u_step):
                arg = np.multiply.outer(u[i : i + u_step], ck)
                for row, kind in enumerate(kinds):
                    s = _s_integral(self._beta + _SHIFT[kind], arg, excess=kind == "psi")
                    out[row, i : i + u_step] += s @ (w * ck ** _SHIFT[kind])
        return out / self.ad

    def _eval(self, u, kinds: tuple):
        """One array (or float) per kind, at the first level where every point agrees."""
        arr = np.asarray(u, dtype=np.float64).ravel()
        if arr.size == 0:
            return [arr.reshape(np.shape(u)) for _ in kinds]
        hi = max(float(np.max(arr)), 0.0) * self._arg_hi
        check_exp_bound(max(hi, min(float(np.min(arr)), 0.0) * self._arg_lo), "psi evaluation")
        vals, _ = refine(
            lambda level: self._at_level(arr, level, kinds), _LEVELS, _PSI_TOL, "psi z rule"
        )
        if np.ndim(u) == 0:
            return [float(v[0]) for v in vals]
        return [v.reshape(np.shape(u)) for v in vals]

    # -- public surface ----------------------------------------------------

    def psi(self, u):
        """psi(u); exactly 0.0 at u = 0."""
        return self._eval(u, ("psi",))[0]

    def psi_prime(self, u):
        return self._eval(u, ("prime",))[0]

    def psi_second(self, u):
        return self._eval(u, ("second",))[0]

    @property
    def prime_at_zero(self) -> float:
        """psi'(0) = 1/(1 - a d), exact."""
        return self._c

    @property
    def signed_kernel(self) -> bool:
        return self.kernel.negative_support_measure > 0.0

    def inverse_prime(self, t: float) -> float:
        """Solve psi'(u) = t by bracketed Newton with bisection fallback.

        Terminates when |psi'(u) - t| <= `_ROOT_TOL` (plus a 4-ulp relative
        cushion so very large targets remain solvable).  Raises
        RootFindError if the bracket search or the iteration exhausts its
        budget, and ValueError for targets outside the range of psi'.
        """
        t = float(t)
        if not self.signed_kernel and t <= 0.0:
            raise ValueError(
                "psi' has range (0, inf) for kernels with no negative part; "
                f"target {t} is outside"
            )
        tol = _ROOT_TOL + 4.0 * abs(t) * np.finfo(float).eps
        t0 = self.prime_at_zero
        if abs(t0 - t) <= tol:
            return 0.0
        # double u from 0 toward the target, up to the exp guard (and 1e18 below)
        if t > t0:
            sign, side, beyond = 1.0, "upper", "the exp overflow guard"
            cap = EXP_ARG_LIMIT / self._arg_hi if self._arg_hi > 0 else math.inf
        else:
            sign, side, beyond = -1.0, "lower", "the search budget"
            cap = min(EXP_ARG_LIMIT / -self._arg_lo if self._arg_lo < 0 else math.inf, 1e18)
        prev, cur = 0.0, sign
        for _ in range(200):
            if abs(cur) > cap:
                raise RootFindError(f"target {t:.6g} needs u beyond {beyond}")
            if sign * (self.psi_prime(cur) - t) >= 0.0:
                lo, hi = sorted((prev, cur))
                break
            prev, cur = cur, cur * 2.0
        else:
            raise RootFindError(f"bracket search exhausted ({side} branch)")
        u = 0.5 * (lo + hi)
        for _ in range(100):
            prime, second = self._eval(u, ("prime", "second"))
            f = prime - t
            if abs(f) <= tol:
                return u
            if f > 0:
                hi = u
            else:
                lo = u
            step = f / second
            cand = u - step
            if not (lo < cand < hi):
                cand = 0.5 * (lo + hi)
            u = cand
        raise RootFindError(f"Newton iteration for psi'(u) = {t:.6g} did not converge")

    def legendre(self, t: float) -> RateValue:
        """The convex conjugate I(t) = sup_u (u t - psi(u)) with branch logic.

        Short-circuits the non-finite branches before any root-finding:
        for kernels with lambda{K < 0} = 0, I is +inf on t < 0 and equals
        lambda{K > 0}/(1 - a d) at t = 0.
        """
        t = float(t)
        if not self.signed_kernel:
            if t < 0.0:
                return RateValue.infinite()
            if t == 0.0:
                lam = self.kernel.positive_support_measure
                if math.isinf(lam):
                    return RateValue.infinite()
                return RateValue.of(lam / (1.0 - self.ad))
        u = self.inverse_prime(t)
        return RateValue.of(t * u - self.psi(u))


def pointwise_rate_density(psi_ev: PsiEvaluator, f_x: float, t: float) -> RateValue:
    """Large-deviation rate at density level f_x (f(x), or sup_U f for a region).

    Recentring puts the estimator's almost-sure limit at rate zero:
    the rate of deviation t is f_x (1 - a d) I(1/(1 - a d) + t/(f_x (1 - a d))).
    At points where f_x = 0 the rate degenerates to 0 at t = 0 and +inf
    elsewhere.
    """
    if f_x < 0:
        raise ValueError("density values are nonnegative")
    if f_x == 0.0:
        return RateValue.of(0.0) if t == 0.0 else RateValue.infinite()
    scale = f_x * (1.0 - psi_ev.ad)
    # (f_x + t)/scale == 1/(1-ad) + t/scale, but is exactly 0 at the
    # floor t = -f_x, keeping the branch at the conjugate's left endpoint
    base = psi_ev.legendre((f_x + t) / scale)
    if not base.finite:
        return RateValue.infinite()
    return RateValue.of(scale * base.value)


def quadratic_rate(
    f_x: float,
    l2_alpha: float,
    a: float,
    d: int,
    alpha_order: int,
    t: float,
) -> RateValue:
    """Moderate-deviation rate t^2 (1 - a^2 (d+2|alpha|)^2) / (2 f_x int (d^a K)^2)."""
    if f_x < 0:
        raise ValueError("density values are nonnegative")
    if l2_alpha <= 0:
        raise ValueError("kernel L2 norm must be positive")
    m = a * (d + 2 * alpha_order)
    if m >= 1.0:
        raise ValueError(f"a (d + 2|alpha|) = {m:.4g} >= 1 is outside the theory")
    if f_x == 0.0:
        return RateValue.of(0.0) if t == 0.0 else RateValue.infinite()
    return RateValue.of(t * t * (1.0 - m * m) / (2.0 * f_x * l2_alpha))
