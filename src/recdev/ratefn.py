"""Deviation rate functions built from the kernel transform psi.

For a kernel K on R^d and bandwidth exponent a with a*d < 1, define

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

Numerics: psi and its derivatives share one tensor quadrature, tanh-sinh in
both s (against the algebraic s^(a d) endpoint behaviour) and z (node
clustering at the support edges resolves the exp boundary layer for very
negative u), refined by `numerics.refine` until two levels agree (absolute
below 1, relative above, since psi grows like exp(u sup K/(1 - a d))); the
conjugate is evaluated by inverting psi' with a bracketed Newton iteration
safeguarded by bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import KernelModel, tensor_rule
from .numerics import (
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


# two consecutive levels of psi, psi' or psi'' must agree to this gap
# (relative once the values exceed 1), within at most this many levels
_PSI_TOL = 1e-10
_MAX_LEVEL = 4
# psi'(u) = t is solved to this absolute residual (plus a 4-ulp cushion)
_ROOT_TOL = 1e-10
# s x z argument matrices up to this many entries (16 MB) are cached per
# level, which covers d = 1 up to level 3; larger ones are rebuilt block by
# block on every call, so memory stays flat in d
_ARG_CACHE_CAP = 1 << 21
# entries per exp block (512 KB): small enough to stay in a core's L2 cache;
# a 100-point level-3 call ran 2.3x faster than with 64 MB blocks on a Xeon
# with 2 MB of L2 per core
_BLOCK = 1 << 16


class PsiEvaluator:
    """Evaluates psi, psi', psi'' and the conjugate transform for one kernel.

    Every call escalates from level 0 until two consecutive levels agree
    within `_PSI_TOL`, relative once the values exceed 1 (checked on probe
    points for vectorised calls), and returns the finer of the two, so a
    value depends on its input alone, never on earlier calls.  Node tables
    are cached per level, and the s x z argument matrix too while it stays
    under `_ARG_CACHE_CAP` entries; larger levels rebuild it block by block
    on every call.  Exhausting the `_MAX_LEVEL` budget raises
    QuadratureError; exp arguments beyond the 700 guard raise
    OverflowGuardError before any overflow happens.
    """

    def __init__(self, kernel: KernelModel, a: float):
        if kernel.dimension > 3:
            raise ValueError("psi quadrature supports d <= 3")
        self.kernel = kernel
        self.a = float(a)
        self.ad = self.a * kernel.dimension
        if not (0.0 <= self.ad < 1.0):
            raise ValueError(f"need 0 <= a*d < 1, got a*d = {self.ad}")
        self._levels: dict[int, dict] = {}
        # exp-argument extremes per unit u, for the overflow guard; only
        # the positive side can overflow (the negative side underflows to 0)
        c = 1.0 / (1.0 - self.ad)
        sup = kernel.sup_norm()
        self._arg_hi = c * sup
        self._arg_lo = -c * sup if kernel.negative_support_measure > 0 else 0.0

    # -- plumbing --------------------------------------------------------

    def _tensor(self, level: int) -> dict:
        cached = self._levels.get(level)
        if cached is not None:
            return cached
        d = self.kernel.dimension
        r = self.kernel.support_radius
        s, ws = tanh_sinh(0.0, 1.0, 4 + level)
        # tanh-sinh in z as well: clusters nodes at the support edges, so
        # the O(1/|u|) boundary layer of exp(u s^ad K c) for compactly
        # supported kernels stays resolved at any u inside the exp guard
        z_level = {1: 4 + level, 2: 3 + level}.get(d, min(2 + level, 4))
        z, wz = tensor_rule(*tanh_sinh(-r, r, z_level), d)
        kz = self.kernel.eval_fn(z)
        sad = s**self.ad
        c = 1.0 / (1.0 - self.ad)
        y = sad * c
        # weights over (s, z) are separable per quantity: a_i * b_j with
        # the shared exp argument u * y_i * kz_j, summed as a^T f(u Y) b
        entry = {
            "y": y,
            "kz": kz,
            "arg": np.outer(y, kz) if len(y) * len(kz) <= _ARG_CACHE_CAP else None,
            "a_psi": ws / sad,
            "b_psi": wz,
            "a_prime": ws,
            "b_prime": wz * kz * c,
            "a_second": ws * sad,
            "b_second": wz * kz**2 * c * c,
        }
        self._levels[level] = entry
        return entry

    def _guard(self, u: np.ndarray) -> None:
        u_pos = max(float(np.max(u)), 0.0)
        u_neg = min(float(np.min(u)), 0.0)
        m = max(u_pos * self._arg_hi, u_neg * self._arg_lo)
        check_exp_bound(m, "psi evaluation")

    def _eval_level(self, u: np.ndarray, level: int, kinds: tuple) -> np.ndarray:
        """Row k holds quantity kinds[k] at every u; all share one exp pass."""
        t = self._tensor(level)
        y, kz, arg = t["y"], t["kz"], t["arg"]
        # psi (expm1) is always evaluated alone; psi' and psi'' share exp
        fn = np.expm1 if kinds == ("psi",) else np.exp
        out = np.zeros((len(kinds), len(u)))
        # s-row blocks x u-chunks of about _BLOCK entries stay in cache
        s_step = max(1, _BLOCK // len(kz))
        for j in range(0, len(y), s_step):
            blk = arg[j : j + s_step] if arg is not None else np.outer(y[j : j + s_step], kz)
            u_step = max(1, _BLOCK // blk.size)
            for k in range(0, len(u), u_step):
                e = np.multiply.outer(u[k : k + u_step], blk)
                e = fn(e, out=e).reshape(-1, len(kz))
                for m, kind in enumerate(kinds):
                    fb = (e @ t["b_" + kind]).reshape(-1, len(blk))
                    out[m, k : k + u_step] += fb @ t["a_" + kind][j : j + s_step]
        return out

    def _eval(self, u, kinds: tuple):
        """One array (or float) per kind, at the first level that passes."""
        arr = np.atleast_1d(np.asarray(u, dtype=np.float64))
        scalar = np.isscalar(u) or np.ndim(u) == 0
        if arr.size == 0:
            return [arr.copy() for _ in kinds]
        self._guard(arr)
        # probe points for the two-level error check
        if arr.size <= 8:
            probes = arr
        else:
            idx = np.unique(np.linspace(0, arr.size - 1, 9).astype(int))
            order = np.argsort(np.abs(arr))
            probes = np.concatenate([arr[order[idx]], [arr[order[-1]]]])
        vals, level = refine(
            lambda level: self._eval_level(probes, level, kinds),
            range(_MAX_LEVEL + 1), _PSI_TOL, "psi tensor rule",
        )
        if probes is not arr:
            vals = self._eval_level(arr, level, kinds)
        if scalar:
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
        return 1.0 / (1.0 - self.ad)

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
        u_cap_pos = EXP_ARG_LIMIT / self._arg_hi if self._arg_hi > 0 else math.inf
        u_cap_neg = EXP_ARG_LIMIT / -self._arg_lo if self._arg_lo < 0 else math.inf
        lo, hi = None, None
        if t > t0:
            prev, cur = 0.0, 1.0
            for _ in range(200):
                if cur > u_cap_pos:
                    raise RootFindError(
                        f"target {t:.6g} needs u beyond the exp overflow guard"
                    )
                if self.psi_prime(cur) >= t:
                    lo, hi = prev, cur
                    break
                prev, cur = cur, cur * 2.0
            else:
                raise RootFindError("bracket search exhausted (upper branch)")
        else:
            prev, cur = 0.0, -1.0
            for _ in range(200):
                if abs(cur) > min(u_cap_neg, 1e18):
                    raise RootFindError(
                        f"target {t:.6g} needs u beyond the search budget"
                    )
                if self.psi_prime(cur) <= t:
                    lo, hi = cur, prev
                    break
                prev, cur = cur, cur * 2.0
            else:
                raise RootFindError("bracket search exhausted (lower branch)")
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
