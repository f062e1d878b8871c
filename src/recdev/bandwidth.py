"""Bandwidth schedules, scaling sequences, and the sums over the bandwidth sequence.

The estimator attaches bandwidth h_i to arrival index i.  Schedules here are
regularly varying with index -a: either the pure power h_i = c i^-a or the
power-with-log h_i = c i^-a log(i + 1), both by one formula,
`BandwidthSchedule.at`.  The scaling v_n has one formula too,
`ScalingSequence.value`, used alike by the speed, the cumulant, the
Chernoff curve and the Monte Carlo harness.  Partial sums of h_i^beta
appear in every normalisation, so they are cached per exponent with
compensated summation; campaigns reach n = 1e6 terms where naive
accumulation drifts.  The speed b_n = sum_{i<=n} h_i^(d+2|alpha|) / v_n^2
and the rates that go with it live on `cgf.CgfSpec`.

The key limit: for a*beta < 1,

    (1 / (n h_n^beta)) * sum_{i<=n} h_i^beta  ->  1 / (1 - a*beta),

which `regular_variation_limit_check` tabulates.  Its convergence speed
degrades badly as a*beta approaches 1 (the error decays like n^(a*beta - 1)
with a constant that blows up), so treat slow cases as trends, not values.

`bandwidth_sum` forms every other deterministic sum over the sequence,
sum_{i<=n} F(h_i) for a smooth F of the bandwidth alone (the exact mean of
the estimator, the finite-n cumulant).  It interpolates F in log h at
Chebyshev-Lobatto points and sums the interpolant exactly against the
Chebyshev moments of the sequence, so the number of F evaluations does not
grow with n.  A degree is accepted only when every column of the sum is
`numerics.within` `SUM_TOL` of its own value; when no degree is, the sum
goes back to the direct O(n) sum.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .numerics import ROW_BLOCK_ENTRIES, NeumaierSum, as_count, compensated_cumsum, within
from .numerics import is_real, positive_finite

BANDWIDTH_KINDS = ("power", "power_log")
SCALING_KINDS = ("constant_one", "power")
# a Chebyshev sum is accepted when, in every column, degrees N and 2N agree
# to this gap on the caller's scale (a mean, a cumulant), relative once that
# column's value exceeds 1
SUM_TOL = 1e-13
# first Chebyshev degree compared with its doubling, and the largest tried
_CHEB_START = 16
_CHEB_MAX = 512
# float64 entries (32 MB) per temporary of the two block splits that fix a
# bandwidth sum's order, F's quadrature-node chunks and the direct sum's
# fold groups, so changing it may move a sum's last bits; F's evaluation
# rows, which cannot, follow `numerics.ROW_BLOCK_ENTRIES` instead
SUM_BLOCK_ENTRIES = 4_000_000


@dataclass
class BandwidthSchedule:
    """h_i = c * i^-a, optionally with a log(i + 1) factor.

    Treat instances as immutable; the only mutable state is the prefix-sum,
    log-range and Chebyshev-moment cache, which `_cached` fills under a lock
    and never shrinks, so concurrent reads are safe.
    """

    kind: str
    c: float
    a: float
    _cache: dict = field(default_factory=dict, repr=False, compare=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in BANDWIDTH_KINDS:
            raise ValueError(f"kind must be one of {BANDWIDTH_KINDS}, got '{self.kind}'")
        if not positive_finite(self.c):
            raise ValueError(f"bandwidth constant c must be finite and > 0, got {self.c!r}")
        if not (is_real(self.a) and 0.0 <= self.a < 1.0):
            raise ValueError(f"bandwidth exponent a must satisfy 0 <= a < 1, got {self.a!r}")

    def at(self, i) -> np.ndarray:
        """h_i for each index i >= 1 of an array: the one bandwidth formula.

        `values` (so batch_values and the Monte Carlo harness) and the
        streaming estimator use it, so h_i has the same bits in any index range.
        """
        i = np.asarray(i, dtype=np.float64)
        if (i < 1).any():
            raise ValueError("bandwidth index starts at 1")
        out = self.c * i ** (-self.a)
        if self.kind == "power_log":
            out = out * np.log(i + 1.0)
        return out

    def values(self, n: int) -> np.ndarray:
        """h_1 .. h_n as an array."""
        return self.at(np.arange(1, as_count(n, "n") + 1, dtype=np.float64))

    def check_compatible(self, d: int, alpha_order: int) -> None:
        """Error if a(d + 2|alpha|) >= 1, which breaks every normalisation here."""
        if self.a * (d + 2 * alpha_order) >= 1.0:
            raise ValueError(
                f"a (d + 2|alpha|) = {self.a * (d + 2 * alpha_order):.4g} >= 1: "
                f"schedule a={self.a} is incompatible with d={d}, |alpha|={alpha_order}"
            )

    def _cached(self, key: tuple, ok, build):
        """The cached value at `key` if `ok` accepts it, else build(the old value or None).

        The check is repeated under the lock, and `build` runs holding it,
        so a build must not call another cached method.
        """
        value = self._cache.get(key)
        if value is None or not ok(value):
            with self._lock:
                value = self._cache.get(key)
                if value is None or not ok(value):
                    value = self._cache[key] = build(value)
        return value

    def prefix_sums(self, beta: float, n: int) -> np.ndarray:
        """Array of sum_{i<=m} h_i^beta for m = 1..n (cached per beta, grown at least 2x)."""
        n = as_count(n, "n")
        beta = float(beta)

        def build(old):
            return compensated_cumsum(self.values(max(n, 2 * len(old) if old is not None else n)) ** beta)

        return self._cached(("prefix", beta), lambda arr: len(arr) >= n, build)[:n]

    def prefix_sum(self, beta: float, n: int) -> float:
        return float(self.prefix_sums(beta, n)[-1])

    def _log_range(self, n: int) -> tuple:
        """(min, max) of log h_i over i <= n, cached per n (power_log h_i are not monotone)."""

        def build(_):
            logs = np.log(self.values(n))
            return float(logs.min()), float(logs.max())

        return self._cached(("range", n), lambda _: True, build)

    def chebyshev_moments(self, n: int, degree: int) -> np.ndarray:
        """mu_j = sum_{i<=n} T_j(t_i) for j = 0..degree (cached per n).

        t_i maps log h_i affinely onto [-1, 1] over the range of log h_i;
        the T_j come from the three-term recurrence.  A larger degree
        recomputes from j = 0, so every mu_j is the same whatever was asked
        before.
        """
        lo, hi = self._log_range(n)  # outside the build, which holds the lock

        def build(_):
            t = np.clip((2.0 * np.log(self.values(n)) - (lo + hi)) / (hi - lo), -1.0, 1.0)
            mu = np.empty(degree + 1)
            mu[0] = n
            prev, cur = np.ones(n), t
            for j in range(1, degree + 1):
                mu[j] = cur.sum()
                prev, cur = cur, 2.0 * t * cur - prev
            return mu

        return self._cached(("moments", n), lambda mu: len(mu) > degree, build)[: degree + 1]


def _chebyshev_terms(vals: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """c_j mu_j, j = 0..N, for the interpolant through values at cos(pi k / N), k = 0..N."""
    deg = len(vals) - 1
    # Chebyshev coefficients by the DCT-I of the samples, via the even extension
    coef = np.fft.rfft(np.concatenate([vals, vals[-2:0:-1]]), axis=0).real / deg
    coef[0] *= 0.5
    coef[deg] *= 0.5
    return coef * mu[: deg + 1].reshape((-1,) + (1,) * (coef.ndim - 1))


def bandwidth_sum(schedule: BandwidthSchedule, n: int, terms, entries: int, weight: float):
    """weight * sum_{i<=n} F(h_i) for F = `terms`, which maps an array of
    bandwidths to rows (len(h), ...), one row per bandwidth.

    F is sampled at Chebyshev-Lobatto points t = cos(pi k / N) of log h
    mapped onto [-1, 1]; the points nest, so each doubling of N reuses
    every earlier sample.  The interpolant's coefficients, summed against
    `BandwidthSchedule.chebyshev_moments`, give the sum.  It is accepted
    when, in every column, the weighted sums of degrees N and 2N agree to
    `SUM_TOL` and the upper half of the degree-2N terms, taken unsigned,
    stays below it too (`numerics.within`: relative once that column's sum
    exceeds 1); the degree-2N value is returned.  F is evaluated at every
    h_i directly (blocked, compensated) when n is too small for the
    interpolant to save work, or when the certificate fails before the
    samples reach n/2, so no input costs more than about 1.5 direct sums.

    `entries` is the size of F's temporaries per bandwidth.  Two block
    splits follow from it, and they differ in what they may change:

    * the order of the sum: F's own quadrature-node chunks (sized by the
      caller from `SUM_BLOCK_ENTRIES`) and the direct sum's fold groups of
      SUM_BLOCK_ENTRIES / entries bandwidths, each summed by numpy and
      then folded in order with compensation.  Changing either may move
      the last bits of a result.
    * the evaluation rows: F is called on row blocks of at most
      ROW_BLOCK_ENTRIES / entries bandwidths (at least one), so its
      temporaries stay in cache and below the allocator's mmap threshold.
      Each row of F must depend on its own bandwidth alone, so this split
      never changes a bit.
    """
    rows = max(1, ROW_BLOCK_ENTRIES // max(entries, 1))
    step = max(1, SUM_BLOCK_ENTRIES // max(entries, 1))

    def evaluate(h: np.ndarray) -> np.ndarray:
        return np.concatenate([terms(h[i : i + rows]) for i in range(0, len(h), rows)])

    deg = 2 * _CHEB_START
    if n >= 2 * (deg + 1):
        lo, hi = schedule._log_range(n)
        if hi == lo:  # constant schedule: every term is the same
            return weight * n * terms(schedule.values(1))[0]
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)

        def sample(k, of):
            return evaluate(np.exp(mid + half * np.cos(np.pi * k / of)))

        vals = sample(np.arange(deg + 1), deg)
        while True:
            mu = schedule.chebyshev_moments(n, deg)
            coarse = weight * _chebyshev_terms(vals[::2], mu).sum(axis=0)
            terms_fine = weight * _chebyshev_terms(vals, mu)
            fine = terms_fine.sum(axis=0)
            # the upper half of the terms is counted unsigned, so a jump in F
            # whose terms cancel in the signed gap still fails
            gap = np.maximum(np.abs(fine - coarse), np.abs(terms_fine[deg // 2 + 1 :]).sum(axis=0))
            if within(gap, np.abs(fine), SUM_TOL).all():
                return fine
            if 2 * deg > _CHEB_MAX or 2 * deg + 1 > n // 2:
                break
            new = np.empty((2 * deg + 1,) + vals.shape[1:])
            new[::2] = vals
            new[1::2] = sample(np.arange(1, 2 * deg, 2), 2 * deg)
            vals, deg = new, 2 * deg
    hs = schedule.values(n)
    parts = np.stack([evaluate(hs[i0 : i0 + step]).sum(axis=0) for i0 in range(0, n, step)])
    acc = NeumaierSum(shape=parts.shape[1:])
    acc.add_rows(parts)
    return weight * acc.total


@dataclass(frozen=True)
class ScalingSequence:
    """The moderate-deviation scaling v_n: identically one, or n^b.

    The constant-one sequence selects the large-deviation regime of the
    density itself; any growing power selects the quadratic regime.  The
    admissible range of b depends on (a, d, |alpha|, q) and is enforced
    where the sequence is used, not here.
    """

    kind: str
    b: float = 0.0

    def __post_init__(self):
        if self.kind not in SCALING_KINDS:
            raise ValueError(f"scaling kind must be constant_one or power, got '{self.kind}'")
        if self.kind == "power" and not (is_real(self.b) and 0.0 < self.b < 0.5):
            raise ValueError(f"scaling exponent b must satisfy 0 < b < 1/2, got {self.b!r}")
        if self.kind == "constant_one" and not (is_real(self.b) and self.b == 0.0):
            raise ValueError(f"constant_one scaling takes no exponent; got b={self.b!r}")

    @property
    def is_constant_one(self) -> bool:
        return self.kind == "constant_one"

    def value(self, n: int) -> float:
        n = as_count(n, "n")
        if self.is_constant_one:
            return 1.0
        return float(n) ** self.b


def regular_variation_limit_check(
    schedule: BandwidthSchedule, beta: float, n_list
) -> np.ndarray:
    """Ratios (1/(n h_n^beta)) sum_{i<=n} h_i^beta for each n in n_list.

    The limit is 1/(1 - a*beta); requires a*beta < 1.  For the pure power
    schedule, with s = a*beta, the ratio has the Euler-Maclaurin expansion

        1/(1 - s) + zeta(s) n^(s - 1) + 1/(2n) - s/(12 n^2) + O(n^-4),

    so the gap to the limit is zeta(s) n^(s-1) + 1/(2n) to leading order
    (about -30% at s = 0.9, n = 1e5).
    """
    if schedule.a * beta >= 1.0:
        raise ValueError(
            f"a * beta = {schedule.a * beta:.4g} >= 1: normalised sums diverge "
            "from the stated limit"
        )
    n_list = [as_count(n, "n values") for n in n_list]
    n_max = max(n_list)
    sums = schedule.prefix_sums(beta, n_max)
    h = schedule.values(n_max)
    out = []
    for n in n_list:
        out.append(sums[n - 1] / (n * h[n - 1] ** beta))
    return np.asarray(out)
