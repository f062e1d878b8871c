"""Bandwidth schedules, scaling sequences, and the speed of the tail asymptotics.

The estimator attaches bandwidth h_i to arrival index i.  Schedules here are
regularly varying with index -a: either the pure power h_i = c i^-a or the
power-with-log h_i = c i^-a log(i + 1).  Partial sums of h_i^beta appear in
every normalisation, so they are cached per exponent with compensated
summation; campaigns reach n = 1e6 terms where naive accumulation drifts.

The key limit: for a*beta < 1,

    (1 / (n h_n^beta)) * sum_{i<=n} h_i^beta  ->  1 / (1 - a*beta),

which `regular_variation_limit_check` tabulates.  Its convergence speed
degrades badly as a*beta approaches 1 (the error decays like n^(a*beta - 1)
with a constant that blows up), so treat slow cases as trends, not values.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .numerics import compensated_cumsum

_KINDS = ("power", "power_log")


@dataclass
class BandwidthSchedule:
    """h_i = c * i^-a, optionally with a log(i + 1) factor.

    Treat instances as immutable; the only mutable state is the prefix-sum
    cache, which is grown under a lock and never shrinks, so concurrent
    reads are safe.
    """

    kind: str
    c: float
    a: float
    _cache: dict = field(default_factory=dict, repr=False, compare=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got '{self.kind}'")
        if not (self.c > 0):
            raise ValueError(f"bandwidth constant c must be > 0, got {self.c}")
        if not (0.0 <= self.a < 1.0):
            raise ValueError(f"bandwidth exponent a must satisfy 0 <= a < 1, got {self.a}")

    def h(self, i: int) -> float:
        if i < 1:
            raise ValueError("bandwidth index starts at 1")
        out = self.c * float(i) ** (-self.a)
        if self.kind == "power_log":
            out *= np.log(i + 1.0)
        return float(out)

    def values(self, n: int) -> np.ndarray:
        """h_1 .. h_n as an array."""
        if n < 1:
            raise ValueError("n must be >= 1")
        i = np.arange(1, n + 1, dtype=np.float64)
        out = self.c * i ** (-self.a)
        if self.kind == "power_log":
            out = out * np.log(i + 1.0)
        return out

    def check_compatible(self, d: int, alpha_order: int) -> None:
        """Error if a(d + 2|alpha|) >= 1, which breaks every normalisation here."""
        if self.a * (d + 2 * alpha_order) >= 1.0:
            raise ValueError(
                f"a (d + 2|alpha|) = {self.a * (d + 2 * alpha_order):.4g} >= 1: "
                f"schedule a={self.a} is incompatible with d={d}, |alpha|={alpha_order}"
            )

    # -- prefix sums -----------------------------------------------------

    def prefix_sums(self, beta: float, n: int) -> np.ndarray:
        """Array of sum_{i<=m} h_i^beta for m = 1..n (cached per beta)."""
        if n < 1:
            raise ValueError("n must be >= 1")
        key = float(beta)
        arr = self._cache.get(key)
        if arr is None or len(arr) < n:
            with self._lock:
                arr = self._cache.get(key)
                if arr is None or len(arr) < n:
                    grow = max(n, 2 * len(arr) if arr is not None else n)
                    arr = compensated_cumsum(self.values(grow) ** key)
                    self._cache[key] = arr
        return arr[:n]

    def prefix_sum(self, beta: float, n: int) -> float:
        return float(self.prefix_sums(beta, n)[-1])


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
        if self.kind not in ("constant_one", "power"):
            raise ValueError(f"scaling kind must be constant_one or power, got '{self.kind}'")
        if self.kind == "power" and not (0.0 < self.b < 0.5):
            raise ValueError(f"scaling exponent b must satisfy 0 < b < 1/2, got {self.b}")
        if self.kind == "constant_one" and self.b != 0.0:
            raise ValueError("constant_one scaling takes no exponent")

    @property
    def is_constant_one(self) -> bool:
        return self.kind == "constant_one"

    def value(self, n: int) -> float:
        if n < 1:
            raise ValueError("n must be >= 1")
        if self.is_constant_one:
            return 1.0
        return float(n) ** self.b

    def values(self, ns) -> np.ndarray:
        ns = np.asarray(ns, dtype=np.float64)
        if self.is_constant_one:
            return np.ones_like(ns)
        return ns**self.b


def speed(
    schedule: BandwidthSchedule,
    scaling: ScalingSequence,
    d: int,
    alpha_order: int,
    n: int,
) -> float:
    """The deviation speed sum_{i<=n} h_i^(d + 2|alpha|) / v_n^2."""
    schedule.check_compatible(d, alpha_order)
    beta = d + 2 * alpha_order
    return schedule.prefix_sum(beta, n) / scaling.value(n) ** 2


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
    n_list = [int(n) for n in n_list]
    if any(n < 1 for n in n_list):
        raise ValueError("n values must be >= 1")
    n_max = max(n_list)
    sums = schedule.prefix_sums(beta, n_max)
    h = schedule.values(n_max)
    out = []
    for n in n_list:
        out.append(sums[n - 1] / (n * h[n - 1] ** beta))
    return np.asarray(out)
