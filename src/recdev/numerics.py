"""Shared numerical primitives: quadrature rules, compensated sums, exp guards,
the block budgets `BLOCK_ENTRIES` and `ROW_BLOCK_ENTRIES`, and the one rule
per input kind that every constructor calls: a count (`as_count`, with
`as_seed` and `sample_sizes` built on it), a real scalar (`is_real`, and
`positive_finite` for one > 0) and a real array (`real_array`, and
`finite_array` where a non-finite element raises at once).  None of them
reads a bool as a number.

Two node families cover every integral in the package:

* composite Gauss-Legendre panels, for integrands that are analytic on a
  finite box (kernel profiles, tilted expectations, bias integrands);
* tanh-sinh (double-exponential) nodes, crowding both endpoints: psi's z rule
  (a compact kernel's support edge) and algebraic endpoint singularities.

Both are exposed as plain (nodes, weights) arrays so callers can evaluate
vectorised integrands, and both support level refinement: level L+1 roughly
doubles the node count, and the difference between two consecutive levels is
used as the error estimate.  `refine_each` is the one level loop: it accepts
each element of a call at its own first level whose gap to the level before
is `within` tolerance, the one acceptance rule, absolute for values below 1
and relative above.  An element that cannot meet its tolerance within the
level budget gets a QuadratureError rather than a silent best-effort value.

`_fold` is the one compensated sum (Neumaier, ZAMM 54, 1974) behind
`NeumaierSum` and `compensated_cumsum`.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

# exp() arguments above this are refused rather than allowed to overflow
EXP_ARG_LIMIT = 700.0
# the one budget, in float64 entries (512 KB, in L2 cache), of a block's
# temporaries: psi's series blocks, the estimator's kernel evaluations over
# observations x grid points, and a Monte Carlo chunk of replications x n_max
BLOCK_ENTRIES = 1 << 16
# float64 entries (128 KiB) per temporary of one row block of a bandwidth
# sum's F: glibc's default mmap threshold, so each temporary is reused from
# the heap instead of being mapped and faulted in again on every call, and
# within L2 cache
ROW_BLOCK_ENTRIES = 1 << 14
# the scalar types read as one real number; bool is among them, being int,
# and `is_real` and `real_array` refuse it
REAL_SCALARS = (float, int, np.floating, np.integer)


class QuadratureError(RuntimeError):
    """A quadrature rule failed to reach the requested tolerance."""


class RootFindError(RuntimeError):
    """Root bracketing or iteration exhausted its budget."""


class OverflowGuardError(OverflowError):
    """An exp() argument exceeded the guard threshold of 700."""


def check_exp_bound(max_arg: float, context: str) -> None:
    """Refuse exp() arguments that would overflow double precision.

    Raises OverflowGuardError naming the offending context so the caller
    sees which quantity (tilt parameter, transform argument) went out of
    range instead of a downstream inf/nan.
    """
    if max_arg > EXP_ARG_LIMIT:
        raise OverflowGuardError(
            f"{context}: exp argument {max_arg:.3g} exceeds guard {EXP_ARG_LIMIT:g}"
        )


def as_count(value, what: str, minimum: int = 1) -> int:
    """value as an int >= minimum; floats and booleans are refused, even integral ones."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{what} must be an integer >= {minimum}; got {value!r}")
    return int(value)


def is_real(value) -> bool:
    """Whether value is one finite real number: a Python or numpy int or float, not a bool."""
    try:
        return isinstance(value, REAL_SCALARS) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def positive_finite(value) -> bool:
    """Whether value `is_real` and > 0."""
    return is_real(value) and value > 0


def real_array(values, what: str):
    """(values as a flat float64 array up to its first non-finite element, that element's ValueError or None).

    The one rule for an array of real numbers: every element is a Python or
    numpy int or float.  A bool, a non-number (a string, a list where a
    number belongs) or an int beyond the float range raises ValueError
    naming `what` at once; a NaN or an infinity is returned as the error
    instead, so that a batch can run the elements before it first.
    """
    arr = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
    if arr.dtype.kind not in "fiu" and not all(
        isinstance(v, REAL_SCALARS) and not isinstance(v, bool) for v in arr.flat
    ):
        kind = "a number" if arr.ndim == 0 else "a list of numbers"
        raise ValueError(f"{what} must be {kind}; got {values!r}")
    try:
        flat = np.asarray(arr, dtype=np.float64).ravel()
    except OverflowError:
        raise ValueError(f"{what} must be finite; got an int beyond the float range") from None
    bad = np.flatnonzero(~np.isfinite(flat))
    if not bad.size:
        return flat, None
    return flat[: bad[0]], ValueError(f"{what} must be finite; got {float(flat[bad[0]])!r}")


def finite_array(values, what: str) -> np.ndarray:
    """values as a float64 array of their own shape, by `real_array`'s rule; a non-finite element raises."""
    flat, err = real_array(values, what)
    if err is not None:
        raise err
    return flat.reshape(np.shape(values))


def sample_sizes(ns, what: str = "n_list") -> tuple:
    """ns as a nonempty, strictly increasing tuple of positive integers."""
    try:
        out = tuple(as_count(n, what) for n in ns)
    except (TypeError, ValueError):
        out = ()
    if not out or any(b <= a for a, b in zip(out, out[1:])):
        raise ValueError(f"{what} must be strictly increasing positive integers; got {ns!r}")
    return out


def as_seed(value) -> int:
    """value as one word of a Philox key: an integer in [0, 2^64)."""
    if as_count(value, "seed", 0) >= 2**64:
        raise ValueError(f"seed must be an integer below 2^64; got {value!r}")
    return int(value)


@functools.lru_cache(maxsize=None)
def _legendre_rule(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order, read-only."""
    x0, w0 = np.polynomial.legendre.leggauss(order)
    x0.flags.writeable = False
    w0.flags.writeable = False
    return x0, w0


def gauss_legendre_panels(a: float, b: float, panels: int, order: int = 16):
    """Composite Gauss-Legendre rule on [a, b] with `panels` equal panels.

    Returns (nodes, weights) as float64 arrays of length panels * order.
    """
    if not (b > a):
        raise ValueError(f"empty interval [{a}, {b}]")
    if panels < 1 or order < 2:
        raise ValueError("need panels >= 1 and order >= 2")
    x0, w0 = _legendre_rule(order)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x0[None, :]).ravel()
    weights = (half[:, None] * w0[None, :]).ravel()
    return nodes, weights


def tanh_sinh(a: float, b: float, level: int):
    """Tanh-sinh rule on (a, b), open at both endpoints.

    Node k sits at the image of t = k*h under x = tanh((pi/2) sinh t) mapped
    to (a, b), with h = 2^-level: 2 ceil(4.3 2^level) + 1 nodes, crowding
    both endpoints (psi's z rule resolves the exp boundary layer at a
    compact kernel's support edge with them).  Positions are computed as
    distances from the nearer endpoint, so an endpoint singularity such as
    x^(-g), 0 < g < 1, is evaluated at full precision; the outermost nodes
    lie 1e-101 to 1e-50 from their endpoint, far from underflow.

    The levels nest: level L+1's nodes at even k are level L's, bit for bit
    (t = k h is exact), and their weights are half of level L's.  Level L's
    outermost pair drops out where ceil(4.3 2^(L+1)) < 2 ceil(4.3 2^L),
    which happens at 3 -> 4, 6 -> 7 and 7 -> 8.
    """
    if not (b > a):
        raise ValueError(f"empty interval [{a}, {b}]")
    if level < 0:
        raise ValueError("level must be >= 0")
    h = 2.0 ** (-level)
    # |t| beyond ~4.3 puts nodes within 1e-50 of the endpoint
    kmax = int(math.ceil(4.3 / h))
    t = h * np.arange(-kmax, kmax + 1)
    u = 0.5 * math.pi * np.sinh(t)
    # distance from the nearer endpoint: (1 - |tanh u|)/2 = 1/(1 + e^{2|u|})
    gap = 1.0 / (1.0 + np.exp(2.0 * np.abs(u)))
    w = 0.5 * math.pi * np.cosh(t) / np.cosh(u) ** 2 * h
    scale = 0.5 * (b - a)
    x = np.where(t < 0, a + 2.0 * scale * gap, b - 2.0 * scale * gap)
    # centre node is exact
    x[t == 0] = 0.5 * (a + b)
    return x, w * scale


def within(gap, scale, tol: float):
    """gap <= tol * max(1, scale), elementwise: absolute below 1, relative above."""
    return gap <= tol * np.maximum(1.0, scale)


def refine_each(at_level: Callable, n: int, levels, tol: float, what: str):
    """Refine each of n elements on its own: (values, levels, failures).

    `at_level(idx, level)` evaluates the elements `idx` (an index array) at
    one level as an array (..., len(idx)).  Element i is accepted at the
    first level where its column is `within` tol of the level before, and
    only the elements still open are evaluated at the next level, so an
    element's value and level do not depend on the others in the call.
    Returns the values (..., n), each element's accepted level (0 if none)
    and {i: QuadratureError naming `what` and the last two-level gap} for
    the elements that ran out of `levels`.
    """
    idx, prev = np.arange(n), None
    accepted = np.zeros(n, dtype=int)
    for level in levels:
        cur = at_level(idx, level)
        if prev is None:
            val = np.empty(cur.shape[:-1] + (n,))
        else:
            gap = np.abs(cur - prev).reshape(-1, len(idx)).max(axis=0)
            ok = within(gap, np.abs(cur).reshape(-1, len(idx)).max(axis=0), tol)
            done = idx[ok]
            val[..., done] = cur[..., ok]
            accepted[done] = level
            if len(done) == len(idx):
                return val, accepted, {}
            idx, cur, gap = idx[~ok], cur[..., ~ok], gap[~ok]
        prev = cur
    return val, accepted, {
        int(i): QuadratureError(
            f"{what} did not reach tol {tol:g} by level {level} (last two-level delta {g:.3g})"
        )
        for i, g in zip(idx, gap)
    }


def two_sum_error(a, s, b):
    """Exact rounding error of s = fl(a + b), by Knuth's branch-free TwoSum.

    a + b == s + error holds exactly, so it equals Neumaier's branch
    (whichever of a and b is larger in magnitude) bit for bit, in fewer
    array operations.  Works elementwise on scalars and numpy arrays.
    """
    bp = s - a
    return (a - (s - bp)) + (b - bp)


def _fold(s, c, rows: np.ndarray):
    """(sums, carries) after adding rows[0], rows[1], ... to the state (s, c), row 0 the state.

    A cumsum along axis 0 (np.add.accumulate, without np.cumsum's dispatch
    cost) adds the rows left to right, so it yields the running sums of the
    row-by-row loop; each step's error is exact, and a second cumsum seeded
    with the carry accumulates them, so every state equals the Neumaier
    loop's bit for bit.
    """
    sums = np.add.accumulate(np.concatenate((s[None], rows)))
    err = two_sum_error(sums[:-1], sums[1:], rows)
    return sums, np.add.accumulate(np.concatenate((c[None], err)))


class NeumaierSum:
    """Compensated accumulator (Neumaier variant of Kahan summation).

    Works on scalars (the default shape ()) or fixed-shape numpy arrays.
    `add` folds in one term and `add_rows` a block of terms stacked along
    axis 0, both through `_fold`; `total` returns sum + carry without
    disturbing the running state.
    """

    def __init__(self, shape=()):
        self._s = np.zeros(shape)
        self._c = np.zeros(shape)

    def add(self, x) -> None:
        self.add_rows(np.asarray(x, dtype=np.float64)[None])

    def add_rows(self, x: np.ndarray) -> None:
        """Fold in x[0], x[1], ... in order, bit-identical to one `add` per row."""
        s, c = _fold(self._s, self._c, x)
        self._s, self._c = s[-1].copy(), c[-1].copy()

    @property
    def total(self):
        return self._s + self._c


def compensated_cumsum(x: np.ndarray) -> np.ndarray:
    """Prefix sums of a 1-D array with Neumaier compensation.

    `_fold` from a zero state, so the result equals the element-by-element
    loop bit for bit.  For the monotone positive sequences used here the
    uncompensated drift only matters past n ~ 1e5, but campaigns run to 1e6
    terms where it does.
    """
    s, c = _fold(np.zeros(()), np.zeros(()), np.asarray(x, dtype=np.float64))
    return s[1:] + c[1:]
