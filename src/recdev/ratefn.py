"""Deviation rate functions built from the kernel transform psi.

For a kernel K on R^d and bandwidth exponent a with 0 < a*d < 1, define

    psi(u)  = int_0^1 int_{R^d} s^(-a d) (exp(s^(a d) u K(z)/(1 - a d)) - 1) dz ds.

psi is strictly convex and smooth with psi(0) = 0 and psi'(0) = 1/(1 - a d).
Its convex conjugate I(t) = sup_u (u t - psi(u)) is the pointwise rate of
the density estimator in the large-deviation regime, after recentring and
scaling by the density value.  The moderate-deviation regime has the
explicit quadratic rate and needs no transform.  Both rates, at a density
level (f(x) at a point or sup_U f over a region), live on
`cgf.CgfSpec.rate`, with their maximizers on `cgf.CgfSpec.tilt`.

The shape of I depends on the sign sets of K.  With lambda{K < 0} = 0 the
range of psi' is (0, inf): I is +inf on t < 0, equals lambda{K > 0}/(1 - a d)
at t = 0 (infinite for kernels with unbounded positive support), and is
finite for t > 0.  With lambda{K < 0} > 0 the range of psi' is all of R and
I is finite everywhere.  I vanishes exactly at t = psi'(0).

Numerics: the s-integral is in closed form, so psi and its derivatives need
one rule, in z: tanh-sinh on (0, r)^d, folded since the kernel is even,
whose nodes crowd the support edges where very negative u puts the exp
boundary layer; `numerics.refine_each` raises each u's level until that u
is `numerics.within` `_PSI_TOL` of its value at the level before.  The
levels nest, so in d = 1 each level evaluates the s-integral only at the
nodes the level before lacks and takes the others from it; its sum is
still one dot product over its whole rule.  The conjugate inverts psi' by
bracketed Newton safeguarded by bisection, for a whole t grid in lockstep.
Every value is a function of its own input: an element of a batched call
equals, bit for bit, a call on that element alone.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .kernels import MAX_TENSOR_DIMENSION, KernelModel, tensor_rule
from .numerics import (
    BLOCK_ENTRIES,
    EXP_ARG_LIMIT,
    RootFindError,
    check_exp_bound,
    real_array,
    refine_each,
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
# u per group of the nested level walk in d = 1: a group's s-integral values
# at the top level (2,203 nodes) fill one block budget per kind
_GROUP = BLOCK_ENTRIES // 2203


def _nesting(n: int, n_below: int):
    """(even, odd, below): slices of a tanh-sinh level of n nodes and of the one below, of n_below.

    Node j of a level sits at t = (j - n // 2) h (`numerics.tanh_sinh`);
    its even-t nodes, `even`, are the level below's nodes `below`, bit for
    bit, and its odd-t nodes, `odd`, are new.  `below` leaves out the level
    below's outermost pair where n // 2 is odd.
    """
    k = n // 2
    drop = n_below // 2 - k // 2
    return slice(k % 2, n, 2), slice(1 - k % 2, n, 2), slice(drop, n_below - drop)


def _add_sums(out: np.ndarray, rows, wk, kinds: tuple) -> None:
    """Add to out[k] the node sums of rows[k], the s-integral values of kinds[k]."""
    for o, s, kind in zip(out, rows, kinds):
        # one dot product per u, as alone: a multi-row s @ w rounds otherwise
        o += [r @ wk[_SHIFT[kind]] for r in s]


def _series(y: np.ndarray, coef) -> np.ndarray:
    """sum_(k >= 1) t_k, t_0 = 1, t_k = t_(k-1) y coef(k), elementwise for nonempty y >= 0.

    _TERMS terms per block, until, for each element, k > y (the terms fall
    from there) and its last term is below 1e-17 of 1 + its sum.  An element
    that stops keeps its sum while the others go on, and a block's column
    sums run down its _TERMS rows in order, so no element's sum depends on
    the others.  One element is padded to two columns: a (_TERMS, 1) block
    would sum pairwise.
    """
    n = len(y)
    y = np.append(y, 0.0) if n == 1 else y
    block = np.empty((_TERMS, len(y)))
    rows = list(block)
    k, tail, term = 1, np.zeros(len(y)), 1.0
    live = np.ones(len(y), dtype=bool)
    while live.any():
        np.multiply.outer(coef(np.arange(k, k + _TERMS)), y, out=block)
        for prev, row in zip(rows, rows[1:]):  # the running products, in order
            np.multiply(prev, row, out=row)
        block *= term
        np.add(tail, block.sum(axis=0), out=tail, where=live)
        term, k = rows[-1].copy(), k + _TERMS
        live &= (k <= y) | (term > 1e-17 * (1.0 + tail))
    return tail[:n]


def _s_integral(b: float, A: np.ndarray, excess: bool = False) -> np.ndarray:
    """int_0^1 w^(b-1) e^(A w) dw = M(b, b+1, A)/b elementwise for b > 0 (A-S 13.1).

    A holds one row of arguments per u.  Positive-term series:
    sum_k A^k/(k! (b+k)) for A >= 0, and for A = -x the incomplete gamma
    series e^-x sum_k x^k/(b (b+1) ... (b+k)) (NR 6.2), or Gamma(b) x^-b
    past x = b + 60 + 8 sqrt(b), where Gamma(b, x) is below 1e-20 Gamma(b)
    for every b.  `excess` leaves out the k = 0 term, 1/b.
    """
    h = float(excess)
    out = np.empty_like(A)
    far = -A > b + 60.0 + 8.0 * math.sqrt(b)
    up = A >= 0.0
    near = ~(far | up)
    if far.any():
        out[far] = np.exp(math.lgamma(b) - b * np.log(-A[far])) - h / b
    if up.any():
        tail = _series(A[up], lambda k: (b + k - 1.0) / (k * (b + k)))
        out[up] = (tail + (1.0 - h)) / b
    if near.any():
        x = -A[near]
        e = np.exp(-x)
        tail = _series(x, lambda k: 1.0 / (b + k))
        out[near] = (e * tail + (np.expm1(-x) if excess else e)) / b
    return out


class PsiEvaluator:
    """Evaluates psi, psi', psi'' and the conjugate transform for one kernel.

    With w = s^(a d), beta = 1/(a d) - 1 and c = 1/(1 - a d), psi, psi' and
    psi'' are the z-integrals, over a d, of `_s_integral` at b = beta + k
    times (c K)^k, k = 0, 1, 2 (psi less 1/beta), on tanh-sinh nodes in
    (0, r)^d with weights times 2^d, as K is even in each coordinate (checked
    here).

    In d = 1 the levels are walked nested (`_nested`): the first pass
    evaluates level 4's nodes and level 3's outermost pair, which level 4
    lacks, and each later level only its odd nodes, for the u still open.
    A rule streamed in chunks (d >= 2) is evaluated afresh at each level.

    Every method takes a float or an array and is batch-invariant: each
    element of a call equals, bit for bit, a call on that element alone.
    Each u is accepted at its own first level that agrees with the one
    before (`numerics.refine_each`), each s-integral is a function of its
    own (u, z) alone, its series stop by its own rule, and its node sum is
    one dot product over the level's whole rule, as alone.  `inverse_prime`
    and `legendre` run the bracket search and the safeguarded Newton
    iteration for every t in lockstep, with one psi' (or psi', psi'')
    evaluation per step for the whole batch.  A call that fails raises the error of its first failing
    element: ValueError for a non-finite input (before any quadrature on
    it), OverflowGuardError past the exp guard, QuadratureError past
    `_LEVELS`, RootFindError when a root search gives up.

    `counts` holds deterministic work counts since construction: psi
    evaluations (one per element of a call) by accepted level, Newton
    iterations (one psi', psi'' evaluation each) and bracket doublings.  They
    are sums over elements, so they do not depend on how a grid is batched.
    """

    def __init__(self, kernel: KernelModel, a: float):
        if kernel.dimension > MAX_TENSOR_DIMENSION:
            raise ValueError(f"psi quadrature supports d <= {MAX_TENSOR_DIMENSION}")
        self.kernel = kernel
        self._k = kernel.partial_fn(None)
        self.a = float(a)
        self.ad = self.a * kernel.dimension
        if not (0.0 < self.ad < 1.0):
            raise ValueError(f"need 0 < a*d < 1, got a*d = {self.ad}")
        self._beta = 1.0 / self.ad - 1.0
        self._c = 1.0 / (1.0 - self.ad)
        self._kept: dict[int, list] = {}
        self.counts = {
            "psi_evaluations_per_level": Counter(), "newton_steps": 0, "bracket_doublings": 0,
        }
        # exp-argument extremes per unit u, for the overflow guard; only
        # the positive side can overflow (the negative side underflows to 0)
        sup = kernel.sup_norm()
        self._arg_hi = self._c * sup
        self._arg_lo = -self._c * sup if kernel.negative_support_measure > 0 else 0.0
        flips = 1.0 - 2.0 * np.eye(kernel.dimension)  # each row negates one coordinate
        for z, ck, _ in self._chunks(_LEVELS[0]):
            flipped = (self._c * self._k(z * f) for f in flips)
            if not all(np.allclose(kf, ck, rtol=1e-12, atol=0.0) for kf in flipped):
                raise ValueError(f"kernel '{kernel.name}' must be even in each coordinate for psi")

    # -- plumbing --------------------------------------------------------

    def _chunks(self, level: int):
        """(z, c K(z), [w (c K)^k for k = 0, 1, 2]) per chunk of the folded z rule at `level`.

        BLOCK_ENTRIES // _TERMS nodes per chunk, made as they are used; a rule
        of one chunk (every level in d = 1) is kept on the evaluator.
        """
        if level in self._kept:
            return self._kept[level]
        x, w = tanh_sinh(0.0, self.kernel.support_radius, level)
        d = self.kernel.dimension
        n, step = len(x) ** d, BLOCK_ENTRIES // _TERMS

        def chunk(j):
            # 2 w per axis: the fold's 2^d, exact in every product
            z, wz = tensor_rule(x, 2.0 * w, d, j, min(j + step, n))
            ck = self._c * self._k(z)
            return z, ck, [wz * ck**k for k in range(3)]

        chunks = map(chunk, range(0, n, step))
        if n > step:
            return chunks
        self._kept[level] = list(chunks)
        return self._kept[level]

    def _s_values(self, u: np.ndarray, ck: np.ndarray, kinds: tuple):
        """(u block, [`_s_integral` of kinds[k] at u x ck, (block, len(ck))]) per u block.

        A block holds u_step u, so that its series temporaries stay within
        the block budget.
        """
        u_step = max(1, BLOCK_ENTRIES // _TERMS // len(ck))
        for i in range(0, len(u), u_step):
            arg = np.multiply.outer(u[i : i + u_step], ck)
            yield slice(i, i + u_step), [
                _s_integral(self._beta + _SHIFT[kind], arg, excess=kind == "psi") for kind in kinds
            ]

    def _at_level(self, u: np.ndarray, level: int, kinds: tuple) -> np.ndarray:
        """Row k holds quantity kinds[k] at every u, from one z rule and one exp argument."""
        out = np.zeros((len(kinds), len(u)))
        for _, ck, wk in self._chunks(level):
            for i, rows in self._s_values(u, ck, kinds):
                _add_sums(out[:, i], rows, wk, kinds)
        return out / self.ad

    def _nested(self, u: np.ndarray, kinds: tuple):
        """`refine_each`'s at_level(idx, level) for u in d = 1, reusing the level below's nodes.

        Equals `_at_level(u[idx], level, kinds)` bit for bit.  The first
        level evaluates the next level's nodes and its own outermost pair,
        which the next level lacks, and holds the next level's s-integral
        values; each later level evaluates only its odd nodes and takes its
        even ones from the values held for its u (every idx is a subset of
        the one before, as `refine_each` calls it).
        """
        held = []  # [level, idx, s-integral values per kind, (len(idx), nodes)]

        def evaluate(idx, ck):
            vals = [np.empty((len(idx), len(ck))) for _ in kinds]
            for i, rows in self._s_values(u[idx], ck, kinds):
                for v, r in zip(vals, rows):
                    v[i] = r
            return vals

        def at_level(idx, level):
            ((_, ck, wk),) = self._chunks(level)
            if not held:
                ((_, ck_up, _),) = self._chunks(level + 1)
                even, _, below = _nesting(len(ck_up), len(ck))
                lack = np.r_[: below.start, below.stop : len(ck)]
                vals = evaluate(idx, np.concatenate((ck_up, ck[lack])))
                held[:] = level + 1, idx, [v[:, : len(ck_up)] for v in vals]
                rows = [np.empty((len(idx), len(ck))) for _ in kinds]
                for r, v in zip(rows, vals):
                    r[:, below], r[:, lack] = v[:, even], v[:, len(ck_up) :]
            else:
                prev_level, prev_idx, prev = held
                at = np.searchsorted(prev_idx, idx)
                if prev_level == level:
                    rows = [p[at] for p in prev]
                else:
                    even, odd, below = _nesting(len(ck), prev[0].shape[1])
                    rows = [np.empty((len(idx), len(ck))) for _ in kinds]
                    for r, p, v in zip(rows, prev, evaluate(idx, ck[odd])):
                        r[:, even], r[:, odd] = p[at, below], v
                    held[:] = level, idx, rows
            out = np.zeros((len(kinds), len(idx)))
            _add_sums(out, rows, wk, kinds)
            return out / self.ad

        return at_level

    def _refine(self, u: np.ndarray, kinds: tuple):
        """`refine_each` on u: on nested levels in d = 1, afresh at each level in d >= 2."""
        if self.kernel.dimension == 1:
            at_level = self._nested(u, kinds)
        else:
            def at_level(idx, level):
                return self._at_level(u[idx], level, kinds)
        return refine_each(at_level, len(u), _LEVELS, _PSI_TOL, "psi z rule")

    def _evaluate(self, u: np.ndarray, kinds: tuple):
        """(rows of `kinds` at u, {i: QuadratureError}) for nonempty finite u inside the guard.

        In d = 1, u is refined in groups of `_GROUP`, so that the values
        `_nested` holds between levels stay within the block budget.
        """
        step = _GROUP if self.kernel.dimension == 1 else len(u)
        runs = [(i, self._refine(u[i : i + step], kinds)) for i in range(0, len(u), step)]
        vals = np.concatenate([run[0] for _, run in runs], axis=1)
        levels = np.concatenate([run[1] for _, run in runs])
        self.counts["psi_evaluations_per_level"].update(levels[levels > 0].tolist())
        return vals, {i + j: exc for i, run in runs for j, exc in run[2].items()}

    def _eval(self, u, kinds: tuple):
        """One array (or float) per kind; a failure raises the first failing element's error."""
        arr, err = real_array(u, "psi argument u")
        arg = np.maximum(np.maximum(arr, 0.0) * self._arg_hi, np.minimum(arr, 0.0) * self._arg_lo)
        over = np.flatnonzero(arg > EXP_ARG_LIMIT)
        stop = over[0] if over.size else len(arr)
        vals, failed = (np.empty((len(kinds), 0)), {})
        if stop:
            vals, failed = self._evaluate(arr[:stop], kinds)
        if failed:
            raise failed[min(failed)]
        if over.size:
            check_exp_bound(float(arg[stop]), "psi evaluation")
        if err is not None:
            raise err
        if np.ndim(u) == 0:
            return [float(v[0]) for v in vals]
        return [v.reshape(np.shape(u)) for v in vals]

    def _solve(self, t: np.ndarray):
        """(u, {i: error}) with psi'(u_i) = t_i for finite t, every t in lockstep.

        Each t takes the steps `inverse_prime` documents, as alone; a step
        evaluates psi' (bracket search) or psi' and psi'' (Newton) at every
        open t in one call, and a t that fails leaves the batch.
        """
        n = len(t)
        u, lo, hi, prev = np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n)
        failed = {}
        if not self.signed_kernel:
            for i in np.flatnonzero(t <= 0.0):
                failed[int(i)] = ValueError(
                    "psi' has range (0, inf) for kernels with no negative part; "
                    f"target {t[i]} is outside"
                )
        tol = _ROOT_TOL + 4.0 * np.abs(t) * np.finfo(float).eps

        def evaluate(idx, at, kinds):
            vals, bad = self._evaluate(at[idx], kinds)
            failed.update((int(idx[j]), exc) for j, exc in bad.items())
            keep = np.ones(len(idx), dtype=bool)
            keep[list(bad)] = False
            return idx[keep], vals[:, keep]

        # double u from 0 toward the target, up to the exp guard (and 1e18 below)
        rise = t > self.prime_at_zero
        cap_hi = EXP_ARG_LIMIT / self._arg_hi if self._arg_hi > 0 else math.inf
        cap_lo = min(EXP_ARG_LIMIT / -self._arg_lo if self._arg_lo < 0 else math.inf, 1e18)
        cap = np.where(rise, cap_hi, cap_lo)
        sign = np.where(rise, 1.0, -1.0)
        cur = sign.copy()
        newton = np.zeros(n, dtype=bool)
        todo = np.abs(self.prime_at_zero - t) > tol
        todo[list(failed)] = False
        idx = np.flatnonzero(todo)
        for _ in range(200):
            beyond = np.abs(cur[idx]) > cap[idx]
            for i in idx[beyond]:
                past = "the exp overflow guard" if rise[i] else "the search budget"
                failed[int(i)] = RootFindError(f"target {t[i]:.6g} needs u beyond {past}")
            idx = idx[~beyond]
            if not idx.size:
                break
            idx, (prime,) = evaluate(idx, cur, ("prime",))
            hit = sign[idx] * (prime - t[idx]) >= 0.0
            done = idx[hit]
            lo[done] = np.minimum(prev[done], cur[done])
            hi[done] = np.maximum(prev[done], cur[done])
            newton[done] = True
            idx = idx[~hit]
            prev[idx], cur[idx] = cur[idx], cur[idx] * 2.0
            self.counts["bracket_doublings"] += len(idx)
        for i in idx:
            side = "upper" if rise[i] else "lower"
            failed[int(i)] = RootFindError(f"bracket search exhausted ({side} branch)")

        idx = np.flatnonzero(newton)
        u[idx] = 0.5 * (lo[idx] + hi[idx])
        for _ in range(100):
            if not idx.size:
                break
            self.counts["newton_steps"] += len(idx)
            idx, (prime, second) = evaluate(idx, u, ("prime", "second"))
            f = prime - t[idx]
            miss = np.abs(f) > tol[idx]
            idx, f, second = idx[miss], f[miss], second[miss]
            above = f > 0
            hi[idx[above]] = u[idx[above]]
            lo[idx[~above]] = u[idx[~above]]
            cand = u[idx] - f / second
            bisect = ~((lo[idx] < cand) & (cand < hi[idx]))
            cand[bisect] = 0.5 * (lo[idx[bisect]] + hi[idx[bisect]])
            u[idx] = cand
        for i in idx:
            failed[int(i)] = RootFindError(
                f"Newton iteration for psi'(u) = {t[i]:.6g} did not converge"
            )
        return u, failed

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

    def inverse_prime(self, t):
        """Solve psi'(u) = t by bracketed Newton with bisection fallback, for a float or an array.

        From u = 0, u doubles toward the target until psi' - t changes sign
        (up to the exp guard above psi'(0), 1e18 below); Newton steps from
        the bracket's midpoint then fall back to bisection when they leave
        the bracket.  Terminates when |psi'(u) - t| <= `_ROOT_TOL` (plus a
        4-ulp relative cushion so very large targets remain solvable).
        Raises RootFindError if the bracket search or the iteration exhausts
        its budget, and ValueError for targets outside the range of psi'.
        """
        arr, err = real_array(t, "target t")
        u, failed = self._solve(arr)
        if failed:
            raise failed[min(failed)]
        if err is not None:
            raise err
        return float(u[0]) if np.ndim(t) == 0 else u.reshape(np.shape(t))

    def legendre(self, t):
        """The convex conjugate I(t) = sup_u (u t - psi(u)) with branch logic.

        A float gives a RateValue and an array a list of them.  Short-circuits
        the non-finite branches before any root-finding: for kernels with
        lambda{K < 0} = 0, I is +inf on t < 0 and equals lambda{K > 0}/(1 - a d)
        at t = 0.  The other t are solved together (`inverse_prime`), and
        their psi values are one `psi` call.
        """
        arr, err = real_array(t, "target t")
        out = [None] * len(arr)
        solve = np.ones(len(arr), dtype=bool) if self.signed_kernel else arr > 0.0
        if not solve.all():
            lam = self.kernel.positive_support_measure
            at_zero = RateValue.infinite()
            if math.isfinite(lam):
                at_zero = RateValue.of(lam / (1.0 - self.ad))
            for i in np.flatnonzero(~solve):
                out[i] = RateValue.infinite() if arr[i] < 0.0 else at_zero
        need = np.flatnonzero(solve)
        u, failed = self._solve(arr[need])
        stop = min(failed, default=len(need))
        if stop:
            vals = arr[need[:stop]] * u[:stop] - self.psi(u[:stop])
            for i, v in zip(need[:stop], vals.tolist()):
                out[i] = RateValue.of(v)
        if failed:
            raise failed[stop]
        if err is not None:
            raise err
        return out[0] if np.ndim(t) == 0 else out
