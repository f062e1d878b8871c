"""Monte Carlo verification of the deviation principles at desk scale.

The engine estimates P[ sup_{x in U} v_n |d^alpha f_n(x) - d^alpha f(x)| >= delta ]
by replicated simulation (a single evaluation point is the sup over a
singleton, so pointwise runs and uniform runs share one code path and are
bit-identical when the grids coincide).  Each replication draws its own
stream from a counter-based generator keyed by (seed, replication index),
so results do not depend on chunking or thread scheduling.  Within a
replication the checkpoint estimates at n_1 < n_2 < ... reuse one stream
prefix: segment sums between checkpoints accumulate into prefix sums, so a
full n_max-observation stream is simulated once per replication.  The
kernel terms are `estimator.kernel_terms`, the streaming estimator's own
block, and v_n at each checkpoint is `ScalingSequence.value`, the one v_n
formula, so the harness simulates the arithmetic the library ships.
Replications run in chunks of `numerics.BLOCK_ENTRIES // n_max` (at least
one), so the (replications x n_max) arrays of a chunk hold about 2^16
observations (512 kB in d = 1) and stay in cache.  Each worker draws its
chunks straight into one sample buffer (`Density.sample(..., out=)`) and
builds the kernel arguments in one more, both reused from chunk to chunk,
so the loop neither reallocates nor page-faults them.
The chunks are dealt round-robin to RECDEV_THREADS workers, by default the
cores the process may run on (at most the chunks and `MAX_THREADS`): the calling
thread runs the first share and a pool the others, so one worker is the
serial loop.  Memory is bounded per worker (about 2.5 MB each in d = 1),
flat in R, and grows with n_max only once n_max exceeds the budget and a
chunk is a single replication; counts are bit-identical at any thread
count.

Reports juxtapose the empirical normalized log-probabilities
(1/b_n) log p_hat_n with the theoretical reference g(delta), the smaller of
the spec's up- and down-crossing rates (`CgfSpec.rate`) at density level
f(x) for a point or sup_U f for a region, plus the moment-exponent sandwich
[-g(delta), -(xi/(xi+d)) g(delta)] for unbounded regions.  Zero-count
cells are censored at 1/R and flagged, never silently logged as -inf.
Each run reads only its inputs, so none takes a mode: `CgfSpec.regime`
decides which rate a pointwise run is measured against, and a uniform run's
sandwich is unbounded exactly when the experiment carries xi.  Both kinds
run through one body, `_tail_run`, and every report carries its verdicts
and, as `policy`, the tolerances they read.  Also here:
the deterministic bias study, which takes the spec, the sample sizes and an
optional region and draws nothing, and the finite-n Chernoff upper curve
evaluated at the optimal tilt on the rows of a pointwise run.
"""

from __future__ import annotations

import dataclasses
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cgf import CgfSpec, Verdict, cgf_finite_n
from .estimator import bias_normalizer, bias_sup_bound, expected_estimate, kernel_terms
from .kernels import as_points
from .numerics import BLOCK_ENTRIES, as_count, as_seed, finite_array, positive_finite, sample_sizes
from .ratefn import RateValue

# Verdict tolerances; each report carries the ones its verdicts read as its policy.
# The final |normalized log + rate| may be at most this fraction of the rate.
FINAL_GAP_FRACTION = 0.3
# Slack on either side of the uniform sandwich, as a fraction of the rate.
SANDWICH_SLACK_FRACTION = 0.3
# Largest relative move of the bias ratio between the last two n.
RATIO_CHANGE_TOLERANCE = 0.10
# p_hat may exceed the Chernoff bound by this many Monte Carlo standard errors.
MONTE_CARLO_SIGMAS = 3


class UnderpoweredExperimentError(RuntimeError):
    """Every cell of the experiment had zero exceedances."""


def region_grid(region, d: int) -> np.ndarray:
    """The (m, d) grid for U; refuses an empty one, and what `numerics.finite_array` refuses."""
    grid, _ = as_points(finite_array(region, "region"), d)
    if len(grid) == 0:
        raise ValueError(f"region grid must hold at least one point; got {grid.tolist()}")
    return grid


@dataclass(eq=False)
class DeviationExperiment:
    """One tail-probability experiment: model bundle, threshold, and budget; compared by identity."""

    spec: CgfSpec
    delta: float
    n_list: tuple
    replications: int
    rng_seed: int
    region: Optional[np.ndarray] = None  # grid for U in sup mode
    xi: Optional[float] = None  # moment exponent for the unbounded-U bound

    def __post_init__(self):
        self.replications = as_count(self.replications, "replications")
        self.rng_seed = as_seed(self.rng_seed)
        if not positive_finite(self.delta):
            raise ValueError(f"delta must be finite and > 0; got {self.delta!r}")
        self.n_list = sample_sizes(self.n_list)
        if self.region is not None:
            self.region = region_grid(self.region, self.spec.kernel.dimension)
        if self.xi is not None and not positive_finite(self.xi):
            raise ValueError(f"xi must be finite and > 0; got {self.xi!r}")


@dataclass(frozen=True)
class DeviationRow:
    """Empirical tail cell at one n, with its normalized log-probability."""

    n: int
    speed: float
    count: int
    p_hat: float
    censored: bool
    normalized_log: float
    chernoff_bound: Optional[float] = None


@dataclass(frozen=True)
class BiasRow:
    n: int
    normalizer: float
    bias: float
    ratio: float
    sup_normalized: Optional[float] = None


@dataclass(frozen=True)
class DeviationReport:
    """Immutable result of one experiment run."""

    kind: str
    delta: Optional[float]
    replications: Optional[int]
    rate: Optional[RateValue]
    sandwich: Optional[tuple]
    rows: tuple = ()
    bias_rows: tuple = ()
    bias_bound: Optional[float] = None
    verdicts: tuple = ()
    notes: tuple = ()
    policy: tuple = ()  # (name, value) pairs of the tolerances the verdicts read

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts)


# the most simulation workers (about 2.5 MB each in d = 1); a larger RECDEV_THREADS is refused
MAX_THREADS = 256


def _thread_count() -> int:
    """RECDEV_THREADS, or the cores this process may run on when unset; at most MAX_THREADS."""
    raw = os.environ.get("RECDEV_THREADS")
    if raw is None:
        try:
            return min(len(os.sched_getaffinity(0)), MAX_THREADS)
        except AttributeError:  # no affinity call on this platform
            return min(os.cpu_count() or 1, MAX_THREADS)
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(f"RECDEV_THREADS must be an integer >= 1; got {raw!r}")
    if count > MAX_THREADS:
        raise ValueError(f"RECDEV_THREADS must be at most {MAX_THREADS}; got {raw!r}")
    return count


def _simulate_counts(exp: DeviationExperiment, grid: np.ndarray) -> np.ndarray:
    """Exceedance counts of sup_grid v_n |est - target| >= delta per checkpoint.

    Counts are integers and replications are keyed individually, so the
    result is independent of chunk size and thread count.
    """
    spec = exp.spec
    kernel, schedule, scaling = spec.kernel, spec.schedule, spec.scaling
    d = kernel.dimension
    alpha = spec.alpha
    p = d + alpha.order
    n_list = np.asarray(exp.n_list, dtype=np.int64)
    n_max = int(n_list[-1])
    hs = schedule.values(n_max)
    hp = hs**p
    starts = np.concatenate([[0], n_list[:-1]])
    v_at = np.array([scaling.value(int(n)) for n in n_list])
    target = spec.density.partial(alpha.components, grid)
    delta = exp.delta

    chunk = min(max(1, BLOCK_ENTRIES // max(n_max, 1)), exp.replications)
    n_chunks = (exp.replications + chunk - 1) // chunk
    workers = min(_thread_count(), n_chunks)

    def run_chunks(chunks) -> np.ndarray:
        X_buf = np.empty((chunk, n_max, d))
        z_buf = np.empty_like(X_buf)
        # one Philox per worker, reset to key (seed, r) and a zero counter for
        # replication r: Philox(key=...) would draw an unused OS seed each time
        bitgen = np.random.Philox(key=0)
        gen, fresh = np.random.Generator(bitgen), bitgen.state
        counts = np.zeros(len(n_list), dtype=np.int64)
        for c in chunks:
            r0 = c * chunk
            b = min(chunk, exp.replications - r0)
            X, z = X_buf[:b], z_buf[:b]
            for j in range(b):
                fresh["state"]["key"] = np.array([exp.rng_seed, r0 + j], dtype=np.uint64)
                bitgen.state = fresh
                spec.density.sample(gen, n_max, out=X[j])
            sup_stat = np.zeros((b, len(n_list)))
            for g in range(len(grid)):
                vals = kernel_terms(kernel, alpha, grid[g], X, hs, hp, z)
                seg = np.add.reduceat(vals, starts, axis=1)
                est = np.cumsum(seg, axis=1) / n_list[None, :]
                stat = np.abs(est - target[g]) * v_at[None, :]
                np.maximum(sup_stat, stat, out=sup_stat)
            counts += (sup_stat >= delta).sum(axis=0)
        return counts

    # the calling thread runs group 0 and a pool the others; with one worker
    # the pool is never used and starts no thread
    groups = [range(w, n_chunks, workers) for w in range(workers)]
    with ThreadPoolExecutor(max_workers=max(1, workers - 1)) as pool:
        others = [pool.submit(run_chunks, g) for g in groups[1:]]
        counts = run_chunks(groups[0])
        for part in others:
            counts += part.result()
    return counts


# the tolerances a simulated tail run's verdicts read, as its report carries them
_TAIL_POLICY = (("final_gap_fraction", FINAL_GAP_FRACTION), ("sandwich_slack_fraction", SANDWICH_SLACK_FRACTION))


def _tail_run(exp: DeviationExperiment, kind: str, grid: np.ndarray, level: float, factor=None) -> DeviationReport:
    """The report of a simulated run on `grid` against g(delta) at density level `level`.

    g(delta) is the smaller of the up- and down-crossing rates.  Without a
    factor the verdicts are `_tail_verdicts`; with one the report carries
    the sandwich [-g(delta), -factor g(delta)], and the final normalized log
    must lie in it, widened on either side by SANDWICH_SLACK_FRACTION of the rate.
    """
    spec = exp.spec
    rate = min((spec.rate(exp.delta, level), spec.rate(-exp.delta, level)), key=lambda r: r.value)
    counts = _simulate_counts(exp, grid)
    if not counts.any():
        raise UnderpoweredExperimentError(
            f"no exceedances of delta={exp.delta} in {exp.replications} replications "
            "at any n; increase replications or lower delta"
        )
    rows = []
    for n, cnt in zip(exp.n_list, counts):
        b_n = spec.speed(n)
        p_hat = max(int(cnt), 1) / exp.replications
        rows.append(DeviationRow(n=int(n), speed=b_n, count=int(cnt), p_hat=p_hat,
                                 censored=bool(cnt == 0), normalized_log=math.log(p_hat) / b_n))
    sandwich, verdicts = None, ()
    if factor is None:
        verdicts = _tail_verdicts(rows, rate)
    else:
        lower = -rate.value
        upper = -factor * rate.value if rate.finite else -math.inf
        sandwich = (lower, upper)
        if rate.finite:
            slack = SANDWICH_SLACK_FRACTION * rate.value
            final = rows[-1].normalized_log
            verdicts = (
                Verdict(
                    "sandwich_upper",
                    final <= upper + slack,
                    f"final normalized log {final:.6g} vs upper {upper:.6g} + slack {slack:.6g}",
                ),
                Verdict(
                    "sandwich_lower",
                    final >= lower - slack,
                    f"final normalized log {final:.6g} vs lower {lower:.6g} - slack {slack:.6g}",
                ),
            )
    return DeviationReport(kind=kind, delta=exp.delta, replications=exp.replications, rate=rate,
                           sandwich=sandwich, rows=tuple(rows), verdicts=verdicts, policy=_TAIL_POLICY)


def run_pointwise(exp: DeviationExperiment) -> DeviationReport:
    """Tail probabilities of v_n |d^alpha f_n(x) - d^alpha f(x)| at one point.

    The spec's regime fixes the report kind: "pointwise_ldp" for the plain
    unscaled density estimator, "pointwise_mdp" for every scaled or
    derivative case.
    """
    spec = exp.spec
    kind = "pointwise_ldp" if spec.regime == "ldp" else "pointwise_mdp"
    return _tail_run(exp, kind, spec.point.reshape(1, -1), spec.density_at_point)


def run_uniform(exp: DeviationExperiment) -> DeviationReport:
    """Tail probabilities of the sup over the region grid, with the sandwich.

    The sup-norm of f over U is taken on the supplied grid.  Without a
    moment exponent the region is taken as bounded and the reference is
    -g(delta) itself; with `exp.xi` the upper member is -(xi/(xi+d)) g(delta).
    """
    if exp.region is None:
        raise ValueError("uniform mode needs a region grid")
    sup_density = float(np.max(exp.spec.density.pdf(exp.region)))
    if sup_density <= 0:
        raise ValueError("sup_density must be positive")
    kind = "uniform_bounded" if exp.xi is None else "uniform_unbounded"
    factor = 1.0 if exp.xi is None else exp.xi / (exp.xi + exp.spec.kernel.dimension)
    return _tail_run(exp, kind, exp.region, sup_density, factor)


def _tail_verdicts(rows: list, rate: RateValue) -> tuple:
    """Convergence verdicts for a finite governing rate.

    The normalized log-probabilities approach -rate from below (the
    sub-exponential prefactor pushes log p_hat under -speed * rate), so
    "approaches the rate" is judged on the gap |normalized_log + rate|,
    which must shrink along n; the final gap must be within
    FINAL_GAP_FRACTION of the rate.  With an infinite rate there is nothing
    to compare against.
    """
    if not rate.finite or rate.value <= 0:
        return ()
    logs = [r.normalized_log for r in rows]
    gaps = [abs(v + rate.value) for v in logs]
    out = []
    if len(rows) >= 2:
        shrinking = all(b < a for a, b in zip(gaps, gaps[1:]))
        out.append(
            Verdict(
                "gap_to_rate_decreasing",
                shrinking,
                "gaps to the rate " + (" > ".join(f"{v:.5g}" for v in gaps)),
            )
        )
    allowed = FINAL_GAP_FRACTION * rate.value
    out.append(
        Verdict(
            "final_within_30pct",
            gaps[-1] <= allowed,
            f"|{logs[-1]:.6g} - ({-rate.value:.6g})| = {gaps[-1]:.6g} "
            f"vs {FINAL_GAP_FRACTION:.0%} = {allowed:.6g}",
        )
    )
    return tuple(out)


def run_bias_study(
    spec: CgfSpec, n_list, region=None, q: int = 2, m_q: Optional[float] = None
) -> DeviationReport:
    """Deterministic bias table: ratio to (1/n) sum h_i^q and the sup bound.

    n_list must be strictly increasing sample sizes.  m_q bounds the q-th
    derivatives of the target d^alpha f; if omitted it is computed from the
    density (one-dimensional densities only).  With a region grid the
    normalized sup over the grid is checked against the bound, which holds
    at every n, not just in the limit.
    """
    n_list = sample_sizes(n_list)
    if region is not None:
        region = region_grid(region, spec.kernel.dimension)
    kernel, schedule, density = spec.kernel, spec.schedule, spec.density
    if m_q is None:
        m_q = density.max_abs_derivative(spec.alpha.order + q)
    bound = bias_sup_bound(kernel, q, m_q)
    # the point stacked onto the region: one mean call per n
    pts = spec.point.reshape(1, -1)
    if region is not None:
        pts = np.vstack([pts, region])
    targets = density.partial(spec.alpha.components, pts)
    rows = []
    for n in n_list:
        norm = bias_normalizer(schedule, q, n)
        gaps = expected_estimate(kernel, schedule, density, n, pts, alpha=spec.alpha.components) - targets
        b = gaps[0]
        sup_norm = None
        if region is not None:
            sup_norm = float(np.max(np.abs(gaps[1:]))) / norm
        rows.append(
            BiasRow(n=int(n), normalizer=norm, bias=float(b), ratio=float(b) / norm, sup_normalized=sup_norm)
        )
    verdicts = []
    if len(rows) >= 2:
        r_prev, r_last = rows[-2].ratio, rows[-1].ratio
        denom = max(abs(r_last), 1e-300)
        change = abs(r_last - r_prev) / denom
        verdicts.append(
            Verdict(
                "bias_ratio_stable",
                change < RATIO_CHANGE_TOLERANCE,
                f"ratio moved {change:.3%} between n={rows[-2].n} and n={rows[-1].n}",
            )
        )
    if region is not None:
        worst = max(r.sup_normalized for r in rows)
        verdicts.append(
            Verdict(
                "bias_bound_holds",
                worst <= bound * (1 + 1e-9),
                f"sup normalized bias {worst:.6g} vs bound {bound:.6g}",
            )
        )
    return DeviationReport(
        kind="bias",
        delta=None,
        replications=None,
        rate=None,
        sandwich=None,
        bias_rows=tuple(rows),
        bias_bound=bound,
        verdicts=tuple(verdicts),
        policy=(("ratio_change_tolerance", RATIO_CHANGE_TOLERANCE),),
    )


def chernoff_upper_curve(
    exp: DeviationExperiment, base: Optional[DeviationReport] = None
) -> DeviationReport:
    """Finite-n Chernoff bound at the optimal tilt, checked against p_hat.

    The two-sided bound sums exp(-b_n (u delta_side - L_n(u))) over the two
    crossing directions, with u the maximizer of the limiting curve and
    delta_side adjusted by the exact finite-n bias (the simulated statistic
    is centred at the target, the cumulant at the mean).  The rows and the
    rate come from `base`, a pointwise report of the same seed and budget,
    or else from `run_pointwise(exp)`; a base of another kind, delta,
    replication count or n_list raises ValueError.
    """
    spec = exp.spec
    fx = spec.density_at_point
    if fx <= 0:
        raise ValueError("the Chernoff curve needs f(x) > 0 at the experiment point")
    if base is None:
        base = run_pointwise(exp)
    want = ("pointwise", exp.delta, exp.replications, exp.n_list)
    got = (base.kind.split("_")[0], base.delta, base.replications, tuple(r.n for r in base.rows))
    if got != want:
        raise ValueError(f"base report has (kind, delta, replications, n_list) = {got}; needed {want}")
    target = spec.density.partial(spec.alpha.components, spec.point.reshape(1, -1))[0]
    out_rows = []
    notes = []
    for row in base.rows:
        n = row.n
        v_n = spec.scaling.value(n)
        bias = spec.mean(n) - target
        total = 0.0
        for sign in (+1.0, -1.0):
            d_eff = exp.delta - sign * v_n * bias
            if d_eff <= 0:
                total += 1.0  # threshold swallowed by the bias; bound is trivial
                notes.append(f"n={n}: side {sign:+.0f} has nonpositive effective threshold")
                continue
            u = spec.tilt(sign * d_eff, fx)
            ln = cgf_finite_n(spec, u, n)
            total += math.exp(-row.speed * (u * sign * d_eff - ln))
        out_rows.append(dataclasses.replace(row, chernoff_bound=min(total, 1.0)))
    ok = True
    details = []
    for r in out_rows:
        se = math.sqrt(max(r.p_hat * (1 - r.p_hat), 1.0 / exp.replications) / exp.replications)
        holds = r.p_hat <= r.chernoff_bound + MONTE_CARLO_SIGMAS * se
        ok = ok and holds
        details.append(f"n={r.n}: p_hat={r.p_hat:.3g} bound={r.chernoff_bound:.3g}")
    verdicts = (Verdict("chernoff_domination", ok, "; ".join(details)),)
    return DeviationReport(
        kind="chernoff",
        delta=exp.delta,
        replications=exp.replications,
        rate=base.rate,
        sandwich=None,
        rows=tuple(out_rows),
        verdicts=verdicts,
        notes=tuple(notes),
        policy=(("monte_carlo_sigmas", MONTE_CARLO_SIGMAS),),
    )
