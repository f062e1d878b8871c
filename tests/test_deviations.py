import math
import os
import tracemalloc

import numpy as np
import pytest

from recdev import deviations
from recdev.bandwidth import BandwidthSchedule, ScalingSequence
from recdev.cgf import CgfSpec
from recdev.densities import GaussianDensity, UniformBoxDensity
from recdev.deviations import (
    DeviationExperiment,
    UnderpoweredExperimentError,
    _simulate_counts,
    chernoff_upper_curve,
    run_bias_study,
    run_pointwise,
    run_uniform,
)
from recdev.kernels import builtin_kernel

KERNEL = builtin_kernel("gaussian", 1)
DENSITY = GaussianDensity(mean=[0.0], sigma=[1.0])


def _spec(scaling=None, c=0.35, a=0.3, density=DENSITY, point=0.0):
    return CgfSpec(
        kernel=KERNEL,
        schedule=BandwidthSchedule(kind="power", c=c, a=a),
        scaling=scaling or ScalingSequence(kind="power", b=0.1),
        density=density,
        point=[point],
        alpha=None,
    )


def _exp(spec, delta=0.3, n_list=(50, 200), replications=400, seed=7, **kw):
    return DeviationExperiment(
        spec=spec,
        delta=delta,
        n_list=n_list,
        replications=replications,
        rng_seed=seed,
        **kw,
    )


def _naive_counts(exp, grid):
    # independent re-simulation: same keyed streams, per-rep cumsum instead
    # of the engine's chunked reduceat path
    spec = exp.spec
    p = spec.kernel.dimension + spec.alpha.order
    n_max = max(exp.n_list)
    hs = spec.schedule.values(n_max)
    target = spec.density.partial(spec.alpha.components, grid)
    counts = np.zeros(len(exp.n_list), dtype=int)
    for j in range(exp.replications):
        gen = np.random.Generator(
            np.random.Philox(key=np.array([exp.rng_seed, j], dtype=np.uint64))
        )
        X = spec.density.sample(gen, n_max)
        sup_stat = np.zeros(len(exp.n_list))
        for g in range(len(grid)):
            z = (grid[g][None, :] - X) / hs[:, None]
            vals = spec.kernel.deriv_eval(spec.alpha, z) / hs**p
            csum = np.cumsum(vals)
            for k, n in enumerate(exp.n_list):
                stat = abs(csum[n - 1] / n - target[g]) * spec.scaling.value(n)
                sup_stat[k] = max(sup_stat[k], stat)
        counts += sup_stat >= exp.delta
    return counts


def test_counts_match_naive_resimulation_pointwise():
    exp = _exp(_spec(), delta=0.25, n_list=(20, 60), replications=25)
    rep = run_pointwise(exp)
    naive = _naive_counts(exp, exp.spec.point.reshape(1, -1))
    assert [r.count for r in rep.rows] == list(naive)


def test_counts_match_naive_resimulation_uniform():
    grid = np.array([[-0.4], [0.0], [0.4]])
    exp = _exp(_spec(), delta=0.25, n_list=(20, 60), replications=25, region=grid)
    rep = run_uniform(exp)
    naive = _naive_counts(exp, exp.region)
    assert [r.count for r in rep.rows] == list(naive)


def test_reports_are_deterministic():
    a = run_pointwise(_exp(_spec()))
    b = run_pointwise(_exp(_spec()))
    assert a == b


def test_counts_invariant_to_chunking(monkeypatch):
    base = run_pointwise(_exp(_spec()))
    monkeypatch.setattr(deviations, "BLOCK_ENTRIES", 3_000)
    small = run_pointwise(_exp(_spec()))
    assert [r.count for r in small.rows] == [r.count for r in base.rows]


def test_counts_invariant_to_thread_count(monkeypatch):
    monkeypatch.setattr(deviations, "BLOCK_ENTRIES", 3_000)
    monkeypatch.setenv("RECDEV_THREADS", "1")
    base = run_pointwise(_exp(_spec()))
    monkeypatch.setenv("RECDEV_THREADS", "4")
    threaded = run_pointwise(_exp(_spec()))
    assert threaded == base


def test_counts_at_the_default_thread_count_match_one_thread(monkeypatch):
    monkeypatch.setattr(deviations, "BLOCK_ENTRIES", 3_000)
    monkeypatch.setenv("RECDEV_THREADS", "1")
    base = run_pointwise(_exp(_spec()))
    monkeypatch.delenv("RECDEV_THREADS")
    assert run_pointwise(_exp(_spec())) == base


def test_thread_count_defaults_to_the_usable_cores(monkeypatch):
    monkeypatch.delenv("RECDEV_THREADS", raising=False)
    assert deviations._thread_count() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert deviations._thread_count() == 3
    monkeypatch.setenv("RECDEV_THREADS", "2")
    assert deviations._thread_count() == 2


@pytest.mark.parametrize("raw", ["257", "10000"])
def test_thread_count_refuses_more_than_the_ceiling(monkeypatch, raw):
    # only the count is read here: no worker starts
    monkeypatch.setenv("RECDEV_THREADS", raw)
    with pytest.raises(ValueError, match=f"^RECDEV_THREADS must be at most 256; got {raw!r}$"):
        deviations._thread_count()


def test_thread_count_ceiling_holds_for_the_default_too(monkeypatch):
    assert deviations.MAX_THREADS == 256
    monkeypatch.setenv("RECDEV_THREADS", "256")
    assert deviations._thread_count() == 256
    monkeypatch.delenv("RECDEV_THREADS")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(1000)), raising=False)
    assert deviations._thread_count() == 256


@pytest.mark.parametrize("raw", ["abc", "0", "-3", "1.5", ""])
def test_thread_count_refuses_anything_but_a_positive_integer(monkeypatch, raw):
    monkeypatch.setenv("RECDEV_THREADS", raw)
    with pytest.raises(ValueError, match=f"RECDEV_THREADS must be an integer >= 1; got {raw!r}"):
        deviations._thread_count()


_MEMORY_CASES = pytest.mark.parametrize(
    "c, delta, n_list, replications, region",
    [
        (0.35, 0.2, (500, 2000, 8000), 2000, None),
        (0.3, 0.22, (300, 1200, 4800), 1000, np.arange(-1.0, 1.001, 0.25)),
    ],
    ids=["chernoff_shape", "nine_point_region"],
)


def _simulation_peak(c, delta, n_list, replications, region) -> int:
    exp = _exp(_spec(c=c), delta=delta, n_list=n_list, replications=replications, region=region)
    grid = exp.spec.point.reshape(1, -1) if region is None else exp.region
    tracemalloc.start()
    try:
        _simulate_counts(exp, grid)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Each worker holds its own chunk buffers, so the budget is per worker; the
# worker count is pinned because the default follows the host's cores.
@_MEMORY_CASES
def test_simulation_memory_stays_within_the_chunk_budget(monkeypatch, c, delta, n_list, replications, region):
    monkeypatch.setenv("RECDEV_THREADS", "1")
    peak = _simulation_peak(c, delta, n_list, replications, region)
    assert peak <= 8e6, f"peak {peak / 1e6:.1f} MB"


@_MEMORY_CASES
def test_simulation_memory_stays_within_the_chunk_budget_per_worker(
    monkeypatch, c, delta, n_list, replications, region
):
    monkeypatch.setenv("RECDEV_THREADS", "2")
    peak = _simulation_peak(c, delta, n_list, replications, region)
    assert peak <= 2 * 8e6, f"peak {peak / 1e6:.1f} MB at 2 workers"


def test_singleton_region_matches_pointwise():
    point_rep = run_pointwise(_exp(_spec()))
    uni_rep = run_uniform(_exp(_spec(), region=np.array([[0.0]])))
    for rp, ru in zip(point_rep.rows, uni_rep.rows):
        assert rp == ru
    assert uni_rep.rate.value == point_rep.rate.value


def test_counts_monotone_in_delta():
    lo = run_pointwise(_exp(_spec(), delta=0.2))
    hi = run_pointwise(_exp(_spec(), delta=0.35))
    for rl, rh in zip(lo.rows, hi.rows):
        assert rl.count >= rh.count


def test_row_bookkeeping_contract():
    exp = _exp(_spec(), delta=0.2)
    rep = run_pointwise(exp)
    assert rep.kind == "pointwise_mdp"
    for row, n in zip(rep.rows, exp.n_list):
        assert row.n == n
        assert 0 <= row.count <= exp.replications
        assert row.p_hat == max(row.count, 1) / exp.replications
        assert row.censored == (row.count == 0)
        assert row.normalized_log == math.log(row.p_hat) / row.speed
        assert row.speed > 0


def test_censored_cell_is_flagged_not_minus_inf():
    # delta large enough that the long checkpoint never crosses
    exp = _exp(_spec(), delta=0.45, n_list=(30, 4000), replications=1500)
    rep = run_pointwise(exp)
    assert rep.rows[0].count > 0
    assert rep.rows[-1].count == 0
    assert rep.rows[-1].censored
    assert rep.rows[-1].p_hat == 1 / exp.replications
    assert math.isfinite(rep.rows[-1].normalized_log)


def test_all_zero_counts_raise_underpowered():
    with pytest.raises(UnderpoweredExperimentError):
        run_pointwise(_exp(_spec(), delta=60.0, replications=50))


def test_experiment_validation():
    with pytest.raises(ValueError):
        _exp(_spec(), delta=0.0)
    with pytest.raises(ValueError):
        _exp(_spec(), n_list=(100, 50))
    with pytest.raises(ValueError):
        _exp(_spec(), n_list=())
    with pytest.raises(ValueError):
        _exp(_spec(), replications=0)
    with pytest.raises(ValueError, match="replications"):
        _exp(_spec(), replications=2.5)
    with pytest.raises(ValueError, match="n_list"):
        _exp(_spec(), n_list=(10.0, 20))
    exp = _exp(_spec(), n_list=np.array([50, 200]), replications=np.int64(400))
    assert exp.n_list == (50, 200) and exp.replications == 400
    with pytest.raises(ValueError):
        _exp(_spec(), region=np.zeros((0, 1)))
    with pytest.raises(ValueError):
        _exp(_spec(), xi=-1.0)
    with pytest.raises(ValueError):
        run_uniform(_exp(_spec()))  # no region grid


def test_zero_density_point_gives_infinite_rate_and_no_tail_verdicts():
    box = UniformBoxDensity(low=[0.0], high=[1.0])
    spec = _spec(scaling=ScalingSequence(kind="constant_one"), c=0.7, density=box, point=2.0)
    rep = run_pointwise(_exp(spec, delta=1e-3, n_list=(10, 20), replications=40))
    assert not rep.rate.finite
    assert rep.verdicts == ()
    assert rep.all_passed
    assert all(r.count > 0 for r in rep.rows)


@pytest.mark.parametrize(
    "scaling,mode", [(ScalingSequence(kind="constant_one"), "ldp"), (None, "mdp")]
)
def test_pointwise_rate_is_the_smaller_one_sided_rate(scaling, mode):
    spec = _spec(scaling=scaling)
    rep = run_pointwise(_exp(spec, delta=0.3))
    assert rep.kind == f"pointwise_{mode}"
    fx = spec.density_at_point
    up, down = spec.rate(0.3, fx), spec.rate(-0.3, fx)
    assert rep.rate.finite
    assert rep.rate.value == min(up.value, down.value)


def test_uniform_sandwich_geometry():
    grid = np.array([[-0.5], [0.0], [0.5]])
    budget = dict(delta=0.25, n_list=(100, 400), replications=800, region=grid)
    bounded = run_uniform(_exp(_spec(c=0.3), xi=None, **budget))
    unbounded = run_uniform(_exp(_spec(c=0.3), xi=2.0, **budget))
    g = bounded.rate.value
    assert g > 0
    assert bounded.kind == "uniform_bounded"
    assert bounded.sandwich == (-g, -g)
    lo, up = unbounded.sandwich
    assert lo == -g
    assert up == pytest.approx(-(2.0 / 3.0) * g)
    assert lo <= up
    names = [v.name for v in bounded.verdicts]
    assert names == ["sandwich_upper", "sandwich_lower"]
    assert unbounded.kind == "uniform_unbounded"
    # same streams, same counts: only the reference envelope moves
    assert [r.count for r in unbounded.rows] == [r.count for r in bounded.rows]


def test_pointwise_verdict_names():
    rep = run_pointwise(_exp(_spec(), delta=0.2, replications=2000))
    assert [v.name for v in rep.verdicts] == [
        "gap_to_rate_decreasing",
        "final_within_30pct",
    ]
    assert rep.rate.finite and rep.rate.value > 0
    assert rep.sandwich is None


def test_chernoff_bound_dominates_and_reuses_base():
    exp = _exp(_spec(), delta=0.3, n_list=(100, 400), replications=2000)
    base = run_pointwise(exp)
    chern = chernoff_upper_curve(exp, base=base)
    assert [r.count for r in chern.rows] == [r.count for r in base.rows]
    for row in chern.rows:
        assert 0 < row.chernoff_bound <= 1.0
        se = math.sqrt(
            max(row.p_hat * (1 - row.p_hat), 1 / exp.replications) / exp.replications
        )
        assert row.p_hat <= row.chernoff_bound + 3 * se
    assert chern.verdicts[0].name == "chernoff_domination"
    assert chern.verdicts[0].passed
    fresh = chernoff_upper_curve(exp)
    assert fresh.rows == chern.rows


def test_each_report_carries_the_policy_its_verdicts_read():
    from recdev import cgf

    assert deviations.Verdict is cgf.Verdict
    spec = _spec()
    exp = _exp(spec)
    tail = (("final_gap_fraction", deviations.FINAL_GAP_FRACTION),
            ("sandwich_slack_fraction", deviations.SANDWICH_SLACK_FRACTION))
    pointwise = run_pointwise(exp)
    reports = {
        pointwise: tail,
        run_uniform(_exp(spec, region=np.array([[-0.5], [0.0]]))): tail,
        chernoff_upper_curve(exp, base=pointwise): (("monte_carlo_sigmas", deviations.MONTE_CARLO_SIGMAS),),
        deviations.run_bias_study(spec, (100, 400)): (("ratio_change_tolerance", deviations.RATIO_CHANGE_TOLERANCE),),
    }
    for report, policy in reports.items():  # hashed as dict keys: a frozen report still hashes
        assert report.policy == policy, report.kind
        assert report.verdicts and all(isinstance(v, cgf.Verdict) for v in report.verdicts)


def test_chernoff_base_nlist_mismatch_raises():
    # a base run at another delta or budget would be judged against this delta's bound
    budget = dict(delta=0.2, n_list=(100, 400), replications=200)
    base = run_pointwise(_exp(_spec(), **budget))
    for other in (dict(n_list=(100, 800)), dict(delta=0.4), dict(replications=1000)):
        with pytest.raises(ValueError, match="base report"):
            chernoff_upper_curve(_exp(_spec(), **{**budget, **other}), base=base)
    # the sup over a region is not the statistic the pointwise bound covers
    exp = _exp(_spec(), region=np.array([[-0.5], [0.0], [0.5]]), **budget)
    with pytest.raises(ValueError, match="base report"):
        chernoff_upper_curve(exp, base=run_uniform(exp))


def test_chernoff_bias_swallowed_threshold_is_trivial_bound():
    # v_n |bias| exceeds delta, so one crossing direction caps the bound at 1
    spec = _spec(c=0.7)
    exp = _exp(spec, delta=0.01, n_list=(50,), replications=30)
    rep = chernoff_upper_curve(exp)
    assert rep.rows[0].chernoff_bound == 1.0
    assert any("nonpositive effective threshold" in note for note in rep.notes)


def test_bias_study_ratio_and_bound():
    spec = _spec(scaling=ScalingSequence(kind="constant_one"), c=0.7)
    region = np.array([[-1.0], [0.0], [1.0]])
    rep = run_bias_study(spec, (2000, 20000), region, q=2)
    assert rep.kind == "bias"
    assert len(rep.bias_rows) == 2
    lim = -1.0 / (2.0 * math.sqrt(2.0 * math.pi))
    assert rep.bias_rows[-1].ratio == pytest.approx(lim, rel=0.05)
    assert [v.name for v in rep.verdicts] == ["bias_ratio_stable", "bias_bound_holds"]
    assert rep.all_passed
    for row in rep.bias_rows:
        assert row.sup_normalized is not None
        assert row.sup_normalized <= rep.bias_bound * (1 + 1e-9)


def test_bias_study_without_region_skips_sup_column():
    spec = _spec(scaling=ScalingSequence(kind="constant_one"), c=0.7)
    rep = run_bias_study(spec, (2000, 20000), q=2)
    assert all(row.sup_normalized is None for row in rep.bias_rows)
    assert [v.name for v in rep.verdicts] == ["bias_ratio_stable"]


def test_bias_study_validates_its_own_inputs():
    # the table reads only the spec, the sample sizes and the region
    spec = _spec(scaling=ScalingSequence(kind="constant_one"), c=0.7)
    for n_list in ((200, 100), (100, 100), (), (10.0, 20)):
        with pytest.raises(ValueError, match="n_list"):
            run_bias_study(spec, n_list)
    for region in (np.zeros((0, 1)), [], [[math.nan]], [[0.0], [math.inf]]):
        with pytest.raises(ValueError, match="region"):
            run_bias_study(spec, (100, 200), region)
    rep = run_bias_study(spec, np.array([100, 200]), [0.0, 1.0])
    assert [r.n for r in rep.bias_rows] == [100, 200]
    assert all(r.sup_normalized is not None for r in rep.bias_rows)


@pytest.mark.parametrize("d", [1, 2])
def test_specs_experiments_and_kernels_compare_by_identity(d):
    def build():
        kernel = builtin_kernel("gaussian", d)
        spec = CgfSpec(
            kernel=kernel,
            schedule=BandwidthSchedule(kind="power", c=0.35, a=0.2),
            scaling=ScalingSequence(kind="power", b=0.1),
            density=GaussianDensity(mean=[0.0] * d, sigma=[1.0] * d),
            point=[0.0] * d,
        )
        return kernel, spec, _exp(spec, region=np.zeros((3, d)))

    ones, twins = build(), build()

    def check():
        for x, twin in zip(ones, twins):
            assert x == x and not x != x
            assert x != twin
            assert {x: 1, twin: 2}[x] == 1

    check()
    kernel, spec, _ = ones
    spec.psi()
    spec.mean(3)
    kernel.l2_norm_sq()
    check()
