"""End-to-end gate: each test prints one pass/fail line for its criterion.

The suite ties the numerical pieces to the limit theory they implement:
conjugate duality checked against a brute-force grid sup, streaming against
batch evaluation, finite-n cumulant curves against their limits, Monte
Carlo tails against the governing rates, and byte determinism of the CLI.
Monte Carlo criteria run at a fixed seed and a replication budget chosen
so the verdicts have several sigma of margin; everything runs on a laptop.
"""

import json
import math
import time

import numpy as np
import pytest

from recdev import cli
from recdev.bandwidth import BandwidthSchedule, ScalingSequence, regular_variation_limit_check
from recdev.cgf import CgfSpec, convergence_diagnostic
from recdev.densities import GaussianDensity
from recdev.deviations import (
    DeviationExperiment,
    chernoff_upper_curve,
    run_bias_study,
    run_pointwise,
    run_uniform,
)
from recdev.estimator import RecursiveEstimator, batch_values
from recdev.kernels import builtin_kernel
from recdev.numerics import gauss_legendre_panels, tanh_sinh
from recdev.ratefn import PsiEvaluator

SEED = 20260815


def _criterion(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def _psi_on_grid(kernel, a, us):
    # independent transform evaluation: lean tensor rule, tanh-sinh in the
    # singular s direction, Gauss-Legendre panels across the kernel support
    r = kernel.support_radius
    s, ws = tanh_sinh(0.0, 1.0, level=5)
    z, wz = gauss_legendre_panels(-r, r, panels=12, order=16)
    # the 192 nodes pair up as +-z and the kernel is even on them, so the
    # z sum folds onto the positive half with the pair weights added
    kz = kernel.eval(z.reshape(-1, 1))
    np.testing.assert_array_equal(kz, kernel.eval(-z.reshape(-1, 1)))
    np.testing.assert_allclose(z, -z[::-1], rtol=0, atol=1e-14 * r)
    half = len(z) // 2
    kz, wz = kz[half:], wz[half:] + wz[half - 1 :: -1]
    coef = s**a / (1.0 - a)
    sw = s**-a * ws
    out = np.empty(len(us))
    for j0 in range(0, len(us), 256):
        ub = us[j0 : j0 + 256]
        inner = np.expm1(ub[:, None, None] * coef[None, :, None] * kz[None, None, :]) @ wz
        out[j0 : j0 + len(ub)] = inner @ sw
    return out


def test_criterion_01_legendre_duality_grid_sup():
    tic = time.perf_counter()
    worst = 0.0
    worst_min = 0.0
    for kname in ("gaussian", "epanechnikov"):
        kernel = builtin_kernel(kname, 1)
        for a in (0.2, 0.25, 0.4):
            ev = PsiEvaluator(kernel, a)
            t_argmin = 1.0 / (1.0 - a)
            ts = np.linspace(0.35 * t_argmin, 2.8 * t_argmin, 50)
            u_lo = ev.inverse_prime(float(ts[0])) - 1.5
            u_hi = ev.inverse_prime(float(ts[-1])) + 1.5
            us = np.linspace(u_lo, u_hi, 10_000)
            psi_vals = _psi_on_grid(kernel, a, us)
            for t in ts:
                dual = us * t - psi_vals
                k = int(np.argmax(dual))
                assert 0 < k < len(us) - 1, "grid sup must probe an interior max"
                worst = max(worst, abs(ev.legendre(float(t)).value - dual[k]))
            worst_min = max(worst_min, ev.legendre(t_argmin).value)
    elapsed = time.perf_counter() - tic
    ok = worst <= 1e-6 and worst_min <= 1e-10
    detail = f"max |I - grid sup| = {worst:.3g}, max I at argmin = {worst_min:.3g}, {elapsed:.1f}s"
    assert _criterion(1, "legendre duality", ok, detail)
    assert elapsed < 60.0


def test_criterion_02_rate_branches_at_the_boundary():
    gauss = PsiEvaluator(builtin_kernel("gaussian", 1), 0.3)
    neg_infinite = all(not gauss.legendre(t).finite for t in (-2.0, -0.4, -1e-3))
    zero_infinite = not gauss.legendre(0.0).finite
    epan = PsiEvaluator(builtin_kernel("epanechnikov", 1), 0.25)
    rv = epan.legendre(0.0)
    expected = 2.0 / (1.0 - 0.25)
    zero_exact = rv.finite and rv.value == pytest.approx(expected, abs=1e-12)
    ok = neg_infinite and zero_infinite and zero_exact
    detail = (
        f"gaussian I(t<0)=I(0)=inf: {neg_infinite and zero_infinite}, "
        f"epanechnikov I(0)={rv.value!r} vs {expected!r}"
    )
    assert _criterion(2, "rate branch correctness", ok, detail)


def test_criterion_03_conjugate_derivative_identity():
    worst = 0.0
    for kname, a in (("gaussian", 0.3), ("epanechnikov", 0.25)):
        ev = PsiEvaluator(builtin_kernel(kname, 1), a)
        t_argmin = 1.0 / (1.0 - a)
        h = 1e-4
        for t in np.linspace(0.5 * t_argmin, 2.0 * t_argmin, 20):
            slope = (ev.legendre(float(t) + h).value - ev.legendre(float(t) - h).value) / (2 * h)
            worst = max(worst, abs(slope - ev.inverse_prime(float(t))))
    ok = worst <= 1e-5
    assert _criterion(3, "conjugate derivative identity", ok, f"max |I' - inverse| = {worst:.3g}")


def test_criterion_04_streaming_equals_batch():
    tic = time.perf_counter()
    worst = 0.0
    for d in (1, 2):
        kernel = builtin_kernel("gaussian", d)
        schedule = BandwidthSchedule(kind="power", c=0.7, a=0.3)
        density = GaussianDensity(mean=[0.0] * d, sigma=[1.0] * d)
        gen = np.random.Generator(np.random.Philox(key=np.array([SEED, d], dtype=np.uint64)))
        X = density.sample(gen, 10_000)
        axis = np.linspace(-2.0, 2.0, 20)
        grid = axis.reshape(-1, 1) if d == 1 else np.column_stack([axis, axis[::-1]])
        est = RecursiveEstimator(kernel, schedule, grid)
        for x in X[:10]:
            est.update(x)
        est.update_batch(X[10:])
        worst = max(worst, float(np.max(np.abs(est.values() - batch_values(kernel, schedule, X, grid)))))
    elapsed = time.perf_counter() - tic
    ok = worst <= 1e-12
    assert _criterion(4, "streaming equals batch", ok, f"max |diff| = {worst:.3g}, {elapsed:.1f}s")
    assert elapsed < 30.0


def test_criterion_05_normalized_bandwidth_sum_limit():
    # For h_i = c i^-a the ratio r_n = (1/(n h_n^beta)) sum_{i<=n} h_i^beta
    # equals n^(s-1) sum_{i<=n} i^-s with s = a beta, whose Euler-Maclaurin
    # expansion (DLMF 25.2) is
    #   r_n = 1/(1-s) + zeta(s) n^(s-1) + 1/(2n) - s/(12 n^2) + O(n^-4).
    # The n^(s-1) term converges arbitrarily slowly as s -> 1, so the limit
    # is checked after two-point extrapolation removes it, and the finite-n
    # ratios are pinned to the expansion so no offset in the sums can hide.
    from scipy.special import zeta

    details = []
    ok = True
    ns = np.array([1_000, 10_000, 100_000, 1_000_000])
    for a, beta in ((0.5, 1), (0.2, 1), (0.3, 3)):
        s = a * beta
        schedule = BandwidthSchedule(kind="power", c=0.7, a=a)
        ratios = regular_variation_limit_check(schedule, float(beta), ns)
        target = 1.0 / (1.0 - s)
        expansion = target + zeta(s) * ns ** (s - 1.0) + 0.5 / ns - s / (12.0 * ns**2)
        em_rel = float(np.max(np.abs(ratios - expansion) / expansion))
        q = 10.0 ** (s - 1.0)
        limit = (ratios[3] - q * ratios[2]) / (1.0 - q)
        rel = abs(limit - target) / target
        raw = abs(ratios[2] - target) / target
        ok = ok and em_rel <= 1e-12 and rel <= 0.01
        details.append(
            f"(a={a}, beta={beta}): raw rel err at n=1e5 {raw:.2%}, "
            f"extrapolated {rel:.2g}, vs Euler-Maclaurin {em_rel:.2g}"
        )
    assert _criterion(5, "normalized bandwidth sum limit", ok, "; ".join(details))


def test_criterion_06_cumulant_curves_converge():
    tic = time.perf_counter()
    kernel = builtin_kernel("gaussian", 1)
    density = GaussianDensity(mean=[0.0], sigma=[1.0])
    details = []
    ok = True
    cases = (
        ("quadratic", 0.7, ScalingSequence(kind="power", b=0.1)),
        ("ldp", 0.3, ScalingSequence(kind="constant_one")),
    )
    for label, c, scaling in cases:
        spec = CgfSpec(
            kernel=kernel,
            schedule=BandwidthSchedule(kind="power", c=c, a=0.3),
            scaling=scaling,
            density=density,
            point=[0.0],
        )
        conv = convergence_diagnostic(spec, [0.5, 1.0], [100, 1000, 10_000, 100_000])
        gaps = np.abs(conv.finite_n - conv.limit[None, :])
        monotone = bool(np.all(np.diff(gaps, axis=0) < 0))
        final_rel = gaps[-1] / np.abs(conv.limit)
        ok = ok and monotone and bool(np.all(final_rel < 0.05))
        details.append(
            f"{label}: per-u gaps monotone {monotone}, final rel err "
            + "/".join(f"{r:.2%}" for r in final_rel)
        )
    elapsed = time.perf_counter() - tic
    assert _criterion(6, "cumulant curves converge", ok, "; ".join(details) + f", {elapsed:.1f}s")
    assert elapsed < 300.0


def test_criterion_07_bias_ratio_and_sup_bound():
    tic = time.perf_counter()
    spec = CgfSpec(
        kernel=builtin_kernel("gaussian", 1),
        schedule=BandwidthSchedule(kind="power", c=0.7, a=0.3),
        scaling=ScalingSequence(kind="constant_one"),
        density=GaussianDensity(mean=[0.0], sigma=[1.0]),
        point=[0.0],
    )
    region = np.arange(-1.0, 1.001, 0.25).reshape(-1, 1)
    report = run_bias_study(spec, (50_000, 100_000), region, q=2)
    elapsed = time.perf_counter() - tic
    ok = report.all_passed
    detail = "; ".join(v.detail for v in report.verdicts) + f", {elapsed:.1f}s"
    assert _criterion(7, "bias ratio and sup bound", ok, detail)
    assert elapsed < 120.0


def test_criterion_08_moderate_deviation_slope():
    tic = time.perf_counter()
    spec = CgfSpec(
        kernel=builtin_kernel("gaussian", 1),
        schedule=BandwidthSchedule(kind="power", c=0.35, a=0.3),
        scaling=ScalingSequence(kind="power", b=0.1),
        density=GaussianDensity(mean=[0.0], sigma=[1.0]),
        point=[0.0],
    )
    exp = DeviationExperiment(
        spec=spec,
        delta=0.2,
        n_list=(500, 2000, 8000),
        replications=100_000,
        rng_seed=SEED,
    )
    report = run_pointwise(exp)
    assert report.rate.value == pytest.approx(0.16172093894896455, rel=1e-12)
    chern = chernoff_upper_curve(exp, base=report)
    elapsed = time.perf_counter() - tic
    ok = report.all_passed and chern.all_passed
    gaps = [abs(r.normalized_log + report.rate.value) for r in report.rows]
    detail = (
        "gaps to -J "
        + " > ".join(f"{g:.4f}" for g in gaps)
        + f", 30% bar {0.3 * report.rate.value:.4f}, chernoff {chern.verdicts[0].passed}, "
        + f"{elapsed:.1f}s"
    )
    assert _criterion(8, "moderate deviation slope", ok, detail)
    assert elapsed < 900.0


def test_criterion_09_uniform_sandwich_and_singleton_collapse():
    spec = CgfSpec(
        kernel=builtin_kernel("gaussian", 1),
        schedule=BandwidthSchedule(kind="power", c=0.3, a=0.3),
        scaling=ScalingSequence(kind="power", b=0.1),
        density=GaussianDensity(mean=[0.0], sigma=[1.0]),
        point=[0.0],
    )

    def experiment(region):
        return DeviationExperiment(
            spec=spec,
            delta=0.22,
            n_list=(300, 1200, 4800),
            replications=20_000,
            rng_seed=SEED,
            region=region,
        )

    uniform = run_uniform(experiment(np.arange(-1.0, 1.001, 0.25).reshape(-1, 1)))
    g = uniform.rate.value
    final = uniform.rows[-1].normalized_log
    envelope_ok = uniform.all_passed and final <= -0.7 * g
    singleton = run_uniform(experiment(np.array([[0.0]])))
    pointwise = run_pointwise(experiment(None))
    collapse_ok = singleton.rows == pointwise.rows
    ok = envelope_ok and collapse_ok
    detail = (
        f"final {final:.5f} <= -0.7*g = {-0.7 * g:.5f}: {envelope_ok}, "
        f"singleton region rows == pointwise rows: {collapse_ok}"
    )
    assert _criterion(9, "uniform sandwich", ok, detail)


def test_criterion_10_byte_identical_reruns(tmp_path):
    cfg = {
        "bandwidth_c": 0.35,
        "bandwidth_a": 0.3,
        "scaling_kind": "power",
        "scaling_b": 0.1,
        "delta": 0.3,
        "n_list": [100, 400],
        "replications": 2000,
        "seed": 11,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    same = True
    for sub in ("simulate", "chernoff"):
        for out in ("a", "b"):
            rc = cli.main([sub, "--config", str(path), "--out", str(tmp_path / out)])
            assert rc in (0, 1)
        for name in (f"{sub}.csv", f"{sub}.json"):
            same = same and (
                (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
            )
    assert _criterion(10, "byte identical reruns", same, "simulate and chernoff, csv and json")
