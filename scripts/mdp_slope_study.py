"""Tail-slope study for the scaled recursive estimator at one point.

For each threshold delta, the Monte Carlo tail P[v_n |f_n(x) - f(x)| >= delta]
is tabulated across sample sizes.  The normalized log-probabilities
(1/speed_n) log p_hat should march toward -J(delta), the quadratic rate, and
the empirical tails must stay under the finite-n Chernoff curve.

Example:
    python3 scripts/mdp_slope_study.py --deltas 0.15,0.2,0.3 --replications 20000
"""

import argparse
import math

from recdev import (
    BandwidthSchedule,
    CgfSpec,
    DeviationExperiment,
    GaussianDensity,
    ScalingSequence,
    UnderpoweredExperimentError,
    builtin_kernel,
    chernoff_upper_curve,
    run_pointwise,
)


def build_spec(args) -> CgfSpec:
    return CgfSpec(
        kernel=builtin_kernel("gaussian", 1),
        schedule=BandwidthSchedule(kind="power", c=args.c, a=args.a),
        scaling=ScalingSequence(kind="power", b=args.b),
        density=GaussianDensity(mean=[0.0], sigma=[1.0]),
        point=[args.point],
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--deltas", default="0.15,0.2,0.3", help="comma separated thresholds")
    ap.add_argument("--n", default="500,2000,8000", help="comma separated sample sizes")
    ap.add_argument("--replications", type=int, default=20_000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--c", type=float, default=0.35, help="bandwidth scale")
    ap.add_argument("--a", type=float, default=0.3, help="bandwidth exponent")
    ap.add_argument("--b", type=float, default=0.1, help="scaling exponent")
    ap.add_argument("--point", type=float, default=0.0)
    args = ap.parse_args(argv)

    spec = build_spec(args)
    n_list = tuple(int(p) for p in args.n.split(","))
    header = f"{'delta':>7} {'n':>7} {'count':>7} {'p_hat':>10} {'norm_log':>10} {'-J':>9} {'chernoff':>10}"
    print(header)
    print("-" * len(header))
    worst_gap = {}
    for delta in (float(p) for p in args.deltas.split(",")):
        exp = DeviationExperiment(
            spec=spec,
            delta=delta,
            n_list=n_list,
            replications=args.replications,
            rng_seed=args.seed,
        )
        try:
            report = run_pointwise(exp)
        except UnderpoweredExperimentError:
            # no exceedance at any n: every row is censored at p_hat = 1/R
            p_hat = 1.0 / args.replications
            for n in n_list:
                log_p = math.log(p_hat) / spec.speed(n)
                print(f"{delta:7.3f} {n:7d} {0:7d} {p_hat:10.3g}*{log_p:10.4f} {'-':>9} {'-':>10}")
            worst_gap[delta] = None
            continue
        chern = chernoff_upper_curve(exp, base=report)
        for row, crow in zip(report.rows, chern.rows):
            flag = "*" if row.censored else " "
            print(
                f"{delta:7.3f} {row.n:7d} {row.count:7d} {row.p_hat:10.3g}{flag}"
                f"{row.normalized_log:10.4f} {-report.rate.value:9.4f} "
                f"{crow.chernoff_bound:10.3g}"
            )
        worst_gap[delta] = abs(report.rows[-1].normalized_log + report.rate.value)
        for v in report.verdicts + chern.verdicts:
            print(f"  {v.name}: {'PASS' if v.passed else 'FAIL'}")
    print()
    for delta, gap in worst_gap.items():
        if gap is None:
            print(f"delta={delta:g}: no exceedance at any n; raise --replications")
        else:
            print(f"delta={delta:g}: final gap to the rate {gap:.4f}")
    print("(* = zero exceedances, tail censored at 1/R)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
