"""Sup-norm deviation study over a growing family of bounded regions.

For each half-width w, the tail P[sup_{|x| <= w} v_n |f_n(x) - f(x)| >= delta]
is estimated on a grid and compared against the bounded sandwich
[-g(delta), -g(delta)] widened on either side by the report's policy value
`sandwich_slack_fraction` times g, where g is the uniform rate built from
the sup of the density over the region.  Wider regions raise the sup
statistic and (through sup_U f) lower the rate, so both columns move.

Example:
    python3 scripts/uniform_sandwich_study.py --widths 0.5,1.0,2.0
"""

import argparse

import numpy as np

from recdev import (
    BandwidthSchedule,
    CgfSpec,
    DeviationExperiment,
    GaussianDensity,
    ScalingSequence,
    builtin_kernel,
    run_uniform,
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--widths", default="0.5,1.0,2.0", help="region half-widths")
    ap.add_argument("--spacing", type=float, default=0.25, help="grid spacing")
    ap.add_argument("--delta", type=float, default=0.22)
    ap.add_argument("--n", default="300,1200,4800")
    ap.add_argument("--replications", type=int, default=20_000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--c", type=float, default=0.3)
    ap.add_argument("--a", type=float, default=0.3)
    ap.add_argument("--b", type=float, default=0.1)
    args = ap.parse_args(argv)

    spec = CgfSpec(
        kernel=builtin_kernel("gaussian", 1),
        schedule=BandwidthSchedule(kind="power", c=args.c, a=args.a),
        scaling=ScalingSequence(kind="power", b=args.b),
        density=GaussianDensity(mean=[0.0], sigma=[1.0]),
        point=[0.0],
    )
    n_list = tuple(int(p) for p in args.n.split(","))
    print(f"{'width':>6} {'grid':>5} {'n':>6} {'p_hat':>10} {'norm_log':>10} {'lower':>9} {'upper':>9}")
    for w in (float(p) for p in args.widths.split(",")):
        grid = np.arange(-w, w + 1e-9, args.spacing).reshape(-1, 1)
        exp = DeviationExperiment(
            spec=spec,
            delta=args.delta,
            n_list=n_list,
            replications=args.replications,
            rng_seed=args.seed,
            region=grid,
        )
        report = run_uniform(exp)
        lower, upper = report.sandwich
        slack = dict(report.policy)["sandwich_slack_fraction"] * report.rate.value
        for row in report.rows:
            print(
                f"{w:6.2f} {len(grid):5d} {row.n:6d} {row.p_hat:10.3g} "
                f"{row.normalized_log:10.4f} {lower - slack:9.4f} {upper + slack:9.4f}"
            )
        status = ", ".join(
            f"{v.name}={'PASS' if v.passed else 'FAIL'}" for v in report.verdicts
        )
        print(f"  g(delta)={report.rate.value:.4f}  {status}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
