"""Compare a git revision with the working tree on one benchmark workload, in alternating pairs.

    python3 scripts/bench_pairs.py REV --workload rate_ldp [--pairs 10] [--seconds 20]

REV (a commit, branch or tag) is exported with ``git archive`` into a
temporary directory, and the working tree is copied into a second one: its
tracked files as they stand on disk, plus the untracked files git does not
ignore.  So both sides run from a fresh directory, with no caches or build
outputs of earlier runs.  Each pair runs ``perfbench/run.py --trace 0`` once
in each copy, with the pair's own seed (1, 2, ...); odd pairs run REV first
and even pairs the working tree first.  For each end-to-end metric of
BENCHMARK.json the script prints each side's median and quartiles, the
pairs the working tree won and lost (ties count for neither), and whether
the runs show a gain: the working tree wins at least nine tenths of the
pairs and the medians differ by more than REV's interquartile spread.  It
exits 1 if a run fails or reports an incorrect output.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(rev: str, into: Path) -> None:
    """The tree of `rev` in `into`, by git archive."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        archive.extractall(into, filter="data")


def copy_tree(into: Path) -> None:
    """The working tree's tracked and untracked, not ignored files in `into`."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=ROOT, capture_output=True, check=True).stdout
    for name in sorted(set(listed.decode().split("\0")) - {""}):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted on disk is left out, as it is in the tree
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, into / name)


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """{metric: value} of one untraced benchmark run in `checkout`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{checkout}: {result['failed']} of {result['attempted']} operations failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile); one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _span(q: tuple) -> str:
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def summarize(metrics: list, base: list, tree: list) -> list:
    """One row per metric: (name, base quartiles, tree quartiles, wins, losses, gain)."""
    rows = []
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        b, t = [r[name] for r in base], [r[name] for r in tree]
        wins = sum((y < x) if lower else (y > x) for x, y in zip(b, t))
        losses = sum((y > x) if lower else (y < x) for x, y in zip(b, t))
        qb, qt = quartiles(b), quartiles(t)
        better = (qb[1] - qt[1]) if lower else (qt[1] - qb[1])
        gain = wins >= 0.9 * len(b) and better > qb[2] - qb[0]
        rows.append((name, qb, qt, wins, losses, gain))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    base, tree = [], []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        rev_dir, tree_dir = Path(tmp) / "rev", Path(tmp) / "tree"
        export(args.rev, rev_dir)
        copy_tree(tree_dir)
        for pair in range(1, args.pairs + 1):
            sides = [(rev_dir, base), (tree_dir, tree)]
            for checkout, out in sides if pair % 2 else sides[::-1]:
                try:
                    out.append(run(checkout, args.workload, pair, args.seconds))
                except RuntimeError as exc:
                    print(f"pair {pair}: {exc}", file=sys.stderr)
                    return 1
            print(f"pair {pair} (seed {pair}, {'REV' if pair % 2 else 'tree'} first): "
                  + ", ".join(f"{m['name']} {base[-1][m['name']]:.6g} -> {tree[-1][m['name']]:.6g}"
                              for m in metrics), flush=True)

    print(f"{args.workload}: {args.rev} vs the working tree, {args.pairs} pairs of {args.seconds:g} s runs")
    print(f"  {'metric':12s} {'REV median [q1, q3]':>34s} {'tree median [q1, q3]':>34s}  won lost  gain")
    for name, qb, qt, wins, losses, gain in summarize(metrics, base, tree):
        print(f"  {name:12s} {_span(qb):>34s} {_span(qt):>34s}  {wins:3d} {losses:4d}  {'yes' if gain else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
