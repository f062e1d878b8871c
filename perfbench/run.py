"""Run one recdev benchmark workload and print its metrics.

    python3 perfbench/run.py --workload mc_tail --seed 1 --seconds 20 --trace 0

Run from the repository root.  The workload repeats its fixed round of
operations, one at a time, until the next round would end after
``--seconds``.  With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics; with ``--trace 1`` rounds alternate
between untraced and traced and the metrics are per-layer (see README.md).
The program is imported from ``src/`` of the same checkout; without it the
run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
# One BLAS thread: the run measures recdev's own parallelism, not OpenBLAS
# oversubscribing the cores (which doubles CPU time at equal wall time).
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}
PER_LAYER_UNITS = {
    "_s": "s",
    "_per_point": "ns",
    "_per_step": "ns",
    "_per_obs": "us",
    "_per_call": "ms",
    "_per_value": "ms",
}


def pin_environment() -> None:
    """Fix thread counts before numpy is imported, here and in child processes."""
    os.environ.update(PINNED_THREADS)
    os.environ.pop("RECDEV_THREADS", None)


def probe_setup(workload: str, seed: int) -> None:
    """Child process: time importing recdev and building the workload's objects."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(HERE))
    import workloads

    workloads.Workload(workload, seed, {}).setup()
    print(repr(time.perf_counter() - t0))


def measure_setup(workload: str, seed: int) -> list:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--probe-setup"]
    out = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True
        )
        out.append(float(done.stdout.strip().splitlines()[-1]))
    return out


def git_commit() -> str:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "recdev").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in (*PINNED_THREADS, "RECDEV_THREADS")},
    }


def run_round(workload, recorder) -> dict:
    """One pass over the workload's operations; checks run outside the timing."""
    import spans

    wall = cpu = 0.0
    problems = []
    results = []
    with spans.tracing(recorder) if recorder is not None else contextlib.nullcontext():
        for op in workload.ops:
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                results.append((op, op.run(), None))
            except Exception as exc:  # a crash is a failed operation, not a failed run
                results.append((op, None, f"{op.label}: {type(exc).__name__}: {exc}"))
            wall += time.perf_counter() - t0
            cpu += time.process_time() - c0
    failed = 0
    for op, result, error in results:
        found = [error] if error else op.check(result)
        failed += bool(found)
        problems.extend(found)
    return {"wall": wall, "cpu": cpu, "attempted": len(results), "failed": failed, "problems": problems}


def unit_of(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    pin_environment()
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0

    sys.path.insert(0, str(HERE))
    try:
        import spans
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import recdev from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {workloads.NAMES}", file=sys.stderr)
        return 2

    workload = workloads.Workload(args.workload, args.seed, workloads.load_reference())
    workload.write_inputs()
    setup = [] if args.trace else measure_setup(args.workload, args.seed)

    rounds, traced_rounds, span_log = [], [], []
    start = time.perf_counter()
    while True:
        recorder = spans.Recorder() if args.trace and len(rounds) % 2 == 1 else None
        r = run_round(workload, recorder)
        r["traced"] = recorder is not None
        rounds.append(r)
        if recorder is not None:
            traced_rounds.append(spans.layer_metrics(recorder.spans))
            span_log.append(recorder.spans)
        elapsed = time.perf_counter() - start
        if len(rounds) >= 1 + args.trace and elapsed + r["wall"] > args.seconds:
            break

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    plain = [r for r in rounds if not r["traced"]]
    if args.trace:
        metrics = {
            name: statistics.median(m[name] for m in traced_rounds) for name in traced_rounds[0]
        }
        metrics["trace.overhead_s"] = statistics.median(
            r["wall"] for r in rounds if r["traced"]
        ) - statistics.median(r["wall"] for r in plain)
        units = {name: unit_of(name) for name in metrics}
    else:
        metrics = {
            "wall_s": statistics.median(r["wall"] for r in plain),
            "cpu_s": statistics.median(r["cpu"] for r in plain),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (attempted - failed) / attempted,
        }
        units = END_TO_END_UNITS

    env = environment()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "metrics": metrics,
        "rounds": [{k: r[k] for k in ("wall", "cpu", "traced", "failed")} for r in rounds],
        "setup_samples": setup,
        "problems": [p for r in rounds for p in r["problems"]][:50],
    }
    result_dir = workload.workdir / "results"
    result_dir.mkdir(parents=True, exist_ok=True)
    stem = f"seed{args.seed}-trace{args.trace}"
    (result_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if span_log:
        (result_dir / f"{stem}-spans.json").write_text(json.dumps(span_log) + "\n")

    for problem in record["problems"][:10]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"{args.workload}: {len(plain)} untraced and {len(traced_rounds)} traced rounds, "
          f"{attempted} operations, fail_frac {failed / attempted:.4g}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:16.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
