"""The four benchmark workloads: generated inputs, operations and output checks.

Each workload is a fixed list of operations run one at a time (a closed
loop with one client).  An operation is one in-process CLI invocation
(``recdev.cli.main``) or one library call sequence; an operation's `run`
does the program's work and its `check` returns the problems found in the
output, so the timed part holds no checking.  An exit code other than 0 or 1 is a
failure; exit code 1 only means a verdict failed, which is a scientific
result.

The seed picks the inputs: the Monte Carlo seed of ``mc_tail`` (one of
`MC_VARIANTS` stored variants, so exceedance counts can be compared with a
stored reference exactly) and the sample streamed by ``stream``.  The
``rate_ldp`` and ``theory_sums`` outputs are deterministic functions of
their configs, so the seed does not enter them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

sys.path.insert(0, str(SRC))
import numpy as np  # noqa: E402

import recdev  # noqa: E402
from recdev import cli  # noqa: E402

if Path(recdev.__file__).resolve().parent.parent != SRC:
    raise ImportError(f"recdev was imported from {recdev.__file__}, not from {SRC}")

MC_VARIANTS = 16
MC_SEED_BASE = 1000
STREAM_OBS = 40_000
STREAM_READ_EVERY = 100

_GAUSS_1D = {
    "kernel": "gaussian",
    "density": "gaussian",
    "density_mean": [0.0],
    "density_sigma": [1.0],
    "point": [0.0],
}

# Monte Carlo tails: the README mdp config for chernoff and the criterion-09
# shape in uniform_bounded mode for simulate.  Replications are cut so that
# one round of both commands takes a few seconds.
MC_CHERNOFF = dict(
    _GAUSS_1D, bandwidth_c=0.35, bandwidth_a=0.3, scaling_kind="power", scaling_b=0.1,
    delta=0.2, n_list=[500, 2000, 8000], replications=2000,
)
MC_SIMULATE = dict(
    _GAUSS_1D, bandwidth_c=0.3, bandwidth_a=0.3, scaling_kind="power", scaling_b=0.1,
    delta=0.22, n_list=[300, 1200, 4800], replications=1000, region="-1:1:0.25",
    mode="uniform_bounded",
)
# Rate tables: the gaussian t grid is coarser than 0:3:0.1 so one round
# stays near two seconds; its accepted psi level still climbs to 2.
RATE_GAUSSIAN = {"kernel": "gaussian", "bandwidth_a": 0.25, "t_grid": "0:3:0.5"}
RATE_EPANECHNIKOV = {"kernel": "epanechnikov", "bandwidth_a": 0.25, "t_grid": "0:3:0.1"}
# Deterministic sums over the bandwidth sequence, with n cut so a round
# takes a few seconds.
THEORY_BIAS = dict(_GAUSS_1D, bandwidth_c=0.7, bandwidth_a=0.3, n_list=[4000, 8000], region="-1:1:0.25")
THEORY_CGF = dict(_GAUSS_1D, bandwidth_c=0.3, bandwidth_a=0.3, n_list=[100, 1000, 10000], u_values=[0.5, 1.0])


def mc_seed(seed: int) -> int:
    return MC_SEED_BASE + seed % MC_VARIANTS


def _close(got: float, want: float, abs_tol: float, rel_tol: float = 0.0) -> bool:
    if math.isinf(want) or math.isinf(got):
        return got == want
    return abs(got - want) <= abs_tol + rel_tol * abs(want)


class CliOp:
    """One ``recdev <subcommand> --config <generated file>`` invocation."""

    def __init__(self, label: str, subcommand: str, config: dict, workdir: Path, check):
        self.label = label
        self.subcommand = subcommand
        self.config = config
        self.out = workdir / label
        self.config_path = workdir / f"{label}.json"
        self._check = check

    def write_inputs(self) -> None:
        self.out.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(json.dumps(self.config, indent=2) + "\n", encoding="utf-8")

    def run(self):
        argv = [self.subcommand, "--config", str(self.config_path), "--out", str(self.out)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects a usage error this way
                code = exc.code if isinstance(exc.code, int) else 2
        return code, stderr.getvalue()

    def rows(self) -> list:
        with open(self.out / f"{self.subcommand}.csv", newline="", encoding="utf-8") as fh:
            return list(csv.reader(fh))[1:]

    def check(self, result) -> list:
        code, stderr = result
        if code not in (0, 1):
            return [f"{self.label}: exit code {code}: {stderr.strip()[-300:]}"]
        try:
            rows = self.rows()
        except OSError as exc:
            return [f"{self.label}: no CSV output: {exc}"]
        return [f"{self.label}: {p}" for p in self._check(rows)]

    def setup(self) -> None:
        cfg = cli.load_config(str(self.config_path))
        bad = cli.validate(cfg, self.subcommand)
        if bad:
            raise ValueError(f"{self.label}: invalid config: {bad}")
        kernel = recdev.builtin_kernel(cfg.kernel, cfg.dimension)
        density = recdev.build_density(cfg.density, cfg.density_params)
        recdev.BandwidthSchedule(kind=cfg.bandwidth_kind, c=cfg.bandwidth_c, a=cfg.bandwidth_a)
        kernel.eval(np.zeros((1, cfg.dimension)))
        density.pdf(np.zeros((1, cfg.dimension)))
        if self.subcommand == "rate":
            recdev.PsiEvaluator(kernel, cfg.bandwidth_a)


def _compare_rows(rows: list, ref: list, tolerances: list) -> list:
    """Field-wise comparison of CSV rows; tolerances hold (abs, rel) or None for exact."""
    if len(rows) != len(ref):
        return [f"{len(rows)} rows, reference has {len(ref)}"]
    problems = []
    for row, want in zip(rows, ref):
        for j, tol in enumerate(tolerances):
            got_v, want_v = float(row[j]), float(want[j])
            ok = got_v == want_v if tol is None else _close(got_v, want_v, *tol)
            if not ok:
                problems.append(f"row {row}: column {j} is {row[j]}, reference {want[j]}")
    return problems


class Workload:
    def __init__(self, name: str, seed: int, reference: dict):
        self.name = name
        self.seed = seed
        self.reference = reference
        self.workdir = OUT / name
        self.ops = getattr(self, "_" + name)()

    def write_inputs(self) -> None:
        for op in self.ops:
            if isinstance(op, CliOp):
                op.write_inputs()

    def setup(self) -> None:
        """Object construction and first calls a user pays before any work."""
        for op in self.ops:
            op.setup()

    # -- workloads -----------------------------------------------------

    def _mc_tail(self):
        variant = str(self.seed % MC_VARIANTS)
        ref = self.reference.get("mc_tail", {}).get(variant, {})
        # closed-form quadratic rate t^2 (1 - a^2) / (2 sup f ||K||_2^2) for
        # d = 1, alpha = 0: sup f = phi(0) on [-1, 1], ||K||_2^2 = 1/(2 sqrt(pi))
        a, delta = MC_SIMULATE["bandwidth_a"], MC_SIMULATE["delta"]
        sup_f = 1.0 / math.sqrt(2.0 * math.pi)
        l2 = 1.0 / (2.0 * math.sqrt(math.pi))
        rate = delta * delta * (1.0 - a * a) / (2.0 * sup_f * l2)

        def counts(rows, key):
            got = [int(r[2]) for r in rows]
            return [] if got == ref.get(key) else [f"counts {got}, reference {ref.get(key)}"]

        def chernoff(rows):
            bad = counts(rows, "chernoff")
            bad += [f"chernoff bound {r[6]} outside (0, 1]" for r in rows if not 0.0 < float(r[6]) <= 1.0]
            return bad

        def simulate(rows):
            bad = counts(rows, "simulate")
            bad += [
                f"rate {r[6]} vs closed form {rate!r}"
                for r in rows
                if not _close(float(r[6]), rate, 0.0, 1e-12)
            ]
            return bad

        seeded = {"seed": mc_seed(self.seed)}
        return [
            CliOp("chernoff", "chernoff", dict(MC_CHERNOFF, **seeded), self.workdir, chernoff),
            CliOp("simulate", "simulate", dict(MC_SIMULATE, **seeded), self.workdir, simulate),
        ]

    def _rate_ldp(self):
        ref = self.reference.get("rate_ldp", {})

        def against(key):
            return lambda rows: _compare_rows(rows, ref.get(key, []), [None, (1e-8,)])

        return [
            CliOp("rate_gaussian", "rate", RATE_GAUSSIAN, self.workdir, against("rate_gaussian")),
            CliOp("rate_epanechnikov", "rate", RATE_EPANECHNIKOV, self.workdir, against("rate_epanechnikov")),
        ]

    def _theory_sums(self):
        ref = self.reference.get("theory_sums", {})

        def bias(rows):
            want = ref.get("bias", [])
            problems = _compare_rows(rows, want, [None, (0.0, 1e-12), (1e-9,)])
            for row, w in zip(rows, want):
                norm = float(w[1])
                for j in (3, 4):  # ratio and sup_normalized carry the mean's error / normalizer
                    if not _close(float(row[j]), float(w[j]), 1e-9 / norm, 1e-12):
                        problems.append(f"row {row}: column {j} is {row[j]}, reference {w[j]}")
            return problems

        def cgf(rows):
            return _compare_rows(rows, ref.get("cgf", []), [None, None, (1e-8,), (1e-8,), (2e-8,)])

        return [
            CliOp("bias", "bias", THEORY_BIAS, self.workdir, bias),
            CliOp("cgf", "cgf", THEORY_CGF, self.workdir, cgf),
        ]

    def _stream(self):
        return [StreamOp(self.seed)]


class StreamOp:
    """Stream a seeded N(0, 1) sample through RecursiveEstimator.update, then batch it."""

    label = "stream"

    def __init__(self, seed: int):
        self.sample = np.random.default_rng(seed).standard_normal(STREAM_OBS)
        self.grid = np.linspace(-2.0, 2.0, 20).reshape(-1, 1)

    def _objects(self):
        kernel = recdev.builtin_kernel("gaussian", 1)
        schedule = recdev.BandwidthSchedule(kind="power", c=0.7, a=0.3)
        return kernel, schedule

    def setup(self) -> None:
        kernel, schedule = self._objects()
        recdev.RecursiveEstimator(kernel, schedule, self.grid)
        kernel.eval(self.grid)

    def run(self):
        kernel, schedule = self._objects()
        est = recdev.RecursiveEstimator(kernel, schedule, self.grid)
        for i, x in enumerate(self.sample, 1):
            est.update(x)
            if i % STREAM_READ_EVERY == 0:
                est.values()
        return est.values(), recdev.batch_values(kernel, schedule, self.sample, self.grid)

    def check(self, result) -> list:
        streamed, batch = result
        gap = float(np.max(np.abs(streamed - batch)))
        return [] if gap <= 1e-12 else [f"stream: |streamed - batch| = {gap:.3g} > 1e-12"]


NAMES = ("mc_tail", "rate_ldp", "theory_sums", "stream")


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))
