"""Command line front end: flat JSON config, validation, CSV/JSON emission.

Subcommands
-----------
estimate   draw a seeded sample and tabulate the estimator on a grid
rate       tabulate the conjugate rate function on a t grid
cgf        finite-n cumulant curves against their limiting form
simulate   Monte Carlo tail probabilities against the governing rate
bias       deterministic bias table with the ratio and sup bound
chernoff   empirical tails against the finite-n Chernoff upper curve

One flat JSON document configures every subcommand; command line flags
override single fields, and the overrides are echoed into the JSON summary.
Every subcommand builds the model fields (kernel, bandwidth, scaling,
density, point, alpha); of the run fields, only those a subcommand reads
can refuse or switch it.
CSV output uses '.' decimals and literal "inf"/"-inf" for infinite rates so
files diff cleanly across platforms; the columns of a report's CSV are the
set fields of its row records.  The JSON summary carries {config, per_n,
verdicts} plus the tolerance policy those verdicts read, both as the
report holds them; output paths are kept out of it so reruns into
different directories stay byte-identical.

Exit status: 0 when every verdict passes, 1 when one fails, 2 for an
invalid config or a request the library rejects as a usage error (a
ValueError, such as a derivative sup asked of a 2-d density), 3 when a
numerical routine gives up (quadrature, root finding, the exp guard) or a
simulation sees no exceedance at all.  The environment variable
RECDEV_THREADS sets the simulation worker count (unset: the cores the
process may run on, up to 256; 1: the serial path; not in 1..256: exit 2).
Memory is bounded per worker, about 2.5 MB each in d = 1, and the outputs
are bit-identical at any worker count.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bandwidth import BandwidthSchedule, ScalingSequence
from .cgf import CgfSpec, convergence_diagnostic, regime_of
from .densities import build_density
from .deviations import DeviationExperiment, UnderpoweredExperimentError, chernoff_upper_curve, region_grid
from .deviations import run_bias_study, run_pointwise, run_uniform
from .estimator import batch_values
from .kernels import builtin_kernel, tensor_grid
from .numerics import OverflowGuardError, QuadratureError, RootFindError
from .numerics import as_count, as_seed, finite_array, positive_finite, sample_sizes

_MODES = ("ldp", "mdp", "uniform_bounded", "uniform_unbounded")


@dataclass
class ExperimentConfig:
    """Flat bag of experiment parameters; one JSON document drives all runs.

    density_params collects every density_* key from the file with the
    prefix stripped (density_mean -> mean), so the document itself stays a
    single flat object.  out is where files land and is never echoed.
    """

    kernel: str = "gaussian"
    dimension: int = 1
    bandwidth_kind: str = "power"
    bandwidth_c: float = 1.0
    bandwidth_a: float = 0.3
    scaling_kind: str = "constant_one"
    scaling_b: float = 0.0
    alpha: list = field(default_factory=list)  # empty means all zeros
    density: str = "gaussian"
    density_params: dict = field(default_factory=dict)
    point: list = field(default_factory=lambda: [0.0])
    region: Optional[object] = None  # "lo:hi:step" or explicit point list
    delta: float = 0.2
    n_list: list = field(default_factory=lambda: [100, 1000, 10000])
    replications: int = 10000
    seed: int = 0
    xi: Optional[float] = None
    mode: Optional[str] = None  # simulate only: when given, must name the run_kind()
    u_values: list = field(default_factory=lambda: [1.0])
    t_grid: str = "0:3:0.1"
    q: int = 2
    m_q: Optional[float] = None
    out: str = "."

    def run_kind(self) -> str:
        """The run simulate makes, from region, xi and the regime; mode never switches it."""
        if self.region is not None:
            return "uniform_unbounded" if self.xi is not None else "uniform_bounded"
        return "ldp" if regime_of(self.scaling_kind, sum(self.alpha)) == "ldp" else "mdp"


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a config from a flat JSON object, rejecting unknown keys."""
    known = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"density_params"}
    kwargs = {}
    params = {}
    for key, value in raw.items():
        if key.startswith("density_"):
            params[key[len("density_"):]] = value
        elif key in known:
            kwargs[key] = value
        else:
            raise ValueError(f"unknown config field '{key}'")
    return ExperimentConfig(density_params=params, **kwargs)


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}")
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: config must be a single JSON object")
    try:
        return config_from_dict(raw)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}")


def config_echo(cfg: ExperimentConfig) -> dict:
    """The flat document back again, minus output paths."""
    out = {}
    for f in dataclasses.fields(ExperimentConfig):
        if f.name in ("density_params", "out"):
            continue
        out[f.name] = getattr(cfg, f.name)
    for key, value in sorted(cfg.density_params.items()):
        out["density_" + key] = value
    return out


def parse_range(text: str) -> np.ndarray:
    """start:stop:step inclusive of the endpoint up to rounding."""
    parts = str(text).split(":")
    if len(parts) != 3:
        raise ValueError(f"range '{text}' must be start:stop:step")
    lo, hi, step = (float(p) for p in parts)
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ValueError(f"range '{text}' needs finite start, stop and step")
    if not (step > 0 and hi >= lo):
        raise ValueError(f"range '{text}' needs step > 0 and stop >= start")
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return lo + step * np.arange(count)


def region_points(cfg: ExperimentConfig) -> Optional[np.ndarray]:
    """Evaluation grid for U: a range string (per axis) or explicit points."""
    if cfg.region is None:
        return None
    if isinstance(cfg.region, str):
        return tensor_grid(parse_range(cfg.region), cfg.dimension)
    pts = finite_array(cfg.region, "region")
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1) if cfg.dimension == 1 else pts.reshape(1, -1)
    if pts.ndim != 2 or pts.shape[-1] != cfg.dimension:
        raise ValueError(f"region points must have {cfg.dimension} coordinates each")
    return region_grid(pts, cfg.dimension)


# ---------------------------------------------------------------------------
# Validation.  The library constructors check structure (names, types by the
# `numerics` rules, ranges, shapes) and their messages are reported as they are;
# `validate` adds only the hypotheses each subcommand relies on, citing tags.


def validate(cfg: ExperimentConfig, subcommand: str = "simulate") -> list:
    """Pure check of a config against what a subcommand relies on.

    Returns the list of violations; an empty list means the run may
    proceed.  A subcommand is refused only by the model fields and by the
    run fields it reads.  Each step runs only if the ones before it found
    nothing: (1) the run fields no library object owns where the subcommand
    reads them (simulate's mode, q, bias's m_q, cgf's u_values, and n_list
    and seed where no experiment holds them), then building the kernel with
    its alpha derivative, the two sequences and the density; (2) the hypotheses
    H2-H10, each citing its tag, and for simulate an explicit mode against
    the run its fields select; (3) building the `CgfSpec` from step 1's
    objects and parsing the grid the subcommand reads (the region for
    estimate, simulate and bias, the t grid for rate), with simulate and
    chernoff wrapping them in a `DeviationExperiment`; `run` hands these to
    the subcommand.  A constructor's message is reported untagged, first
    fault only.
    """
    return _check(cfg, subcommand)[0]


def _check(cfg: ExperimentConfig, subcommand: str) -> tuple:
    """`validate`'s steps; returns (violations, the arguments the body takes after cfg, or None)."""
    bad: list = []
    simulate = subcommand == "simulate"
    if simulate and cfg.mode is not None and cfg.mode not in _MODES:
        bad.append(f"mode must be one of {', '.join(_MODES)}; got '{cfg.mode}'")
    if subcommand == "bias" and cfg.m_q is not None and not positive_finite(cfg.m_q):
        bad.append(f"m_q must be a finite number > 0 when given; got {cfg.m_q!r}")
    try:
        if subcommand in ("cgf", "simulate", "bias", "chernoff"):  # H7 reads q
            as_count(cfg.q, "q", 2)
        if subcommand in ("estimate", "cgf", "bias"):
            sample_sizes(cfg.n_list)
        if subcommand == "estimate":  # the other sampling subcommands build an experiment
            as_seed(cfg.seed)
        if subcommand == "cgf":
            finite_array(cfg.u_values, "u_values")
        alpha = None if cfg.alpha == [] else cfg.alpha  # empty means all zeros
        kernel = builtin_kernel(cfg.kernel, cfg.dimension)
        kernel.partial_fn(alpha)
        schedule = BandwidthSchedule(kind=cfg.bandwidth_kind, c=cfg.bandwidth_c, a=cfg.bandwidth_a)
        scaling = ScalingSequence(kind=cfg.scaling_kind, b=cfg.scaling_b)
        density = build_density(cfg.density, cfg.density_params)
    except (TypeError, ValueError) as exc:
        bad.append(str(exc))
    if bad:
        return bad, None

    a, b, q = cfg.bandwidth_a, cfg.scaling_b, cfg.q
    k = cfg.dimension + 2 * sum(cfg.alpha)
    kind = cfg.run_kind()
    needs_theory = subcommand in ("rate", "cgf", "simulate", "chernoff")

    if needs_theory:
        if a <= 0:
            bad.append(f"(H3): a must be positive so the bandwidth shrinks; got a={a:g}")
        elif a * k >= 1:
            bad.append(f"(H3): a < 1/(d+2|alpha|)=1/{k}; got a={a:g}")
        if cfg.bandwidth_kind != "power" and regime_of(cfg.scaling_kind, sum(cfg.alpha)) == "ldp":
            bad.append("(H2): LDP density case requires h_n=cn^{-a}")
    uniform = simulate and cfg.region is not None
    if subcommand in ("cgf", "simulate", "chernoff") and cfg.scaling_kind == "power":
        bound = (1 - a * k) / 2
        if not b < bound:
            tag, case = ("(H10)", " for the uniform case") if uniform else ("(H6)", "")
            bad.append(f"{tag}: b must be < (1-a(d+2|alpha|))/2 = {bound:g}{case}; got b={b:g}")
        if not b < a * q:
            bad.append(f"(H7)ii): b must be < a*q = {a * q:g}; got b={b:g}")
    if simulate and cfg.xi is not None and cfg.region is None:
        bad.append("xi (the moment exponent of an unbounded region) needs a region; "
                   "the pointwise run reads no xi")
    if simulate and cfg.mode not in (None, kind):
        if cfg.region is None and cfg.mode.startswith("uniform"):
            bad.append("uniform mode needs a region grid")
        elif cfg.mode == "uniform_unbounded":
            bad.append("(H8)i): unbounded mode needs the moment exponent xi")
        else:
            bad.append(
                f"mode '{cfg.mode}' conflicts with region, xi, scaling_kind='{cfg.scaling_kind}' "
                f"and |alpha|={sum(cfg.alpha)}, which select '{kind}'"
            )
    if subcommand == "bias" and q % 2 != 0:
        bad.append(f"(H7)i): builtin kernels have nonzero even moments below odd q; use even q, got q={q}")
    if bad:
        return bad, None
    try:
        spec = CgfSpec(kernel=kernel, schedule=schedule, scaling=scaling, density=density,
                       point=cfg.point, alpha=alpha)
        if subcommand == "rate":
            args = (spec, parse_range(cfg.t_grid))
        elif subcommand == "cgf":
            args = (spec,)
        elif subcommand in ("estimate", "bias"):
            args = (spec, region_points(cfg))
        else:  # simulate and chernoff; chernoff reads no region or xi
            region, xi = (region_points(cfg), cfg.xi) if simulate else (None, None)
            args = (DeviationExperiment(spec=spec, delta=cfg.delta, n_list=cfg.n_list,
                                        replications=cfg.replications, rng_seed=cfg.seed,
                                        region=region, xi=xi),)
    except (TypeError, ValueError) as exc:
        return [str(exc)], None
    return [], args


# ---------------------------------------------------------------------------
# Output helpers.


def _float_out(x: float):
    """x itself, or "nan" / "inf" / "-inf" spelled out when not finite."""
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    out = _float_out(float(value))
    return out if isinstance(out, str) else repr(out)


def _write_csv(path: str, records: list) -> None:
    """One line per record; the header is the first record's keys, in their order."""
    lines = [",".join(records[0])]
    lines.extend(",".join(_fmt(v) for v in r.values()) for r in records)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _float_out(float(obj))
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def _write_json(path: str, summary: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(_jsonable(summary), sort_keys=True, indent=2) + "\n")


def _set_fields(row) -> dict:
    """A row record's fields in order, leaving out those that are None (an unset column)."""
    return {k: v for k, v in dataclasses.asdict(row).items() if v is not None}


def _verdict_dicts(report) -> list:
    return [dataclasses.asdict(v) for v in report.verdicts]


def _summary(report, **fields) -> dict:
    """`fields` plus the report's verdicts and the policy they read."""
    return {**fields, "verdicts": _verdict_dicts(report), "policy": dict(report.policy)}


# ---------------------------------------------------------------------------
# Subcommand bodies.  Each runs on the CgfSpec or DeviationExperiment and
# the parsed grid that `_check` built and returns (csv_records, summary): the
# CSV rows as dicts in column order, the row dataclasses' fields where there are any.


def _cmd_estimate(cfg: ExperimentConfig, spec: CgfSpec, grid: Optional[np.ndarray]):
    if grid is None:
        grid = spec.point.reshape(1, -1)
    n = int(cfg.n_list[-1])
    gen = np.random.Generator(np.random.Philox(key=np.array([cfg.seed, 0], dtype=np.uint64)))
    sample = spec.density.sample(gen, n)
    estimates = batch_values(spec.kernel, spec.schedule, sample, grid, alpha=spec.alpha.components)
    targets = spec.density.partial(spec.alpha.components, grid)
    records = [
        {**{f"x{j}": x for j, x in enumerate(grid[i])},
         "estimate": estimates[i], "target": targets[i], "abs_error": abs(estimates[i] - targets[i])}
        for i in range(len(grid))
    ]
    summary = {
        "n": n,
        "grid_size": len(grid),
        "sup_abs_error": float(np.max(np.abs(estimates - targets))),
    }
    return records, summary


def _cmd_rate(cfg: ExperimentConfig, spec: CgfSpec, ts: np.ndarray):
    psi = spec.psi()
    values = psi.legendre(ts)
    summary = {
        "t_grid": cfg.t_grid,
        "rows": len(values),
        "finite_entries": sum(1 for rv in values if rv.finite),
        "counters": psi.counts,
    }
    return [{"t": float(t), "rate": rv.value} for t, rv in zip(ts, values)], summary


def _cmd_cgf(cfg: ExperimentConfig, spec: CgfSpec):
    conv = convergence_diagnostic(spec, cfg.u_values, cfg.n_list)
    records = [
        {"n": int(n), "u": float(u), "finite_n": conv.finite_n[r, c], "limit": conv.limit[c],
         "abs_error": abs(conv.finite_n[r, c] - conv.limit[c])}
        for r, n in enumerate(conv.n_values)
        for c, u in enumerate(conv.u)
    ]
    summary = {
        "regime": spec.regime,
        "per_n": [
            {"n": int(n), "sup_gap": float(g)} for n, g in zip(conv.n_values, conv.sup_gap)
        ],
        "verdicts": _verdict_dicts(conv),
    }
    return records, summary


def _tail_output(report) -> tuple:
    """A simulate or chernoff report's row records, which are also its per_n, and its summary."""
    records = [_set_fields(r) for r in report.rows]
    return records, _summary(report, delta=report.delta, replications=report.replications,
                             per_n=records, notes=list(report.notes))


def _cmd_simulate(cfg: ExperimentConfig, exp: DeviationExperiment):
    report = run_pointwise(exp) if exp.region is None else run_uniform(exp)
    records, summary = _tail_output(report)
    summary.update(kind=report.kind, rate=report.rate.value,
                   sandwich=list(report.sandwich) if report.sandwich is not None else None)
    return [{**r, "rate": report.rate.value} for r in records], summary


def _cmd_bias(cfg: ExperimentConfig, spec: CgfSpec, region: Optional[np.ndarray]):
    report = run_bias_study(spec, cfg.n_list, region, q=cfg.q, m_q=cfg.m_q)
    # sup_normalized needs a region: without one it is a CSV column left out and a JSON null
    summary = _summary(report, q=cfg.q, bound=report.bias_bound,
                       per_n=[dataclasses.asdict(r) for r in report.bias_rows])
    return [_set_fields(r) for r in report.bias_rows], summary


def _cmd_chernoff(cfg: ExperimentConfig, exp: DeviationExperiment):
    return _tail_output(chernoff_upper_curve(exp))


_COMMANDS = {
    "estimate": _cmd_estimate,
    "rate": _cmd_rate,
    "cgf": _cmd_cgf,
    "simulate": _cmd_simulate,
    "bias": _cmd_bias,
    "chernoff": _cmd_chernoff,
}


def run(cfg: ExperimentConfig, subcommand: str, overrides: Optional[dict] = None) -> int:
    """Check and build once, dispatch, write <out>/<subcommand>.{csv,json}, return exit code."""
    violations, args = _check(cfg, subcommand)
    if violations:
        for v in violations:
            print(f"config error: {v}", file=sys.stderr)
        return 2
    records, summary = _COMMANDS[subcommand](cfg, *args)
    summary["subcommand"] = subcommand
    summary["config"] = config_echo(cfg)
    summary["overrides"] = dict(overrides or {})
    os.makedirs(cfg.out, exist_ok=True)
    csv_path = os.path.join(cfg.out, f"{subcommand}.csv")
    json_path = os.path.join(cfg.out, f"{subcommand}.json")
    _write_csv(csv_path, records)
    _write_json(json_path, summary)
    verdicts = summary.get("verdicts", [])
    for v in verdicts:
        status = "PASS" if v["passed"] else "FAIL"
        print(f"verdict {v['name']}: {status} ({v['detail']})")
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")
    return 0 if all(v["passed"] for v in verdicts) else 1


# ---------------------------------------------------------------------------
# Argument parsing.  Every subcommand takes --config/--seed/--out plus the
# numeric overrides that make sense for it; overrides echo into the JSON.


def _parse_int_list(text: str) -> list:
    return [int(p) for p in str(text).split(",") if p != ""]


def _parse_float_list(text: str) -> list:
    return [float(p) for p in str(text).split(",") if p != ""]


_OVERRIDE_FLAGS = {
    # flag, config field, parser, help
    "c": ("bandwidth_c", float, "bandwidth scale c"),
    "a": ("bandwidth_a", float, "bandwidth exponent a"),
    "b": ("scaling_b", float, "scaling exponent b (power scaling)"),
    "delta": ("delta", float, "deviation threshold"),
    "replications": ("replications", int, "Monte Carlo replications"),
    "n": ("n_list", _parse_int_list, "comma separated sample sizes"),
    "u": ("u_values", _parse_float_list, "comma separated u values"),
    "t-grid": ("t_grid", str, "t grid as start:stop:step"),
    "point": ("point", _parse_float_list, "evaluation point coordinates"),
    "region": ("region", str, "region grid as start:stop:step"),
    "mode": ("mode", str, "ldp | mdp | uniform_bounded | uniform_unbounded"),
    "xi": ("xi", float, "moment exponent for unbounded regions"),
    "q": ("q", int, "bias order"),
    "m-q": ("m_q", float, "derivative sup bound M_q"),
}

_SUB_FLAGS = {
    "estimate": ("c", "a", "n", "point", "region"),
    "rate": ("a", "t-grid"),
    "cgf": ("c", "a", "b", "n", "u"),
    "simulate": ("c", "a", "b", "delta", "replications", "n", "point", "region", "mode", "xi"),
    "bias": ("c", "a", "n", "point", "region", "q", "m-q"),
    "chernoff": ("c", "a", "b", "delta", "replications", "n", "point"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recdev",
        description="recursive kernel density estimation and its deviation rates",
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for name, flags in _SUB_FLAGS.items():
        sub = subparsers.add_parser(name, help=f"{name} subcommand")
        sub.add_argument("--config", help="flat JSON config file")
        sub.add_argument("--seed", type=int, help="RNG seed override")
        sub.add_argument("--out", help="output directory (default from config)")
        for flag in flags:
            fieldname, caster, helptext = _OVERRIDE_FLAGS[flag]
            sub.add_argument(f"--{flag}", dest=f"ov_{fieldname}", type=caster,
                             default=None, help=helptext)
    return parser


def _merge_dash_values(argv: list) -> list:
    """Let values like -1:3:0.1 or -0.5 follow their flag unquoted."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok.startswith("--") and "=" not in tok and i + 1 < len(argv):
            nxt = argv[i + 1]
            if nxt.startswith("-") and len(nxt) > 1 and (nxt[1].isdigit() or nxt[1] == "."):
                out.append(f"{tok}={nxt}")
                i += 2
                continue
        out.append(tok)
        i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser().parse_args(_merge_dash_values(list(argv)))
    try:
        cfg = load_config(args.config) if args.config else ExperimentConfig()
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    overrides = {}
    for key, value in vars(args).items():
        if key.startswith("ov_") and value is not None:
            setattr(cfg, key[3:], value)
            overrides[key[3:]] = value
    if args.seed is not None:
        cfg.seed = args.seed
        overrides["seed"] = args.seed
    if args.out is not None:
        cfg.out = args.out
    try:
        return run(cfg, args.subcommand, overrides)
    except (QuadratureError, RootFindError, OverflowGuardError,
            UnderpoweredExperimentError, ValueError) as exc:
        module = type(exc).__module__.rsplit(".", 1)[-1]
        print(f"{args.subcommand}: {module}.{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 3


if __name__ == "__main__":
    sys.exit(main())
