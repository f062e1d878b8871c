"""Span recorder that wraps recdev's public entry points from the outside.

Nothing inside ``src/`` is instrumented: `tracing` replaces each traced
function or method with a wrapper for the duration of a ``with`` block and
puts the originals back afterwards.  A module-level function is patched in
every ``recdev`` module that binds it, because callers look it up by name in
their own module (``recdev.deviations.expected_estimate`` and
``recdev.cgf.expected_estimate`` are two names for one function).

Spans are kept in memory as ``[name, start, end, parent, work]`` lists and
reduced to per-layer metrics by `layer_metrics`.  A layer's self time is its
span time minus the time of its direct child spans; a metric over a set of
span names counts only spans with no ancestor in the same set, so a layer
calling itself (``deriv_eval`` -> ``eval``) is counted once.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import threading
import time


def _result_size(args, kwargs, out) -> int:
    return int(getattr(out, "size", 1))


def _result_len(args, kwargs, out) -> int:
    return len(out)


def _bound(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        return sig.bind(*args, **kwargs).arguments

    return bind


def _targets():
    """(layer, owner, attribute, work) for every traced entry point.

    `owner` is a class (method patched once, on the class that defines it)
    or None for a module-level function of ``recdev.<layer>``.  `work`
    maps (args, kwargs, result) to the layer's unit of work, or is None.
    """
    from recdev import densities, deviations, estimator, kernels
    from recdev.bandwidth import BandwidthSchedule
    from recdev.ratefn import PsiEvaluator

    mean_args = _bound(estimator.expected_estimate)
    batch_args = _bound(estimator.batch_values)

    def mean_terms(a, k, out):
        return int(mean_args(a, k)["n"]) * _result_size(a, k, out)

    def batch_obs(a, k, out):
        return len(batch_args(a, k)["X"])

    def mc_steps(fn):
        bind = _bound(fn)
        on_region = fn is deviations.run_uniform

        def steps(a, k, out):
            args = bind(a, k)
            if args.get("base") is not None:
                return 0  # chernoff_upper_curve reusing a finished simulation
            exp = args["exp"]
            grid = len(exp.region) if on_region else 1
            return exp.replications * exp.n_list[-1] * grid

        return steps

    out = [
        ("kernels", kernels.KernelModel, "eval", _result_size),
        ("kernels", kernels.KernelModel, "deriv_eval", _result_size),
        ("densities", densities.Density, "pdf", _result_size),
        ("densities", densities.Density, "partial", _result_size),
        ("bandwidth", BandwidthSchedule, "prefix_sums", None),
        ("numerics", None, "compensated_cumsum", _result_len),
        ("estimator", None, "expected_estimate", mean_terms),
        ("estimator", None, "batch_values", batch_obs),
        ("estimator", estimator.RecursiveEstimator, "update", None),
        ("estimator", estimator.RecursiveEstimator, "values", None),
        ("ratefn", PsiEvaluator, "psi", None),
        ("ratefn", PsiEvaluator, "psi_prime", None),
        ("ratefn", PsiEvaluator, "psi_second", None),
        ("ratefn", PsiEvaluator, "legendre", None),
        ("cgf", None, "cgf_finite_n", None),
        ("cgf", None, "cgf_limit", None),
        ("deviations", None, "run_pointwise", mc_steps(deviations.run_pointwise)),
        ("deviations", None, "run_uniform", mc_steps(deviations.run_uniform)),
        ("deviations", None, "run_bias_study", None),
        ("deviations", None, "chernoff_upper_curve", mc_steps(deviations.chernoff_upper_curve)),
        ("cli", None, "run", None),
    ]
    pending = [densities.Density]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "sample" in vars(cls):
            out.append(("densities", cls, "sample", _result_len))
    return out


class Recorder:
    """In-memory spans; one parent stack per thread."""

    def __init__(self):
        self.spans: list = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, work):
        spans = self.spans
        stack_of = self._stack

        def traced(*args, **kwargs):
            stack = stack_of()
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if work is not None:
                span[4] = work(args, kwargs, out)
            return out

        return traced


@contextlib.contextmanager
def tracing(recorder: Recorder):
    """Patch every traced entry point for the duration of the block."""
    undo = []
    modules = [m for n, m in list(sys.modules.items()) if n == "recdev" or n.startswith("recdev.")]
    try:
        for layer, owner, attr, work in _targets():
            if owner is not None:
                orig = vars(owner)[attr]
                name = f"{layer}.{owner.__name__}.{attr}"
                undo.append((owner, attr, orig))
                setattr(owner, attr, recorder.wrap(name, orig, work))
                continue
            orig = getattr(sys.modules[f"recdev.{layer}"], attr)
            wrapper = recorder.wrap(f"{layer}.{attr}", orig, work)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        yield recorder
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)


def _outermost(spans: list, names: set):
    """Spans named in `names` with no ancestor named in `names`."""
    for span in spans:
        parent = span[3]
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0 and span[0] in names:
            yield span


def _total(spans, names):
    picked = list(_outermost(spans, set(names)))
    return (
        sum(s[2] - s[1] for s in picked),
        len(picked),
        sum(s[4] for s in picked),
    )


def _self_time(spans: list, layer: str) -> float:
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
    prefix = layer + "."
    return sum(
        (s[2] - s[1]) - child_time[i] for i, s in enumerate(spans) if s[0].startswith(prefix)
    )


def _ratio(num, den, scale=1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(spans: list) -> dict:
    """Per-layer numbers for one traced round (see perfbench/README.md)."""
    names = {s[0] for s in spans}

    def named(prefix, *attrs):
        return {n for n in names if n.startswith(prefix) and n.rsplit(".", 1)[-1] in attrs}

    kern_s, kern_calls, kern_points = _total(spans, named("kernels.", "eval", "deriv_eval"))
    samp_s, samp_calls, samples = _total(spans, named("densities.", "sample"))
    deval_s, _, dpoints = _total(spans, named("densities.", "pdf", "partial"))
    pref_s, pref_calls, _ = _total(spans, named("bandwidth.", "prefix_sums"))
    cum_s, _, cum_terms = _total(spans, {"numerics.compensated_cumsum"})
    mean_s, mean_calls, mean_terms = _total(spans, {"estimator.expected_estimate"})
    upd_s, upd_calls, _ = _total(spans, named("estimator.", "update"))
    val_s, _, _ = _total(spans, named("estimator.", "values"))
    batch_s, _, _ = _total(spans, {"estimator.batch_values"})
    psi_names = named("ratefn.", "psi", "psi_prime", "psi_second")
    psi_s, psi_calls, _ = _total(spans, psi_names)
    leg_names = named("ratefn.", "legendre")
    leg_s, leg_calls, _ = _total(spans, leg_names)
    psi_in_legendre = 0
    for s in _outermost(spans, psi_names):
        parent = s[3]
        while parent >= 0 and spans[parent][0] not in leg_names:
            parent = spans[parent][3]
        psi_in_legendre += parent >= 0
    fin_s, fin_calls, _ = _total(spans, {"cgf.cgf_finite_n"})
    lim_s, _, _ = _total(spans, {"cgf.cgf_limit"})
    _, _, steps = _total(spans, {n for n in names if n.startswith("deviations.")})
    dev_self = _self_time(spans, "deviations")
    return {
        "kernels.eval_s": kern_s,
        "kernels.calls": kern_calls,
        "kernels.points": kern_points,
        "kernels.ns_per_point": _ratio(kern_s, kern_points, 1e9),
        "densities.sample_s": samp_s,
        "densities.sample_calls": samp_calls,
        "densities.samples": samples,
        "densities.eval_s": deval_s,
        "densities.points": dpoints,
        "bandwidth.prefix_s": pref_s,
        "bandwidth.prefix_calls": pref_calls,
        "numerics.cumsum_s": cum_s,
        "numerics.cumsum_terms": cum_terms,
        "estimator.mean_s": mean_s,
        "estimator.mean_calls": mean_calls,
        "estimator.mean_terms": mean_terms,
        "estimator.update_s": upd_s,
        "estimator.update_us_per_obs": _ratio(upd_s, upd_calls, 1e6),
        "estimator.values_s": val_s,
        "estimator.batch_s": batch_s,
        "ratefn.psi_s": psi_s,
        "ratefn.psi_calls": psi_calls,
        "ratefn.psi_ms_per_call": _ratio(psi_s, psi_calls, 1e3),
        "ratefn.legendre_calls": leg_calls,
        "ratefn.legendre_ms_per_value": _ratio(leg_s, leg_calls, 1e3),
        "ratefn.psi_calls_per_legendre": _ratio(psi_in_legendre, leg_calls),
        "cgf.finite_n_s": fin_s,
        "cgf.finite_n_calls": fin_calls,
        "cgf.limit_s": lim_s,
        "deviations.self_s": dev_self,
        "deviations.steps": steps,
        "deviations.ns_per_step": _ratio(dev_self, steps, 1e9),
        "cli.self_s": _self_time(spans, "cli"),
    }
