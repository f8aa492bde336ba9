"""In-memory span tracing of the subspace_est layers, and the arithmetic that
turns spans into per-layer metrics.

The tracer wraps functions from outside the program: every public function
defined in one of LAYER_MODULES is replaced, in every subspace_est namespace
that holds it, by one wrapper that records a span.  Because callers look the
function up in their own module namespace at call time, a call from
`estimators` into `orthonormalize` becomes a child span of the estimator's
span.  OrthonormalFrame construction is traced through its __post_init__,
which is where the orthonormality check runs.

A span is the tuple (id, name, start, end, parent, trial, note): ids are
unique per tracer, parent is -1 for a root, trial is the harness trial index
(-1 outside a trial) and note is a small value taken from the call's
arguments or result where a metric needs one.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import sys
import threading
import time

LAYER_MODULES = ("cli", "harness", "models", "estimators", "geometry",
                 "constraints", "entropy")

FRAME_CHECK = "geometry.OrthonormalFrame"

# the only spans recorded while tracing is off: one per command, timing the
# stage that the end-to-end throughput divides by
STAGES = ("harness.monte_carlo_risk", "entropy.dudley_estimate")


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _frame_rows(u) -> int:
    values = getattr(u, "values", u)
    return int(values.shape[0])


# the span that opens a trial; its trial_index argument tags every span
# recorded inside it
TRIAL = "harness.run_trial"

# name -> note(args, kwargs, result), kept on the span for metrics that need
# more than timing
NOTES = {
    "geometry.subspace_distance": lambda a, k, res: _frame_rows(_arg(a, k, 0, "u1")),
    "estimators.iterative_projection_estimate": lambda a, k, res: (
        res.iterations, res.converged,
        getattr(_arg(a, k, 2, "config"), "init", "spectral") == "random"),
    TRIAL: lambda a, k, res: res,
    "harness.monte_carlo_risk": lambda a, k, res: (
        _arg(a, k, 4, "threads", 1), _arg(a, k, 3, "trials")),
    "entropy.dudley_estimate": lambda a, k, res: (
        tuple(res.log_covering), res.budget, _arg(a, k, 0, "cset").kind),
}

# constraint kinds whose entropy estimates are also reported one by one
ENTROPY_KINDS = ("sparse", "nonneg")


class Tracer:
    """Records spans from wrapped subspace_est functions, across threads."""

    def __init__(self, clock=time.perf_counter):
        self.spans = []
        self._clock = clock
        self._ids = itertools.count()
        self._local = threading.local()
        self._root_stack = []
        self._patches = []

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.trial = -1
        return local

    def wrap(self, name: str, fn):
        """Return fn wrapped so that each call records one span."""
        note = NOTES.get(name)
        opens_trial = name == TRIAL
        clock = self._clock
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = self._state()
            stack = state.stack
            # a pool worker thread starts with an empty stack: its spans hang
            # under the innermost span open in the thread that installed us
            if stack:
                parent = stack[-1]
            else:
                parent = self._root_stack[-1] if self._root_stack else -1
            sid = next(self._ids)
            outer_trial = state.trial
            if opens_trial:
                state.trial = int(_arg(args, kwargs, 3, "trial_index", -1))
            trial = state.trial
            stack.append(sid)
            returned = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = clock()
                stack.pop()
                state.trial = outer_trial
                noted = None
                if returned and note is not None:
                    noted = note(args, kwargs, result)
                spans.append((sid, name, start, end, parent, trial, noted))

        return traced

    def install(self, package, names=None) -> None:
        """Wrap the public layer functions of package (all of them, or only
        those in names) in every one of its module namespaces."""
        self._state().stack = self._root_stack
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == package.__name__
                                         or key.startswith(package.__name__ + "."))]
        layer = {f"{package.__name__}.{short}" for short in LAYER_MODULES}
        wrappers = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj) or obj.__module__ not in layer:
                    continue
                if obj.__name__.startswith("_"):
                    continue
                name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                if names is not None and name not in names:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self.wrap(name, obj)
                self._patches.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])
        if names is None or FRAME_CHECK in names:
            frame_cls = package.geometry.OrthonormalFrame
            original = frame_cls.__dict__["__post_init__"]
            self._patches.append((frame_cls, "__post_init__", original))
            frame_cls.__post_init__ = self.wrap(FRAME_CHECK, original)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# --------------------------------------------------------------------------
# span arithmetic


def self_times(spans) -> dict:
    """Span id -> duration minus the part of its interval covered by the
    union of its direct children (children may overlap when they run on
    parallel threads)."""
    children = {}
    for span in spans:
        children.setdefault(span[4], []).append(span)
    out = {}
    for sid, _, start, end, *_ in spans:
        covered = 0.0
        cursor = start
        for _, _, c_start, c_end, *_ in sorted(children.get(sid, ()),
                                              key=lambda s: s[2]):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[sid] = (end - start) - covered
    return out


def percentile(values, q: float):
    """Nearest-rank q-th percentile of values, returned with the sample
    count as (value, count); (0.0, 0) for no samples."""
    ordered = sorted(values)
    if not ordered:
        return 0.0, 0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1]), len(ordered)


def count_restarts(spans) -> int:
    """random_member calls made directly inside an iterative estimator span,
    minus the one that draws a random initial frame."""
    iterative = {s[0]: s for s in spans
                 if s[1] == "estimators.iterative_projection_estimate"}
    nested = sum(1 for s in spans
                 if s[1] == "constraints.random_member" and s[4] in iterative)
    random_inits = sum(1 for s in iterative.values()
                       if s[6] is not None and s[6][2])
    return nested - random_inits


def capped_levels(log_cover, budget: int) -> int:
    """Epsilon levels whose greedy net used every one of the budget draws."""
    return sum(1 for v in log_cover if round(math.exp(v)) >= budget)


def net_centers(log_cover) -> int:
    """Net size at the finest scale (the largest count of the curve)."""
    return max(round(math.exp(v)) for v in log_cover) if log_cover else 0


# --------------------------------------------------------------------------
# per-layer metrics

PER_LAYER_UNITS = {
    "cli.self_ms": "ms",
    "constraints.parse_ms": "ms",
    "geometry.distance_ms": "ms",
    "geometry.distance_calls": "count",
    "geometry.distance_mb_computed": "MB",
    "geometry.orthonormalize_ms": "ms",
    "geometry.orthonormalize_calls": "count",
    "geometry.frame_checks": "count",
    "geometry.frame_check_ms": "ms",
    "constraints.project_ms": "ms",
    "constraints.project_calls": "count",
    "constraints.random_member_ms": "ms",
    "constraints.random_member_calls": "count",
    "models.sample_ms": "ms",
    "estimators.objective_ms": "ms",
    "estimators.init_ms": "ms",
    "estimators.loop_self_ms": "ms",
    "estimators.iterations_p50": "count",
    "estimators.iterations_p90": "count",
    "estimators.iterations_samples": "count",
    "estimators.converged_frac": "fraction",
    "estimators.restarts": "count",
    "harness.trial_ms_p50": "ms",
    "harness.trial_ms_p90": "ms",
    "harness.trial_samples": "count",
    "harness.workers": "count",
    "harness.busy_share": "fraction",
    "entropy.net_self_s": "s",
    "entropy.draw_s": "s",
    **{f"entropy.{name}.{kind}": "s" for kind in ENTROPY_KINDS
       for name in ("net_self_s", "draw_s")},
    "entropy.net_centers": "count",
    "entropy.capped_levels": "count",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "fraction",
    "trace.spans": "count",
}


def layer_metrics(spans, units: int, commands: int) -> dict:
    """Per-layer metrics from the spans of traced passes.

    units is the work those passes did (trials on a risk workload, budget
    draws on an entropy workload): times and call counts of the shared
    layers are per unit.  cli.self_ms and constraints.parse_ms are per
    command, the entropy.* values per estimate (the mean over all kinds, and
    per kind for ENTROPY_KINDS); percentiles and fractions are over the
    traced trials.
    """
    by_name = {}
    for span in spans:
        by_name.setdefault(span[1], []).append(span)
    selfs = self_times(spans)
    per_unit = 1.0 / units if units else 0.0

    def total_s(name):
        return sum(s[3] - s[2] for s in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(name):
        return sum(selfs[s[0]] for s in by_name.get(name, ()))

    m = {}
    per_command = 1.0 / commands if commands else 0.0
    # main together with the cli helpers it calls (build_parser): the time
    # the cli module spends outside every other layer
    cli_self = sum(selfs[s[0]] for s in spans if s[1].startswith("cli."))
    m["cli.self_ms"] = 1e3 * cli_self * per_command
    m["constraints.parse_ms"] = 1e3 * total_s("constraints.parse_constraint") * per_command
    m["geometry.distance_ms"] = 1e3 * total_s("geometry.subspace_distance") * per_unit
    m["geometry.distance_calls"] = calls("geometry.subspace_distance") * per_unit
    m["geometry.distance_mb_computed"] = sum(
        3 * s[6] * s[6] * 8 for s in by_name.get("geometry.subspace_distance", ())
        if s[6] is not None) / 1e6 * per_unit
    m["geometry.orthonormalize_ms"] = 1e3 * total_s("geometry.orthonormalize") * per_unit
    m["geometry.orthonormalize_calls"] = calls("geometry.orthonormalize") * per_unit
    m["geometry.frame_checks"] = calls(FRAME_CHECK) * per_unit
    m["geometry.frame_check_ms"] = 1e3 * total_s(FRAME_CHECK) * per_unit
    m["constraints.project_ms"] = 1e3 * total_s("constraints.project") * per_unit
    m["constraints.project_calls"] = calls("constraints.project") * per_unit
    m["constraints.random_member_ms"] = 1e3 * total_s("constraints.random_member") * per_unit
    m["constraints.random_member_calls"] = calls("constraints.random_member") * per_unit
    m["models.sample_ms"] = 1e3 * total_s("models.sample_instance") * per_unit
    m["estimators.objective_ms"] = 1e3 * total_s("estimators.objective_matrix") * per_unit
    m["estimators.init_ms"] = 1e3 * total_s("estimators.spectral_estimate") * per_unit
    m["estimators.loop_self_ms"] = (
        1e3 * self_s("estimators.iterative_projection_estimate") * per_unit)

    loops = [s[6] for s in by_name.get("estimators.iterative_projection_estimate", ())
             if s[6] is not None]
    m["estimators.iterations_p50"], n_iter = percentile([x[0] for x in loops], 50)
    m["estimators.iterations_p90"], _ = percentile([x[0] for x in loops], 90)
    m["estimators.iterations_samples"] = n_iter
    m["estimators.converged_frac"] = (
        sum(1 for x in loops if x[1]) / len(loops) if loops else 0.0)
    m["estimators.restarts"] = count_restarts(spans) * per_unit

    trials = by_name.get("harness.run_trial", ())
    trial_ms = [1e3 * (s[3] - s[2]) for s in trials]
    m["harness.trial_ms_p50"], n_trials = percentile(trial_ms, 50)
    m["harness.trial_ms_p90"], _ = percentile(trial_ms, 90)
    m["harness.trial_samples"] = n_trials
    risks = by_name.get("harness.monte_carlo_risk", ())
    workers = max((s[6][0] for s in risks if s[6] is not None), default=0)
    m["harness.workers"] = workers
    capacity = sum((s[3] - s[2]) * s[6][0] for s in risks if s[6] is not None)
    m["harness.busy_share"] = total_s("harness.run_trial") / capacity if capacity else 0.0

    nets = by_name.get("entropy.dudley_estimate", ())
    draw_s = {}
    for s in by_name.get("constraints.random_member", ()):
        draw_s[s[4]] = draw_s.get(s[4], 0.0) + s[3] - s[2]

    def per_net(chosen):
        """Mean self time and mean draw time of the estimate spans chosen."""
        if not chosen:
            return 0.0, 0.0
        return (sum(selfs[n[0]] for n in chosen) / len(chosen),
                sum(draw_s.get(n[0], 0.0) for n in chosen) / len(chosen))

    m["entropy.net_self_s"], m["entropy.draw_s"] = per_net(nets)
    for kind in ENTROPY_KINDS:
        m[f"entropy.net_self_s.{kind}"], m[f"entropy.draw_s.{kind}"] = per_net(
            [n for n in nets if n[6] is not None and n[6][2] == kind])
    notes = [s[6] for s in nets if s[6] is not None]
    m["entropy.net_centers"] = (
        sum(net_centers(x[0]) for x in notes) / len(notes) if notes else 0.0)
    m["entropy.capped_levels"] = (
        sum(capped_levels(x[0], x[1]) for x in notes) / len(notes) if notes else 0.0)
    return m
