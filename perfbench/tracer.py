"""Per-layer tracing of the coldplasma package from outside the package.

``Tracer.install()`` replaces the public functions of each module with
wrappers that record spans (name, start, end, parent) in memory, and counts
the work done through the callables they are handed (the rhs given to
``integrate``, the integrand given to ``integrate_singular``, the function
given to ``find_root``/``optimize_scalar``).  Modules bind names at import
(``from .numerics import integrate``), so each wrapper is installed in every
``coldplasma`` module namespace that holds the original.  ``BoundCurve.value``
is patched on the class and, being called millions of times per sweep, is
timed and counted without a span of its own; its time is still subtracted
from the self time of the span that called it.

``LAYER_METRICS`` is the single list of per-layer metric names, units and
the end-to-end metric each should move; BENCHMARK.json mirrors it.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

# (metric, unit, better, moves)
LAYER_METRICS = [
    ("numerics.integrate.calls", "count", "lower", "wall_s on affine-ensemble and breaking-sweep; ~4% of pulse-sweep"),
    ("numerics.integrate.time_s", "s", "lower", "wall_s on affine-ensemble and breaking-sweep; ~4% of pulse-sweep"),
    ("numerics.integrate.self_s", "s", "lower", "wall_s on affine-ensemble and breaking-sweep; ~4% of pulse-sweep"),
    ("numerics.integrate.rhs_evals", "count", "lower", "wall_s on affine-ensemble and breaking-sweep"),
    ("numerics.integrate.steps", "count", "lower", "wall_s on affine-ensemble and breaking-sweep"),
    ("numerics.integrate.us_per_step", "us", "lower", "wall_s on affine-ensemble and breaking-sweep"),
    ("numerics.integrate.guard_stops", "count", "lower", "wall_s on breaking-sweep (blow-up lanes)"),
    ("numerics.integrate_singular.calls", "count", "lower", "wall_s on pulse-sweep; zero elsewhere"),
    ("numerics.integrate_singular.time_s", "s", "lower", "wall_s on pulse-sweep; zero elsewhere"),
    ("numerics.integrate_singular.self_s", "s", "lower", "wall_s on pulse-sweep; zero elsewhere"),
    ("numerics.integrate_singular.integrand_evals", "count", "lower", "wall_s on pulse-sweep; zero elsewhere"),
    ("numerics.find_root.calls", "count", "lower", "wall_s on pulse-sweep (spiral roots, orbit F+) and cli-modes (thresholds)"),
    ("numerics.find_root.fevals", "count", "lower", "wall_s on pulse-sweep and cli-modes"),
    ("numerics.find_root.time_s", "s", "lower", "wall_s on pulse-sweep and cli-modes"),
    ("numerics.optimize_scalar.fevals", "count", "lower", "wall_s on pulse-sweep and cli-modes"),
    ("numerics.optimize_scalar.time_s", "s", "lower", "wall_s on pulse-sweep and cli-modes"),
    ("numerics.lambert_w.calls", "count", "lower", "wall_s on cli-modes"),
    ("chaplygin_bounds.BoundCurve.value.calls", "count", "lower", "wall_s on pulse-sweep"),
    ("chaplygin_bounds.BoundCurve.value.points", "count", "lower", "wall_s on pulse-sweep"),
    ("chaplygin_bounds.BoundCurve.value.time_s", "s", "lower", "wall_s on pulse-sweep"),
    ("chaplygin_bounds.sigma_curve.calls", "count", "lower", "wall_s on pulse-sweep"),
    ("spiral_counter.build_spiral.calls", "count", "lower", "wall_s on pulse-sweep"),
    ("spiral_counter.build_spiral.time_s", "s", "lower", "wall_s on pulse-sweep"),
    ("spiral_counter.build_spiral.segments", "count", "higher", "wall_s on pulse-sweep"),
    ("spiral_counter.segment_time.calls", "count", "lower", "wall_s on pulse-sweep"),
    ("spiral_counter.segment_time.time_s", "s", "lower", "wall_s on pulse-sweep"),
    ("spiral_counter.segment_time.self_s", "s", "lower", "wall_s on pulse-sweep"),
    ("spiral_counter.lifetime.time_s", "s", "lower", "wall_s on pulse-sweep"),
    ("spiral_counter.guaranteed_field_lifetime.time_s", "s", "lower", "wall_s on pulse-sweep"),
    ("spiral_counter.guaranteed_field_lifetime.value_calls", "count", "lower", "wall_s on pulse-sweep"),
    ("oracle.run_characteristic.calls", "count", "lower", "wall_s on breaking-sweep and affine-ensemble"),
    ("oracle.run_characteristic.time_s", "s", "lower", "wall_s on breaking-sweep and affine-ensemble"),
    ("oracle.run_characteristic.self_s", "s", "lower", "wall_s on breaking-sweep and affine-ensemble"),
    ("oracle.detect_blowup.calls", "count", "lower", "wall_s on breaking-sweep and affine-ensemble"),
    ("oracle.detect_blowup.time_s", "s", "lower", "wall_s on breaking-sweep and affine-ensemble"),
    ("oracle.detect_blowup.detected", "count", "higher", "wall_s on breaking-sweep"),
    ("oracle.blowup_sweep.time_s", "s", "lower", "wall_s on breaking-sweep; ~4% of pulse-sweep"),
    ("oracle.sandwich_check.calls", "count", "lower", "wall_s on cli-modes"),
    ("oracle.sandwich_check.time_s", "s", "lower", "wall_s on cli-modes"),
    ("core_dynamics.orbit_extremes.calls", "count", "lower", "wall_s on pulse-sweep"),
    ("core_dynamics.orbit_extremes.time_s", "s", "lower", "wall_s on pulse-sweep"),
    ("core_dynamics.profile_build.time_s", "s", "lower", "setup_s everywhere"),
    ("pulse_analysis.optimize_thresholds.time_s", "s", "lower", "wall_s on cli-modes"),
    ("pulse_analysis.fixed_point.calls", "count", "lower", "wall_s on cli-modes"),
    ("cli.main.time_s", "s", "lower", "wall_s on cli-modes; small on pulse-sweep"),
    ("cli.main.self_s", "s", "lower", "wall_s on cli-modes; small on pulse-sweep"),
    ("cli.bytes_written", "bytes", "lower", "wall_s on cli-modes; small on pulse-sweep"),
    ("import.coldplasma_s", "s", "lower", "setup_s everywhere; wall_s on cli-modes"),
    ("import.scipy_s", "s", "lower", "setup_s everywhere; wall_s on cli-modes"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced wall_s of one pass"),
    ("trace.counter_mismatches", "count", "lower", "none: work counters that differ between two traced passes"),
]

# Counters fixed by the inputs alone; two traced passes must agree on them.
WORK_COUNTERS = (
    "numerics.integrate.rhs_evals",
    "numerics.integrate.steps",
    "numerics.integrate_singular.integrand_evals",
    "chaplygin_bounds.BoundCurve.value.calls",
    "spiral_counter.build_spiral.segments",
)

# (span name, module, attribute): the wrapper replaces the attribute in the
# defining module and in every other coldplasma module that imported it.
_SPANS = [
    ("numerics.integrate", "numerics", "integrate"),
    ("numerics.integrate_singular", "numerics", "integrate_singular"),
    ("numerics.find_root", "numerics", "find_root"),
    ("numerics.optimize_scalar", "numerics", "optimize_scalar"),
    ("spiral_counter.build_spiral", "spiral_counter", "build_spiral"),
    ("spiral_counter.segment_time", "spiral_counter", "segment_time"),
    ("spiral_counter.lifetime", "spiral_counter", "lifetime"),
    ("spiral_counter.guaranteed_field_lifetime", "spiral_counter", "guaranteed_field_lifetime"),
    ("oracle.run_characteristic", "oracle", "run_characteristic"),
    ("oracle.detect_blowup", "oracle", "detect_blowup"),
    ("oracle.blowup_sweep", "oracle", "blowup_sweep"),
    ("oracle.sandwich_check", "oracle", "sandwich_check"),
    ("core_dynamics.orbit_extremes", "core_dynamics", "orbit_extremes"),
    ("core_dynamics.profile_build", "core_dynamics", "gaussian_profile"),
    ("core_dynamics.profile_build", "core_dynamics", "constant_profile"),
    ("pulse_analysis.optimize_thresholds", "pulse_analysis", "optimize_thresholds"),
    ("pulse_analysis.fixed_point", "pulse_analysis", "fixed_point"),
    ("cli.main", "cli", "main"),
]
# (counter, module, attribute): counted without a span
_COUNTED = [
    ("numerics.lambert_w.calls", "numerics", "lambert_w"),
    ("chaplygin_bounds.sigma_curve.calls", "chaplygin_bounds", "sigma_curve"),
]
_GFL = "spiral_counter.guaranteed_field_lifetime"
_VALUE = "chaplygin_bounds.BoundCurve.value"


def _counting(fn, counts, key):
    def counted(*args):
        counts[key] += 1
        return fn(*args)
    return counted


def _wrap_first(key):
    """Argument hook: count the calls made to the callable passed first."""
    def hook(counts, args):
        return (_counting(args[0], counts, key), *args[1:])
    return hook


def _count_steps(counts, traj):
    counts["numerics.integrate.steps"] += len(traj.t) - 1
    if traj.status == "terminal-event":
        counts["numerics.integrate.guard_stops"] += 1


def _count_segments(counts, spiral):
    counts["spiral_counter.build_spiral.segments"] += len(spiral.segments)


def _count_detected(counts, record):
    counts["oracle.detect_blowup.detected"] += int(record.detected)


# span name -> (argument hook, result hook)
_HOOKS = {
    "numerics.integrate": (_wrap_first("numerics.integrate.rhs_evals"), _count_steps),
    "numerics.integrate_singular": (_wrap_first("numerics.integrate_singular.integrand_evals"), None),
    "numerics.find_root": (_wrap_first("numerics.find_root.fevals"), None),
    "numerics.optimize_scalar": (_wrap_first("numerics.optimize_scalar.fevals"), None),
    "spiral_counter.build_spiral": (None, _count_segments),
    "oracle.detect_blowup": (None, _count_detected),
}


class Tracer:
    """Spans and counters of one traced pass; ``reset()`` starts another."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent index, leaf time inside]
        self.stack = []            # indices of the open spans
        self.counts = defaultdict(float)

    def reset(self):
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()

    def install(self):
        """Wrap every traced function of the imported coldplasma package."""
        for _, mod, _ in _SPANS + _COUNTED:
            importlib.import_module(f"coldplasma.{mod}")
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "coldplasma" or name.startswith("coldplasma."))]
        for name, mod, attr in _SPANS:
            orig = getattr(sys.modules[f"coldplasma.{mod}"], attr)
            _replace(modules, orig, self._span(name, orig))
        for key, mod, attr in _COUNTED:
            orig = getattr(sys.modules[f"coldplasma.{mod}"], attr)
            _replace(modules, orig, _counting(orig, self.counts, key))
        bound_curve = sys.modules["coldplasma.chaplygin_bounds"].BoundCurve
        bound_curve.value = self._timed_value(bound_curve.value)

    def _span(self, name, orig):
        spans, stack, counts = self.spans, self.stack, self.counts
        before, after = _HOOKS.get(name, (None, None))

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(counts, args)
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, 0.0])
            stack.append(idx)
            v0 = counts[_VALUE + ".calls"]
            t0 = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx][1:3] = t0, t1
            if name == _GFL:
                counts[_GFL + ".value_calls"] += counts[_VALUE + ".calls"] - v0
            if after is not None:
                after(counts, result)
            return result

        return wrapper

    def _timed_value(self, orig):
        spans, stack, counts = self.spans, self.stack, self.counts
        calls, points, busy = _VALUE + ".calls", _VALUE + ".points", _VALUE + ".time_s"

        @functools.wraps(orig)
        def value(curve, s):
            t0 = perf_counter()
            out = orig(curve, s)
            dt = perf_counter() - t0
            counts[calls] += 1
            counts[points] += getattr(out, "size", 1)
            counts[busy] += dt
            if stack:
                spans[stack[-1]][4] += dt
            return out

        return value

    def summary(self) -> dict:
        """Additive per-name totals: calls, time_s (outermost spans), self_s, counters."""
        out = defaultdict(float, self.counts)
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, t0, t1, parent, leaf) in enumerate(self.spans):
            out[name + ".calls"] += 1
            out[name + ".self_s"] += (t1 - t0) - child[i] - leaf
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:        # not nested in a span of the same name
                out[name + ".time_s"] += t1 - t0
        return dict(out)

    def span_records(self) -> list:
        """[name, start, end, parent index] of every span, in start order."""
        return [rec[:4] for rec in self.spans]


def _replace(modules, orig, wrapper):
    for m in modules:
        if getattr(m, orig.__name__, None) is orig:
            setattr(m, orig.__name__, wrapper)


def merge(summaries) -> dict:
    """Sum additive summaries (one per process or pass)."""
    out = defaultdict(float)
    for s in summaries:
        for k, v in s.items():
            out[k] += v
    return dict(out)


def layer_metrics(raw: dict) -> dict:
    """Per-layer metric values from a merged summary (missing names read 0)."""
    vals = {name: float(raw.get(name, 0.0)) for name, *_ in LAYER_METRICS}
    steps = raw.get("numerics.integrate.steps", 0.0)
    vals["numerics.integrate.us_per_step"] = (
        1e6 * raw.get("numerics.integrate.time_s", 0.0) / steps if steps else 0.0
    )
    return vals
