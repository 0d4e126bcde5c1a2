"""Spans and counts at the satpmsm layer boundaries, recorded from outside.

`Tracer.install()` wraps every public function of the layer modules (and the
Trace CSV methods) and rebinds the wrapper wherever a satpmsm module holds
the original, e.g. `simulate_batch` in simulator, estimator and validation.
`uninstall()` puts every original back. Spans stay in memory until the run
ends; counts derived from call arguments and results are kept at the same
boundaries by the hooks in HOOKS.
"""

from __future__ import annotations

import csv
import inspect
import os
import sys
import time
from collections import defaultdict
from typing import NamedTuple

# module -> layer; the config loader belongs to the cli layer, and leastsq is
# an internal helper whose time counts toward its caller
LAYERS = {
    "cli": "cli", "config": "cli", "textio": "textio", "estimator": "estimator",
    "simulator": "simulator", "injection": "injection", "ripple": "ripple",
    "magnetics": "magnetics", "validation": "validation",
}
TRACE_METHODS = ("to_csv", "from_csv")


class Span(NamedTuple):
    name: str
    layer: str
    start: float
    end: float
    parent: int  # index into the span list, -1 at the top
    op: int
    error: str


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _hook_simulate_batch(counts, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    steps = round(a["cfg"].t_end / a["cfg"].dt)
    counts["simulator.rk4_steps"] += steps
    counts["simulator.lane_steps"] += steps * len(a["specs"])
    counts["simulator.samples_out"] += sum(len(tr.t) for tr in result)


def _hook_to_csv(counts, fn, args, kwargs, result):
    counts["simulator.csv_write_mb"] += os.path.getsize(_bound(fn, args, kwargs)["path"]) / 1e6


def _hook_from_csv(counts, fn, args, kwargs, result):
    counts["simulator.csv_read_mb"] += os.path.getsize(_bound(fn, args, kwargs)["path"]) / 1e6


def _hook_extract_ripple(counts, fn, args, kwargs, result):
    counts["ripple.samples_fit"] += result.n_samples


def _hook_plan_runs(counts, fn, args, kwargs, result):
    counts["estimator.plan_runs"] += len(result)


HOOKS = {
    "simulator.simulate_batch": _hook_simulate_batch,
    "simulator.Trace.to_csv": _hook_to_csv,
    "simulator.Trace.from_csv": _hook_from_csv,
    "ripple.extract_ripple": _hook_extract_ripple,
    "estimator.plan_runs": _hook_plan_runs,
}


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, layer: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = HOOKS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            error = ""
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = Span(name, layer, start, end, parent, self.op, error)
            if hook is not None:
                try:
                    hook(self.counts, fn, args, kwargs, result)
                except Exception:  # a changed signature must not stop the run
                    self.counts["trace.hook_errors"] += 1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap the layer functions; every satpmsm module must be imported."""
        package = {n: m for n, m in sys.modules.items() if n == "satpmsm" or n.startswith("satpmsm.")}
        wrappers = {}  # id(original) -> wrapper
        for modname, layer in LAYERS.items():
            module = package[f"satpmsm.{modname}"]
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    wrappers[id(obj)] = self._wrap(obj, f"{modname}.{attr}", layer)
        for module in package.values():
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._patch(module, attr, wrappers[id(obj)])
        trace_cls = package["satpmsm.simulator"].Trace
        for attr in TRACE_METHODS:
            raw = trace_cls.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapped = self._wrap(fn, f"simulator.Trace.{attr}", "simulator")
            self._patch(trace_cls, attr, staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def finished(self) -> list[Span]:
        if self._stack:
            raise RuntimeError("spans still open")
        return list(self.spans)

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(Span._fields)
            out.writerows(self.finished())


def union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it covered by its children."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for idx, s in enumerate(spans):
        covered = union_length(
            (max(c.start, s.start), min(c.end, s.end)) for c in children[idx] if c.end > s.start and c.start < s.end)
        out.append(s.end - s.start - covered)
    return out


def busy_time(spans, keep) -> float:
    """Wall time during which a span accepted by `keep` is open: nested
    matches count once."""
    return union_length((s.start, s.end) for s in spans if keep(s))


def layer_metrics(spans, counts, wall: float, overhead: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) of one traced loop lasting `wall` s."""
    def calls(name):
        return sum(s.name == name for s in spans)

    def busy(name="", layer=""):
        return busy_time(spans, lambda s: s.name == name or s.layer == layer)

    selfs = self_times(spans)
    rk4_s = busy("simulator.simulate_batch")
    steps, lane_steps = counts["simulator.rk4_steps"], counts["simulator.lane_steps"]
    samples_out = counts["simulator.samples_out"]
    csv_write_s, csv_read_s = busy("simulator.Trace.to_csv"), busy("simulator.Trace.from_csv")
    step_s = busy("validation.step_response")
    return {
        "simulator.calls": (calls("simulator.simulate_batch"), "count"),
        "simulator.busy_s": (busy(layer="simulator"), "s"),
        "simulator.rk4_s": (rk4_s, "s"),
        "simulator.rk4_frac": (rk4_s / wall, "ratio"),
        "simulator.rk4_steps": (steps, "count"),
        "simulator.lane_steps": (lane_steps, "count"),
        "simulator.us_per_step": (1e6 * rk4_s / steps if steps else 0.0, "us"),
        "simulator.ns_per_lane_step": (1e9 * rk4_s / lane_steps if lane_steps else 0.0, "ns"),
        "simulator.samples_out": (samples_out, "count"),
        "simulator.useful_sample_frac": (counts["ripple.samples_fit"] / samples_out if samples_out else 0.0,
                                         "ratio"),
        "simulator.csv_write_s": (csv_write_s, "s"),
        "simulator.csv_write_mb": (counts["simulator.csv_write_mb"], "MB"),
        "simulator.csv_read_s": (csv_read_s, "s"),
        "simulator.csv_read_mb": (counts["simulator.csv_read_mb"], "MB"),
        "simulator.csv_frac": ((csv_write_s + csv_read_s) / wall, "ratio"),
        "injection.busy_s": (busy(layer="injection"), "s"),
        "ripple.calls": (calls("ripple.extract_ripple"), "count"),
        "ripple.busy_s": (busy(layer="ripple"), "s"),
        "ripple.samples_fit": (counts["ripple.samples_fit"], "count"),
        "estimator.plan_runs": (counts["estimator.plan_runs"], "count"),
        "estimator.measure_s": (busy("estimator.measure_traces"), "s"),
        "estimator.regress_s": (busy("estimator.estimate_from_records"), "s"),
        "magnetics.newton_calls": (calls("magnetics.flux_from_currents_exact"), "count"),
        "magnetics.newton_s": (busy("magnetics.flux_from_currents_exact"), "s"),
        "magnetics.newton_failures": (
            sum(s.name == "magnetics.flux_from_currents_exact" and s.error != "" for s in spans), "count"),
        "validation.angle_sweep_s": (busy("validation.angle_sweep"), "s"),
        "validation.step_response_s": (step_s, "s"),
        "validation.step_response_frac": (step_s / wall, "ratio"),
        "validation.flux_integration_s": (busy("validation.flux_by_integration"), "s"),
        "validation.curves_s": (busy("validation.magnetization_curves"), "s"),
        "textio.busy_s": (busy(layer="textio"), "s"),
        "cli.self_s": (sum(t for s, t in zip(spans, selfs) if s.layer == "cli"), "s"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_frac": (overhead, "ratio"),
        "trace.spans": (len(spans), "count"),
        "trace.hook_errors": (counts["trace.hook_errors"], "count"),
    }
