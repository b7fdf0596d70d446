"""Spans recorded around calls that cross stopbounds module boundaries.

Nothing inside the package is edited: the recorder replaces module
attributes (the names one module imported from another) and two class
methods with timing wrappers.  The *boundary* set (bound reports, the
simulate entry points, certification, report writing) stays on in every
run and is what the end-to-end latencies are computed from.  The *inner*
set (draws, rekeys, schedule enumeration, exit tests, geometry, optimize,
overshoot and schedule audits) is installed only for traced passes.

A span is (id, parent id, name, start, end, info).  Spans opened on a
worker thread with nothing open on that thread get the main thread's open
span as parent, so a simulate call's thread-pool children hang off it.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import threading
import time
from collections import defaultdict

import numpy as np


class Span:
    __slots__ = ("sid", "parent", "name", "start", "end", "info")

    def __init__(self, sid, parent, name, start, end, info):
        self.sid, self.parent, self.name = sid, parent, name
        self.start, self.end, self.info = start, end, info

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self.tracing = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._inner: list = []  # (owner, attr, original) of the traced-pass wrappers

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args=(), kwargs=None, annotate=None):
        """Run fn(*args, **kwargs) inside a span; annotate(result) -> info dict."""
        stack = self._stack()
        if stack:
            parent = stack[-1][0]
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1][0]
        else:
            parent = None
        sid = next(self._ids)
        stack.append((sid, name))
        info = None
        start = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
            if annotate is not None:
                info = annotate(result)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, parent, name, start, end, info))

    def inside(self, prefix: str) -> bool:
        stacks = (self._stack(), self._main_stack)
        return any(name.startswith(prefix) for stack in stacks for _, name in stack)

    def wrap(self, fn, name, annotate=None):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs,
                             None if annotate is None else lambda r: annotate(args, r))
        return wrapper

    # -- module patching --------------------------------------------------

    def _patch(self, owner, attr, fn):
        self._inner.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, fn)

    def install_boundary(self, sb):
        """Wrap, for the life of the process, the entry points the workloads and CLI call."""
        report = self.wrap(sb.harness.bound_report, "bounds.report", lambda a, r: {"tag": a[0]})
        brown = self.wrap(sb.harness.brownian_report, "bounds.report", lambda a, r: {"tag": a[0]})
        certify = self.wrap(sb.harness.certify, "harness.certify")
        discrete = self._simulate(sb.simulate.run_discrete, "simulate.run_discrete", grids=1)
        brownian = self._simulate(sb.simulate.run_brownian, "simulate.run_brownian", grids=2)
        for owner in (sb.harness, sb.cli):
            owner.bound_report, owner.brownian_report, owner.certify = report, brown, certify
        for owner in (sb.simulate, sb.cli):
            owner.run_discrete, owner.run_brownian = discrete, brownian
        sb.cli.write_report = self.wrap(sb.cli.write_report, "cli.write")

    def start_tracing(self, sb):
        """Install the inner wrappers; simulate calls then also time exit tests."""
        self.tracing = True

        def drawn(args, result):  # sample_block(spec, rng, n)
            return {"n": int(args[2]) * args[0].dim}

        self._patch(sb.simulate, "sample_block",
                    self.wrap(sb.simulate.sample_block, "moments.sample_block", drawn))
        self._patch(sb.moments.StreamPool, "stream", self._stream(sb.moments.StreamPool.stream))
        self._patch(sb.schedules.SampleSchedule, "iter_elements",
                    self._iter_elements(sb.schedules.SampleSchedule.iter_elements))
        names = {  # names that bounds imported from geometry, optimize and schedules
            "supporting_hyperplane": "geometry.hyperplane",
            "ray_exit_time": "geometry.ray",
            "mean_ray_crossing": "geometry.ray",
            "ray_entry_and_exit": "geometry.ray",
            "slice_distance": "geometry.slice",
            "hyperplane_slice_distance": "geometry.slice",
            "slice_side": "geometry.slice",
            "log_exit_gradient": "geometry.gradient",
            "max_time_in_region": "optimize.slab",
            "max_concave_over_box": "optimize.box",
            "vertex_fraction_max": "optimize.vertex",
            "audit_assumptions": "schedules.audit",
            "gap_supremum": "schedules.audit",
        }
        for attr, name in names.items():
            self._patch(sb.bounds, attr, self.wrap(getattr(sb.bounds, attr), name))
        for attr in ("supporting_hyperplane", "ray_exit_time"):
            self._patch(sb.harness, attr, self.wrap(getattr(sb.harness, attr), names[attr]))
        self._patch(sb.overshoot, "sum_law", self.wrap(sb.overshoot.sum_law, "overshoot.sum_law"))
        self._patch(sb.overshoot, "threshold_functionals",
                    self.wrap(sb.overshoot.threshold_functionals, "overshoot.threshold"))

    def stop_tracing(self):
        self.tracing = False
        while self._inner:
            owner, attr, orig = self._inner.pop()
            setattr(owner, attr, orig)

    # -- wrappers with extra behaviour ------------------------------------

    def _simulate(self, fn, name, grids):
        def run(region, *args, **kwargs):
            if self.tracing and region.slack_batch is not None:
                region = dataclasses.replace(region, slack_batch=self.wrap(
                    region.slack_batch, "geometry.exit_test", lambda a, r: {"n": len(a[0])}))
            cpu0 = time.process_time()

            def annotate(est):
                info = {"runs": grids * est.n_runs, "cpu": time.process_time() - cpu0}
                if grids == 1:
                    info["used"] = est.mean * est.n_runs
                else:
                    dt = est.diagnostics["dt"]
                    coarse_mean, coarse_se = est.extras["coarse"]
                    info["used"] = est.n_runs * (est.mean / est.diagnostics["dt_fine"]
                                                 + coarse_mean / dt)
                    info["diag"] = (est.diagnostics["discretization_diagnostic"],
                                    math.hypot(est.stderr, coarse_se))
                return info

            return self.call(name, fn, (region,) + args, kwargs, annotate)
        return run

    def _stream(self, orig):
        def stream(pool, index):
            return _TracedGenerator(self, self.call("moments.rekey", orig, (pool, index)))
        return stream

    def _iter_elements(self, orig):
        def iter_elements(schedule, limit):
            if not self.inside("simulate."):
                return orig(schedule, limit)
            # the simulator materializes the whole list at once, so doing it
            # here inside one span does not change what it computes
            points = self.call("schedules.iter_elements", lambda: list(orig(schedule, limit)),
                              annotate=lambda r: {"n": len(r)})
            return iter(points)
        return iter_elements


class _TracedGenerator:
    """Generator proxy that times standard_normal (the Euler engine's draws)."""

    def __init__(self, rec, gen):
        self._rec, self._gen = rec, gen

    def standard_normal(self, *args, **kwargs):
        return self._rec.call("moments.standard_normal", self._gen.standard_normal, args, kwargs,
                              lambda r: {"n": int(np.size(r))})

    def __getattr__(self, name):
        return getattr(self._gen, name)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def self_times(spans) -> dict:
    """Span id -> its duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, hi = 0.0, s.start
        for a, b in sorted(children.get(s.sid, ())):
            a, b = max(a, hi), min(b, s.end)
            if b > a:
                covered += b - a
                hi = b
        out[s.sid] = s.dur - covered
    return out


def layer_metrics(spans, passes: int) -> dict:
    """Per-pass layer figures from the spans of ``passes`` traced passes."""
    dur, calls, items = defaultdict(float), defaultdict(int), defaultdict(float)
    self_by_layer = defaultdict(float)
    own = self_times(spans)
    draws_under = defaultdict(float)
    for s in spans:
        dur[s.name] += s.dur
        calls[s.name] += 1
        if s.info and "n" in s.info:
            items[s.name] += s.info["n"]
            if s.name in ("moments.sample_block", "moments.standard_normal"):
                draws_under[s.parent] += s.info["n"]
        self_by_layer[s.layer] += own[s.sid]
    sims = [s for s in spans if s.name.startswith("simulate.")]
    used = sum(s.info["used"] for s in sims if s.info and draws_under[s.sid])
    drawn = sum(draws_under[s.sid] for s in sims)
    sim_wall = sum(s.dur for s in sims)
    sim_cpu = sum(s.info["cpu"] for s in sims if s.info)
    diags = [s.info["diag"] for s in sims if s.info and "diag" in s.info]
    diag, diag_se = max(diags) if diags else (0.0, 0.0)
    draw_names = ("moments.sample_block", "moments.standard_normal")
    m = {
        "simulate.self_s": self_by_layer["simulate"],
        "simulate.draw_efficiency": used / drawn if drawn else 0.0,
        "simulate.cpu_per_wall": sim_cpu / sim_wall if sim_wall else 0.0,
        "simulate.discretization_diag": diag,
        "simulate.discretization_diag_stderr": diag_se,
        "moments.draw_s": sum(dur[n] for n in draw_names),
        "moments.draws": sum(items[n] for n in draw_names),
        "moments.draw_calls": sum(calls[n] for n in draw_names),
        "moments.rekey_s": dur["moments.rekey"],
        "moments.rekeys": calls["moments.rekey"],
        "schedules.enumerate_s": dur["schedules.iter_elements"],
        "schedules.elements": items["schedules.iter_elements"],
        "schedules.audit_s": dur["schedules.audit"],
        "geometry.exit_test_s": dur["geometry.exit_test"],
        "geometry.exit_tests": items["geometry.exit_test"],
        "harness.certify_s": dur["harness.certify"],
        "cli.self_s": self_by_layer["cli"],
        "cli.write_s": dur["cli.write"],
    }
    for short in ("hyperplane", "ray", "slice", "gradient"):
        m[f"geometry.{short}_s"] = dur[f"geometry.{short}"]
        m[f"geometry.{short}_calls"] = calls[f"geometry.{short}"]
    for short in ("slab", "box", "vertex"):
        m[f"optimize.{short}_s"] = dur[f"optimize.{short}"]
        m[f"optimize.{short}_calls"] = calls[f"optimize.{short}"]
    for short in ("sum_law", "threshold"):
        m[f"overshoot.{short}_s"] = dur[f"overshoot.{short}"]
        m[f"overshoot.{short}_calls"] = calls[f"overshoot.{short}"]
    for layer in ("geometry", "optimize", "overshoot", "bounds", "harness"):
        m[f"{layer}.self_s"] = self_by_layer[layer]
    ratios = ("simulate.draw_efficiency", "simulate.cpu_per_wall",
              "simulate.discretization_diag", "simulate.discretization_diag_stderr")
    return {k: (v if k in ratios else v / passes) for k, v in m.items()}


def write_spans(spans, path):
    """Write spans as CSV (times in microseconds from the first span)."""
    origin = min((s.start for s in spans), default=0.0)
    with open(path, "w") as fh:
        fh.write("id,parent,name,start_us,end_us,info\n")
        for s in spans:
            info = ";".join(f"{k}={v}" for k, v in (s.info or {}).items())
            fh.write(f"{s.sid},{s.parent or ''},{s.name},{(s.start - origin) * 1e6:.1f},"
                     f"{(s.end - origin) * 1e6:.1f},{info}\n")
