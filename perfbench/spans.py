"""Host-time spans around repro's public layer functions.

The benchmark measures layers from the outside: :func:`install` swaps
each public layer function for a wrapper, at its module global or
class, that records one :class:`Span` per call (name, start, end, parent span,
point id) into a :class:`SpanRecorder`.  Spans stay in memory until
:meth:`SpanRecorder.dump` writes them out at exit.  Nothing inside
``repro`` changes; the FP core runs inside the simulator's predecoded
closures, so its time shows up under ``sim.*``.

:func:`layer_metrics` folds span dumps into the per-layer metrics and
:func:`chrome_trace` renders them as Chrome ``trace_event`` JSON with
the ``"ph": "X"`` events ``repro.profile`` also emits.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from typing import Callable, Dict, List, Optional

#: Self-time metric -> the span names whose self time it sums.  Every
#: span name appears exactly once, so the metrics partition all traced
#: time and ``wall - sum(metrics)`` is the unattributed remainder.
SELF_TIME_METRICS = {
    "compiler.parse_s": ("compiler.parse",),
    "compiler.semantic_s": ("compiler.analyze", "compiler.fold_constants"),
    "compiler.vectorize_s": ("compiler.vectorize",),
    "compiler.codegen_s": ("compiler.generate",),
    "compiler.compile_self_s": ("compiler.compile_source",),
    "isa.assemble_s": ("isa.assemble",),
    "analysis.lint_s": ("analysis.lint_program",),
    "analysis.cfg_s": ("analysis.build_cfg",),
    "analysis.absint_s": ("analysis.analyze_cfg",),
    "sim.load_s": ("sim.Simulator.__init__",),
    "sim.fast_run_s": ("sim.Simulator.run",),
    "sim.lockstep_run_s": ("sim.run_lockstep",),
    "harness.self_s": ("harness.run_kernel", "harness.run_kernel_batch",
                       "harness.run_group_lockstep"),
    "kernels.make_data_s": ("kernels.make_data",),
    "kernels.golden_s": ("kernels.golden",),
    "energy.estimate_s": ("energy.estimate",),
    "harness.cache_get_s": ("harness.cache_get",),
    "harness.cache_put_s": ("harness.cache_put",),
}


class Span:
    __slots__ = ("name", "start", "end", "child_s", "parent", "ident",
                 "tid", "extra")

    def __init__(self, name: str, parent: Optional["Span"],
                 ident: Optional[str]):
        self.name = name
        self.parent = parent
        self.ident = ident
        self.tid = threading.get_ident()
        self.child_s = 0.0
        self.start = self.end = 0.0
        self.extra: Dict[str, float] = {}


class SpanRecorder:
    """Collects spans from every thread of one process."""

    def __init__(self):
        self.spans: List[Span] = []
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable,
             ident: Optional[Callable] = None,
             extra: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span per call.

        ``ident(args, kwargs)`` names the point a top-level call works
        on (nested spans inherit their parent's); ``extra(args, kwargs,
        result)`` returns counts to attach to the span.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            if ident is not None:
                point = ident(args, kwargs)
            else:
                point = parent.ident if parent is not None else None
            span = Span(name, parent, point)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
                self.spans.append(span)
            if extra is not None:
                span.extra = extra(args, kwargs, result)
            return result

        return traced

    def to_rows(self) -> List[Dict]:
        index = {id(span): n for n, span in enumerate(self.spans)}
        return [{
            "name": s.name, "start": s.start, "end": s.end,
            "self": s.end - s.start - s.child_s,
            "parent": index.get(id(s.parent)) if s.parent else None,
            "id": s.ident, "tid": s.tid, "extra": s.extra,
        } for s in self.spans]

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_rows(), handle)


def _point_id(spec, ftype, mode, seed) -> str:
    return f"{spec.name}/{ftype}/{mode}/seed{seed}"


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _run_kernel_id(args, kwargs) -> str:
    return _point_id(args[0], _arg(args, kwargs, 1, "ftype", "float"),
                     _arg(args, kwargs, 2, "mode", "scalar"),
                     kwargs.get("seed", 0))


def _batch_id(args, kwargs) -> str:
    seeds = kwargs.get("seeds", (0,))
    return _point_id(args[0], _arg(args, kwargs, 1, "ftype", "float"),
                     _arg(args, kwargs, 2, "mode", "scalar"),
                     f"{seeds[0]}x{len(seeds)}")


def _group_id(args, kwargs) -> str:
    group = args[0]
    head = group[0]
    return f"{head.name}/{head.ftype}/{head.mode}/seed{head.seed}x{len(group)}"


def _cache_id(args, kwargs) -> str:
    point = args[1]
    return f"{point.name}/{point.ftype}/{point.mode}/seed{point.seed}"


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer entry point at its module global or class."""
    from repro.analysis import lints
    from repro.compiler import pipeline
    from repro.energy import EnergyModel
    from repro.harness import parallel, runner
    from repro.harness.parallel import DiskResultCache
    from repro.kernels import KERNELS
    from repro.serve import executor
    from repro.sim import lockstep
    from repro.sim import Simulator

    wrap = recorder.wrap
    for fn in ("parse", "analyze", "fold_constants", "vectorize",
               "generate"):
        setattr(pipeline, fn, wrap(f"compiler.{fn}", getattr(pipeline, fn)))
    pipeline.assemble = wrap("isa.assemble", pipeline.assemble)
    runner.compile_source = wrap("compiler.compile_source",
                                 runner.compile_source)
    for fn in ("lint_program", "build_cfg", "analyze_cfg"):
        setattr(lints, fn, wrap(f"analysis.{fn}", getattr(lints, fn)))

    Simulator.__init__ = wrap("sim.Simulator.__init__", Simulator.__init__)
    Simulator.run = wrap(
        "sim.Simulator.run", Simulator.run,
        extra=lambda a, k, r: {"instret": r.trace.instret})
    lockstep.run_lockstep = wrap(
        "sim.run_lockstep", lockstep.run_lockstep,
        extra=lambda a, k, r: {"instret": sum(x.trace.instret for x in r)})
    EnergyModel.estimate = wrap("energy.estimate", EnergyModel.estimate)
    for spec in KERNELS.values():
        object.__setattr__(spec, "make_data",
                           wrap("kernels.make_data", spec.make_data))
        object.__setattr__(spec, "golden",
                           wrap("kernels.golden", spec.golden))

    runner.run_kernel = wrap("harness.run_kernel", runner.run_kernel,
                             ident=_run_kernel_id)
    parallel.run_kernel_batch = wrap(
        "harness.run_kernel_batch", parallel.run_kernel_batch,
        ident=_batch_id, extra=lambda a, k, r: {"lanes": len(r)})
    group = wrap(
        "harness.run_group_lockstep", parallel.run_group_lockstep,
        ident=_group_id,
        extra=lambda a, k, r: {
            "width": len(r),
            "retries": sum(o.status == "error" for o in r.values())})
    parallel.run_group_lockstep = group
    executor.run_group_lockstep = group
    DiskResultCache.get = wrap(
        "harness.cache_get", DiskResultCache.get, ident=_cache_id,
        extra=lambda a, k, r: {"hit": int(r is not None)})
    DiskResultCache.put = wrap("harness.cache_put", DiskResultCache.put,
                               ident=_cache_id)


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def layer_metrics(rows: List[Dict], scale: float = 1.0) -> Dict[str, float]:
    """Per-layer sums and counts over span rows (one or more dumps).

    Span durations are multiplied by ``scale`` (a host-speed factor).
    """
    self_by_name: Dict[str, float] = {}
    dur_by_name: Dict[str, float] = {}
    count: Dict[str, int] = {}
    extra: Dict[str, Dict[str, float]] = {}
    for row in rows:
        name = row["name"]
        self_by_name[name] = (self_by_name.get(name, 0.0)
                              + row["self"] * scale)
        dur_by_name[name] = (dur_by_name.get(name, 0.0)
                             + (row["end"] - row["start"]) * scale)
        count[name] = count.get(name, 0) + 1
        sums = extra.setdefault(name, {})
        for key, value in row["extra"].items():
            sums[key] = sums.get(key, 0) + value

    out: Dict[str, float] = {
        metric: sum(self_by_name.get(n, 0.0) for n in names)
        for metric, names in SELF_TIME_METRICS.items()}

    def rate(instret: float, seconds: float) -> float:
        return instret / seconds / 1e6 if seconds > 0 else 0.0

    fast_instret = extra.get("sim.Simulator.run", {}).get("instret", 0)
    lock_instret = extra.get("sim.run_lockstep", {}).get("instret", 0)
    groups = extra.get("harness.run_group_lockstep", {})
    batches = count.get("harness.run_group_lockstep", 0)
    hits = extra.get("harness.cache_get", {}).get("hit", 0)
    out.update({
        "compiler.compile_calls": count.get("compiler.compile_source", 0),
        "sim.fast_instret": fast_instret,
        "sim.fast_mips": rate(fast_instret,
                              dur_by_name.get("sim.Simulator.run", 0.0)),
        "sim.lockstep_instret": lock_instret,
        "sim.lockstep_mips": rate(lock_instret,
                                  dur_by_name.get("sim.run_lockstep", 0.0)),
        "harness.lockstep_batches": batches,
        "harness.lockstep_mean_width": (groups.get("width", 0) / batches
                                        if batches else 0.0),
        "harness.lockstep_retries": groups.get("retries", 0),
        "harness.points_scalar": count.get("harness.run_kernel", 0),
        "harness.points_lockstep": extra.get(
            "harness.run_kernel_batch", {}).get("lanes", 0),
        "harness.cache_hits": hits,
        "harness.cache_misses": count.get("harness.cache_get", 0) - hits,
    })
    return out


def attributed_seconds(metrics: Dict[str, float]) -> float:
    """Sum of every layer's self time (all traced host time)."""
    return sum(metrics[name] for name in SELF_TIME_METRICS)


def chrome_trace(dumps: List[List[Dict]], context: Dict) -> Dict:
    """One Chrome ``trace_event`` object; dump ``n`` becomes pid ``n``.

    Timestamps are host ``perf_counter`` microseconds, which every
    process on the host shares, so the dumps line up on one timeline.
    """
    starts = [row["start"] for rows in dumps for row in rows]
    origin = min(starts) if starts else 0.0
    events: List[Dict] = []
    for pid, rows in enumerate(dumps):
        tids: Dict[int, int] = {}
        for row in rows:
            tid = tids.setdefault(row["tid"], len(tids))
            events.append({
                "name": row["name"],
                "cat": row["name"].split(".", 1)[0],
                "ph": "X",
                "ts": (row["start"] - origin) * 1e6,
                "dur": (row["end"] - row["start"]) * 1e6,
                "pid": pid,
                "tid": tid,
                "args": {"id": row["id"], "parent": row["parent"],
                         "self_us": row["self"] * 1e6, **row["extra"]},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"schema": "perfbench.host-spans",
                          "context": context}}
