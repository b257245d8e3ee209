"""Spans around the program's public entry points, and the layer split.

The traced run (``bench/traced.py``) installs the wrappers below before
it runs a job in-process; nothing in ``src/`` knows about them.  Each
wrapper records one span — name, start, end, the span that caused it,
and a few counts — around one call into a layer.  Per-point spans come
from substituting ``repro.harness.parallel._POINT_RUNNER``: forked pool
workers inherit the substitute and the parent's open span stack, so a
worker's point spans name the parent's ``run_points`` span as their
cause.  Pool workers leave through ``os._exit`` without running
``atexit``, so each worker appends its spans to ``spans-<pid>.jsonl``
at the end of every point.

All clocks are ``time.perf_counter`` (``CLOCK_MONOTONIC`` on Linux),
which every process on the host shares, so spans from different
processes lie on one timeline.

:func:`layer_metrics` turns the spans into the per-layer metrics that
``BENCHMARK.json`` lists under ``per_layer``.  A layer's self time is its span's duration minus
the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

from summary import gated_percentile, percentile

perf = time.perf_counter

#: the traced run is invalid when its layers leave more of the wall
#: unexplained than this (or explain more than all of it)
MAX_UNATTRIBUTED_FRAC = 0.10


def residual_problems(layers: dict) -> list[str]:
    """The residual gate: if the layers do not add up to the wall, the
    measurement is wrong."""
    frac = layers["unattributed_frac"]
    if abs(frac) > MAX_UNATTRIBUTED_FRAC:
        return [f"unattributed_frac {frac:.3f} is beyond "
                f"+-{MAX_UNATTRIBUTED_FRAC}"]
    return []


# --------------------------------------------------------------- recording
class Tracer:
    """In-memory span recorder; one per traced process tree."""

    def __init__(self, out_dir) -> None:
        self.out_dir = Path(out_dir)
        self._pid = os.getpid()
        self._done: list[dict] = []
        self._local = threading.local()
        self._ids = itertools.count(1)

    def stack(self) -> list:
        """This thread's open span ids, innermost last."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _adopt(self) -> int:
        pid = os.getpid()
        if pid != self._pid:
            # a forked worker: the spans it inherited are the parent's
            # to write; keep only the open stack, which names the cause
            self._pid = pid
            self._done = []
        return pid

    def begin(self, name: str, start: float | None = None) -> dict:
        pid = self._adopt()
        stack = self.stack()
        span = {"id": f"{pid}.{next(self._ids)}",
                "parent": stack[-1] if stack else None, "pid": pid,
                "name": name, "attrs": {}}
        stack.append(span["id"])
        span["start"] = perf() if start is None else start
        return span

    def end(self, span: dict, end: float | None = None) -> None:
        span["end"] = perf() if end is None else end
        self.stack().pop()
        self._done.append(span)

    def add(self, name: str, parent, dur: float) -> None:
        """An aggregate span: ``dur`` seconds spent, in pieces, inside
        ``parent`` (work interleaved with its caller, such as a lazy
        generator's ``next`` calls)."""
        pid = self._adopt()
        self._done.append({"id": f"{pid}.{next(self._ids)}",
                           "parent": parent, "pid": pid, "name": name,
                           "dur": dur, "attrs": {}})

    def flush(self) -> None:
        """Append this process's finished spans to its own file."""
        self._adopt()
        if not self._done:
            return
        path = self.out_dir / f"spans-{self._pid}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for span in self._done:
                handle.write(json.dumps(span) + "\n")
        self._done = []

    def flush_until_exit(self, name: str) -> None:
        """Flush, with a last span ``name`` that starts now and has no
        end: the reader ends it when the process ended."""
        span = self.begin(name)
        self.stack().pop()
        span["end"] = None
        self._done.append(span)
        self.flush()


def _traced(tracer: Tracer, name: str, fn, before=None, after=None):
    """``fn`` inside a span; ``before(*args)`` captures state that
    ``after(state, result, *args)`` turns into span attributes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = before(*args, **kwargs) if before is not None else None
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span["attrs"]["error"] = True
            raise
        finally:
            tracer.end(span)
        if after is not None:
            span["attrs"].update(after(state, result, *args, **kwargs))
        return result

    return wrapper


def _timed_iter(tracer: Tracer, name: str, iterator):
    """Re-yield ``iterator``, charging each ``next`` to the span open at
    the time it is pulled."""
    stack = tracer.stack()
    spent: dict = {}
    try:
        while True:
            t0 = perf()
            try:
                item = next(iterator)
            except StopIteration:
                break
            parent = stack[-1] if stack else None
            spent[parent] = spent.get(parent, 0.0) + perf() - t0
            yield item
    finally:
        for parent, dur in spent.items():
            tracer.add(name, parent, dur)


class Installed:
    """The wrappers in place; :meth:`uninstall` restores every original."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def _replace_function(installed: Installed, fn, new) -> None:
    """Rebind every ``repro`` module global that names ``fn`` (``from x
    import fn`` copies the binding into the importing module)."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                installed.replace(module, attr, new)


def install(tracer: Tracer) -> Installed:
    """Wrap the public entry points of every layer."""
    import repro.codegen.cache as codegen_cache
    import repro.harness.cache as hcache
    import repro.harness.figures as figures
    import repro.harness.parallel as parallel
    import repro.sampling.engine as engine
    from repro.harness.headline import headline
    from repro.pipeline.processor import Processor
    from repro.sampling.warmer import FunctionalWarmer
    from repro.workloads.generator import SyntheticWorkload
    from repro.workloads.trace_codec import TraceColumns

    installed = Installed()

    def function(fn, name, before=None, after=None):
        _replace_function(installed, fn,
                          _traced(tracer, name, fn, before, after))

    def method(cls, attr, name, before=None, after=None):
        installed.replace(cls, attr, _traced(tracer, name, vars(cls)[attr],
                                             before, after))

    def memo_hits(*args, **kwargs):
        return hcache.TRACE_MEMO.hits

    def kernels_memoized(*args, **kwargs):
        return len(codegen_cache._KERNEL_MEMO)

    def counters(proc, *args, **kwargs):
        return proc.stats.committed, proc.stats.cycles, proc.cycles_skipped

    def run_attrs(state, result, proc, *args, **kwargs):
        committed, cycles, skipped = state
        return {"insts": proc.stats.committed - committed,
                "cycles": proc.stats.cycles - cycles,
                "skipped": proc.cycles_skipped - skipped,
                "loop": proc.loop_used}

    def consumed(state, result, *args, **kwargs):
        return {"insts": result}

    for fn, name in ((figures.figure10, "figures.figure10"),
                     (figures.figure11, "figures.figure11"),
                     (headline, "figures.headline"),
                     (parallel.run_points, "parallel.run_points"),
                     (hcache.code_fingerprint, "cache.fingerprint"),
                     (codegen_cache.generate_kernel_source, "codegen.generate")):
        function(fn, name)
    function(hcache.cached_stream, "cache.trace_resolve", memo_hits,
             lambda hits, *a, **k: {"memo_hit": hcache.TRACE_MEMO.hits > hits})
    function(codegen_cache.load_kernel, "codegen.load_kernel",
             kernels_memoized,
             lambda n, *a, **k: {"memo_hit": len(codegen_cache._KERNEL_MEMO) == n})
    function(engine.sampled_simulate, "sampling.simulate",
             after=lambda state, result, *a, **k: {"windows": result.windows})

    method(parallel.WorkloadBroadcast, "publish", "parallel.broadcast")
    method(hcache.ResultCache, "get", "cache.result_get",
           after=lambda state, result, *a, **k: {"hit": result is not None})
    method(hcache.ResultCache, "put", "cache.result_put")
    method(hcache.ResultCache, "key_for_point", "cache.result_key")
    method(hcache.TraceCache, "get_stream", "cache.trace_read",
           after=lambda state, result, *a, **k: {"hit": result is not None})
    method(hcache.TraceCache, "put_insts", "workloads.encode")
    method(hcache.TraceStream, "columns", "workloads.decode")
    method(TraceColumns, "materialize_range", "workloads.decode")
    method(SyntheticWorkload, "__init__", "workloads.generate")
    method(Processor, "run", "pipeline.run", counters, run_attrs)
    method(FunctionalWarmer, "skim", "sampling.skim", after=consumed)
    method(FunctionalWarmer, "fast_forward", "sampling.fast_forward",
           after=consumed)

    generate = vars(SyntheticWorkload)["__iter__"]
    installed.replace(SyntheticWorkload, "__iter__", functools.wraps(generate)(
        lambda self: _timed_iter(tracer, "workloads.generate", generate(self))))

    point_runner = _traced(tracer, "parallel.point", parallel._POINT_RUNNER)

    def run_point(point):
        try:
            return point_runner(point)
        finally:
            tracer.flush()

    installed.replace(parallel, "_POINT_RUNNER", run_point)
    return installed


# ---------------------------------------------------------------- analysis
def load_spans(directory) -> list[dict]:
    spans = []
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            spans += [json.loads(line) for line in handle if line.strip()]
    return spans


def duration(span: dict) -> float:
    if "dur" in span:
        return span["dur"]
    return span["end"] - span["start"]


def covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part its children cover.

    Interval children are clipped to the parent and merged, so
    overlapping children (two workers' points under one ``run_points``)
    count once; aggregate children (no interval) subtract their total.
    """
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    out = {}
    for span in spans:
        own = duration(span)
        if "dur" in span:
            out[span["id"]] = own
            continue
        start, end = span["start"], span["end"]
        clipped = [(max(c["start"], start), min(c["end"], end))
                   for c in children[span["id"]] if "dur" not in c]
        inside = covered((a, b) for a, b in clipped if b > a)
        pieces = sum(c["dur"] for c in children[span["id"]] if "dur" in c)
        out[span["id"]] = max(0.0, own - inside - pieces)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, spawned: float, ended: float, untraced_wall: float,
                  slowdown: float = 1.0) -> dict:
    """Every per-layer metric from one traced run's spans.

    ``spawned`` and ``ended`` are the driver's ``perf_counter`` when it
    started the traced process and when that process had ended;
    ``slowdown`` is the host's slowdown against the reference speed
    while it ran, and ``untraced_wall`` the median wall of the same job
    untraced, already divided by its own slowdown.  Times (``*_s``) are
    divided by ``slowdown`` and rates (``*_per_s``) multiplied by it.
    Metrics of a layer the workload never enters are 0.
    """
    wall = ended - spawned
    for span in spans:
        if span.get("end", 0) is None:
            span["end"] = ended
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def self_sum(*names):
        return sum(selfs[s["id"]] for n in names for s in by_name[n])

    def total(name):
        return sum(duration(s) for s in by_name[name])

    def count(name, attr=None):
        return sum(1 for s in by_name[name]
                   if attr is None or s["attrs"].get(attr))

    def attr_sum(name, attr):
        return sum(s["attrs"].get(attr) or 0 for s in by_name[name])

    m = {}
    # process: the root is the process that recorded its own import
    root_pid = by_name["process.import"][0]["pid"]
    m["process.start_s"] = total("process.start")
    m["process.import_s"] = total("process.import")
    m["process.exit_s"] = total("process.exit")
    m["figures.aggregate_s"] = self_sum("figures.figure10", "figures.figure11",
                                        "figures.headline")

    # parallel: points run in workers, under the parent's run_points
    points = by_name["parallel.point"]
    m["parallel.run_points_s"] = total("parallel.run_points")
    m["parallel.broadcast_s"] = self_sum("parallel.broadcast")
    m["parallel.dispatch_s"] = self_sum("parallel.run_points")
    m["parallel.points"] = len(points)
    m["parallel.failed"] = count("parallel.point", "error")
    point_durs = [duration(s) for s in points]
    m["parallel.point_s_p50"] = percentile(point_durs, 50)
    m["parallel.point_s_p90"] = gated_percentile(point_durs, 90)
    m["parallel.point_other_s"] = self_sum("parallel.point")
    busy = capacity = straggler = 0.0
    for sweep in by_name["parallel.run_points"]:
        mine = [s for s in points if s["parent"] == sweep["id"]]
        if not mine:
            continue
        last_end = defaultdict(float)
        for s in mine:
            last_end[s["pid"]] = max(last_end[s["pid"]], s["end"])
        window = max(s["end"] for s in mine) - min(s["start"] for s in mine)
        busy += sum(duration(s) for s in mine)
        capacity += len(last_end) * window
        ends = sorted(last_end.values())
        if len(ends) > 1:
            straggler += ends[-1] - ends[-2]
    m["parallel.worker_busy_frac"] = _ratio(busy, capacity)
    m["parallel.worker_idle_s"] = capacity - busy
    m["parallel.straggler_s"] = straggler

    # cache
    m["cache.result_get_s"] = self_sum("cache.result_get")
    m["cache.result_put_s"] = self_sum("cache.result_put")
    m["cache.result_key_s"] = self_sum("cache.result_key")
    m["cache.result_hit_ratio"] = _ratio(count("cache.result_get", "hit"),
                                         count("cache.result_get"))
    m["cache.fingerprint_s"] = self_sum("cache.fingerprint")
    m["cache.trace_resolve_s"] = self_sum("cache.trace_resolve",
                                          "cache.trace_read")
    m["cache.trace_memo_hit_ratio"] = _ratio(
        count("cache.trace_resolve", "memo_hit"), count("cache.trace_resolve"))
    m["cache.trace_disk_hits"] = count("cache.trace_read", "hit")

    # workloads: skeleton construction is an interval span, stream
    # generation an aggregate charged to whoever pulled the instructions
    m["workloads.generate_s"] = self_sum("workloads.generate")
    m["workloads.generated"] = sum(1 for s in by_name["workloads.generate"]
                                   if "dur" not in s)
    m["workloads.encode_s"] = self_sum("workloads.encode")
    m["workloads.decode_s"] = self_sum("workloads.decode")

    # codegen
    loads = count("codegen.load_kernel")
    m["codegen.load_s"] = self_sum("codegen.load_kernel")
    m["codegen.generate_s"] = self_sum("codegen.generate")
    m["codegen.generated"] = count("codegen.generate")
    m["codegen.cache_hit_ratio"] = _ratio(loads - m["codegen.generated"], loads)

    # pipeline
    runs = by_name["pipeline.run"]
    m["pipeline.run_s"] = self_sum("pipeline.run")
    m["pipeline.insts"] = attr_sum("pipeline.run", "insts")
    m["pipeline.cycles"] = attr_sum("pipeline.run", "cycles")
    m["pipeline.insts_per_s"] = _ratio(m["pipeline.insts"], m["pipeline.run_s"])
    m["pipeline.skipped_cycle_frac"] = _ratio(attr_sum("pipeline.run", "skipped"),
                                              m["pipeline.cycles"])
    m["pipeline.generated_loop_frac"] = _ratio(
        sum(1 for s in runs if s["attrs"].get("loop") == "generated"), len(runs))

    # sampling: detailed windows are the pipeline runs inside a sampled run
    ids = {s["id"]: s for s in spans}

    def sampled(span):
        parent = span["parent"]
        while parent is not None and parent in ids:
            if ids[parent]["name"] == "sampling.simulate":
                return True
            parent = ids[parent]["parent"]
        return False

    m["sampling.skim_s"] = self_sum("sampling.skim")
    m["sampling.fast_forward_s"] = self_sum("sampling.fast_forward")
    m["sampling.window_s"] = sum(selfs[s["id"]] for s in runs if sampled(s))
    m["sampling.windows"] = attr_sum("sampling.simulate", "windows")
    m["sampling.ff_insts_per_s"] = _ratio(
        attr_sum("sampling.skim", "insts") + attr_sum("sampling.fast_forward",
                                                      "insts"),
        m["sampling.skim_s"] + m["sampling.fast_forward_s"])

    # residual: the parent's wall minus its top-level spans, which hold
    # every self time of the parent's timeline (time its workers cover
    # lies inside run_points; the tracer's own work is a trace.* span)
    attributed = sum(duration(s) for s in spans
                     if s["pid"] == root_pid and s["parent"] is None)
    m["unattributed_s"] = wall - attributed
    m["unattributed_frac"] = _ratio(m["unattributed_s"], wall)
    m["trace_overhead_frac"] = _ratio(wall / slowdown, untraced_wall) - 1.0
    for name in m:
        if name.endswith("_per_s"):
            m[name] *= slowdown
        elif name.endswith("_s"):
            m[name] /= slowdown
    return m
