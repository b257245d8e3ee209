"""Parallel sweep execution engine.

Every paper figure is a grid of fully independent simulations.  This
module turns that grid into data: a sweep is a list of
:class:`SweepPoint` values (benchmark profile x scheme x register-file
size x instruction count x seed) which :func:`run_points` executes by
one of two routes, picked by ``jobs``:

* **in-process serial** (:func:`_run_serial`) for ``jobs=1``;
* the **pipe fleet** (:func:`_run_fleet`) for ``jobs > 1``: forked
  workers fed one point at a time over pipes, a dead worker respawned
  for the rest of the sweep.

Each point runs once.  Results cross the process boundary as plain
:meth:`~repro.pipeline.stats.SimStats.to_dict` dicts (cheap to pickle); a
crashed simulation is captured as a per-point error — with its bounded
worker-side traceback — and a worker that dies fails the point it was
running; either way the rest of the sweep carries on.  A runaway point
is stopped by the simulator itself (``PipelineHang``: a cycle budget and
a no-progress check), so the engine sets no wall-clock bound of its own.

Persistence is one cache-backed store: an optional
:class:`~repro.harness.cache.ResultCache` serves previously computed
points without re-simulating, and every fresh success is published to it
crash-safely (temp file, fsync, atomic rename) as it resolves.  A sweep
killed mid-flight (SIGKILL, OOM, power) is resumed by rerunning it
against the same cache: finished points are served as hits and only
incomplete points are re-simulated — the one recovery path, for a
killed sweep and for a failed point alike.  A sweep without a cache
(``--no-cache``) does not resume.

The sweep data plane is fork itself: before the pipe fleet forks, the
parent warms its trace memo with every distinct pending workload and its
kernel memo with every distinct cycle kernel
(:meth:`WorkloadBroadcast.publish`), and every worker inherits both.
Dispatch is workload-affine (:class:`_AffinityQueue`): a freed worker
preferentially receives a point of the workload it ran last, whose trace
columns it has already parsed and whose instructions it keeps resident,
rewinding them between points instead of materializing them again.

Determinism: a point's result does not depend on how it was executed —
serial, the pipe fleet or the cached path, its trace from the memo or
from disk — all reproduce bit-identical counters, which the tests
assert.  Warming and affinity only affect *when and where* a point
runs, never its result.
"""

from __future__ import annotations

import gc
import os
import traceback
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.pipeline.stats import SimStats, stats_from_dict
from repro.workloads.profiles import WorkloadProfile

#: environment default for ``jobs`` when the caller passes None
JOBS_ENV = "REPRO_JOBS"

#: characters of a per-point failure message kept — a recursive
#: traceback must not bloat every pipe message and final report it
#: passes through
ERROR_LIMIT = 8192


@dataclass(frozen=True)
class SweepPoint:
    """One simulation of a sweep grid, described declaratively."""

    profile: WorkloadProfile
    scheme: str
    size: int  # register-file size under study (the equal-area knob)
    insts: int
    seed: int
    #: ``PERIOD:WINDOW:WARMUP`` spec for interval-sampled execution, or
    #: None for exact simulation
    sampling: Optional[str] = None
    #: register-file read-port-reduction scheme (repro.core.read_ports):
    #: 'none' | 'bypass_filter' | 'banked_arbiter'
    port_scheme: str = "none"

    @property
    def benchmark(self) -> str:
        return self.profile.name

    def label(self) -> str:
        label = (f"{self.profile.name}/{self.scheme}/rf{self.size}"
                 f"/i{self.insts}/s{self.seed}")
        if self.sampling is not None:
            label += f"/sampled[{self.sampling}]"
        if self.port_scheme != "none":
            label += f"/ports[{self.port_scheme}]"
        return label


@dataclass
class PointResult:
    point: SweepPoint
    stats: Optional[SimStats] = None
    error: Optional[str] = None
    #: served from the result cache (a warm or resumed sweep)
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None


class SweepError(RuntimeError):
    """One or more sweep points failed; carries every per-point error
    (including the worker-side traceback captured at the failure site)."""

    def __init__(self, failures: list[PointResult]) -> None:
        self.failures = failures
        lines = []
        for result in failures:
            error = result.error or ""
            indented = "\n    ".join(error.rstrip().splitlines())
            lines.append(f"  {result.point.label()}:\n    {indented}")
        super().__init__(
            f"{len(failures)} sweep point(s) failed:\n" + "\n".join(lines))


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """``jobs`` argument > ``REPRO_JOBS`` env > 1."""
    if jobs is None:
        env = os.environ.get(JOBS_ENV, "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(f"{JOBS_ENV}={env!r} is not an integer")
        else:
            jobs = 1
    return max(1, jobs)


def simulate_point(point: SweepPoint):
    """Execute one sweep point (pure function of the point).

    Workloads come from the pregenerated-trace cache: a fleet worker
    finds the trace in the memo it inherited from the parent (or decodes
    it from disk when the memo has evicted it) instead of re-running the
    generator, and every execution path (jobs=1 or a fleet worker, memo
    or disk) consumes the identical serialized stream.  An exact point
    replays the process's resident instructions
    (:meth:`~repro.harness.cache.TraceStream.replay`), so consecutive
    points of one workload materialize it once.
    """
    # imported here to avoid an import cycle
    from repro.harness.cache import cached_stream
    from repro.harness.runner import make_config
    from repro.pipeline.processor import simulate

    workload = cached_stream(point.profile, point.insts, point.seed)
    config = make_config(point.profile, point.scheme, point.size,
                         port_scheme=point.port_scheme)
    if point.sampling is not None:
        # total_insts anchors the sampling schedule and scaling ratio.
        # Pass the stream itself (not an iterator): the sampling engine
        # fast-forwards straight over a binary stream's packed columns
        # and only materializes DynInsts for warm zones and windows.
        return simulate(config, workload, max_insts=point.insts,
                        sampling=point.sampling, sampling_seed=point.seed)
    return simulate(config, workload.replay())


#: the function workers run for each point — a module-level indirection so
#: tests can substitute a controllable runner (fork-started children
#: inherit the patched value)
_POINT_RUNNER: Callable = simulate_point


def _worker(point: SweepPoint) -> tuple[Optional[dict], Optional[str]]:
    """Run one point: ``(stats dict, None)`` or ``(None, error)``; never
    raises.

    Failures carry the full traceback, not just ``repr(exc)`` — a sweep
    failure must be debuggable from the parent process alone, without
    re-running the point under a debugger.
    """
    try:
        return _POINT_RUNNER(point).to_dict(), None
    except Exception as exc:
        return None, _bound_error(
            f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}")


def _bound_error(text: Optional[str]) -> Optional[str]:
    """Clamp a failure message to :data:`ERROR_LIMIT` characters.

    Keeps the head (exception type + message + outermost frames) and the
    tail (the innermost frames, where the actual failure site is) and
    drops the middle — the two ends are what a debugging session reads
    first, and a pathological message (recursion tracebacks, a repr of a
    huge structure) must stay wire-sized.  The result, truncation marker
    included, fits in :data:`ERROR_LIMIT`, so bounding an already-bounded
    message is a no-op.
    """
    if text is None or len(text) <= ERROR_LIMIT:
        return text
    kept = ERROR_LIMIT - 64  # room for the marker line
    head = kept * 5 // 8
    tail = kept - head
    dropped = len(text) - head - tail
    return (f"{text[:head]}\n"
            f"... [{dropped} characters truncated] ...\n"
            f"{text[-tail:]}")


# ------------------------------------------------------------------ warm-up
def _workload_key(point: SweepPoint) -> tuple:
    """Identity of the workload a point consumes: the
    :func:`~repro.harness.cache.cached_stream` arguments, which are also
    its trace-memo key.  The profile enters by content, so a same-name
    variant of a benchmark is a different workload."""
    return (point.profile, point.insts, point.seed)


class WorkloadBroadcast:
    """The pipe fleet's pre-fork warm step: fork inheritance is the
    broadcast.

    :meth:`publish` runs in the parent before any worker forks.  It
    resolves each distinct pending workload once through
    :func:`~repro.harness.cache.cached_stream` (a cold trace goes from
    the generator's column emitter straight to its ``.rtc`` file, with no
    instruction objects built) and loads each distinct config's cycle
    kernel into the kernel memo, so every forked worker inherits both
    memos and starts warm.  Configs whose generated source is the same
    share one compile (:mod:`repro.codegen.cache`): the quick figure
    grid's 20 configs compile 2 kernels.  A sweep with more distinct
    workloads than the trace memo holds (32) keeps the most recent ones;
    workers read the rest from the ``.rtc`` files just written.  Stateless: the class only
    gives the step a stable name to time, and the benchmark's traced run
    wraps :meth:`publish` by that name, so both stay.
    """

    def publish(self, points: list, pending: list[int]) -> None:
        """Warm the parent's trace and kernel memos for ``pending``.  A
        failure here is left for the point's own run to report."""
        from repro.codegen import load_kernel
        from repro.codegen.fingerprint import kernel_fingerprint
        from repro.harness.cache import cached_stream
        from repro.harness.runner import make_config

        tasks = [points[index] for index in pending]
        for wkey in dict.fromkeys(map(_workload_key, tasks)):
            try:
                cached_stream(*wkey)
            except Exception:
                continue
        loaded: set[str] = set()
        for point in tasks:
            try:
                config = make_config(point.profile, point.scheme, point.size,
                                     port_scheme=point.port_scheme)
                fingerprint = kernel_fingerprint(config)
                if fingerprint not in loaded:
                    loaded.add(fingerprint)
                    load_kernel(config)
            except Exception:
                continue


# --------------------------------------------------------------- affinity
class _AffinityQueue:
    """Dispatch queue that keeps a workload on the worker that parsed it.

    Every fleet worker inherits every warm trace, but a trace's columns
    are parsed lazily in each process (``TraceStream.columns()``) and a
    process keeps one workload's instructions resident
    (``TraceStream.replay()``), so a worker that stays on one workload
    parses and materializes it once.  Points are grouped
    by workload key; ``pop`` prefers the worker's last workload, then the
    largest group no other busy worker currently owns (spreads distinct
    workloads across the fleet), then the largest group outright.  Ties
    break by insertion order, keeping dispatch deterministic for a fixed
    fleet state.
    """

    def __init__(self, points: list, pending: Iterable[int] = ()) -> None:
        self._points = points
        #: wkey -> FIFO list of point indices; dicts keep insertion order
        self._groups: dict[tuple, list[int]] = {}
        for index in pending:
            self.push(index)

    def push(self, index: int) -> None:
        self._groups.setdefault(_workload_key(self._points[index]),
                                []).append(index)

    def __len__(self) -> int:
        return sum(map(len, self._groups.values()))

    def pop(self, last: Optional[tuple] = None,
            owned: frozenset = frozenset()) -> Optional[int]:
        """Next point index for a worker whose previous point ran
        workload ``last``; ``owned`` holds workload keys other busy
        workers are executing right now."""
        if not self._groups:
            return None
        if last not in self._groups:
            last = max([wkey for wkey in self._groups if wkey not in owned]
                       or self._groups,
                       key=lambda wkey: len(self._groups[wkey]))
        group = self._groups[last]
        index = group.pop(0)
        if not group:
            del self._groups[last]
        return index


# ------------------------------------------------------------------ execution
def run_points(
    points: Iterable[SweepPoint],
    jobs: Optional[int] = None,
    cache=None,
) -> list[PointResult]:
    """Execute a sweep; returns one :class:`PointResult` per point, in order.

    ``cache`` is a :class:`~repro.harness.cache.ResultCache` (or None);
    cached points are served without simulating and every fresh success
    is written back as it resolves — kill the process at any moment and
    a rerun with the same cache resumes from the last completed point.

    ``jobs=1`` runs in-process; ``jobs > 1`` runs the pipe fleet of
    ``min(jobs, pending)`` forked workers.  Each point runs once: a
    crash or a dead worker fails that point and the sweep carries on.
    """
    points = list(points)
    jobs = resolve_jobs(jobs)
    results: list[Optional[PointResult]] = [None] * len(points)

    def finish(index: int, result: PointResult) -> None:
        results[index] = result
        if result.ok and not result.cached and cache is not None:
            cache.put(cache.key_for_point(result.point), result.stats)

    pending: list[int] = []
    for index, point in enumerate(points):
        cached = cache.get(cache.key_for_point(point)) if cache is not None \
            else None
        if cached is not None:
            finish(index, PointResult(point, stats=cached, cached=True))
        else:
            pending.append(index)

    if not pending:
        return results  # type: ignore[return-value]

    # import the simulator here, before any worker forks: the workers
    # inherit it instead of each importing it for its first point
    import repro.pipeline.processor  # noqa: F401
    if any(points[index].sampling is not None for index in pending):
        import repro.sampling.engine  # noqa: F401
    if jobs == 1:
        _run_serial(points, pending, finish)
    else:
        # warm every workload and kernel before the fork, so each worker
        # inherits them instead of loading its own
        WorkloadBroadcast().publish(points, pending)
        _run_fleet(points, pending, finish, min(jobs, len(pending)))
    return results  # type: ignore[return-value]


def _result(point: SweepPoint, stats: Optional[dict],
            error: Optional[str]) -> PointResult:
    """A :func:`_worker` outcome as the point's :class:`PointResult`."""
    return PointResult(point, error=error,
                       stats=None if stats is None else stats_from_dict(stats))


def _run_serial(points, pending, finish) -> None:
    """In-process execution in workload order (:class:`_AffinityQueue`
    with this process as its only worker).  Workloads and kernels load
    lazily, at their first point."""
    queue = _AffinityQueue(points, pending)
    last = None
    while (index := queue.pop(last)) is not None:
        last = _workload_key(points[index])
        finish(index, _result(points[index], *_worker(points[index])))


def _fleet_child(conn) -> None:
    """Fleet worker main: execute points from the pipe until the sentinel.

    Runs :func:`_worker` (which never raises), so the only exits are the
    ``None`` sentinel, a closed pipe, or the process dying.

    The heap inherited from the parent (modules, kernels, the trace
    memo) is frozen on entry: the worker's garbage collections then skip
    it instead of walking it over and over.
    """
    gc.freeze()
    try:
        while True:
            point = conn.recv()
            if point is None:
                return
            conn.send(_worker(point))
    except (EOFError, OSError, KeyboardInterrupt):
        return


@dataclass
class _Slot:
    """One fleet worker: a process, its pipe, and its in-flight point."""

    process: object
    conn: object
    index: Optional[int] = None  # None while idle


def _run_fleet(points, pending, finish, workers: int) -> None:
    """Forked pipe workers, fed one point at a time.

    A worker that dies (pipe EOF) fails the point it was running and is
    respawned for the rest of the sweep.  Workers start warm: they
    inherit the trace and kernel memos :meth:`WorkloadBroadcast.publish`
    filled before the fork.  Dispatch is workload-affine, so a freed
    worker preferentially receives a point of its previous workload,
    whose trace columns it has already parsed and whose instructions are
    still resident.  Scheduling never affects results — a point is a
    pure function of itself — only wall-clock.

    Workers are forked (where available) so test doubles installed on
    :data:`_POINT_RUNNER` propagate; each worker owns a dedicated duplex
    pipe, and the parent multiplexes completions with
    :func:`multiprocessing.connection.wait`.
    """
    import multiprocessing
    from multiprocessing.connection import wait as conn_wait

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        ctx = multiprocessing.get_context()

    def spawn() -> _Slot:
        parent_conn, child_conn = ctx.Pipe()
        process = ctx.Process(target=_fleet_child, args=(child_conn,),
                              daemon=True)
        process.start()
        child_conn.close()
        return _Slot(process=process, conn=parent_conn)

    def retire(slot: _Slot) -> None:
        try:
            slot.conn.close()
        except OSError:
            pass
        slot.process.kill()
        slot.process.join()

    slots: list[_Slot] = []
    try:
        for _ in range(workers):
            slots.append(spawn())
    except OSError:
        pass  # fork refused (rlimit, memory): run with what we got
    if not slots:  # cannot fork at all: run in-process
        _run_serial(points, pending, finish)
        return

    queue = _AffinityQueue(points, pending)
    #: slot position -> workload key of its latest point, kept across
    #: respawns (affinity is only a hint)
    last: dict[int, tuple] = {}
    # finished points commit (cache put) only after the freed workers
    # have been sent their next point, so the commit overlaps simulation
    # instead of idling the fleet
    resolved: list[tuple[int, PointResult]] = []

    def replace(position: int) -> None:
        """Kill the worker in ``position`` and start a cold one there."""
        retire(slots[position])
        slots[position] = spawn()

    try:
        while True:
            # dispatch to idle slots, best-affinity first
            for position, slot in enumerate(slots):
                if slot.index is not None:
                    continue
                owned = frozenset(_workload_key(points[other.index])
                                  for other in slots if other.index is not None)
                index = queue.pop(last.get(position), owned)
                if index is None:
                    break
                last[position] = _workload_key(points[index])
                try:
                    slot.conn.send(points[index])
                    slot.index = index
                except OSError:  # the worker died between points
                    replace(position)
                    resolved.append((index, PointResult(
                        points[index], error="worker process died before "
                                             "accepting the point")))
            while resolved:
                finish(*resolved.pop(0))

            busy = [slot.conn for slot in slots if slot.index is not None]
            if not busy:
                if not queue:
                    break
                continue  # every send failed: dispatch to the respawns
            ready = conn_wait(busy)
            for position, slot in enumerate(slots):
                if slot.index is None or slot.conn not in ready:
                    continue
                index, slot.index = slot.index, None
                try:
                    outcome = slot.conn.recv()
                except (EOFError, OSError):
                    # the worker died mid-point (segfault, OOM kill)
                    replace(position)
                    outcome = (None, "worker process died while running "
                                     "the point")
                resolved.append((index, _result(points[index], *outcome)))
    finally:
        for slot in slots:
            if slot.index is None:
                try:
                    slot.conn.send(None)
                except OSError:
                    pass
            retire(slot)


def collect_stats(results: list[PointResult]) -> dict[tuple, SimStats]:
    """Index successful results by (benchmark, scheme, size, seed); raises
    :class:`SweepError` if any point failed."""
    failures = [result for result in results if not result.ok]
    if failures:
        raise SweepError(failures)
    return {
        (r.point.benchmark, r.point.scheme, r.point.size, r.point.seed): r.stats
        for r in results
    }
