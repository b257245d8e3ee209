"""Parallel sweep execution engine with fault-tolerant workers.

Every paper figure is a grid of fully independent simulations.  This
module turns that grid into data: a sweep is a list of
:class:`SweepPoint` values (benchmark profile x scheme x register-file
size x instruction count x seed) which :func:`run_points` executes by
one of two routes, picked from its arguments:

* **in-process serial** for ``jobs=1`` without a ``timeout``;
* the **pipe fleet** (:func:`_run_fleet`) for ``jobs > 1`` or any
  ``timeout``: forked workers fed over pipes, a wall-clock deadline per
  in-flight point, kill-and-requeue for stragglers, respawn for dead
  workers, bounded retries with exponential backoff.

Both drive one scheduler core (:class:`_Scheduler`) whose slots are
this process or forked pipe workers: one requeue rule (retry with
backoff, or fail with a bounded error) and first-wins resolution.  A
worker death consumes one attempt, like a crash.

Results cross the process boundary as plain
:meth:`~repro.pipeline.stats.SimStats.to_dict` dicts (cheap to pickle); a
crashed simulation is captured as a per-point error — with its full
worker-side traceback — instead of killing the sweep.

Persistence is one cache-backed store: an optional
:class:`~repro.harness.cache.ResultCache` serves previously computed
points without re-simulating, and every fresh success is published to it
crash-safely (temp file, fsync, atomic rename) before ``progress`` fires
for that point.  A sweep killed mid-flight (SIGKILL, OOM, power) is
resumed by rerunning it against the same cache: finished points are
served as hits and only incomplete points are re-simulated.  A sweep
without a cache (``--no-cache``) does not resume.

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
assert.  Retries, backoff jitter, warming and affinity only affect
*when and where* a point runs, never its result.
"""

from __future__ import annotations

import gc
import os
import random
import time
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
    #: execution attempts this result took (1 = first try; 0 = not run,
    #: i.e. a cache hit)
    attempts: int = 1

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
    from repro.harness.cache import TraceStream, cached_stream
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
    if isinstance(workload, TraceStream):
        return simulate(config, workload.replay())
    return simulate(config, iter(workload))  # REPRO_NO_TRACE_CACHE


#: the function workers run for each point — a module-level indirection so
#: tests can substitute a controllable runner (fork-started children
#: inherit the patched value)
_POINT_RUNNER: Callable = simulate_point


def _worker(payload: tuple[int, SweepPoint]) -> tuple[int, Optional[dict], Optional[str]]:
    """Worker entry point: never raises, ships results as dicts.

    Failures carry the full traceback, not just ``repr(exc)`` — a sweep
    failure must be debuggable from the parent process alone, without
    re-running the point under a debugger.
    """
    index, point = payload
    try:
        return index, _POINT_RUNNER(point).to_dict(), None
    except Exception as exc:
        return index, None, _bound_error(
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


def _backoff(base: float, attempt: int, salt: int) -> float:
    """Exponential backoff with deterministic jitter.

    Jitter decorrelates retry bursts across points without introducing
    nondeterminism into tests: the jitter is a pure function of
    (point index, attempt).
    """
    if base <= 0:
        return 0.0
    jitter = random.Random((salt << 8) | attempt).uniform(0.0, base / 2)
    return base * (2 ** (attempt - 1)) + jitter


# ------------------------------------------------------------------ warm-up
def _workload_key(point: SweepPoint) -> tuple:
    """Identity of the workload a point consumes: the
    :func:`~repro.harness.cache.cached_stream` arguments, which are also
    its trace-memo key.  The profile enters by content, so a same-name
    variant of a benchmark is a different workload."""
    return (point.profile, point.insts, point.seed, 50)


class WorkloadBroadcast:
    """The pipe fleet's pre-fork warm step: fork inheritance is the
    broadcast.

    :meth:`publish` runs in the parent before any worker forks.  It
    resolves each distinct pending workload once through
    :func:`~repro.harness.cache.cached_stream` (a cold trace goes from
    the generator's column emitter straight to its ``.rtc`` file, with no
    instruction objects built) and loads each distinct cycle kernel
    into the kernel memo, so every forked worker inherits both memos and
    starts warm.  A sweep with more distinct workloads than the trace
    memo holds (32) keeps the most recent ones; workers read the rest
    from the ``.rtc`` files just written.  Stateless: the class only
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
    parses and materializes it once.  Tasks are grouped
    by workload key; ``pop`` prefers the worker's last workload, then the
    largest group no other busy worker currently owns (spreads distinct
    workloads across the fleet), then the largest group outright.  Ties
    break by insertion order, keeping dispatch deterministic for a fixed
    fleet state.
    """

    def __init__(self, points: list) -> None:
        self._points = points
        #: wkey -> FIFO list of (index, attempt); dicts keep insertion order
        self._groups: dict[tuple, list[tuple[int, int]]] = {}

    def push(self, index: int, attempt: int) -> None:
        self._groups.setdefault(_workload_key(self._points[index]),
                                []).append((index, attempt))

    def __len__(self) -> int:
        return sum(map(len, self._groups.values()))

    def pop(self, last: Optional[tuple] = None,
            owned: frozenset = frozenset()) -> Optional[tuple[int, int]]:
        """Next (index, attempt) for a worker whose previous task ran
        workload ``last``; ``owned`` holds workload keys other busy
        workers are executing right now."""
        if not self._groups:
            return None
        if last not in self._groups:
            last = max([wkey for wkey in self._groups if wkey not in owned]
                       or self._groups,
                       key=lambda wkey: len(self._groups[wkey]))
        tasks = self._groups[last]
        task = tasks.pop(0)
        if not tasks:
            del self._groups[last]
        return task


# ---------------------------------------------------------------- scheduler
@dataclass(frozen=True)
class _Lease:
    """One in-flight execution of a point."""

    key: str
    index: int
    attempt: int
    #: who runs it: a pipe-fleet slot position, or None for the serial
    #: route's in-process run
    worker: Optional[int]
    #: monotonic wall-clock bound, fixed at lease time; None means
    #: unbounded
    deadline: Optional[float] = None


class _Scheduler:
    """The queue/retry core behind both sweep routes.

    Owns the workload-affine ready queue, the backoff-delayed retries,
    the in-flight leases and the unresolved set.  A route leases points
    to its slots — this process in :func:`_run_serial`, forked pipe
    workers in :func:`_run_fleet` — and reports every attempt's outcome
    through :meth:`settle`; ``finish`` fires exactly once per point.
    Not thread-safe.
    """

    def __init__(self, points: list, pending: list[int],
                 finish: Callable[[int, PointResult], None],
                 retries: int, retry_delay: float) -> None:
        self.points = points
        self.retries = retries
        self.retry_delay = retry_delay
        self.queue = _AffinityQueue(points)
        for index in pending:
            self.queue.push(index, 1)
        #: (ready-at monotonic time, index, attempt) backing off
        self.delayed: list[tuple[float, int, int]] = []
        self.leases: dict[str, _Lease] = {}
        self.unresolved = set(pending)
        self._finish = finish
        self._seq = 0
        #: worker -> workload key of its latest lease, kept across
        #: completions (and respawns: affinity is only a hint)
        self._last: dict[Optional[int], tuple] = {}

    def lease(self, worker: Optional[int],
              ttl: Optional[float]) -> Optional[_Lease]:
        """Lease the best ready point to ``worker`` for ``ttl`` seconds
        (None: unbounded); returns None when nothing is ready."""
        now = time.monotonic()
        if self.delayed:
            ready = sorted(entry for entry in self.delayed if entry[0] <= now)
            if ready:
                self.delayed = [e for e in self.delayed if e[0] > now]
                for _, index, attempt in ready:
                    self.queue.push(index, attempt)
        owned = frozenset(_workload_key(self.points[lease.index])
                          for lease in self.leases.values()
                          if lease.worker != worker)
        task = self.queue.pop(self._last.get(worker), owned)
        if task is None:
            return None
        index, attempt = task
        self._last[worker] = _workload_key(self.points[index])
        self._seq += 1
        lease = _Lease(f"L{self._seq}-{index}.{attempt}", index, attempt,
                       worker, None if ttl is None else now + ttl)
        self.leases[lease.key] = lease
        return lease

    def settle(self, lease: _Lease, stats=None,
               error: Optional[str] = None) -> bool:
        """Report a leased attempt's outcome: ``stats`` commits the
        point, ``error`` requeues it.  Returns True when a retry was
        granted."""
        self.leases.pop(lease.key, None)
        if error is not None:
            return self.requeue(lease.index, lease.attempt, error)
        self.resolve(lease.index, PointResult(
            self.points[lease.index], stats=stats, attempts=lease.attempt))
        return False

    def expire(self, now: float) -> list[_Lease]:
        """Release and return every lease past its deadline."""
        expired = [lease for lease in self.leases.values()
                   if lease.deadline is not None and now >= lease.deadline]
        for lease in expired:
            del self.leases[lease.key]
        return expired

    def next_wake(self) -> Optional[float]:
        """The soonest lease deadline or backoff expiry, or None."""
        return min([lease.deadline for lease in self.leases.values()
                    if lease.deadline is not None]
                   + [entry[0] for entry in self.delayed], default=None)

    def requeue(self, index: int, attempt: int, error: str) -> bool:
        """An attempt failed (crash, worker death, timeout): schedule a
        retry after backoff and return True, or — retries spent —
        resolve the point as failed (with the bounded error) and return
        False."""
        if attempt > self.retries:
            self.resolve(index, PointResult(self.points[index],
                                            error=_bound_error(error),
                                            attempts=attempt))
            return False
        delay = _backoff(self.retry_delay, attempt, index)
        self.delayed.append((time.monotonic() + delay, index, attempt + 1))
        return True

    def resolve(self, index: int, result: PointResult) -> bool:
        """Commit ``result`` unless the point already resolved (first
        resolution wins; later duplicates are stale)."""
        if index not in self.unresolved:
            return False
        self.unresolved.discard(index)
        self._finish(index, result)
        return True


# ------------------------------------------------------------------ execution
def run_points(
    points: Iterable[SweepPoint],
    jobs: Optional[int] = None,
    cache=None,
    progress: Optional[Callable[[int, int, PointResult], None]] = None,
    *,
    timeout: Optional[float] = None,
    retries: int = 0,
    retry_delay: float = 0.25,
) -> list[PointResult]:
    """Execute a sweep; returns one :class:`PointResult` per point, in order.

    ``cache`` is a :class:`~repro.harness.cache.ResultCache` (or None);
    cached points are served without simulating and every fresh success
    is written back before its ``progress`` call — kill the process at
    any moment and a rerun with the same cache resumes from the last
    completed point.  ``progress(done, total, result)`` fires once per
    resolved point.

    ``jobs=1`` without a ``timeout`` runs in-process; ``jobs > 1`` or a
    ``timeout`` runs the pipe fleet of ``min(jobs, pending)`` forked
    workers.  Resilience knobs (all off by default):

    * ``timeout`` — per-point wall-clock seconds; a straggler's worker is
      killed and the point requeued (consuming a retry) until ``retries``
      is exhausted, then reported as a per-point failure.
    * ``retries`` — re-executions granted per point after a crash, a
      worker death, or a timeout; waits ``retry_delay * 2**(attempt-1)``
      plus deterministic jitter between attempts.
    """
    points = list(points)
    total = len(points)
    jobs = resolve_jobs(jobs)
    results: list[Optional[PointResult]] = [None] * total
    done = 0

    def finish(index: int, result: PointResult) -> None:
        nonlocal done
        results[index] = result
        done += 1
        if result.ok and not result.cached and cache is not None:
            cache.put(cache.key_for_point(result.point), result.stats)
        if progress is not None:
            progress(done, total, result)

    pending: list[int] = []
    for index, point in enumerate(points):
        cached = cache.get(cache.key_for_point(point)) if cache is not None \
            else None
        if cached is not None:
            finish(index, PointResult(point, stats=cached, cached=True,
                                      attempts=0))
        else:
            pending.append(index)

    if not pending:
        return results  # type: ignore[return-value]

    # import the simulator here, before any worker forks: the workers
    # inherit it instead of each importing it for its first point
    import repro.pipeline.processor  # noqa: F401
    if any(points[index].sampling is not None for index in pending):
        import repro.sampling.engine  # noqa: F401
    if jobs == 1 and timeout is None:
        _run_serial(points, pending, finish, retries, retry_delay)
    else:
        # a wall-clock bound needs killable workers, even for jobs=1.
        # Warm every workload and kernel before the fork, so each worker
        # inherits them instead of loading its own
        WorkloadBroadcast().publish(points, pending)
        _run_fleet(points, pending, finish, min(jobs, len(pending)),
                   timeout, retries, retry_delay)
    return results  # type: ignore[return-value]


def _alarm_usable() -> bool:
    """Whether the SIGALRM watchdog can run here (POSIX, main thread)."""
    import signal
    import threading

    return hasattr(signal, "SIGALRM") \
        and threading.current_thread() is threading.main_thread()


def _run_local(index: int, point: SweepPoint, timeout: Optional[float]):
    """Run one point in this process: ``(stats, error)``.

    In-process execution is the serial route and the degrade path of a
    pipe fleet that cannot fork, so it must honour ``timeout`` too: a
    SIGALRM itimer interrupts the point in-process.  A ``timeout`` is
    only passed where :func:`_alarm_usable` holds.
    """
    if timeout is None:
        _, stats, error = _worker((index, point))
    else:
        import signal

        armed = [True]

        def _alarm(signum, frame):
            if armed[0]:
                raise TimeoutError(
                    f"point exceeded the {timeout}s wall-clock budget "
                    f"(serial watchdog)")

        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            _, stats, error = _worker((index, point))
        except TimeoutError as exc:  # fired outside _worker's own handler
            stats, error = None, f"TimeoutError: {exc}"
        finally:
            armed[0] = False
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
    return (None if stats is None else stats_from_dict(stats)), error


def _run_serial(points, pending, finish, retries: int,
                retry_delay: float, timeout: Optional[float] = None) -> None:
    """In-process execution: the :class:`_Scheduler` core with this
    process as its only slot (bounded retries, backoff, workload order).
    Workloads and kernels load lazily, at their first point.

    ``timeout`` keeps the per-point wall-clock bound alive on the
    degrade path of a pipe fleet that cannot fork — enforced by
    :func:`_run_local`, never silently dropped.
    """
    core = _Scheduler(points, pending, finish, retries, retry_delay)
    while core.unresolved:
        lease = core.lease(None, None)
        if lease is None:  # only backoff-delayed retries remain
            time.sleep(max(0.0, core.next_wake() - time.monotonic()))
            continue
        core.settle(lease, *_run_local(lease.index, points[lease.index],
                                       timeout))


def _fleet_child(conn) -> None:
    """Fleet worker main: execute tasks from the pipe until the sentinel.

    Runs :func:`_worker` (which never raises), so the only exits are the
    ``None`` sentinel, a closed pipe, or being killed by the parent's
    timeout watchdog.

    The heap inherited from the parent (modules, kernels, the trace
    memo) is frozen on entry: the worker's garbage collections then skip
    it instead of walking it over and over.
    """
    gc.freeze()
    try:
        while True:
            task = conn.recv()
            if task is None:
                return
            conn.send(_worker(task))
    except (EOFError, OSError, KeyboardInterrupt):
        return


@dataclass
class _Slot:
    """One fleet worker: a process, its pipe, and its current lease."""

    process: object
    conn: object
    lease: Optional[_Lease] = None  # None while idle


def _run_fleet(points, pending, finish, workers: int,
               timeout: Optional[float], retries: int,
               retry_delay: float) -> None:
    """Self-healing worker fleet: the :class:`_Scheduler` core with
    forked pipe workers as its slots.

    Each dispatched point is a lease whose deadline is ``timeout`` after
    dispatch; a straggler past it is killed and requeued, and a worker
    that dies (pipe EOF) is respawned and its point requeued — either
    way the attempt is consumed, and :meth:`_Scheduler.requeue` retries
    with backoff or fails the point.  Workers start warm: they inherit
    the trace and kernel memos :meth:`WorkloadBroadcast.publish` filled
    before the fork.  Dispatch is workload-affine, so a freed worker
    preferentially receives a point of its previous workload, whose
    trace columns it has already parsed and whose instructions are
    still resident.  Scheduling never affects
    results — a point is a pure function of itself — only wall-clock.

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
    if not slots:
        # cannot fork at all: degrade to in-process serial execution.  A
        # wall-clock bound then needs SIGALRM; off the main thread there
        # is no watchdog left, so the points fail rather than run
        # unbounded
        if timeout is None or _alarm_usable():
            _run_serial(points, pending, finish, retries, retry_delay,
                        timeout=timeout)
            return
        for index in pending:
            finish(index, PointResult(points[index], attempts=0, error=(
                f"RuntimeError: cannot enforce the {timeout}s wall-clock "
                f"budget: fork was refused and SIGALRM is unavailable off "
                f"the main thread")))
        return

    # finished points commit (cache put, progress callback)
    # only after the freed workers have been sent their next point, so
    # the commit overlaps simulation instead of idling the fleet
    resolved: list[tuple[int, PointResult]] = []
    core = _Scheduler(points, pending,
                      lambda index, result: resolved.append((index, result)),
                      retries, retry_delay)

    def commit() -> None:
        while resolved:
            finish(*resolved.pop(0))

    def replace(position: int) -> None:
        """Kill the worker in ``position`` and start a cold one there."""
        retire(slots[position])
        slots[position] = spawn()

    try:
        while core.unresolved:
            # dispatch ready points to idle slots, best-affinity first
            for position, slot in enumerate(slots):
                if slot.lease is not None:
                    continue
                lease = core.lease(position, timeout)
                if lease is None:
                    break
                slot.lease = lease
                try:
                    slot.conn.send((lease.index, points[lease.index]))
                except OSError:
                    # worker died between tasks: respawn and requeue
                    replace(position)
                    core.settle(lease, error="worker process died before "
                                             "accepting the point")
            commit()

            busy = [position for position, slot in enumerate(slots)
                    if slot.lease is not None]
            wake = core.next_wake()  # a deadline or a backoff expiry
            if not busy:
                if wake is None:
                    break  # nothing in flight or backing off
                time.sleep(max(0.0, wake - time.monotonic()))
                continue
            ready = conn_wait([slots[position].conn for position in busy],
                              timeout=None if wake is None
                              else max(0.0, wake - time.monotonic()))

            for position in busy:
                slot = slots[position]
                if slot.conn not in ready:
                    continue
                lease, slot.lease = slot.lease, None
                try:
                    _, stats, error = slot.conn.recv()
                except (EOFError, OSError):
                    # the worker died mid-point (segfault, OOM kill)
                    replace(position)
                    core.settle(lease, error="worker process died while "
                                             "running the point")
                    continue
                core.settle(lease, None if stats is None
                            else stats_from_dict(stats), error)

            # timeout watchdog: kill stragglers past their deadline
            for lease in core.expire(time.monotonic()):
                replace(lease.worker)
                core.settle(lease, error=f"TimeoutError: point exceeded the "
                                         f"{timeout}s wall-clock budget "
                                         f"(attempt {lease.attempt})")
        commit()
    finally:
        for slot in slots:
            if slot.lease is None:
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
