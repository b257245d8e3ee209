"""Chaos campaign: seeded fault injection against a live sweep fleet.

The distributed fleet claims a strong invariant: no matter what dies,
stalls, lies or disconnects, a sweep either finishes **bit-identical**
to a serial reference run or fails loudly.  This module attacks that
claim the same way :mod:`repro.faults` attacks the renamer's recovery
machinery — a seeded campaign injects faults, classifies what each one
did, and gates on the taxonomy:

* **masked** — the fault landed where it could do no harm (an idle
  worker killed, an upload mangler that never got an upload);
* **detected** — the fleet refused the faulty party outright (a
  version-skewed worker's fingerprint rejected at ``hello``);
* **recovered** — the fault cost work that the fleet re-leased,
  re-ran or re-uploaded to the same final bits (an expired lease, a
  rejected upload, a coordinator restart resumed from its result
  cache);
* **silent** — the fault changed the sweep's results, or a corruption
  passed a checkpoint that must have caught it.  **Never acceptable.**

Every campaign round runs a small sweep grid through a real coordinator
and real forked worker processes on localhost, injects its drawn faults
(SIGKILL mid-point, connection drops, truncated/corrupted uploads,
heartbeat silence past the lease deadline, coordinator restart,
fingerprint skew), then compares the surviving results against an
in-process ``jobs=1`` reference — byte equality of the stats dicts, not
approximation.  Unexpected outcomes are shrunk ddmin-style to a minimal
fault plan that still reproduces them, and reported through the same
:class:`~repro.faults.report.CampaignReport` as the microarchitectural
campaign.
"""

from __future__ import annotations

import json
import os
import random
import signal
import tempfile
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional

from repro.faults.report import CampaignReport
from repro.fleet.cas import ContentStore
from repro.fleet.coordinator import FleetConfig, FleetCoordinator
from repro.fleet.worker import WorkerChaos, WorkerConfig, worker_main

#: chaos fault kinds (disjoint from repro.faults.injectors.KINDS)
KINDS = (
    "kill_worker",          # SIGKILL a worker process mid-sweep
    "partition",            # hard-close live worker connections
    "truncate_upload",      # worker sends half a result body
    "corrupt_upload",       # worker flips a bit in a result body
    "stall_worker",         # worker goes silent past the lease deadline
    "restart_coordinator",  # coordinator killed and restarted mid-sweep
    "version_skew",         # a worker with a wrong code fingerprint
)

#: outcomes each kind may legitimately produce; anything else is a
#: campaign failure (and ``silent`` is never in any set)
EXPECTED_OUTCOMES = {
    "kill_worker": {"masked", "recovered"},
    "partition": {"masked", "recovered"},
    "truncate_upload": {"masked", "recovered"},
    "corrupt_upload": {"masked", "recovered"},
    "stall_worker": {"masked", "recovered"},
    "restart_coordinator": {"masked", "recovered"},
    "version_skew": {"detected"},
}


@dataclass(frozen=True)
class ChaosSpec:
    """One drawn fault: what, when, and against whom."""

    kind: str
    round_index: int
    #: target worker slot (upload/stall/kill faults), or None
    worker: Optional[int] = None
    #: seconds after round start at which a harness-side fault fires
    delay: float = 0.0

    def to_dict(self) -> dict:
        return {"kind": self.kind, "round": self.round_index,
                "worker": self.worker, "delay": round(self.delay, 3)}


@dataclass
class ChaosRecord:
    """One injected fault and its classification."""

    index: int
    spec: ChaosSpec
    outcome: str
    expected: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return {"index": self.index, "spec": self.spec.to_dict(),
                "outcome": self.outcome, "expected": self.expected,
                "detail": self.detail}


@dataclass(frozen=True)
class ChaosConfig:
    """Campaign shape.  Defaults give ~8 faults per round on a 6-point
    grid with sub-second leases — dense enough that a 100-fault gate
    finishes in minutes, slow enough that every fault has a live sweep
    to land on."""

    seed: int = 0
    faults: int = 100
    workers: int = 3
    points: int = 6
    insts: int = 800
    profile: str = "gsm"
    schemes: tuple = ("sharing", "conventional")
    lease_deadline: float = 1.2
    heartbeat_interval: float = 0.25
    #: lease re-grants per point (generous: chaos may cost several)
    retries: int = 6
    #: wall-clock bound on one round before the harness declares it hung
    round_timeout: float = 90.0
    shrink: bool = True
    #: scratch root (tempdir when empty); every round isolates its own
    #: result cache and per-worker trace dirs under it
    workdir: str = ""


# ------------------------------------------------------------------ planning
def _plan_round(config: ChaosConfig, round_index: int,
                budget: int) -> list[ChaosSpec]:
    """Draw this round's fault plan (pure function of seed + round)."""
    rng = random.Random((config.seed << 16) | round_index)
    count = min(budget, rng.randint(3, 6))
    specs: list[ChaosSpec] = []
    used_restart = False
    used_skew = False
    kills: set[int] = set()
    for _ in range(count):
        kind = rng.choice(KINDS)
        if kind == "restart_coordinator":
            if used_restart:
                kind = "kill_worker"
            used_restart = True
        if kind == "version_skew":
            if used_skew:
                kind = "partition"
            used_skew = True
        worker: Optional[int] = None
        delay = rng.uniform(0.2, 1.4)
        if kind == "kill_worker":
            candidates = [w for w in range(config.workers)
                          if w not in kills]
            if not candidates:
                kind = "partition"
            else:
                worker = rng.choice(candidates)
                kills.add(worker)
        if kind in ("truncate_upload", "corrupt_upload", "stall_worker"):
            worker = rng.randrange(config.workers)
        specs.append(ChaosSpec(kind=kind, round_index=round_index,
                               worker=worker, delay=delay))
    return specs


def _round_points(config: ChaosConfig, round_index: int) -> list:
    from repro.harness.parallel import SweepPoint
    from repro.workloads.profiles import BENCHMARKS

    profile = BENCHMARKS[config.profile]
    return [
        SweepPoint(profile=profile,
                   scheme=config.schemes[i % len(config.schemes)],
                   size=48, insts=config.insts,
                   seed=1 + round_index * config.points + i)
        for i in range(config.points)
    ]


# ----------------------------------------------------------------- one round
class RoundResult:
    """Everything one round leaves behind for classification."""

    def __init__(self) -> None:
        self.coordinator_counters: dict[str, int] = {}
        self.coordinator_log: list[dict] = []
        self.worker_summaries: dict[int, dict] = {}
        self.killed: set[int] = set()
        self.dropped = 0
        self.restart_pending = 0  # points unresolved at coordinator restart
        self.divergences: list[str] = []
        self.errors: list[str] = []
        self.timed_out = False

    def counter(self, name: str) -> int:
        return self.coordinator_counters.get(name, 0)

    def worker_chaos_fired(self, worker: int, event: str) -> int:
        summary = self.worker_summaries.get(worker) or {}
        return sum(1 for entry in summary.get("chaos", [])
                   if entry.get("event") == event)


def _merge_counters(into: dict, counters: dict) -> None:
    for name, value in counters.items():
        into[name] = into.get(name, 0) + value


def _run_round(config: ChaosConfig, round_index: int,
               specs: list[ChaosSpec], workdir: Path) -> RoundResult:
    """Execute one chaos round: sweep + injections + bit-identity check."""
    from repro.harness.cache import ResultCache
    from repro.harness.parallel import PointResult, run_points

    outcome = RoundResult()
    points = _round_points(config, round_index)

    # serial reference, in-process (this also pregenerates every trace
    # into the parent's trace cache — the coordinator's CAS — so workers
    # exercise the blob_get path instead of all generating locally)
    reference = run_points(points, jobs=1)
    failed = [r for r in reference if not r.ok]
    if failed:  # the reference itself must be beyond suspicion
        raise RuntimeError(
            f"serial reference failed on {failed[0].point.label()}: "
            f"{failed[0].error}")
    ref_dicts = [r.stats.to_dict() for r in reference]

    round_dir = workdir / f"round{round_index:03d}"
    round_dir.mkdir(parents=True, exist_ok=True)
    cache = ResultCache(round_dir / "results")
    store = ContentStore()  # parent-default caches: shared traces
    results: dict[int, object] = {}
    lock = threading.Lock()

    def finish(index: int, result) -> None:
        if result.ok:
            cache.put(cache.key_for_point(result.point), result.stats)
        with lock:
            results[index] = result

    fleet_cfg = FleetConfig(
        host="127.0.0.1", port=0,
        lease_deadline=config.lease_deadline,
        # never steal work while remotes are alive: the faults must land
        # on remote executions, not on a coordinator racing its fleet
        local_fallback_after=max(4 * config.lease_deadline, 3.0),
        socket_timeout=30.0)

    restart_at = [spec.delay for spec in specs
                  if spec.kind == "restart_coordinator"]
    kills = sorted((spec.delay, spec.worker) for spec in specs
                   if spec.kind == "kill_worker")
    partitions = sorted(spec.delay for spec in specs
                        if spec.kind == "partition")
    skewed = any(spec.kind == "version_skew" for spec in specs)

    # ---------------------------------------------------------- first serve
    pending = [i for i in range(len(points)) if i not in results]
    coordinator = FleetCoordinator(points, pending, finish, fleet_cfg,
                                   retries=config.retries, store=store)
    host, port = coordinator.start()

    # ---------------------------------------------------------- the workers
    import multiprocessing
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        ctx = multiprocessing.get_context()

    processes: dict[int, object] = {}
    event_paths: dict[int, Path] = {}

    def spawn_worker(slot: int, fingerprint: str = "") -> None:
        chaos = WorkerChaos(
            truncate_uploads=sum(1 for s in specs
                                 if s.kind == "truncate_upload"
                                 and s.worker == slot),
            corrupt_uploads=sum(1 for s in specs
                                if s.kind == "corrupt_upload"
                                and s.worker == slot),
            stall_points=sum(1 for s in specs
                             if s.kind == "stall_worker"
                             and s.worker == slot),
            stall_duration=config.lease_deadline + 0.75)
        events_path = round_dir / f"worker{slot}.json"
        event_paths[slot] = events_path
        wcfg = WorkerConfig(
            host=host, port=port, name=f"r{round_index}w{slot}",
            heartbeat_interval=config.heartbeat_interval,
            reconnect_attempts=20, reconnect_delay=0.2,
            connect_timeout=5.0, socket_timeout=30.0, seed=slot,
            events_path=str(events_path),
            trace_dir=str(round_dir / f"trace{slot}"),
            cache_dir=str(round_dir / f"cache{slot}"),
            fingerprint=fingerprint,
            close_fds=(coordinator.listener_fd,))
        process = ctx.Process(target=worker_main, args=(wcfg, chaos),
                              daemon=True)
        process.start()
        processes[slot] = process

    for slot in range(config.workers):
        spawn_worker(slot)
    if skewed:
        # the extra, incompatible worker: slot index past the real fleet
        spawn_worker(config.workers, fingerprint="skewed-fingerprint")

    # --------------------------------------------------- harness-side faults
    start = time.monotonic()
    abort = threading.Event()
    injector_stop = threading.Event()

    def injector() -> None:
        timeline = sorted(
            [(delay, "kill", worker) for delay, worker in kills]
            + [(delay, "partition", None) for delay in partitions]
            + [(delay, "restart", None) for delay in restart_at])
        for delay, action, worker in timeline:
            wait = start + delay - time.monotonic()
            if wait > 0 and injector_stop.wait(wait):
                return
            if action == "kill":
                process = processes.get(worker)
                if process is not None and process.is_alive():
                    os.kill(process.pid, signal.SIGKILL)
                    outcome.killed.add(worker)
            elif action == "partition":
                outcome.dropped += coordinator.drop_connections(
                    1, random.Random(
                        f"{config.seed}:{round_index}:{delay}"))
            elif action == "restart":
                abort.set()

    injector_thread = threading.Thread(target=injector, daemon=True)
    injector_thread.start()

    # hard watchdog: a hung round must fail the campaign, not wedge it
    hard_stop = threading.Event()

    def _hard_timeout() -> None:
        hard_stop.set()
        abort.set()

    watchdog = threading.Timer(config.round_timeout, _hard_timeout)
    watchdog.daemon = True
    watchdog.start()

    def snapshot_coordinator(coord: FleetCoordinator) -> None:
        snap = coord.events.snapshot()
        _merge_counters(outcome.coordinator_counters, snap["counters"])
        outcome.coordinator_log.extend(snap["log"])

    completed = coordinator.run(stop=abort)
    if completed:
        coordinator.drain()
    coordinator.stop()
    snapshot_coordinator(coordinator)

    if not completed and abort.is_set() and not hard_stop.is_set():
        # ------------------------------------------------- the restart
        # a new coordinator process-equivalent: same port, fresh state,
        # resumed from the round's result cache exactly as a rerun would
        pending2 = []
        for i, point in enumerate(points):
            stats = cache.get(cache.key_for_point(point))
            if stats is None:
                pending2.append(i)
            else:
                results[i] = PointResult(point, stats=stats, cached=True,
                                         attempts=0)
        outcome.restart_pending = len(pending2)
        completed = not pending2
        if pending2:
            for retry, fallback_after in enumerate(
                    (fleet_cfg.local_fallback_after, 1.0)):
                coordinator2 = FleetCoordinator(
                    points, pending2, finish,
                    replace(fleet_cfg, port=port,
                            local_fallback_after=fallback_after),
                    retries=config.retries, store=store)
                try:
                    coordinator2.start()
                    break
                except OSError:
                    # port still draining a half-closed socket: give it
                    # a beat and retry once, with a shorter local fallback
                    if retry:
                        raise
                    time.sleep(0.5)
            completed = coordinator2.run(stop=hard_stop)
            if completed:
                coordinator2.drain()
            coordinator2.stop()
            snapshot_coordinator(coordinator2)

    watchdog.cancel()
    injector_stop.set()
    injector_thread.join(timeout=5.0)
    outcome.timed_out = hard_stop.is_set()

    # ------------------------------------------------------- worker cleanup
    for slot, process in processes.items():
        process.join(timeout=8.0)
        if process.is_alive():
            process.terminate()
            process.join(timeout=2.0)
        if process.is_alive():  # pragma: no cover - last resort
            process.kill()
            process.join()
    for slot, path in event_paths.items():
        try:
            outcome.worker_summaries[slot] = json.loads(path.read_text())
        except (OSError, ValueError):
            pass  # SIGKILLed or still mid-write: no summary, by design

    # -------------------------------------------------- the bit-identity gate
    for i, point in enumerate(points):
        result = results.get(i)
        if result is None:
            outcome.divergences.append(
                f"{point.label()}: never resolved")
            continue
        if not result.ok:
            outcome.errors.append(
                f"{point.label()}: {str(result.error)[:200]}")
            continue
        if result.stats.to_dict() != ref_dicts[i]:
            outcome.divergences.append(
                f"{point.label()}: stats differ from the serial reference")
    return outcome


# ------------------------------------------------------------ classification
def _classify_round(specs: list[ChaosSpec],
                    outcome: RoundResult) -> list[tuple[ChaosSpec, str, str]]:
    """(spec, outcome, detail) for every fault of one round."""
    verdicts: list[tuple[ChaosSpec, str, str]] = []

    diverged = bool(outcome.divergences) or outcome.timed_out
    # round-level pools (faults of one kind share observable counters);
    # fired counts dedup by (worker, kind) — several specs may drive one
    # worker's countdown, but its events must be counted once
    upload_workers = {s.worker for s in specs
                      if s.kind in ("truncate_upload", "corrupt_upload")}
    mangles_fired = sum(
        outcome.worker_chaos_fired(worker, f"chaos_{kind}")
        for worker, kind in {(s.worker, s.kind) for s in specs
                             if s.kind in ("truncate_upload",
                                           "corrupt_upload")})
    # mangles whose connection died before the coordinator saw them:
    # nothing to refuse, nothing committed — they don't need a counter
    mangles_void = sum(
        outcome.worker_chaos_fired(worker, "chaos_mangle_void")
        for worker in upload_workers)
    mangles_delivered = max(0, mangles_fired - mangles_void)
    rejected = outcome.counter("uploads_rejected")
    expiries = outcome.counter("leases_expired")
    stale = outcome.counter("stale_uploads")
    # a mangled upload is *refused* either by digest rejection or — when
    # its lease expired during the retries — as a stale-lease discard;
    # both keep it out of the results, which is the invariant
    refused = rejected + stale
    expired_workers = {entry.get("worker")
                       for entry in outcome.coordinator_log
                       if entry.get("event") == "leases_expired"}

    for spec in specs:
        if diverged:
            verdicts.append((spec, "silent",
                             "; ".join(outcome.divergences)[:400]
                             or "round timed out"))
            continue
        if outcome.errors:
            verdicts.append((spec, "error",
                             "; ".join(outcome.errors)[:400]))
            continue
        kind = spec.kind
        if kind == "kill_worker":
            if spec.worker not in outcome.killed:
                verdicts.append((spec, "masked",
                                 "worker already exited before the kill"))
            elif f"r{spec.round_index}w{spec.worker}" in expired_workers \
                    or expiries > 0:
                verdicts.append((spec, "recovered",
                                 f"{expiries} lease expiries requeued"))
            else:
                verdicts.append((spec, "masked",
                                 "worker held no lease when killed"))
        elif kind == "partition":
            if outcome.dropped == 0:
                verdicts.append((spec, "masked",
                                 "no live connection to drop"))
            else:
                verdicts.append((spec, "recovered",
                                 f"{outcome.dropped} connection(s) "
                                 f"dropped; fleet reconnected"))
        elif kind in ("truncate_upload", "corrupt_upload"):
            fired = outcome.worker_chaos_fired(spec.worker,
                                               f"chaos_{kind}")
            if fired == 0:
                verdicts.append((spec, "masked",
                                 "worker never got an upload to mangle"))
            elif mangles_delivered == 0:
                verdicts.append((spec, "masked",
                                 "mangled upload(s) died with their "
                                 "connection before delivery"))
            elif refused >= mangles_delivered:
                verdicts.append((spec, "recovered",
                                 f"{rejected} rejection(s) + {stale} "
                                 f"stale discard(s) covered "
                                 f"{mangles_delivered} delivered mangled "
                                 f"upload(s)"))
            else:
                verdicts.append((spec, "silent",
                                 f"{mangles_delivered} delivered mangled "
                                 f"upload(s) but only {refused} "
                                 f"refusal(s)"))
        elif kind == "stall_worker":
            fired = outcome.worker_chaos_fired(spec.worker,
                                               "chaos_stall_point")
            if fired == 0:
                verdicts.append((spec, "masked",
                                 "worker never got a point to stall on"))
            elif expiries + stale > 0:
                verdicts.append((spec, "recovered",
                                 f"{expiries} expiries, {stale} stale "
                                 f"upload(s) discarded"))
            elif outcome.restart_pending > 0:
                # the coordinator restart discarded all lease state, so
                # the expiry this stall would have caused is unprovable;
                # the cache resume re-ran whatever was outstanding
                verdicts.append((spec, "masked",
                                 "lease state lost to the coordinator "
                                 "restart before the stall could expire"))
            else:
                verdicts.append((spec, "silent",
                                 "stall past the deadline left no "
                                 "expiry or stale-upload trace"))
        elif kind == "restart_coordinator":
            if outcome.restart_pending > 0:
                verdicts.append((spec, "recovered",
                                 f"resumed {outcome.restart_pending} "
                                 f"point(s) from the result cache"))
            else:
                verdicts.append((spec, "masked",
                                 "sweep finished before the restart"))
        elif kind == "version_skew":
            if outcome.counter("fingerprint_rejections") > 0:
                verdicts.append((spec, "detected",
                                 "skewed worker rejected at hello"))
            else:
                verdicts.append((spec, "silent",
                                 "skewed worker was never rejected"))
        else:  # pragma: no cover - plan and kinds are drawn together
            verdicts.append((spec, "error", f"unknown kind {kind!r}"))
    return verdicts


# ----------------------------------------------------------------- shrinking
def _ddmin(specs: list[ChaosSpec],
           fails: Callable[[list[ChaosSpec]], bool],
           budget: int = 12) -> list[ChaosSpec]:
    """Minimise a fault plan while ``fails`` holds (ddmin over the list)."""
    current = list(specs)
    attempts = 0
    chunk = max(1, len(current) // 2)
    while chunk >= 1 and attempts < budget:
        shrunk = False
        for offset in range(0, len(current), chunk):
            candidate = current[:offset] + current[offset + chunk:]
            if not candidate:
                continue
            attempts += 1
            if fails(candidate):
                current = candidate
                shrunk = True
                break
            if attempts >= budget:
                break
        if not shrunk:
            chunk //= 2
    return current


# ------------------------------------------------------------------ campaign
def run_campaign(
    config: Optional[ChaosConfig] = None,
    progress: Optional[Callable[[ChaosRecord], None]] = None,
    **overrides,
) -> CampaignReport:
    """Run a chaos campaign; returns the aggregated report.

    Deterministic per seed at the *plan* level (which faults fire, when,
    against whom); the classifications may differ across machines (a
    kill can land before or after a lease), which is exactly why every
    kind carries an expected-outcome *set*.  The invariants are machine-
    independent: zero ``silent`` classifications, zero unexpected
    outcomes, and every round bit-identical to its serial reference.
    """
    if config is None:
        config = ChaosConfig(**overrides)
    elif overrides:
        raise TypeError("pass either a ChaosConfig or keyword overrides")

    workdir = Path(config.workdir) if config.workdir \
        else Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    workdir.mkdir(parents=True, exist_ok=True)

    records: list[ChaosRecord] = []
    report = CampaignReport(seed=config.seed, injections=config.faults,
                            schemes=tuple(config.schemes),
                            title="fleet chaos campaign")
    round_index = 0
    while len(records) < config.faults:
        specs = _plan_round(config, round_index,
                            config.faults - len(records))
        outcome = _run_round(config, round_index, specs, workdir)
        verdicts = _classify_round(specs, outcome)
        unexpected_here = False
        for spec, verdict, detail in verdicts:
            record = ChaosRecord(
                index=len(records), spec=spec, outcome=verdict,
                expected=verdict in EXPECTED_OUTCOMES[spec.kind],
                detail=detail)
            records.append(record)
            by = report.counts.setdefault(spec.kind, {})
            by[verdict] = by.get(verdict, 0) + 1
            if not record.expected:
                report.unexpected.append(record.to_dict())
                unexpected_here = True
            if progress is not None:
                progress(record)
        if unexpected_here and config.shrink:
            reproducer = _shrink_round(config, round_index, specs, workdir)
            if reproducer is not None:
                report.reproducers.append(reproducer)
        round_index += 1
    report.injections = len(records)
    return report


def _shrink_round(config: ChaosConfig, round_index: int,
                  specs: list[ChaosSpec], workdir: Path) -> Optional[dict]:
    """ddmin the fault plan of a failed round to a minimal reproducer."""
    replay_counter = [0]

    def fails(candidate: list[ChaosSpec]) -> bool:
        replay_counter[0] += 1
        replay_dir = workdir / f"shrink{round_index}-{replay_counter[0]}"
        outcome = _run_round(config, round_index, candidate, replay_dir)
        return any(verdict not in EXPECTED_OUTCOMES[spec.kind]
                   for spec, verdict, _ in
                   _classify_round(candidate, outcome))

    if not fails(specs):
        return None  # refuses to reproduce: flaky, report the round as-is
    minimal = _ddmin(specs, fails)
    return {
        "round": round_index,
        "seed": config.seed,
        "faults": [spec.to_dict() for spec in minimal],
        "replays": replay_counter[0],
    }
