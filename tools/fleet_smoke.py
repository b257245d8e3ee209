#!/usr/bin/env python
"""CI smoke test for the distributed sweep fleet.

Stands up a real localhost fleet — one TCP coordinator, three forked
worker processes — and attacks it while it works:

* one worker is SIGKILLed mid-sweep (its leases must expire and requeue);
* one worker truncates its first result upload (the digest gate must
  reject it and the re-upload must land clean);

then asserts the contract that makes the fleet trustworthy: the
surviving results are **bit-identical** to an in-process ``jobs=1``
serial reference — byte equality of the stats dicts, not approximation —
and the coordinator's event counters prove both faults actually fired
where the harness aimed them.

Writes a JSON artifact (reference IPCs, coordinator counters, per-worker
summaries, timings) to the path given as argv[1], if any.  Exits
non-zero with a diagnostic on any violation.
"""

import json
import os
import pathlib
import signal
import sys
import tempfile
import threading
import time

try:
    import repro  # noqa: F401  (installed package)
except ImportError:  # fall back to a source checkout
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.fleet import ContentStore, FleetConfig, FleetCoordinator
from repro.fleet.worker import WorkerChaos, WorkerConfig, worker_main
from repro.harness.parallel import SweepPoint, run_points
from repro.workloads.profiles import BENCHMARKS

WORKERS = 3
KILLED_SLOT = 0
TRUNCATING_SLOT = 1


def _grid() -> list[SweepPoint]:
    points = []
    for name in ("gsm", "hmmer"):
        for scheme in ("sharing", "conventional"):
            for size in (48, 64):
                points.append(SweepPoint(BENCHMARKS[name], scheme, size,
                                         2_500, 1))
    return points


def fail(message: str) -> None:
    print(f"FLEET SMOKE FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    import multiprocessing
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        ctx = multiprocessing.get_context()

    artifact_path = sys.argv[1] if len(sys.argv) > 1 else None
    tmp = pathlib.Path(tempfile.mkdtemp(prefix="fleet-smoke-"))
    os.environ["REPRO_CACHE_DIR"] = str(tmp / "coordinator-cache")
    os.environ["REPRO_TRACE_DIR"] = str(tmp / "coordinator-trace")

    points = _grid()
    t0 = time.perf_counter()
    reference = run_points(points, jobs=1)
    if any(not r.ok for r in reference):
        fail("serial reference failed — fix the simulator, not the fleet")
    ref_dicts = [r.stats.to_dict() for r in reference]
    t_serial = time.perf_counter() - t0

    results: dict[int, object] = {}
    lock = threading.Lock()

    def finish(index: int, result) -> None:
        with lock:
            results[index] = result

    config = FleetConfig(host="127.0.0.1", port=0,
                         lease_deadline=2.0,
                         # the faults must land on remote executions:
                         # don't let the coordinator race its own fleet
                         local_fallback_after=20.0,
                         socket_timeout=30.0)
    coordinator = FleetCoordinator(points, list(range(len(points))), finish,
                                   config, retries=4, store=ContentStore())
    host, port = coordinator.start()
    print(f"coordinator at {host}:{port}, {len(points)} points, "
          f"{WORKERS} workers (kill w{KILLED_SLOT}, "
          f"truncate w{TRUNCATING_SLOT})")

    processes = {}
    for slot in range(WORKERS):
        chaos = WorkerChaos(truncate_uploads=1) \
            if slot == TRUNCATING_SLOT else None
        wcfg = WorkerConfig(
            host=host, port=port, name=f"smoke-w{slot}",
            heartbeat_interval=0.25, reconnect_attempts=20,
            reconnect_delay=0.2, socket_timeout=30.0, seed=slot,
            events_path=str(tmp / f"worker{slot}.json"),
            trace_dir=str(tmp / f"trace{slot}"),
            cache_dir=str(tmp / f"cache{slot}"),
            close_fds=(coordinator.listener_fd,))
        process = ctx.Process(target=worker_main, args=(wcfg, chaos),
                              daemon=True)
        process.start()
        processes[slot] = process

    # kill deterministically: wait until the victim actually holds a
    # lease, so the SIGKILL is guaranteed to land mid-point
    kill_done = threading.Event()

    def kill_when_leased() -> None:
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline:
            with coordinator._lock:
                leases = list(coordinator.scheduler.leases.values())
            if any(lease.worker == f"smoke-w{KILLED_SLOT}"
                   for lease in leases):
                os.kill(processes[KILLED_SLOT].pid, signal.SIGKILL)
                kill_done.set()
                return
            time.sleep(0.005)

    killer = threading.Thread(target=kill_when_leased, daemon=True)
    killer.start()

    t1 = time.perf_counter()
    completed = coordinator.run()
    coordinator.drain()
    coordinator.stop()
    t_fleet = time.perf_counter() - t1
    for process in processes.values():
        process.join(timeout=8)
        if process.is_alive():  # pragma: no cover - cleanup only
            process.kill()

    if not completed:
        fail("coordinator did not resolve every point")
    counters = coordinator.events.snapshot()["counters"]

    # ---------------------------------------------------------- bit identity
    for i, point in enumerate(points):
        result = results.get(i)
        if result is None or not result.ok:
            detail = result.error if result is not None else "missing"
            fail(f"{point.label()}: no clean result ({detail})")
        if result.stats.to_dict() != ref_dicts[i]:
            fail(f"{point.label()}: fleet result DIVERGES from the "
                 f"serial reference — silent corruption")
    print(f"bit-identical: all {len(points)} points match the serial "
          f"reference (serial {t_serial:.1f}s, fleet {t_fleet:.1f}s)")

    # ------------------------------------------------------- faults landed
    summaries = {}
    for slot in range(WORKERS):
        path = tmp / f"worker{slot}.json"
        if path.exists():
            summaries[slot] = json.loads(path.read_text())
    if not kill_done.is_set():
        fail(f"worker {KILLED_SLOT} never held a lease to be killed over")
    if KILLED_SLOT in summaries and summaries[KILLED_SLOT].get("finished"):
        fail(f"worker {KILLED_SLOT} survived its SIGKILL")
    if counters.get("leases_expired", 0) < 1:
        fail("SIGKILL cost no lease: the kill landed on nothing")
    truncated = sum(1 for e in summaries.get(TRUNCATING_SLOT, {})
                    .get("chaos", []) if e["event"] == "chaos_truncate_upload")
    if truncated != 1:
        fail(f"truncating worker mangled {truncated} uploads, wanted 1")
    if counters.get("uploads_rejected", 0) < 1:
        fail("truncated upload was not rejected — the digest gate "
             "did not fire")
    print(f"faults landed: leases_expired={counters.get('leases_expired', 0)} "
          f"uploads_rejected={counters.get('uploads_rejected', 0)} "
          f"requeues={counters.get('requeues', 0)}")

    if artifact_path:
        artifact = {
            "points": len(points),
            "workers": WORKERS,
            "killed_worker": KILLED_SLOT,
            "truncating_worker": TRUNCATING_SLOT,
            "serial_seconds": round(t_serial, 3),
            "fleet_seconds": round(t_fleet, 3),
            "reference_ipc": {points[i].label(): round(reference[i].stats.ipc, 6)
                              for i in range(len(points))},
            "coordinator_counters": counters,
            "worker_summaries": {str(k): v for k, v in summaries.items()},
            "bit_identical": True,
        }
        pathlib.Path(artifact_path).write_text(
            json.dumps(artifact, indent=2) + "\n")
        print(f"artifact written to {artifact_path}")

    print("FLEET SMOKE PASSED")


if __name__ == "__main__":
    main()
