"""End-to-end fleet behaviour on localhost.

Workers here run as in-process threads (the chaos harness and the smoke
tool cover real forked processes): threads keep these tests fast and
deterministic while still exercising the full TCP path — real sockets,
real frames, real digest gates.  The invariant under test is always the
same one the chaos campaign enforces: whatever the fleet survives, the
results must be bit-identical to a serial run.
"""

import json
import socket
import threading
import time

import pytest

from repro.fleet import protocol
from repro.fleet.cas import ContentStore, blob_digest
from repro.fleet.coordinator import (FleetConfig, FleetCoordinator,
                                     resolve_fleet_config)
from repro.fleet.worker import FleetWorker, WorkerChaos, WorkerConfig
from repro.harness import parallel
from repro.harness.cache import ResultCache, TraceCache
from repro.harness.parallel import SweepPoint, run_points
from repro.workloads.profiles import BENCHMARKS

def _points(count=4, insts=800):
    profile = BENCHMARKS["gsm"]
    schemes = ("sharing", "conventional")
    return [SweepPoint(profile=profile, scheme=schemes[i % 2], size=48,
                       insts=insts, seed=1 + i) for i in range(count)]


def _reference(points):
    results = run_points(points, jobs=1)
    assert all(r.ok for r in results)
    return [r.stats.to_dict() for r in results]


def _store(tmp_path, name):
    return ContentStore(
        result_cache=ResultCache(tmp_path / f"{name}-results"),
        trace_cache=TraceCache(tmp_path / f"{name}-traces"))


class _Fleet:
    """A coordinator plus thread workers, torn down reliably."""

    def __init__(self, points, tmp_path, *, config=None, retries=3,
                 cache=None):
        self.points = points
        self.results = {}
        self._lock = threading.Lock()

        def finish(index, result):
            if cache is not None and result.ok:
                cache.put(cache.key_for_point(result.point), result.stats)
            with self._lock:
                self.results[index] = result

        self.coordinator = FleetCoordinator(
            points, list(range(len(points))), finish,
            config or FleetConfig(host="127.0.0.1", port=0,
                                  lease_deadline=5.0,
                                  local_fallback_after=30.0),
            retries=retries, store=_store(tmp_path, "coordinator"))
        self.host, self.port = self.coordinator.start()
        self.threads = []
        self.workers = []

    def add_worker(self, tmp_path, name, *, chaos=None, fingerprint=None,
                   heartbeat=0.25, store=None):
        worker = FleetWorker(
            WorkerConfig(host=self.host, port=self.port, name=name,
                         heartbeat_interval=heartbeat,
                         reconnect_attempts=20, reconnect_delay=0.1,
                         socket_timeout=30.0, seed=len(self.workers)),
            store=store if store is not None else _store(tmp_path, name),
            fingerprint=fingerprint, chaos=chaos)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        self.workers.append(worker)
        self.threads.append(thread)
        return worker

    def run(self, stop=None):
        completed = self.coordinator.run(stop=stop)
        if completed:
            self.coordinator.drain()
        return completed

    def stop(self):
        self.coordinator.stop()
        for thread in self.threads:
            thread.join(timeout=10)

    def counters(self):
        return self.coordinator.events.snapshot()["counters"]


# ------------------------------------------------------------- happy path
def test_fleet_matches_serial_bit_for_bit(tmp_path):
    points = _points(4)
    expected = _reference(points)
    fleet = _Fleet(points, tmp_path)
    try:
        fleet.add_worker(tmp_path, "w0")
        fleet.add_worker(tmp_path, "w1")
        assert fleet.run()
    finally:
        fleet.stop()
    assert sorted(fleet.results) == list(range(len(points)))
    for i in range(len(points)):
        assert fleet.results[i].ok
        assert fleet.results[i].stats.to_dict() == expected[i]
    counters = fleet.counters()
    assert counters.get("uploads_committed", 0) == len(points)
    assert counters.get("local_points", 0) == 0


def test_run_points_remote_serves_a_tcp_worker(tmp_path):
    # the public entry point: run_points(remote=...) must stand up a
    # coordinator that a real TCP worker can drain
    points = _points(3)
    expected = _reference(points)
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()

    config = FleetConfig(host="127.0.0.1", port=port,
                         local_fallback_after=60.0)
    box = {}

    def serve():
        box["results"] = run_points(points, jobs=1, cache=None,
                                    remote=config)

    server = threading.Thread(target=serve, daemon=True)
    server.start()
    worker = FleetWorker(
        WorkerConfig(host="127.0.0.1", port=port, name="tcp-w0",
                     reconnect_attempts=30, reconnect_delay=0.1),
        store=_store(tmp_path, "tcp-w0"))
    summary = worker.run()
    server.join(timeout=60)
    assert not server.is_alive()
    assert summary["finished"] and summary["points_done"] == len(points)
    assert [r.stats.to_dict() for r in box["results"]] == expected


def test_local_degrade_without_any_worker(tmp_path):
    # nobody connects: the coordinator must finish the sweep itself
    points = _points(2)
    expected = _reference(points)
    results = run_points(points, jobs=1, cache=None,
                         remote=FleetConfig(host="127.0.0.1", port=0,
                                            local_fallback_after=0.2))
    assert [r.stats.to_dict() for r in results] == expected


def test_resolve_fleet_config():
    assert resolve_fleet_config("10.0.0.7:9461") == FleetConfig(
        host="10.0.0.7", port=9461)
    assert resolve_fleet_config(":9461").host == "127.0.0.1"
    passthrough = FleetConfig(host="h", port=1)
    assert resolve_fleet_config(passthrough) is passthrough
    with pytest.raises(ValueError, match="HOST:PORT"):
        resolve_fleet_config("no-port-here")


# ------------------------------------------------------------ fault paths
def test_fingerprint_mismatch_rejected_fatally(tmp_path):
    points = _points(2)
    fleet = _Fleet(points, tmp_path)
    try:
        skewed = fleet.add_worker(tmp_path, "skewed",
                                  fingerprint="different-code")
        fleet.threads[-1].join(timeout=30)
        assert not fleet.threads[-1].is_alive()
        # the worker must give up immediately, not reconnect-spin
        assert skewed.events.counters.get("fatal_rejections", 0) == 1
        assert fleet.counters().get("fingerprint_rejections", 0) == 1
        assert fleet.counters().get("uploads_committed", 0) == 0
    finally:
        fleet.stop()


def test_truncated_upload_rejected_then_retried_clean(tmp_path):
    points = _points(3)
    expected = _reference(points)
    fleet = _Fleet(points, tmp_path)
    try:
        fleet.add_worker(tmp_path, "mangler",
                         chaos=WorkerChaos(truncate_uploads=1))
        assert fleet.run()
    finally:
        fleet.stop()
    counters = fleet.counters()
    assert counters.get("uploads_rejected", 0) >= 1
    assert counters.get("uploads_committed", 0) == len(points)
    for i in range(len(points)):
        assert fleet.results[i].stats.to_dict() == expected[i]


def test_corrupted_upload_rejected_then_retried_clean(tmp_path):
    points = _points(3)
    expected = _reference(points)
    fleet = _Fleet(points, tmp_path)
    try:
        fleet.add_worker(tmp_path, "flipper",
                         chaos=WorkerChaos(corrupt_uploads=1))
        assert fleet.run()
    finally:
        fleet.stop()
    assert fleet.counters().get("uploads_rejected", 0) >= 1
    for i in range(len(points)):
        assert fleet.results[i].stats.to_dict() == expected[i]


def _hello(host, port, name="probe"):
    sock = socket.create_connection((host, port), timeout=5.0)
    sock.settimeout(10.0)
    reply, _ = protocol.request(sock, {
        "type": "hello", "protocol": protocol.PROTOCOL_VERSION,
        "fingerprint": _code_fingerprint(), "worker": name})
    assert reply["type"] == "welcome"
    return sock


def _code_fingerprint():
    from repro.harness.cache import code_fingerprint

    return code_fingerprint()


def test_abandoned_lease_expires_and_requeues(tmp_path):
    points = _points(2)
    expected = _reference(points)
    config = FleetConfig(host="127.0.0.1", port=0, lease_deadline=0.3,
                         local_fallback_after=30.0)
    fleet = _Fleet(points, tmp_path, config=config)
    try:
        # a "worker" that leases a point and then vanishes without a word
        sock = _hello(fleet.host, fleet.port, "deserter")
        reply, _ = protocol.request(sock, {"type": "lease"})
        assert reply["type"] == "point"
        sock.close()
        fleet.add_worker(tmp_path, "honest")
        assert fleet.run()
    finally:
        fleet.stop()
    counters = fleet.counters()
    assert counters.get("leases_expired", 0) >= 1
    assert counters.get("requeues", 0) >= 1
    for i in range(len(points)):
        result = fleet.results[i]
        assert result.ok
        assert result.stats.to_dict() == expected[i]
    # the re-leased point reports its true attempt count
    assert max(r.attempts for r in fleet.results.values()) >= 2


def test_stale_upload_discarded_not_committed(tmp_path):
    points = _points(1)
    expected = _reference(points)
    config = FleetConfig(host="127.0.0.1", port=0, lease_deadline=0.3,
                         local_fallback_after=30.0)
    fleet = _Fleet(points, tmp_path, config=config)
    try:
        sock = _hello(fleet.host, fleet.port, "slowpoke")
        reply, _ = protocol.request(sock, {"type": "lease"})
        assert reply["type"] == "point"
        lease_id, index = reply["lease"], reply["index"]
        time.sleep(0.5)  # sit past the deadline without heartbeating
        # another lease request forces lazy expiry of the stale one
        sock2 = _hello(fleet.host, fleet.port, "prober")
        protocol.request(sock2, {"type": "lease"})
        # now upload a *wrong* result under the dead lease: stats from a
        # different point, correctly digested — only staleness stops it
        wrong = json.dumps(_reference(_points(1, insts=400))[0],
                           sort_keys=True).encode()
        reply, _ = protocol.request(sock, {
            "type": "result", "lease": lease_id, "index": index,
            "digest": blob_digest(wrong)}, wrong)
        assert reply.get("stale") is True
        sock.close()
        sock2.close()
        fleet.add_worker(tmp_path, "honest")
        assert fleet.run()
    finally:
        fleet.stop()
    assert fleet.counters().get("stale_uploads", 0) >= 1
    assert fleet.results[0].stats.to_dict() == expected[0]


def test_requeued_lease_waits_out_the_retry_backoff(tmp_path):
    # a failed lease goes back through the shared scheduler core, so its
    # re-grant waits out the same retry_delay backoff as the pipe fleet
    points = _points(1)
    coordinator = FleetCoordinator(
        points, [0], lambda index, result: None,
        FleetConfig(host="127.0.0.1", port=0, local=False),
        retries=1, retry_delay=0.4, store=_store(tmp_path, "coordinator"))
    host, port = coordinator.start()
    try:
        sock = _hello(host, port, "flaky")
        lease, _ = protocol.request(sock, {"type": "lease"})
        assert lease["type"] == "point"
        failed_at = time.monotonic()
        reply, _ = protocol.request(sock, {
            "type": "result", "lease": lease["lease"],
            "index": lease["index"], "error": "injected failure"})
        assert reply["type"] == "ok"
        reply, _ = protocol.request(sock, {"type": "lease"})
        assert reply["type"] == "idle"  # still backing off
        time.sleep(failed_at + parallel._backoff(0.4, 1, 0)
                   - time.monotonic() + 0.05)
        reply, _ = protocol.request(sock, {"type": "lease"})
        assert reply["type"] == "point" and reply["lease"].endswith("-0.2")
        sock.close()
    finally:
        coordinator.stop()
    assert coordinator.events.get("requeues") == 1


def test_run_points_remote_honours_retry_delay(monkeypatch):
    # run_points(remote=...) must hand retry_delay to the coordinator;
    # its local degrade then backs off before the second attempt
    started = []

    def flaky(point):
        started.append(time.monotonic())
        if len(started) == 1:
            raise RuntimeError("transient failure")
        return parallel.simulate_point(point)

    monkeypatch.setattr(parallel, "_POINT_RUNNER", flaky)
    results = run_points(_points(1), jobs=1, retries=1, retry_delay=0.5,
                         remote=FleetConfig(host="127.0.0.1", port=0,
                                            local_fallback_after=0))
    assert results[0].ok and results[0].attempts == 2
    assert started[1] - started[0] >= parallel._backoff(0.5, 1, 0)


def test_heartbeat_keeps_a_slow_point_leased(tmp_path):
    # a point slower than the lease deadline must survive as long as the
    # worker heartbeats (the deadline extends, nothing requeues)
    points = _points(2, insts=12_000)
    expected = _reference(points)
    config = FleetConfig(host="127.0.0.1", port=0, lease_deadline=0.4,
                         local_fallback_after=30.0)
    fleet = _Fleet(points, tmp_path, config=config)
    try:
        fleet.add_worker(tmp_path, "steady", heartbeat=0.05)
        assert fleet.run()
    finally:
        fleet.stop()
    counters = fleet.counters()
    assert counters.get("heartbeats", 0) >= 1
    assert counters.get("leases_expired", 0) == 0
    for i in range(len(points)):
        assert fleet.results[i].stats.to_dict() == expected[i]


def test_coordinator_restart_resumes_from_cache(tmp_path):
    points = _points(4, insts=3_000)
    expected = _reference(points)
    cache = ResultCache(tmp_path / "results")

    # phase 1: serve until half the sweep is cached, then "crash" —
    # the abort fires synchronously with the second commit, well before
    # the remaining two points can resolve
    abort = threading.Event()
    fleet = _Fleet(points, tmp_path, cache=cache)

    class _AbortAfterTwo(dict):
        def __setitem__(self, key, value):
            super().__setitem__(key, value)
            if len(self) >= 2:
                abort.set()

    fleet.results = _AbortAfterTwo()
    try:
        fleet.add_worker(tmp_path, "w0")
        completed = fleet.run(stop=abort)
        assert not completed
    finally:
        fleet.stop()

    # phase 2: a fresh coordinator resumes from the cache on disk,
    # exactly as rerunning `repro fleet serve` would after a restart
    cache2 = ResultCache(tmp_path / "results")
    assert len(cache2) >= 2
    results2 = {}
    pending = []
    for i, point in enumerate(points):
        stats = cache2.get(cache2.key_for_point(point))
        if stats is None:
            pending.append(i)
        else:
            results2[i] = stats.to_dict()
    fleet2 = _Fleet(points, tmp_path)
    fleet2.coordinator.stop()  # replace with one serving only `pending`
    fleet2.coordinator = FleetCoordinator(
        points, pending,
        lambda i, r: results2.__setitem__(i, r.stats.to_dict()),
        FleetConfig(host="127.0.0.1", port=0, local_fallback_after=30.0),
        retries=3, store=_store(tmp_path, "coordinator2"))
    fleet2.host, fleet2.port = fleet2.coordinator.start()
    try:
        fleet2.add_worker(tmp_path, "w1")
        assert fleet2.run()
    finally:
        fleet2.stop()
    assert [results2[i] for i in range(len(points))] == expected


# ---------------------------------------------------------------- blobs
def test_worker_fetches_trace_from_coordinator_store(tmp_path):
    # pre-seed the coordinator's trace cache; a worker with an empty
    # local cache must fetch the blob instead of regenerating
    points = _points(2)
    expected = _reference(points)
    fleet = _Fleet(points, tmp_path)
    store = fleet.coordinator.store
    try:
        from repro.workloads.generator import SyntheticWorkload
        from repro.workloads.trace_codec import encode

        for point in points:
            key = store.trace_cache.key_for(point.profile, point.insts,
                                            point.seed)
            blob = encode(iter(SyntheticWorkload(
                point.profile, total_insts=point.insts, seed=point.seed)))
            store.put("trace", key, blob, blob_digest(blob))
        fleet.add_worker(tmp_path, "fetcher")
        assert fleet.run()
    finally:
        fleet.stop()
    assert fleet.counters().get("blobs_served", 0) >= 1
    worker_store = fleet.workers[0].store
    assert worker_store.committed >= 1  # the fetched blobs were cached
    for i in range(len(points)):
        assert fleet.results[i].stats.to_dict() == expected[i]


def test_worker_publishes_generated_trace_back(tmp_path):
    # the inverse: the coordinator's store is cold, the worker generates
    # the trace locally and uploads it for the rest of the fleet
    points = _points(1)
    fleet = _Fleet(points, tmp_path)
    try:
        # the worker's store must watch the same trace dir the simulator
        # writes to (thread workers share the process env; forked ones
        # get their own REPRO_TRACE_DIR and a genuinely private store)
        fleet.add_worker(tmp_path, "publisher", store=ContentStore(
            result_cache=ResultCache(tmp_path / "publisher-results")))
        assert fleet.run()
    finally:
        fleet.stop()
    assert fleet.counters().get("blobs_received", 0) >= 1
    key = fleet.coordinator.store.trace_cache.key_for(
        points[0].profile, points[0].insts, points[0].seed)
    assert fleet.coordinator.store.get("trace", key) is not None
