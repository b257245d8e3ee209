"""TCP sweep coordinator: lease-based point distribution across hosts.

The coordinator drives a sweep's pending points (journal- and
cache-prefiltered by :func:`~repro.harness.parallel.run_points`) through
the same scheduler core as the local pipe fleet
(:class:`~repro.harness.parallel._Scheduler`: affinity queue, backoff,
requeue, first-wins resolution), with TCP leases as its slots, and
serves the fleet protocol (:mod:`repro.fleet.protocol`) to any number of
remote workers.  The design goal is the same silent-divergence-is-failure
contract as the rest of the harness: every point's statistics are a pure
function of the point, so the fleet may kill, retry, re-lease and
re-order freely — correctness only requires that nothing *wrong* is ever
committed, which the protocol enforces structurally:

* a worker must present the coordinator's **code fingerprint** in its
  ``hello`` or the session is rejected — a mixed-version fleet refuses
  to exchange work instead of computing subtly different numbers (and
  the cache keys fold the fingerprint in anyway, a second line of
  defense);
* a **lease** carries a deadline; heartbeats extend it, and a missed
  deadline (worker killed, partitioned, or just stalled) requeues the
  point for someone else after the usual retry backoff — at most
  ``retries`` re-leases before the point is reported failed;
* a **result upload is verified, then committed**: the frame CRC, the
  SHA-256 body digest and a full ``stats_from_dict`` round-trip must all
  pass before anything reaches the journal or cache; a truncated or
  bit-flipped upload is rejected (the worker re-uploads) and a stale
  upload for an expired lease is discarded — the re-leased execution
  produces the identical result;
* when every remote dies, the coordinator **degrades to local
  execution**: its main loop picks pending points up itself (with the
  serial wall-clock watchdog still enforced), so a sweep never hangs on
  an empty fleet.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro.fleet import protocol
from repro.fleet.cas import CasError, ContentStore, blob_digest, verify_digest
from repro.harness.parallel import _Lease, _Scheduler, _run_local
from repro.pipeline.stats import stats_from_dict

#: delay (seconds) suggested to an idle worker before its next lease ask
IDLE_DELAY = 0.2


@dataclass(frozen=True)
class FleetConfig:
    """Shape of one coordinator endpoint."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral (read the bound port off ``address``)
    #: seconds a lease stays valid without a heartbeat
    lease_deadline: float = 30.0
    #: seconds of remote silence before the coordinator starts executing
    #: pending points itself; 0 means it always helps
    local_fallback_after: float = 3.0
    #: whether the coordinator may execute points locally at all
    local: bool = True
    #: per-connection socket timeout (an abandoned half-open connection
    #: must not pin a handler thread forever)
    socket_timeout: float = 60.0
    max_frame: int = protocol.MAX_FRAME


def resolve_fleet_config(spec: Union[str, FleetConfig]) -> FleetConfig:
    """``"host:port"`` shorthand or a :class:`FleetConfig` passthrough."""
    if isinstance(spec, FleetConfig):
        return spec
    host, _, port = str(spec).rpartition(":")
    try:
        return FleetConfig(host=host or "127.0.0.1", port=int(port))
    except ValueError:
        raise ValueError(f"fleet address {spec!r}: expected HOST:PORT") \
            from None


class FleetEvents:
    """Thread-safe counters + a bounded structured event log.

    The chaos harness classifies injected faults by reading these back:
    a kill that mattered shows up as ``leases_expired``, a mangled
    upload as ``uploads_rejected``, a version-skewed worker as
    ``fingerprint_rejections`` — detection must be *observable*, not
    inferred.
    """

    LOG_LIMIT = 10_000

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.counters: dict[str, int] = {}
        self.log: list[dict] = []

    def incr(self, name: str, count: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + count

    def note(self, event: str, **fields) -> None:
        with self._lock:
            self.counters[event] = self.counters.get(event, 0) + 1
            if len(self.log) < self.LOG_LIMIT:
                self.log.append({"event": event, **fields})

    def get(self, name: str) -> int:
        with self._lock:
            return self.counters.get(name, 0)

    def snapshot(self) -> dict:
        with self._lock:
            return {"counters": dict(self.counters), "log": list(self.log)}


class _FleetServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, coordinator: "FleetCoordinator") -> None:
        self.coordinator = coordinator
        super().__init__(address, _FleetHandler)


class _FleetHandler(socketserver.BaseRequestHandler):
    """One worker connection: hello/fingerprint gate, then request loop."""

    def handle(self) -> None:  # noqa: C901 - a dispatch loop
        coord: FleetCoordinator = self.server.coordinator
        sock: socket.socket = self.request
        events = coord.events
        worker = None
        try:
            sock.settimeout(coord.config.socket_timeout)
            msg, _ = protocol.recv_message(sock, coord.config.max_frame)
            if msg.get("type") != "hello" \
                    or msg.get("protocol") != protocol.PROTOCOL_VERSION:
                protocol.send_message(sock, {
                    "type": "error", "fatal": True,
                    "reason": f"expected hello at protocol version "
                              f"{protocol.PROTOCOL_VERSION}"})
                return
            if msg.get("fingerprint") != coord.fingerprint:
                events.note("fingerprint_rejections",
                            worker=msg.get("worker"),
                            theirs=str(msg.get("fingerprint"))[:16])
                protocol.send_message(sock, {
                    "type": "error", "fatal": True,
                    "reason": "code fingerprint mismatch: this worker runs "
                              "different simulator source than the "
                              "coordinator; results would not be "
                              "comparable"})
                return
            worker = str(msg.get("worker") or "anonymous")
            coord._register(worker, sock)
            events.incr("workers_connected")
            protocol.send_message(sock, {"type": "welcome",
                                         "fingerprint": coord.fingerprint})
            while not coord.stopping:
                msg, body = protocol.recv_message(sock, coord.config.max_frame)
                coord.touch_remote()
                reply, reply_body = coord.dispatch(worker, msg, body)
                if reply is None:  # bye
                    return
                protocol.send_message(sock, reply, reply_body)
                if reply.get("fatal"):
                    return
        except protocol.ConnectionClosed:
            pass
        except (protocol.ProtocolError, OSError) as exc:
            events.note("connection_errors", worker=worker,
                        error=f"{type(exc).__name__}: {exc}"[:200])
        finally:
            if worker is not None:
                coord._unregister(worker, sock)


class FleetCoordinator:
    """Serves a sweep's scheduler core over TCP: leases, commits, the
    server, and the local degrade."""

    def __init__(
        self,
        points: list,
        pending: list[int],
        finish: Callable[[int, object], None],
        config: FleetConfig,
        *,
        timeout: Optional[float] = None,
        retries: int = 0,
        retry_delay: float = 0.0,
        store: Optional[ContentStore] = None,
        fingerprint: Optional[str] = None,
        events: Optional[FleetEvents] = None,
    ) -> None:
        from repro.harness.cache import code_fingerprint

        self.points = points
        self.config = config
        self.timeout = timeout
        self.events = events if events is not None else FleetEvents()
        self.store = store if store is not None else ContentStore()
        self.fingerprint = fingerprint if fingerprint is not None \
            else code_fingerprint()
        self._lock = threading.RLock()
        #: queue, backoff, leases and resolution — driven under ``_lock``
        self.scheduler = _Scheduler(points, pending, finish, retries,
                                    retry_delay)
        self._stop = threading.Event()
        self._server: Optional[_FleetServer] = None
        self._serve_thread: Optional[threading.Thread] = None
        #: worker name -> set of live sockets (for drop/partition + liveness)
        self._connections: dict[str, set] = {}
        #: monotonic timestamp of the last remote activity; seeds at
        #: construction so the fallback window measures from sweep start
        self._last_remote = time.monotonic()

    # ---------------------------------------------------------------- server
    def start(self) -> tuple[str, int]:
        """Bind and serve in a daemon thread; returns (host, port)."""
        self._server = _FleetServer((self.config.host, self.config.port),
                                    self)
        self._serve_thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.1}, daemon=True,
            name="fleet-coordinator")
        self._serve_thread.start()
        return self.address

    @property
    def address(self) -> tuple[str, int]:
        assert self._server is not None, "start() first"
        return self._server.server_address[:2]

    @property
    def listener_fd(self) -> int:
        """The listening socket's fd — processes forked after
        :meth:`start` must close their inherited copy
        (:attr:`WorkerConfig.close_fds`), or a coordinator restart on
        the same port finds it still bound by its own workers."""
        assert self._server is not None, "start() first"
        return self._server.fileno()

    @property
    def stopping(self) -> bool:
        return self._stop.is_set()

    def stop(self) -> None:
        """Stop serving: close the listener and abort every connection.

        Safe to call at any moment — this is also how the chaos harness
        models a coordinator crash.  Unresolved points stay unresolved;
        a new coordinator over the same journal resumes them.
        """
        self._stop.set()
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
        with self._lock:
            socks = [s for conns in self._connections.values()
                     for s in conns]
        for sock in socks:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)

    def drain(self, timeout: float = 2.0) -> None:
        """Give connected workers a moment to observe ``done`` and leave."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if not any(self._connections.values()):
                    return
            time.sleep(0.05)

    # ------------------------------------------------------------ connection
    def _register(self, worker: str, sock) -> None:
        with self._lock:
            self._connections.setdefault(worker, set()).add(sock)
            self._last_remote = time.monotonic()

    def _unregister(self, worker: str, sock) -> None:
        with self._lock:
            conns = self._connections.get(worker)
            if conns is not None:
                conns.discard(sock)
                if not conns:
                    del self._connections[worker]

    def touch_remote(self) -> None:
        with self._lock:
            self._last_remote = time.monotonic()

    def drop_connections(self, count: int = 1, rng=None) -> int:
        """Hard-close ``count`` live worker connections (chaos partition).

        The worker sees a dead socket mid-session and reconnects with
        backoff; any lease it held expires and requeues.  Returns how
        many connections were actually dropped.
        """
        with self._lock:
            socks = [s for conns in self._connections.values()
                     for s in conns]
        if rng is not None:
            rng.shuffle(socks)
        dropped = 0
        for sock in socks[:count]:
            try:
                sock.shutdown(socket.SHUT_RDWR)
                dropped += 1
            except OSError:
                pass
        if dropped:
            self.events.note("connections_dropped", count=dropped)
        return dropped

    # -------------------------------------------------------------- protocol
    def dispatch(self, worker: str, msg: dict,
                 body: bytes) -> tuple[Optional[dict], bytes]:
        """Handle one authenticated request; returns (reply, reply body)."""
        kind = msg.get("type")
        if kind == "lease":
            return self._handle_lease(worker), b""
        if kind == "heartbeat":
            return self._handle_heartbeat(msg), b""
        if kind == "result":
            return self._handle_result(worker, msg, body), b""
        if kind == "blob_get":
            return self._handle_blob_get(msg)
        if kind == "blob_put":
            return self._handle_blob_put(msg, body), b""
        if kind == "bye":
            return None, b""
        return {"type": "error", "fatal": True,
                "reason": f"unknown message type {kind!r}"}, b""

    def _handle_lease(self, worker: str) -> dict:
        with self._lock:
            self._expire_leases()
            lease = self.scheduler.lease(worker, self.config.lease_deadline)
            if lease is not None:
                self.events.incr("leases_granted")
                return {"type": "point", "lease": lease.key,
                        "index": lease.index,
                        "deadline": self.config.lease_deadline,
                        "point": protocol.point_to_dict(
                            self.points[lease.index])}
            if self.scheduler.unresolved:
                return {"type": "idle", "delay": IDLE_DELAY}
            return {"type": "done"}

    def _handle_heartbeat(self, msg: dict) -> dict:
        with self._lock:
            lease = self.scheduler.leases.get(msg.get("lease"))
            if lease is None:
                # expired (and maybe already re-leased): tell the worker
                # its execution is moot so it can abandon the point
                return {"type": "ok", "known": False}
            lease.deadline = time.monotonic() + self.config.lease_deadline
            self.events.incr("heartbeats")
            return {"type": "ok", "known": True}

    def _handle_result(self, worker: str, msg: dict, body: bytes) -> dict:
        with self._lock:
            lease = self.scheduler.leases.get(msg.get("lease"))
            if lease is None:
                # lease expired: the point was (or will be) re-leased and
                # re-run to the identical result — discard, don't commit
                self.events.note("stale_uploads", worker=worker)
                return {"type": "error", "fatal": False, "stale": True,
                        "reason": "unknown or expired lease"}
            if msg.get("index") != lease.index:
                self.events.note("uploads_rejected", worker=worker,
                                 reason="index mismatch")
                self._settle(lease, error="result upload named the wrong "
                                          "point index")
                return {"type": "error", "fatal": False,
                        "reason": "index does not match the lease"}
            error = msg.get("error")
            if error is not None:
                # the worker ran the point and it failed in simulation:
                # consume the lease, retry or report like any crash
                self.events.note("point_failures", worker=worker)
                self._settle(lease, error=str(error))
                return {"type": "ok"}
            try:
                verify_digest(body, msg.get("digest", ""))
                stats = stats_from_dict(json.loads(body.decode("utf-8")))
            except (CasError, Exception) as exc:
                # verified-then-committed: a truncated or bit-flipped
                # upload is rejected and the lease stays live (with a
                # fresh deadline) so the worker can re-upload
                lease.deadline = time.monotonic() \
                    + self.config.lease_deadline
                self.events.note(
                    "uploads_rejected", worker=worker,
                    reason=f"{type(exc).__name__}: {exc}"[:200])
                return {"type": "error", "fatal": False,
                        "reason": f"upload rejected: "
                                  f"{type(exc).__name__}: {exc}"[:400]}
            self.events.incr("uploads_committed")
            self._settle(lease, stats)
            return {"type": "ok"}

    def _handle_blob_get(self, msg: dict) -> tuple[dict, bytes]:
        try:
            blob = self.store.get(str(msg.get("kind")), str(msg.get("key")))
        except CasError as exc:
            return {"type": "error", "fatal": False,
                    "reason": str(exc)}, b""
        if blob is None:
            return {"type": "blob", "found": False, "digest": ""}, b""
        self.events.incr("blobs_served")
        return {"type": "blob", "found": True,
                "digest": blob_digest(blob)}, blob

    def _handle_blob_put(self, msg: dict, body: bytes) -> dict:
        try:
            self.store.put(str(msg.get("kind")), str(msg.get("key")),
                           body, digest=str(msg.get("digest", "")))
        except CasError as exc:
            self.events.note("blobs_rejected", reason=str(exc)[:200])
            return {"type": "error", "fatal": False, "reason": str(exc)}
        self.events.incr("blobs_received")
        return {"type": "ok"}

    # ----------------------------------------------------------- lease state
    def _expire_leases(self) -> None:
        """Requeue every lease past its deadline (caller holds the lock)."""
        for lease in self.scheduler.expire(time.monotonic()):
            self.events.note("leases_expired", worker=lease.worker,
                             index=lease.index, attempt=lease.attempt)
            self._settle(lease, error=f"lease expired after "
                                      f"{self.config.lease_deadline}s without "
                                      f"a heartbeat (worker {lease.worker})")

    def _settle(self, lease: _Lease, stats=None,
                error: Optional[str] = None) -> None:
        """Report an attempt's outcome to the scheduler core (caller
        holds the lock), counting the requeue when it grants a retry."""
        if self.scheduler.settle(lease, stats, error):
            self.events.incr("requeues")

    # ------------------------------------------------------------- execution
    def _local_should_run(self) -> bool:
        """Degrade to local execution only after ``local_fallback_after``
        seconds of total remote silence — whether the fleet died or never
        showed up.  Any remote message (a lease ask, a heartbeat, an
        upload) resets the window, so a live fleet keeps the work."""
        if not self.config.local:
            return False
        if self.config.local_fallback_after <= 0:
            return True
        with self._lock:
            stalled = time.monotonic() - self._last_remote
        return stalled > self.config.local_fallback_after

    def run(self, stop: Optional[threading.Event] = None) -> bool:
        """Block until every point resolves (or ``stop``/:meth:`stop`).

        The graceful-degrade loop: while remote workers are alive and
        active the coordinator only expires leases; once they all die
        (or go silent past ``local_fallback_after``) it executes pending
        points itself — through the same bounded-error, wall-clock-
        watchdogged serial runner as a degraded local sweep.  Returns
        True when everything resolved.
        """
        while True:
            with self._lock:
                if not self.scheduler.unresolved:
                    return True
                self._expire_leases()
                stopping = self._stop.is_set() \
                    or (stop is not None and stop.is_set())
                lease = None
                if not stopping and self._local_should_run():
                    # worker None: the coordinator's own, unbounded lease
                    lease = self.scheduler.lease(None, None)
            if stopping:
                return False
            if lease is None:
                time.sleep(0.05)
                continue
            self.events.incr("local_points")
            outcome = _run_local(lease.index, self.points[lease.index],
                                 self.timeout)
            with self._lock:
                self._settle(lease, *outcome)


def fleet_execute(
    points: list,
    pending: list[int],
    finish: Callable[[int, object], None],
    config: FleetConfig,
    *,
    timeout: Optional[float] = None,
    retries: int = 0,
    retry_delay: float = 0.0,
) -> FleetCoordinator:
    """Serve ``pending`` points over TCP until resolved; returns the
    coordinator (stopped) for event introspection.

    The :func:`~repro.harness.parallel.run_points` backend for
    ``remote=...``: ``finish`` is the engine's usual commit callback, so
    journal/cache writes and progress reporting behave identically to
    every other execution mode.
    """
    coordinator = FleetCoordinator(points, pending, finish, config,
                                   timeout=timeout, retries=retries,
                                   retry_delay=retry_delay)
    coordinator.start()
    try:
        if coordinator.run():
            coordinator.drain()
    finally:
        coordinator.stop()
    return coordinator
