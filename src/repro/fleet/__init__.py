"""Distributed sweep fleet: TCP coordinator, remote workers, chaos harness.

Extends the self-healing local sweep fleet (``repro.harness.parallel``)
across hosts.  A coordinator owns the cache-backed point queue and a
content-addressed blob store over the existing result/trace caches;
remote workers lease points under heartbeat deadlines and upload
digest-verified results.  Because every point is a pure function of its
spec (and every cache key folds in a code fingerprint), the fleet can
lose workers, connections, uploads or even the coordinator itself and
still finish bit-identical to a serial run — which is exactly what the
chaos harness (:mod:`repro.fleet.chaos`) asserts under seeded fault
injection.
"""

from repro.fleet.cas import CasError, ContentStore, blob_digest, verify_digest
from repro.fleet.chaos import (ChaosConfig, ChaosRecord, ChaosSpec,
                               run_campaign)
from repro.fleet.coordinator import (FleetConfig, FleetCoordinator,
                                     FleetEvents, fleet_execute,
                                     resolve_fleet_config)
from repro.fleet.protocol import (MAGIC, MAX_FRAME, PROTOCOL_VERSION,
                                  ConnectionClosed, ProtocolError,
                                  point_from_dict, point_to_dict,
                                  recv_message, request, send_message)
from repro.fleet.worker import FleetWorker, WorkerConfig, worker_main

__all__ = [
    "ChaosConfig",
    "ChaosRecord",
    "ChaosSpec",
    "run_campaign",
    "CasError",
    "ContentStore",
    "blob_digest",
    "verify_digest",
    "FleetConfig",
    "FleetCoordinator",
    "FleetEvents",
    "fleet_execute",
    "resolve_fleet_config",
    "MAGIC",
    "MAX_FRAME",
    "PROTOCOL_VERSION",
    "ConnectionClosed",
    "ProtocolError",
    "point_from_dict",
    "point_to_dict",
    "recv_message",
    "request",
    "send_message",
    "FleetWorker",
    "WorkerConfig",
    "worker_main",
]
