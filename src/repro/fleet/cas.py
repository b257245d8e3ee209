"""Content-addressed store bridge between the fleet and the on-disk caches.

The fleet does not invent a new storage format: blobs are addressed by
the *existing* cache keys — :func:`repro.harness.cache.trace_key` for
pregenerated ``.rtc`` trace blobs and :func:`repro.harness.cache.point_key`
for result snapshots — both of which already fold in a code fingerprint,
so a mixed-version fleet self-invalidates (a stale worker's keys simply
never match) instead of cross-polluting caches.

Every transfer is digest-verified end to end:

* the sender computes ``sha256(body)`` and ships it in the frame header;
* the receiver recomputes it over the received bytes and **rejects** on
  mismatch — a truncated or bit-flipped upload is refused, never cached;
* blobs are additionally *semantically* validated before commit (a trace
  blob must pass the codec's own header+CRC check, a result blob must
  round-trip through ``stats_from_dict``), so even a correctly-delivered
  garbage blob cannot enter a cache;
* commits go through the caches' atomic temp-file + fsync + rename
  writes, so a crash mid-commit leaves the previous state, not a torn
  entry.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

#: blob namespaces the store serves
KINDS = ("trace", "result")


class CasError(RuntimeError):
    """A blob failed digest or semantic validation; nothing was stored."""


def blob_digest(body: bytes) -> str:
    """The content address of a blob: hex SHA-256 of its bytes."""
    return hashlib.sha256(body).hexdigest()


def verify_digest(body: bytes, claimed: str) -> None:
    """Raise :class:`CasError` unless ``body`` hashes to ``claimed``."""
    actual = blob_digest(body)
    if actual != claimed:
        raise CasError(f"digest mismatch: body hashes to {actual[:16]}…, "
                       f"header claims {str(claimed)[:16]}…")


class ContentStore:
    """(kind, key) ↔ validated blob bytes, backed by the existing caches.

    ``trace`` blobs live in a :class:`~repro.harness.cache.TraceCache`
    as binary ``.rtc`` entries; ``result`` blobs live in a
    :class:`~repro.harness.cache.ResultCache` as the exact stored JSON
    bytes.  Both sides of a fleet hold one of these over their local
    cache directories; the coordinator's store is what ``blob_get`` /
    ``blob_put`` frames talk to.
    """

    def __init__(self, result_cache=None, trace_cache=None) -> None:
        from repro.harness.cache import ResultCache, TraceCache

        self.result_cache = result_cache if result_cache is not None \
            else ResultCache()
        self.trace_cache = trace_cache if trace_cache is not None \
            else TraceCache()
        self.served = 0
        self.committed = 0
        self.rejected = 0

    # ------------------------------------------------------------------ read
    def get(self, kind: str, key: str) -> Optional[bytes]:
        """The blob for (kind, key), or ``None`` on a miss.

        Reads are validated by the underlying caches (codec header+CRC
        for traces, JSON+schema for results), so a corrupt on-disk entry
        reads as a miss here too — it is never shipped to a peer.
        """
        if kind == "trace":
            blob = self.trace_cache.get_blob(key)
        elif kind == "result":
            blob = self.result_cache.get_bytes(key)
        else:
            raise CasError(f"unknown blob kind {kind!r}")
        if blob is not None:
            self.served += 1
        return blob

    # ----------------------------------------------------------------- write
    def put(self, kind: str, key: str, body: bytes,
            digest: Optional[str] = None) -> str:
        """Validate and atomically commit a blob; returns its digest.

        Raises :class:`CasError` (and stores nothing) when the digest
        does not match or the blob fails its format's own validation —
        the verified-then-committed rule that keeps a truncated or
        corrupted transfer out of the cache.
        """
        try:
            if digest is not None:
                verify_digest(body, digest)
            if kind == "trace":
                self._put_trace(key, body)
            elif kind == "result":
                self._put_result(key, body)
            else:
                raise CasError(f"unknown blob kind {kind!r}")
        except CasError:
            self.rejected += 1
            raise
        self.committed += 1
        return digest if digest is not None else blob_digest(body)

    def _put_trace(self, key: str, body: bytes) -> None:
        from repro.workloads.trace_codec import TraceCodecError, validate_blob

        try:
            validate_blob(body)  # magic/version/schema + payload crc32
        except (TraceCodecError, ValueError) as exc:
            raise CasError(f"trace blob failed codec validation: {exc}") \
                from None
        self.trace_cache.put_blob(key, body)

    def _put_result(self, key: str, body: bytes) -> None:
        from repro.pipeline.stats import stats_from_dict

        try:
            raw = json.loads(body.decode("utf-8"))
            stats_from_dict(raw)  # schema validation, result discarded
        except Exception as exc:
            raise CasError(f"result blob failed stats validation: "
                           f"{type(exc).__name__}: {exc}") from None
        self.result_cache.put_bytes(key, body)
