"""Length-prefixed, CRC-framed message protocol for the sweep fleet.

One frame carries one message: a small JSON *header* (the control part:
message type, keys, lease ids, digests) plus an optional binary *body*
(trace blobs, result snapshots).  The layout, little-endian::

    magic "RFLT" | header_len u32 | body_len u64 | crc32 u32 | header | body

The crc32 covers header+body, so a bit flip anywhere in a frame — or a
truncated send from a dying peer — is a loud :class:`ProtocolError` at
the receiver, never a silently wrong message.  A clean EOF *between*
frames raises :class:`ConnectionClosed` (the normal way a session ends);
EOF *inside* a frame is corruption and raises :class:`ProtocolError`.

Every transfer of cache content additionally carries a SHA-256 digest of
the body in the header (see :mod:`repro.fleet.cas`), so even a frame
that passes the CRC cannot commit wrong bytes into a cache: the framing
check catches transport damage, the digest check catches anything that
went wrong before framing (a chaos-mangled upload, a buggy peer).

Messages are deliberately few — the fleet is a work queue, not an RPC
system:

=============  =============================================================
``hello``      worker → coordinator: protocol version + code fingerprint
``welcome``    coordinator → worker: accepted (echoes its fingerprint)
``lease``      worker asks for a point
``point``      a leased point: index, spec, lease id, deadline seconds
``idle``       nothing to lease right now; retry after ``delay``
``done``       every point resolved; the worker should exit
``heartbeat``  worker → coordinator: extend the lease deadline
``result``     point outcome upload: stats JSON body + digest, or error
``blob_get``   content-addressed cache read: (kind, key)
``blob_put``   content-addressed cache write: (kind, key, digest) + body
``blob``       ``blob_get`` reply: found flag, digest, body
``ok``         generic acknowledgement
``error``      rejection; ``fatal`` means the session must end
``bye``        worker → coordinator: clean disconnect
=============  =============================================================
"""

from __future__ import annotations

import dataclasses
import json
import socket
import struct
import zlib

MAGIC = b"RFLT"
PROTOCOL_VERSION = 1

#: refuse frames larger than this (a corrupt length prefix must not make
#: the receiver try to allocate gigabytes)
MAX_FRAME = 256 << 20

_HEADER = struct.Struct("<4sIQI")


class ProtocolError(RuntimeError):
    """Malformed, corrupt or oversized frame; the connection is dead."""


class ConnectionClosed(ProtocolError):
    """Peer closed the connection cleanly at a frame boundary."""


def send_message(sock: socket.socket, msg: dict, body: bytes = b"") -> None:
    """Serialize and send one frame (header JSON + optional body)."""
    header = json.dumps(msg, sort_keys=True).encode("utf-8")
    crc = zlib.crc32(header + body) & 0xFFFFFFFF
    sock.sendall(_HEADER.pack(MAGIC, len(header), len(body), crc)
                 + header + body)


def _recv_exact(sock: socket.socket, size: int,
                at_boundary: bool = False) -> bytes:
    """Read exactly ``size`` bytes.  EOF at byte 0 of a frame boundary is
    a clean close; EOF anywhere else is a truncated frame."""
    chunks = []
    remaining = size
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if at_boundary and remaining == size:
                raise ConnectionClosed("peer closed the connection")
            raise ProtocolError(
                f"truncated frame: peer closed with {remaining} of "
                f"{size} byte(s) outstanding")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket,
                 max_frame: int = MAX_FRAME) -> tuple[dict, bytes]:
    """Receive one frame; returns ``(header dict, body bytes)``.

    Raises :class:`ProtocolError` on a bad magic, an oversized length, a
    CRC mismatch, a truncated frame or an unparseable header — all of
    which mean the stream can no longer be trusted and the connection
    must be dropped.
    """
    prefix = _recv_exact(sock, _HEADER.size, at_boundary=True)
    magic, header_len, body_len, crc = _HEADER.unpack(prefix)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    if header_len + body_len > max_frame:
        raise ProtocolError(
            f"frame of {header_len + body_len} bytes exceeds the "
            f"{max_frame}-byte limit")
    header = _recv_exact(sock, header_len)
    body = _recv_exact(sock, body_len) if body_len else b""
    if zlib.crc32(header + body) & 0xFFFFFFFF != crc:
        raise ProtocolError("frame CRC mismatch (corrupt or torn frame)")
    try:
        msg = json.loads(header.decode("utf-8"))
        if not isinstance(msg, dict) or "type" not in msg:
            raise ValueError("header must be an object with a 'type'")
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"unparseable frame header: {exc}") from None
    return msg, body


def request(sock: socket.socket, msg: dict, body: bytes = b"",
            max_frame: int = MAX_FRAME) -> tuple[dict, bytes]:
    """Send one message and wait for its reply (the client-side idiom)."""
    send_message(sock, msg, body)
    return recv_message(sock, max_frame)


# --------------------------------------------------------- point transport
def point_to_dict(point) -> dict:
    """JSON-able snapshot of a :class:`~repro.harness.parallel.SweepPoint`."""
    return {
        "profile": dataclasses.asdict(point.profile),
        "scheme": point.scheme,
        "size": point.size,
        "insts": point.insts,
        "seed": point.seed,
        "sampling": point.sampling,
        "port_scheme": point.port_scheme,
    }


def point_from_dict(raw: dict):
    """Rebuild a :class:`~repro.harness.parallel.SweepPoint`.

    The profile is matched back to the canonical ``BENCHMARKS`` instance
    when the field values agree (so its memoised canonical JSON is reused);
    an unknown or diverged profile is reconstructed field by field —
    JSON stringifies the ``consumer_dist`` int keys, which must be
    converted back before the dataclass round-trips.
    """
    from repro.harness.parallel import SweepPoint
    from repro.workloads.profiles import BENCHMARKS, WorkloadProfile

    profile_raw = dict(raw["profile"])
    profile_raw["consumer_dist"] = {
        int(k): v for k, v in profile_raw["consumer_dist"].items()}
    canonical = BENCHMARKS.get(profile_raw["name"])
    if canonical is not None \
            and dataclasses.asdict(canonical) == profile_raw:
        profile = canonical
    else:
        profile = WorkloadProfile(**profile_raw)
    return SweepPoint(
        profile=profile,
        scheme=raw["scheme"],
        size=raw["size"],
        insts=raw["insts"],
        seed=raw["seed"],
        sampling=raw.get("sampling"),
        port_scheme=raw.get("port_scheme", "none"),
    )
