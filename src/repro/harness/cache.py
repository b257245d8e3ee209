"""Persistent, content-addressed caches for the experiment harness.

Two caches live here:

**Result cache** — every sweep point the harness runs is a pure function
of its inputs — the :class:`~repro.pipeline.config.MachineConfig`, the
workload profile, the instruction count, the seed and the sampling
schedule (``None`` for exact runs) — plus the simulator's own code.  The
cache keys on a stable SHA-256 of exactly those inputs, with a
*code fingerprint* (a hash over every ``.py`` file of the ``repro``
package) folded in so results from a stale simulator invalidate
automatically instead of silently polluting figures.  Values are
:meth:`~repro.pipeline.stats.SimStats.to_dict` /
:meth:`~repro.pipeline.stats.SampledStats.to_dict` snapshots stored
one-JSON-file-per-entry under the cache root:

* ``REPRO_CACHE_DIR`` environment variable, else
* ``~/.cache/repro/sweeps``.

**Trace cache** — pregenerated synthetic-workload traces, keyed by
(profile, insts, seed) plus a *generator fingerprint* that
hashes only the workload-generation modules, so simulator changes do not
invalidate traces.  Entries are stored in the binary columnar codec
(:mod:`repro.workloads.trace_codec`, ``.rtc`` files) under
``REPRO_TRACE_DIR``, else ``REPRO_CACHE_DIR``/traces, else
``~/.cache/repro/traces``.  :func:`cached_stream` is the harness entry
point: sweep workers find a trace in the memo they inherit from the
parent, which warms it before forking (:mod:`repro.harness.parallel`),
or decode it from disk, instead of re-running the generator; a
process-local LRU (:class:`TraceMemo`, 32 entries) keeps the parsed
columns of recently used workloads, and one resident instruction list
per process (:meth:`TraceStream.replay`) lets repeat points of a
workload rewind its instructions instead of materializing them again.

Corrupted or truncated entries are treated as misses (and removed), never
as errors.  There is no eviction — result entries are a few KB each — and
deleting either directory is always safe.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections import OrderedDict
from functools import lru_cache
from pathlib import Path
from typing import Optional, Union

from repro.pipeline.config import MachineConfig
from repro.pipeline.stats import SampledStats, SimStats, stats_from_dict
from repro.workloads.profiles import WorkloadProfile


def default_cache_dir() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "sweeps"


def _unlink_quietly(path: Union[str, os.PathLike]) -> None:
    """Best-effort unlink: a concurrent writer/reader may already have
    removed (or be replacing) the entry — never an error."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    except OSError:
        pass


def atomic_write_bytes(path: os.PathLike, data: bytes) -> None:
    """Crash-safe file publication: temp file + fsync + atomic rename.

    Readers — including a resumed run after SIGKILL — observe either the
    previous complete contents or the new complete contents, never a torn
    intermediate.  The fsync orders the data before the rename so a power
    loss cannot leave a renamed-but-empty file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)  # atomic on POSIX
    except BaseException:
        _unlink_quietly(tmp)
        raise


def atomic_write_text(path: os.PathLike, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Hash of the whole ``repro`` package source.

    Conservative by design: *any* source change invalidates every cached
    result, because config/workload hashing cannot know which module a
    simulation's behaviour actually depends on.
    """
    import repro

    root = Path(repro.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def payload_json(plain: dict, **canonical: str) -> str:
    """``json.dumps(payload, sort_keys=True, default=repr)`` for a payload
    whose ``canonical`` entries are already canonical JSON texts (a
    profile's or a config's memoised :meth:`canonical_json`): those are
    spliced in verbatim instead of being re-serialised, and the result is
    byte-identical to serialising the whole payload."""
    items = [(name, json.dumps(value, sort_keys=True, default=repr))
             for name, value in plain.items()]
    items += canonical.items()
    return "{" + ", ".join(f"{json.dumps(name)}: {text}"
                           for name, text in sorted(items)) + "}"


def point_key(config: MachineConfig, profile: WorkloadProfile, insts: int,
              seed: int, fingerprint: Optional[str] = None,
              sampling: Optional[str] = None) -> str:
    """Stable content hash of one simulation's complete inputs.

    ``sampling`` is the ``PERIOD:WINDOW:WARMUP`` spec for interval-sampled
    runs and ``None`` for exact runs — the two must never share a cache
    entry (a sampled estimate silently standing in for an exact result
    would corrupt golden comparisons).  The config and profile enter as
    their memoised canonical JSON, so a key costs one SHA-256.
    """
    blob = payload_json(
        {"insts": insts, "seed": seed, "sampling": sampling,
         "code": fingerprint if fingerprint is not None
         else code_fingerprint()},
        config=config.canonical_json(), profile=profile.canonical_json())
    return hashlib.sha256(blob.encode()).hexdigest()


class ResultCache:
    """On-disk SimStats cache; safe for concurrent writers (atomic rename)."""

    def __init__(self, root: Optional[os.PathLike] = None,
                 fingerprint: Optional[str] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        #: entry paths are built as strings on every lookup: a figure job
        #: makes hundreds, and each pathlib join builds two objects
        self._root = str(self.root)
        self.fingerprint = fingerprint if fingerprint is not None \
            else code_fingerprint()
        self.hits = 0
        self.misses = 0
        #: SweepPoint -> key: a sweep looks each point up before running
        #: it and again when publishing its result, and a figure job
        #: revisits the same points across several sweeps
        self._point_keys: dict = {}

    # ------------------------------------------------------------------ keys
    def key_for(self, config: MachineConfig, profile: WorkloadProfile,
                insts: int, seed: int,
                sampling: Optional[str] = None) -> str:
        return point_key(config, profile, insts, seed, self.fingerprint,
                         sampling=sampling)

    def key_for_point(self, point) -> str:
        """Key for a :class:`~repro.harness.parallel.SweepPoint`, computed
        once per point per cache instance."""
        key = self._point_keys.get(point)
        if key is None:
            from repro.harness.runner import make_config  # avoid import cycle

            config = make_config(point.profile, point.scheme, point.size,
                                 port_scheme=point.port_scheme)
            key = self.key_for(config, point.profile, point.insts,
                               point.seed, sampling=point.sampling)
            self._point_keys[point] = key
        return key

    def _file(self, key: str) -> str:
        return f"{self._root}/{key[:2]}/{key}.json"

    # ------------------------------------------------------------------ access
    def get(self, key: str) -> Optional[Union[SimStats, SampledStats]]:
        path = self._file(key)
        try:
            with open(path) as handle:
                stats = stats_from_dict(json.load(handle))
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            # corrupted/truncated/wrong-schema entry: a miss, not a crash
            # (another reader may have unlinked it first — also fine)
            self.misses += 1
            _unlink_quietly(path)
            return None
        self.hits += 1
        return stats

    def put(self, key: str, stats: Union[SimStats, SampledStats]) -> None:
        atomic_write_text(self._file(key), json.dumps(stats.to_dict()))

    # ------------------------------------------------------------------ maintenance
    def _entries(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return list(self.root.glob("??/*.json"))

    def __len__(self) -> int:
        return len(self._entries())


# ---------------------------------------------------------------------- traces
def default_trace_dir() -> Path:
    env = os.environ.get("REPRO_TRACE_DIR")
    if env:
        return Path(env)
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env) / "traces"
    return Path.home() / ".cache" / "repro" / "traces"


@lru_cache(maxsize=1)
def generator_fingerprint() -> str:
    """Hash of only the workload-generation source.

    Deliberately narrower than :func:`code_fingerprint`: a pregenerated
    trace depends on the generator, the profiles and the codec — not on
    the simulator.  Pipeline changes keep traces valid.
    """
    from repro.workloads import generator, profiles, trace_codec

    digest = hashlib.sha256()
    for module in (generator, profiles, trace_codec):
        path = Path(module.__file__)
        digest.update(path.name.encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def trace_key(profile: WorkloadProfile, insts: int, seed: int,
              fingerprint: Optional[str] = None) -> str:
    """Stable content hash of one pregenerated trace's inputs."""
    blob = payload_json(
        {"insts": insts, "seed": seed,
         "generator": fingerprint if fingerprint is not None
         else generator_fingerprint()},
        profile=profile.canonical_json())
    return hashlib.sha256(blob.encode()).hexdigest()


class _Insts(list):
    """A materialized instruction list; a list subclass only so it can be
    weakly referenced, which lets a caller observe its release."""


#: the one workload this process keeps materialized for
#: :meth:`TraceStream.replay`: ``(stream, instructions)``, or None
_resident: Optional[tuple] = None


class TraceStream:
    """Re-iterable binary-codec trace.

    The blob is parsed into :class:`~repro.workloads.trace_codec.
    TraceColumns` once (lazily, checksum-validated).  The pipeline
    mutates instructions in place, so a pass needs instructions in their
    just-decoded state, which come two ways:

    * iterating materializes fresh :class:`~repro.isa.dyninst.DynInst`
      objects every time;
    * :meth:`replay` keeps one workload's instructions resident per
      process and rewinds them between passes, so a sweep worker that
      runs many points of one workload materializes it once.
    """

    def __init__(self, blob: bytes, total_insts: int) -> None:
        self.blob = blob
        self.total_insts = total_insts
        self._columns = None

    def columns(self):
        if self._columns is None:
            from repro.workloads.trace_codec import TraceColumns

            self._columns = TraceColumns(self.blob)
        return self._columns

    def __iter__(self):
        return iter(self.columns().materialize())

    def replay(self):
        """An iterator over this trace's instructions in their
        just-decoded state, from the process's resident list.

        The resident list is this stream's when the previous replay was
        this stream's: it is rewound, not rebuilt.  Otherwise the old
        list is dropped before this stream's columns are parsed and its
        instructions materialized, so a process holds at most one
        workload's instructions and the new workload reuses the old one's
        memory.  The instructions stay the resident's: a caller must
        finish with them before the next replay.
        """
        global _resident
        if _resident is not None and _resident[0] is self:
            return iter(self.columns().rewind(_resident[1]))
        _resident = None
        insts = _Insts(self.columns().materialize())
        _resident = (self, insts)
        return iter(insts)


class TraceCache:
    """On-disk pregenerated-trace cache: one binary columnar blob
    (``.rtc``) per trace key."""

    def __init__(self, root: Optional[os.PathLike] = None,
                 fingerprint: Optional[str] = None) -> None:
        self.root = Path(root) if root is not None else default_trace_dir()
        self._root = str(self.root)  # see ResultCache
        self.fingerprint = fingerprint if fingerprint is not None \
            else generator_fingerprint()
        self.hits = 0
        self.misses = 0

    def key_for(self, profile: WorkloadProfile, insts: int, seed: int) -> str:
        return trace_key(profile, insts, seed, self.fingerprint)

    def _file(self, key: str) -> str:
        return f"{self._root}/{key[:2]}/{key}.rtc"

    def get_blob(self, key: str) -> Optional[bytes]:
        """The stored binary trace blob, or ``None`` on a miss.

        The blob's header (magic, version, schema digest) and payload
        checksum are validated here, so corruption, truncation and
        version skew all read as misses (and remove the entry) rather
        than surfacing later as decode errors.
        """
        from repro.workloads.trace_codec import TraceCodecError, trace_count

        path = self._file(key)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
            trace_count(blob)  # full header + checksum validation
        except FileNotFoundError:
            self.misses += 1
            return None
        except (TraceCodecError, OSError, ValueError):
            self.misses += 1
            _unlink_quietly(path)
            return None
        self.hits += 1
        return blob

    def put_blob(self, key: str, blob: bytes) -> None:
        atomic_write_bytes(self._file(key), blob)

    def get_stream(self, key: str, insts: int) -> Optional[TraceStream]:
        """The cached trace as a re-iterable stream, or ``None``."""
        blob = self.get_blob(key)
        return None if blob is None else TraceStream(blob, insts)

    def put_insts(self, key: str, insts_list: list,
                  total_insts: int) -> TraceStream:
        """Encode a generated instruction list, store it, and return the
        stream decoded from the stored bytes.  An instruction the codec
        cannot represent raises
        :class:`~repro.workloads.trace_codec.TraceCodecError`.

        Nothing in the package calls this (:func:`cached_stream` stores
        the workload's :meth:`~repro.workloads.generator.SyntheticWorkload.
        trace_bytes`); it stays only because the benchmark's traced run
        (``bench/spans.py``) hooks it by name."""
        from repro.workloads.trace_codec import encode

        blob = encode(insts_list)
        self.put_blob(key, blob)
        return TraceStream(blob, total_insts)

    # ------------------------------------------------------- maintenance
    def _entries(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return list(self.root.glob("??/*.rtc"))

    def __len__(self) -> int:
        return len(self._entries())


#: decoded trace streams a process keeps (:class:`TraceMemo`)
TRACE_MEMO_LIMIT = 32


class TraceMemo:
    """Process-local LRU of decoded trace streams.

    Keyed by (profile, insts, seed) — the profile itself, which
    hashes and compares by content, not its name; bounded by
    :data:`TRACE_MEMO_LIMIT` entries.  Holding the stream object — not
    just its bytes — keeps a binary stream's parsed columns warm: a
    worker revisiting a workload skips the read and the parse, and
    materializes it again only if another workload became resident in
    between (:meth:`TraceStream.replay`).
    """

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[tuple, object]" = OrderedDict()

    def get(self, key: tuple):
        stream = self._entries.get(key)
        if stream is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return stream

    def put(self, key: tuple, stream) -> None:
        self._entries[key] = stream
        self._entries.move_to_end(key)
        while len(self._entries) > TRACE_MEMO_LIMIT:
            self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries


#: process-wide memo instance
TRACE_MEMO = TraceMemo()


def cached_stream(profile: WorkloadProfile, insts: int, seed: int = 1,
                  cache: Optional[TraceCache] = None):
    """The workload stream for one sweep point, via the trace cache.

    Resolution order: process-local :class:`TraceMemo` -> on-disk trace
    cache -> generate (and populate both).  A miss writes the ``.rtc``
    bytes straight from the generator's column emitter
    (:meth:`~repro.workloads.generator.SyntheticWorkload.trace_bytes`),
    so no instruction object is built to be encoded; the emitter's bytes
    equal ``encode`` of the generator's instructions.  Every path
    returns a stream decoded from the serialized bytes — never the raw
    generator — so jobs=1, warm-worker and cold-worker runs all consume
    byte-identical streams.
    """
    trace_cache = cache if cache is not None else TraceCache()
    memo_key = (profile, insts, seed)
    stream = TRACE_MEMO.get(memo_key)
    if stream is None:
        key = trace_cache.key_for(profile, insts, seed)
        stream = trace_cache.get_stream(key, insts)
        if stream is None:
            from repro.workloads.generator import SyntheticWorkload

            blob = SyntheticWorkload(profile, total_insts=insts,
                                     seed=seed).trace_bytes()
            trace_cache.put_blob(key, blob)
            stream = TraceStream(blob, insts)
        TRACE_MEMO.put(memo_key, stream)
    return stream
