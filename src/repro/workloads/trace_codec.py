"""Binary columnar trace codec (the :class:`TraceCache` storage format).

A trace is stored as a versioned, checksummed block of fixed-width
columns — one array per DynInst field — instead of one JSON object per
instruction, so decoding a workload is a handful of C-level
``struct.unpack`` calls plus one tight materialization loop, rather than
per-line ``json.loads`` + dict lookups + register-name parsing.
Measured on the synthetic benchmark traces this decodes >5x faster than
the gzipped JSON lines it replaced, and the parsed columns can be kept
and re-materialized per pass, which is another ~3x on top.  The pipeline mutates instructions in place, so a pass needs
either fresh :class:`~repro.isa.dyninst.DynInst` objects or a list put
back to its just-decoded state (:meth:`TraceColumns.rewind`, which
builds no objects).

Who writes ``.rtc`` bytes: :class:`ColumnWriter` is the one place the
payload layout is written, and two producers fill it.  The synthetic
workload generator's column emitter
(:meth:`~repro.workloads.generator.SyntheticWorkload.trace_bytes`)
appends straight from its loop bodies without building any instruction
objects, and is what the trace cache stores on a miss.  :func:`encode`
walks instruction objects; it is the test oracle of ``trace_bytes``
(both produce identical bytes for the same stream).

Layout (all little-endian)::

    header   magic "RTRC" | version u16 | schema digest 8B | count u32
             | payload crc32 u32 | payload length u64
    payload  op u8[n] | flags u8[n] | seq u32[n] | pc u32[n]
             | next_pc u32[n] | dest u8[n] | srcs (count u8[n] + flat
             regs u8[...]) | sparse: target u32, h_srcs (count+mask),
             h_depth u32 | tagged value columns: imm, mem_addr,
             store_value, result | src_values (count u8[n] + tagged
             stream)

Tagged value columns carry ``Optional[int | float | bool]`` payloads
grouped *by tag* (all i64 together, all doubles together, ...), so the
bulk of the data moves through ``struct.unpack`` instead of a per-value
Python branch.  Arbitrary-precision integers that do not fit in an i64
fall back to a length-prefixed decimal blob.

The schema digest hashes the format version, the opcode table and the
column layout: a trace written by a different codec revision fails to
decode with :class:`TraceCodecError` ("version skew"), which the cache
layer treats as a miss.  The trailing crc32 covers the whole payload, so
corruption and truncation are likewise loud, immediate errors — never a
silently wrong stream.

Encoding is defined to be *semantically identical* to a JSON-lines round
trip: fields whose value is ``None`` (or a ``False`` flag) are elided the
same way :func:`repro.workloads.trace_io._encode` elides them, so
``TraceColumns(encode(insts)).materialize()`` equals what ``trace_io``
would have reconstructed, bit for bit — the hypothesis property in
``tests/test_trace_codec.py`` pins this over fuzzer-generated programs.
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from typing import Iterable, Iterator, List, Optional

from repro.isa.dyninst import DynInst
from repro.isa.opcodes import OPCODES, Op
from repro.isa.registers import INT_REGS, RegClass, RegRef

MAGIC = b"RTRC"
FORMAT_VERSION = 1

#: opcode table in enum-definition order; the schema digest pins it
_OP_LIST: tuple = tuple(Op)
_OP_INDEX = {op: i for i, op in enumerate(_OP_LIST)}

#: register lookup table: byte (cls * INT_REGS + idx) -> RegRef
_REG_TABLE = tuple(RegRef(cls, idx) for cls in (RegClass.INT, RegClass.FP)
                   for idx in range(INT_REGS))
_REG_INDEX = {ref: i for i, ref in enumerate(_REG_TABLE)}
_NO_REG = 0xFF

#: dest-column lookup: valid register bytes, a sentinel for the invalid
#: gap, and None at _NO_REG — one C-level index per instruction
_BAD_REG = object()
_DEST_TABLE = (list(_REG_TABLE)
               + [_BAD_REG] * (_NO_REG - len(_REG_TABLE)) + [None])

#: static metadata by op *byte* (columnar scans never build Op objects)
_INFO_TABLE = tuple(OPCODES[op] for op in _OP_LIST)

#: public alias for columnar consumers (the sampling warmer)
OP_INFO_TABLE = _INFO_TABLE

#: ``bytes.translate`` tables marking instruction classes: byte -> 1/0.
#: Classifying a whole op column is then one C-level translate call.
_BRANCH_MARKS = bytes(
    1 if b < len(_OP_LIST) and _INFO_TABLE[b].is_branch else 0
    for b in range(256))
_MEM_MARKS = bytes(
    1 if b < len(_OP_LIST) and _INFO_TABLE[b].is_mem else 0
    for b in range(256))

_ONE = b"\x01"

#: per-instruction flag bits
_F_TAKEN = 1
_F_FAULTS = 2
_F_HDEST = 4
_F_TARGET = 8
_F_HSRCS = 16
_F_HDEPTH = 32

#: public alias: the taken bit of the packed flags column
F_TAKEN = _F_TAKEN

#: value tags of the tagged columns
_T_I64 = 1
_T_F64 = 2
_T_BOOL = 3
_T_BIG = 4

#: public aliases for column producers: the tags of int and float values
T_I64 = _T_I64
T_F64 = _T_F64

#: flag -> translate table marking instructions carrying that flag bit,
#: for O(1)-per-query prefix counts over the packed flags column and for
#: finding the faulting instructions a rewind re-arms
_FLAG_MARKS = {
    flag: bytes(1 if b & flag else 0 for b in range(256))
    for flag in (_F_FAULTS, _F_HDEST, _F_TARGET, _F_HSRCS, _F_HDEPTH)
}


def _mark_indices(marks: bytes) -> list:
    """Indices of the set bytes in a 0/1 marks string."""
    out: list = []
    append = out.append
    find = marks.find
    i = find(_ONE)
    while i != -1:
        append(i)
        i = find(_ONE, i + 1)
    return out


_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1
_U32_MAX = (1 << 32) - 1

_HEADER = struct.Struct("<4sH8sIIQ")

_LAYOUT = ("op|flags|seq|pc|next_pc|dest|srcs|target|h_srcs|h_depth"
           "|imm|mem_addr|store_value|result|src_values")


def schema_digest() -> bytes:
    """8-byte digest of everything a reader must agree on."""
    blob = "\0".join([str(FORMAT_VERSION),
                      ",".join(op.value for op in _OP_LIST), _LAYOUT])
    return hashlib.sha256(blob.encode()).digest()[:8]


_SCHEMA = schema_digest()


class TraceCodecError(ValueError):
    """The blob is not a valid trace: corrupt, truncated, or written by a
    different codec revision.  Cache layers treat this as a miss."""


# ---------------------------------------------------------------------- encode
def _encode_value(value, tags: bytearray, i64s: list, f64s: list,
                  bools: bytearray, bigs: list) -> None:
    """Append one non-None value to the tag-grouped streams."""
    cls = type(value)
    if cls is bool:
        tags.append(_T_BOOL)
        bools.append(1 if value else 0)
    elif cls is int:
        if _I64_MIN <= value <= _I64_MAX:
            tags.append(_T_I64)
            i64s.append(value)
        else:
            tags.append(_T_BIG)
            bigs.append(str(value).encode("ascii"))
    elif cls is float:
        tags.append(_T_F64)
        f64s.append(value)
    else:
        raise TraceCodecError(f"unencodable value type {cls.__name__!r}")


def _pack_tagged(indices: list, tags: bytearray, i64s: list, f64s: list,
                 bools: bytearray, bigs: list, parts: list) -> None:
    n = len(indices)
    parts.append(struct.pack(f"<I{n}I", n, *indices))
    parts.append(bytes(tags))
    parts.append(struct.pack(f"<I{len(i64s)}q", len(i64s), *i64s))
    parts.append(struct.pack(f"<I{len(f64s)}d", len(f64s), *f64s))
    parts.append(struct.pack("<I", len(bools)))
    parts.append(bytes(bools))
    parts.append(struct.pack("<I", len(bigs)))
    for blob in bigs:
        parts.append(struct.pack("<I", len(blob)))
        parts.append(blob)


def _hint_pair(hints) -> bytes:
    """The (hint count, hint mask) byte pair the ``hsrcs`` column stores
    for one instruction's per-source single-use hints."""
    mask = 0
    for bit, hint in enumerate(hints):
        if hint:
            mask |= 1 << bit
    return bytes((len(hints), mask))


def static_columns(op: Op, dest: Optional[RegRef], srcs: tuple,
                   src_hints: tuple, dest_hint: bool, reuse_depth: int,
                   has_target: bool) -> tuple:
    """One instruction's fixed facts in column form, for producers that
    emit a static instruction many times: ``(op byte, flag bits, dest
    byte, source register bytes, hsrcs entry)``.  The flag bits cover the
    hints, ``F_TARGET`` and ``F_HDEPTH`` — never ``F_TAKEN`` or
    ``F_FAULTS``; the hsrcs entry is ``b""`` when no hint bit is set.  The
    producer still appends the target and the reuse depth themselves."""
    flag = _F_HDEST if dest_hint else 0
    pair = b""
    if any(src_hints):
        flag |= _F_HSRCS
        pair = _hint_pair(src_hints)
    if reuse_depth:
        flag |= _F_HDEPTH
    if has_target:
        flag |= _F_TARGET
    return (_OP_INDEX[op], flag,
            _NO_REG if dest is None else _REG_INDEX[dest],
            bytes(_REG_INDEX[ref] for ref in srcs), pair)


def _u32_column(values: list, what: str) -> bytes:
    for value in values:
        if not 0 <= value <= _U32_MAX:
            raise TraceCodecError(f"{what} {value!r} out of u32 range")
    return struct.pack(f"<{len(values)}I", *values)


def _tagged_column() -> tuple:
    """Empty (indices, tags, i64s, f64s, bools, bigs) streams."""
    return ([], bytearray(), [], [], bytearray(), [])


class ColumnWriter:
    """The payload's columns, filled by a producer and packed once.

    This is the one place the column layout is written.  Producers
    append to the attributes directly — a method call per value would
    cost as much as the appends — and call :meth:`pack` at the end.
    Two producers fill it: :func:`encode` from instruction objects, and
    :meth:`~repro.workloads.generator.SyntheticWorkload.trace_bytes`
    straight from the generator's loop bodies.

    ``hsrcs`` holds one (hint count, hint mask) byte pair per
    instruction flagged ``F_HSRCS``; ``targets`` and ``hdepths`` hold one
    entry per instruction flagged ``F_TARGET`` / ``F_HDEPTH``.  The four
    value columns are :func:`_tagged_column` tuples whose indices are
    instruction positions; ``src_values`` is positional (``sv_counts``
    gives each instruction's share), so its indices stay empty.
    """

    __slots__ = ("ops", "flags", "seqs", "pcs", "next_pcs", "dests",
                 "src_counts", "src_regs", "targets", "hsrcs", "hdepths",
                 "imms", "mem_addrs", "store_values", "results",
                 "sv_counts", "src_values")

    def __init__(self) -> None:
        self.ops = bytearray()
        self.flags = bytearray()
        self.seqs: list = []
        self.pcs: list = []
        self.next_pcs: list = []
        self.dests = bytearray()
        self.src_counts = bytearray()
        self.src_regs = bytearray()
        self.targets: list = []
        self.hsrcs = bytearray()
        self.hdepths: list = []
        self.imms = _tagged_column()
        self.mem_addrs = _tagged_column()
        self.store_values = _tagged_column()
        self.results = _tagged_column()
        self.sv_counts = bytearray()
        self.src_values = _tagged_column()

    def pack(self) -> bytes:
        """Header plus payload.  Raises :class:`TraceCodecError` for a
        u32 column value out of range."""
        parts = [bytes(self.ops), bytes(self.flags),
                 _u32_column(self.seqs, "seq"), _u32_column(self.pcs, "pc"),
                 _u32_column(self.next_pcs, "next_pc"), bytes(self.dests),
                 bytes(self.src_counts),
                 struct.pack("<I", len(self.src_regs)), bytes(self.src_regs),
                 struct.pack("<I", len(self.targets)),
                 _u32_column(self.targets, "target"),
                 struct.pack("<I", len(self.hsrcs) // 2), bytes(self.hsrcs),
                 struct.pack("<I", len(self.hdepths)),
                 _u32_column(self.hdepths, "hint_reuse_depth")]
        for column in (self.imms, self.mem_addrs, self.store_values,
                       self.results):
            _pack_tagged(*column, parts)
        parts.append(bytes(self.sv_counts))
        _pack_tagged(*self.src_values, parts)
        payload = b"".join(parts)
        header = _HEADER.pack(MAGIC, FORMAT_VERSION, _SCHEMA, len(self.ops),
                              zlib.crc32(payload), len(payload))
        return header + payload


def encode(insts: Iterable[DynInst]) -> bytes:
    """Serialize a trace to the columnar binary format.

    Raises :class:`TraceCodecError` for streams the fixed-width columns
    cannot represent.
    """
    out = ColumnWriter()
    ops, flags, seqs, pcs = out.ops, out.flags, out.seqs, out.pcs
    next_pcs, dests, targets = out.next_pcs, out.dests, out.targets
    src_counts, src_regs = out.src_counts, out.src_regs
    hsrc_bytes, hdepths, sv_counts = out.hsrcs, out.hdepths, out.sv_counts
    value_columns = (out.imms, out.mem_addrs, out.store_values, out.results)
    sv_tags, sv_i64s, sv_f64s, sv_bools, sv_bigs = out.src_values[1:]

    count = 0
    for dyn in insts:
        index = count
        count += 1
        try:
            ops.append(_OP_INDEX[dyn.op])
        except KeyError:
            raise TraceCodecError(f"unknown opcode {dyn.op!r}")
        seqs.append(dyn.seq)
        pcs.append(dyn.pc)
        next_pcs.append(dyn.next_pc)
        flag = 0
        if dyn.taken:
            flag |= _F_TAKEN
        if dyn.faults:
            flag |= _F_FAULTS
        if dyn.hint_dest_single_use:
            flag |= _F_HDEST
        if dyn.target is not None:
            flag |= _F_TARGET
            targets.append(dyn.target)
        hints = dyn.hint_src_single_use
        # trace_io semantics: the column exists only when some hint is set
        if hints and any(hints):
            if len(hints) > 8:
                raise TraceCodecError("more than 8 source hints")
            flag |= _F_HSRCS
            hsrc_bytes += _hint_pair(hints)
        if dyn.hint_reuse_depth:
            flag |= _F_HDEPTH
            hdepths.append(dyn.hint_reuse_depth)
        flags.append(flag)
        if dyn.dest is None:
            dests.append(_NO_REG)
        else:
            try:
                dests.append(_REG_INDEX[dyn.dest])
            except (KeyError, TypeError):
                raise TraceCodecError(f"unencodable register {dyn.dest!r}")
        srcs = dyn.srcs
        src_counts.append(len(srcs))
        for ref in srcs:
            try:
                src_regs.append(_REG_INDEX[ref])
            except (KeyError, TypeError):
                raise TraceCodecError(f"unencodable register {ref!r}")
        # value fields follow trace_io's "None or False is elided" rule
        for value, column in zip((dyn.imm, dyn.mem_addr, dyn.store_value,
                                  dyn.result), value_columns):
            if value is None or value is False:
                continue
            column[0].append(index)
            _encode_value(value, *column[1:])
        values = dyn.src_values
        if len(values) > 255:
            raise TraceCodecError("more than 255 source values")
        sv_counts.append(len(values))
        for value in values:
            if value is None:
                # JSON would write null; keep positional fidelity
                sv_tags.append(0)
                continue
            _encode_value(value, sv_tags, sv_i64s, sv_f64s, sv_bools,
                          sv_bigs)
    return out.pack()


# ---------------------------------------------------------------------- decode
def _check_header(data: bytes) -> tuple[int, int]:
    """Validate magic/version/length/crc; returns (count, payload offset)."""
    if len(data) < _HEADER.size:
        raise TraceCodecError("truncated trace header")
    magic, version, schema, count, crc, length = \
        _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise TraceCodecError("bad magic: not a columnar trace")
    if version != FORMAT_VERSION or schema != _SCHEMA:
        raise TraceCodecError(
            f"version skew: blob v{version} vs codec v{FORMAT_VERSION}")
    if len(data) - _HEADER.size != length:
        raise TraceCodecError("truncated or padded trace payload")
    if zlib.crc32(memoryview(data)[_HEADER.size:]) != crc:
        raise TraceCodecError("trace payload checksum mismatch")
    return count, _HEADER.size


def trace_count(data: bytes) -> int:
    """Instruction count from a validated header (full crc check)."""
    count, offset = _check_header(data)
    return count


class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes, pos: int) -> None:
        self.data = data
        self.pos = pos

    def bytes_(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise TraceCodecError("truncated column")
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk

    def u32(self) -> int:
        return struct.unpack_from("<I", self.bytes_(4))[0]

    def array(self, fmt: str, n: int, width: int) -> tuple:
        return struct.unpack(f"<{n}{fmt}", self.bytes_(n * width))


def _read_tagged(reader: _Reader, count: int) -> list:
    """One tagged value column -> per-instruction values (None default)."""
    n = reader.u32()
    indices = reader.array("I", n, 4)
    tags = reader.bytes_(n)
    i64_raw = reader.array("q", reader.u32(), 8)
    f64_raw = reader.array("d", reader.u32(), 8)
    bool_raw = reader.bytes_(reader.u32())
    n_big = reader.u32()
    big_raw = [int(reader.bytes_(reader.u32()).decode("ascii"))
               for _ in range(n_big)]
    values: list = [None] * count
    if n == 0:
        return values
    if max(indices) >= count:
        raise TraceCodecError("value index out of range")
    # homogeneous columns (the common case: a trace's imm / mem_addr /
    # result values are almost always all-int or all-float) skip the
    # per-value tag dispatch entirely
    if len(i64_raw) == n and not (f64_raw or bool_raw or big_raw):
        for pair in zip(indices, i64_raw):
            values[pair[0]] = pair[1]
        return values
    if len(f64_raw) == n and not (i64_raw or bool_raw or big_raw):
        for pair in zip(indices, f64_raw):
            values[pair[0]] = pair[1]
        return values
    i64s, f64s = iter(i64_raw), iter(f64_raw)
    bools, bigs = iter(bool_raw), iter(big_raw)
    for index, tag in zip(indices, tags):
        if index >= count:
            raise TraceCodecError("value index out of range")
        values[index] = _next_tagged(tag, i64s, f64s, bools, bigs)
    return values


def _next_tagged(tag: int, i64s, f64s, bools, bigs):
    try:
        if tag == _T_I64:
            return next(i64s)
        if tag == _T_F64:
            return next(f64s)
        if tag == _T_BOOL:
            return bool(next(bools))
        if tag == _T_BIG:
            return next(bigs)
    except StopIteration:
        raise TraceCodecError("tagged column underflow")
    if tag == 0:
        return None
    raise TraceCodecError(f"unknown value tag {tag}")


class TraceColumns:
    """A fully parsed (but not yet materialized) trace.

    Parsing happens once; :meth:`materialize` then builds fresh
    :class:`~repro.isa.dyninst.DynInst` objects per call.  The pipeline
    mutates instructions in place, so a simulation pass needs either its
    own copies or a materialized list that :meth:`rewind` has put back
    to its just-decoded state.
    """

    __slots__ = ("count", "ops", "op_bytes", "flags", "seqs", "pcs",
                 "next_pcs", "dests", "srcss", "targets", "hsrcs",
                 "hdepths", "imms", "mem_addrs", "store_values", "results",
                 "src_valuess", "_branch_idx", "_mem_idx",
                 "_fetch_runs", "_flag_mark_cache")

    def __init__(self, data: bytes) -> None:
        count, offset = _check_header(data)
        self.count = count
        reader = _Reader(data, offset)
        op_list = _OP_LIST
        self.op_bytes = reader.bytes_(count)
        try:
            self.ops = [op_list[b] for b in self.op_bytes]
        except IndexError:
            raise TraceCodecError("opcode index out of range")
        self.flags = reader.bytes_(count)
        self.seqs = reader.array("I", count, 4)
        self.pcs = struct.unpack(f"<{count}I", reader.bytes_(count * 4))
        # range-scan caches, built lazily on first query
        self._branch_idx: Optional[list] = None
        self._mem_idx: Optional[list] = None
        self._fetch_runs: dict = {}
        self._flag_mark_cache: dict = {}
        self.next_pcs = reader.array("I", count, 4)
        dest_table = _DEST_TABLE
        self.dests = [dest_table[b] for b in reader.bytes_(count)]
        if _BAD_REG in self.dests:
            raise TraceCodecError("register index out of range")
        src_counts = reader.bytes_(count)
        flat = reader.bytes_(reader.u32())
        # srcs tuples repeat heavily (32 logical registers, 1-3 sources):
        # intern by raw byte pattern so repeats are one dict hit, and the
        # resulting tuples are shared (DynInst never mutates .srcs)
        regs = _REG_TABLE
        interned: dict = {}
        srcss = []
        append_srcs = srcss.append
        pos = 0
        try:
            for n in src_counts:
                end = pos + n
                key = flat[pos:end]
                srcs = interned.get(key)
                if srcs is None:
                    srcs = interned[key] = tuple(regs[b] for b in key)
                append_srcs(srcs)
                pos = end
        except IndexError:
            raise TraceCodecError("register index out of range")
        if pos != len(flat):
            raise TraceCodecError("source register column length mismatch")
        self.srcss = srcss
        self.targets = reader.array("I", reader.u32(), 4)
        hs_count = reader.u32()
        hs_raw = reader.bytes_(hs_count * 2)
        # (length, mask) pairs come from a tiny alphabet: intern them
        hs_memo: dict = {}
        hsrcs = []
        append_hs = hsrcs.append
        for i in range(hs_count):
            key = hs_raw[i * 2:i * 2 + 2]
            hints = hs_memo.get(key)
            if hints is None:
                hints = hs_memo[key] = tuple(
                    bool(key[1] >> bit & 1) for bit in range(key[0]))
            append_hs(hints)
        self.hsrcs = hsrcs
        self.hdepths = reader.array("I", reader.u32(), 4)
        self.imms = _read_tagged(reader, count)
        self.mem_addrs = _read_tagged(reader, count)
        self.store_values = _read_tagged(reader, count)
        self.results = _read_tagged(reader, count)
        sv_counts = reader.bytes_(count)
        n = reader.u32()
        if n != 0:
            raise TraceCodecError("src_values column has unexpected indices")
        total = sum(sv_counts)
        tags = reader.bytes_(total)
        i64_raw = reader.array("q", reader.u32(), 8)
        f64_raw = reader.array("d", reader.u32(), 8)
        bool_raw = reader.bytes_(reader.u32())
        n_big = reader.u32()
        big_raw = [int(reader.bytes_(reader.u32()).decode("ascii"))
                   for _ in range(n_big)]
        if len(i64_raw) == total and not (f64_raw or bool_raw or big_raw):
            flat_values: list = list(i64_raw)
        else:
            i64s, f64s = iter(i64_raw), iter(f64_raw)
            bools, bigs = iter(bool_raw), iter(big_raw)
            flat_values = [_next_tagged(tag, i64s, f64s, bools, bigs)
                           for tag in tags]
        src_valuess = []
        pos = 0
        for n_values in sv_counts:
            src_valuess.append(tuple(flat_values[pos:pos + n_values]))
            pos += n_values
        self.src_valuess = src_valuess
        if reader.pos != len(data):
            raise TraceCodecError("trailing bytes after trace payload")

    # ------------------------------------------------------- range queries
    def branch_indices(self) -> list:
        """Sorted indices of the branch instructions (cached).

        One C-level ``bytes.translate`` over the packed op column plus an
        index scan — no :class:`DynInst` is ever built.
        """
        idx = self._branch_idx
        if idx is None:
            idx = self._branch_idx = _mark_indices(
                self.op_bytes.translate(_BRANCH_MARKS))
        return idx

    def mem_indices(self) -> list:
        """Sorted indices of loads/stores carrying a memory address."""
        idx = self._mem_idx
        if idx is None:
            mem_addrs = self.mem_addrs
            idx = self._mem_idx = [
                i for i in _mark_indices(self.op_bytes.translate(_MEM_MARKS))
                if mem_addrs[i] is not None]
        return idx

    def fetch_line_starts(self, line_bytes: int) -> list:
        """Sorted indices where the i-fetch line changes (cached per size).

        Index 0 is always a start; a consumer resuming mid-stream must
        still compare its first event against its own line tracking,
        because a range can begin inside a run.
        """
        starts = self._fetch_runs.get(line_bytes)
        if starts is not None:
            return starts
        count = self.count
        starts = [0] if count else []
        append = starts.append
        pcs = self.pcs
        last = pcs[0] // line_bytes if count else 0
        for i in range(1, count):
            line = pcs[i] // line_bytes
            if line != last:
                last = line
                append(i)
        self._fetch_runs[line_bytes] = starts
        return starts

    def flag_count_before(self, flag: int, lo: int) -> int:
        """Instructions below index ``lo`` carrying ``flag`` (the position
        of index ``lo``'s entry within that flag's sparse column)."""
        marks = self._flag_mark_cache.get(flag)
        if marks is None:
            marks = self._flag_mark_cache[flag] = \
                self.flags.translate(_FLAG_MARKS[flag])
        return marks.count(_ONE, 0, lo)

    # ------------------------------------------------------ materialization
    def materialize(self) -> List[DynInst]:
        """Fresh :class:`DynInst` objects for one simulation pass."""
        return self.materialize_range(0, self.count)

    def materialize_range(self, lo: int, hi: int) -> List[DynInst]:
        """Fresh :class:`DynInst` objects for indices ``[lo, hi)`` only.

        The sampling engine materializes just its warm zones and detailed
        windows this way; skimmed regions never become objects at all.
        Sparse columns (targets, source hints, reuse depths) are entered
        at the right offset via flag prefix counts over the packed flags
        column.
        """
        lo = max(lo, 0)
        hi = min(hi, self.count)
        if lo >= hi:
            return []
        if lo == 0:
            t0 = h0 = d0 = 0
        else:
            t0 = self.flag_count_before(_F_TARGET, lo)
            h0 = self.flag_count_before(_F_HSRCS, lo)
            d0 = self.flag_count_before(_F_HDEPTH, lo)
        out: List[DynInst] = []
        append = out.append
        targets = iter(self.targets[t0:])
        hsrcs = iter(self.hsrcs[h0:])
        hdepths = iter(self.hdepths[d0:])
        make = DynInst
        for (op, flag, seq, pc, next_pc, dest, srcs, imm, mem_addr,
             store_value, result, src_values) in zip(
                self.ops[lo:hi], self.flags[lo:hi], self.seqs[lo:hi],
                self.pcs[lo:hi], self.next_pcs[lo:hi], self.dests[lo:hi],
                self.srcss[lo:hi], self.imms[lo:hi], self.mem_addrs[lo:hi],
                self.store_values[lo:hi], self.results[lo:hi],
                self.src_valuess[lo:hi]):
            dyn = make(seq, pc, op, dest, srcs, imm)
            dyn.next_pc = next_pc
            if src_values:
                dyn.src_values = src_values
            if mem_addr is not None:
                dyn.mem_addr = mem_addr
            if result is not None:
                dyn.result = result
            if store_value is not None:
                dyn.store_value = store_value
            if flag:
                if flag & _F_TAKEN:
                    dyn.taken = True
                if flag & _F_TARGET:
                    dyn.target = next(targets)
                if flag & _F_FAULTS:
                    dyn.faults = True
                if flag & _F_HDEST:
                    dyn.hint_dest_single_use = True
                if flag & _F_HSRCS:
                    dyn.hint_src_single_use = next(hsrcs)
                if flag & _F_HDEPTH:
                    dyn.hint_reuse_depth = next(hdepths)
            append(dyn)
        return out

    def rewind(self, insts: List[DynInst]) -> List[DynInst]:
        """Put a :meth:`materialize` list back to its just-decoded state.

        Resets every field the pipeline writes — the rename and timing
        bookkeeping, ``squashed`` and the LSQ back-reference — and
        re-arms ``faults`` from the flags column, because servicing a
        precise exception clears it.  The trace facts are never written,
        so they are left alone; the result compares equal to a fresh
        :meth:`materialize` without building any instruction.
        """
        for dyn in insts:
            dyn.dest_tag = None
            dyn.src_tags = []
            dyn.prev_map = None
            dyn.allocated_new = False
            dyn.reused_src = None
            dyn.alloc_bank = None
            dyn.completed = False
            dyn.exception_raised = False
            dyn.mispredicted = False
            dyn.squashed = False
            dyn.fetch_cycle = -1
            dyn.rename_cycle = -1
            dyn.issue_cycle = -1
            dyn.complete_cycle = -1
            dyn.commit_cycle = -1
            dyn.lsq_entry = None
        faulting = self.flags.translate(_FLAG_MARKS[_F_FAULTS])
        # synthetic sweep traces carry no faults: skip the index scan
        if _ONE in faulting:
            for index in _mark_indices(faulting):
                insts[index].faults = True
        return insts

    def __iter__(self) -> Iterator[DynInst]:
        return iter(self.materialize())

