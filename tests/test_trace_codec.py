"""Property tests for the binary columnar trace codec.

The codec's contract is *semantic identity with the JSON-lines codec*:
for any instruction stream, the decoded ``encode(insts)`` must reconstruct
exactly what a :mod:`tests.trace_io` round trip would have —
same values, same types (int vs float vs bool), same elisions (``None``
and ``False`` fields drop out identically).  Hypothesis fuzzes that
contract over adversarial streams (hint fields, faults, zero-valued
fields, bigints, infinities, empty tuples); separate properties pin the
failure modes — any corruption, truncation or version skew must raise
:class:`TraceCodecError` loudly, and the cache layer must treat those
as misses, never as errors.
"""

import io
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.harness.cache import TraceCache
from repro.isa.dyninst import DynInst
from repro.isa.opcodes import Op
from repro.isa.registers import INT_REGS, RegClass, RegRef
from repro.workloads import trace_codec
from repro.workloads.generator import SyntheticWorkload
from repro.workloads.profiles import BENCHMARKS
from repro.workloads.trace_codec import TraceCodecError
from tests.trace_io import load_trace, save_trace

#: every field the codecs serialize (pipeline bookkeeping is excluded)
_FIELDS = ("seq", "pc", "op", "dest", "srcs", "imm", "taken", "target",
           "next_pc", "mem_addr", "store_value", "result", "src_values",
           "faults", "hint_src_single_use", "hint_dest_single_use",
           "hint_reuse_depth")


def _fingerprint(dyn: DynInst) -> tuple:
    """Value *and* type of every serialized field (0 != 0.0 != False)."""
    out = []
    for name in _FIELDS:
        value = getattr(dyn, name)
        if isinstance(value, tuple):
            out.append(tuple((type(v), v) for v in value))
        else:
            out.append((type(value), value))
    return tuple(out)


def _json_roundtrip(insts: list) -> list:
    buffer = io.StringIO()
    save_trace(iter(insts), buffer)
    buffer.seek(0)
    return list(load_trace(buffer))


# ------------------------------------------------------------- strategies
_REGS = st.sampled_from([RegRef(cls, i)
                         for cls in (RegClass.INT, RegClass.FP)
                         for i in range(INT_REGS)])
_U32 = st.integers(0, 2**32 - 1)
_VALUES = st.one_of(
    st.booleans(),
    st.integers(-2**63, 2**63 - 1),          # i64 fast path
    st.integers(2**63, 2**200),              # bigint decimal-blob path
    st.integers(-2**200, -2**63 - 1),
    st.floats(allow_nan=False),              # incl. +/-inf, -0.0
)


@st.composite
def _dyninsts(draw) -> DynInst:
    srcs = tuple(draw(st.lists(_REGS, max_size=3)))
    dyn = DynInst(seq=draw(_U32), pc=draw(_U32),
                  op=draw(st.sampled_from(list(Op))),
                  dest=draw(st.none() | _REGS), srcs=srcs,
                  imm=draw(st.none() | _VALUES))
    dyn.taken = draw(st.booleans())
    dyn.target = draw(st.none() | _U32)
    dyn.next_pc = draw(_U32)
    dyn.mem_addr = draw(st.none() | _VALUES)
    dyn.store_value = draw(st.none() | _VALUES)
    dyn.result = draw(st.none() | _VALUES)
    dyn.src_values = tuple(draw(st.lists(st.none() | _VALUES, max_size=4)))
    dyn.faults = draw(st.booleans())
    dyn.hint_dest_single_use = draw(st.booleans())
    dyn.hint_src_single_use = tuple(draw(st.lists(st.booleans(),
                                                  max_size=8)))
    dyn.hint_reuse_depth = draw(st.integers(0, 2**32 - 1))
    return dyn


# ------------------------------------------------------------- round trip
@given(st.lists(_dyninsts(), max_size=25))
@settings(max_examples=150, deadline=None)
def test_roundtrip_is_bit_identical_with_json_codec(insts):
    binary = trace_codec.TraceColumns(
        trace_codec.encode(insts)).materialize()
    via_json = _json_roundtrip(insts)
    assert [_fingerprint(d) for d in binary] == \
        [_fingerprint(d) for d in via_json]


@given(st.lists(_dyninsts(), min_size=1, max_size=10))
@settings(max_examples=50, deadline=None)
def test_materialize_yields_fresh_objects_per_pass(insts):
    columns = trace_codec.TraceColumns(trace_codec.encode(insts))
    first, second = columns.materialize(), columns.materialize()
    assert [_fingerprint(d) for d in first] == \
        [_fingerprint(d) for d in second]
    assert all(a is not b for a, b in zip(first, second))


@pytest.mark.parametrize("profile", ["gsm", "hmmer", "dnn", "milc"])
def test_synthetic_workloads_roundtrip(profile):
    insts = list(SyntheticWorkload(BENCHMARKS[profile], total_insts=800,
                                   seed=1))
    binary = trace_codec.TraceColumns(
        trace_codec.encode(insts)).materialize()
    via_json = _json_roundtrip(insts)
    assert [_fingerprint(d) for d in binary] == \
        [_fingerprint(d) for d in via_json]
    assert trace_codec.trace_count(trace_codec.encode(insts)) == 800


def test_unrepresentable_streams_raise_cleanly():
    # seq beyond u32: the fixed-width column cannot hold it
    wide = DynInst(seq=2**33, pc=0, op=Op.ADD)
    with pytest.raises(TraceCodecError):
        trace_codec.encode([wide])
    # more hint slots than the 8-bit mask
    hinted = DynInst(seq=0, pc=0, op=Op.ADD)
    hinted.hint_src_single_use = (True,) * 9
    with pytest.raises(TraceCodecError):
        trace_codec.encode([hinted])


# ------------------------------------------------------------ failure modes
_BASE_INSTS = [DynInst(seq=i, pc=100 + i, op=Op.ADD,
                       dest=RegRef(RegClass.INT, i % 8),
                       srcs=(RegRef(RegClass.INT, (i + 1) % 8),),
                       imm=i * 3)
               for i in range(16)]
_BASE_BLOB = trace_codec.encode(_BASE_INSTS)


@given(st.integers(0, len(_BASE_BLOB) - 1), st.integers(1, 255))
@settings(max_examples=200, deadline=None)
def test_any_single_byte_corruption_is_loud(pos, delta):
    corrupted = bytearray(_BASE_BLOB)
    corrupted[pos] ^= delta
    with pytest.raises(TraceCodecError):
        trace_codec.TraceColumns(bytes(corrupted)).materialize()


@given(st.integers(0, len(_BASE_BLOB) - 1))
@settings(max_examples=100, deadline=None)
def test_any_truncation_is_loud(length):
    with pytest.raises(TraceCodecError):
        trace_codec.TraceColumns(_BASE_BLOB[:length]).materialize()


def _skewed_blob() -> bytes:
    """A valid blob re-stamped as the next codec revision."""
    skewed = bytearray(_BASE_BLOB)
    skewed[4:6] = struct.pack("<H", trace_codec.FORMAT_VERSION + 1)
    return bytes(skewed)


def test_version_skew_is_loud():
    with pytest.raises(TraceCodecError, match="version skew"):
        trace_codec.TraceColumns(_skewed_blob()).materialize()


@pytest.mark.parametrize("blob", [
    b"", b"not a trace", _BASE_BLOB[:40], _skewed_blob(),
    bytes(len(_BASE_BLOB)),
], ids=["empty", "garbage", "truncated", "version-skew", "zeroed"])
def test_bad_blobs_read_as_cache_misses(tmp_path, blob):
    cache = TraceCache(tmp_path, fingerprint="fp")
    key = cache.key_for(BENCHMARKS["gsm"], 16, 1)
    path = Path(cache._file(key))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(blob)
    assert cache.get_blob(key) is None
    assert cache.misses == 1 and cache.hits == 0
    assert not path.exists()  # bad entry evicted, ready to regenerate
