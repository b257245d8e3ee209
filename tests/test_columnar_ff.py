"""Bit-identity properties of the columnar fast-forward path.

The columnar warming passes (:meth:`FunctionalWarmer.skim` /
:meth:`~FunctionalWarmer.fast_forward` over a
:class:`~repro.sampling.engine._ColumnarSource`) exist purely for speed:
their contract is that every piece of warmed state — the shared
:class:`~repro.frontend.branch_predictor.BranchUnit` (tables, history,
BTB, RAS, stats), the whole cache hierarchy (per-set LRU order, dirty
bits, prefetch tags, TLB recency, DRAM open rows, stride-prefetcher
table) and the rename-predictor tables — finishes **bit-identical** to
the one-instruction-at-a-time :class:`~tests.reference_warmer.
ReferenceWarmer`, under any interleaving of skim and fast-forward calls.
Hypothesis drives random traces and random interleavings at that
contract; separate pins check :class:`~repro.pipeline.stats.SampledStats`
equality end-to-end with the reference warmer put in the engine's place,
for every scheme over a synthetic trace and over every assembled kernel,
and that a JSON-lines instruction list samples like its binary trace.
"""

import dataclasses
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.frontend.branch_predictor import BranchUnit
from repro.harness.cache import TraceStream
from repro.harness.runner import make_config
from repro.mem import MemoryHierarchy
from repro.mem.hierarchy import LINE_BYTES
from repro.pipeline.config import MachineConfig
from repro.pipeline.processor import IterSource, Processor, simulate
from repro.sampling import as_schedule, engine, sampled_simulate
from repro.sampling.engine import _ColumnarSource
from repro.sampling.warmer import FunctionalWarmer
from repro.workloads import ALL_KERNELS, trace_codec
from repro.workloads.generator import SyntheticWorkload
from repro.workloads.profiles import BENCHMARKS

from tests.reference_warmer import ReferenceWarmer
from tests.trace_io import load_trace, save_trace

_SCHEMES = ("conventional", "early", "sharing", "hinted")


# ------------------------------------------------------------- state digests
def _branch_state(bu: BranchUnit) -> tuple:
    """Every bit of BranchUnit state, including internal recency."""
    def tbl(t):
        return list(t.entries)

    d = bu.direction
    if hasattr(d, "chooser"):
        ds = ("tournament", tbl(d.bimodal.table), tbl(d.gshare.table),
              d.gshare.history, tbl(d.chooser))
    elif hasattr(d, "history"):
        ds = ("gshare", tbl(d.table), d.history)
    else:
        ds = ("bimodal", tbl(d.table))
    return (ds, list(bu.btb.tags), list(bu.btb.targets),
            list(bu.ras.stack), dataclasses.asdict(bu.stats))


def _hier_state(h) -> tuple:
    """Every bit of hierarchy state, including LRU/recency order."""
    def cache_state(c):
        return ([(list(s.tags), list(s.dirty)) for s in c._sets],
                sorted(c._prefetched), dataclasses.asdict(c.stats))

    pf = h.prefetcher
    return (cache_state(h.l1i), cache_state(h.l1d), cache_state(h.l2),
            list(h.tlb._lru), dataclasses.asdict(h.tlb.stats),
            list(h.dram._open_rows), dataclasses.asdict(h.dram.stats),
            {k: (e.last_addr, e.stride, e.confidence)
             for k, e in pf.table.items()}, pf.issued)


def _warmer_state(w: FunctionalWarmer) -> tuple:
    return (_branch_state(w.branch_unit), w._last_fetch_line,
            _hier_state(w.hierarchy), w.export_predictor_state())


def _make_warmer(profile, scheme, cls=FunctionalWarmer):
    config = make_config(profile, scheme, 64)
    return cls(config, config.make_branch_unit(), MemoryHierarchy())


def _trace(profile_name: str, n: int, seed: int):
    insts = list(SyntheticWorkload(BENCHMARKS[profile_name], total_insts=n,
                                   seed=seed))
    return trace_codec.TraceColumns(trace_codec.encode(insts))


# ------------------------------------------- warming interleaving property
@st.composite
def _interleavings(draw):
    profile = draw(st.sampled_from(["hmmer", "gsm", "milc"]))
    seed = draw(st.integers(1, 50))
    n = draw(st.integers(50, 900))
    scheme = draw(st.sampled_from(["conventional", "sharing"]))
    # skim/fast-forward requests, deliberately allowed to overshoot the
    # stream end and to land exactly on it
    ops = draw(st.lists(
        st.tuples(st.sampled_from(["skim", "ff"]), st.integers(0, 400)),
        min_size=1, max_size=8))
    limit = draw(st.none() | st.integers(1, n + 50))
    return profile, seed, n, scheme, ops, limit


@given(_interleavings())
@settings(max_examples=30, deadline=None)
def test_columnar_warming_is_bit_identical_to_per_inst(case):
    profile, seed, n, scheme, ops, limit = case
    cols = _trace(profile, n, seed)

    ref_warmer = _make_warmer(BENCHMARKS[profile], scheme, ReferenceWarmer)
    col_warmer = _make_warmer(BENCHMARKS[profile], scheme)
    ref_source = _ColumnarSource(cols, limit=limit)
    col_source = _ColumnarSource(cols, limit=limit)

    for kind, count in ops:
        method_ref = ref_warmer.skim if kind == "skim" \
            else ref_warmer.fast_forward
        method_col = col_warmer.skim if kind == "skim" \
            else col_warmer.fast_forward
        assert method_ref(ref_source, count) == method_col(col_source, count)
        assert ref_source.consumed == col_source.consumed
        assert ref_source.exhausted == col_source.exhausted

    assert _warmer_state(ref_warmer) == _warmer_state(col_warmer)


# ------------------------------------------------------- end-to-end pins
@pytest.mark.parametrize("scheme", _SCHEMES)
def test_sampled_stats_identical_columnar_vs_per_inst(scheme, monkeypatch):
    profile = BENCHMARKS["hmmer"]
    n = 6000
    cols = trace_codec.TraceColumns(
        SyntheticWorkload(profile, total_insts=n, seed=1).trace_bytes())
    schedule = "2000:150:100"

    def run():
        return sampled_simulate(make_config(profile, scheme, 64), cols,
                                schedule=as_schedule(schedule, seed=1),
                                total_insts=n).to_dict()

    new = run()
    monkeypatch.setattr(engine, "FunctionalWarmer", ReferenceWarmer)
    assert run() == new


@pytest.mark.parametrize("scheme", _SCHEMES)
@pytest.mark.parametrize("kernel", sorted(ALL_KERNELS))
def test_program_sampled_stats_identical_columnar_vs_per_inst(
        kernel, scheme, monkeypatch):
    """A program's stream is encoded to columns before it is sampled;
    warming it one instruction at a time gives the same estimate."""
    program = ALL_KERNELS[kernel]().program
    config = MachineConfig(scheme=scheme)

    def run():
        return simulate(config, program, sampling="1000:150:80").to_dict()

    new = run()
    monkeypatch.setattr(engine, "FunctionalWarmer", ReferenceWarmer)
    assert run() == new


def test_jsonl_fallback_stream_matches_columnar():
    """A plain instruction list (here decoded from the JSON-lines
    interchange format) is encoded to columns at the ``simulate``
    boundary and gives the estimate of its binary trace."""
    profile = BENCHMARKS["gsm"]
    n = 5000
    insts = list(SyntheticWorkload(profile, total_insts=n, seed=2))
    text = io.StringIO()
    save_trace(iter(insts), text)
    text.seek(0)
    jsonl = list(load_trace(text))
    binary = TraceStream(trace_codec.encode(insts), n)

    config = make_config(profile, "sharing", 64)
    via_jsonl = simulate(config, jsonl, max_insts=n,
                         sampling="2000:150:100", sampling_seed=1)
    via_columns = simulate(config, binary, max_insts=n,
                           sampling="2000:150:100", sampling_seed=1)
    assert via_jsonl.to_dict() == via_columns.to_dict()


def test_codec_loads_no_numpy():
    # the codec's index scans are stdlib-only; numpy would cost every
    # process that touches a trace its import time and resident memory
    probe = (
        "import sys\n"
        "from repro.workloads import trace_codec\n"
        "from repro.workloads.generator import SyntheticWorkload\n"
        "from repro.workloads.profiles import BENCHMARKS\n"
        "w = SyntheticWorkload(BENCHMARKS['hmmer'], total_insts=800, seed=7)\n"
        "cols = trace_codec.TraceColumns(w.trace_bytes())\n"
        "cols.branch_indices(); cols.mem_indices()\n"
        "cols.fetch_line_starts(64); cols.rewind(cols.materialize())\n"
        "print('numpy' in sys.modules)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]]
                 if os.environ.get("PYTHONPATH") else [])))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


class _FetchRecorder(MemoryHierarchy):
    """Stock hierarchy that records every L1-I address it is asked for."""

    def __init__(self):
        super().__init__()
        self.fetched = []

    def inst_fetch(self, addr, is_write, cycle):
        self.fetched.append(addr)
        return super().inst_fetch(addr, is_write, cycle)

    access = inst_fetch


@pytest.mark.xfail(strict=True, reason=(
    "fast-forward warms the L1-I at the instruction index (pc), while "
    "detailed fetch requests byte address pc * INST_BYTES; fixing it "
    "changes the sampled figures"))
def test_warmer_fetches_the_lines_detailed_fetch_fetches():
    profile = BENCHMARKS["h264ref"]
    cols = _trace("h264ref", 3000, 1)
    config = make_config(profile, "conventional", 64)

    detailed = _FetchRecorder()
    Processor(config, IterSource(iter(cols.materialize())),
              hierarchy=detailed).run()
    warmed = _FetchRecorder()
    warmer = FunctionalWarmer(config, config.make_branch_unit(), warmed)
    warmer.fast_forward(_ColumnarSource(cols), cols.count)

    line = LINE_BYTES
    assert warmed.fetched and detailed.fetched
    assert {a // line for a in warmed.fetched} == \
        {a // line for a in detailed.fetched}


# ------------------------------------------------------------ exhaustion
def test_advance_exhaustion_is_strictly_past_the_end():
    cols = _trace("gsm", 10, 1)
    source = _ColumnarSource(cols, limit=10)
    assert source.advance(10) == (0, 10)
    assert not source.exhausted
    assert source.advance(1) == (10, 10)
    assert source.exhausted


# ------------------------------------------------------- predictor handoff
def test_import_predictor_state_rejects_geometry_mismatch():
    warmer = _make_warmer(BENCHMARKS["hmmer"], "sharing")
    state = warmer.export_predictor_state()
    bad = dict(state)
    bad["type_predictor"] = state["type_predictor"] + [0]
    with pytest.raises(ValueError, match="type_predictor geometry mismatch"):
        warmer.import_predictor_state(bad)
    bad = dict(state)
    bad["single_use"] = state["single_use"][:-1]
    with pytest.raises(ValueError, match="single_use geometry mismatch"):
        warmer.import_predictor_state(bad)
    # untouched state still round-trips
    warmer.import_predictor_state(state)
