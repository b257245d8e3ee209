"""Resident-workload replay: a rewound trace is a freshly decoded one.

A sweep process keeps one workload's instructions resident and rewinds
them between points (:meth:`TraceColumns.rewind`,
:meth:`TraceStream.replay`).  That is only sound if the rewind puts back
every field the pipeline writes, whichever cycle loop, renaming scheme
or recovery path wrote it.  These tests run the pipeline over a
materialized list and compare the rewound list with a fresh decode —
``DynInst`` is a dataclass, so ``==`` covers every field except the LSQ
back-reference and the opcode memo — and pin that the order in which a
process replays workloads never shows in the results.
"""

import dataclasses
import weakref

import pytest

from repro.harness import cache as cache_mod
from repro.harness.cache import cached_stream, reset_trace_memo
from repro.harness.parallel import SweepPoint, simulate_point
from repro.harness.runner import make_config
from repro.isa.opcodes import OPCODES
from repro.pipeline.processor import IterSource, Processor
from repro.workloads import trace_codec
from repro.workloads.generator import SyntheticWorkload
from repro.workloads.profiles import BENCHMARKS

INSTS = 1500


@pytest.fixture(autouse=True)
def _hermetic(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "traces"))
    reset_trace_memo()
    yield
    reset_trace_memo()


def _columns(profile: str = "hmmer"):
    return cached_stream(BENCHMARKS[profile], INSTS, 1).columns()


def _faulting_columns():
    """A synthetic trace whose every 97th load raises a precise
    exception the first time it executes."""
    insts = list(SyntheticWorkload(BENCHMARKS["gsm"], total_insts=INSTS,
                                   seed=1))
    loads = [dyn for dyn in insts if OPCODES[dyn.op].is_load]
    for dyn in loads[::97]:
        dyn.faults = True
    return trace_codec.TraceColumns(trace_codec.encode(insts))


def _run(config, insts, loop):
    processor = Processor(config, IterSource(iter(insts)),
                          naive_loop=(loop == "naive"))
    stats = processor.run()
    assert processor.loop_used == loop
    return stats


_CONFIGS = {
    "conventional": lambda: make_config(BENCHMARKS["hmmer"], "conventional",
                                        48),
    "sharing": lambda: make_config(BENCHMARKS["hmmer"], "sharing", 48),
    "ports": lambda: make_config(BENCHMARKS["hmmer"], "conventional", 48,
                                 port_scheme="bypass_filter"),
    "wrong-path": lambda: dataclasses.replace(
        make_config(BENCHMARKS["hmmer"], "sharing", 48),
        model_wrong_path=True),
}


@pytest.mark.parametrize("loop", ["generated", "naive"])
@pytest.mark.parametrize("variant", [*_CONFIGS, "faults"])
def test_rewind_equals_a_fresh_decode(variant, loop):
    if variant == "faults":
        columns = _faulting_columns()
        config = make_config(BENCHMARKS["gsm"], "sharing", 48)
    else:
        columns = _columns()
        config = _CONFIGS[variant]()
    insts = columns.materialize()
    first = _run(config, insts, loop)
    if variant == "faults":
        assert first.exceptions > 0
    if variant == "wrong-path":
        assert first.wrong_path_squashed > 0
    # the run wrote its bookkeeping into the very objects ...
    assert insts != columns.materialize()
    # ... and the rewind takes all of it back out
    assert columns.rewind(insts) == columns.materialize()
    assert all(dyn.lsq_entry is None for dyn in insts)
    # so a second pass over the rewound list is a first pass
    assert _run(config, insts, loop) == first


def _point(profile, scheme, size):
    return SweepPoint(BENCHMARKS[profile], scheme, size, INSTS, 1)


def test_replay_order_does_not_matter(monkeypatch):
    a, b = ("sharing", 48), ("conventional", 64)
    order = [_point("gsm", *a), _point("gsm", *b), _point("gsm", *a),
             _point("adpcm", *a), _point("gsm", *b), _point("gsm", *a)]

    cold = {}
    for point in dict.fromkeys(order):
        reset_trace_memo()  # a new stream: materialized, never rewound
        cold[point] = simulate_point(point).to_dict()

    materialized = []
    original = vars(trace_codec.TraceColumns)["materialize_range"]

    def counted(self, lo, hi):
        materialized.append(self)
        return original(self, lo, hi)

    monkeypatch.setattr(trace_codec.TraceColumns, "materialize_range",
                        counted)
    reset_trace_memo()
    previous = None
    for point in order:
        assert simulate_point(point).to_dict() == cold[point], point.label()
        stream, insts = cache_mod._resident
        assert stream is cached_stream(point.profile, INSTS, 1)
        if previous is not None:
            if point.profile is previous[0]:
                assert previous[1]() is insts  # rewound in place
            else:
                assert previous[1]() is None  # the switch freed the old list
        previous = (point.profile, weakref.ref(insts))
        del stream, insts
    # one materialization per run of consecutive points of a workload
    assert len(materialized) == 3


def test_iteration_still_yields_fresh_objects():
    stream = cached_stream(BENCHMARKS["gsm"], INSTS, 1)
    replayed = list(stream.replay())
    fresh = list(stream)
    assert fresh == replayed
    assert not any(x is y for x, y in zip(fresh, replayed))
    assert list(stream.replay())[0] is replayed[0]
