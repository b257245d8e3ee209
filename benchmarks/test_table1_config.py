"""Table I: system configuration."""

from conftest import run_once

from repro.harness.tables import table1
from repro.pipeline.config import MachineConfig, TABLE_I
from repro.pipeline.processor import IterSource, Processor


def test_table1_renders(benchmark):
    text = run_once(benchmark, table1)
    print("\n" + text)
    assert "128 entries" in text  # ROB
    assert "40 entries" in text  # issue queue
    assert "DDR3 1600" in text


def test_table1_machine_matches(benchmark):
    """The processor the default MachineConfig builds implements Table I."""

    def build():
        return Processor(MachineConfig(), IterSource(iter(())))

    proc = run_once(benchmark, build)
    hierarchy = proc.hierarchy
    assert proc.rob.size == 128
    assert proc.iq.size == 40
    assert proc.config.rename_width == 3
    assert proc.fetch.queue_size == 32
    assert proc.fetch.mispredict_penalty == 15
    assert len(proc.branch_unit.btb.tags) == 2048
    caches = [(c.size_bytes, c.assoc, c.line_bytes, c.hit_latency)
              for c in (hierarchy.l1d, hierarchy.l1i, hierarchy.l2)]
    assert caches == [(32 * 1024, 2, 64, 1), (48 * 1024, 3, 64, 1),
                      (1024 * 1024, 16, 64, 12)]
    assert hierarchy.tlb.entries == 48
    assert hierarchy.prefetcher.degree == 1
    # tCAS = tRCD = tRP = 13.75 ns plus 5 ns of bus, at 2 GHz: a row
    # conflict, then a hit on the open row
    assert hierarchy.dram.access(0, False, 0) == round((3 * 13.75 + 5) * 2)
    assert hierarchy.dram.access(64, False, 1) == round((13.75 + 5) * 2)
    assert TABLE_I["Prefetcher"]["Type"].startswith("Stride")
