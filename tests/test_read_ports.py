"""Tests for register-file read-port contention modeling."""

import dataclasses
from dataclasses import asdict

import pytest

from repro import MachineConfig, assemble, simulate
from repro.core.read_ports import (
    BYPASS_FILTER_READ_PORTS,
    MAX_READ_DELAY,
    READ_BANKS,
    BankedArbiterPorts,
    BypassFilterPorts,
)
from repro.frontend.fetch import IterSource
from repro.isa.executor import run_to_completion
from repro.pipeline.processor import Processor
from repro.workloads import BENCHMARKS, SyntheticWorkload

from tests.util import banked_arbiter, program_processor

# wide independent ALU work: issue wants many reads per cycle
WIDE = """
main: movi x1, 1
      movi x2, 2
      movi x3, 3
      movi x4, 4
      movi x9, 200
loop: add  x5, x1, x2
      add  x6, x3, x4
      add  x7, x1, x3
      add  x8, x2, x4
      xor  x10, x5, x6
      xor  x11, x7, x8
      subi x9, x9, 1
      bnez x9, loop
      halt
"""


# A config names a port scheme, never its geometry (repro.core.read_ports
# fixes that, for the timing and the area model alike).  The cases below
# that sweep a geometry build the scheme object themselves and put it in
# place of the one the config names.
def ported(config, ports, program=None, source=None, **kwargs):
    """A processor whose register file runs the port-scheme object
    ``ports`` (None = unlimited reads), fed ``program`` (``WIDE`` by
    default) or the instruction iterator ``source``."""
    if ports is not None:
        config = dataclasses.replace(config, rf_port_scheme=ports.scheme)
    if source is not None:
        processor = Processor(config, IterSource(source), **kwargs)
    else:
        processor = program_processor(config, program or assemble(WIDE),
                                      **kwargs)
    if ports is not None:
        processor.read_ports = ports
    return processor


class _NoBypass:
    """A bypass tracker that never bypasses: every operand claims a port."""

    def note_write(self, tag, cycle):
        pass

    def is_bypassed(self, tag, cycle):
        return False

    def flush(self):
        pass


def flat(read_ports):
    """A flat limit of ``read_ports`` register-file reads per class per
    cycle (None = unlimited): the bypass filter with nothing bypassed."""
    if read_ports is None:
        return None
    ports = BypassFilterPorts()
    ports.read_ports = read_ports
    ports.tracker = _NoBypass()
    return ports


WIDE_CONFIG = MachineConfig(int_regs=96, fp_regs=96, issue_width=6,
                            fu_config={
                                "alu": (6, 1, True), "mul": (1, 3, True),
                                "div": (1, 12, False), "fpu": (2, 4, True),
                                "fpdiv": (1, 16, False),
                                "branch": (1, 1, True), "mem": (2, 1, True),
                            })


def run(read_ports):
    return ported(WIDE_CONFIG, flat(read_ports)).run()


def test_unlimited_ports_fastest():
    unlimited = run(None)
    constrained = run(2)
    assert unlimited.ipc > constrained.ipc


def test_port_limit_monotone():
    ipcs = [run(p).ipc for p in (2, 4, 8)]
    assert ipcs == sorted(ipcs)


def test_correctness_preserved_under_port_pressure():
    reference = run_to_completion(assemble(WIDE))
    for scheme in ("conventional", "sharing"):
        processor = ported(
            MachineConfig(scheme=scheme, int_regs=64, fp_regs=64), flat(3))
        processor.run()
        int_regs, _ = processor.architectural_state()
        assert int_regs == reference.int_regs, scheme


# csel reads three registers: more than a flat budget of one or two
CSEL_LOOP = """
.data
v: .word 5
.text
main: movi x1, 1
      movi x2, 2
      movi x3, 3
      movi x6, v
      movi x9, 20
loop: ld   x7, 0(x6)
      div  x8, x7, x2
      csel x4, x1, x2, x3
      add  x5, x4, x8
      subi x9, x9, 1
      bnez x9, loop
      halt
"""


@pytest.mark.parametrize("read_ports", [1, 2])
@pytest.mark.parametrize("scheme", ["conventional", "sharing"])
def test_flat_budget_below_an_instructions_reads_defers(scheme, read_ports):
    """A class with no reads yet this cycle grants any demand, so csel
    issues under a budget below its three reads instead of wedging the
    pipeline.  A denial then always follows an issue in the same cycle,
    which disarms the kernel's busy-stall skip: with 40 registers rename
    stalls, the kernel skips cycles, and its stats equal the naive
    loop's, port stalls included."""
    config = MachineConfig(scheme=scheme, int_regs=40, max_cycles=20_000)
    program = assemble(CSEL_LOOP)
    naive = ported(config, flat(read_ports), program, naive_loop=True)
    naive.run()
    gen = ported(config, flat(read_ports), program)
    gen.run()
    assert gen.loop_used == "generated" and gen.cycles_skipped > 0
    assert naive.stats.rf_port_stalls > 0
    assert naive.stats.rename_stall_regs > 0
    assert dataclasses.asdict(gen.stats) == dataclasses.asdict(naive.stats)
    int_regs, _ = gen.architectural_state()
    assert int_regs == run_to_completion(program).int_regs


def test_ample_ports_equal_unlimited():
    assert run(16).cycles == run(None).cycles


def test_synthetic_workload_with_ports():
    workload = SyntheticWorkload(BENCHMARKS["hmmer"], total_insts=3000)
    config = MachineConfig(scheme="sharing", int_regs=64, fp_regs=64)
    stats = ported(config, flat(8), source=iter(workload)).run()
    assert stats.committed == 3000


# ------------------------------------------- port-reduction schemes
def run_scheme(port_scheme):
    """WIDE under ``port_scheme`` as a config names it: the scheme's
    own geometry."""
    config = dataclasses.replace(WIDE_CONFIG, rf_port_scheme=port_scheme)
    return simulate(config, assemble(WIDE))


def test_a_named_scheme_simulates_its_priced_geometry():
    """Naming a port scheme is enough: the pipeline simulates the port
    geometry the area model prices, not an unlimited budget."""
    bypass = ported(WIDE_CONFIG, BypassFilterPorts()).run()
    assert bypass.rf_port_stalls > 0
    assert asdict(run_scheme("bypass_filter")) == asdict(bypass)
    banked = ported(WIDE_CONFIG, BankedArbiterPorts()).run()
    assert banked.rf_port_stalls > 0 or banked.rf_delay_cycles > 0
    assert asdict(run_scheme("banked_arbiter")) == asdict(banked)


@pytest.mark.parametrize("port_scheme", ["bypass_filter", "banked_arbiter"])
def test_port_scheme_correctness(port_scheme):
    reference = run_to_completion(assemble(WIDE))
    for scheme in ("conventional", "sharing"):
        config = MachineConfig(scheme=scheme, int_regs=64, fp_regs=64,
                               rf_port_scheme=port_scheme)
        processor = program_processor(config, assemble(WIDE))
        processor.run()
        int_regs, _ = processor.architectural_state()
        assert int_regs == reference.int_regs, (scheme, port_scheme)


def test_bypass_filter_beats_plain_halved_ports():
    """The bypass filter serves forwarded operands for free, so it can't
    be slower than the same halved port budget without the filter."""
    filtered = run_scheme("bypass_filter")
    plain = run(4)
    assert filtered.cycles <= plain.cycles
    assert filtered.rf_bypass_reads > 0
    assert filtered.rf_port_reads > 0


def test_bypass_depth_zero_is_inert():
    """With nothing bypassed, every operand the filter served from the
    bypass network claims a port instead."""
    inert = ported(WIDE_CONFIG, flat(BYPASS_FILTER_READ_PORTS)).run()
    filtered = run_scheme("bypass_filter")
    assert inert.committed == filtered.committed
    assert inert.rf_bypass_reads == 0
    assert inert.rf_port_reads == (filtered.rf_port_reads
                                   + filtered.rf_bypass_reads)


def test_banked_arbiter_monotone_in_ports():
    cycles = [ported(WIDE_CONFIG,
                     banked_arbiter(READ_BANKS, p, MAX_READ_DELAY))
              .run().cycles for p in (1, 2, 4)]
    assert cycles == sorted(cycles, reverse=True)


def test_banked_arbiter_ample_ports_equal_unlimited():
    """Enough ports per bank to cover the whole issue width makes the
    arbiter inert: identical timing to the unconstrained machine."""
    ample = ported(WIDE_CONFIG, banked_arbiter(1, 32, 0)).run()
    assert ample.cycles == run(None).cycles
    assert ample.rf_port_stalls == 0
    assert ample.rf_delay_cycles == 0


def test_banked_arbiter_charges_delay_or_stalls():
    tight = ported(WIDE_CONFIG, banked_arbiter(2, 1, MAX_READ_DELAY)).run()
    assert tight.rf_delay_cycles > 0 or tight.rf_port_stalls > 0
    assert tight.cycles >= run(None).cycles


def test_equal_area_budget_invariant():
    """equal_area_regs is maximal: the returned count fits the baseline
    budget and one more register would exceed it."""
    from repro.area.cacti_lite import port_scheme_rf_area
    from repro.area.equal_area import baseline_area, equal_area_regs

    for scheme in ("bypass_filter", "banked_arbiter"):
        for baseline_regs in (48, 64, 96, 128):
            for bits in (64, 128):
                budget = baseline_area(baseline_regs, bits)
                n = equal_area_regs(baseline_regs, scheme, bits)
                assert n >= baseline_regs
                assert port_scheme_rf_area(scheme, n, bits) <= budget
                assert port_scheme_rf_area(scheme, n + 1, bits) > budget


def test_equal_area_none_is_identity():
    from repro.area.equal_area import equal_area_regs

    assert equal_area_regs(64, "none") == 64


def test_make_config_grants_equal_area_bonus():
    """The conventional baseline converts saved port area into registers;
    the sharing scheme keeps the swept size (its budget is spent on
    shadow cells and overheads already)."""
    from repro.harness.runner import make_config

    profile = BENCHMARKS["hmmer"]  # integer benchmark: int file swept
    base = make_config(profile, "conventional", 64)
    for port_scheme in ("bypass_filter", "banked_arbiter"):
        boosted = make_config(profile, "conventional", 64,
                              port_scheme=port_scheme)
        assert boosted.rf_port_scheme == port_scheme
        assert boosted.int_regs > base.int_regs
        sharing = make_config(profile, "sharing", 64,
                              port_scheme="none")
        assert sharing.int_regs == base.int_regs
