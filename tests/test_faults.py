"""Fault-injection campaign engine: taxonomy, determinism, diagnostics.

The deterministic taxonomy tests pin one concrete injection per outcome
class — a live-cell flip the checkers must catch, a shadow-cell flip on a
superseded version the machine must mask — so the expected-outcome table
in docs/RESILIENCE.md is executable, not aspirational.
"""

import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import (EXPECTED_OUTCOMES, KINDS, InjectionSpec, flip_value,
                          kinds_for, make_injector, run_campaign,
                          run_injection)
from repro.faults.campaign import (_classify_exception, _replay_on,
                                   clean_reference, draw_spec)
from repro.faults.injectors import flip_float, flip_int
from repro.pipeline.config import MachineConfig
from repro.pipeline.debug import InvariantViolation
from repro.pipeline.processor import (IterSource, PipelineHang, Processor,
                                      VerificationError, simulate)
from repro.verify.oracle import DivergenceError
from repro.workloads import BENCHMARKS, SyntheticWorkload


# ------------------------------------------------------------- bit flips
def test_flip_int_round_trip():
    for value in (0, 1, -1, 123456789, -(1 << 62)):
        for bit in (0, 17, 63):
            flipped = flip_int(value, bit)
            assert flipped != value
            assert flip_int(flipped, bit) == value


def test_flip_int_stays_in_64_bit_twos_complement():
    assert flip_int(-1, 63) == (1 << 63) - 1  # sign bit cleared
    assert flip_int(0, 63) == -(1 << 63)      # sign bit set


def test_flip_float_round_trip_via_bits():
    for value in (1.5, -0.0, 3.141592653589793):
        for bit in (0, 52, 63):
            flipped = flip_float(value, bit)
            back = flip_float(flipped, bit)
            # compare encodings, not values: the flip may produce NaN
            assert struct.pack("<d", back) == struct.pack("<d", value)


def test_flip_float_exponent_flip_can_make_inf():
    # 1.0 with all exponent bits already set except none: flipping the
    # top exponent bit of 1.75 lands in the inf/NaN band
    assert math.isinf(flip_float(1.75, 62)) or math.isnan(flip_float(1.75, 62))


def test_flip_value_dispatches_on_type():
    assert isinstance(flip_value(7, 3), int)
    assert isinstance(flip_value(7.0, 3), float)


# ------------------------------------------------------------- applicability
def test_kinds_for_restricts_sharing_only_kinds():
    assert set(kinds_for("sharing")) == set(KINDS)
    conventional = set(kinds_for("conventional"))
    assert "flip_shadow" not in conventional
    assert "prt_version" not in conventional
    assert "flip_live" in conventional
    # early release has no precise state: no storm/flood kinds
    early = set(kinds_for("early"))
    assert "squash_storm" not in early
    assert "interrupt_flood" not in early
    assert "flip_free" in early


def test_expected_outcomes_cover_every_kind():
    assert set(EXPECTED_OUTCOMES) == set(KINDS)
    for kind, outcomes in EXPECTED_OUTCOMES.items():
        assert "silent" not in outcomes, kind  # SDC is never acceptable
        assert "error" not in outcomes, kind


def test_make_injector_rejects_unknown_kind():
    spec = InjectionSpec(kind="cosmic_ray", scheme="sharing", program_seed=1,
                         program_size=10, trigger_cycle=5)
    with pytest.raises(ValueError):
        make_injector(spec)


# ------------------------------------------------------------- classification
def test_classify_exception_orders_checkers_before_bare_assert():
    assert _classify_exception(DivergenceError("x")) == ("detected", "oracle")
    assert _classify_exception(VerificationError("x")) == \
        ("detected", "operand_verify")
    assert _classify_exception(InvariantViolation("x")) == \
        ("detected", "invariant")
    assert _classify_exception(PipelineHang("x")) == ("detected", "watchdog")
    assert _classify_exception(AssertionError("x")) == ("detected", "assert")
    outcome, detector = _classify_exception(RuntimeError("boom"))
    assert outcome == "error" and detector == "RuntimeError"


# ------------------------------------------------------------- taxonomy
def test_live_cell_flip_is_detected():
    """Corrupting a value a consumer will read must trip a checker."""
    cache: dict = {}
    clean = clean_reference("conventional", 11, 20, cache)
    spec = InjectionSpec(kind="flip_live", scheme="conventional",
                         program_seed=11, program_size=20,
                         trigger_cycle=max(2, clean.cycles // 4),
                         target_index=0, bit=0)
    record = run_injection(spec, clean_cache=cache)
    assert record.outcome == "detected"
    assert record.detector == "operand_verify"
    assert record.details["tag"]  # the injector recorded its victim


def test_shadow_cell_flip_on_superseded_version_is_masked():
    """A stale shadow version nobody will read again absorbs the upset."""
    cache: dict = {}
    clean = clean_reference("sharing", 42, 30, cache)
    spec = InjectionSpec(kind="flip_shadow", scheme="sharing",
                         program_seed=42, program_size=30,
                         trigger_cycle=max(2, clean.cycles // 3),
                         target_index=0, bit=7)
    record = run_injection(spec, clean_cache=cache)
    assert record.outcome == "masked"
    assert record.details["planted"] is False


def test_shadow_cell_flip_can_also_be_detected():
    cache: dict = {}
    clean = clean_reference("sharing", 11, 30, cache)
    spec = InjectionSpec(kind="flip_shadow", scheme="sharing",
                         program_seed=11, program_size=30,
                         trigger_cycle=max(2, clean.cycles // 3),
                         target_index=0, bit=7)
    record = run_injection(spec, clean_cache=cache)
    assert record.outcome == "detected"
    assert record.detector == "oracle"


def test_squash_storm_classifies_recovered():
    cache: dict = {}
    clean = clean_reference("sharing", 11, 30, cache)
    spec = InjectionSpec(kind="squash_storm", scheme="sharing",
                         program_seed=11, program_size=30,
                         trigger_cycle=max(2, clean.cycles // 4),
                         flush_count=2, flush_gap=20)
    record = run_injection(spec, clean_cache=cache)
    assert record.outcome == "recovered"
    assert len(record.details["flushes"]) == 2


def test_spec_round_trips_through_dict():
    spec = InjectionSpec(kind="flip_live", scheme="sharing", program_seed=3,
                         program_size=25, trigger_cycle=40, target_index=9,
                         bit=13)
    assert InjectionSpec.from_dict(spec.to_dict()) == spec


# ------------------------------------------------------------- campaign
def test_small_campaign_is_deterministic_and_clean():
    first = run_campaign(injections=8, seed=7, shrink=False)
    second = run_campaign(injections=8, seed=7, shrink=False)
    assert first.to_dict() == second.to_dict()
    assert first.clean
    assert first.classified == 8
    raw = first.to_dict()
    assert raw["clean"] is True
    assert raw["unexpected"] == []


def test_campaign_summary_mentions_every_drawn_kind():
    report = run_campaign(injections=8, seed=7, shrink=False)
    text = "\n".join(report.summary_lines())
    for kind in report.counts:
        assert kind in text


def test_replay_on_classifies_like_run_injection():
    """The shrinker's replay path and the campaign path classify a spec
    alike: one drawn spec of every kind each scheme allows."""
    from repro.verify.fuzz import generate

    cache: dict = {}
    for scheme in ("conventional", "sharing", "early"):
        wanted = set(kinds_for(scheme))
        for index in range(100):
            spec = draw_spec(0, index, (scheme,), (20,), cache)
            if spec.kind not in wanted:
                continue
            wanted.discard(spec.kind)
            fp = generate(spec.program_seed, size=spec.program_size,
                          variant="plain")
            replayed = _replay_on(spec, fp)
            assert replayed.outcome == run_injection(
                spec, clean_cache=cache).outcome, spec
            if not wanted:
                break
        assert not wanted, (scheme, wanted)


# ------------------------------------------------------------- diagnostics
def _stream(insts=4000):
    workload = SyntheticWorkload(BENCHMARKS["gsm"], total_insts=insts, seed=1)
    return IterSource(iter(workload))


def test_diagnostic_snapshot_names_every_structure():
    processor = Processor(MachineConfig(scheme="sharing"), _stream(400))
    processor.run()
    snapshot = processor.diagnostic_snapshot()
    for needle in ("cycle=", "rob", "iq:", "fetch:", "free regs:",
                   "completion heap:"):
        assert needle in snapshot, needle


def test_cycle_budget_watchdog_raises_pipeline_hang_with_snapshot():
    config = MachineConfig(scheme="sharing", max_cycles=50)
    with pytest.raises(PipelineHang) as excinfo:
        simulate(config, iter(SyntheticWorkload(BENCHMARKS["gsm"],
                                                total_insts=4000, seed=1)))
    message = str(excinfo.value)
    assert "cycle budget" in message
    assert "rob" in message and "free regs" in message


# ------------------------------------------------------------- property
@given(seed=st.integers(0, 10_000), cycle=st.integers(2, 300),
       scheme=st.sampled_from(["conventional", "sharing", "hinted"]))
@settings(max_examples=25, deadline=None)
def test_flush_at_arbitrary_cycle_restores_precise_state(seed, cycle, scheme):
    """Squash/recover at any cycle leaves the rename state precise.

    Immediately after the flush the speculative map table must equal the
    retirement map, and the free list must account for exactly the
    registers the retirement map does not reference (conservation) — for
    every scheme with precise state.  The run then continues to completion
    under the differential oracle, so post-recovery execution is also
    checked end to end.
    """
    from repro.pipeline.debug import check_invariants
    from repro.verify.fuzz import fuzz_config, generate
    from repro.verify.oracle import lockstep_run

    program = generate(seed, size=25, variant="plain").build()
    fired = {}

    def hook(processor):
        if not fired and processor.cycle >= cycle:
            processor.inject_flush()
            fired["cycle"] = processor.cycle
            renamer = processor.renamer
            for cls, domain in renamer.domains.items():
                assert domain.map.diff_count(domain.retire_map) == 0
                live = {tag[0] for tag in domain.retire_map.entries}
                assert renamer.free_registers(cls) == \
                    domain.config.total_regs - len(live)
        check_invariants(processor)

    lockstep_run(fuzz_config(scheme, "plain"), program, on_cycle=hook,
                 on_cycle_interval=1)
    # programs that halt before `cycle` never flush — that's fine, the
    # interesting cases fire constantly across examples
