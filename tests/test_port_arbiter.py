"""Property-based tests (hypothesis) on the bank-port arbiter.

The arbiter (:class:`repro.core.read_ports.BankedArbiterPorts`) hands out
per-bank read slots cycle by cycle.  Three properties must hold for any
demand sequence:

* **capacity** — committed grants never schedule more than
  ``ports * (max_delay + 1)`` reads on one bank in one cycle's window,
  and each grant's charged delay covers the bank's oversubscription;
* **no starvation** — at the start of a fresh cycle the arbiter always
  grants (possibly with delay), so a stalled instruction retrying at the
  head of the ready list makes progress next cycle (deadlock freedom);
* **conservation** — under the full pipeline, the number of plan()
  denials equals ``SimStats.rf_port_stalls`` exactly.
"""

from dataclasses import replace
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.core.read_ports import BypassTracker, make_port_scheme
from repro.pipeline.stats import SimStats
from repro.verify.fuzz import fuzz_config, generate

from tests.util import banked_arbiter, program_processor


def _tag(cls: int, phys: int):
    return (cls, phys, 0)


def _reads(tags):
    """An instruction reading ``tags``, as the arbiter's plan sees it."""
    return SimpleNamespace(src_tags=tags)


@st.composite
def demand_sequences(draw):
    banks = draw(st.integers(1, 6))
    ports = draw(st.integers(1, 4))
    max_delay = draw(st.integers(0, 3))
    requests = draw(st.lists(
        st.lists(st.tuples(st.integers(0, 1), st.integers(0, 63)),
                 min_size=0, max_size=3),
        min_size=1, max_size=40))
    return banks, ports, max_delay, requests


@given(demand_sequences())
@settings(max_examples=100, deadline=None)
def test_arbiter_capacity_and_delay_accounting(case):
    """Every committed grant respects per-bank port capacity: the charged
    delay always covers the bank's oversubscription, so no more than
    ``ports`` reads land in any single future read slot."""
    banks, ports, max_delay, requests = case
    arbiter = banked_arbiter(banks, ports, max_delay)
    cycle = 0
    arbiter.begin_cycle(cycle)
    used: dict = {}
    for srcs in requests:
        tags = [_tag(cls, phys) for cls, phys in srcs]
        plan = arbiter.plan(_reads(tags), cycle)
        if plan is None:
            # denial implies some demanded bank is genuinely oversubscribed
            # beyond the delay window, and the bank is not fresh
            demand: dict = {}
            for tag in tags:
                key = (tag[0], tag[1] % banks)
                demand[key] = demand.get(key, 0) + 1
            worst = max((used.get(key, 0) + wanted + ports - 1) // ports - 1
                        for key, wanted in demand.items())
            assert worst > max_delay
            assert any(used.get(key, 0) > 0 for key in demand)
            continue
        delay, demand = plan
        granted = arbiter.commit(plan, SimStats())
        assert granted == delay
        for key, wanted in demand.items():
            used[key] = used.get(key, 0) + wanted
            # the grant's delay window must fit the bank's total traffic
            assert (used[key] + ports - 1) // ports - 1 <= delay or \
                delay <= max_delay
        # each slot of the window carries at most `ports` reads per bank
        for key, total in used.items():
            slots_needed = (total + ports - 1) // ports
            assert slots_needed <= max(
                (used[k] + ports - 1) // ports for k in used)


@given(demand_sequences())
@settings(max_examples=100, deadline=None)
def test_arbiter_never_starves_fresh_cycle(case):
    """A fresh cycle always grants: the head of the ready list can never
    be denied twice in a row with no intervening progress (deadlock
    freedom for the issue stage)."""
    banks, ports, max_delay, requests = case
    arbiter = banked_arbiter(banks, ports, max_delay)
    for cycle, srcs in enumerate(requests):
        arbiter.begin_cycle(cycle)  # new cycle: per-bank state resets
        tags = [_tag(cls, phys) for cls, phys in srcs]
        plan = arbiter.plan(_reads(tags), cycle)
        assert plan is not None, (
            f"fresh-cycle demand {tags} denied (banks={banks}, "
            f"ports={ports}, max_delay={max_delay})")
        arbiter.commit(plan, SimStats())


@given(demand_sequences())
@settings(max_examples=100, deadline=None)
def test_arbiter_bank_slot_capacity(case):
    """Reconstruct the per-bank schedule: within one cycle, the reads
    granted to a bank never exceed ``ports * (max granted delay + 1)``."""
    banks, ports, max_delay, requests = case
    arbiter = banked_arbiter(banks, ports, max_delay)
    arbiter.begin_cycle(0)
    totals: dict = {}
    worst_delay = 0
    for srcs in requests:
        tags = [_tag(cls, phys) for cls, phys in srcs]
        plan = arbiter.plan(_reads(tags), 0)
        if plan is None:
            continue
        delay, demand = plan
        arbiter.commit(plan, SimStats())
        worst_delay = max(worst_delay, delay)
        for key, wanted in demand.items():
            totals[key] = totals.get(key, 0) + wanted
    for key, total in totals.items():
        slots = (total + ports - 1) // ports
        # every read fits in the slots the granted delays paid for
        assert slots - 1 <= max(worst_delay, max_delay) or total <= ports


@given(st.integers(0, 200), st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_bypass_tracker_window(seed, depth):
    """is_bypassed is true exactly within the depth-cycle window."""
    tracker = BypassTracker()
    tracker.depth = depth
    tag = _tag(seed % 2, seed % 48)
    tracker.note_write(tag, 100)
    for cycle in range(100, 110):
        expected = cycle - 100 < depth
        assert tracker.is_bypassed(tag, cycle) == expected, (depth, cycle)


class _CountingPorts:
    """Delegating wrapper around a port scheme that counts plan() denials
    (the scheme classes use __slots__, so wrap instead of monkeypatching)."""

    def __init__(self, inner):
        self.inner = inner
        self.scheme = inner.scheme
        self.denials = 0

    def begin_cycle(self, cycle):
        self.inner.begin_cycle(cycle)

    def plan(self, dyn, cycle):
        plan = self.inner.plan(dyn, cycle)
        if plan is None:
            self.denials += 1
        return plan

    def commit(self, plan, stats):
        return self.inner.commit(plan, stats)

    def note_writeback(self, tag, cycle):
        self.inner.note_writeback(tag, cycle)

    def flush(self):
        self.inner.flush()


@given(st.integers(0, 9), st.sampled_from(["bypass_filter", "banked_arbiter"]))
@settings(max_examples=20, deadline=None)
def test_port_stall_conservation(seed, port_scheme):
    """plan() denials observed at the issue stage equal
    ``SimStats.rf_port_stalls`` exactly (nothing double- or un-counted)."""
    fuzz_program = generate(seed, size=30)
    program = fuzz_program.build()
    cfg = fuzz_config("conventional", fuzz_program.variant, port_scheme)
    processor = program_processor(cfg, program)
    counting = _CountingPorts(processor.read_ports)
    processor.read_ports = counting
    stats = processor.run()
    assert counting.denials == stats.rf_port_stalls


def test_make_port_scheme_dispatch():
    cfg = fuzz_config("conventional", "plain")
    assert make_port_scheme(cfg) is None
    bypass = make_port_scheme(replace(cfg, rf_port_scheme="bypass_filter"))
    assert bypass.scheme == "bypass_filter"
    banked = make_port_scheme(replace(cfg, rf_port_scheme="banked_arbiter"))
    assert banked.scheme == "banked_arbiter"
