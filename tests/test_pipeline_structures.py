"""Unit tests for individual pipeline structures: ROB, issue queue, LSQ,
functional units and the fetch engine."""

import pytest

from repro.frontend.branch_predictor import BranchUnit
from repro.frontend.fetch import (
    FETCH_QUEUE,
    MISPREDICT_PENALTY,
    FetchUnit,
    IterSource,
)
from repro.isa.opcodes import Op
from repro.pipeline.functional_units import FUPool
from repro.pipeline.issue_queue import IssueQueue
from repro.pipeline.lsq import LoadStoreQueue
from repro.pipeline.rob import ReorderBuffer

from tests.util import make_inst


# ------------------------------------------------------------------ ROB
def test_rob_fifo_order():
    rob = ReorderBuffer(4)
    insts = [make_inst(Op.NOP) for _ in range(3)]
    for dyn in insts:
        rob.push(dyn)
    assert len(rob) == 3 and rob.free_slots == 1
    assert rob.head() is insts[0]
    assert rob.pop_head() is insts[0]
    assert rob.head() is insts[1]


def test_rob_overflow_guard():
    rob = ReorderBuffer(1)
    rob.push(make_inst(Op.NOP))
    with pytest.raises(AssertionError):
        rob.push(make_inst(Op.NOP))


def test_rob_drain_returns_in_order():
    rob = ReorderBuffer(8)
    insts = [make_inst(Op.NOP) for _ in range(5)]
    for dyn in insts:
        rob.push(dyn)
    drained = rob.drain()
    assert drained == insts
    assert len(rob) == 0 and rob.head() is None


# ------------------------------------------------------------------ issue queue
def ready_set(ready_tags):
    return lambda tag: tag in ready_tags


def test_iq_wakeup_on_exact_version():
    iq = IssueQueue()
    consumer_v1 = make_inst(Op.ADD, "x1", ("x2", "x3"))
    consumer_v1.src_tags = [(0, 5, 1), (0, 6, 0)]
    consumer_v2 = make_inst(Op.ADD, "x4", ("x2", "x3"))
    consumer_v2.src_tags = [(0, 5, 2), (0, 6, 0)]
    iq.insert(consumer_v1, ready_set({(0, 6, 0)}))
    iq.insert(consumer_v2, ready_set({(0, 6, 0)}))
    assert iq.ready_entries() == []

    iq.wakeup((0, 5, 1))  # version 1 produced: wakes only the v1 consumer
    assert iq.ready_entries() == [consumer_v1]
    iq.wakeup((0, 5, 2))
    assert iq.ready_entries() == [consumer_v1, consumer_v2]


def test_iq_ready_at_insert():
    iq = IssueQueue()
    dyn = make_inst(Op.ADD, "x1", ("x2", "x3"))
    dyn.src_tags = [(0, 1, 0), (0, 2, 0)]
    iq.insert(dyn, ready_set({(0, 1, 0), (0, 2, 0)}))
    assert iq.ready_entries() == [dyn]


def test_iq_oldest_first_and_remove():
    iq = IssueQueue()
    a = make_inst(Op.NOP)
    b = make_inst(Op.NOP)
    a.src_tags = b.src_tags = []
    iq.insert(a, ready_set(set()))
    iq.insert(b, ready_set(set()))
    assert iq.ready_entries() == [a, b]
    iq.remove(a)
    assert iq.ready_entries() == [b]
    with pytest.raises(AssertionError):
        iq.remove(a)


def test_iq_capacity():
    iq = IssueQueue()
    iq.size = 1  # a one-entry queue, substituted after construction
    a = make_inst(Op.NOP)
    a.src_tags = []
    iq.insert(a, ready_set(set()))
    assert iq.free_slots == 0
    with pytest.raises(AssertionError):
        iq.insert(make_inst(Op.NOP), ready_set(set()))
    iq.flush()
    assert iq.free_slots == 1


# ------------------------------------------------------------------ LSQ
def mem_inst(op, addr, **kw):
    return make_inst(op, "x1" if op in (Op.LD, Op.FLD) else None,
                     ("x2", "x3") if op in (Op.ST, Op.FST) else ("x2",),
                     mem_addr=addr, **kw)


def test_lsq_load_waits_for_older_store_addresses():
    lsq = LoadStoreQueue()
    store = mem_inst(Op.ST, 0x100)
    load = mem_inst(Op.LD, 0x200)
    lsq.insert(store)
    lsq.insert(load)
    assert not lsq.load_can_issue(load)
    lsq.mark_issued(store)
    assert lsq.load_can_issue(load)


def test_lsq_forwarding_from_youngest_matching_store():
    lsq = LoadStoreQueue()
    old = mem_inst(Op.ST, 0x100)
    new = mem_inst(Op.ST, 0x100)
    other = mem_inst(Op.ST, 0x180)
    load = mem_inst(Op.LD, 0x104)  # same 8-byte word as 0x100
    for dyn in (old, new, other, load):
        lsq.insert(dyn)
        if dyn is not load:
            lsq.mark_issued(dyn)
    assert lsq.forwarding_store(load) is new


def test_lsq_no_forwarding_across_words():
    lsq = LoadStoreQueue()
    store = mem_inst(Op.ST, 0x100)
    load = mem_inst(Op.LD, 0x108)
    lsq.insert(store)
    lsq.insert(load)
    lsq.mark_issued(store)
    assert lsq.forwarding_store(load) is None


def test_lsq_capacity_split():
    lsq = LoadStoreQueue()
    lsq.lq_size, lsq.sq_size = 1, 2  # substituted after construction
    load = mem_inst(Op.LD, 0)
    lsq.insert(load)
    assert not lsq.can_insert(mem_inst(Op.LD, 8))
    assert lsq.can_insert(mem_inst(Op.ST, 8))
    lsq.retire(load)
    assert lsq.can_insert(mem_inst(Op.LD, 8))


def test_lsq_flush():
    lsq = LoadStoreQueue()
    lsq.insert(mem_inst(Op.LD, 0))
    lsq.flush()
    assert len(lsq) == 0
    assert lsq.can_insert(mem_inst(Op.LD, 0))


# ------------------------------------------------------------------ FU pool
def test_fu_per_cycle_bandwidth():
    pool = FUPool({"alu": (2, 1, True)})
    assert pool.try_issue("alu", 0) == 1
    assert pool.try_issue("alu", 0) == 1
    assert pool.try_issue("alu", 0) is None  # both units used this cycle
    assert pool.try_issue("alu", 1) == 1  # pipelined: fresh next cycle


def test_fu_unpipelined_occupancy():
    pool = FUPool({"div": (1, 4, False)})
    assert pool.try_issue("div", 0) == 4
    assert pool.try_issue("div", 1) is None  # busy until cycle 4
    assert pool.try_issue("div", 3) is None
    assert pool.try_issue("div", 4) == 4
    pool.flush()
    assert pool.try_issue("div", 5) == 4


def test_fu_kinds_independent():
    pool = FUPool({"alu": (1, 1, True), "mul": (1, 3, True)})
    assert pool.try_issue("alu", 0) == 1
    assert pool.try_issue("mul", 0) == 3
    assert pool.try_issue("alu", 0) is None


# ------------------------------------------------------------------ fetch unit
class _NoICache:
    def access(self, addr, is_write, cycle):
        return 1


def linear_insts(n, start_seq=0):
    out = []
    for i in range(n):
        dyn = make_inst(Op.ADD, "x1", ("x2", "x3"), pc=i, seq=start_seq + i)
        dyn.next_pc = i + 1
        out.append(dyn)
    return out


def make_fetch(insts, width=3):
    return FetchUnit(IterSource(iter(insts)), BranchUnit(), _NoICache(),
                     fetch_width=width)


def test_fetch_width_and_queue_bound():
    fetch = make_fetch(linear_insts(FETCH_QUEUE + 10), width=3)
    fetch.tick(1)
    assert len(fetch.queue) == 3
    for cycle in range(2, FETCH_QUEUE):
        fetch.tick(cycle)
    assert len(fetch.queue) == FETCH_QUEUE  # queue bound
    fetch.pop()
    fetch.pop()
    fetch.tick(FETCH_QUEUE)
    assert len(fetch.queue) == FETCH_QUEUE


def test_fetch_stalls_on_mispredicted_branch_until_resolved():
    insts = linear_insts(2)
    branch = make_inst(Op.BNEZ, None, ("x1",), pc=2, seq=2, taken=True, target=9)
    branch.next_pc = 9
    after = make_inst(Op.ADD, "x1", ("x2", "x3"), pc=9, seq=3)
    after.next_pc = 10
    fetch = make_fetch(insts + [branch, after])
    fetch.tick(1)
    fetch.tick(2)
    assert branch in fetch.queue
    assert branch.mispredicted  # cold predictor: taken branch missed
    before = len(fetch.queue)
    fetch.tick(3)
    assert len(fetch.queue) == before  # stalled
    fetch.branch_resolved(branch, 4)
    fetch.tick(5)
    assert len(fetch.queue) == before  # still inside redirect penalty
    fetch.tick(4 + MISPREDICT_PENALTY)
    assert after in fetch.queue


def test_fetch_eof():
    fetch = make_fetch(linear_insts(2))
    fetch.tick(1)
    assert not fetch.eof
    fetch.pop()
    fetch.pop()
    fetch.tick(2)
    assert fetch.eof


def test_fetch_replay_order_preserved():
    insts = linear_insts(6)
    fetch = make_fetch(insts, width=6)
    fetch.tick(1)
    fetched = [fetch.pop() for _ in range(3)]
    # exception: replay the three popped plus whatever remains queued
    remaining = list(fetch.queue)
    fetch.inject_replay(fetched + remaining, cycle=1, redirect_penalty=0)
    fetch.tick(2)
    refetched = list(fetch.queue)
    assert [d.seq for d in refetched] == [0, 1, 2, 3, 4, 5]


def test_fetch_replay_preserves_pending_slot():
    class SlowICache:
        def __init__(self):
            self.calls = 0

        def access(self, addr, is_write, cycle):
            self.calls += 1
            return 30  # every new line misses

    insts = linear_insts(40)
    fetch = FetchUnit(IterSource(iter(insts)), BranchUnit(), SlowICache(),
                      fetch_width=3)
    fetch.tick(1)  # first inst stalls in the pending slot
    assert len(fetch.queue) == 0
    fetch.inject_replay([], cycle=1, redirect_penalty=0)
    # the pending instruction must not be lost (it re-fetches after the
    # replayed line's miss latency elapses)
    for cycle in range(2, 200):
        fetch.tick(cycle)
        if fetch.queue:
            break
    seqs = [d.seq for d in fetch.queue]
    assert 0 in seqs
