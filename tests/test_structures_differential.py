"""Differential property tests: optimized queue structures vs naive models.

The LSQ and issue queue were optimized (incremental blocker counts,
indexed wakeup); these hypothesis tests drive random operation sequences
through both the real structure and an obviously-correct naive model and
require identical observable behaviour.
"""

from hypothesis import given, settings, strategies as st

from repro.isa.opcodes import Op
from repro.pipeline.issue_queue import IssueQueue
from repro.pipeline.lsq import LoadStoreQueue

from tests.util import make_inst


# ===================================================================== LSQ
class NaiveLSQ:
    """Straightforward list-scanning reference model."""

    def __init__(self):
        self.entries = []  # (dyn, issued)

    def insert(self, dyn):
        self.entries.append([dyn, False])

    def load_can_issue(self, dyn):
        for entry_dyn, issued in self.entries:
            if entry_dyn is dyn:
                return True
            if entry_dyn.info.is_store and not issued:
                return False
        raise AssertionError

    def forwarding_store(self, dyn):
        best = None
        for entry_dyn, _issued in self.entries:
            if entry_dyn is dyn:
                break
            if entry_dyn.info.is_store and entry_dyn.mem_addr >> 3 == dyn.mem_addr >> 3:
                best = entry_dyn
        return best

    def mark_issued(self, dyn):
        for entry in self.entries:
            if entry[0] is dyn:
                entry[1] = True
                return

    def remove(self, dyn):
        self.entries = [e for e in self.entries if e[0] is not dyn]


@st.composite
def lsq_script(draw):
    """A random sequence of LSQ operations over generated mem instructions."""
    ops = []
    n = draw(st.integers(3, 25))
    for i in range(n):
        is_store = draw(st.booleans())
        addr = 8 * draw(st.integers(0, 6))
        ops.append(("insert", is_store, addr))
    extra = draw(st.lists(
        st.tuples(st.sampled_from(["issue", "remove", "check"]),
                  st.integers(0, n - 1)), max_size=40))
    return ops, extra


@given(lsq_script())
@settings(max_examples=60, deadline=None)
def test_lsq_matches_naive_model(script):
    inserts, actions = script
    real = LoadStoreQueue()
    naive = NaiveLSQ()
    insts = []
    for _op, is_store, addr in inserts:
        dyn = make_inst(Op.ST if is_store else Op.LD,
                        None if is_store else "x1",
                        ("x2", "x3") if is_store else ("x2",),
                        mem_addr=addr)
        insts.append(dyn)
        real.insert(dyn)
        naive.insert(dyn)

    alive = set(range(len(insts)))
    for action, index in actions:
        if index not in alive:
            continue
        dyn = insts[index]
        if action == "issue":
            real.mark_issued(dyn)
            naive.mark_issued(dyn)
        elif action == "remove":
            real.discard(dyn)
            naive.remove(dyn)
            alive.discard(index)
        else:  # check every live load
            for live_index in sorted(alive):
                live = insts[live_index]
                if live.info.is_load:
                    assert real.load_can_issue(live) == naive.load_can_issue(live), \
                        f"load {live_index} readiness diverged"
                    assert real.forwarding_store(live) is naive.forwarding_store(live)

    # final full cross-check
    for live_index in sorted(alive):
        live = insts[live_index]
        if live.info.is_load:
            assert real.load_can_issue(live) == naive.load_can_issue(live)
            assert real.forwarding_store(live) is naive.forwarding_store(live)


# ===================================================================== IQ
class NaiveIQ:
    def __init__(self):
        self.entries = []  # (dyn, waiting set) in insert order

    def insert(self, dyn, ready):
        self.entries.append((dyn, {t for t in dyn.src_tags if not ready(t)}))

    def wakeup(self, tag):
        for _dyn, waiting in self.entries:
            waiting.discard(tag)

    def ready(self):
        return [dyn for dyn, waiting in self.entries if not waiting]

    def remove(self, dyn):
        self.entries = [e for e in self.entries if e[0] is not dyn]


@st.composite
def iq_script(draw):
    n = draw(st.integers(2, 20))
    tags = [(0, i, draw(st.integers(0, 3))) for i in range(6)]
    inserts = []
    for _ in range(n):
        srcs = draw(st.lists(st.sampled_from(tags), max_size=2))
        inserts.append(srcs)
    initially_ready = draw(st.sets(st.sampled_from(tags)))
    actions = draw(st.lists(
        st.one_of(
            st.tuples(st.just("wake"), st.sampled_from(tags)),
            st.tuples(st.just("remove"), st.integers(0, n - 1)),
        ), max_size=30))
    return inserts, initially_ready, actions


@given(iq_script())
@settings(max_examples=60, deadline=None)
def test_iq_matches_naive_model(script):
    inserts, initially_ready, actions = script
    real = IssueQueue()
    naive = NaiveIQ()
    is_ready = lambda tag: tag in initially_ready

    insts = []
    for srcs in inserts:
        dyn = make_inst(Op.NOP)
        dyn.src_tags = list(srcs)
        insts.append(dyn)
        real.insert(dyn, is_ready)
        naive.insert(dyn, is_ready)

    removed = set()
    for action in actions:
        if action[0] == "wake":
            real.wakeup(action[1])
            naive.wakeup(action[1])
        else:
            index = action[1]
            if index in removed:
                continue
            removed.add(index)
            real.discard(insts[index])
            naive.remove(insts[index])
        assert real.ready_entries() == naive.ready(), "ready sets diverged"
        assert len(real) == len(naive.entries)
