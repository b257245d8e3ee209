"""Read-port-reduction schemes for the physical register file.

The source paper's equal-area comparison gives the conventional baseline
a full 8-read-port register file.  "Efficient Read-Port-Count Reduction
Schemes for the Centralized Physical Register File" (arXiv 2502.00147)
shows that much of that port area is wasted: most operands are caught on
the bypass network, and the reads that do reach the file cluster poorly
enough that a banked file with a small arbiter loses little performance.
This module implements both levers as an issue-stage layer the pipeline
composes with :class:`~repro.core.register_file.BankedRegisterFile`:

* ``bypass_filter`` — operands whose producer wrote back within the
  last :data:`BYPASS_DEPTH` cycles are satisfied from the bypass network
  and never claim a physical read port; the remaining reads contend for
  a *halved* flat port budget (:data:`BYPASS_FILTER_READ_PORTS`).
* ``banked_arbiter`` — the register file is split into
  :data:`READ_BANKS` banks of :data:`BANK_READ_PORTS` read ports each
  (bank = physical register number modulo bank count, per class).  A
  cycle-accurate arbiter spreads each instruction's reads over up to
  :data:`MAX_READ_DELAY` extra cycles; demand that cannot be scheduled
  within that window stalls the instruction in the issue queue.

Each scheme's geometry is named once, by the module constants below:
:func:`make_port_scheme` simulates it and the area model
(:func:`repro.area.cacti_lite.port_scheme_rf_area`) prices it, so
``MachineConfig.rf_port_scheme`` alone decides both.

Both schemes expose one interface to the issue stage::

    scheme.begin_cycle(cycle)            # once per issue cycle
    plan = scheme.plan(dyn, cycle)       # None -> port stall, skip dyn
    delay = scheme.commit(plan, stats)   # after FU grant; extra latency

plus ``note_writeback(tag, cycle)`` (feeds the bypass tracker from the
writeback stage) and ``flush()`` (pipeline squash).  ``plan`` never
mutates state, so a rejected or FU-stalled instruction leaves no trace;
``commit`` does all accounting (``SimStats.rf_port_*`` counters).

Deadlock freedom: both schemes always grant an instruction whose
demanded banks (or, for the flat filter, register classes) are *fresh*
(no reads committed this cycle), even when its intrinsic demand exceeds
the delay window or the port budget — combined with the oldest-first
ready list this guarantees the head instruction issues, so a port
conflict can only defer work, never wedge the pipeline.  The same rule
means a port denial needs a read committed earlier in the same cycle,
that is an instruction that issued: a cycle in which *nothing* issues
charges no port stalls, which keeps the generated kernels' quiet-cycle
and busy-stall skips bit-identical to the naive reference loop.
"""

from __future__ import annotations

from typing import Optional

#: the recognised values of ``MachineConfig.rf_port_scheme``
PORT_SCHEMES = ("none", "bypass_filter", "banked_arbiter")

# ---- port geometry: simulated here, priced by repro.area.cacti_lite ---------
#: ``bypass_filter``: flat read ports per register class per cycle, half
#: the conventional file's 8 (most operands arrive on the bypass network)
BYPASS_FILTER_READ_PORTS = 4
#: ``bypass_filter``: writeback cycles a value stays on the bypass network
BYPASS_DEPTH = 1
#: ``banked_arbiter``: banks per register class
READ_BANKS = 4
#: ``banked_arbiter``: read ports per bank
BANK_READ_PORTS = 2
#: ``banked_arbiter``: extra read cycles charged before issue stalls
MAX_READ_DELAY = 1


class BypassTracker:
    """Recent writeback tags, queryable as "is this operand on the bypass
    network?".

    Keeps one tag set per cycle for the last :data:`BYPASS_DEPTH`
    cycles; stale cycles are pruned lazily when a new cycle's set is
    created, so skipped quiet windows cost nothing.
    """

    __slots__ = ("depth", "_by_cycle")

    def __init__(self) -> None:
        self.depth = BYPASS_DEPTH
        self._by_cycle: dict[int, set] = {}

    def note_write(self, tag, cycle: int) -> None:
        bucket = self._by_cycle.get(cycle)
        if bucket is None:
            bucket = self._by_cycle[cycle] = set()
            horizon = cycle - self.depth
            for old in [c for c in self._by_cycle if c <= horizon]:
                del self._by_cycle[old]
        bucket.add(tag)

    def is_bypassed(self, tag, cycle: int) -> bool:
        """True when ``tag`` wrote back within ``depth`` cycles of
        ``cycle`` (writeback runs before issue within a cycle, so depth 1
        covers same-cycle forwarding)."""
        by_cycle = self._by_cycle
        for c in range(cycle - self.depth + 1, cycle + 1):
            bucket = by_cycle.get(c)
            if bucket is not None and tag in bucket:
                return True
        return False

    def flush(self) -> None:
        self._by_cycle.clear()


class BypassFilterPorts:
    """``rf_port_scheme="bypass_filter"``: bypass-aware port filtering.

    Operands on the bypass network read nothing; the rest contend for
    the flat :data:`BYPASS_FILTER_READ_PORTS` budget per register class
    per cycle; a class with no reads yet this cycle grants any demand.
    Serving the bypassed reads for free is what lets the area model halve
    the port count.
    """

    scheme = "bypass_filter"

    __slots__ = ("read_ports", "tracker", "_used")

    def __init__(self) -> None:
        self.read_ports = BYPASS_FILTER_READ_PORTS
        self.tracker = BypassTracker()
        self._used = [0, 0]

    def begin_cycle(self, cycle: int) -> None:
        self._used[0] = 0
        self._used[1] = 0

    def plan(self, dyn, cycle: int) -> Optional[tuple]:
        tracker = self.tracker
        n0 = n1 = bypassed = 0
        for tag in dyn.src_tags:
            if tracker.is_bypassed(tag, cycle):
                bypassed += 1
            elif tag[0]:
                n1 += 1
            else:
                n0 += 1
        read_ports = self.read_ports
        used = self._used
        if (used[0] and used[0] + n0 > read_ports) \
                or (used[1] and used[1] + n1 > read_ports):
            return None
        return (n0, n1, bypassed)

    def commit(self, plan: tuple, stats) -> int:
        n0, n1, bypassed = plan
        used = self._used
        used[0] += n0
        used[1] += n1
        stats.rf_port_reads += n0 + n1
        stats.rf_bypass_reads += bypassed
        return 0

    def note_writeback(self, tag, cycle: int) -> None:
        self.tracker.note_write(tag, cycle)

    def flush(self) -> None:
        self.tracker.flush()


class BankedArbiterPorts:
    """``rf_port_scheme="banked_arbiter"``: delayed/banked reads behind a
    cycle-accurate read-port arbiter.

    Tracks per-(class, bank) read demand within the current cycle.  For
    a candidate instruction, :meth:`plan` computes the extra read latency
    its worst bank would need — demand already committed this cycle plus
    its own reads, spread over :data:`BANK_READ_PORTS` reads per cycle
    in each of :data:`READ_BANKS` banks::

        delay(bank) = ceil((used + wanted) / ports) - 1

    and denies the grant (returns None: the instruction stalls in the
    issue queue) when that exceeds :data:`MAX_READ_DELAY`, *unless* every
    demanded bank is still fresh this cycle (the head-of-line progress
    guarantee — see the module docstring).  :meth:`commit` claims the
    ports and returns the charged delay as extra issue-to-complete
    latency.
    """

    scheme = "banked_arbiter"

    __slots__ = ("banks", "ports", "max_delay", "_used", "_cycle")

    def __init__(self) -> None:
        self.banks = READ_BANKS
        self.ports = BANK_READ_PORTS
        self.max_delay = MAX_READ_DELAY
        self._used: dict[tuple, int] = {}
        self._cycle = -1

    def begin_cycle(self, cycle: int) -> None:
        if cycle != self._cycle:
            self._cycle = cycle
            self._used.clear()

    def plan(self, dyn, cycle: int) -> Optional[tuple]:
        """``(delay, demand)`` for reading ``dyn``'s sources this cycle,
        or None.

        ``demand`` maps (class, bank) -> read count; ``delay`` is the
        worst bank's extra latency.  Pure — commits nothing.
        """
        banks = self.banks
        demand: dict[tuple, int] = {}
        for tag in dyn.src_tags:
            key = (tag[0], tag[1] % banks)
            demand[key] = demand.get(key, 0) + 1
        if not demand:
            return (0, demand)
        used = self._used
        ports = self.ports
        worst = 0
        fresh = True
        for key, wanted in demand.items():
            prior = used.get(key, 0)
            if prior:
                fresh = False
            delay = (prior + wanted + ports - 1) // ports - 1
            if delay > worst:
                worst = delay
        if worst > self.max_delay and not fresh:
            return None
        return (worst, demand)

    def commit(self, plan: tuple, stats) -> int:
        delay, demand = plan
        used = self._used
        reads = 0
        for key, wanted in demand.items():
            used[key] = used.get(key, 0) + wanted
            reads += wanted
        stats.rf_port_reads += reads
        if delay:
            stats.rf_delayed_reads += 1
            stats.rf_delay_cycles += delay
        return delay

    def note_writeback(self, tag, cycle: int) -> None:
        pass

    def flush(self) -> None:
        pass


def make_port_scheme(config):
    """The port-scheme object for ``config``, or None for ``"none"``."""
    scheme = config.rf_port_scheme
    if scheme == "none":
        return None
    if scheme == "bypass_filter":
        return BypassFilterPorts()
    if scheme == "banked_arbiter":
        return BankedArbiterPorts()
    raise ValueError(f"unknown rf_port_scheme {scheme!r}; "
                     f"expected one of {PORT_SCHEMES}")
