"""Register lifetime analysis (the paper's Section II motivation).

Conventional renaming releases a physical register only when the
redefining instruction commits, so "many cycles may happen between the
last read of the register and its release, leading to suboptimal
utilization".  This analysis quantifies that: from a committed pipeline
trace (``Processor(..., keep_trace=True)``) it reconstructs, for every
produced value,

* ``definition``   — the producer's writeback cycle,
* ``last_read``    — the last consumer's issue cycle,
* ``release``      — the redefiner's commit cycle (conventional release
  point),

and reports the *dead interval* (release − last_read): register-file
occupancy that the paper's scheme reclaims by reusing the register at the
consumer's rename.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.isa.dyninst import DynInst


@dataclass
class ValueLifetime:
    producer_seq: int
    allocated: int  # rename cycle of the producer
    defined: int  # writeback cycle
    last_read: Optional[int]  # issue cycle of the last consumer (None: unread)
    released: Optional[int]  # commit cycle of the redefiner (None: never)

    @property
    def dead_interval(self) -> Optional[int]:
        """Cycles the register stays allocated after its last read."""
        if self.released is None:
            return None
        anchor = self.last_read if self.last_read is not None else self.defined
        return max(0, self.released - anchor)

    @property
    def live_interval(self) -> Optional[int]:
        if self.released is None:
            return None
        return max(0, self.released - self.allocated)


@dataclass
class LifetimeAnalysis:
    lifetimes: list = field(default_factory=list)

    @property
    def mean_dead_interval(self) -> float:
        values = [lt.dead_interval for lt in self.lifetimes
                  if lt.dead_interval is not None]
        return sum(values) / len(values) if values else 0.0

    @property
    def dead_fraction(self) -> float:
        """Share of the total allocated register-cycles that are dead."""
        dead = sum(lt.dead_interval for lt in self.lifetimes
                   if lt.dead_interval is not None)
        live = sum(lt.live_interval for lt in self.lifetimes
                   if lt.live_interval is not None)
        return dead / live if live else 0.0


def analyze_lifetimes(trace: Iterable[DynInst]) -> LifetimeAnalysis:
    """Reconstruct value lifetimes from a committed pipeline trace.

    Works for any renaming scheme; for the sharing scheme, reused
    versions share a physical register, so their "release" reflects the
    reuse point (the dead interval collapses for reused values — which is
    precisely the paper's point).
    """
    result = LifetimeAnalysis()

    # Single in-order pass (commit order == program order).  Physical
    # register tags recycle across lifetimes, so each tag's *current*
    # producer and reads are tracked and the lifetime is closed when the
    # redefining instruction appears.
    open_producer: dict = {}  # tag -> producing DynInst
    open_last_read: dict = {}  # tag -> latest consumer issue cycle

    for dyn in trace:
        if dyn.micro_op:
            continue
        # 1. source reads bind to the currently open lifetimes
        for tag in dyn.src_tags:
            if tag in open_producer and dyn.issue_cycle >= 0:
                previous = open_last_read.get(tag, -1)
                open_last_read[tag] = max(previous, dyn.issue_cycle)

        if dyn.dest is None or dyn.dest_tag is None:
            continue

        # 2. the previous mapping of the destination dies here
        prev = dyn.prev_map
        if prev is not None:
            prev_tag = (dyn.dest_tag[0], prev[0], prev[1]) \
                if len(prev) == 2 else prev
            producer = open_producer.pop(prev_tag, None)
            last_read = open_last_read.pop(prev_tag, None)
            if producer is not None:
                # a reuse is release-on-rename (Section IV-A3): the killed
                # version's storage is handed over at the reuser's rename
                released = (dyn.rename_cycle if dyn.reused_src is not None
                            else dyn.commit_cycle)
                result.lifetimes.append(ValueLifetime(
                    producer_seq=producer.seq,
                    allocated=producer.rename_cycle,
                    defined=producer.complete_cycle,
                    last_read=last_read,
                    released=released,
                ))

        # 3. open this instruction's lifetime
        open_producer[dyn.dest_tag] = dyn
        open_last_read.pop(dyn.dest_tag, None)
    return result
