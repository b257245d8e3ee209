"""Idealized reuse-chain analysis (paper Figure 3).

Replays the stream through an *oracle* renamer: an instruction with a
destination register can reuse a source's physical register when it is
that value's only consumer (oracle knowledge of the full stream).  Each
physical register tracks its chain depth; Figure 3 classifies reusing
instructions by the depth they land at (one / two / three / more-than-
three reuses) and lets a reuse-limit be imposed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.isa.dyninst import DynInst
from repro.isa.registers import RegRef


@dataclass
class ReuseChainAnalysis:
    dest_insts: int = 0
    #: histogram: chain depth (1, 2, 3, 4=more) -> reusing instruction count
    depth_histogram: dict = field(default_factory=dict)

    def reuse_fraction(self, limit: int | None = None) -> float:
        """Fraction of dest-instructions that avoid an allocation when a
        register may be reused up to ``limit`` times (None = unlimited)."""
        if not self.dest_insts:
            return 0.0
        total = 0
        for depth, count in self.depth_histogram.items():
            if limit is None or depth <= limit:
                total += count
        return total / self.dest_insts

    def depth_fraction(self, depth: int) -> float:
        """Fraction of dest-instructions whose reuse lands at ``depth``
        (depth 4 aggregates 'more than three')."""
        if not self.dest_insts:
            return 0.0
        return self.depth_histogram.get(depth, 0) / self.dest_insts

    def figure3_series(self) -> dict:
        """The four Figure 3 buckets: one/two/three/more reuses."""
        return {
            "one": self.depth_fraction(1),
            "two": self.depth_fraction(2),
            "three": self.depth_fraction(3),
            "more": self.depth_fraction(4),
        }


def analyze_chains(stream: Iterable[DynInst]) -> ReuseChainAnalysis:
    insts = list(stream)

    # oracle pass: total consumer count per produced value (producer seq)
    consumer_count: dict[int, int] = {}
    producer_of: dict[RegRef, int] = {}  # current value's producer seq
    for dyn in insts:
        seen: set[RegRef] = set()
        for src in dyn.srcs:
            if src in seen:
                continue
            seen.add(src)
            producer = producer_of.get(src)
            if producer is not None:
                consumer_count[producer] = consumer_count.get(producer, 0) + 1
        if dyn.dest is not None:
            producer_of[dyn.dest] = dyn.seq

    # reuse pass: track chain depth of the register backing each value
    result = ReuseChainAnalysis()
    producer_of.clear()
    chain_depth: dict[int, int] = {}  # producer seq -> depth of its register
    for dyn in insts:
        reuse_from = None
        seen = set()
        for src in dyn.srcs:
            if src in seen:
                continue
            seen.add(src)
            producer = producer_of.get(src)
            if producer is None:
                continue
            if (
                dyn.dest is not None
                and src.cls is dyn.dest.cls
                and consumer_count.get(producer) == 1
                and reuse_from is None
            ):
                reuse_from = producer
        if dyn.dest is None:
            continue
        result.dest_insts += 1
        if reuse_from is not None:
            depth = min(chain_depth.get(reuse_from, 0) + 1, 4)
            result.depth_histogram[depth] = result.depth_histogram.get(depth, 0) + 1
            chain_depth[dyn.seq] = depth if depth < 4 else 4
        else:
            chain_depth[dyn.seq] = 0
        producer_of[dyn.dest] = dyn.seq
    return result
