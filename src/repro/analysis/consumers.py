"""Def-use analysis over a dynamic instruction stream (paper Figs. 1-3).

One walk links each source operand to the value it reads.  The paper's
motivation figures all come from those links:

* **Figure 2** — per produced value, the number of consuming instructions
  (one, two, ..., six-or-more);
* **Figure 1** — the percentage of instructions *with a destination
  register* that are the sole consumer of some value, split by whether
  they redefine the consumed logical register (guaranteed last use) or a
  different one (needs the single-use prediction);
* **Figure 3** — the stream replayed through an *oracle* renamer: an
  instruction with a destination register reuses a same-class source's
  physical register when it is that value's only consumer (oracle
  knowledge of the full stream).  Each register tracks its chain depth;
  reusing instructions are classified by the depth they land at (one /
  two / three / more-than-three reuses), and a reuse limit can be
  imposed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.isa.dyninst import DynInst
from repro.isa.registers import RegRef


@dataclass
class ConsumerAnalysis:
    """Results of one stream analysis."""

    total_insts: int = 0
    dest_insts: int = 0
    #: histogram over consumer counts; key 6 means "six or more", key 0 =
    #: values never consumed inside the analysis window
    consumer_histogram: dict = field(default_factory=dict)
    #: Figure 1 categories (instruction counts)
    single_use_redefine_same: int = 0
    single_use_redefine_other: int = 0
    #: Figure 3: chain depth (1, 2, 3, 4=more) -> reusing instruction count
    depth_histogram: dict = field(default_factory=dict)

    # ---------------------------------------------------------------- Figure 2
    def consumer_fractions(self) -> dict:
        """Fractions per consumer-count bucket of the consumed values
        (Figure 2 series)."""
        histogram = dict(self.consumer_histogram)
        histogram.pop(0, None)
        total = sum(histogram.values())
        if not total:
            return {}
        return {k: v / total for k, v in sorted(histogram.items())}

    @property
    def single_use_value_fraction(self) -> float:
        """Fraction of consumed values with exactly one consumer."""
        fractions = self.consumer_fractions()
        return fractions.get(1, 0.0)

    # ---------------------------------------------------------------- Figure 1
    @property
    def single_consumer_inst_fraction(self) -> float:
        """Fraction of dest-instructions that are sole consumer of a value."""
        if not self.dest_insts:
            return 0.0
        hits = self.single_use_redefine_same + self.single_use_redefine_other
        return hits / self.dest_insts

    @property
    def redefine_same_fraction(self) -> float:
        return self.single_use_redefine_same / self.dest_insts if self.dest_insts else 0.0

    @property
    def redefine_other_fraction(self) -> float:
        return self.single_use_redefine_other / self.dest_insts if self.dest_insts else 0.0

    # ---------------------------------------------------------------- Figure 3
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


def analyze_stream(stream: Iterable[DynInst]) -> ConsumerAnalysis:
    """Run the def-use analysis over a dynamic instruction stream.

    Values are numbered in production order (value ``v`` is the ``v``-th
    destination write); instructions by their position in the stream.
    """
    result = ConsumerAnalysis()
    value_of: dict[RegRef, int] = {}  # logical register -> current value
    uses: list[int] = []  # value -> consumer count
    #: value -> (position, has_dest, redefines_same) of its last consumer
    last_consumer: list = []
    #: value -> the same-class values its producer read, in operand order
    reuse_links: list[list[int]] = []

    position = -1
    for position, dyn in enumerate(stream):
        dest = dyn.dest
        has_dest = dest is not None
        linked: list[int] = []
        seen: set[RegRef] = set()
        for src in dyn.srcs:
            if src in seen:
                continue  # one instruction counts once per source value
            seen.add(src)
            value = value_of.get(src)
            if value is None:
                continue
            uses[value] += 1
            last_consumer[value] = (position, has_dest, src == dest)
            if has_dest and src.cls is dest.cls:
                linked.append(value)
        if has_dest:
            value_of[dest] = len(uses)
            uses.append(0)
            last_consumer.append(None)
            reuse_links.append(linked)

    result.total_insts = position + 1
    result.dest_insts = len(uses)

    histogram = result.consumer_histogram
    sole_consumers: dict[int, bool] = {}  # consumer position -> redefines_same
    for count, consumer in zip(uses, last_consumer):
        bucket = min(count, 6)
        histogram[bucket] = histogram.get(bucket, 0) + 1
        if count == 1:
            consumer_position, consumer_has_dest, redefines_same = consumer
            if consumer_has_dest:
                # an instruction that is sole consumer of several values
                # counts once; the guaranteed (redefine-same) case wins
                previous = sole_consumers.get(consumer_position, False)
                sole_consumers[consumer_position] = previous or redefines_same
    for redefines_same in sole_consumers.values():
        if redefines_same:
            result.single_use_redefine_same += 1
        else:
            result.single_use_redefine_other += 1

    # oracle renamer: a value reuses the register of the first same-class
    # source value it is the only consumer of, one chain level deeper
    depths = result.depth_histogram
    chain_depth = [0] * len(uses)  # value -> depth of its register's chain
    for value, linked in enumerate(reuse_links):
        for source in linked:
            if uses[source] == 1:
                depth = chain_depth[value] = min(chain_depth[source] + 1, 4)
                depths[depth] = depths.get(depth, 0) + 1
                break
    return result
