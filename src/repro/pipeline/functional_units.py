"""Functional unit pool: per-kind issue bandwidth and occupancy."""

from __future__ import annotations

from typing import Optional


class FUPool:
    """Tracks per-cycle issue slots and unpipelined-unit occupancy.

    ``fu_config`` pairs each kind with (count, latency, pipelined).  Pipelined
    units accept one new operation per unit per cycle; unpipelined units
    (dividers) are busy for their full latency.
    """

    def __init__(
        self, fu_config: tuple[tuple[str, tuple[int, int, bool]], ...],
    ) -> None:
        self.config = dict(fu_config)
        self._cycle = -1
        self._used: dict[str, int] = {}
        self._busy_until: dict[str, list[int]] = {
            kind: [0] * count
            for kind, (count, _lat, pipelined) in self.config.items()
            if not pipelined
        }
        #: kind -> (count, latency, unpipelined slots or None), one lookup
        #: per try_issue instead of two
        self._kinds: dict[str, tuple[int, int, Optional[list[int]]]] = {
            kind: (count, latency, self._busy_until.get(kind))
            for kind, (count, latency, _pipelined) in self.config.items()
        }

    def try_issue(self, kind: str, cycle: int) -> Optional[int]:
        """Reserve a unit of ``kind``; returns its latency or None if busy."""
        used = self._used
        if cycle != self._cycle:
            self._cycle = cycle
            used.clear()
        count, latency, slots = self._kinds[kind]
        in_use = used.get(kind, 0)
        if in_use >= count:
            return None
        if slots is not None:
            for index, busy_until in enumerate(slots):
                if busy_until <= cycle:
                    slots[index] = cycle + latency
                    break
            else:
                return None
        used[kind] = in_use + 1
        return latency

    def flush(self) -> None:
        for slots in self._busy_until.values():
            for index in range(len(slots)):
                slots[index] = 0
