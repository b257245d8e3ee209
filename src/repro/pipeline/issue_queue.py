"""Issue queue with version-tagged wakeup.

This is where the paper's scheme touches the issue logic: source and
destination tags are ``(class, physical register, version)``, so when a
shared register's new version is produced only the consumers waiting for
*that* version wake up (Section IV-A, the P1.1 / P1.2 example).  The 4
extra tag bits per entry are charged to the scheme's area overhead in
Table II.

Implementation note: wakeup is indexed (tag -> waiting entries) and the
ready list is maintained incrementally, so the per-cycle cost is
proportional to activity, not to queue size.
"""

from __future__ import annotations

from itertools import count
from typing import Callable, Optional

from repro.core.renamer import Tag
from repro.isa.dyninst import DynInst
from repro.pipeline.config import IQ_SIZE


def _ticket_of(entry: "_Entry") -> int:
    return entry.ticket


class _Entry:
    __slots__ = ("dyn", "waiting", "ticket", "removed", "in_ready")

    def __init__(self, dyn: DynInst, waiting: Optional[set[Tag]],
                 ticket: int) -> None:
        self.dyn = dyn
        self.waiting = waiting  # source tags not yet produced (None = none)
        self.ticket = ticket
        self.removed = False
        self.in_ready = waiting is None


class IssueQueue:
    """Unified issue queue of :data:`~repro.pipeline.config.IQ_SIZE`
    entries, oldest-first select.

    The ready list is maintained incrementally and only re-filtered /
    re-sorted / re-materialised when something actually changed since the
    last select — an idle or stalled cycle costs O(1), not O(ready).
    """

    def __init__(self) -> None:
        self.size = IQ_SIZE
        self._size = 0
        self._ticket = count()
        self._by_dyn: dict[int, _Entry] = {}
        self._by_tag: dict[Tag, list[_Entry]] = {}
        self._ready: list[_Entry] = []
        self._ready_dirty = False  # appended since the last sort
        self._ready_stale = False  # removals left dead entries in the list
        self._ready_view: Optional[list[DynInst]] = None

    def __len__(self) -> int:
        return self._size

    @property
    def free_slots(self) -> int:
        return self.size - self._size

    def insert(self, dyn: DynInst, is_ready: Callable[[Tag], bool]) -> None:
        if self._size >= self.size:
            raise AssertionError("issue queue overflow")
        # build the waiting set lazily: the common case (all sources
        # already produced) allocates nothing
        waiting: Optional[set[Tag]] = None
        for tag in dyn.src_tags:
            if not is_ready(tag):
                if waiting is None:
                    waiting = {tag}
                else:
                    waiting.add(tag)
        entry = _Entry(dyn, waiting, next(self._ticket))
        self._by_dyn[id(dyn)] = entry
        self._size += 1
        if waiting:
            by_tag = self._by_tag
            for tag in waiting:
                by_tag.setdefault(tag, []).append(entry)
        else:
            # a fresh entry holds the highest ticket yet, so appending it
            # keeps a sorted ready list sorted — no re-sort needed
            self._ready.append(entry)
            self._ready_view = None

    def wakeup(self, tag: Tag) -> None:
        """Broadcast a produced tag: wake consumers waiting on this version."""
        entries = self._by_tag.pop(tag, None)
        if not entries:
            return
        ready = self._ready
        for entry in entries:
            if entry.removed:
                continue
            entry.waiting.discard(tag)
            if not entry.waiting:
                entry.in_ready = True
                # woken entries may be older than the current tail; only
                # then does the append break sorted order
                if ready and ready[-1].ticket > entry.ticket:
                    self._ready_dirty = True
                ready.append(entry)
                self._ready_view = None

    def ready_entries(self) -> list[DynInst]:
        """Ready instructions, oldest first."""
        ready = self._ready
        if not ready:
            return ready  # empty; callers only iterate
        if self._ready_stale:
            # filtering preserves order, so no re-sort needed for removals
            ready = [entry for entry in ready if not entry.removed]
            self._ready = ready
            self._ready_stale = False
            self._ready_view = None
        if self._ready_dirty:
            ready.sort(key=_ticket_of)
            self._ready_dirty = False
            self._ready_view = None
        if self._ready_view is None:
            self._ready_view = [entry.dyn for entry in ready]
        return self._ready_view

    def remove(self, dyn: DynInst) -> None:
        entry = self._by_dyn.pop(id(dyn), None)
        if entry is None:
            raise AssertionError("instruction not in issue queue")
        entry.removed = True
        self._size -= 1
        if entry.in_ready:
            self._ready_stale = True
            self._ready_view = None

    def discard(self, dyn: DynInst) -> bool:
        """Remove ``dyn`` if present (squash); returns whether it was."""
        entry = self._by_dyn.pop(id(dyn), None)
        if entry is None:
            return False
        entry.removed = True
        self._size -= 1
        if entry.in_ready:
            self._ready_stale = True
            self._ready_view = None
        return True

    def flush(self) -> None:
        self._by_dyn.clear()
        self._by_tag.clear()
        self._ready.clear()
        self._size = 0
        self._ready_dirty = False
        self._ready_stale = False
        self._ready_view = None
