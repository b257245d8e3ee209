"""Load/store queue with conservative disambiguation and forwarding.

Loads may issue only when every older store has computed its address
(i.e. has issued); a load whose word address matches the youngest older
store forwards the data instead of accessing the cache.  Stores write the
data cache at commit (through a write buffer, off the critical path).

Implementation note: each load entry tracks a *blocker count* — the
number of older unissued stores — maintained incrementally (decremented
when an older store issues), so the per-cycle readiness check is O(1)
instead of a queue scan.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.isa.dyninst import DynInst

#: load- and store-queue entries (the Table I core's split LSQ)
LQ_SIZE = 32
SQ_SIZE = 32


class _MemEntry:
    __slots__ = ("dyn", "issued", "is_store", "blockers")

    def __init__(self, dyn: DynInst, is_store: bool, blockers: int) -> None:
        self.dyn = dyn
        self.issued = False
        self.is_store = is_store
        self.blockers = blockers  # older unissued stores (loads only)


class LoadStoreQueue:
    """Split load/store queues of :data:`LQ_SIZE` and :data:`SQ_SIZE`
    entries, tracked together in program order."""

    def __init__(self) -> None:
        self.lq_size = LQ_SIZE
        self.sq_size = SQ_SIZE
        self._entries: deque[_MemEntry] = deque()  # program order
        self._by_id: dict[int, _MemEntry] = {}
        self._loads = 0
        self._stores = 0
        self._unissued_stores = 0

    # ------------------------------------------------------------------ capacity
    def can_insert(self, dyn: DynInst) -> bool:
        if dyn.info.is_load:
            return self._loads < self.lq_size
        if dyn.info.is_store:
            return self._stores < self.sq_size
        return True

    def insert(self, dyn: DynInst) -> None:
        if not self.can_insert(dyn):
            raise AssertionError("LSQ overflow")
        is_store = dyn.info.is_store
        entry = _MemEntry(dyn, is_store, 0 if is_store else self._unissued_stores)
        self._entries.append(entry)
        self._by_id[id(dyn)] = entry
        dyn.lsq_entry = entry  # direct back-reference for the issue hot path
        if is_store:
            self._stores += 1
            self._unissued_stores += 1
        else:
            self._loads += 1

    # ------------------------------------------------------------------ issue
    def _entry(self, dyn: DynInst) -> _MemEntry:
        try:
            return self._by_id[id(dyn)]
        except KeyError:
            raise AssertionError("instruction not in LSQ") from None

    def load_can_issue(self, dyn: DynInst) -> bool:
        """All older stores must have issued (addresses known)."""
        entry = dyn.lsq_entry
        if entry is None:
            raise AssertionError("instruction not in LSQ")
        return entry.blockers == 0

    def forwarding_store(self, dyn: DynInst) -> Optional[DynInst]:
        """Youngest older store to the same word, if any (already issued)."""
        word = dyn.mem_addr >> 3
        best: Optional[DynInst] = None
        for entry in self._entries:
            if entry.dyn is dyn:
                break
            if entry.is_store and entry.dyn.mem_addr >> 3 == word:
                best = entry.dyn
        return best

    def mark_issued(self, dyn: DynInst) -> None:
        entry = dyn.lsq_entry
        if entry is None:
            raise AssertionError("instruction not in LSQ")
        if entry.issued:
            return
        entry.issued = True
        if entry.is_store:
            self._unissued_stores -= 1
            self._unblock_after(entry)

    def _unblock_after(self, store_entry: _MemEntry) -> None:
        seen = False
        for entry in self._entries:
            if entry is store_entry:
                seen = True
                continue
            if seen and not entry.is_store:
                entry.blockers -= 1

    # ------------------------------------------------------------------ retire
    def _remove(self, dyn: DynInst) -> None:
        entry = self._by_id.pop(id(dyn))
        dyn.lsq_entry = None
        self._entries.remove(entry)
        if entry.is_store:
            self._stores -= 1
            if not entry.issued:
                self._unissued_stores -= 1
                self._unblock_after_removed(entry)
        else:
            self._loads -= 1

    def _unblock_after_removed(self, store_entry: _MemEntry) -> None:
        # removing an unissued store invalidates younger loads' counts;
        # recompute exactly (rare: only on squash of an unissued store)
        self._recount_blockers()

    def _recount_blockers(self) -> None:
        unissued = 0
        for entry in self._entries:
            if entry.is_store:
                if not entry.issued:
                    unissued += 1
            else:
                entry.blockers = unissued

    def retire(self, dyn: DynInst) -> None:
        if id(dyn) not in self._by_id:
            raise AssertionError("instruction not in LSQ")
        self._remove(dyn)

    def discard(self, dyn: DynInst) -> bool:
        """Remove ``dyn`` if present (squash); returns whether it was."""
        if id(dyn) not in self._by_id:
            return False
        self._remove(dyn)
        return True

    def flush(self) -> None:
        for entry in self._entries:
            entry.dyn.lsq_entry = None
        self._entries.clear()
        self._by_id.clear()
        self._loads = 0
        self._stores = 0
        self._unissued_stores = 0

    def __len__(self) -> int:
        return len(self._entries)
