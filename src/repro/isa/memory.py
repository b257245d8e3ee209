"""Sparse 8-byte-word-granular memory used by the functional executor."""

from __future__ import annotations

from typing import Union

Value = Union[int, float]


class SparseMemory:
    """Word-addressed sparse memory.

    Addresses are normalised to 8-byte alignment; uninitialised words read
    as integer zero.  Values are Python ints or floats (the simulator models
    a 64-bit machine; integer wrap-around is handled by the executor, not
    here).
    """

    __slots__ = ("_words",)

    def __init__(self, init: dict[int, Value] | None = None) -> None:
        self._words: dict[int, Value] = {}
        if init:
            for addr, value in init.items():
                self.store(addr, value)

    @staticmethod
    def _align(addr: int) -> int:
        return addr & ~7

    def load(self, addr: int) -> Value:
        return self._words.get(self._align(addr), 0)

    def store(self, addr: int, value: Value) -> None:
        self._words[self._align(addr)] = value

    def copy(self) -> "SparseMemory":
        clone = SparseMemory()
        clone._words = dict(self._words)
        return clone

    def __len__(self) -> int:
        return len(self._words)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseMemory):
            return NotImplemented
        return self._words == other._words
