"""JSON-lines trace serialization: the test oracle of the trace codec.

Each line is one DynInst; architectural facts only — pipeline
bookkeeping is not serialized.  No command reads or writes these lines:
the trace cache stores the binary columns of
:mod:`repro.workloads.trace_codec`, whose ``decode(encode(insts))`` is
defined to equal a :func:`save_trace`/:func:`load_trace` round trip.
``tests/test_trace_codec.py`` and ``tests/test_columnar_ff.py`` hold the
codec and the columnar fast-forward against this module.
"""

from __future__ import annotations

import json
from typing import IO, Iterable, Iterator

from repro.isa.dyninst import DynInst
from repro.isa.opcodes import MNEMONICS
from repro.isa.registers import reg

_FIELDS = ("seq", "pc", "imm", "taken", "target", "next_pc", "mem_addr",
           "store_value", "result", "faults")


def _encode(dyn: DynInst) -> dict:
    record: dict = {"op": dyn.op.value}
    for field in _FIELDS:
        value = getattr(dyn, field)
        # identity checks: 0 == False in Python, but a zero-valued field
        # (target=0, result=0, ...) must still be serialized
        if value is None or value is False:
            continue
        record[field] = value
    if dyn.dest is not None:
        record["dest"] = str(dyn.dest)
    if dyn.srcs:
        record["srcs"] = [str(s) for s in dyn.srcs]
    if dyn.src_values:
        record["src_values"] = list(dyn.src_values)
    # oracle liveness hints (consumed by the hinted renamer): without
    # them a round-tripped trace would silently degrade `hinted` runs
    if dyn.hint_dest_single_use:
        record["h_dest"] = True
    if any(dyn.hint_src_single_use):
        record["h_srcs"] = [1 if h else 0 for h in dyn.hint_src_single_use]
    if dyn.hint_reuse_depth:
        record["h_depth"] = dyn.hint_reuse_depth
    return record


def _decode(record: dict) -> DynInst:
    dyn = DynInst(
        seq=record.get("seq", 0),
        pc=record.get("pc", 0),
        op=MNEMONICS[record["op"]],
        dest=reg(record["dest"]) if "dest" in record else None,
        srcs=tuple(reg(s) for s in record.get("srcs", ())),
        imm=record.get("imm"),
    )
    dyn.taken = record.get("taken", False)
    dyn.target = record.get("target")
    dyn.next_pc = record.get("next_pc", dyn.pc + 1)
    dyn.mem_addr = record.get("mem_addr")
    dyn.store_value = record.get("store_value")
    dyn.result = record.get("result")
    dyn.src_values = tuple(record.get("src_values", ()))
    dyn.faults = record.get("faults", False)
    dyn.hint_dest_single_use = record.get("h_dest", False)
    if "h_srcs" in record:
        dyn.hint_src_single_use = tuple(bool(h) for h in record["h_srcs"])
    dyn.hint_reuse_depth = record.get("h_depth", 0)
    return dyn


def save_trace(insts: Iterable[DynInst], handle: IO[str]) -> int:
    """Write a trace as JSON lines; returns the instruction count."""
    count = 0
    for dyn in insts:
        handle.write(json.dumps(_encode(dyn), separators=(",", ":")))
        handle.write("\n")
        count += 1
    return count


def load_trace(handle: IO[str]) -> Iterator[DynInst]:
    """Stream a trace back as DynInst objects."""
    for line in handle:
        line = line.strip()
        if line:
            yield _decode(json.loads(line))
