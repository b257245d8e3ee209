"""Pipeline trace rendering: per-instruction stage timeline.

Collect the committed instructions of a
:class:`~repro.pipeline.processor.Processor` run with an ``on_commit`` hook
(``on_commit=lambda _p, dyn: trace.append(dyn)``) and render them as a
classic pipeline diagram — useful for debugging renaming behaviour
(reuses show up as instructions whose destination tag shares a physical
register with an older one).

::

    seq  pc  instruction           F     R     I     W     C    tags
    0    0   movi x1         |F R  I W  C            ...

Stage letters: F fetch, R rename/dispatch, I issue, W writeback
(completion), C commit.
"""

from __future__ import annotations

from typing import Iterable

from repro.isa.dyninst import DynInst

#: columns of a Gantt chart's timeline, and the instructions it shows
GANTT_WIDTH = 72
GANTT_ROWS = 40


def _tag_str(tag) -> str:
    if tag is None:
        return ""
    cls, phys, version = tag
    prefix = "P" if cls == 0 else "Q"
    return f"{prefix}{phys}.{version}"


def trace_table(insts: Iterable[DynInst]) -> str:
    """Stage-cycle table for committed instructions."""
    rows = []
    header = (f"{'seq':>5s} {'pc':>5s} {'instruction':24s} "
              f"{'F':>6s} {'R':>6s} {'I':>6s} {'W':>6s} {'C':>6s}  tags")
    rows.append(header)
    rows.append("-" * len(header))
    for dyn in insts:
        text = str(dyn).split("] ", 1)[-1]
        dest = _tag_str(dyn.dest_tag)
        srcs = ",".join(_tag_str(t) for t in dyn.src_tags)
        tag_info = f"{dest} <- {srcs}" if dest or srcs else ""
        marker = " u" if dyn.micro_op else ("  " if not dyn.mispredicted else " !")
        rows.append(
            f"{dyn.seq:>5d} {dyn.pc:>5d} {text[:24]:24s} "
            f"{dyn.fetch_cycle:>6d} {dyn.rename_cycle:>6d} {dyn.issue_cycle:>6d} "
            f"{dyn.complete_cycle:>6d} {dyn.commit_cycle:>6d}  {tag_info}{marker}"
        )
    return "\n".join(rows)


def trace_gantt(insts: Iterable[DynInst]) -> str:
    """ASCII Gantt chart of the pipeline occupancy of the first
    :data:`GANTT_ROWS` instructions, at most :data:`GANTT_WIDTH` columns
    wide."""
    insts = list(insts)[:GANTT_ROWS]
    if not insts:
        return "(empty trace)"
    start = min(d.fetch_cycle for d in insts if d.fetch_cycle >= 0)
    end = max(d.commit_cycle for d in insts)
    span = max(1, end - start + 1)
    scale = min(1.0, GANTT_WIDTH / span)

    def col(cycle: int) -> int:
        return int((cycle - start) * scale)

    lines = []
    for dyn in insts:
        row = [" "] * (col(end) + 1)
        stages = [
            (dyn.fetch_cycle, "F"),
            (dyn.rename_cycle, "R"),
            (dyn.issue_cycle, "I"),
            (dyn.complete_cycle, "W"),
            (dyn.commit_cycle, "C"),
        ]
        previous = None
        for cycle, letter in stages:
            if cycle < 0:
                continue
            position = col(cycle)
            if previous is not None:
                for fill in range(previous + 1, position):
                    if row[fill] == " ":
                        row[fill] = "-"
            row[position] = letter
            previous = position
        text = str(dyn).split("] ", 1)[-1]
        lines.append(f"{dyn.seq:>4d} {text[:18]:18s} |{''.join(row)}")
    return "\n".join(lines)


def reuse_annotations(insts: Iterable[DynInst]) -> str:
    """Summarise which committed instructions reused a register."""
    lines = []
    for dyn in insts:
        if dyn.reused_src is not None and dyn.dest_tag is not None:
            lines.append(
                f"seq {dyn.seq}: {str(dyn).split('] ')[-1]} reused "
                f"{_tag_str(dyn.dest_tag)} (version {dyn.dest_tag[2]}) "
                f"via source {dyn.reused_src}"
            )
        elif dyn.micro_op:
            lines.append(f"seq {dyn.seq}: repair micro-op -> {_tag_str(dyn.dest_tag)}")
    return "\n".join(lines) if lines else "(no reuses)"
