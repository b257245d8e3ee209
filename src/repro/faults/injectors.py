"""Fault injectors: targeted state corruption for a running processor.

Each injector is armed with a fully pre-drawn :class:`InjectionSpec` and
attached to the pipeline's ``on_cycle`` hook (``on_cycle_interval=1``,
so the generated kernel runs every cycle for real and skips none: its
cycle skips stop at the next hook boundary).  An injector fires **once**,
at the first cycle at or after ``trigger_cycle`` where an eligible target
exists; what it corrupted is recorded in ``details`` for the campaign
report.

The PRF flip injectors pick their victim from
:meth:`~repro.core.renamer.BaseRenamer.fault_targets`, which classifies
storage cells into *live* / *shadow* / *free* — the three classes carry
different expected outcomes (see docs/RESILIENCE.md).  Values are poked
straight into the domain's :class:`~repro.core.register_file.BankedRegisterFile`
rather than through ``renamer.write``: the early-release scheme's ``write``
has release side effects (pending-read bookkeeping) a particle strike must
not trigger.
"""

from __future__ import annotations

import struct
from dataclasses import asdict, dataclass
from typing import Optional

#: Every injection kind the campaign can draw.
KINDS = (
    "flip_live",
    "flip_shadow",
    "flip_free",
    "prt_version",
    "prt_read_bit",
    "squash_storm",
    "interrupt_flood",
)

#: PRF-flip kind -> fault_targets() class.
_TARGET_CLASS = {
    "flip_live": "live",
    "flip_shadow": "shadow",
    "flip_free": "free",
}

_MASK64 = (1 << 64) - 1

#: garbage planted into free registers that hold no stored cell (the
#: pattern is arbitrary; the flip bit is XORed in so distinct specs plant
#: distinct values)
_GARBAGE = 0x5EED_FA11_DEAD_BEEF


def flip_int(value: int, bit: int) -> int:
    """Flip one bit of a 64-bit two's-complement storage image."""
    image = (value & _MASK64) ^ (1 << (bit % 64))
    return image - (1 << 64) if image >= (1 << 63) else image


def flip_float(value: float, bit: int) -> float:
    """Flip one bit of the IEEE-754 double encoding (may yield inf/NaN —
    real upsets do too)."""
    bits = struct.unpack("<Q", struct.pack("<d", value))[0]
    return struct.unpack("<d", struct.pack("<Q", bits ^ (1 << (bit % 64))))[0]


def flip_value(value, bit: int):
    """Single-bit upset of a stored register value (dispatch on type)."""
    if isinstance(value, float):
        return flip_float(value, bit)
    return flip_int(value, bit)


@dataclass
class InjectionSpec:
    """One fully pre-drawn injection (JSON-able, for reproducers).

    Every random decision is made by the campaign *before* the run starts,
    so replaying a spec on the same program is exactly deterministic.
    """

    kind: str
    scheme: str
    program_seed: int
    program_size: int
    trigger_cycle: int
    #: index into the eligible target list (taken modulo its length)
    target_index: int = 0
    #: bit to flip (storage flips: mod 64; PRT version: mod counter bits)
    bit: int = 0
    #: squash storm shape
    flush_count: int = 1
    flush_gap: int = 40
    #: interrupt flood period (``interrupt_flood`` only; becomes the run's
    #: ``MachineConfig.interrupt_interval``)
    interrupt_interval: Optional[int] = None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "InjectionSpec":
        return cls(**raw)


class Injector:
    """Base class: a one-shot on_cycle hook plus an injection record."""

    #: False for injectors realised through configuration (interrupt
    #: flood) rather than an on_cycle hook
    needs_hook = True

    def __init__(self, spec: InjectionSpec) -> None:
        self.spec = spec
        self.fired = 0
        self.details: dict = {}

    @property
    def injected(self) -> bool:
        return self.fired > 0

    def on_cycle(self, processor) -> None:
        raise NotImplementedError


class BitFlipInjector(Injector):
    """Transient single-bit upset of one PRF storage cell.

    ``flip_live`` / ``flip_shadow`` corrupt an existing cell in place;
    ``flip_free`` either corrupts a stale cell left on a free register or
    plants garbage into an unwritten one (version 0 always fits) —
    allocation/writeback must overwrite it before any consumer reads.
    """

    def on_cycle(self, processor) -> None:
        spec = self.spec
        if self.fired or processor.cycle < spec.trigger_cycle:
            return
        targets = processor.renamer.fault_targets()[_TARGET_CLASS[spec.kind]]
        if not targets:
            return  # stay armed: retry next cycle until a target exists
        cls_value, phys, version = targets[spec.target_index % len(targets)]
        domain = processor.renamer._domains_by_value[cls_value]
        if domain.rf.has(phys, version):
            old = domain.rf.read(phys, version)
            new = flip_value(old, spec.bit)
            domain.rf.corrupt(phys, version, new)
            planted = False
        else:  # free register with no stored cell: plant garbage
            old = None
            new = flip_int(_GARBAGE, spec.bit)
            domain.rf.write(phys, version, new)
            planted = True
        self.fired += 1
        self.details = {
            "cycle": processor.cycle,
            "tag": [cls_value, phys, version],
            "old": repr(old),
            "new": repr(new),
            "planted": planted,
        }


class PRTCorruptInjector(Injector):
    """Corrupt one PRT entry: version counter or Read bit (sharing only).

    The version counter flips one of its ``counter_bits`` bits (staying in
    range, as a real counter upset would); the Read bit is inverted.
    """

    def on_cycle(self, processor) -> None:
        spec = self.spec
        if self.fired or processor.cycle < spec.trigger_cycle:
            return
        renamer = processor.renamer
        entries = [
            (cls.value, phys)
            for cls, domain in renamer.domains.items()
            for phys in range(domain.config.total_regs)
        ]
        cls_value, phys = entries[spec.target_index % len(entries)]
        domain = renamer._domains_by_value[cls_value]
        entry = domain.prt[phys]
        if spec.kind == "prt_version":
            new_version = entry.version ^ (1 << (spec.bit % renamer.counter_bits))
            old = domain.prt.corrupt(phys, version=new_version)
        else:  # prt_read_bit
            old = domain.prt.corrupt(phys, read_bit=not entry.read_bit)
        self.fired += 1
        self.details = {
            "cycle": processor.cycle,
            "entry": [cls_value, phys],
            "old": list(old),
            "new": [entry.version, entry.read_bit],
        }


class SquashStormInjector(Injector):
    """Force ``flush_count`` full pipeline flush+recover sequences,
    ``flush_gap`` cycles apart, starting at the trigger cycle.

    Exercises the precise-state recovery path (retirement-map copy, free
    list rebuild, shadow-cell recover commands) at arbitrary — rather than
    exception-chosen — machine states.  Excluded for early release, which
    has no precise state to recover.
    """

    def on_cycle(self, processor) -> None:
        spec = self.spec
        if self.fired >= spec.flush_count:
            return
        due = spec.trigger_cycle + self.fired * spec.flush_gap
        if processor.cycle < due:
            return
        penalty = processor.inject_flush()
        self.fired += 1
        self.details.setdefault("flushes", []).append(
            {"cycle": processor.cycle, "penalty": penalty})


class InterruptFloodInjector(Injector):
    """Periodic interrupts at commit boundaries, far denser than any real
    timer.  Realised through ``MachineConfig.interrupt_interval`` (the
    pipeline's own interrupt machinery), not an on_cycle hook; the
    campaign reads ``stats.interrupts`` after the run to confirm the flood
    actually fired.
    """

    needs_hook = False

    def on_cycle(self, processor) -> None:  # pragma: no cover - never hooked
        pass

    def record_stats(self, stats) -> None:
        self.fired = stats.interrupts
        self.details = {"interrupts": stats.interrupts,
                        "interval": self.spec.interrupt_interval}


_INJECTORS = {
    "flip_live": BitFlipInjector,
    "flip_shadow": BitFlipInjector,
    "flip_free": BitFlipInjector,
    "prt_version": PRTCorruptInjector,
    "prt_read_bit": PRTCorruptInjector,
    "squash_storm": SquashStormInjector,
    "interrupt_flood": InterruptFloodInjector,
}


def make_injector(spec: InjectionSpec) -> Injector:
    try:
        return _INJECTORS[spec.kind](spec)
    except KeyError:
        raise ValueError(f"unknown injection kind {spec.kind!r}") from None
