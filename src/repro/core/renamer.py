"""The shared base of every renaming scheme.

The pipeline is scheme-agnostic: it talks to a :class:`BaseRenamer` for
renaming, commit-time release, precise-state recovery and register-file
value access.  Rename tags are ``(register class, physical register id,
version)``; the conventional scheme always uses version 0.

The base is more than an interface: it owns the per-class domains (each
with a register file ``rf``, a retirement map ``retire_map`` and its
``num_logical`` count) and implements, once for every scheme, the
register-file value access and the committed-state queries that read
them.
"""

from __future__ import annotations

from typing import Callable, Union

from repro.isa.dyninst import DynInst
from repro.isa.registers import RegClass, RegRef
from repro.pipeline.stats import RenameStats

#: Global rename tag: (register class value, physical register id, version).
Tag = tuple[int, int, int]

Value = Union[int, float]

#: Scoreboard readiness callback provided by the pipeline.
ReadyFn = Callable[[Tag], bool]


class BaseRenamer:
    """Base class of all renaming schemes."""

    def __init__(self, int_domain, fp_domain) -> None:
        self.domains = {RegClass.INT: int_domain, RegClass.FP: fp_domain}
        #: domains indexed by RegClass.value (avoids the enum-hash dict
        #: lookup on the write/read hot path)
        self._domains_by_value = (int_domain, fp_domain)
        self.stats = RenameStats()

    #: set by schemes that need per-operand read notifications (the
    #: early-release comparator tracks pending reads)
    tracks_operand_reads = False

    #: cleared by schemes that may release a destination register before
    #: its redefining instruction commits: the value standing in the
    #: physical register file at commit time is then not guaranteed to be
    #: the committed value, and commit-time value oracles must skip it
    commit_time_value_stable = True

    def on_operand_read(self, tag: Tag) -> None:
        """Pipeline hook: a consumer read this operand at issue."""

    # --- capacity ------------------------------------------------------------
    def uops_needed(self, dyn: DynInst, is_ready: ReadyFn) -> int:
        """Repair micro-ops that renaming ``dyn`` would inject (0 if none)."""
        return 0

    def can_rename(self, dyn: DynInst) -> bool:
        """True when ``dyn`` can be renamed now (registers available/reusable)."""
        raise NotImplementedError

    # --- the rename itself -----------------------------------------------------
    def rename(self, dyn: DynInst, is_ready: ReadyFn) -> list[DynInst]:
        """Rename ``dyn``; returns injected repair micro-ops followed by ``dyn``."""
        raise NotImplementedError

    # --- commit / recovery -------------------------------------------------------
    def commit(self, dyn: DynInst) -> None:
        """Retirement-map update and physical register release."""
        raise NotImplementedError

    def recover(self) -> int:
        """Squash all speculative rename state; restore precise state.

        Returns the number of map entries that differed (each requires a
        shadow-cell recover command; the pipeline converts this into
        cycles).
        """
        raise NotImplementedError

    def squash_to(self, squashed: list[DynInst]) -> int:
        """Branch-misprediction walk-back: undo the renames of ``squashed``
        (youngest first), restoring the map to the branch's point.

        Returns the number of shadow-cell restores performed (reused
        registers rolled back a version); the pipeline converts this into
        recovery cycles.  Schemes that cannot roll back raise.
        """
        raise NotImplementedError(f"{type(self).__name__} cannot walk back")

    # --- register file values ------------------------------------------------------
    def write(self, tag: Tag, value: Value) -> None:
        self._domains_by_value[tag[0]].rf.write(tag[1], tag[2], value)

    def read(self, tag: Tag) -> Value:
        return self._domains_by_value[tag[0]].rf.read(tag[1], tag[2])

    # --- sampling warmup handoff ------------------------------------------------------
    def export_predictor_state(self) -> dict:
        """Snapshot of the PC-indexed predictor tables that carry history
        across sampling windows (the register-type and single-use
        predictors).  The sampling engine hands this state from one
        detailed window's renamer to the next so predictor training
        survives functional fast-forward.  Schemes without such
        predictors return ``{}``.
        """
        return {}

    def import_predictor_state(self, state: dict) -> None:
        """Inverse of :meth:`export_predictor_state`.

        Unknown or mismatched entries are ignored — importing a foreign
        scheme's state is a no-op, never an error.
        """

    # --- setup / introspection --------------------------------------------------------
    def initial_tags(self) -> list[tuple[Tag, Value]]:
        """Initial (tag, value) pairs for the committed architectural state."""
        pairs: list[tuple[Tag, Value]] = []
        for cls, domain in self.domains.items():
            zero: Value = 0 if cls is RegClass.INT else 0.0
            for logical in range(domain.num_logical):
                phys, version = domain.retire_map.get(logical)
                pairs.append(((cls.value, phys, version), zero))
        return pairs

    def committed_tag(self, ref: RegRef) -> Tag:
        """Retirement-map tag of a logical register (for state verification)."""
        return (ref.cls.value, *self.domains[ref.cls].retire_map.get(ref.idx))

    def free_registers(self, cls: RegClass) -> int:
        raise NotImplementedError

    def live_version_histogram(self) -> dict[int, int]:
        """Histogram: versions-live-per-register -> count (Figure 9 sampling)."""
        return {}

    # --- fault injection ------------------------------------------------------
    def fault_targets(self) -> dict[str, list[Tag]]:
        """Classified storage cells for the fault-injection campaign.

        Returns ``{"live": [...], "shadow": [...], "free": [...]}`` where
        each entry is a rename tag:

        * ``live`` — cells a correct execution may still read: referenced
          by the rename or retirement map, or the current PRT version
          (an in-flight destination).  Flipping one must be *detected*
          (operand verify, oracle, or final-state check) unless the value
          is dead by luck (overwritten/released before any further read).
        * ``shadow`` — older versions held only in shadow cells, no longer
          referenced by either map.  With no squash able to roll back to
          them, flips must be masked; a surviving in-flight consumer tag
          turns the flip into a detected operand mismatch instead.
        * ``free`` — registers on the free list (no stored value; version
          0 placeholder).  The injector plants garbage there; allocation
          or writeback must overwrite it before any consumer reads.

        Schemes without classified storage return empty lists.
        """
        return {"live": [], "shadow": [], "free": []}
