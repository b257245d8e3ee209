"""Cross-structure invariant checking.

``check_invariants(processor)`` asserts the consistency conditions that
hold between the renamer, the free lists, the scoreboard and the queues at
any cycle boundary.  Tests call it directly; long simulations can attach
it via the ``on_cycle`` hook to catch state corruption the moment it
happens rather than thousands of cycles later.
"""

from __future__ import annotations

from repro.core.conventional import ConventionalRenamer
from repro.core.early_release import EarlyReleaseRenamer
from repro.core.sharing import SharingRenamer
from repro.pipeline.config import IQ_SIZE


class InvariantViolation(AssertionError):
    """A cross-structure consistency condition failed."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvariantViolation(message)


def check_sharing_renamer(renamer: SharingRenamer) -> None:
    """Invariants internal to the sharing renamer."""
    for cls, domain in renamer.domains.items():
        free = set()
        for bank in range(domain.config.num_banks):
            for phys in domain.config.bank_range(bank):
                if domain.free.contains(phys):
                    free.add(phys)

        # 1. every rename-map target is live (not on a free list) and its
        #    version does not exceed the PRT's current version
        for logical, tag in enumerate(domain.map.entries):
            _require(tag is not None, f"{cls}: unmapped logical {logical}")
            phys, version = tag
            _require(phys not in free,
                     f"{cls}: rename map x{logical} -> freed p{phys}")
            _require(version <= domain.prt[phys].version,
                     f"{cls}: map version {version} above PRT "
                     f"{domain.prt[phys].version} for p{phys}")

        # 2. retirement-map targets are live and refcounts match
        refcount = [0] * domain.config.total_regs
        for logical, tag in enumerate(domain.retire_map.entries):
            _require(tag is not None, f"{cls}: unretired logical {logical}")
            _require(tag[0] not in free,
                     f"{cls}: retirement map -> freed p{tag[0]}")
            refcount[tag[0]] += 1
        for phys, expected in enumerate(refcount):
            _require(domain.refcount[phys] == expected,
                     f"{cls}: refcount[{phys}]={domain.refcount[phys]} "
                     f"expected {expected}")

        # 3. PRT versions stay within counter and bank-capacity bounds
        for phys in range(domain.config.total_regs):
            entry = domain.prt[phys]
            _require(0 <= entry.version <= domain.prt.max_version,
                     f"{cls}: PRT version out of range for p{phys}")
            if phys not in free:
                capacity = domain.config.shadow_cells_of(phys)
                _require(entry.version <= capacity,
                         f"{cls}: p{phys} version {entry.version} exceeds "
                         f"shadow capacity {capacity}")


def _check_free_list_and_rename_map(cls, domain) -> set:
    """Checks shared by the flat-file renamers: no register is on the free
    list twice and no rename-map entry points at a free register.
    Returns the free set."""
    free = set(domain.free)
    _require(len(free) == len(domain.free),
             f"{cls}: duplicate entries in free list")
    for logical, tag in enumerate(domain.map.entries):
        _require(tag is not None, f"{cls}: unmapped logical {logical}")
        _require(tag[0] not in free,
                 f"{cls}: rename map x{logical} -> freed p{tag[0]}")
    return free


def check_conventional_renamer(renamer: ConventionalRenamer) -> None:
    for cls, domain in renamer.domains.items():
        free = _check_free_list_and_rename_map(cls, domain)
        for logical, tag in enumerate(domain.retire_map.entries):
            _require(tag is not None and tag[0] not in free,
                     f"{cls}: retirement map x{logical} -> freed register")


def check_early_renamer(renamer: EarlyReleaseRenamer) -> None:
    """Invariants internal to the early-release renamer.

    Note the *retirement* map is deliberately unchecked against the free
    list: releasing registers the committed state still references is the
    scheme's defining (and precision-breaking) behaviour.
    """
    for cls, domain in renamer.domains.items():
        free = _check_free_list_and_rename_map(cls, domain)
        for phys, state in enumerate(domain.state):
            if state.released:
                _require(phys in free,
                         f"{cls}: p{phys} marked released but not free")
            elif phys in free:
                # only never-yet-allocated spares may sit on the free list
                # without the released flag
                _require(state.generation == 0 and not state.produced,
                         f"{cls}: allocated p{phys} free without release")
            _require(state.pending_reads >= 0,
                     f"{cls}: negative pending reads on p{phys}")
            _require(not (state.released and state.pending_reads > 0),
                     f"{cls}: p{phys} released with "
                     f"{state.pending_reads} reads pending")


def check_invariants(processor) -> None:
    """Full cross-structure check; raises InvariantViolation on failure."""
    renamer = processor.renamer
    if isinstance(renamer, SharingRenamer):
        check_sharing_renamer(renamer)
    elif isinstance(renamer, EarlyReleaseRenamer):
        # before the conventional check: early release subclasses it but
        # may free registers its retirement map still references
        check_early_renamer(renamer)
    elif isinstance(renamer, ConventionalRenamer):
        check_conventional_renamer(renamer)

    # queue occupancy within bounds
    _require(0 <= len(processor.rob) <= processor.config.rob_size,
             "ROB occupancy out of bounds")
    _require(0 <= len(processor.iq) <= IQ_SIZE,
             "IQ occupancy out of bounds")

    # every in-flight (non-squashed) instruction's source tags that are
    # marked ready must be readable from the register file
    for dyn in processor.rob:
        if dyn.squashed:
            continue
        for tag in dyn.src_tags:
            if processor.scoreboard.get(tag, False) and tag[1] >= 0:
                try:
                    renamer.read(tag)
                except AssertionError as exc:  # pragma: no cover - message path
                    raise InvariantViolation(
                        f"ready tag {tag} unreadable for {dyn}: {exc}"
                    ) from exc
