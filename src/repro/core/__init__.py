"""The paper's contribution: register renaming with physical register sharing.

This package implements both renaming schemes evaluated in the paper:

* :class:`~repro.core.conventional.ConventionalRenamer` — the baseline
  merged-register-file scheme: every renamed destination allocates a fresh
  physical register, released when the redefining instruction commits.
* :class:`~repro.core.sharing.SharingRenamer` — the proposed scheme:
  a Physical Register Table (PRT) with a *Read bit* and an N-bit version
  counter per physical register, a multi-bank register file whose banks
  carry 0/1/2/3 shadow cells, a PC-indexed register-type predictor, and
  repair micro-ops for single-use mispredictions.

Both derive from one base (:class:`~repro.core.renamer.BaseRenamer`), which
holds the per-class domains and the register-file value access every scheme
shares, so the processor is scheme-agnostic.  The Section VII comparators
build on them: :class:`~repro.core.early_release.EarlyReleaseRenamer`
extends the conventional scheme and
:class:`~repro.core.hinted.HintedSharingRenamer` the sharing one.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "BankedFreeList": ".free_list",
    "MapTable": ".map_table",
    "PhysicalRegisterTable": ".prt",
    "BankedRegisterFile": ".register_file",
    "RegisterFileConfig": ".register_file",
    "RegisterTypePredictor": ".type_predictor",
    "BaseRenamer": ".renamer",
    "RenameStats": "repro.pipeline.stats",
    "Tag": ".renamer",
    "ConventionalRenamer": ".conventional",
    "SharingRenamer": ".sharing",
})

__all__ = [
    "BankedFreeList",
    "MapTable",
    "PhysicalRegisterTable",
    "BankedRegisterFile",
    "RegisterFileConfig",
    "RegisterTypePredictor",
    "BaseRenamer",
    "RenameStats",
    "Tag",
    "ConventionalRenamer",
    "SharingRenamer",
]
