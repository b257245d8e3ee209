"""Cycle-level out-of-order pipeline (the gem5-O3 stand-in)."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "MachineConfig": ".config",
    "TABLE_I": ".config",
    "TABLE_III": ".config",
    "rf_config_for": ".config",
    "SimStats": ".stats",
    "Processor": ".processor",
    "simulate": ".processor",
})

__all__ = [
    "MachineConfig",
    "TABLE_I",
    "TABLE_III",
    "rf_config_for",
    "SimStats",
    "Processor",
    "simulate",
]
