"""Fingerprints for generated kernels.

The fingerprint names a config's entry in the kernel memo: a hash of
:meth:`MachineConfig.canonical_json` (which includes the scheme), so a
repeat load of the same config skips source generation.  It does not
name the compiled code: configs whose generated sources are identical
share one kernel (:mod:`repro.codegen.cache` keys compiles by the
source's digest).  Kernels live only in the process that compiled them,
so the key need not track the simulator source.
"""

from __future__ import annotations

import hashlib


def kernel_fingerprint(config) -> str:
    """Stable hex key of ``config``'s entry in the kernel memo.

    Memoised on the config instance (``MachineConfig`` is frozen — edits
    go through ``dataclasses.replace``, which builds a new instance): the
    sampling engine constructs one short-lived window
    processor per measured window, and recomputing the JSON + SHA-256 per
    ``run()`` call was a measurable slice of sampled wall time.  Same
    pattern as :meth:`MachineConfig.canonical_json`.
    """
    cached = getattr(config, "_kernel_fp", None)
    if cached is not None:
        return cached
    key = hashlib.sha256(
        config.canonical_json().encode("utf-8")).hexdigest()[:24]
    object.__setattr__(config, "_kernel_fp", key)
    return key
