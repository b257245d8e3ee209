"""Content-addressed fingerprints for generated kernels.

A kernel is valid only for the exact ``(scheme, MachineConfig)`` pair it
was generated from *and* the exact simulator source it inlines, so the
cache key folds together:

* a generator ABI version (bumped when the generated-code shape changes),
* the scheme and the full machine configuration
  (:meth:`MachineConfig.canonical_json`),
* the repo-wide source fingerprint from :func:`harness.cache.code_fingerprint`
  — editing any ``repro`` module invalidates every cached kernel, which is
  deliberately conservative: the generator copies stage semantics from
  several modules and tracking a precise dependency set is not worth the
  risk of a stale kernel silently diverging.
"""

from __future__ import annotations

import hashlib

from repro.codegen.generator import GENERATOR_VERSION


def kernel_fingerprint(config) -> str:
    """Stable hex key identifying the kernel for ``config``.

    Memoised on the config instance (``MachineConfig`` is frozen — edits
    go through ``dataclasses.replace``, which builds a new instance): the
    sampling engine constructs one short-lived window
    processor per measured window, and recomputing ``asdict`` + JSON +
    SHA-256 per ``run()`` call was a measurable slice of sampled wall
    time.  Same pattern as :meth:`MachineConfig.opcode_table`.
    """
    cached = getattr(config, "_kernel_fp", None)
    if cached is not None:
        return cached
    from repro.harness.cache import code_fingerprint, payload_json

    blob = payload_json({"abi": GENERATOR_VERSION, "scheme": config.scheme,
                         "code": code_fingerprint()},
                        config=config.canonical_json())
    key = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]
    object.__setattr__(config, "_kernel_fp", key)
    return key
