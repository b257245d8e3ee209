#!/usr/bin/env python
"""CI smoke test for the code-generated cycle kernels.

For every rename scheme the generator supports, runs the same workload
through the generated kernel and the naive reference loop
(``naive_loop=True``) — in the default configuration, with operand
verification on, and with a 48-register integer file (register
pressure) — and asserts

* the kernel actually engaged (``loop_used == "generated"`` — a silent
  fallback to the naive loop would make the bit-identity check
  vacuous),
* bit-identity: SimStats, renamer stats, architectural state and the
  committed-instruction stream are identical across both loops,
* the kernel pays for itself: the sharing scheme's generated kernel
  must run at least ``SPEEDUP_FLOOR``x faster than the naive loop,
  measured in-process in the same run (so machine speed cancels out).

Writes a JSON artifact (per-scheme throughput, speedups, kernel
fingerprints) for CI upload; exits non-zero with a diagnostic on
violation.
"""

import dataclasses
import json
import os
import pathlib
import sys
import tempfile
import time

try:
    import repro  # noqa: F401  (installed package)
except ImportError:  # fall back to a source checkout
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

SCHEMES = ("conventional", "sharing", "early", "hinted")
INSTS = 16_000
SEED = 1
PROFILE = "mcf"  # pointer-chasing profile with the widest kernel/naive gap
REPS = 3
SPEEDUP_FLOOR = 2.4  # sharing kernel vs naive loop, same process
#: identity-pass variants: label -> MachineConfig overrides
VARIANTS = {
    "default": {},
    "verify": {"verify_values": True},
    "48-regs": {"int_regs": 48},
}


def _stream():
    from repro.workloads import BENCHMARKS
    from repro.workloads.generator import SyntheticWorkload

    return iter(list(SyntheticWorkload(BENCHMARKS[PROFILE],
                                       total_insts=INSTS, seed=SEED)))


def _run(config, naive_loop, collect_commits=True):
    from repro.pipeline.processor import IterSource, Processor

    commits = []
    hook = ((lambda _p, d: commits.append((d.seq, d.pc, d.op, d.result)))
            if collect_commits else None)
    proc = Processor(config, IterSource(_stream()), naive_loop=naive_loop,
                     on_commit=hook)
    start = time.perf_counter()
    proc.run()
    wall = time.perf_counter() - start
    return proc, commits, wall


def _snapshot(proc):
    return {
        "stats": dataclasses.asdict(proc.stats),
        "renamer": dataclasses.asdict(proc.renamer.stats),
        "arch": proc.architectural_state(),
        "cycles": proc.stats.cycles,
    }


def main() -> int:
    out_path = pathlib.Path(sys.argv[1] if len(sys.argv) > 1
                            else "kernel-smoke.json")

    with tempfile.TemporaryDirectory(prefix="repro-kernel-smoke-") as tmp:
        os.environ["REPRO_KERNEL_DIR"] = str(pathlib.Path(tmp) / "kernels")
        from repro.codegen import kernel_fingerprint
        from repro.pipeline.config import MachineConfig

        report = {"insts": INSTS, "profile": PROFILE, "seed": SEED,
                  "speedup_floor": SPEEDUP_FLOOR, "schemes": {}}

        for scheme in SCHEMES:
            identical = {}
            for label, overrides in VARIANTS.items():
                config = MachineConfig(scheme=scheme, **{
                    "verify_values": False, **overrides})
                gen_proc, gen_commits, _ = _run(config, naive_loop=False)
                if gen_proc.loop_used != "generated":
                    print(f"FAIL: {scheme}/{label}: kernel did not engage "
                          f"(loop_used={gen_proc.loop_used!r})")
                    return 1
                nv_proc, nv_commits, _ = _run(config, naive_loop=True)

                gen_snap, nv_snap = _snapshot(gen_proc), _snapshot(nv_proc)
                if gen_snap != nv_snap:
                    diverged = [k for k in gen_snap
                                if gen_snap[k] != nv_snap[k]]
                    print(f"FAIL: {scheme}/{label}: generated kernel "
                          f"diverged from the naive loop in {diverged}")
                    return 1
                if gen_commits != nv_commits:
                    print(f"FAIL: {scheme}/{label}: commit streams diverged "
                          f"({len(gen_commits)} vs {len(nv_commits)} "
                          f"commits)")
                    return 1
                identical[label] = {
                    "commits": len(gen_commits),
                    "cycles": gen_snap["cycles"],
                    "cycles_skipped": gen_proc.cycles_skipped,
                }
                print(f"ok: {scheme:12s} {label:8s} identical over "
                      f"{len(gen_commits)} commits / {gen_snap['cycles']} "
                      f"cycles")

            config = MachineConfig(scheme=scheme, verify_values=False)
            # timing pass: no hooks, so the kernel takes its fast-commit
            # path (the configuration `Processor.run` uses by default)
            gen_best = nv_best = float("inf")
            for _ in range(REPS):
                _, _, wall = _run(config, naive_loop=False,
                                  collect_commits=False)
                gen_best = min(gen_best, wall)
                _, _, wall = _run(config, naive_loop=True,
                                  collect_commits=False)
                nv_best = min(nv_best, wall)
            speedup = nv_best / gen_best

            report["schemes"][scheme] = {
                "identical": identical,
                "kernel": kernel_fingerprint(config),
                "generated_insts_per_sec": round(INSTS / gen_best, 1),
                "naive_insts_per_sec": round(INSTS / nv_best, 1),
                "speedup": round(speedup, 2),
            }
            print(f"ok: {scheme:12s} kernel {speedup:.2f}x naive loop")

        sharing = report["schemes"]["sharing"]["speedup"]
        if sharing < SPEEDUP_FLOOR:
            print(f"FAIL: sharing kernel speedup {sharing:.2f}x is below "
                  f"the floor {SPEEDUP_FLOOR:.1f}x: the generated kernel "
                  f"no longer pays for itself")
            return 1
        print(f"ok: sharing kernel speedup {sharing:.2f}x >= "
              f"floor {SPEEDUP_FLOOR:.1f}x")

    out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
