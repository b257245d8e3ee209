#!/usr/bin/env python
"""CI smoke test for the code-generated cycle kernels.

For both rename schemes the generator flattens (conventional and
sharing; early and hinted always run the naive loop), times the same
workload on the generated kernel and on the naive reference loop
(``naive_loop=True``) and asserts

* the kernel actually engaged (``loop_used == "generated"``): a silent
  fallback to the naive loop would make the timing meaningless,
* the kernel pays for itself: the sharing scheme's generated kernel
  must run at least ``SPEEDUP_FLOOR``x faster than the naive loop,
  measured in-process in the same run (so machine speed cancels out)
  as best-of-``REPS`` process CPU time (``time.process_time``), which
  other processes on a loaded host do not inflate the way they do
  wall time.

Bit-identity of the two loops is checked by the test suite
(``tests/test_event_loop.py``, ``tests/test_codegen.py``), not here.

Writes a JSON artifact (per-scheme throughput, speedups, each rep's
ratio, kernel fingerprints) for CI upload; exits non-zero with a
diagnostic on violation.
"""

import json
import pathlib
import sys
import time

try:
    import repro  # noqa: F401  (installed package)
except ImportError:  # fall back to a source checkout
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

SCHEMES = ("conventional", "sharing")
INSTS = 16_000
SEED = 1
PROFILE = "mcf"  # pointer-chasing profile with the widest kernel/naive gap
REPS = 5
SPEEDUP_FLOOR = 2.4  # sharing kernel vs naive loop, same process


def _stream():
    from repro.workloads import BENCHMARKS
    from repro.workloads.generator import SyntheticWorkload

    return iter(list(SyntheticWorkload(BENCHMARKS[PROFILE],
                                       total_insts=INSTS, seed=SEED)))


def _run(config, naive_loop):
    """Run without hooks, so the kernel takes its fast-commit path (the
    configuration ``Processor.run`` uses by default)."""
    from repro.pipeline.processor import IterSource, Processor

    proc = Processor(config, IterSource(_stream()), naive_loop=naive_loop)
    start = time.process_time()
    proc.run()
    return proc, time.process_time() - start


def main() -> int:
    out_path = pathlib.Path(sys.argv[1] if len(sys.argv) > 1
                            else "kernel-smoke.json")

    from repro.codegen import kernel_fingerprint
    from repro.pipeline.config import MachineConfig

    report = {"insts": INSTS, "profile": PROFILE, "seed": SEED,
              "speedup_floor": SPEEDUP_FLOOR, "schemes": {}}

    for scheme in SCHEMES:
        config = MachineConfig(scheme=scheme, verify_values=False)
        gen_best = nv_best = float("inf")
        rep_speedups = []
        for _ in range(REPS):
            gen_proc, gen_cpu = _run(config, naive_loop=False)
            if gen_proc.loop_used != "generated":
                print(f"FAIL: {scheme}: kernel did not engage "
                      f"(loop_used={gen_proc.loop_used!r})")
                return 1
            _, nv_cpu = _run(config, naive_loop=True)
            gen_best = min(gen_best, gen_cpu)
            nv_best = min(nv_best, nv_cpu)
            rep_speedups.append(round(nv_cpu / gen_cpu, 2))
        speedup = nv_best / gen_best

        report["schemes"][scheme] = {
            "kernel": kernel_fingerprint(config),
            "generated_insts_per_sec": round(INSTS / gen_best, 1),
            "naive_insts_per_sec": round(INSTS / nv_best, 1),
            "speedup": round(speedup, 2),
            "rep_speedups": rep_speedups,
        }
        print(f"ok: {scheme:12s} kernel {speedup:.2f}x naive loop "
              f"(reps: {', '.join(f'{r:.2f}' for r in rep_speedups)})")

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
