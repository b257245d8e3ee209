#!/usr/bin/env python
"""CI smoke test for the read-port-reduction schemes.

For both port schemes (``bypass_filter``, ``banked_arbiter``) on two
benchmark profiles, runs the same workload through the generated kernel
and the naive loop and asserts

* bit-identity: SimStats, renamer stats, architectural state and the
  committed-instruction stream agree across both loops (and the kernel
  actually engaged — ``loop_used == "generated"``),
* the commit-time oracle accepts a verified run of the same point
  (``simulate(..., oracle=True)`` matches the unverified stats),
* the scheme is actually exercising its machinery: the port counters
  (``rf_port_reads`` plus ``rf_bypass_reads`` or ``rf_delay_cycles``)
  are non-zero.

Writes a JSON artifact for CI upload; exits non-zero with a diagnostic
on violation.
"""

import dataclasses
import json
import pathlib
import sys

try:
    import repro  # noqa: F401  (installed package)
except ImportError:  # fall back to a source checkout
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

PORT_SCHEMES = ("bypass_filter", "banked_arbiter")
PROFILES = ("hmmer", "milc")  # one integer-heavy, one fp-heavy
INSTS = 8_000
SEED = 1
SIZE = 64


def _stream(profile_name):
    from repro.workloads import BENCHMARKS
    from repro.workloads.generator import SyntheticWorkload

    return iter(list(SyntheticWorkload(BENCHMARKS[profile_name],
                                       total_insts=INSTS, seed=SEED)))


def _run(config, profile_name, loop):
    from repro.pipeline.processor import IterSource, Processor

    commits = []
    proc = Processor(config, IterSource(_stream(profile_name)),
                     naive_loop=(loop == "naive"),
                     on_commit=lambda _p, d: commits.append(
                         (d.seq, d.pc, d.op, d.result)))
    proc.run()
    return proc, commits


def _snapshot(proc):
    return {
        "stats": dataclasses.asdict(proc.stats),
        "renamer": dataclasses.asdict(proc.renamer.stats),
        "arch": proc.architectural_state(),
    }


def main() -> int:
    out_path = pathlib.Path(sys.argv[1] if len(sys.argv) > 1
                            else "ports-smoke.json")

    from repro.harness.runner import make_config
    from repro.pipeline.processor import simulate
    from repro.workloads import BENCHMARKS

    report = {"insts": INSTS, "seed": SEED, "size": SIZE, "points": {}}

    for port_scheme in PORT_SCHEMES:
        for profile_name in PROFILES:
            label = f"{profile_name}/{port_scheme}"
            profile = BENCHMARKS[profile_name]
            config = make_config(profile, "conventional", SIZE,
                                 port_scheme=port_scheme)

            gen_proc, gen_commits = _run(config, profile_name,
                                         "generated")
            if gen_proc.loop_used != "generated":
                print(f"FAIL: {label}: kernel did not engage "
                      f"(loop_used={gen_proc.loop_used!r})")
                return 1
            nv_proc, nv_commits = _run(config, profile_name, "naive")

            gen_snap, nv_snap = _snapshot(gen_proc), _snapshot(nv_proc)
            if gen_snap != nv_snap:
                diverged = [k for k in gen_snap
                            if gen_snap[k] != nv_snap[k]]
                print(f"FAIL: {label}: generated kernel diverged "
                      f"from the naive loop in {diverged}")
                return 1
            if gen_commits != nv_commits:
                print(f"FAIL: {label}: commit stream diverged from "
                      f"the naive loop")
                return 1

            # commit-time oracle on the identical point
            oracle_stats = simulate(config, _stream(profile_name),
                                    oracle=True)
            if oracle_stats.to_dict() != dataclasses.asdict(
                    gen_proc.stats):
                print(f"FAIL: {label}: oracle-checked run disagrees "
                      f"with the kernel run")
                return 1

            stats = gen_proc.stats
            exercised = stats.rf_port_reads > 0 and (
                stats.rf_bypass_reads > 0
                if port_scheme == "bypass_filter"
                else stats.rf_delay_cycles > 0
                or stats.rf_port_stalls > 0)
            if not exercised:
                print(f"FAIL: {label}: port counters are zero — the "
                      f"scheme never engaged "
                      f"(reads={stats.rf_port_reads}, "
                      f"bypass={stats.rf_bypass_reads}, "
                      f"delay={stats.rf_delay_cycles})")
                return 1

            report["points"][label] = {
                "identical": True,
                "oracle_verified": True,
                "commits": len(gen_commits),
                "cycles": stats.cycles,
                "ipc": round(stats.ipc, 4),
                "int_regs": config.int_regs,
                "fp_regs": config.fp_regs,
                "rf_port_stalls": stats.rf_port_stalls,
                "rf_port_reads": stats.rf_port_reads,
                "rf_bypass_reads": stats.rf_bypass_reads,
                "rf_delayed_reads": stats.rf_delayed_reads,
                "rf_delay_cycles": stats.rf_delay_cycles,
            }
            print(f"ok: {label:24s} identical + oracle over "
                  f"{len(gen_commits)} commits / {stats.cycles} cycles "
                  f"(stalls={stats.rf_port_stalls}, "
                  f"reads={stats.rf_port_reads})")

    out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
