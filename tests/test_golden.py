"""Golden regression pins.

Exact, deterministic end-to-end outcomes for fixed seeds and
configurations.  These are intentionally brittle: any change to the
pipeline's timing, the renaming schemes' decisions or the workload
generator shifts them, which is exactly what a simulator regression suite
is for.  When a change is *intended*, regenerate with:

    python tests/test_golden.py regen
"""

import json
import pathlib
import sys

import pytest

from repro import MachineConfig
from repro.pipeline.processor import simulate
from repro.workloads import BENCHMARKS, SyntheticWorkload
from repro.workloads.microbench import build

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_stats.json"

CASES = {
    "hmmer_sharing_64": dict(kind="trace", name="hmmer", scheme="sharing",
                             insts=4000, int_regs=64, fp_regs=64),
    "hmmer_conventional_64": dict(kind="trace", name="hmmer",
                                  scheme="conventional", insts=4000,
                                  int_regs=64, fp_regs=64),
    "bwaves_sharing_48": dict(kind="trace", name="bwaves", scheme="sharing",
                              insts=4000, int_regs=128, fp_regs=48),
    "chain_ladder_sharing": dict(kind="micro", name="chain_ladder",
                                 scheme="sharing", int_regs=48, fp_regs=48),
    "gobmk_wrongpath": dict(kind="trace", name="gobmk", scheme="sharing",
                            insts=3000, int_regs=64, fp_regs=64,
                            model_wrong_path=True),
}


def run_case(spec: dict) -> dict:
    spec = dict(spec)
    kind = spec.pop("kind")
    name = spec.pop("name")
    insts = spec.pop("insts", None)
    config = MachineConfig(verify_values=False, **spec)
    if kind == "trace":
        workload = iter(SyntheticWorkload(BENCHMARKS[name], total_insts=insts))
        stats = simulate(config, workload)
    else:
        stats = simulate(config, build(name), program_budget=2_000_000)
    renamer = stats.renamer_stats
    return {
        "cycles": stats.cycles,
        "committed": stats.committed,
        "committed_uops": stats.committed_uops,
        "reuses": renamer.reuses,
        "allocations": renamer.allocations,
        "repairs": renamer.repairs,
        "mispredicted": stats.branch_stats.mispredicted,
        "wrong_path_squashed": stats.wrong_path_squashed,
    }


def regenerate() -> None:
    golden = {case: run_case(spec) for case, spec in CASES.items()}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True))
    print(f"wrote {GOLDEN_PATH}")


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden(case):
    assert GOLDEN_PATH.exists(), (
        f"{GOLDEN_PATH.name} is missing; regenerate it with `make golden`")
    golden = json.loads(GOLDEN_PATH.read_text())
    assert case in golden, (
        f"golden pin missing for {case!r}; regenerate with `make golden`")
    actual = run_case(CASES[case])
    expected = golden[case]
    if actual != expected:
        drift = "\n".join(
            f"  {key}: expected {expected.get(key)!r}, got {actual.get(key)!r}"
            for key in sorted(set(expected) | set(actual))
            if expected.get(key) != actual.get(key)
        )
        raise AssertionError(
            f"golden drift in {case}:\n{drift}\n"
            "Timing/renaming behaviour changed. If the change is intended, "
            "regenerate the pins with `make golden` and commit the diff; "
            "if not, this is a simulator regression."
        )


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "regen":
        regenerate()
    else:
        print(__doc__)
