#!/usr/bin/env python
"""CI smoke test for the fault-injection campaign + resilient sweep fleet.

Two independent gates:

* **Campaign gate** — a seeded 200-injection campaign across the
  conventional, sharing and early-release schemes must classify every
  injection, land every outcome inside its kind's expected set, and
  report zero silent data corruption (an injection that completes with a
  commit stream differing from the fault-free reference).

* **Resume gate** — a sweep against a fresh result cache is started in a
  child process and SIGKILLed mid-flight; re-running with the same cache
  must re-simulate only the points the cache does not hold, serve the
  rest as cache hits, and be bit-identical to an uninterrupted serial
  run.

Writes a JSON artifact (outcome counts, resume accounting) for CI upload;
exits non-zero with a diagnostic on violation.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import time

try:
    import repro  # noqa: F401  (installed package)
except ImportError:  # fall back to a source checkout
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

INJECTIONS = 200
CAMPAIGN_SEED = 0

#: sweep grid for the SIGKILL/resume gate — big enough that the child is
#: reliably mid-flight when killed, small enough to finish quickly
RESUME_POINTS = 6
RESUME_INSTS = 8_000

_CHILD_SCRIPT = """\
import sys
sys.path.insert(0, {src!r})
from repro.harness.cache import ResultCache
from repro.harness.parallel import SweepPoint, run_points
from repro.workloads.profiles import BENCHMARKS

points = [SweepPoint(profile=BENCHMARKS["gsm"], scheme="conventional",
                     size=48, insts={insts}, seed=seed + 1)
          for seed in range({count})]
run_points(points, jobs=1, cache=ResultCache({root!r}))
"""


def run_campaign_gate(artifact: dict) -> int:
    from repro.faults import run_campaign

    started = time.monotonic()
    report = run_campaign(injections=INJECTIONS, seed=CAMPAIGN_SEED)
    elapsed = time.monotonic() - started

    if report.classified != INJECTIONS:
        print(f"FAIL: {report.classified}/{INJECTIONS} injections classified")
        return 1
    if report.total("silent"):
        print(f"FAIL: {report.total('silent')} silent-data-corruption "
              f"outcome(s) — the checkers let corrupted state commit")
        return 1
    if report.total("error"):
        print(f"FAIL: {report.total('error')} injection(s) crashed the "
              f"harness outside any checker")
        return 1
    if not report.clean:
        print(f"FAIL: {len(report.unexpected)} injection(s) outside their "
              f"expected outcome set "
              f"({len(report.reproducers)} shrunk reproducer(s)):")
        for raw in report.unexpected[:5]:
            print(f"  {raw['spec']['kind']}/{raw['spec']['scheme']} "
                  f"-> {raw['outcome']}")
        return 1

    artifact["campaign"] = {
        "seed": CAMPAIGN_SEED,
        "injections": INJECTIONS,
        "seconds": round(elapsed, 2),
        "counts": report.counts,
        "clean": report.clean,
    }
    for line in report.summary_lines():
        print(line)
    return 0


def run_resume_gate(tmp: pathlib.Path, artifact: dict) -> int:
    from repro.harness import parallel
    from repro.harness.cache import ResultCache
    from repro.harness.parallel import SweepPoint, run_points
    from repro.workloads.profiles import BENCHMARKS

    root = tmp / "results"
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    script = _CHILD_SCRIPT.format(src=src, insts=RESUME_INSTS,
                                  count=RESUME_POINTS, root=str(root))
    env = dict(os.environ)
    child = subprocess.Popen([sys.executable, "-c", script], env=env,
                             stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL)

    # wait until the child has cached some — but not all — points, then
    # SIGKILL it mid-sweep (no cleanup, no atexit, nothing)
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        if 0 < len(ResultCache(root)) < RESUME_POINTS:
            break
        if child.poll() is not None:
            break
        time.sleep(0.02)
    if child.poll() is None:
        child.send_signal(signal.SIGKILL)
        child.wait()

    stored = len(ResultCache(root))
    if not 0 < stored < RESUME_POINTS:
        print(f"FAIL: could not interrupt the child mid-sweep "
              f"({stored}/{RESUME_POINTS} points cached — "
              f"tune RESUME_INSTS)")
        return 1

    points = [SweepPoint(profile=BENCHMARKS["gsm"], scheme="conventional",
                         size=48, insts=RESUME_INSTS, seed=seed + 1)
              for seed in range(RESUME_POINTS)]

    simulated = []
    original = parallel._POINT_RUNNER

    def counting(point):
        simulated.append(point.seed)
        return original(point)

    parallel._POINT_RUNNER = counting
    try:
        resumed = run_points(points, jobs=1, cache=ResultCache(root))
    finally:
        parallel._POINT_RUNNER = original

    if len(simulated) != RESUME_POINTS - stored:
        print(f"FAIL: resume re-simulated {len(simulated)} point(s), "
              f"expected {RESUME_POINTS - stored} "
              f"({stored} already cached)")
        return 1
    served = sum(1 for r in resumed if r.cached and r.attempts == 0)
    if served != stored:
        print(f"FAIL: resume served {served} point(s) from the cache, "
              f"expected {stored}")
        return 1

    # the resumed sweep must be bit-identical to an uninterrupted run
    baseline = run_points(points, jobs=1)
    for b, r in zip(baseline, resumed):
        if not (b.ok and r.ok) or b.stats.to_dict() != r.stats.to_dict():
            print(f"FAIL: {r.point.label()}: resumed result diverges from "
                  f"the uninterrupted run")
            return 1

    artifact["resume"] = {
        "points": RESUME_POINTS,
        "cached_at_kill": stored,
        "resimulated": len(simulated),
        "bit_identical": True,
    }
    print(f"resume gate OK: child SIGKILLed with {stored}/{RESUME_POINTS} "
          f"points cached; resume re-simulated exactly "
          f"{len(simulated)} and matched the uninterrupted run bit-for-bit")
    return 0


def main() -> int:
    out_path = pathlib.Path(sys.argv[1] if len(sys.argv) > 1
                            else "faults-smoke.json")
    artifact: dict = {}
    with tempfile.TemporaryDirectory(prefix="repro-faults-smoke-") as tmp:
        tmp = pathlib.Path(tmp)
        os.environ["REPRO_TRACE_DIR"] = str(tmp / "traces")
        status = run_campaign_gate(artifact)
        if status:
            return status
        status = run_resume_gate(tmp, artifact)
        if status:
            return status
    out_path.write_text(json.dumps(artifact, indent=2) + "\n")
    print(f"faults smoke OK: {INJECTIONS} injections clean, SIGKILL resume "
          f"exact; artifact at {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
