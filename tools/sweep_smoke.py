#!/usr/bin/env python
"""CI smoke test for the sweep data plane.

Drives a small figure grid through every data-plane configuration and
asserts the determinism contract end to end:

* serial (jobs=1), parallel with the full data plane (binary codec +
  shared-memory broadcast) and parallel with the legacy path (gzip
  JSON-lines, no broadcast) all produce bit-identical per-point stats;
* the shared-memory broadcast actually engages (one segment per distinct
  workload) and leaves nothing behind after the sweep;
* the binary trace cache is populated cold and served warm.

Writes a small bench JSON (decode + grid timings, for the CI artifact)
to the path given as argv[1], if any.  Exits non-zero with a diagnostic
on any violation.
"""

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

import repro.harness.parallel as parallel_mod
from repro.harness.bench_sweep import bench_decode
from repro.harness.cache import TraceCache, reset_trace_memo
from repro.harness.parallel import SweepPoint, WorkloadBroadcast, run_points
from repro.workloads.profiles import BENCHMARKS


def _grid() -> list[SweepPoint]:
    return [SweepPoint(BENCHMARKS[name], scheme, size, 1_500, 1)
            for name in ("gsm", "adpcm")
            for scheme in ("sharing", "conventional")
            for size in (48, 96)]


def _run(points, jobs, trace_dir, fmt, shm):
    env = {"REPRO_TRACE_DIR": str(trace_dir), "REPRO_TRACE_FORMAT": fmt,
           "REPRO_NO_SHM": "" if shm else "1"}
    saved = {key: os.environ.get(key) for key in env}
    try:
        for key, value in env.items():
            if value:
                os.environ[key] = value
            else:
                os.environ.pop(key, None)
        reset_trace_memo()
        start = time.perf_counter()
        results = run_points(points, jobs=jobs)
        wall = time.perf_counter() - start
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    failures = [r for r in results if not r.ok]
    if failures:
        raise RuntimeError(f"point failed: {failures[0].error}")
    return wall, [r.stats.to_dict() for r in results]


def main() -> int:
    points = _grid()
    workloads = {(p.profile.name, p.insts, p.seed) for p in points}

    # observe the broadcast engaging without changing its behaviour
    published: list[int] = []
    original_publish = WorkloadBroadcast.publish

    def spying_publish(self, pts, pending):
        original_publish(self, pts, pending)
        published.append(len(self._segments))

    WorkloadBroadcast.publish = spying_publish
    try:
        with tempfile.TemporaryDirectory(prefix="repro-sweep-smoke-") as tmp:
            serial_wall, serial = _run(points, 1, tmp + "/s", "binary",
                                       shm=False)
            plane_wall, plane = _run(points, 2, tmp + "/p", "binary",
                                     shm=True)
            legacy_wall, legacy = _run(points, 2, tmp + "/l", "jsonl",
                                       shm=False)

            if not (serial == plane == legacy):
                print("FAIL: serial / data-plane / legacy results diverge")
                return 1
            # publish fires once per multi-process run: the data-plane
            # run broadcasts one segment per workload, the legacy run
            # (shm disabled) correctly broadcasts none
            if published != [len(workloads), 0]:
                print(f"FAIL: broadcast published {published} segments "
                      f"across runs, expected [{len(workloads)}, 0]")
                return 1
            if parallel_mod._SHM_WORKLOADS:
                print(f"FAIL: shared-memory segments leaked: "
                      f"{parallel_mod._SHM_WORKLOADS}")
                return 1

            cache = TraceCache(tmp + "/p", fingerprint=None)
            if len(cache) != len(workloads):
                print(f"FAIL: trace cache holds {len(cache)} entries, "
                      f"expected {len(workloads)}")
                return 1
    finally:
        WorkloadBroadcast.publish = original_publish

    decode = bench_decode(insts=2_000, reps=2)
    report = {
        "points": len(points),
        "workloads": len(workloads),
        "serial_seconds": round(serial_wall, 3),
        "dataplane_seconds": round(plane_wall, 3),
        "legacy_seconds": round(legacy_wall, 3),
        "decode": decode,
        "identical": True,
    }
    if len(sys.argv) > 1:
        pathlib.Path(sys.argv[1]).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n")

    print(f"sweep smoke OK: {len(points)} points bit-identical across "
          f"serial, 2-job data plane (shm broadcast: {published[0]} "
          f"segments, 0 leaked) and 2-job legacy jsonl; binary decode "
          f"{decode['speedup_per_pass']:.1f}x per pass")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
