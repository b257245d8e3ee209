#!/usr/bin/env python
"""CI smoke test for the sweep data plane.

Drives a small figure grid through every data-plane configuration and
asserts the determinism contract end to end:

* serial (jobs=1), parallel with the full data plane (shared-memory
  broadcast) and parallel with the broadcast off (workers read the
  binary trace cache) all produce bit-identical per-point stats;
* the shared-memory broadcast actually engages (one segment per distinct
  workload) and leaves nothing behind after the sweep;
* the binary trace cache is populated cold and served warm;
* a same-name variant of a benchmark profile is its own workload: every
  point's stats equal that point's standalone run from a cold trace memo
  (route identity alone cannot catch a memo keyed by name, since every
  route would be equally wrong);
* a warm rerun against the same result cache is all hits with identical
  stats.

Writes a small JSON report (grid timings, for the CI artifact) to the
path given as argv[1], if any.  Exits non-zero with a diagnostic on any
violation.
"""

import json
import os
import pathlib
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import replace

try:
    import repro  # noqa: F401  (installed package)
except ImportError:  # fall back to a source checkout
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import repro.harness.parallel as parallel_mod
from repro.harness.cache import ResultCache, TraceCache, reset_trace_memo
from repro.harness.parallel import (SweepPoint, WorkloadBroadcast,
                                    run_points, simulate_point)
from repro.workloads.profiles import BENCHMARKS

#: gsm under its own name, with a different memory mix: a distinct workload
GSM_VARIANT = replace(BENCHMARKS["gsm"], load_frac=0.05, store_frac=0.02,
                      working_set=1 << 12)


def _grid() -> list[SweepPoint]:
    profiles = [BENCHMARKS["gsm"], BENCHMARKS["adpcm"], GSM_VARIANT]
    return [SweepPoint(profile, scheme, size, 1_500, 1)
            for profile in profiles
            for scheme in ("sharing", "conventional")
            for size in (48, 96)]


@contextmanager
def _env(trace_dir, shm=False):
    env = {"REPRO_TRACE_DIR": str(trace_dir),
           "REPRO_NO_SHM": "" if shm else "1"}
    saved = {key: os.environ.get(key) for key in env}
    try:
        for key, value in env.items():
            if value:
                os.environ[key] = value
            else:
                os.environ.pop(key, None)
        reset_trace_memo()
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _run(points, jobs, trace_dir, shm, cache=None):
    with _env(trace_dir, shm):
        start = time.perf_counter()
        results = run_points(points, jobs=jobs, cache=cache)
        wall = time.perf_counter() - start
    failures = [r for r in results if not r.ok]
    if failures:
        raise RuntimeError(f"point failed: {failures[0].error}")
    return wall, [r.stats.to_dict() for r in results], results


def _standalone(points, trace_dir) -> list[dict]:
    """Each point simulated on its own, from a cold trace memo."""
    stats = []
    with _env(trace_dir):
        for point in points:
            reset_trace_memo()
            stats.append(simulate_point(point).to_dict())
    return stats


def main() -> int:
    points = _grid()
    workloads = {parallel_mod._workload_key(p) for p in points}

    # observe the broadcast engaging without changing its behaviour
    published: list[int] = []
    original_publish = WorkloadBroadcast.publish

    def spying_publish(self, pts, pending):
        original_publish(self, pts, pending)
        published.append(len(self._segments))

    WorkloadBroadcast.publish = spying_publish
    try:
        with tempfile.TemporaryDirectory(prefix="repro-sweep-smoke-") as tmp:
            cache = ResultCache(tmp + "/results")
            serial_wall, serial, _ = _run(points, 1, tmp + "/s", shm=False,
                                          cache=cache)
            plane_wall, plane, _ = _run(points, 2, tmp + "/p", shm=True)
            noshm_wall, noshm, _ = _run(points, 2, tmp + "/n", shm=False)

            if not (serial == plane == noshm):
                print("FAIL: serial / data-plane / no-shm results diverge")
                return 1
            alone = _standalone(points, tmp + "/a")
            wrong = [p.label() for p, swept, own in zip(points, serial, alone)
                     if swept != own]
            if wrong:
                print(f"FAIL: swept stats differ from the standalone run "
                      f"for {wrong}")
                return 1

            _, warm, warm_results = _run(points, 1, tmp + "/s", shm=False,
                                         cache=cache)
            if (cache.hits, cache.misses) != (len(points), len(points)) \
                    or not all(r.cached for r in warm_results) \
                    or warm != serial:
                print(f"FAIL: warm rerun served {cache.hits} hit(s) and "
                      f"{cache.misses} miss(es) over two runs of "
                      f"{len(points)} points, or its stats changed")
                return 1
            # publish fires once per multi-process run: the data-plane
            # run broadcasts one segment per workload, the no-shm run
            # correctly broadcasts none
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

    report = {
        "points": len(points),
        "workloads": len(workloads),
        "serial_seconds": round(serial_wall, 3),
        "dataplane_seconds": round(plane_wall, 3),
        "noshm_seconds": round(noshm_wall, 3),
        "identical": True,
        "standalone_identical": True,
        "warm_hits": len(points),
    }
    if len(sys.argv) > 1:
        pathlib.Path(sys.argv[1]).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n")

    print(f"sweep smoke OK: {len(points)} points bit-identical across "
          f"serial, 2-job data plane (shm broadcast: {published[0]} "
          f"segments, 0 leaked), 2-job without the broadcast and "
          f"standalone runs (same-name variant included); warm rerun all "
          f"hits")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
