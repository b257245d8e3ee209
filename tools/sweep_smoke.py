#!/usr/bin/env python
"""CI smoke test for the sweep data plane.

Drives a small figure grid through both sweep routes and asserts the
determinism contract end to end:

* serial (jobs=1) and the 2-job pipe fleet produce bit-identical
  per-point stats;
* fleet workers start warm: no worker generates or reads from disk the
  trace of a workload the parent warmed before forking;
* fleet workers decode once: no worker materializes a workload twice
  (it keeps the workload resident and rewinds it between points);
* the binary trace cache is populated cold and served warm;
* a same-name variant of a benchmark profile is its own workload: every
  point's stats equal that point's standalone run from a cold trace memo
  (route identity alone cannot catch a memo keyed by name, since every
  route would be equally wrong);
* a warm rerun against the same result cache is all hits with identical
  stats.

Writes a small JSON report (grid timings and the fleet workers'
materialization count, for the CI artifact) to the path given as
argv[1], if any.  Exits non-zero with a diagnostic on any
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
from repro.harness.parallel import SweepPoint, run_points, simulate_point
from repro.workloads.profiles import BENCHMARKS
from repro.workloads.trace_codec import TraceColumns

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
def _env(trace_dir):
    saved = os.environ.get("REPRO_TRACE_DIR")
    try:
        os.environ["REPRO_TRACE_DIR"] = str(trace_dir)
        reset_trace_memo()
        yield
    finally:
        if saved is None:
            os.environ.pop("REPRO_TRACE_DIR", None)
        else:
            os.environ["REPRO_TRACE_DIR"] = saved


@contextmanager
def _workers_start_warm():
    """Fail any point whose fleet worker generates a trace or reads one
    from disk: every workload of the grid (fewer than the trace memo's 32
    entries) is warmed in the parent before the fork, so a worker must
    find it in the memo it inherited."""
    parent = os.getpid()
    saved = {name: vars(TraceCache)[name]
             for name in ("get_stream", "put_insts")}

    def parent_only(name, method):
        def guarded(*args, **kwargs):
            if os.getpid() != parent:
                raise AssertionError(f"fleet worker called TraceCache.{name}"
                                     f" for a workload warmed before fork")
            return method(*args, **kwargs)
        return guarded

    try:
        for name, method in saved.items():
            setattr(TraceCache, name, parent_only(name, method))
        yield
    finally:
        for name, method in saved.items():
            setattr(TraceCache, name, method)


@contextmanager
def _worker_materializations(log):
    """Append one "pid columns-id" line to the file ``log`` per trace
    materialization in a fleet worker.  A worker keeps its current
    workload resident and rewinds it between points, and affine dispatch
    never sends a worker back to a workload it has left in a
    failure-free sweep, so no line may repeat."""
    parent = os.getpid()
    original = vars(TraceColumns)["materialize_range"]

    def counted(self, lo, hi):
        if os.getpid() != parent:
            with open(log, "a") as handle:
                handle.write(f"{os.getpid()} {id(self)}\n")
        return original(self, lo, hi)

    try:
        TraceColumns.materialize_range = counted
        yield
    finally:
        TraceColumns.materialize_range = original


def _run(points, jobs, trace_dir, cache=None):
    with _env(trace_dir):
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

    with tempfile.TemporaryDirectory(prefix="repro-sweep-smoke-") as tmp:
        cache = ResultCache(tmp + "/results")
        serial_wall, serial, _ = _run(points, 1, tmp + "/s", cache=cache)
        log = pathlib.Path(tmp, "materializations.log")
        log.touch()
        try:
            with _workers_start_warm(), _worker_materializations(log):
                fleet_wall, fleet, _ = _run(points, 2, tmp + "/p")
        except RuntimeError as exc:
            print(f"FAIL: 2-job fleet run: {exc}")
            return 1
        materialized = log.read_text().splitlines()
        materializations = len(materialized)
        if len(set(materialized)) != materializations:
            print("FAIL: a fleet worker materialized a workload twice")
            return 1
        if materializations < len(workloads):
            print(f"FAIL: fleet workers materialized {materializations} "
                  f"time(s) for {len(workloads)} workloads")
            return 1

        if serial != fleet:
            print("FAIL: serial / 2-job fleet results diverge")
            return 1
        alone = _standalone(points, tmp + "/a")
        wrong = [p.label() for p, swept, own in zip(points, serial, alone)
                 if swept != own]
        if wrong:
            print(f"FAIL: swept stats differ from the standalone run "
                  f"for {wrong}")
            return 1

        _, warm, warm_results = _run(points, 1, tmp + "/s", cache=cache)
        if (cache.hits, cache.misses) != (len(points), len(points)) \
                or not all(r.cached for r in warm_results) \
                or warm != serial:
            print(f"FAIL: warm rerun served {cache.hits} hit(s) and "
                  f"{cache.misses} miss(es) over two runs of "
                  f"{len(points)} points, or its stats changed")
            return 1

        cache = TraceCache(tmp + "/p", fingerprint=None)
        if len(cache) != len(workloads):
            print(f"FAIL: trace cache holds {len(cache)} entries, "
                  f"expected {len(workloads)}")
            return 1

    report = {
        "points": len(points),
        "workloads": len(workloads),
        "serial_seconds": round(serial_wall, 3),
        "fleet_seconds": round(fleet_wall, 3),
        "identical": True,
        "workers_start_warm": True,
        "materializations": materializations,
        "standalone_identical": True,
        "warm_hits": len(points),
    }
    if len(sys.argv) > 1:
        pathlib.Path(sys.argv[1]).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n")

    print(f"sweep smoke OK: {len(points)} points bit-identical across "
          f"serial, 2-job fleet ({len(workloads)} workloads, every worker "
          f"started warm, {materializations} materializations) and "
          f"standalone runs (same-name variant included); warm rerun all "
          f"hits")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
