"""Sweep data-plane benchmark (``repro bench sweep`` / BENCH_sweep.json).

Measures the two things PR 8's data plane promises:

* **decode** — microbenchmark of trace deserialization on one standard
  workload: the legacy JSON-lines codec (cost paid *per simulation
  pass*) against the binary columnar codec
  (:mod:`repro.workloads.trace_codec`) both cold (parse + materialize)
  and steady-state (materialize only, columns already parsed — what a
  warm worker pays per pass).
* **grids** — end-to-end ``run_points`` wall-clock on a standard figure
  grid at ``jobs=4``, comparing the full data plane (binary codec +
  shared-memory broadcast) against the legacy path (gzip JSON-lines, no
  broadcast), cold-cache and warm-cache, for both exact and interval-sampled grids.  Both sides of
  each comparison run in the same process on the same machine, so the
  speedups are self-relative — no committed-reference drift.

The bench also asserts the determinism contract while it is at it:
jobs=1, jobs=4 legacy and jobs=4 data-plane results on the exact grid
must be bit-identical (the ``identical`` field; the floor check fails
on a mismatch).

``check_decode_floor`` and ``check_sweep_floor`` are the CI guards:
steady-state decode must stay >= ``DECODE_FLOOR``x faster than
JSON-lines, and the sampled grid's cold-cache wall-clock must stay
>= ``SWEEP_FLOOR``x faster than the legacy path.  The sampled grid
anchors the end-to-end floor because that is the regime the data plane
targets (SMARTS-style sweeps: measurement cheap, workload preparation
amortized); the exact grid — where simulation itself dominates — is
recorded alongside for the honest picture.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

#: default location of the committed benchmark record (repo root)
DEFAULT_PATH = Path(__file__).resolve().parents[3] / "BENCH_sweep.json"

#: CI floor: steady-state binary decode speedup over JSON-lines per pass
DECODE_FLOOR = 5.0

#: CI floor: cold-cache sampled-grid wall-clock speedup, data plane vs
#: legacy path (the committed full-grid record must show >= 2.0)
SWEEP_FLOOR = 2.0

#: the standard figure grid (quick variant for CI)
GRID_PROFILES = ("gsm", "hmmer", "gcc", "bwaves")
GRID_PROFILES_QUICK = ("gsm", "hmmer")
GRID_SCHEMES = ("sharing", "conventional")
GRID_SIZES = (48, 64, 80, 96)
GRID_SIZES_QUICK = (48, 64)
GRID_INSTS = 8_000
GRID_INSTS_QUICK = 4_000
GRID_SAMPLING = "4000:150:100"
GRID_SAMPLING_QUICK = "2000:100:60"


def grid_points(quick: bool = False, seed: int = 1) -> tuple[list, list]:
    """(exact, sampled) point lists of the standard figure grid."""
    from repro.harness.parallel import SweepPoint
    from repro.workloads import BENCHMARKS

    profiles = GRID_PROFILES_QUICK if quick else GRID_PROFILES
    sizes = GRID_SIZES_QUICK if quick else GRID_SIZES
    insts = GRID_INSTS_QUICK if quick else GRID_INSTS
    sampling = GRID_SAMPLING_QUICK if quick else GRID_SAMPLING
    exact, sampled = [], []
    for name in profiles:
        for scheme in GRID_SCHEMES:
            for size in sizes:
                exact.append(SweepPoint(BENCHMARKS[name], scheme, size,
                                        insts, seed))
                sampled.append(SweepPoint(BENCHMARKS[name], scheme, size,
                                          insts, seed, sampling=sampling))
    return exact, sampled


@contextmanager
def _env(**overrides):
    """Set (value) / unset (None) environment variables, restoring after."""
    saved = {key: os.environ.get(key) for key in overrides}
    try:
        for key, value in overrides.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def bench_decode(profile: str = "hmmer", insts: int = GRID_INSTS,
                 seed: int = 1, reps: int = 3) -> dict:
    """Decode microbenchmark: JSON-lines per pass vs binary cold/warm."""
    import io

    from repro.workloads import BENCHMARKS
    from repro.workloads.generator import SyntheticWorkload
    from repro.workloads.trace_codec import decode_columns, encode
    from repro.workloads.trace_io import load_trace, save_trace

    stream = list(SyntheticWorkload(BENCHMARKS[profile], total_insts=insts,
                                    seed=seed))
    buffer = io.StringIO()
    save_trace(iter(stream), buffer)
    text = buffer.getvalue()
    blob = encode(stream)

    def best(fn) -> float:
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    json_s = best(lambda: list(load_trace(io.StringIO(text))))
    cold_s = best(lambda: decode_columns(blob).materialize())
    columns = decode_columns(blob)
    warm_s = best(columns.materialize)
    return {
        "profile": profile,
        "insts": insts,
        "json_bytes": len(text.encode()),
        "binary_bytes": len(blob),
        "json_ms_per_pass": round(json_s * 1e3, 2),
        "binary_cold_ms": round(cold_s * 1e3, 2),
        "binary_warm_ms_per_pass": round(warm_s * 1e3, 2),
        "speedup_cold": round(json_s / cold_s, 2),
        "speedup_per_pass": round(json_s / warm_s, 2),
    }


def _run_grid(points: list, jobs: int, trace_dir: str, fmt: str,
              shm: bool) -> tuple[float, list]:
    """One ``run_points`` execution under a controlled data-plane config;
    returns (wall seconds, per-point stats dicts)."""
    from repro.harness.cache import reset_trace_memo
    from repro.harness.parallel import run_points

    with _env(REPRO_TRACE_DIR=trace_dir,
              REPRO_TRACE_FORMAT=fmt,
              REPRO_NO_SHM=None if shm else "1",
              REPRO_NO_TRACE_CACHE=None):
        reset_trace_memo()  # a bench run never inherits a warm memo
        start = time.perf_counter()
        results = run_points(points, jobs=jobs)
        wall = time.perf_counter() - start
    failures = [r for r in results if not r.ok]
    if failures:
        raise RuntimeError(f"bench grid point failed: {failures[0].error}")
    return wall, [r.stats.to_dict() for r in results]


#: the two data-plane configurations under comparison
_MODES = {
    "legacy": {"fmt": "jsonl", "shm": False},
    "dataplane": {"fmt": "binary", "shm": True},
}


def run_bench(quick: bool = False, jobs: int = 4, seed: int = 1) -> dict:
    """Benchmark the sweep data plane; returns the ``current`` section."""
    from repro.harness.cache import TRACE_MEMO

    exact, sampled = grid_points(quick, seed)
    decode = bench_decode(insts=GRID_INSTS_QUICK if quick else GRID_INSTS,
                          reps=2 if quick else 3)

    grids: dict = {}
    reference: Optional[list] = None
    identical = True
    for grid_name, points in (("exact", exact), ("sampled", sampled)):
        modes = {}
        for mode, knobs in _MODES.items():
            with tempfile.TemporaryDirectory(prefix="bench-sweep-") as root:
                cold_s, cold_stats = _run_grid(points, jobs, root, **knobs)
                warm_s, warm_stats = _run_grid(points, jobs, root, **knobs)
            if cold_stats != warm_stats:
                identical = False
            modes[mode] = {
                "cold_seconds": round(cold_s, 3),
                "warm_seconds": round(warm_s, 3),
                "points_per_sec_cold": round(len(points) / cold_s, 2),
                "points_per_sec_warm": round(len(points) / warm_s, 2),
                "stats": cold_stats,
            }
        if modes["legacy"]["stats"] != modes["dataplane"]["stats"]:
            identical = False
        if grid_name == "exact":
            # determinism cross-check: serial, binary codec, no broadcast
            with tempfile.TemporaryDirectory(prefix="bench-sweep-") as root:
                _, reference = _run_grid(points, 1, root, "binary",
                                         shm=False)
            if reference != modes["dataplane"]["stats"]:
                identical = False
        for mode in modes.values():
            del mode["stats"]  # identity asserted; keep the record small
        grids[grid_name] = {
            "points": len(points),
            "modes": modes,
            "speedup_cold": round(modes["legacy"]["cold_seconds"]
                                  / modes["dataplane"]["cold_seconds"], 2),
            "speedup_warm": round(modes["legacy"]["warm_seconds"]
                                  / modes["dataplane"]["warm_seconds"], 2),
        }

    return {
        "meta": {
            "jobs": jobs,
            "seed": seed,
            "quick": quick,
            "profiles": list(GRID_PROFILES_QUICK if quick
                             else GRID_PROFILES),
            "schemes": list(GRID_SCHEMES),
            "sizes": list(GRID_SIZES_QUICK if quick else GRID_SIZES),
            "insts": GRID_INSTS_QUICK if quick else GRID_INSTS,
            "sampling": GRID_SAMPLING_QUICK if quick else GRID_SAMPLING,
        },
        "decode": decode,
        "grids": grids,
        "identical": identical,
        "trace_memo": TRACE_MEMO.stats(),
    }


def load_record(path: Path = DEFAULT_PATH) -> Optional[dict]:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def diff_against(record: Optional[dict], current: dict) -> list[str]:
    """Human-readable summary, with deltas vs the committed record."""
    lines = []
    decode = current["decode"]
    lines.append(
        f"decode       json {decode['json_ms_per_pass']:.1f}ms/pass | "
        f"binary cold {decode['binary_cold_ms']:.1f}ms "
        f"({decode['speedup_cold']:.2f}x) | per-pass "
        f"{decode['binary_warm_ms_per_pass']:.1f}ms "
        f"({decode['speedup_per_pass']:.2f}x)")
    committed = ((record or {}).get("current") or {}).get("grids", {})
    for name, grid in current["grids"].items():
        plane = grid["modes"]["dataplane"]
        legacy = grid["modes"]["legacy"]
        line = (f"{name:12s} {grid['points']} pts | data plane cold "
                f"{plane['cold_seconds']:.2f}s warm "
                f"{plane['warm_seconds']:.2f}s | legacy cold "
                f"{legacy['cold_seconds']:.2f}s | speedup cold "
                f"{grid['speedup_cold']:.2f}x warm "
                f"{grid['speedup_warm']:.2f}x")
        old = committed.get(name, {}).get("speedup_cold")
        if old:
            line += f" (committed {old:.2f}x)"
        lines.append(line)
    lines.append(f"{'identity':12s} "
                 + ("bit-identical across jobs/shm/codec"
                    if current["identical"] else "MISMATCH"))
    return lines


def check_decode_floor(current: dict,
                       floor: float = DECODE_FLOOR) -> tuple[bool, str]:
    """CI guard: steady-state binary decode vs JSON-lines per pass."""
    speedup = current["decode"]["speedup_per_pass"]
    if speedup < floor:
        return False, (
            f"binary per-pass decode is only {speedup:.2f}x faster than "
            f"JSON-lines (floor {floor:.1f}x): the columnar codec has "
            f"regressed")
    return True, (f"binary per-pass decode speedup {speedup:.2f}x >= "
                  f"floor {floor:.1f}x")


def check_sweep_floor(current: dict, floor: float = SWEEP_FLOOR,
                      grid: str = "sampled") -> tuple[bool, str]:
    """CI guard: cold-cache end-to-end speedup of the data plane, plus
    the bit-identity assertion the bench performed along the way."""
    if not current["identical"]:
        return False, ("sweep results are NOT bit-identical across "
                       "jobs/shared-memory/codec configurations")
    speedup = current["grids"][grid]["speedup_cold"]
    if speedup < floor:
        return False, (
            f"{grid} grid cold-cache speedup {speedup:.2f}x is below the "
            f"floor {floor:.1f}x: the sweep data plane has regressed")
    return True, (f"{grid} grid cold-cache speedup {speedup:.2f}x >= "
                  f"floor {floor:.1f}x (bit-identical)")


def write_record(current: dict, path: Path = DEFAULT_PATH) -> dict:
    out = {"current": current}
    path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    return out
