"""Span arithmetic, the residual gate, and the wrappers' transparency."""

import json
import sys
from pathlib import Path

import pytest

import spans
from spans import covered, layer_metrics, residual_problems, self_times

SPEC = json.loads((Path(spans.__file__).parent.parent / "BENCHMARK.json").read_text())


def span(id_, start, end, parent=None, pid=1, name="x", **attrs):
    return {"id": id_, "parent": parent, "pid": pid, "name": name,
            "start": start, "end": end, "attrs": attrs}


def test_covered_merges_overlaps():
    assert covered([(1, 4), (3, 6), (8, 10)]) == 7
    assert covered([(0, 10), (2, 3)]) == 10
    assert covered([]) == 0


def test_self_time_subtracts_overlapping_children_once():
    spans_ = [span("p", 0, 10),
              span("a", 1, 4, "p"), span("b", 3, 6, "p"),
              # runs past its parent's end: only the part inside counts
              span("c", 8, 12, "p"),
              {"id": "g", "parent": "p", "pid": 1, "name": "gen",
               "dur": 0.5, "attrs": {}}]
    selfs = self_times(spans_)
    assert selfs["p"] == pytest.approx(10 - (5 + 2) - 0.5)
    assert selfs["a"] == 3 and selfs["c"] == 4 and selfs["g"] == 0.5


def test_self_time_never_negative():
    spans_ = [span("p", 0, 1), span("a", 0, 1, "p"),
              {"id": "g", "parent": "p", "pid": 1, "name": "gen",
               "dur": 0.5, "attrs": {}}]
    assert self_times(spans_)["p"] == 0.0


def sweep_spans():
    """A root process whose run_points has two workers' points."""
    return [
        span("1.1", 0, 1, name="process.import"),
        span("1.2", 1, 9, name="figures.figure10"),
        span("1.3", 2, 8, "1.2", name="parallel.run_points"),
        span("2.1", 2.5, 5, "1.3", pid=2, name="parallel.point"),
        span("3.1", 3, 7.5, "1.3", pid=3, name="parallel.point"),
        span("2.2", 3, 4, "2.1", pid=2, name="pipeline.run", insts=100,
             cycles=400, skipped=100, loop="generated"),
    ]


def test_layer_metrics_split_and_residual():
    m = layer_metrics(sweep_spans(), spawned=0, ended=10, untraced_wall=8)
    assert m["process.import_s"] == 1
    assert m["figures.aggregate_s"] == pytest.approx(2)
    # run_points minus the union of its workers' points
    assert m["parallel.dispatch_s"] == pytest.approx(1)
    assert m["parallel.points"] == 2
    assert m["parallel.worker_busy_frac"] == pytest.approx(7 / 10)
    assert m["parallel.worker_idle_s"] == pytest.approx(3)
    assert m["parallel.straggler_s"] == pytest.approx(2.5)
    assert m["parallel.point_other_s"] == pytest.approx(1.5 + 4.5)
    assert m["pipeline.insts_per_s"] == pytest.approx(100)
    assert m["pipeline.skipped_cycle_frac"] == pytest.approx(0.25)
    # the wall outside the root's top-level spans
    assert m["unattributed_s"] == pytest.approx(1)
    assert m["unattributed_frac"] == pytest.approx(0.1)
    assert m["trace_overhead_frac"] == pytest.approx(10 / 8 - 1)


def test_layer_metrics_normalises_times_and_rates():
    m = layer_metrics(sweep_spans(), spawned=0, ended=10, untraced_wall=4,
                      slowdown=2.0)
    assert m["process.import_s"] == 0.5
    assert m["pipeline.insts_per_s"] == pytest.approx(200)
    assert m["unattributed_frac"] == pytest.approx(0.1)
    assert m["trace_overhead_frac"] == pytest.approx(10 / 2 / 4 - 1)


def test_layer_metrics_names_match_benchmark_json():
    m = layer_metrics(sweep_spans(), spawned=0, ended=10, untraced_wall=8)
    assert list(m) == [metric["name"] for metric in SPEC["per_layer"]]


def test_open_exit_span_ends_with_the_process():
    spans_ = sweep_spans() + [{"id": "1.9", "parent": None, "pid": 1,
                                "name": "process.exit", "start": 9.5,
                                "end": None, "attrs": {}}]
    m = layer_metrics(spans_, spawned=0, ended=10, untraced_wall=8)
    assert m["process.exit_s"] == pytest.approx(0.5)
    assert m["unattributed_s"] == pytest.approx(0.5)


def test_residual_gate():
    assert residual_problems({"unattributed_frac": 0.0999}) == []
    assert residual_problems({"unattributed_frac": 0.101})
    assert residual_problems({"unattributed_frac": -0.2})


# ------------------------------------------------------------- wrappers
def _bindings():
    """Every repro module global and class attribute, by identity."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = id(value)
            if isinstance(value, type):
                for key, member in vars(value).items():
                    out[(name, attr, key)] = id(member)
    return out


@pytest.fixture
def isolated_caches(tmp_path, monkeypatch):
    for var in ("REPRO_CACHE_DIR", "REPRO_TRACE_DIR", "REPRO_KERNEL_DIR"):
        monkeypatch.setenv(var, str(tmp_path / var))
    for var in ("REPRO_NO_KERNEL", "REPRO_NAIVE_LOOP", "REPRO_NO_TRACE_CACHE",
                "REPRO_TRACE_FORMAT", "REPRO_SAMPLING"):
        monkeypatch.delenv(var, raising=False)
    return tmp_path


def test_wrappers_restore_originals(isolated_caches):
    from spans import Tracer, install

    install(Tracer(isolated_caches)).uninstall()  # import what it wraps
    before = _bindings()
    installed = install(Tracer(isolated_caches))
    assert _bindings() != before
    installed.uninstall()
    assert _bindings() == before


def test_traced_point_stats_are_identical(isolated_caches):
    from repro.harness import parallel
    from repro.harness.parallel import SweepPoint, simulate_point
    from repro.workloads.profiles import BENCHMARKS
    from spans import Tracer, install, load_spans

    points = [SweepPoint(profile=BENCHMARKS["hmmer"], scheme="sharing",
                         size=64, insts=3000, seed=1),
              SweepPoint(profile=BENCHMARKS["milc"], scheme="conventional",
                         size=48, insts=6000, seed=2, sampling="2000:150:100")]
    untraced = [simulate_point(p).to_dict() for p in points]

    out = isolated_caches / "spans"
    out.mkdir()
    tracer = Tracer(out)
    tracer.end(tracer.begin("process.import"))
    installed = install(tracer)
    try:
        traced = [parallel._POINT_RUNNER(p).to_dict() for p in points]
    finally:
        installed.uninstall()
    tracer.flush()
    assert traced == untraced

    recorded = load_spans(out)
    m = layer_metrics(recorded, spawned=0, ended=max(s["end"] for s in recorded),
                      untraced_wall=1)
    assert m["parallel.points"] == 2
    assert m["pipeline.insts"] > 0 and m["sampling.windows"] > 0
    assert m["pipeline.generated_loop_frac"] == 1.0
