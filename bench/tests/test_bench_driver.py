"""The driver's rules: percentiles, isolation, output checks, verdicts,
and the shape BENCHMARK.json must keep."""

import hashlib
import json
import re

import pytest

import run
import summary
from compare import verdict
from workloads import BY_NAME, WORKLOADS

SPEC = json.loads(run.SPEC.read_text())


# ---------------------------------------------------------- percentiles
@pytest.mark.parametrize("n, expected", [
    (5, None), (19, None), (20, None), (40, 75), (99, 75), (100, 90),
    (200, 95), (1000, 99)])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert summary.highest_percentile(n) == expected


def test_gated_percentile_reports_zero_without_ten_beyond():
    assert summary.gated_percentile(list(range(99)), 90) == 0.0
    values = list(range(1, 101))
    assert summary.gated_percentile(values, 90) == 90
    assert summary.percentile(values, 50) == 50


def test_describe_reports_median_quartiles_and_count():
    d = summary.describe([3.0, 1.0, 2.0, 4.0, 5.0])
    assert (d["median"], d["n"]) == (3.0, 5)
    assert d["q1"] < d["median"] < d["q3"]
    assert not any(re.fullmatch(r"p\d+", k) for k in d)
    assert summary.describe([7.0])["q1"] == 7.0


# ------------------------------------------------------------- isolation
def test_scrub_removes_and_records_every_repro_variable():
    env, removed = run.scrub({"REPRO_JOBS": "4", "REPRO_SAMPLING": "1:1:1",
                              "PATH": "/bin", "NOT_REPRO_X": "1"})
    assert env == {"PATH": "/bin", "NOT_REPRO_X": "1"}
    assert removed == {"REPRO_JOBS": "4", "REPRO_SAMPLING": "1:1:1"}


def test_sandbox_gives_fresh_cache_dirs_and_cleans_up(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    sandbox = run.Sandbox()
    first, second = sandbox.cache_dirs(), sandbox.cache_dirs()
    assert set(first) == set(run.CACHE_DIRS)
    assert not set(first.values()) & set(second.values())
    assert all(v.startswith(str(tmp_path / ".bench_work")) for v in first.values())
    sandbox.close()
    assert not (tmp_path / ".bench_work").exists()


# --------------------------------------------------------- output check
POINT_STDOUT = b"cycles            777\ninstructions      200000 (+0 repair uops)\n"


@pytest.fixture
def bench(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)

    def fake_job(argv, env, scratch, timeout=run.JOB_TIMEOUT):
        return run.Job(wall=2.0, cpu=1.5, rss_mb=30.0, code=0,
                       stdout=POINT_STDOUT, stderr="", timed_out=False)

    monkeypatch.setattr(run, "run_job", fake_job)
    sandbox = run.Sandbox()
    yield lambda reference: run.Bench(sandbox, {}, reference)
    sandbox.close()


def test_matching_digest_is_a_good_run(bench):
    point = BY_NAME["point-long"]
    good = hashlib.sha256(POINT_STDOUT).hexdigest()
    b = bench({" ".join(point.argv(1)): good})
    rep = b.rep(point, 1)
    assert rep.ok and (rep.insts, rep.cycles) == (200_000, 777)
    assert (b.attempted["point-long"], b.failed(point)) == (1, 0)


def test_digest_mismatch_counts_as_a_failed_run(bench):
    point = BY_NAME["point-long"]
    b = bench({" ".join(point.argv(1)): "0" * 64})
    rep = b.rep(point, 1)
    assert not rep.ok
    assert (b.attempted["point-long"], b.failed(point)) == (1, 1)
    assert "stdout sha256" in b.problems["point-long"][0]


def test_runs_without_a_reference_must_agree_with_the_first(bench):
    point = BY_NAME["point-long"]
    b = bench({})
    assert b.rep(point, 7).ok
    assert b.expected[" ".join(point.argv(7))] == hashlib.sha256(
        POINT_STDOUT).hexdigest()


# -------------------------------------------------------------- verdicts
A = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98, 10.01, 9.99]


def test_verdicts():
    assert verdict(A, [x * 0.8 for x in A], 0.1, "lower") == "better"
    assert verdict(A, [x * 1.2 for x in A], 0.1, "lower") == "worse"
    assert verdict(A, [x * 1.02 for x in A], 0.1, "lower") == "same"
    assert verdict(A, [x * 0.8 for x in A], 0.1, "higher") == "worse"
    noisy = [5.0, 15.0, 10.0, 7.0, 13.0, 6.0, 14.0, 10.0, 8.0, 12.0]
    assert verdict(A, noisy, 0.1, "lower") == "unresolved"
    assert verdict(noisy, [x / 10 for x in noisy], 0.1, "lower") == "better"


# ----------------------------------------------------- BENCHMARK.json
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_benchmark_json_keeps_its_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert SPEC["paths"] == ["bench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == [w.name for w in WORKLOADS]
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in SPEC["workloads"])
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 <= b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(set(m) == {"name", "unit", "better", "bound"}
               for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    assert list(run.e2e_samples([], [])) == list(bounds)
