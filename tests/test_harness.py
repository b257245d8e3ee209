"""Tests for the experiment harness plumbing (scales, runner, rendering)."""

import pytest

from repro.harness.parallel import SweepPoint, simulate_point
from repro.harness.render import pct, text_table
from repro.harness.runner import (
    Scale,
    class_sizes,
    geomean,
    sweep_speedups,
)
from repro.harness.tables import table1, table2_result, table3
from repro.workloads import BENCHMARKS

TINY = Scale(insts=1500, benchmarks_per_suite=2, sizes=(48, 96))


# ------------------------------------------------------------------ render
def test_text_table_alignment():
    table = text_table(["a", "bb"], [["x", "1"], ["longer", "22"]], title="T")
    lines = table.splitlines()
    assert lines[0] == "T"
    assert "longer" in lines[-1]
    widths = {len(line) for line in lines[1:]}
    assert len(widths) == 1  # all rows padded to the same width


def test_pct():
    assert pct(0.123) == "12.3%"
    assert pct(0.5, 0) == "50%"


def test_geomean():
    assert geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert geomean([]) == 1.0


# ------------------------------------------------------------------ scales
def test_scale_profiles_quick_subset():
    scale = Scale(benchmarks_per_suite=3)
    names = [p.name for p in scale.profiles("specint")]
    assert len(names) == 3
    assert all(BENCHMARKS[n].suite == "specint" for n in names)


def test_scale_full_uses_all():
    scale = Scale.full()
    assert len(scale.profiles("specfp")) == 17
    assert len(scale.seeds) >= 2


def test_scale_from_env(monkeypatch):
    monkeypatch.delenv("REPRO_SCALE", raising=False)
    assert Scale.from_env().benchmarks_per_suite is not None
    monkeypatch.setenv("REPRO_SCALE", "full")
    assert Scale.from_env().benchmarks_per_suite is None
    monkeypatch.setenv("REPRO_SCALE", "quick")
    assert Scale.from_env() == Scale.quick()


@pytest.mark.parametrize("value", ["Full", "ful", "paper"])
def test_scale_from_env_rejects_unknown_names(monkeypatch, value):
    """A typo must not silently run the quick job in place of the full one."""
    monkeypatch.setenv("REPRO_SCALE", value)
    with pytest.raises(ValueError, match="REPRO_SCALE"):
        Scale.from_env()


# ------------------------------------------------------------------ runner
def test_class_sizes_by_suite():
    assert class_sizes(BENCHMARKS["gcc"], 48) == (48, 128)
    assert class_sizes(BENCHMARKS["bwaves"], 48) == (128, 48)


def test_run_point_and_pair():
    baseline, proposed = (
        simulate_point(SweepPoint(BENCHMARKS["adpcm"], scheme, 64,
                                  TINY.insts, TINY.seed))
        for scheme in ("conventional", "sharing"))
    assert baseline.committed == proposed.committed == TINY.insts


def test_sweep_speedups_shape():
    rows = sweep_speedups([BENCHMARKS["gsm"]], TINY)
    assert len(rows) == 1
    assert set(rows[0].speedups) == set(TINY.sizes)
    assert all(0.5 < v < 2.0 for v in rows[0].speedups.values())


# ------------------------------------------------------------------ tables
def test_table_render_smoke():
    assert "Table I" in table1()
    assert "Table II" in table2_result().render()
    rendered = table3().render()
    assert "28/4/4/4" in rendered  # the paper's first row
