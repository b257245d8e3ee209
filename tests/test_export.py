"""Tests for experiment-result JSON export."""

import json

import pytest

from repro.harness.export import export_results, result_to_dict
from repro.harness.figures import figure2, figure3
from repro.harness.runner import Scale

SCALE = Scale(insts=2500, benchmarks_per_suite=2, sizes=(48, 96))


def test_result_roundtrip(tmp_path):
    fig2 = figure2(SCALE)
    fig3 = figure3(SCALE)
    path = tmp_path / "results.json"
    export_results({"figure2": fig2, "figure3": fig3}, str(path))
    with open(path) as handle:
        loaded = json.load(handle)
    assert loaded["figure2"]["_type"] == "Figure2Result"
    assert loaded["figure3"]["_type"] == "Figure3Result"
    histogram = loaded["figure2"]["histograms"]["specfp"]
    assert pytest.approx(sum(histogram.values()), abs=0.02) == 1.0


def test_export_is_valid_json(tmp_path):
    path = tmp_path / "out.json"
    export_results({"fig2": figure2(SCALE)}, str(path))
    with open(path) as handle:
        json.load(handle)  # must not raise


def test_result_to_dict_rejects_non_dataclass():
    with pytest.raises(TypeError):
        result_to_dict(42)

