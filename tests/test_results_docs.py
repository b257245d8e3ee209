"""The committed figure-job outputs under ``docs/results/`` are the ones
the program prints.

``bench/reference.json`` pins the SHA-256 of the seed-1 stdout of the
exact and the sampled figure job (``bench/figures_job.py --seed 1``, with
and without ``--sampling 2000:150:100``), and every benchmark run checks
its output against it.  EXPERIMENTS.md cites these files instead of
retyping their cells, so a change that moves a figure must update the
file and the reference together.  No simulation runs here.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "docs" / "results"

#: committed stdout -> its bench/reference.json workload
FILES = {
    "figures-exact-seed1.txt": "fig-exact-cold",
    "figures-sampled-seed1.txt": "fig-sampled-cold",
}


@pytest.mark.parametrize("name", sorted(FILES))
def test_committed_figures_match_the_reference(name):
    reference = json.loads((ROOT / "bench" / "reference.json").read_text())
    assert reference["seed"] == 1
    digest = hashlib.sha256((RESULTS / name).read_bytes()).hexdigest()
    assert digest == reference["stdout_sha256"][FILES[name]]


def test_experiments_cites_the_committed_figures():
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    for name in FILES:
        assert f"docs/results/{name}" in text
