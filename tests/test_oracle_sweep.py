"""Differential tests: sweep-engine results vs oracle-checked runs.

The figure pipelines execute their grids through the parallel sweep engine
(``run_points``) with operand verification off for speed.  These tests pin
one point from each figure's grid against a direct, oracle-checked
simulation of the same configuration and workload: statistics must match
bit-for-bit, proving (a) the engine neither perturbs nor mislabels results
and (b) the unverified fast path commits exactly what the checked run does.
"""

import pytest

from repro.harness.parallel import SweepPoint, run_points
from repro.harness.runner import Scale, make_config
from repro.pipeline.processor import simulate
from repro.workloads import BENCHMARKS
from repro.workloads.generator import SyntheticWorkload

_SCALE = Scale.quick()

#: one representative point per figure grid (see repro.harness.figures)
POINTS = [
    # Figure 10: per-suite speedup sweep, conventional/sharing pairs
    ("fig10", SweepPoint(profile=BENCHMARKS["bwaves"], scheme="conventional",
                         size=_SCALE.sizes[0], insts=_SCALE.insts,
                         seed=_SCALE.seed)),
    # Figure 11: IPC vs register-file size over specint+specfp
    ("fig11", SweepPoint(profile=BENCHMARKS["gcc"], scheme="sharing",
                         size=_SCALE.sizes[2], insts=_SCALE.insts,
                         seed=_SCALE.seed)),
    # Figure 12: predictor accuracy, sharing at size 64
    ("fig12", SweepPoint(profile=BENCHMARKS["hmmer"], scheme="sharing",
                         size=64, insts=_SCALE.insts, seed=_SCALE.seed)),
    # Ports figure: port-reduced equal-area conventional baselines
    ("ports-bypass", SweepPoint(profile=BENCHMARKS["gcc"],
                                scheme="conventional", size=_SCALE.sizes[1],
                                insts=_SCALE.insts, seed=_SCALE.seed,
                                port_scheme="bypass_filter")),
    ("ports-banked", SweepPoint(profile=BENCHMARKS["milc"],
                                scheme="conventional", size=_SCALE.sizes[0],
                                insts=_SCALE.insts, seed=_SCALE.seed,
                                port_scheme="banked_arbiter")),
]


@pytest.mark.parametrize("figure,point", POINTS,
                         ids=[figure for figure, _ in POINTS])
def test_sweep_engine_matches_oracle_checked_run(figure, point):
    [result] = run_points([point], jobs=1, cache=None)
    assert result.ok, result.error

    # same config, same workload (the trace cache stores exactly this
    # generator's stream), oracle attached
    workload = SyntheticWorkload(point.profile, total_insts=point.insts,
                                 seed=point.seed)
    oracle_stats = simulate(make_config(point.profile, point.scheme,
                                        point.size,
                                        port_scheme=point.port_scheme),
                            iter(workload), oracle=True)
    assert oracle_stats.to_dict() == result.stats.to_dict()
