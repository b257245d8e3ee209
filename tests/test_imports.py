"""What a run imports.

A warm figure run re-renders results from the result cache, the CLI
parser only parses, and rebuilding a stored result only decodes it: none
of them may load simulator code.  Each case runs in a fresh interpreter,
because this test process has long since imported everything.

The package roots export their public names lazily (PEP 562); the second
half of this file checks that every exported name still resolves, and
that the component-stats classes moved into ``repro.pipeline.stats`` are
the same objects under their old import paths.
"""

from __future__ import annotations

import importlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.pipeline.config import MachineConfig
from repro.pipeline.processor import simulate
from repro.pipeline.stats import SampledStats, SimStats, stats_from_dict
from repro.workloads.generator import SyntheticWorkload
from repro.workloads.profiles import BENCHMARKS

SRC = Path(__file__).resolve().parent.parent / "src"

#: simulator modules that no case below may leave loaded
SIMULATOR_MODULES = (
    "repro.pipeline.processor",
    "repro.codegen.generator",
    "repro.workloads.generator",
    "repro.isa.executor",
    "repro.isa.assembler",
    "repro.analysis",
    "repro.core.sharing",
    "repro.sampling.engine",
)

#: a Fig. 11 sweep over two profiles (one per suite) at one size: 4 points
WARM_FIGURE = """
from repro.harness import ResultCache, figure11
from repro.harness.runner import Scale

cache = ResultCache({root!r})
scale = Scale(insts=400, benchmarks_per_suite=1, sizes=(48,))
figure11(scale, cache=cache).render()
print(cache.hits, cache.misses)
"""


def _run(code: str) -> tuple[list[str], set[str]]:
    """Run ``code`` in a fresh interpreter: ``(its stdout lines, the
    repro modules loaded when it ended)``."""
    probe = code + (
        "\nimport json as _json, sys as _sys\n"
        "print(_json.dumps(sorted(m for m in _sys.modules "
        "if m.split('.')[0] == 'repro')))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    *lines, modules = done.stdout.splitlines()
    return lines, set(json.loads(modules))


def _assert_no_simulator(modules: set[str]) -> None:
    assert modules & set(SIMULATOR_MODULES) == set()


def _sim_stats() -> SimStats:
    config = MachineConfig(scheme="sharing", int_regs=64, fp_regs=64)
    workload = SyntheticWorkload(BENCHMARKS["gsm"], total_insts=300, seed=1)
    return simulate(config, iter(workload))


# ------------------------------------------------------------ import budget
def test_importing_the_harness_loads_no_simulator():
    _, modules = _run(
        "import repro\n"
        "import repro.harness\n"
        "from repro.harness import ResultCache, figure10, figure11, headline\n")
    assert "repro.harness.figures" in modules
    _assert_no_simulator(modules)


def test_every_harness_export_loads_no_simulator():
    # what ``repro figures`` imports, the area tables included
    _, modules = _run("from repro.harness import *\n")
    assert "repro.harness.tables" in modules
    _assert_no_simulator(modules)


def test_warm_figure_run_loads_no_simulator(tmp_path):
    code = WARM_FIGURE.format(root=str(tmp_path / "results"))
    cold_lines, cold_modules = _run(code)
    assert cold_lines == ["0 4"]
    # the probe sees the simulator when a run does simulate
    assert "repro.pipeline.processor" in cold_modules

    warm_lines, warm_modules = _run(code)
    assert warm_lines == ["4 0"]
    _assert_no_simulator(warm_modules)


def test_cli_parser_loads_no_simulator():
    _, modules = _run(
        "import repro.cli\n"
        "repro.cli.build_parser().parse_args(['figures', 'fig10', 'fig11'])\n")
    _assert_no_simulator(modules)


def test_streaming_run_loads_no_trace_codec():
    # ``repro bench`` streams the generator straight into the simulator;
    # the trace codec is for cached traces only
    lines, modules = _run(
        "from repro.cli import main\n"
        "main(['bench', 'gsm', '--scheme', 'sharing', '--insts', '300'])\n")
    assert lines and lines[0].startswith("cycles")
    assert "repro.workloads.generator" in modules
    assert "repro.workloads.trace_codec" not in modules


def test_rebuilding_stats_loads_no_simulator(tmp_path):
    payload = _sim_stats().to_dict()
    assert payload["renamer_stats"] and payload["cache_stats"]
    path = tmp_path / "stats.json"
    path.write_text(json.dumps(payload))
    lines, modules = _run(
        "import json\n"
        "from repro.pipeline.stats import SimStats\n"
        f"payload = json.loads(open({str(path)!r}).read())\n"
        "stats = SimStats.from_dict(payload)\n"
        "print(stats.to_dict() == payload, "
        "stats.cache_stats['l1d'].miss_rate >= 0)\n")
    assert lines == ["True True"]
    assert modules <= {"repro", "repro._lazy", "repro.pipeline",
                       "repro.pipeline.stats"}
    _assert_no_simulator(modules)


# ------------------------------------------------------------ lazy exports
LAZY_ROOTS = ("repro", "repro.pipeline", "repro.harness", "repro.isa",
              "repro.workloads", "repro.codegen", "repro.core")


@pytest.mark.parametrize("package", LAZY_ROOTS)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    listing = dir(module)
    for name in module.__all__:
        assert getattr(module, name) is not None
        assert name in listing


@pytest.mark.parametrize("package", LAZY_ROOTS)
def test_star_import_binds_every_name(package):
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    module = importlib.import_module(package)
    for name in module.__all__:
        assert namespace[name] is getattr(module, name)


@pytest.mark.parametrize("package", LAZY_ROOTS)
def test_unknown_name_raises_attribute_error(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match=f"'{package}'"):
        module.no_such_name  # noqa: B018


def test_exports_are_the_defining_modules_objects():
    import repro
    import repro.workloads
    from repro.isa.assembler import assemble
    from repro.pipeline.processor import Processor
    from repro.workloads.kernels import KERNELS
    from repro.workloads.kernels_extra import EXTRA_KERNELS

    assert repro.assemble is assemble
    assert repro.Processor is Processor
    assert repro.workloads.ALL_KERNELS == {**KERNELS, **EXTRA_KERNELS}


def test_export_named_like_its_submodule_survives_importing_it():
    # ``headline`` is a function of ``repro.harness`` and the module that
    # defines it; importing the module first must not shadow the function
    lines, _ = _run(
        "import repro.harness.headline\n"
        "from repro.harness import headline\n"
        "print(callable(headline), headline.__module__)\n")
    assert lines == ["True repro.harness.headline"]


@pytest.mark.parametrize("old_module,name", [
    ("repro.core.renamer", "RenameStats"),
    ("repro.core", "RenameStats"),
    ("repro.core.type_predictor", "PredictorStats"),
    ("repro.frontend.branch_predictor", "BranchStats"),
    ("repro.mem.cache", "CacheStats"),
    ("repro.mem", "CacheStats"),
    ("repro.mem.tlb", "TLBStats"),
    ("repro.mem.dram", "DRAMStats"),
])
def test_moved_stats_class_is_one_object(old_module, name):
    import repro.pipeline.stats

    old = getattr(importlib.import_module(old_module), name)
    assert old is getattr(repro.pipeline.stats, name)


def test_stats_round_trip_through_json_and_pickle():
    stats = _sim_stats()
    payload = stats.to_dict()
    rebuilt = stats_from_dict(json.loads(json.dumps(payload)))
    assert type(rebuilt) is SimStats and rebuilt.to_dict() == payload

    sampled = SampledStats(est=stats, schedule=(2000, 150, 100),
                           schedule_seed=1, phase_offset=0, windows=1,
                           insts_total=300, insts_sampled=150,
                           insts_warmup=100, insts_fast_forwarded=50,
                           cycles_sampled=200, window_ipc=[0.5])
    sampled_payload = sampled.to_dict()
    rebuilt = stats_from_dict(json.loads(json.dumps(sampled_payload)))
    assert type(rebuilt) is SampledStats
    assert rebuilt.to_dict() == sampled_payload

    # a pickle written while RenameStats lived in repro.core.renamer
    blob = pickle.dumps(stats, protocol=0)
    new_path = b"crepro.pipeline.stats\nRenameStats\n"
    assert new_path in blob
    old_blob = blob.replace(new_path, b"crepro.core.renamer\nRenameStats\n")
    assert pickle.loads(old_blob).to_dict() == payload
