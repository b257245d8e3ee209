"""Sweep-point identity: result-cache keys, the frozen MachineConfig and
content-identified workload profiles.

A point's result key is memoised per :class:`ResultCache` and built from
the memoised canonical JSON of its config and profile, so these tests pin
the key to the plain ``asdict`` + ``json.dumps`` formula, to a fresh
cache, and across interpreter hash seeds.  A profile is identified by its
content, never its name: a same-name variant must simulate its own trace
on every sweep route.
"""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import FrozenInstanceError, asdict, replace
from pathlib import Path

import pytest

from repro.harness import figures, runner
from repro.harness.cache import ResultCache, point_key, trace_key
from repro.harness.figures import figure10, figure11, figure_ports
from repro.harness.headline import headline
from repro.harness.parallel import SweepPoint, run_points, simulate_point
from repro.harness.runner import Scale, make_config
from repro.workloads.profiles import BENCHMARKS
from tests.util import fresh_trace_memo

FP = "testfp"
PROFILE = BENCHMARKS["mcf"]


def _plain_point_key(config, profile, insts, seed, fingerprint,
                     sampling=None) -> str:
    """The key formula without any memoisation."""
    payload = {"config": asdict(config), "profile": asdict(profile),
               "insts": insts, "seed": seed, "sampling": sampling,
               "code": fingerprint}
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


class _Captured(Exception):
    pass


def _figure_points(monkeypatch) -> list[SweepPoint]:
    """Every point the headline, Fig. 10, Fig. 11 and ports sweeps ask for,
    captured at their ``run_points`` call instead of simulated."""
    captured: list[SweepPoint] = []

    def record(points, *args, **kwargs):
        captured.extend(points)
        raise _Captured

    monkeypatch.setattr(runner, "run_points", record)
    monkeypatch.setattr(figures, "run_points", record)
    scale = Scale()
    calls = [lambda: figure11(scale), lambda: headline(scale),
             lambda: figure_ports(scale)]
    calls += [lambda suite=suite: figure10(suite, scale)
              for suite in ("specfp", "specint", "media+cog")]
    for call in calls:
        with pytest.raises(_Captured):
            call()
    return captured


# ------------------------------------------------------------ key identity
def test_figure_point_keys_match_plain_formula_and_fresh_cache(monkeypatch):
    points = _figure_points(monkeypatch)
    assert len(set(points)) >= 180
    cache = ResultCache("unused", fingerprint=FP)
    for point in points:
        # a fresh, unshared instance: no memoised JSON on it yet
        config = replace(make_config(point.profile, point.scheme, point.size,
                                     port_scheme=point.port_scheme))
        expected = cache.key_for(config, point.profile, point.insts,
                                 point.seed, sampling=point.sampling)
        assert cache.key_for_point(point) == expected
        assert cache.key_for_point(point) == expected  # memo hit
        assert ResultCache("unused", fingerprint=FP).key_for_point(point) \
            == expected
        assert expected == _plain_point_key(config, point.profile,
                                            point.insts, point.seed, FP,
                                            point.sampling)


_KEYS_SCRIPT = """
import json
from repro.harness.cache import ResultCache, trace_key
from repro.harness.parallel import SweepPoint
from repro.workloads.profiles import BENCHMARKS
cache = ResultCache("unused", fingerprint="testfp")
points = [SweepPoint(BENCHMARKS[n], s, 48, 2000, 1, port_scheme=p)
          for n in ("mcf", "milc")
          for s, p in (("sharing", "none"), ("conventional", "bypass_filter"))]
keys = [cache.key_for_point(p) for p in points]
keys.append(trace_key(BENCHMARKS["mcf"], 2000, 1, fingerprint="genfp"))
print(json.dumps(keys))
"""


def test_keys_do_not_depend_on_the_hash_seed():
    src = Path(__file__).resolve().parent.parent / "src"
    keys = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", _KEYS_SCRIPT], env=env,
                             capture_output=True, text=True, check=True)
        keys.append(json.loads(out.stdout))
    assert keys[0] == keys[1]
    assert len(set(keys[0])) == len(keys[0])


def test_keys_change_with_nested_and_replaced_fields():
    config = make_config(PROFILE, "sharing", 48)
    base = point_key(config, PROFILE, 800, 1, FP)
    deeper = replace(config, fu_config={**dict(config.fu_config),
                                        "alu": (2, 1, True)})
    assert point_key(deeper, PROFILE, 800, 1, FP) != base
    assert point_key(replace(config, rob_size=96), PROFILE, 800, 1, FP) != base
    skewed = replace(PROFILE, consumer_dist={**PROFILE.consumer_dist, 1: 0.3})
    assert point_key(config, skewed, 800, 1, FP) != base
    assert trace_key(skewed, 800, 1, fingerprint=FP) \
        != trace_key(PROFILE, 800, 1, fingerprint=FP)
    # the memo never outlives a replace: same content, same key
    assert point_key(replace(config), replace(PROFILE), 800, 1, FP) == base


def test_machine_config_is_frozen_and_shared():
    config = make_config(PROFILE, "sharing", 48)
    with pytest.raises(FrozenInstanceError):
        config.int_regs = 64
    assert make_config(PROFILE, "sharing", 48) is config
    # mcf and gcc are both integer profiles: one config at each size
    assert make_config(BENCHMARKS["gcc"], "sharing", 48) is config
    assert make_config(PROFILE, "sharing", 56) is not config


def test_machine_config_fu_config_is_read_only():
    # a shared config's nested units cannot drift from its cache key
    config = make_config(PROFILE, "sharing", 48)
    key = config.canonical_json()
    with pytest.raises(TypeError):
        config.fu_config["alu"] = (1, 1, True)
    assert config.canonical_json() == key
    assert replace(config, fu_config=dict(config.fu_config)) == config


def test_profiles_are_identified_by_content():
    variant = replace(PROFILE, load_frac=0.05)
    assert variant.name == PROFILE.name
    assert variant != PROFILE and hash(variant) != hash(PROFILE)
    twin = replace(PROFILE)
    assert twin is not PROFILE
    assert twin == PROFILE and hash(twin) == hash(PROFILE)
    assert len({SweepPoint(p, "sharing", 48, 800, 1)
                for p in (PROFILE, twin, variant)}) == 2


# ------------------------------------------------ same-name profile variants
VARIANT = replace(PROFILE, load_frac=0.05, store_frac=0.02,
                  working_set=1 << 12)


@pytest.mark.parametrize("jobs", [1, 2])
def test_same_name_variant_simulates_its_own_trace(jobs, tmp_path,
                                                   monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "traces"))
    points = [SweepPoint(profile, "sharing", 48, 2_000, 1)
              for profile in (PROFILE, VARIANT)]
    fresh_trace_memo(monkeypatch)
    cache = ResultCache(tmp_path / "results", fingerprint=FP)
    swept = [r.stats.to_dict() for r in run_points(points, jobs=jobs,
                                                   cache=cache)]
    alone = []
    for point in points:
        fresh_trace_memo(monkeypatch)
        alone.append(simulate_point(point).to_dict())
    assert swept == alone
    assert swept[0]["cycles"] != swept[1]["cycles"]
    # the persistent entry under the variant's key holds the variant's run
    stored = cache.get(cache.key_for_point(points[1]))
    assert stored.to_dict() == alone[1]
