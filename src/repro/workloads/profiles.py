"""Per-benchmark statistical profiles.

Each profile controls the synthetic generator so that the *measured*
properties of the dynamic stream match the benchmark's qualitative
behaviour as reported in the paper's motivation study:

* ``consumer_dist`` — distribution of consumers per produced value
  (Figure 2: most SPEC values are consumed exactly once, more so in fp);
* ``chain_frac`` — of single-use values, the fraction whose consumer
  redefines the same logical register (the split in Figure 1; it drives
  guaranteed vs predicted reuses and chain lengths in Figure 3);
* opcode mix, branch behaviour and memory locality, which determine the
  benchmark's baseline IPC and how register-file pressure manifests.

The absolute values are calibrated to the paper's aggregate claims
(SPECfp: >50% single-consumer instructions; SPECint: >30%) with
per-benchmark variation reflecting well-known behaviour (mcf is
memory-bound, libquantum streams, gcc/gobmk are branchy, ...).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field


@dataclass(frozen=True, eq=False)
class WorkloadProfile:
    """Statistical description of one benchmark.

    A profile is identified by its content: :meth:`canonical_json`, the
    sorted-key JSON of every field, is what equality, hashing, the result
    and trace cache keys and every process-local memo key on.  Two
    profiles that share a ``name`` but differ in any field are different
    workloads.
    """

    name: str
    suite: str  # 'specint' | 'specfp' | 'mediabench' | 'cognitive'

    #: consumers-per-value distribution; keys 1..6 (6 = "six or more")
    consumer_dist: dict = field(
        default_factory=lambda: {1: 0.5, 2: 0.25, 3: 0.12, 4: 0.07, 5: 0.04, 6: 0.02}
    )
    #: of single-use values, fraction whose consumer redefines the register
    chain_frac: float = 0.5

    # opcode mix (fractions of all instructions; remainder is int ALU)
    fp_frac: float = 0.0
    load_frac: float = 0.22
    store_frac: float = 0.10
    branch_frac: float = 0.12
    mul_frac: float = 0.02
    div_frac: float = 0.004
    fpdiv_frac: float = 0.0  # of fp ops, fraction that are divides/sqrt

    # branch behaviour: fraction of static conditional branches whose
    # outcome is data-dependent (50/50), the rest are heavily biased
    hard_branch_frac: float = 0.08

    # memory behaviour
    working_set: int = 1 << 20  # bytes touched by random accesses
    stream_frac: float = 0.6  # fraction of static loads/stores that stride

    # code footprint: number of distinct loop bodies (I-cache pressure)
    n_bodies: int = 2
    body_size: int = 96  # static instructions per body

    # instruction-level parallelism: fraction of values consumed at short
    # distance (higher = tighter dependence chains, lower ILP)
    locality: float = 0.6
    #: number of loop-carried accumulator chains per register class
    accumulators: int = 1

    def canonical_json(self) -> str:
        """Sorted-key JSON of every field, memoised on the instance.

        ``dataclasses.replace`` builds a new instance, so the memo can
        never describe a stale profile.
        """
        text = self.__dict__.get("_canonical_json")
        if text is None:
            text = json.dumps(asdict(self), sort_keys=True, default=repr)
            object.__setattr__(self, "_canonical_json", text)
        return text

    # equality and hashing both use the canonical JSON, so they agree (the
    # generated __hash__ would hash the consumer_dist dict and raise)
    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self.canonical_json() == other.canonical_json()

    def __hash__(self) -> int:
        return hash(self.canonical_json())


def _p(name, suite, one, two, three, chain, **kw) -> WorkloadProfile:
    rest = max(0.0, 1.0 - one - two - three)
    dist = {
        1: one,
        2: two,
        3: three,
        4: rest * 0.5,
        5: rest * 0.3,
        6: rest * 0.2,
    }
    return WorkloadProfile(name=name, suite=suite, consumer_dist=dist,
                           chain_frac=chain, **kw)


# --------------------------------------------------------------------- SPECint
SPECINT: list[WorkloadProfile] = [
    _p("perlbench", "specint", 0.42, 0.27, 0.14, 0.42, branch_frac=0.16,
       hard_branch_frac=0.10, working_set=8 << 20, n_bodies=4, stream_frac=0.4),
    _p("bzip2", "specint", 0.46, 0.26, 0.12, 0.48, branch_frac=0.13,
       hard_branch_frac=0.14, working_set=4 << 20, stream_frac=0.5),
    _p("gcc", "specint", 0.40, 0.28, 0.15, 0.40, branch_frac=0.18,
       hard_branch_frac=0.12, working_set=16 << 20, n_bodies=5, stream_frac=0.3),
    _p("mcf", "specint", 0.44, 0.27, 0.13, 0.44, load_frac=0.30,
       branch_frac=0.14, working_set=64 << 20, stream_frac=0.1,
       hard_branch_frac=0.12),
    _p("gobmk", "specint", 0.41, 0.28, 0.14, 0.40, branch_frac=0.19,
       hard_branch_frac=0.16, working_set=2 << 20, n_bodies=4),
    _p("hmmer", "specint", 0.52, 0.25, 0.11, 0.55, branch_frac=0.08,
       hard_branch_frac=0.04, working_set=1 << 20, stream_frac=0.8, locality=0.7),
    _p("sjeng", "specint", 0.42, 0.28, 0.13, 0.42, branch_frac=0.17,
       hard_branch_frac=0.15, working_set=2 << 20),
    _p("libquantum", "specint", 0.55, 0.24, 0.10, 0.58, load_frac=0.28,
       branch_frac=0.10, hard_branch_frac=0.02, working_set=32 << 20,
       stream_frac=0.95, locality=0.75),
    _p("h264ref", "specint", 0.50, 0.26, 0.11, 0.52, branch_frac=0.10,
       hard_branch_frac=0.06, working_set=4 << 20, stream_frac=0.7,
       mul_frac=0.05),
    _p("omnetpp", "specint", 0.43, 0.27, 0.13, 0.42, load_frac=0.28,
       branch_frac=0.15, hard_branch_frac=0.11, working_set=32 << 20,
       stream_frac=0.2),
    _p("astar", "specint", 0.45, 0.27, 0.12, 0.46, branch_frac=0.15,
       hard_branch_frac=0.13, working_set=16 << 20, stream_frac=0.3),
    _p("xalancbmk", "specint", 0.42, 0.28, 0.14, 0.40, load_frac=0.29,
       branch_frac=0.16, hard_branch_frac=0.09, working_set=16 << 20,
       n_bodies=5, stream_frac=0.3),
]

# --------------------------------------------------------------------- SPECfp
SPECFP: list[WorkloadProfile] = [
    _p("bwaves", "specfp", 0.66, 0.20, 0.08, 0.62, fp_frac=0.50, load_frac=0.28,
       store_frac=0.08, branch_frac=0.04, hard_branch_frac=0.01,
       working_set=48 << 20, stream_frac=0.95, locality=0.7),
    _p("gamess", "specfp", 0.58, 0.24, 0.10, 0.58, fp_frac=0.45,
       branch_frac=0.08, hard_branch_frac=0.03, working_set=1 << 20),
    _p("milc", "specfp", 0.64, 0.21, 0.09, 0.60, fp_frac=0.52, load_frac=0.30,
       branch_frac=0.03, hard_branch_frac=0.01, working_set=32 << 20,
       stream_frac=0.9),
    _p("zeusmp", "specfp", 0.62, 0.22, 0.09, 0.60, fp_frac=0.48,
       branch_frac=0.05, hard_branch_frac=0.02, working_set=32 << 20,
       stream_frac=0.85),
    _p("gromacs", "specfp", 0.58, 0.24, 0.10, 0.56, fp_frac=0.46,
       branch_frac=0.07, hard_branch_frac=0.03, working_set=4 << 20,
       fpdiv_frac=0.04),
    _p("cactusADM", "specfp", 0.68, 0.19, 0.08, 0.64, fp_frac=0.55,
       load_frac=0.30, branch_frac=0.02, hard_branch_frac=0.01,
       working_set=32 << 20, stream_frac=0.9, locality=0.7),
    _p("leslie3d", "specfp", 0.64, 0.21, 0.09, 0.62, fp_frac=0.50,
       branch_frac=0.04, hard_branch_frac=0.01, working_set=32 << 20,
       stream_frac=0.9),
    _p("namd", "specfp", 0.58, 0.24, 0.10, 0.56, fp_frac=0.50,
       branch_frac=0.06, hard_branch_frac=0.02, working_set=2 << 20,
       fpdiv_frac=0.03),
    _p("dealII", "specfp", 0.54, 0.25, 0.12, 0.52, fp_frac=0.40,
       branch_frac=0.10, hard_branch_frac=0.05, working_set=8 << 20),
    _p("soplex", "specfp", 0.52, 0.26, 0.12, 0.50, fp_frac=0.35,
       load_frac=0.28, branch_frac=0.11, hard_branch_frac=0.06,
       working_set=16 << 20, stream_frac=0.4),
    _p("povray", "specfp", 0.52, 0.26, 0.12, 0.50, fp_frac=0.38,
       branch_frac=0.13, hard_branch_frac=0.07, working_set=1 << 20,
       fpdiv_frac=0.05),
    _p("calculix", "specfp", 0.58, 0.23, 0.10, 0.58, fp_frac=0.45,
       branch_frac=0.07, hard_branch_frac=0.03, working_set=8 << 20,
       stream_frac=0.7),
    _p("GemsFDTD", "specfp", 0.64, 0.21, 0.09, 0.62, fp_frac=0.50,
       load_frac=0.30, branch_frac=0.03, hard_branch_frac=0.01,
       working_set=32 << 20, stream_frac=0.9),
    _p("tonto", "specfp", 0.56, 0.24, 0.11, 0.56, fp_frac=0.42,
       branch_frac=0.09, hard_branch_frac=0.04, working_set=4 << 20),
    _p("lbm", "specfp", 0.70, 0.18, 0.07, 0.66, fp_frac=0.55, load_frac=0.28,
       store_frac=0.14, branch_frac=0.01, hard_branch_frac=0.01,
       working_set=64 << 20, stream_frac=0.98, locality=0.75),
    _p("wrf", "specfp", 0.60, 0.23, 0.10, 0.58, fp_frac=0.48,
       branch_frac=0.06, hard_branch_frac=0.02, working_set=16 << 20,
       stream_frac=0.8),
    _p("sphinx3", "specfp", 0.58, 0.23, 0.11, 0.56, fp_frac=0.44,
       load_frac=0.30, branch_frac=0.08, hard_branch_frac=0.04,
       working_set=8 << 20, stream_frac=0.7),
]

# ------------------------------------------------------------------ Mediabench
MEDIABENCH: list[WorkloadProfile] = [
    _p("jpeg", "mediabench", 0.56, 0.24, 0.10, 0.55, branch_frac=0.09,
       hard_branch_frac=0.04, working_set=512 << 10, stream_frac=0.85,
       mul_frac=0.06),
    _p("mpeg2", "mediabench", 0.58, 0.23, 0.10, 0.56, branch_frac=0.08,
       hard_branch_frac=0.04, working_set=1 << 20, stream_frac=0.9,
       mul_frac=0.05),
    _p("adpcm", "mediabench", 0.60, 0.22, 0.09, 0.60, branch_frac=0.12,
       hard_branch_frac=0.08, working_set=64 << 10, stream_frac=0.95,
       locality=0.8),
    _p("epic", "mediabench", 0.58, 0.23, 0.10, 0.56, fp_frac=0.30,
       branch_frac=0.07, hard_branch_frac=0.03, working_set=1 << 20,
       stream_frac=0.85),
    _p("g721", "mediabench", 0.56, 0.24, 0.11, 0.56, branch_frac=0.11,
       hard_branch_frac=0.06, working_set=64 << 10, locality=0.75),
    _p("gsm", "mediabench", 0.58, 0.23, 0.10, 0.58, branch_frac=0.09,
       hard_branch_frac=0.04, working_set=128 << 10, stream_frac=0.9,
       mul_frac=0.07),
    _p("pegwit", "mediabench", 0.52, 0.26, 0.12, 0.50, branch_frac=0.10,
       hard_branch_frac=0.05, working_set=256 << 10, mul_frac=0.08),
    _p("mesa", "mediabench", 0.56, 0.24, 0.10, 0.54, fp_frac=0.35,
       branch_frac=0.08, hard_branch_frac=0.04, working_set=2 << 20,
       stream_frac=0.8),
]

# ------------------------------------------------------------------- cognitive
COGNITIVE: list[WorkloadProfile] = [
    _p("gmm", "cognitive", 0.66, 0.20, 0.08, 0.62, fp_frac=0.55,
       load_frac=0.30, store_frac=0.04, branch_frac=0.04,
       hard_branch_frac=0.01, working_set=16 << 20, stream_frac=0.95,
       locality=0.7),
    _p("dnn", "cognitive", 0.68, 0.19, 0.08, 0.64, fp_frac=0.55,
       load_frac=0.32, store_frac=0.04, branch_frac=0.03,
       hard_branch_frac=0.01, working_set=32 << 20, stream_frac=0.98,
       locality=0.7),
]

#: All benchmarks by name.
BENCHMARKS: dict[str, WorkloadProfile] = {
    p.name: p for p in SPECINT + SPECFP + MEDIABENCH + COGNITIVE
}


def suite(name: str) -> list[WorkloadProfile]:
    """Profiles of one suite: 'specint', 'specfp', 'mediabench', 'cognitive'."""
    profiles = [p for p in BENCHMARKS.values() if p.suite == name]
    if not profiles:
        raise ValueError(f"unknown suite {name!r}")
    return profiles
