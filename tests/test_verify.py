"""Tests for the commit-time differential oracle (:mod:`repro.verify`)."""

import math

import pytest

from repro import MachineConfig, assemble
from repro.core.early_release import EarlyReleaseRenamer
from repro.core.renamer import BaseRenamer
from repro.isa import FirstTouchFaults
from repro.isa.executor import ArchState
from repro.pipeline.debug import check_invariants
from repro.pipeline.processor import simulate
from repro.verify import CommitRecord, DivergenceError, OracleChecker, lockstep_run
from repro.workloads import BENCHMARKS, SyntheticWorkload

from tests.util import program_processor

ALL_SCHEMES = ["conventional", "sharing", "hinted", "early"]
PRECISE_SCHEMES = ["conventional", "sharing", "hinted"]

PROGRAM = """
.data
arr: .word 9 8 7 6 5 4 3 2
.text
main: movi x1, arr
      movi x2, 0
      movi x3, 8
      fli  f1, 0.5
      fli  f2, 0.0
loop: ld   x4, 0(x1)
      mul  x5, x4, x4
      add  x2, x2, x5
      fcvt f3, x4
      fmadd f2, f3, f1, f2
      st   x2, 0(x1)
      addi x1, x1, 8
      subi x3, x3, 1
      bnez x3, loop
      halt
"""


def _config(scheme, **overrides):
    return MachineConfig(scheme=scheme, int_regs=48, fp_regs=48, **overrides)


# -------------------------------------------------------------- lockstep runs
@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_lockstep_clean_program(scheme):
    stats = lockstep_run(_config(scheme), assemble(PROGRAM),
                         on_cycle=check_invariants)
    assert stats.committed > 0


@pytest.mark.parametrize("scheme", PRECISE_SCHEMES)
def test_lockstep_faults_architecturally_invisible(scheme):
    """The oracle's golden model runs fault-free; a faulting pipeline run
    must still commit the identical stream and end in the same state."""
    stats = lockstep_run(_config(scheme), assemble(PROGRAM),
                         fault_model=FirstTouchFaults(),
                         on_cycle=check_invariants)
    assert stats.exceptions >= 1


@pytest.mark.parametrize("scheme", PRECISE_SCHEMES)
def test_lockstep_interrupts_architecturally_invisible(scheme):
    stats = lockstep_run(_config(scheme, interrupt_interval=200),
                         assemble(PROGRAM), on_cycle=check_invariants)
    assert stats.interrupts >= 1


def test_lockstep_wrong_path_commits_clean_stream():
    stats = lockstep_run(_config("sharing", model_wrong_path=True),
                         assemble(PROGRAM), on_cycle=check_invariants)
    assert stats.committed > 0


# ---------------------------------------------------------------- corruption
def _run_with_corrupted_write(oracle, corrupt_at=30):
    """Run PROGRAM under sharing with the Nth register-file write corrupted.

    Operand verification is off so only the attached checker can notice.
    The generated kernel inlines ``write``, so the patched one needs the
    naive loop."""
    config = _config("sharing", verify_values=False)
    processor = program_processor(config, assemble(PROGRAM),
                                  on_commit=oracle.on_commit, naive_loop=True)
    real_write = processor.renamer.write
    count = 0

    def evil_write(tag, value):
        nonlocal count
        count += 1
        if count == corrupt_at and isinstance(value, int):
            value += 1
        real_write(tag, value)

    processor.renamer.write = evil_write
    return processor.run()


def test_oracle_catches_value_corruption_program_mode():
    oracle = OracleChecker(program=assemble(PROGRAM))
    with pytest.raises(DivergenceError) as excinfo:
        _run_with_corrupted_write(oracle)
    err = excinfo.value
    assert err.field.startswith("committed value")
    assert err.dyn is not None
    assert err.expected != err.actual
    # the report carries a window of the commits leading up to the failure
    assert err.window
    assert all(isinstance(record, CommitRecord) for record in err.window)


def test_oracle_catches_value_corruption_stream_mode():
    with pytest.raises(DivergenceError):
        _run_with_corrupted_write(OracleChecker())  # no program: stream mode


def test_oracle_catches_final_state_corruption():
    """Corruption that lands *after* the victim's last commit check is only
    visible in the end-of-program comparison — make sure on_halt fires.
    The caller's ``on_commit`` runs after the oracle's, so the HALT commit
    itself checks clean."""
    from repro.isa.registers import xreg

    def corrupt_on_halt(processor, dyn):
        from repro.isa.opcodes import Op
        if dyn.op is Op.HALT:
            tag = processor.renamer.committed_tag(xreg(2))
            processor.renamer.write(tag, -12345)

    with pytest.raises(DivergenceError, match="final architectural register"):
        lockstep_run(_config("sharing", verify_values=False),
                     assemble(PROGRAM), on_commit=corrupt_on_halt)


def test_oracle_catches_out_of_order_commit():
    """Stream mode flags a non-monotonic committed sequence."""
    workload = list(SyntheticWorkload(BENCHMARKS["gcc"], total_insts=400,
                                      seed=3))
    workload[50].seq, workload[51].seq = workload[51].seq, workload[50].seq
    with pytest.raises(DivergenceError, match="commit order"):
        lockstep_run(_config("conventional"), iter(workload))


# ------------------------------------------------------------- oracle plumbing
def test_stream_mode_oracle_on_synthetic_workload():
    workload = SyntheticWorkload(BENCHMARKS["hmmer"], total_insts=2000, seed=1)
    stats = lockstep_run(_config("sharing"), iter(workload))
    assert stats.committed == 2000


def test_oracle_does_not_perturb_timing():
    program = assemble(PROGRAM)
    plain = simulate(_config("sharing"), program)
    checked = lockstep_run(_config("sharing"), program)
    assert checked.to_dict() == plain.to_dict()


def test_commit_time_value_stability_flags():
    """Early release legitimately recycles committed-referenced registers,
    so its per-commit value check must be declared unstable."""
    assert BaseRenamer.commit_time_value_stable is True
    assert EarlyReleaseRenamer.commit_time_value_stable is False


def test_lockstep_max_insts_partial_run():
    """A run cut short by max_insts still checks the committed prefix."""
    stats = lockstep_run(_config("sharing"), assemble(PROGRAM), max_insts=20)
    # commit width can overshoot the budget within the final cycle
    assert 20 <= stats.committed <= 24


# ------------------------------------------------------------------ utilities
def test_diff_regs_reports_mismatches_nan_aware():
    a = ArchState()
    b = ArchState()
    a.int_regs[3] = 7
    a.fp_regs[2] = math.nan
    b.fp_regs[2] = math.nan  # NaN == NaN for verification purposes
    diffs = a.diff_regs(b.int_regs, b.fp_regs)
    assert diffs == ["x3: expected 7, got 0"]
    b.int_regs[3] = 7
    b.fp_regs[5] = -1.5
    diffs = a.diff_regs(b.int_regs, b.fp_regs)
    assert diffs == ["f5: expected 0.0, got -1.5"]


def test_commit_record_str_is_readable():
    record = CommitRecord(seq=4, pc=2, op="add", cycle=17, dest="x2",
                          value=9, mem_addr=None)
    text = str(record)
    assert "[4@2] add" in text and "x2=9" in text


# ------------------------------------------------------------------------ CLI
def test_cli_verify_single_kernel(capsys):
    from repro.cli import main

    assert main(["verify", "--kernel", "fir", "--scheme", "sharing"]) == 0
    out = capsys.readouterr().out
    assert "all verification runs passed" in out
    assert "ok    sharing" in out
