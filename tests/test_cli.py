"""Tests for the command-line interface."""

import pstats
import re

import pytest

from repro.cli import main
from repro.codegen import kernel_fingerprint
from repro.pipeline.config import MachineConfig


def test_bench_command(capsys):
    assert main(["bench", "adpcm", "--insts", "1500", "--no-verify"]) == 0
    out = capsys.readouterr().out
    assert "IPC" in out
    assert "register reuse" in out


def test_bench_unknown_benchmark(capsys):
    assert main(["bench", "nosuch"]) == 1
    assert "unknown benchmark" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["sweep", "sample"])
def test_bench_retired_harness_names_are_unknown(name, capsys):
    assert main(["bench", name]) == 1
    assert "unknown benchmark" in capsys.readouterr().err


def test_bench_requires_a_profile_name(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["bench"])
    assert excinfo.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_run_command(tmp_path, capsys):
    program = tmp_path / "prog.s"
    program.write_text(
        """
        main: movi x1, 20
              movi x2, 0
        loop: add  x2, x2, x1
              subi x1, x1, 1
              bnez x1, loop
              halt
        """
    )
    assert main(["run", str(program), "--scheme", "conventional"]) == 0
    out = capsys.readouterr().out
    assert "instructions" in out


def test_compare_command(capsys):
    assert main(["compare", "gsm", "--sizes", "48,96", "--insts", "2000"]) == 0
    out = capsys.readouterr().out
    assert "baseline" in out and "proposed" in out
    assert out.count("%") >= 2


def test_kernels_list(capsys):
    assert main(["kernels", "--list"]) == 0
    out = capsys.readouterr().out
    assert "gmm" in out and "adpcm" in out


def test_kernels_run(capsys):
    assert main(["kernels", "fir", "--no-verify"]) == 0
    assert "kernel fir" in capsys.readouterr().out


def test_kernels_unknown(capsys):
    assert main(["kernels", "bogus"]) == 1


def test_motivation_command(capsys):
    assert main(["motivation", "lbm", "--insts", "3000"]) == 0
    out = capsys.readouterr().out
    assert "single-consumer" in out
    assert "reuse chains" in out


@pytest.mark.parametrize("switch, value, command", [
    ("REPRO_SCALE", "Full", ["figures", "fig12"]),
    ("REPRO_JOBS", "banana", ["compare", "gsm", "--sizes", "48",
                              "--insts", "500"]),
    ("REPRO_SAMPLING", "banana", ["compare", "gsm", "--sizes", "48",
                                  "--insts", "500"]),
])
def test_bad_environment_switch_is_a_usage_error(switch, value, command,
                                                 monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv(switch, value)
    assert main(command) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and value in err
    assert "Traceback" not in err


def test_scheme_choices_enforced():
    with pytest.raises(SystemExit):
        main(["bench", "gcc", "--scheme", "bogus"])


def test_early_scheme_via_cli(capsys):
    assert main(["bench", "hmmer", "--insts", "1500", "--scheme", "early",
                 "--no-verify"]) == 0
    assert "IPC" in capsys.readouterr().out


def test_detailed_flag(capsys):
    assert main(["bench", "gsm", "--insts", "1200", "--no-verify",
                 "--detailed"]) == 0
    out = capsys.readouterr().out
    assert "avg ROB occupancy" in out
    assert "dest renames" in out


def test_hinted_scheme_on_kernel(capsys):
    assert main(["kernels", "fir", "--scheme", "hinted", "--no-verify"]) == 0
    assert "IPC" in capsys.readouterr().out


def test_wrong_path_flag(capsys):
    assert main(["bench", "gobmk", "--insts", "1500", "--no-verify",
                 "--wrong-path", "--detailed"]) == 0
    assert "wrong-path squashed" in capsys.readouterr().out


def _profiled_bench(tmp_path, capsys, *extra):
    """Run ``repro bench`` under ``--profile``; returns its stdout after
    checking the pstats file loads and the listing printed."""
    path = tmp_path / "bench.pstats"
    assert main(["bench", "gsm", "--insts", "3000", "--profile", str(path),
                 *extra]) == 0
    out = capsys.readouterr().out
    assert pstats.Stats(str(path)).total_calls > 0
    assert "Ordered by: cumulative time" in out
    return out


@pytest.mark.parametrize("scheme, loop", [("sharing", "generated"),
                                          ("early", "naive")])
def test_bench_profile_exact(scheme, loop, tmp_path, capsys):
    out = _profiled_bench(tmp_path, capsys, "--scheme", scheme)
    config = MachineConfig(scheme=scheme, int_regs=64, fp_regs=64)
    want = (f"loop=generated kernel={kernel_fingerprint(config)}"
            if loop == "generated" else "loop=naive")
    assert want in out.splitlines()
    assert "IPC" in out


def test_bench_profile_sampled(tmp_path, capsys):
    # a period longer than the warm zone, so the engine also skims
    out = _profiled_bench(tmp_path, capsys, "--insts", "12000",
                          "--sampling", "5000:150:100")
    calls = {}
    for line in out.splitlines():
        match = re.match(r"  (\w+) +[\d.]+ms +[\d.]+%  \((\d+) calls\)$",
                         line)
        if match:
            calls[match[1]] = int(match[2])
    assert list(calls) == ["skim", "fast_forward", "window"]
    assert all(calls.values()), calls
    assert re.search(r"^  other +-?[\d.]+ms", out, re.M)
    # windows run unverified: the loop line names the kernel they got
    config = MachineConfig(scheme="sharing", int_regs=64, fp_regs=64,
                           verify_values=False)
    assert f"loop=generated kernel={kernel_fingerprint(config)}" in \
        out.splitlines()
    assert "IPC estimate" in out
