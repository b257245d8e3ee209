"""Tests for the command-line interface."""

import pytest

from repro.cli import main


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
