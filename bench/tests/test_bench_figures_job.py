"""bench/figures_job.py --seed 1 prints what the figures command prints.

Runs the cold figure job once (about half a minute on two cores), then
the CLI against the same, now warm, result cache.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def test_figures_job_is_byte_identical_to_the_cli(tmp_path):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("REPRO_CACHE_DIR", "REPRO_TRACE_DIR", "REPRO_KERNEL_DIR"):
        env[var] = str(tmp_path / var)

    def stdout(*argv):
        return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                              capture_output=True, check=True).stdout

    job = stdout("bench/figures_job.py", "--seed", "1")
    cli = stdout("-m", "repro", "figures", "headline", "fig10", "fig11",
                 "--jobs", "2")
    assert job == cli
    reference = json.loads((ROOT / "bench" / "reference.json").read_text())
    assert reference["seed"] == 1
    assert hashlib.sha256(job).hexdigest() == \
        reference["stdout_sha256"]["fig-exact-cold"]
