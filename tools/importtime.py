#!/usr/bin/env python
"""Import-time report of a warm figure run.

Runs the paper-figure job's calls (Fig. 11, the three Fig. 10 suites,
the headline) at a small scale twice against a throwaway result cache:
once to prime it, then once more in a fresh interpreter under ``python
-X importtime``.  The second run simulates nothing, so what it imports
is the harness alone.  Writes the 20 imports with the largest self time,
plus the module counts, to the path given as argv[1] (default
``importtime.txt``)::

    python tools/importtime.py [importtime.txt]

Exits non-zero if the second run is not all cache hits.
"""

import os
import pathlib
import subprocess
import sys
import tempfile

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
TOP = 20

WARM_FIGURE_JOB = """
from repro.harness import ResultCache, figure10, figure11, headline
from repro.harness.runner import Scale

scale = Scale(insts=400, benchmarks_per_suite=1, sizes=(48, 64))
cache = ResultCache()
figure11(scale, cache=cache).render()
for suite in ("specfp", "specint", "media+cog"):
    figure10(suite, scale, cache=cache).render()
headline(scale, cache=cache).render()
print(cache.hits, cache.misses)
"""


def _run(args: list, env: dict) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args, "-c", WARM_FIGURE_JOB],
                          env=env, capture_output=True, text=True,
                          check=True, timeout=600)


def _imports(stderr: str) -> list:
    """``(self_us, cumulative_us, module)`` per ``-X importtime`` line."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if not fields[0].strip().isdigit():
            continue  # the header line
        rows.append((int(fields[0]), int(fields[1]), fields[2].strip()))
    return rows


def main(argv: list) -> int:
    out = pathlib.Path(argv[1] if len(argv) > 1 else "importtime.txt")
    with tempfile.TemporaryDirectory(prefix="repro-importtime-") as tmp:
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        env["REPRO_CACHE_DIR"] = tmp
        _run([], env)
        warm = _run(["-X", "importtime"], env)
    hits, misses = warm.stdout.split()
    if misses != "0":
        print(f"warm run missed the result cache: {hits} hit(s), "
              f"{misses} miss(es)", file=sys.stderr)
        return 1

    rows = _imports(warm.stderr)
    repro = [row for row in rows if row[2].lstrip().split(".")[0] == "repro"]
    lines = [
        "# warm figure run, python -X importtime: the "
        f"{TOP} largest self-time imports",
        f"# {len(rows)} modules imported, {len(repro)} of them repro; "
        f"self time {sum(r[0] for r in rows) / 1e3:.1f} ms in all, "
        f"{sum(r[0] for r in repro) / 1e3:.1f} ms in repro",
        f"{'self_us':>9s} {'cumulative_us':>13s}  module",
    ]
    for self_us, cumulative_us, module in sorted(rows, reverse=True)[:TOP]:
        lines.append(f"{self_us:9d} {cumulative_us:13d}  {module}")
    out.write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
