"""Benchmark of the paper-figure job: end-to-end metrics from untraced
runs, a per-layer split from a traced run.

Suite mode runs every workload, reps round-robin, then one traced run
per workload; it prints every metric and appends one JSON record to
``--out`` (read by ``bench/compare.py``)::

    python bench/run.py [--seed N] [--out PATH]

One run of one workload, the form ``BENCHMARK.json``'s command takes;
the last stdout line is the JSON result, with the end-to-end metrics
under ``--trace 0`` and the per-layer split under ``--trace 1``::

    python bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every job is a subprocess of this one process, one at a time, with at
most two sweep workers.  Inherited ``REPRO_*`` variables are scrubbed,
``HOME`` and ``TMPDIR`` point into the run's sandbox, and cold reps get
fresh cache directories.  The sandbox lives under ``.bench_work/`` in
the checkout and is removed at exit.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import summary
from spans import layer_metrics, load_spans, residual_problems
from workloads import BY_NAME, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: set-up probes per driver run (their median is setup_s)
SETUP_PROBES = 3
#: wall-clock bound of one job execution
JOB_TIMEOUT = 120.0
#: a driver run starts no further rep that would end later than this
RUN_BUDGET = 150.0
#: the program's cache locations, fresh per cold rep
CACHE_DIRS = ("REPRO_CACHE_DIR", "REPRO_TRACE_DIR", "REPRO_KERNEL_DIR",
              "REPRO_JOURNAL_DIR")
#: the paper's headline numbers (PAPER.md, section VI)
PAPER_SPEEDUP_PCT = 6.0
PAPER_SAVING_PCT = 10.5

#: The host this runs on is shared: the same computation takes up to
#: twice as long from one second to the next, and +-20% from one minute
#: to the next, in CPU time as much as in wall time.  Every timed job is
#: paired with a measure of how much slower than a reference speed the
#: host ran, and reported times are divided by that slowdown: they are
#: host seconds at the reference speed.
#:
#: While a job runs, a thread of this process times a fixed burst of
#: interpreter work in thread CPU time every SPEED_PERIOD seconds (about
#: 2% of one core); the slowdown is the mean burst time over
#: SPEED_REFERENCE.  A job shorter than QUICK_JOB spends its time
#: starting an interpreter, importing and parsing, which the burst does
#: not track: a fixed stdlib-only REFERENCE_JOB runs right after it, and
#: its slowdown is the reference's wall time over REFERENCE_WALL.  Both
#: constants were measured side by side, so the two gauges agree.
SPEED_PERIOD = 0.05
SPEED_BURST = 8000
#: the burst's mean CPU time on a 2-vCPU Xeon at 2.1 GHz over a minute
SPEED_REFERENCE = 1.2e-3
REFERENCE_JOB = """
import argparse, dataclasses, hashlib, json, pathlib, re, statistics
blob = json.dumps({"k%d" % i: [i, i * 2.5, "x" * (i % 7)] for i in range(60)})
table = {}
for i in range(540):
    d = json.loads(blob)
    hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()
    for j in range(200):
        table[j & 63] = table.get((j * 7) & 63, 0) + j
"""
#: REFERENCE_JOB's wall time at the burst's reference speed
REFERENCE_WALL = 0.17
QUICK_JOB = 1.0


# ------------------------------------------------------------- processes
def _speed_burst() -> int:
    table: dict = {}
    total = 0
    for i in range(SPEED_BURST):
        table[i & 255] = i
        total += table.get((i * 7) & 255, 0)
    return total


class SpeedProbe:
    """Samples the host's speed from a thread while a job runs."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        while True:
            start = time.thread_time()
            _speed_burst()
            self.samples.append(time.thread_time() - start)
            if self._stop.wait(SPEED_PERIOD):
                return

    @property
    def slowdown(self) -> float:
        return sum(self.samples) / len(self.samples) / SPEED_REFERENCE


@dataclass
class Job:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    stdout: bytes
    stderr: str
    timed_out: bool
    #: host slowdown against the reference speed while the job ran
    #: (set by Bench._execute)
    slowdown: float = 1.0
    #: perf_counter when the job and all its processes had ended
    ended: float = 0.0

    @property
    def norm_wall(self) -> float:
        return self.wall / self.slowdown

    @property
    def norm_cpu(self) -> float:
        return self.cpu / self.slowdown


def _become_subreaper() -> None:
    """Re-parent orphaned grandchildren (the resource tracker a sweep
    starts) to this process, so they can be waited for."""
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _reap() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _end_group(pgid: int) -> None:
    """Wait until no process of the job's group is left; kill what is
    still there after a grace period."""
    deadline = time.monotonic() + 5.0
    killed = False
    while True:
        _reap()
        try:
            os.killpg(pgid, 0)
        except (ProcessLookupError, PermissionError):
            return
        if time.monotonic() > deadline:
            if killed:
                return  # not our child, so not ours to wait for
            _kill_group(pgid)
            killed = True
            deadline = time.monotonic() + 5.0
        time.sleep(0.01)


def run_job(argv: list[str], env: dict, scratch: Path,
            timeout: float = JOB_TIMEOUT) -> Job:
    """Run ``python argv...`` from the checkout root; wall time, and
    CPU time and peak RSS of its process tree from ``os.wait4``."""
    with open(scratch / "stdout", "w+b") as out, \
            open(scratch / "stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, start_new_session=True)
        fired = threading.Event()

        def expire():
            fired.set()
            _kill_group(proc.pid)

        timer = threading.Timer(timeout, expire)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            ended = time.perf_counter()
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        _end_group(proc.pid)
        out.seek(0)
        err.seek(0)
        return Job(wall=ended - start, cpu=usage.ru_utime + usage.ru_stime,
                   rss_mb=usage.ru_maxrss / 1024, code=proc.returncode,
                   stdout=out.read(),
                   stderr=err.read().decode("utf-8", "replace"),
                   timed_out=fired.is_set(), ended=ended)


# ------------------------------------------------------------ isolation
def scrub(environ) -> tuple[dict, dict]:
    """(environment for the jobs, the REPRO_* variables removed from it).

    A stray REPRO_SAMPLING, REPRO_NO_KERNEL, REPRO_SCALE or REPRO_JOBS
    would silently change what is measured.
    """
    removed = {k: v for k, v in environ.items() if k.startswith("REPRO_")}
    return {k: v for k, v in environ.items() if k not in removed}, removed


class Sandbox:
    """The run's scratch space inside the checkout."""

    def __init__(self) -> None:
        base = ROOT / ".bench_work"
        base.mkdir(exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="run-", dir=base))
        self.home = self.root / "home"
        self.home.mkdir()
        (self.root / "tmp").mkdir()
        self._count = 0

    def path(self, label: str) -> Path:
        self._count += 1
        path = self.root / f"{self._count:04d}-{label}"
        path.mkdir()
        return path

    def cache_dirs(self) -> dict:
        base = self.path("caches")
        return {name: str(base / name[6:-4].lower()) for name in CACHE_DIRS}

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            self.root.parent.rmdir()
        except OSError:
            pass  # another run's sandbox is still there


def host_meta() -> dict:
    meta = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": None, "loadavg_before": list(os.getloadavg()),
            "git_head": None, "git_dirty": None}
    try:
        meta["numpy"] = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        pass
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        head = subprocess.run(git + ["rev-parse", "HEAD"],
                              capture_output=True, text=True)
        status = subprocess.run(git + ["status", "--porcelain"],
                                capture_output=True, text=True)
        if head.returncode == 0 and status.returncode == 0:
            meta["git_head"] = head.stdout.strip()
            meta["git_dirty"] = bool(status.stdout.strip())
    return meta


# -------------------------------------------------------------- outputs
def job_counts(workload: Workload, stdout: bytes, dirs: dict) -> tuple[int, int]:
    """(committed instructions, simulated cycles) behind the job's
    output: its result-cache entries, or the point's printed stats."""
    if workload.kind == "point":
        text = stdout.decode("utf-8", "replace")
        found = [re.search(rf"^{key}\s+(\d+)", text, re.M)
                 for key in ("instructions", "cycles")]
        return tuple(int(m.group(1)) if m else 0 for m in found)
    insts = cycles = 0
    for path in Path(dirs["REPRO_CACHE_DIR"]).glob("??/*.json"):
        entry = json.loads(path.read_text())
        stats = entry.get("est", entry)
        insts += stats["committed"]
        cycles += stats["cycles"]
    return insts, cycles


def accuracy(stdout: bytes) -> dict:
    """Distance of the reproduced headline from the paper's, in
    percentage points, as the job printed it (one decimal)."""
    text = stdout.decode("utf-8", "replace")
    speedup = re.search(r"speedup \(equal area\): (-?[\d.]+)%", text)
    saving = re.findall(r"iso-IPC register saving: (-?[\d.]+)%", text)
    if not speedup or not saving:
        return {}
    return {"headline_err_pp": round(abs(float(speedup.group(1))
                                         - PAPER_SPEEDUP_PCT), 1),
            "iso_ipc_err_pp": round(abs(float(saving[-1])
                                        - PAPER_SAVING_PCT), 1)}


@dataclass
class Rep:
    job: Job
    digest: str
    insts: int
    cycles: int
    ok: bool

    @property
    def insts_per_s(self) -> float:
        return self.insts / self.job.norm_wall


class Bench:
    """Runs a workload's jobs, checks each output, counts failures."""

    def __init__(self, sandbox: Sandbox, env: dict, reference: dict) -> None:
        self.sandbox = sandbox
        self.env = env
        #: job command line -> the stdout digest every run must print
        self.expected = reference
        self.warm_dirs: dict[str, dict] = {}
        self.attempted: dict[str, int] = {}
        self.problems: dict[str, list[str]] = {}

    def _execute(self, label: str, argv: list[str],
                 dirs: dict) -> tuple[Job, list[str]]:
        """Run one job and gauge the host's slowdown alongside it (see
        SPEED_PERIOD)."""
        with SpeedProbe() as speed:
            job = run_job(argv, {**self.env, **dirs}, self.sandbox.path(label))
        job.slowdown = speed.slowdown
        if job.wall < QUICK_JOB:
            reference = run_job(["-c", REFERENCE_JOB], self.env,
                                self.sandbox.path("reference"))
            job.slowdown = reference.wall / REFERENCE_WALL
        problems = []
        if job.timed_out:
            problems.append(f"timed out after {JOB_TIMEOUT:.0f} s")
        elif job.code != 0:
            problems.append(f"exit code {job.code}: "
                            f"{job.stderr.strip()[-500:]}")
        if (self.sandbox.home / ".cache" / "repro").exists():
            problems.append("wrote under ~/.cache/repro")
        return job, problems

    def _record(self, workload: Workload, label: str, problems) -> bool:
        self.attempted[workload.name] = self.attempted.get(workload.name, 0) + 1
        if problems:
            self.problems.setdefault(workload.name, []).append(
                f"{label}: {'; '.join(problems)}")
        return not problems

    def failed(self, workload: Workload) -> int:
        return len(self.problems.get(workload.name, []))

    def dirs_for(self, workload: Workload) -> dict:
        if workload.caches == "warm":
            return self.warm_dirs[workload.name]
        return self.sandbox.cache_dirs()

    def _run(self, workload: Workload, seed: int, dirs: dict, cold: bool,
             label: str, prefix: tuple = ()) -> tuple[Rep, list[str]]:
        """One execution of the workload's job (behind ``prefix``, the
        traced runner), checked: exit status, the result-cache summary,
        committed instructions, and a stdout digest equal to the
        reference (or to the first run's)."""
        job, problems = self._execute(label, [*prefix, *workload.argv(seed)],
                                      dirs)
        digest = hashlib.sha256(job.stdout).hexdigest()
        insts, cycles = job_counts(workload, job.stdout, dirs)
        line = workload.cache_line(cold)
        if line is not None and line not in job.stderr:
            problems.append(f"stderr lacks {line!r}")
        if insts != workload.expected_insts:
            problems.append(f"{insts} committed instructions, expected "
                            f"{workload.expected_insts}")
        expected = self.expected.setdefault(" ".join(workload.argv(seed)),
                                            digest)
        if digest != expected:
            problems.append(f"stdout sha256 {digest[:12]} != {expected[:12]}")
        return Rep(job, digest, insts, cycles, not problems), problems

    def rep(self, workload: Workload, seed: int) -> Rep:
        """One checked, timed execution of the workload's job."""
        rep, problems = self._run(workload, seed, self.dirs_for(workload),
                                  workload.caches == "cold", workload.name)
        self._record(workload, workload.name, problems)
        return rep

    def prime(self, workload: Workload, seed: int) -> None:
        """Fill a warm workload's caches with one untimed cold run."""
        dirs = self.warm_dirs[workload.name] = self.sandbox.cache_dirs()
        _, problems = self._run(workload, seed, dirs, True, "prime")
        self._record(workload, "priming run", problems)

    def probe(self, workload: Workload, seed: int) -> float:
        """Normalized wall time of one fresh-interpreter set-up probe."""
        job, problems = self._execute(
            "probe",
            ["bench/probe.py", "--workload", workload.name, "--seed", str(seed)],
            self.dirs_for(workload))
        self._record(workload, "set-up probe", problems)
        return job.norm_wall

    def traced(self, workload: Workload, seed: int,
               untraced_wall: float) -> dict:
        """The per-layer split from one traced run; ``untraced_wall`` is
        the normalized median wall of the same job untraced."""
        spans = self.sandbox.path("spans")
        spawned = time.perf_counter()
        rep, problems = self._run(
            workload, seed, self.dirs_for(workload), workload.caches == "cold",
            "traced", ("bench/traced.py", "--spans", str(spans),
                       "--spawned-at", repr(spawned), "--"))
        layers = layer_metrics(load_spans(spans), spawned, rep.job.ended,
                               untraced_wall, rep.job.slowdown)
        problems += residual_problems(layers)
        self._record(workload, "traced run", problems)
        return layers

    def timed_reps(self, workload: Workload, seed: int, seconds: float,
                   begun: float) -> list[Rep]:
        """Reps until ``seconds`` have been measured and the workload's
        minimum made, unless the run's time budget is spent."""
        reps: list[Rep] = []
        start = time.monotonic()
        while True:
            reps.append(self.rep(workload, seed))
            now = time.monotonic()
            done = (now - start >= seconds
                    and len(reps) >= workload.min_reps)
            if done or now - begun + reps[-1].job.wall > RUN_BUDGET:
                return reps


def e2e_samples(reps: list[Rep], setup: list[float]) -> dict:
    return {"wall_s": [r.job.norm_wall for r in reps],
            "setup_s": setup,
            "cpu_s": [r.job.norm_cpu for r in reps],
            "peak_rss_mb": [r.job.rss_mb for r in reps],
            "insts_per_s": [r.insts_per_s for r in reps]}


def exact_metrics(workload: Workload, reps: list[Rep]) -> dict:
    """Simulated (not host) results: identical for any speed-only
    change."""
    rep = next((r for r in reps if r.ok), None)
    if rep is None:
        return {}
    out = {"sim_cycles": rep.cycles}
    if workload.kind == "figures":
        out.update(accuracy(rep.job.stdout))
    return out


# ---------------------------------------------------------------- modes
def single_run(bench: Bench, spec: dict, workload: Workload, seed: int,
               seconds: float, trace: bool) -> dict:
    begun = time.monotonic()
    if workload.caches == "warm":
        bench.prime(workload, seed)
    setup = [] if trace else [bench.probe(workload, seed)
                              for _ in range(SETUP_PROBES)]
    reps = bench.timed_reps(workload, seed, seconds, begun)
    wall = summary.quartiles(r.job.norm_wall for r in reps)[1]
    print(f"{workload.name} seed {seed}: {len(reps)} rep(s), normalized "
          f"median wall {wall:.3f} s, host slowdowns "
          f"{[round(r.job.slowdown, 3) for r in reps]}, "
          f"{exact_metrics(workload, reps)}")
    if trace:
        values = bench.traced(workload, seed, wall)
        wanted = spec["per_layer"]
    else:
        values = {name: summary.quartiles(samples)[1]
                  for name, samples in e2e_samples(reps, setup).items()}
        wanted = spec["end_to_end"]
    for problem in bench.problems.get(workload.name, []):
        print(f"FAILED {problem}")
    return {"correct": not bench.problems,
            "attempted": bench.attempted.get(workload.name, 0),
            "failed": bench.failed(workload),
            "metrics": {m["name"]: {"value": values[m["name"]],
                                    "unit": m["unit"]} for m in wanted}}


def suite(bench: Bench, spec: dict, seed: int) -> dict:
    """Every workload round-robin, then one traced run each."""
    for workload in WORKLOADS:
        if workload.caches == "warm":
            bench.prime(workload, seed)
    reps: dict[str, list[Rep]] = {w.name: [] for w in WORKLOADS}
    setup: dict[str, list[float]] = {w.name: [] for w in WORKLOADS}
    for round_ in range(max(w.suite_reps for w in WORKLOADS)):
        for workload in WORKLOADS:
            if round_ < workload.suite_reps:
                setup[workload.name].append(bench.probe(workload, seed))
                reps[workload.name].append(bench.rep(workload, seed))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    out = {}
    for workload in WORKLOADS:
        mine = reps[workload.name]
        samples = e2e_samples(mine, setup[workload.name])
        metrics = {name: {"unit": units[name], **summary.describe(values)}
                   for name, values in samples.items()}
        layers = bench.traced(workload, seed, metrics["wall_s"]["median"])
        out[workload.name] = {
            "metrics": metrics,
            "host": {"raw_wall_s": summary.describe(r.job.wall for r in mine),
                     "slowdown": summary.describe(r.job.slowdown
                                                  for r in mine)},
            "exact": exact_metrics(workload, mine),
            "layers": layers, "attempted": bench.attempted[workload.name],
            "failed": bench.failed(workload),
            "problems": bench.problems.get(workload.name, []),
            "stdout_sha256": mine[0].digest}
    return out


def print_suite(record: dict, spec: dict) -> None:
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name, result in record["workloads"].items():
        print(f"\n== {name}: {result['attempted']} job(s) run, "
              f"{result['failed']} failed")
        for metric, d in result["metrics"].items():
            tail = "".join(f"  {k} {v:.4g}" for k, v in d.items()
                           if re.fullmatch(r"p\d+", k))
            print(f"  {metric:14s} {d['unit']:8s} median {d['median']:<12.5g}"
                  f"q1 {d['q1']:<12.5g}q3 {d['q3']:<12.5g}n {d['n']}{tail}")
        for metric, d in result["host"].items():
            print(f"  {metric:14s} {'':8s} median {d['median']:<12.5g}"
                  f"q1 {d['q1']:<12.5g}q3 {d['q3']:<12.5g}n {d['n']}")
        print("  exact: " + "  ".join(f"{k} {v}" for k, v in
                                      result["exact"].items()))
        print("  layers (traced run):")
        for metric, value in result["layers"].items():
            print(f"    {metric:30s} {value:<14.6g}{units[metric]}")
        for problem in result["problems"]:
            print(f"  FAILED {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=BY_NAME,
                        help="one run of one workload (default: the suite)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0,
                        help="time measured by a --workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="--workload run: report the per-layer split")
    parser.add_argument("--out", metavar="PATH",
                        help="suite: append the JSON record to PATH")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no src/repro to benchmark",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    reference = json.loads(REFERENCE.read_text())
    _become_subreaper()
    env, scrubbed = scrub(os.environ)
    meta = host_meta()
    meta["scrubbed_env"] = scrubbed
    sandbox = Sandbox()
    try:
        env.update(PYTHONPATH=str(ROOT / "src"), HOME=str(sandbox.home),
                   TMPDIR=str(sandbox.root / "tmp"))
        # untimed warm-up: byte-compile the program so no rep pays for it,
        # and make sure it is this checkout's program that runs
        warm = run_job(["-c", "import compileall, repro; "
                              "compileall.compile_dir('src/repro', quiet=1); "
                              "print(repro.__file__)"],
                       env, sandbox.path("warm-up"))
        if warm.code != 0 or not warm.stdout.decode().strip().startswith(
                str(ROOT / "src")):
            print(f"error: cannot import the program from {ROOT / 'src'}: "
                  f"{warm.stderr.strip()[-500:]}", file=sys.stderr)
            return 2
        print(f"host: {json.dumps(meta)}")
        expected = {}
        if reference["seed"] == args.seed:
            expected = {" ".join(BY_NAME[name].argv(args.seed)): digest
                        for name, digest in reference["stdout_sha256"].items()}
        bench = Bench(sandbox, env, expected)

        if args.workload:
            result = single_run(bench, spec, BY_NAME[args.workload],
                                args.seed, args.seconds, bool(args.trace))
            print(f"host: loadavg_after {list(os.getloadavg())}")
            print(json.dumps(result))
            return 0

        workloads = suite(bench, spec, args.seed)
        meta["loadavg_after"] = list(os.getloadavg())
        record = {"meta": meta, "seed": args.seed, "workloads": workloads}
        print_suite(record, spec)
        if args.out:
            with open(args.out, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record) + "\n")
        return 1 if bench.problems else 0
    finally:
        sandbox.close()


if __name__ == "__main__":
    raise SystemExit(main())
