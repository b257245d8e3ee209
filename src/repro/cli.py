"""Command-line interface.

Usage::

    python -m repro run PROGRAM.s [--scheme sharing] [--int-regs 64] ...
    python -m repro bench NAME [--scheme ...] [--insts 20000] ...
    python -m repro bench NAME --no-verify [--sampling P:W:U] --profile PATH
    python -m repro compare NAME [--sizes 48,64,96] [--insts 10000]
    python -m repro figures [fig1 fig2 ... | all]
    python -m repro kernels [--list | NAME]
    python -m repro motivation NAME    # Figures 1-3 stats for one benchmark
    python -m repro verify [--scheme sharing | --all-schemes] [--faults ...]
    python -m repro fuzz [--count 25] [--seed 0] [--out DIR]
    python -m repro fuzz --replay REPRODUCER.json
    python -m repro faults [--injections 200] [--seed 0] [--out REPORT.json]

``run`` executes an assembly file through the timing pipeline; ``bench``
runs one synthetic benchmark profile (the performance benchmark of the
paper-figure job lives in the repository's ``bench/`` directory);
``compare`` sweeps register-file sizes for baseline vs proposed;
``figures`` regenerates the paper's tables/figures; ``motivation``
prints the dataflow analysis.  ``run``, ``bench`` and ``verify`` take
``--profile PATH``: the command runs under cProfile, dumps the pstats
file to PATH and prints the top functions; ``run`` and ``bench`` add the
cycle loop their config gets and, for a sampled run, the time of each
sampling phase.

``verify`` runs every kernel through the pipeline in lockstep with the
in-order golden model (the commit-time differential oracle,
:mod:`repro.verify.oracle`) with invariant checking on; ``fuzz`` runs the
seeded random-program fuzzer (:mod:`repro.verify.fuzz`) across all rename
schemes and shrinks failures to on-disk reproducers.

``compare`` and ``figures`` execute their simulation grids through the
sweep engine: ``--jobs N`` (default: ``REPRO_JOBS`` env, else 1) fans the
points out over N worker processes, and results are served from the
persistent result cache (``REPRO_CACHE_DIR``, default
``~/.cache/repro/sweeps``) unless ``--no-cache`` is given.  Each point
runs once: a crash or a dead worker fails that point and the rest of the
sweep carries on.  Every finished point is published to the result cache
crash-safely, so rerunning an interrupted or partly failed sweep
simulates only what is missing; a ``--no-cache`` sweep does not resume
(docs/RESILIENCE.md).

``faults`` runs the seeded fault-injection campaign
(:mod:`repro.faults`): transient PRF bit flips, PRT metadata corruption,
forced squash storms and interrupt floods, each classified against the
differential oracle as masked / detected / recovered — a nonzero exit
means an injection produced silent data corruption or an unexpected
outcome.

Timing simulations accept ``--sampling PERIOD:WINDOW:WARMUP`` to run
interval-sampled (functional fast-forward between detailed measurement
windows, :mod:`repro.sampling`) instead of cycle-by-cycle; the
``REPRO_SAMPLING`` environment variable sets the same spec globally and
``--exact`` overrides it back to exact simulation.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING

# each command imports what it runs: parsing the command line, or a
# command that only reads cached results, loads no simulator code
if TYPE_CHECKING:
    from repro.pipeline.config import MachineConfig


def _machine_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scheme", default="sharing",
                        choices=["conventional", "sharing", "hinted", "early"])
    parser.add_argument("--int-regs", type=int, default=64)
    parser.add_argument("--fp-regs", type=int, default=64)
    parser.add_argument("--counter-bits", type=int, default=2)
    parser.add_argument("--no-verify", action="store_true",
                        help="disable operand verification (faster)")
    parser.add_argument("--detailed", action="store_true",
                        help="print the full statistics report")
    parser.add_argument("--wrong-path", action="store_true",
                        help="model wrong-path speculation")


def _profile_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--profile", default=None, metavar="PATH",
                        help="cProfile the command; dump pstats to PATH and "
                             "print the top-15 cumulative functions")


def _sampling_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--sampling", default=None,
                       metavar="PERIOD:WINDOW:WARMUP",
                       help="interval-sampled simulation: detailed windows "
                            "of WINDOW insts (after WARMUP warm-up insts) "
                            "every PERIOD insts, functional fast-forward "
                            "in between (default: REPRO_SAMPLING env, "
                            "else exact)")
    group.add_argument("--exact", action="store_true",
                       help="force exact cycle-by-cycle simulation, "
                            "overriding REPRO_SAMPLING")


def _resolve_sampling(args) -> str | None:
    """--exact > --sampling > REPRO_SAMPLING env > None (exact)."""
    if getattr(args, "exact", False):
        return None
    spec = getattr(args, "sampling", None)
    if spec is None:
        spec = os.environ.get("REPRO_SAMPLING", "").strip() or None
    if spec is not None:
        from repro.sampling import parse_schedule

        parse_schedule(spec)  # validate before any simulation starts
    return spec


def _sweep_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for the sweep "
                             "(default: REPRO_JOBS env, else 1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the persistent result cache (the "
                             "sweep then does not resume)")


def _config(args) -> MachineConfig:
    from repro.pipeline.config import MachineConfig

    return MachineConfig(
        scheme=args.scheme,
        int_regs=args.int_regs,
        fp_regs=args.fp_regs,
        counter_bits=args.counter_bits,
        verify_values=not args.no_verify,
        model_wrong_path=getattr(args, "wrong_path", False),
    )


def _print_stats(stats, detailed: bool = False) -> None:
    # sampled runs: say so up front — every number below is an estimate
    if hasattr(stats, "sampling_report"):
        print(stats.sampling_report())
    if detailed:
        print(stats.detailed_report())
        return
    print(stats.summary())
    renamer = stats.renamer_stats
    if renamer is not None and renamer.dest_insts:
        print(f"register reuse    {renamer.reuses}/{renamer.dest_insts} "
              f"({100 * renamer.reuse_fraction:.1f}%) "
              f"[guaranteed {renamer.reuses_guaranteed}, "
              f"predicted {renamer.reuses_predicted}]")
        if renamer.repairs:
            print(f"repairs           {renamer.repairs} "
                  f"({renamer.repair_uops} micro-ops)")
    if stats.branch_stats is not None and stats.branch_stats.branches:
        print(f"branch accuracy   {100 * stats.branch_stats.accuracy:.1f}%")


def _profiled(args, fn, config=None, sampled: bool = False):
    """Run ``fn`` under cProfile when ``--profile PATH`` was given: dump the
    pstats file and print the top-15 functions by cumulative time.  For a
    ``sampled`` run, also print the time of each sampling phase; given the
    run's ``config``, the cycle loop that config gets."""
    if not getattr(args, "profile", None):
        return fn()
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
        profiler.dump_stats(args.profile)
        stats = pstats.Stats(profiler)
        stats.sort_stats("cumulative").print_stats(15)
        print(f"profile written to {args.profile}", file=sys.stderr)
    if sampled:
        from repro.sampling.engine import window_config

        _print_phases(stats)
        config = window_config(config)
    if config is not None:
        from repro.codegen import kernel_fingerprint, kernel_for

        if kernel_for(config) is None:
            print("loop=naive")
        else:
            print(f"loop=generated kernel={kernel_fingerprint(config)}")
    return result


def _print_phases(stats) -> None:
    """A sampled run's phases, read from its profile: the cumulative time
    and calls of skim, fast-forward and the detailed windows, and the
    rest of the profiled time."""
    from repro.pipeline.processor import Processor
    from repro.sampling.warmer import FunctionalWarmer

    total = stats.total_tt
    other = total
    print(f"sampled phases of {total * 1e3:.1f}ms profiled:")
    for name, fn in (("skim", FunctionalWarmer.skim),
                     ("fast_forward", FunctionalWarmer.fast_forward),
                     ("window", Processor.run)):
        code = fn.__code__
        _, calls, _, cumulative, _ = stats.stats.get(
            (code.co_filename, code.co_firstlineno, code.co_name),
            (0, 0, 0.0, 0.0, None))
        other -= cumulative
        print(f"  {name:14s} {cumulative * 1e3:8.1f}ms  "
              f"{_percent(cumulative, total)}  ({calls} calls)")
    print(f"  {'other':14s} {other * 1e3:8.1f}ms  "
          f"{_percent(other, total)}  (setup, materialize, scaling)")


def _percent(part: float, total: float) -> str:
    return f"{100.0 * part / total if total else 0.0:5.1f}%"


def cmd_run(args) -> int:
    from repro.isa.assembler import assemble
    from repro.pipeline.processor import simulate

    with open(args.program) as handle:
        program = assemble(handle.read())
    sampling = _resolve_sampling(args)
    config = _config(args)
    stats = _profiled(
        args, lambda: simulate(config, program, max_insts=args.insts,
                               sampling=sampling),
        config, sampled=sampling is not None)
    _print_stats(stats, args.detailed)
    return 0


def cmd_bench(args) -> int:
    from repro.pipeline.processor import simulate
    from repro.workloads.generator import SyntheticWorkload
    from repro.workloads.profiles import BENCHMARKS

    if args.name not in BENCHMARKS:
        print(f"unknown benchmark {args.name!r}; use one of: "
              f"{', '.join(sorted(BENCHMARKS))}", file=sys.stderr)
        return 1
    workload = SyntheticWorkload(BENCHMARKS[args.name],
                                 total_insts=args.insts, seed=args.seed)
    sampling = _resolve_sampling(args)
    config = _config(args)
    if sampling:
        from repro.harness.cache import TraceStream

        # the packed columns a sweep point fast-forwards over
        stream = TraceStream(workload.trace_bytes(), args.insts)
    else:
        # streamed: decoding a whole trace up front costs seconds and
        # ~150 MB at 200k instructions
        stream = iter(workload)
    stats = _profiled(
        args, lambda: simulate(config, stream,
                               max_insts=args.insts if sampling else None,
                               sampling=sampling, sampling_seed=args.seed),
        config, sampled=sampling is not None)
    _print_stats(stats, args.detailed)
    return 0


def _sweep_cache(args):
    """Result cache honouring --no-cache (None disables caching)."""
    if getattr(args, "no_cache", False):
        return None
    from repro.harness.cache import ResultCache

    return ResultCache()


def _sweep_engine(args) -> dict:
    """Keyword arguments for run_points / the figure helpers, resolved
    from the shared --jobs/--no-cache options."""
    return {"jobs": args.jobs, "cache": _sweep_cache(args)}


def cmd_compare(args) -> int:
    from repro.harness.parallel import SweepPoint, collect_stats, run_points
    from repro.workloads.profiles import BENCHMARKS

    if args.name not in BENCHMARKS:
        print(f"unknown benchmark {args.name!r}", file=sys.stderr)
        return 1
    profile = BENCHMARKS[args.name]
    sizes = [int(s) for s in args.sizes.split(",")]
    sampling = _resolve_sampling(args)
    points = [SweepPoint(profile=profile, scheme=scheme, size=size,
                         insts=args.insts, seed=args.seed, sampling=sampling)
              for size in sizes for scheme in ("conventional", "sharing")]
    engine = _sweep_engine(args)
    cache = engine["cache"]
    stats = collect_stats(run_points(points, **engine))
    suffix = f", sampled [{sampling}]" if sampling else ""
    print(f"{args.name} ({profile.suite}), {args.insts} instructions{suffix}")
    print(f"{'RF size':>8s} {'baseline':>9s} {'proposed':>9s} {'speedup':>8s}")
    for size in sizes:
        baseline = stats[(profile.name, "conventional", size, args.seed)].ipc
        proposed = stats[(profile.name, "sharing", size, args.seed)].ipc
        speedup = proposed / baseline - 1 if baseline else 0.0
        print(f"{size:8d} {baseline:9.3f} {proposed:9.3f} "
              f"{100 * speedup:+7.1f}%")
    _print_cache_summary(cache)
    return 0


def _print_cache_summary(cache) -> None:
    if cache is not None and (cache.hits or cache.misses):
        print(f"result cache: {cache.hits} hit(s), {cache.misses} miss(es) "
              f"[{cache.root}]", file=sys.stderr)


def cmd_figures(args) -> int:
    from dataclasses import replace

    from repro.harness import (Scale, figure1, figure2, figure3, figure9,
                               figure10, figure11, figure12, figure_ports,
                               headline, table1, table2_result, table3)

    # --exact/--sampling override whatever REPRO_SAMPLING put in the Scale
    scale = replace(Scale.from_env(), sampling=_resolve_sampling(args))
    wanted = set(args.which) or {"all"}
    engine = _sweep_engine(args)
    cache = engine["cache"]

    def want(key):
        return "all" in wanted or key in wanted

    if want("tables"):
        print(table1(), "\n")
        print(table2_result().render(), "\n")
        print(table3().render(), "\n")
    # analysis-only figures (no timing simulation -> no sweep engine)
    for key, fn in (("fig1", figure1), ("fig2", figure2), ("fig3", figure3),
                    ("fig9", figure9)):
        if want(key):
            print(fn(scale).render(), "\n")
    for key, fn in (("fig11", figure11), ("fig12", figure12),
                    ("ports", figure_ports)):
        if want(key):
            print(fn(scale, **engine).render(), "\n")
    if want("fig10"):
        for suite in ("specfp", "specint", "media+cog"):
            print(figure10(suite, scale, **engine).render(), "\n")
    if want("headline"):
        print(headline(scale, **engine).render())
    _print_cache_summary(cache)
    return 0


def cmd_kernels(args) -> int:
    from repro.pipeline.processor import simulate
    from repro.workloads import ALL_KERNELS as KERNELS

    if args.list or not args.name:
        print("available kernels:", ", ".join(sorted(KERNELS)))
        return 0
    if args.name not in KERNELS:
        print(f"unknown kernel {args.name!r}", file=sys.stderr)
        return 1
    kernel = KERNELS[args.name]()
    stats = simulate(_config(args), kernel.program, program_budget=2_000_000)
    print(f"kernel {kernel.name}: ", end="")
    _print_stats(stats, args.detailed)
    return 0


def cmd_verify(args) -> int:
    """Oracle-checked kernel battery: the commit-time differential oracle
    plus cross-structure invariants, over every kernel program."""
    return _profiled(args, lambda: _cmd_verify_body(args))


def _cmd_verify_body(args) -> int:
    from repro.isa.executor import FirstTouchFaults
    from repro.pipeline.config import MachineConfig
    from repro.pipeline.debug import check_invariants
    from repro.verify.oracle import lockstep_run
    from repro.workloads import ALL_KERNELS as KERNELS

    schemes = (["conventional", "sharing", "hinted", "early"]
               if args.all_schemes else [args.scheme])
    names = [args.kernel] if args.kernel else sorted(KERNELS)
    for name in names:
        if name not in KERNELS:
            print(f"unknown kernel {name!r}", file=sys.stderr)
            return 1
    failures = 0
    for scheme in schemes:
        variants = [("plain", {}, None)]
        if scheme != "early":  # early release has no precise state
            if args.faults:
                variants.append(("faults", {}, FirstTouchFaults))
            if args.interrupts:
                variants.append(("interrupts", {"interrupt_interval": 500},
                                 None))
        for name in names:
            program = KERNELS[name]().program
            for label, overrides, fault_cls in variants:
                config = MachineConfig(
                    scheme=scheme, int_regs=args.int_regs,
                    fp_regs=args.fp_regs, counter_bits=args.counter_bits,
                    verify_values=not args.no_verify, **overrides)
                try:
                    stats = lockstep_run(
                        config, program,
                        fault_model=fault_cls() if fault_cls else None,
                        on_cycle=check_invariants,
                        on_cycle_interval=args.check_interval)
                except AssertionError as exc:
                    failures += 1
                    print(f"FAIL  {scheme:12s} {name:10s} {label}: {exc}")
                else:
                    print(f"ok    {scheme:12s} {name:10s} {label:10s} "
                          f"{stats.committed} insts, ipc={stats.ipc:.2f}")
    if failures:
        print(f"{failures} verification failure(s)", file=sys.stderr)
        return 1
    print("all verification runs passed")
    return 0


def cmd_fuzz(args) -> int:
    from repro.verify.fuzz import ALL_SCHEMES, FuzzFailure, FuzzProgram, fuzz, run_case

    schemes = (tuple(args.schemes.split(","))
               if args.schemes else ALL_SCHEMES)
    if args.replay:
        try:
            fp = FuzzProgram.load(args.replay)
        except (OSError, ValueError, KeyError) as exc:
            print(f"cannot load reproducer {args.replay!r}: {exc}",
                  file=sys.stderr)
            return 1
        try:
            counts = run_case(fp, schemes=schemes)
        except FuzzFailure as failure:
            print(f"FAIL  {failure}")
            return 1
        print(f"ok    seed {fp.seed} ({fp.variant}), "
              f"{fp.instruction_count()} IR instructions: "
              + ", ".join(f"{s}={n}" for s, n in counts.items()))
        return 0
    failures = fuzz(count=args.count, seed_base=args.seed, size=args.size,
                    schemes=schemes, out_dir=args.out, log=print)
    if failures:
        print(f"{len(failures)} fuzz failure(s); reproducers in {args.out}",
              file=sys.stderr)
        return 1
    print(f"fuzz campaign clean: {args.count} programs, "
          f"schemes {', '.join(schemes)}")
    return 0


def cmd_faults(args) -> int:
    """Seeded fault-injection campaign across the rename schemes."""
    from repro.faults import run_campaign

    schemes = tuple(args.schemes.split(",")) if args.schemes else None
    overrides = {"injections": args.injections, "seed": args.seed,
                 "shrink": not args.no_shrink}
    if schemes:
        overrides["schemes"] = schemes

    def progress(record):
        if args.verbose:
            print(f"[{record.index + 1}/{args.injections}] "
                  f"{record.spec.kind:<16} {record.spec.scheme:<12} "
                  f"-> {record.outcome}"
                  + ("" if record.expected else "  UNEXPECTED"))

    report = run_campaign(progress=progress, **overrides)
    for line in report.summary_lines():
        print(line)
    if args.out:
        report.save(args.out)
        print(f"report written to {args.out}", file=sys.stderr)
    return 0 if report.clean else 1


def cmd_motivation(args) -> int:
    from repro.analysis import analyze_chains, analyze_stream
    from repro.workloads.generator import SyntheticWorkload
    from repro.workloads.profiles import BENCHMARKS

    if args.name not in BENCHMARKS:
        print(f"unknown benchmark {args.name!r}", file=sys.stderr)
        return 1
    profile = BENCHMARKS[args.name]
    stream = list(SyntheticWorkload(profile, total_insts=args.insts,
                                    seed=args.seed))
    consumers = analyze_stream(iter(stream))
    chains = analyze_chains(iter(stream))
    series = chains.figure3_series()
    print(f"{args.name} ({profile.suite}), {args.insts} instructions")
    print(f"single-consumer values (Fig 2):        "
          f"{100 * consumers.single_use_value_fraction:.1f}%")
    print(f"single-consumer instructions (Fig 1):  "
          f"{100 * consumers.single_consumer_inst_fraction:.1f}% "
          f"(same {100 * consumers.redefine_same_fraction:.1f}% / "
          f"other {100 * consumers.redefine_other_fraction:.1f}%)")
    print(f"reuse chains (Fig 3): one {100 * series['one']:.1f}%  "
          f"two {100 * series['two']:.1f}%  three {100 * series['three']:.1f}%  "
          f"more {100 * series['more']:.1f}%")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Register renaming with physical register "
        "sharing (HPCA 2018) — reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate an assembly file")
    p_run.add_argument("program")
    p_run.add_argument("--insts", type=int, default=None)
    _profile_arg(p_run)
    _machine_args(p_run)
    _sampling_args(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_bench = sub.add_parser("bench", help="run one benchmark profile")
    p_bench.add_argument("name")
    p_bench.add_argument("--insts", type=int, default=20_000)
    p_bench.add_argument("--seed", type=int, default=1)
    _profile_arg(p_bench)
    _machine_args(p_bench)
    _sampling_args(p_bench)
    p_bench.set_defaults(fn=cmd_bench)

    p_cmp = sub.add_parser("compare", help="baseline vs proposed sweep")
    p_cmp.add_argument("name")
    p_cmp.add_argument("--sizes", default="48,56,64,80,96")
    p_cmp.add_argument("--insts", type=int, default=10_000)
    p_cmp.add_argument("--seed", type=int, default=1)
    _sweep_args(p_cmp)
    _sampling_args(p_cmp)
    p_cmp.set_defaults(fn=cmd_compare)

    p_fig = sub.add_parser("figures", help="regenerate tables/figures")
    p_fig.add_argument("which", nargs="*", default=[],
                       help="tables fig1..fig12 ports headline (default: all)")
    _sweep_args(p_fig)
    _sampling_args(p_fig)
    p_fig.set_defaults(fn=cmd_figures)

    p_ker = sub.add_parser("kernels", help="run a real kernel")
    p_ker.add_argument("name", nargs="?")
    p_ker.add_argument("--list", action="store_true")
    _machine_args(p_ker)
    p_ker.set_defaults(fn=cmd_kernels)

    p_ver = sub.add_parser(
        "verify", help="oracle-checked kernel battery (differential "
        "lockstep against the in-order golden model)")
    p_ver.add_argument("--kernel", default=None,
                       help="verify one kernel (default: all)")
    p_ver.add_argument("--all-schemes", action="store_true",
                       help="verify every rename scheme")
    p_ver.add_argument("--faults", action="store_true",
                       help="also run a first-touch page-fault variant")
    p_ver.add_argument("--interrupts", action="store_true",
                       help="also run a periodic-interrupt variant")
    p_ver.add_argument("--check-interval", type=int, default=16,
                       help="invariant-check interval in cycles")
    _profile_arg(p_ver)
    _machine_args(p_ver)
    p_ver.set_defaults(fn=cmd_verify)

    p_fuzz = sub.add_parser(
        "fuzz", help="random-program fuzzer across all rename schemes")
    p_fuzz.add_argument("--count", type=int, default=25,
                        help="number of seeded programs")
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="base seed (program i uses seed+i)")
    p_fuzz.add_argument("--size", type=int, default=40,
                        help="IR items per generated program")
    p_fuzz.add_argument("--schemes", default=None,
                        help="comma-separated scheme subset")
    p_fuzz.add_argument("--out", default="fuzz-failures",
                        help="directory for shrunk reproducers")
    p_fuzz.add_argument("--replay", default=None, metavar="FILE",
                        help="replay one reproducer instead of fuzzing")
    p_fuzz.set_defaults(fn=cmd_fuzz)

    p_faults = sub.add_parser(
        "faults", help="seeded fault-injection campaign (bit flips, PRT "
        "corruption, squash storms, interrupt floods) with oracle-checked "
        "outcome classification")
    p_faults.add_argument("--injections", type=int, default=200,
                          help="number of injections to draw (default 200)")
    p_faults.add_argument("--seed", type=int, default=0,
                          help="campaign seed (default 0)")
    p_faults.add_argument("--schemes", default=None,
                          help="comma-separated scheme subset "
                               "(default: conventional,sharing,early)")
    p_faults.add_argument("--out", default=None, metavar="PATH",
                          help="write the JSON campaign report to PATH")
    p_faults.add_argument("--no-shrink", action="store_true",
                          help="skip ddmin shrinking of unexpected outcomes")
    p_faults.add_argument("--verbose", action="store_true",
                          help="print every injection as it classifies")
    p_faults.set_defaults(fn=cmd_faults)

    p_mot = sub.add_parser("motivation", help="Figures 1-3 stats for a benchmark")
    p_mot.add_argument("name")
    p_mot.add_argument("--insts", type=int, default=10_000)
    p_mot.add_argument("--seed", type=int, default=1)
    p_mot.set_defaults(fn=cmd_motivation)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        # a bad value the parser could not check: a REPRO_* switch, a
        # sampling spec, an unknown scheme name
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
