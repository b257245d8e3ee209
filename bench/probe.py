"""Set-up probe: the work a job does before it produces its first result.

    PYTHONPATH=src python bench/probe.py --workload NAME --seed N

Run in a fresh interpreter against the workload's cache state; the
driver times the whole process.  For a cold figure job the set-up is
what ``run_points`` does before its first worker starts: the import,
the code fingerprint, every distinct workload through ``cached_stream``
and every distinct kernel through ``load_kernel``.  With a primed result
cache every lookup hits, so only the import and the fingerprint precede
the first result.  ``repro bench PROFILE`` imports and loads one kernel.
"""

import argparse

import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.BY_NAME)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    workload = workloads.BY_NAME[args.workload]

    import repro.cli
    from repro.codegen import kernel_fingerprint, load_kernel

    if workload.kind == "point":
        # the exact MachineConfig ``repro bench`` builds from its arguments
        cli_args = repro.cli.build_parser().parse_args(workload.argv(args.seed)[2:])
        load_kernel(repro.cli._config(cli_args))
        return 0

    from repro.harness.cache import ResultCache, cached_stream
    from repro.harness.runner import make_config

    ResultCache()
    if workload.caches == "warm":
        return 0

    from figures_job import job_points, job_scale

    points = job_points(job_scale(args.seed, workload.sampling))
    streams = {(p.profile.name, p.insts, p.seed): p for p in points}
    for point in streams.values():
        cached_stream(point.profile, point.insts, point.seed)
    configs = {}
    for point in points:
        config = make_config(point.profile, point.scheme, point.size)
        configs.setdefault(kernel_fingerprint(config), config)
    for config in configs.values():
        load_kernel(config)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
