"""One traced run of a benchmark job, in this process.

    PYTHONPATH=src python bench/traced.py --spans DIR --spawned-at T -- JOB...

``JOB`` is the job's own command line after the interpreter (a script
path, or ``-m MODULE ...``).  The interpreter start (from the driver's
``perf_counter`` at spawn, ``T``) and the program's import become spans;
then the wrappers of ``spans.py`` go in and the job runs through
``runpy`` exactly as its command line would run it.  Its stdout is the
job's stdout, so the driver checks it like any untraced run's.  The
tracer's own work (``trace.*`` spans) is recorded too, so the residual
counts only time nothing explains.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import runpy  # noqa: E402
import sys  # noqa: E402

from spans import Tracer, install  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, metavar="DIR")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("job", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    job = args.job[1:] if args.job[:1] == ["--"] else args.job

    tracer = Tracer(args.spans)
    tracer.end(tracer.begin("process.start", start=args.spawned_at),
               end=STARTED)
    tracer.end(tracer.begin("trace.setup", start=STARTED))
    span = tracer.begin("process.import")
    import repro.cli  # noqa: F401
    import repro.harness  # noqa: F401
    tracer.end(span)

    span = tracer.begin("trace.install")
    installed = install(tracer)
    tracer.end(span)
    code = 0
    try:
        if job[0] == "-m":
            sys.argv = [job[1], *job[2:]]
            runpy.run_module(job[1], run_name="__main__", alter_sys=True)
        else:
            sys.argv = list(job)
            runpy.run_path(job[0], run_name="__main__")
    except SystemExit as exc:
        code = exc.code or 0 if isinstance(exc.code, (int, type(None))) else 1
    finally:
        sys.stdout.flush()
        installed.uninstall()
        # interpreter teardown: the driver closes this span when the
        # process has ended
        tracer.flush_until_exit("process.exit")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
