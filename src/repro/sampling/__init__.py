"""Interval-sampled simulation (SMARTS-style fast-forward + windows).

Public surface:

* :class:`~repro.sampling.schedule.SamplingSchedule` /
  :func:`~repro.sampling.schedule.parse_schedule` /
  :func:`~repro.sampling.schedule.as_schedule` — ``PERIOD:WINDOW:WARMUP``
  schedules with a seeded random phase offset;
* :class:`~repro.sampling.warmer.FunctionalWarmer` — functional
  fast-forward over trace columns that keeps the branch predictor, the
  caches and the register-type / single-use predictors warm between
  windows;
* :func:`~repro.sampling.engine.sampled_simulate` — the engine, whose
  one input is a :class:`~repro.workloads.trace_codec.TraceColumns`;
  usually reached through
  ``repro.pipeline.processor.simulate(..., sampling=...)`` (which
  encodes any other instruction stream to columns first) or the CLI's
  ``--sampling`` flag.
"""

from repro.sampling.engine import sampled_simulate
from repro.sampling.schedule import (DEFAULT_SPEC, SamplingSchedule,
                                     as_schedule, parse_schedule)
from repro.sampling.warmer import FunctionalWarmer

__all__ = [
    "DEFAULT_SPEC",
    "SamplingSchedule",
    "FunctionalWarmer",
    "as_schedule",
    "parse_schedule",
    "sampled_simulate",
]
