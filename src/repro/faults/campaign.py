"""Seeded fault-injection campaign engine.

One campaign = N injections.  Every injection is one pipeline run of a
seeded random program (the fuzzer's generator, forced to the exception-free
``plain`` variant so the injected adversity is the *only* adversity) with
exactly one fault injected, then classified against the run's own checkers
and a cached clean reference run of the same (program, scheme):

========== ==============================================================
masked      run completed; committed stream, commit count and final state
            identical to the clean run — the fault was overwritten or
            never read
detected    a checker raised: the commit-time oracle, issue-time operand
            verification, the cross-structure invariant checker, the
            cycle-loop watchdog, or an internal assertion
recovered   run completed clean and the renamer performed >= 1 precise-
            state recovery (the expected outcome for squash storms and
            interrupt floods)
silent      run completed with **no** checker firing, but the committed
            stream or count differs from the clean reference — true
            silent data corruption; never expected, always a bug
error       the run crashed with a non-checker exception; never expected
skipped     the injector never found an eligible target (e.g. no shadow
            cell materialised in a short program); always acceptable
========== ==============================================================

Every random decision is pre-drawn into an :class:`InjectionSpec` from a
per-index child rng, so any single injection can be replayed — and its
program ddmin-shrunk — from (campaign seed, index) alone.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.faults.injectors import (
    InjectionSpec,
    Injector,
    InterruptFloodInjector,
    make_injector,
)

#: Outcomes each kind is allowed to produce (``skipped`` is implicitly
#: acceptable everywhere).  Anything else is *unexpected* and fails the
#: campaign: a ``silent``/``error`` anywhere, a live-cell flip that
#: recovers, a squash storm that is detected, ...
EXPECTED_OUTCOMES = {
    "flip_live": frozenset({"masked", "detected"}),
    "flip_shadow": frozenset({"masked", "detected"}),
    "flip_free": frozenset({"masked"}),
    "prt_version": frozenset({"masked", "detected", "recovered"}),
    "prt_read_bit": frozenset({"masked", "detected", "recovered"}),
    "squash_storm": frozenset({"recovered"}),
    "interrupt_flood": frozenset({"recovered"}),
}

#: Schemes whose renamer has PRT/shadow-cell structures.
_SHARING_SCHEMES = ("sharing", "hinted")


def kinds_for(scheme: str) -> tuple[str, ...]:
    """Injection kinds applicable to a scheme.

    Early release has no precise state (``recover()`` raises), so forced
    flushes and interrupts are excluded there; PRT and shadow-cell
    corruption only exist under the paper's sharing scheme.
    """
    kinds = ["flip_live", "flip_free"]
    if scheme in _SHARING_SCHEMES:
        kinds += ["flip_shadow", "prt_version", "prt_read_bit"]
    if scheme != "early":
        kinds += ["squash_storm", "interrupt_flood"]
    return tuple(kinds)


@dataclass
class CampaignConfig:
    """Shape of one campaign."""

    injections: int = 200
    seed: int = 0
    schemes: tuple = ("conventional", "sharing", "early")
    program_sizes: tuple = (20, 40)
    #: ddmin-shrink the program of every unexpected injection
    shrink: bool = True


@dataclass
class CleanRun:
    """Reference facts from the fault-free run of (program, scheme)."""

    cycles: int
    committed: int
    signature: tuple


@dataclass
class InjectionRecord:
    """One classified injection."""

    index: int
    spec: InjectionSpec
    outcome: str
    expected: bool
    detector: Optional[str] = None
    error: str = ""
    cycles: Optional[int] = None
    committed: Optional[int] = None
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "spec": self.spec.to_dict(),
            "outcome": self.outcome,
            "expected": self.expected,
            "detector": self.detector,
            "error": self.error,
            "cycles": self.cycles,
            "committed": self.committed,
            "details": self.details,
        }


def _classify_exception(exc: BaseException) -> tuple[str, str]:
    """Map an exception from a faulted run to (outcome, detector).

    Order matters: the three checker types subclass ``AssertionError``,
    which is itself the generic in-simulator detection channel.  Anything
    else is an unexpected crash.
    """
    from repro.pipeline.debug import InvariantViolation
    from repro.pipeline.processor import PipelineHang, VerificationError
    from repro.verify.oracle import DivergenceError

    if isinstance(exc, DivergenceError):
        return "detected", "oracle"
    if isinstance(exc, VerificationError):
        return "detected", "operand_verify"
    if isinstance(exc, InvariantViolation):
        return "detected", "invariant"
    if isinstance(exc, PipelineHang):
        return "detected", "watchdog"
    if isinstance(exc, AssertionError):
        return "detected", "assert"
    return "error", type(exc).__name__


def campaign_machine_config(spec: InjectionSpec):
    """Pipeline config for one injection run (= the fuzzer's plain config,
    plus the flood's interrupt timer)."""
    from repro.verify.fuzz import fuzz_config

    config = fuzz_config(spec.scheme, "plain")
    if spec.kind == "interrupt_flood":
        config = dataclasses.replace(
            config, interrupt_interval=spec.interrupt_interval)
    return config


def _lockstep(config, program, injector: Optional[Injector], on_commit):
    """One campaign run: the injector polled every cycle (so no loop
    skips a cycle), invariants checked every 8th."""
    from repro.pipeline.debug import check_invariants
    from repro.verify.oracle import lockstep_run

    if injector is not None and injector.needs_hook:
        def hook(processor, _inject=injector.on_cycle):
            _inject(processor)
            if processor.cycle % 8 == 0:
                check_invariants(processor)
    else:
        def hook(processor):
            if processor.cycle % 8 == 0:
                check_invariants(processor)

    return lockstep_run(config, program, on_cycle=hook, on_cycle_interval=1,
                        on_commit=on_commit)


def _clean_run(scheme: str, program) -> CleanRun:
    """The fault-free run of ``program`` that injections are classified
    against."""
    from repro.verify.fuzz import fuzz_config
    from repro.verify.oracle import CommitRecorder

    recorder = CommitRecorder()
    stats = _lockstep(fuzz_config(scheme, "plain"), program, None, recorder)
    return CleanRun(cycles=stats.cycles, committed=stats.committed,
                    signature=recorder.signature())


def clean_reference(scheme: str, program_seed: int, program_size: int,
                    cache: Optional[dict] = None) -> CleanRun:
    """Fault-free reference run (memoised on ``cache`` when given)."""
    from repro.verify.fuzz import generate

    key = (scheme, program_seed, program_size)
    if cache is not None and key in cache:
        return cache[key]
    clean = _clean_run(scheme, generate(program_seed, size=program_size,
                                        variant="plain").build())
    if cache is not None:
        cache[key] = clean
    return clean


def _classify_injection(spec: InjectionSpec, program, clean: CleanRun,
                        index: int) -> InjectionRecord:
    """Run ``program`` with ``spec``'s fault injected and classify the
    outcome against its clean run (see module docstring taxonomy)."""
    from repro.verify.oracle import CommitRecorder

    injector = make_injector(spec)
    recorder = CommitRecorder()
    record = InjectionRecord(index=index, spec=spec, outcome="error",
                             expected=False)
    try:
        stats = _lockstep(campaign_machine_config(spec), program,
                          injector, recorder)
    except Exception as exc:  # noqa: BLE001 - classification boundary
        record.outcome, record.detector = _classify_exception(exc)
        record.error = f"{type(exc).__name__}: {exc}"[:800]
    else:
        if isinstance(injector, InterruptFloodInjector):
            injector.record_stats(stats)
        record.cycles = stats.cycles
        record.committed = stats.committed
        if not injector.injected:
            record.outcome = "skipped"
        elif (recorder.signature() != clean.signature
                or stats.committed != clean.committed):
            record.outcome = "silent"
        elif stats.renamer_stats.recoveries > 0:
            record.outcome = "recovered"
        else:
            record.outcome = "masked"
    record.details = injector.details
    record.expected = (record.outcome == "skipped"
                       or record.outcome in EXPECTED_OUTCOMES[spec.kind])
    return record


def run_injection(spec: InjectionSpec, index: int = 0,
                  clean_cache: Optional[dict] = None) -> InjectionRecord:
    """Run and classify one injection of a campaign."""
    from repro.verify.fuzz import generate

    clean = clean_reference(spec.scheme, spec.program_seed,
                            spec.program_size, clean_cache)
    program = generate(spec.program_seed, size=spec.program_size,
                       variant="plain").build()
    return _classify_injection(spec, program, clean, index)


def draw_spec(campaign_seed: int, index: int, schemes: tuple,
              program_sizes: tuple,
              clean_cache: Optional[dict] = None) -> InjectionSpec:
    """Pre-draw injection #``index`` of a campaign.

    The child rng is seeded from (campaign seed, index) alone, so specs
    are independent of execution order and stable under re-runs; trigger
    cycles land in the first half of the clean run so the injector always
    gets its chance to fire.
    """
    child = random.Random(f"faults:{campaign_seed}:{index}")
    scheme = child.choice(list(schemes))
    kind = child.choice(list(kinds_for(scheme)))
    program_seed = child.randrange(1_000_000)
    program_size = child.choice(list(program_sizes))
    clean = clean_reference(scheme, program_seed, program_size, clean_cache)
    trigger = child.randrange(2, max(3, clean.cycles // 2))
    return InjectionSpec(
        kind=kind,
        scheme=scheme,
        program_seed=program_seed,
        program_size=program_size,
        trigger_cycle=trigger,
        target_index=child.randrange(1 << 16),
        bit=child.randrange(64),
        flush_count=child.randint(1, 3),
        flush_gap=child.randint(10, 80),
        interrupt_interval=max(50, min(child.randrange(100, 400),
                                       clean.cycles // 2)),
    )


def shrink_reproducer(record: InjectionRecord) -> Optional[dict]:
    """ddmin-shrink the program of an unexpected injection.

    Reuses the fuzzer's shrinker with the predicate "replaying this exact
    spec on the candidate program still produces the same unexpected
    outcome".  Returns a JSON-able reproducer, or None if the outcome
    refuses to reproduce even on the unshrunk program (flaky — the record
    itself is still reported).
    """
    from repro.verify.fuzz import generate, shrink

    spec = record.spec
    fp = generate(spec.program_seed, size=spec.program_size, variant="plain")

    def same_failure(candidate) -> bool:
        trial_spec = dataclasses.replace(spec)
        trial = _replay_on(trial_spec, candidate)
        return trial.outcome == record.outcome

    if not same_failure(fp):
        return None
    minimal = shrink(fp, same_failure, max_attempts=300)
    return {
        "spec": spec.to_dict(),
        "outcome": record.outcome,
        "program": {"seed": minimal.seed, "variant": minimal.variant,
                    "items": minimal.items},
    }


def _replay_on(spec: InjectionSpec, fp) -> InjectionRecord:
    """Replay ``spec`` against an explicit (possibly shrunk) program."""
    program = fp.build()
    try:
        clean = _clean_run(spec.scheme, program)
    except Exception:  # noqa: BLE001 - clean run of a shrunk candidate broke
        return InjectionRecord(index=-1, spec=spec, outcome="error",
                               expected=False)
    return _classify_injection(spec, program, clean, index=-1)


def run_campaign(
    config: Optional[CampaignConfig] = None,
    progress: Optional[Callable[[InjectionRecord], None]] = None,
    **overrides,
):
    """Run a full seeded campaign; returns a :class:`~repro.faults.report.CampaignReport`.

    ``overrides`` are :class:`CampaignConfig` fields (``injections=...``,
    ``seed=...``, ...).  ``progress`` is called with every classified
    :class:`InjectionRecord` as it lands.
    """
    from repro.faults.report import CampaignReport

    if config is None:
        config = CampaignConfig(**overrides)
    elif overrides:
        config = dataclasses.replace(config, **overrides)

    clean_cache: dict = {}
    records: list[InjectionRecord] = []
    for index in range(config.injections):
        spec = draw_spec(config.seed, index, config.schemes,
                         config.program_sizes, clean_cache)
        record = run_injection(spec, index=index, clean_cache=clean_cache)
        records.append(record)
        if progress is not None:
            progress(record)

    report = CampaignReport.from_records(config, records)
    if config.shrink:
        for record in records:
            if not record.expected:
                reproducer = shrink_reproducer(record)
                if reproducer is not None:
                    report.reproducers.append(reproducer)
    return report
