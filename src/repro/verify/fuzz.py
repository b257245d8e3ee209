"""Random-program fuzzer for the rename schemes.

Generates seeded random programs from a small JSON-able IR (weighted opcode
mix with loads/stores, forward branches, bounded counted loops, fma/csel,
and optional faults/interrupts/wrong-path variants), runs each program
under every applicable rename scheme with the commit-time oracle and
invariant checking enabled, and cross-checks that the committed-instruction
streams agree between schemes.  A failing program is **shrunk** — drop
instructions, reduce loop trip counts, flatten loops — to a minimal
reproducer that is written to disk for replay and regression.

The IR guarantees termination by construction: control transfers are
forward-only branches plus counted loops whose counter register (``x9``)
is reserved — generated instruction bodies never write it.  Register
conventions:

========  =====================================================
``x1-x6``  integer data registers (random dests/sources)
``f1-f6``  floating-point data registers
``x7``     pointer to the data page (``DATA_BASE``)
``x8``     pointer to a second page (``DATA_BASE + 4096``), so the
           first-touch fault model raises more than one fault
``x9``     loop counter (scaffolding only)
========  =====================================================

Replay a reproducer with ``python -m repro fuzz --replay FILE`` or the
golden-corpus test (``tests/test_corpus.py``).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from repro.core.read_ports import PORT_SCHEMES
from repro.isa.executor import FirstTouchFaults
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op
from repro.isa.program import DATA_BASE, PAGE_BITS, Program
from repro.isa.registers import RegRef, freg, reg, xreg

#: All rename schemes the fuzzer exercises.
ALL_SCHEMES = ("conventional", "sharing", "hinted", "early")

#: Run variants: ``plain`` exercises every scheme; the others need precise
#: state recovery (or wrong-path walk-back) and exclude early release.
VARIANTS = ("plain", "faults", "interrupts", "wrong_path")

_PAGE = 1 << PAGE_BITS
_COUNTER = xreg(9)  # reserved loop counter

_INT_DESTS = [f"x{i}" for i in range(1, 7)]
_INT_SRCS = [f"x{i}" for i in range(0, 10)]  # incl. pointers/counter (reads ok)
_FP_DESTS = [f"f{i}" for i in range(1, 7)]
_FP_SRCS = [f"f{i}" for i in range(0, 8)]

_ALU3 = ["add", "sub", "and", "or", "xor", "slt", "mul"]
_ALUI = ["addi", "subi", "andi", "ori", "xori", "shli", "shri", "slti"]
_DIVS = ["div", "rem"]
_FP3 = ["fadd", "fsub", "fmul", "fmin", "fmax"]
_FP1 = ["fabs", "fneg", "fmov"]
_FPDIV = ["fdiv", "fsqrt"]
_FCMP = ["feq", "flt", "fle"]
_BRANCHES = ["beq", "bne", "blt", "bge", "beqz", "bnez"]


def schemes_for(variant: str, schemes=ALL_SCHEMES) -> tuple[str, ...]:
    """Schemes that can run a variant (early release has no precise state)."""
    if variant == "plain":
        return tuple(schemes)
    return tuple(s for s in schemes if s != "early")


# --------------------------------------------------------------------------- IR
@dataclass
class FuzzProgram:
    """A seeded random program in the fuzzer's shrinkable IR."""

    seed: int
    variant: str = "plain"
    items: list = field(default_factory=list)
    note: str = ""
    #: register-file read-port scheme (repro.core.read_ports) the case
    #: runs under; old reproducers without the field load as 'none'
    port_scheme: str = "none"

    # ------------------------------------------------------------ serialisation
    def to_json(self) -> str:
        return json.dumps(
            {"seed": self.seed, "variant": self.variant,
             "items": self.items, "note": self.note,
             "port_scheme": self.port_scheme},
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "FuzzProgram":
        raw = json.loads(text)
        return cls(seed=raw["seed"], variant=raw["variant"],
                   items=raw["items"], note=raw.get("note", ""),
                   port_scheme=raw.get("port_scheme", "none"))

    def save(self, path) -> None:
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def load(cls, path) -> "FuzzProgram":
        return cls.from_json(Path(path).read_text())

    # ------------------------------------------------------------ shape helpers
    def replace_items(self, items: list) -> "FuzzProgram":
        return FuzzProgram(seed=self.seed, variant=self.variant,
                           items=items, note=self.note,
                           port_scheme=self.port_scheme)

    def instruction_count(self) -> int:
        """Static instruction count of the materialised body (no preamble)."""
        return sum(_item_size(item) for item in self.items)

    # ------------------------------------------------------------ materialise
    def build(self) -> Program:
        """Materialise the IR into an assembled :class:`Program`."""
        insts = list(_preamble())
        _emit(self.items, insts)
        insts.append(Instruction(Op.HALT))
        data = {DATA_BASE + 8 * i: i + 1 for i in range(16)}
        data.update({DATA_BASE + _PAGE + 8 * i: 100 - i for i in range(16)})
        return Program(insts=insts, data=data)


def _preamble() -> list[Instruction]:
    """Deterministic register init; never part of the shrinkable items."""
    out = [
        Instruction(Op.MOVI, dest=xreg(7), imm=DATA_BASE),
        Instruction(Op.MOVI, dest=xreg(8), imm=DATA_BASE + _PAGE),
    ]
    for i in range(1, 7):
        out.append(Instruction(Op.MOVI, dest=xreg(i), imm=3 * i - 7))
        out.append(Instruction(Op.FLI, dest=freg(i), imm=float(2 * i) - 5.5))
    return out


def _item_size(item: dict) -> int:
    """Static instructions one IR item expands to."""
    if item["kind"] == "loop":
        # movi counter; body; subi counter; bnez back-edge
        return 3 + sum(_item_size(sub) for sub in item["body"])
    return 1


def _refs(names) -> tuple[RegRef, ...]:
    return tuple(reg(name) for name in names)


def _emit(items: list, insts: list) -> None:
    """Append the instructions for ``items`` to ``insts``.

    Forward-branch targets are resolved from item sizes before emission
    (``Instruction`` is frozen, so targets must be known at construction).
    """
    sizes = [_item_size(item) for item in items]
    for idx, item in enumerate(items):
        kind = item["kind"]
        pos = len(insts)
        if kind == "op":
            insts.append(Instruction(
                Op(item["op"]),
                dest=reg(item["dest"]) if item.get("dest") else None,
                srcs=_refs(item.get("srcs", [])),
                imm=item.get("imm"),
            ))
        elif kind == "load":
            insts.append(Instruction(
                Op(item["op"]), dest=reg(item["dest"]),
                srcs=(reg(item["base"]),), imm=item["imm"],
            ))
        elif kind == "store":
            insts.append(Instruction(
                Op(item["op"]),
                srcs=(reg(item["value"]), reg(item["base"])),
                imm=item["imm"],
            ))
        elif kind == "branch":
            # skip up to `skip` following items of this body (clamped, so
            # any item subset the shrinker produces stays well-formed)
            skip = min(item["skip"], len(items) - idx - 1)
            target = pos + 1 + sum(sizes[idx + 1: idx + 1 + skip])
            insts.append(Instruction(
                Op(item["op"]), srcs=_refs(item["srcs"]), target=target,
            ))
        elif kind == "trap":
            insts.append(Instruction(Op.TRAP))
        elif kind == "loop":
            insts.append(Instruction(Op.MOVI, dest=_COUNTER,
                                     imm=item["count"]))
            body_start = pos + 1
            _emit(item["body"], insts)
            insts.append(Instruction(Op.SUBI, dest=_COUNTER,
                                     srcs=(_COUNTER,), imm=1))
            insts.append(Instruction(Op.BNEZ, srcs=(_COUNTER,),
                                     target=body_start))
        else:  # pragma: no cover - corrupt reproducer file
            raise ValueError(f"unknown IR item kind {kind!r}")


# --------------------------------------------------------------------- generate
def _random_item(rng: random.Random, allow_control: bool = True,
                 allow_trap: bool = True) -> dict:
    """One weighted random IR item."""
    choices = [
        ("alu3", 20), ("alui", 12), ("movi", 4), ("mov", 2), ("div", 2),
        ("csel", 3), ("fp3", 8), ("fmadd", 3), ("fp1", 2), ("fpdiv", 1),
        ("fcvt", 1), ("ftoi", 1), ("fcmp", 2), ("fli", 2),
        ("load", 8), ("store", 8),
    ]
    if allow_control:
        choices += [("branch", 6), ("loop", 2)]
        if allow_trap:
            choices += [("trap", 1)]
    kinds, weights = zip(*choices)
    kind = rng.choices(kinds, weights=weights)[0]

    if kind == "alu3":
        return {"kind": "op", "op": rng.choice(_ALU3),
                "dest": rng.choice(_INT_DESTS),
                "srcs": [rng.choice(_INT_SRCS), rng.choice(_INT_SRCS)]}
    if kind == "alui":
        return {"kind": "op", "op": rng.choice(_ALUI),
                "dest": rng.choice(_INT_DESTS),
                "srcs": [rng.choice(_INT_SRCS)],
                "imm": rng.randint(-16, 16)}
    if kind == "movi":
        return {"kind": "op", "op": "movi", "dest": rng.choice(_INT_DESTS),
                "imm": rng.randint(-64, 64)}
    if kind == "mov":
        return {"kind": "op", "op": "mov", "dest": rng.choice(_INT_DESTS),
                "srcs": [rng.choice(_INT_SRCS)]}
    if kind == "div":
        return {"kind": "op", "op": rng.choice(_DIVS),
                "dest": rng.choice(_INT_DESTS),
                "srcs": [rng.choice(_INT_SRCS), rng.choice(_INT_SRCS)]}
    if kind == "csel":
        return {"kind": "op", "op": "csel", "dest": rng.choice(_INT_DESTS),
                "srcs": [rng.choice(_INT_SRCS), rng.choice(_INT_SRCS),
                         rng.choice(_INT_SRCS)]}
    if kind == "fp3":
        return {"kind": "op", "op": rng.choice(_FP3),
                "dest": rng.choice(_FP_DESTS),
                "srcs": [rng.choice(_FP_SRCS), rng.choice(_FP_SRCS)]}
    if kind == "fmadd":
        return {"kind": "op", "op": "fmadd", "dest": rng.choice(_FP_DESTS),
                "srcs": [rng.choice(_FP_SRCS), rng.choice(_FP_SRCS),
                         rng.choice(_FP_SRCS)]}
    if kind == "fp1":
        return {"kind": "op", "op": rng.choice(_FP1),
                "dest": rng.choice(_FP_DESTS), "srcs": [rng.choice(_FP_SRCS)]}
    if kind == "fpdiv":
        op = rng.choice(_FPDIV)
        srcs = [rng.choice(_FP_SRCS)]
        if op == "fdiv":
            srcs.append(rng.choice(_FP_SRCS))
        return {"kind": "op", "op": op, "dest": rng.choice(_FP_DESTS),
                "srcs": srcs}
    if kind == "fcvt":
        return {"kind": "op", "op": "fcvt", "dest": rng.choice(_FP_DESTS),
                "srcs": [rng.choice(_INT_SRCS)]}
    if kind == "ftoi":
        return {"kind": "op", "op": "ftoi", "dest": rng.choice(_INT_DESTS),
                "srcs": [rng.choice(_FP_SRCS)]}
    if kind == "fcmp":
        return {"kind": "op", "op": rng.choice(_FCMP),
                "dest": rng.choice(_INT_DESTS),
                "srcs": [rng.choice(_FP_SRCS), rng.choice(_FP_SRCS)]}
    if kind == "fli":
        return {"kind": "op", "op": "fli", "dest": rng.choice(_FP_DESTS),
                "imm": round(rng.uniform(-8.0, 8.0), 3)}
    if kind == "load":
        fp = rng.random() < 0.3
        return {"kind": "load", "op": "fld" if fp else "ld",
                "dest": rng.choice(_FP_DESTS if fp else _INT_DESTS),
                "base": "x8" if rng.random() < 0.25 else "x7",
                "imm": 8 * rng.randint(0, 63)}
    if kind == "store":
        fp = rng.random() < 0.3
        return {"kind": "store", "op": "fst" if fp else "st",
                "value": rng.choice(_FP_SRCS if fp else _INT_SRCS),
                "base": "x8" if rng.random() < 0.25 else "x7",
                "imm": 8 * rng.randint(0, 63)}
    if kind == "branch":
        op = rng.choice(_BRANCHES)
        nsrcs = 1 if op in ("beqz", "bnez") else 2
        return {"kind": "branch", "op": op,
                "srcs": [rng.choice(_INT_SRCS) for _ in range(nsrcs)],
                "skip": rng.randint(1, 4)}
    if kind == "trap":
        return {"kind": "trap"}
    # loop: bounded count, non-nested body (counter x9 is reserved)
    body = [_random_item(rng, allow_control=False)
            for _ in range(rng.randint(2, 6))]
    return {"kind": "loop", "count": rng.randint(2, 6), "body": body}


def generate(seed: int, size: int = 40,
             variant: Optional[str] = None) -> FuzzProgram:
    """Generate one seeded random program (``size`` top-level IR items).

    ``variant`` overrides the seeded variant draw (the draw is still
    consumed, keeping the rng stream aligned with the unforced generator);
    the fault-injection campaign forces ``"plain"`` to keep its workloads
    exception-free — injected adversity must be the *only* adversity in a
    faulted run.
    """
    rng = random.Random(seed)
    drawn = rng.choices(VARIANTS, weights=(5, 3, 2, 2))[0]
    if variant is None:
        variant = drawn
    elif variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    # the plain variant runs under early release too, which cannot take a
    # precise exception — so no TRAPs there (no other item can fault)
    items = [_random_item(rng, allow_trap=variant != "plain")
             for _ in range(size)]
    # drawn *after* the items so every pre-existing seed still generates
    # the identical program body (rng stream compatibility); weighted
    # toward 'none' so most of the corpus stresses the rename schemes
    # alone, and PORT_SCHEMES' order fixes which scheme each draw picks
    port_scheme = rng.choices(PORT_SCHEMES, weights=(2, 1, 1))[0]
    return FuzzProgram(seed=seed, variant=variant, items=items,
                       port_scheme=port_scheme)


# -------------------------------------------------------------------- execution
class FuzzFailure(AssertionError):
    """One fuzz case failed: carries the scheme and underlying cause."""

    def __init__(self, fp: FuzzProgram, scheme: str, cause: str) -> None:
        super().__init__(
            f"fuzz seed {fp.seed} variant {fp.variant!r} failed under "
            f"scheme {scheme!r}: {cause}"
        )
        self.fuzz_program = fp
        self.scheme = scheme
        self.cause = cause


def fuzz_config(scheme: str, variant: str, port_scheme: str = "none"):
    """Pipeline configuration for fuzz runs.

    Small register files maximise reuse/release pressure; a tight cycle
    budget makes genuine failures (deadlock, livelock) fail fast so the
    shrinker stays quick.
    """
    from repro.pipeline.config import MachineConfig

    return MachineConfig(
        scheme=scheme,
        int_regs=48,
        fp_regs=48,
        counter_bits=2,
        verify_values=True,
        model_wrong_path=(variant == "wrong_path"),
        interrupt_interval=300 if variant == "interrupts" else None,
        rf_port_scheme=port_scheme,
        max_cycles=60_000,
    )


def run_case(fp: FuzzProgram, schemes=ALL_SCHEMES) -> dict:
    """Run one fuzz program under every applicable scheme.

    Each run has the commit-time oracle and invariant checking attached;
    afterwards the committed streams are cross-checked between schemes.
    Returns ``{scheme: committed instruction count}`` on success; raises
    :class:`FuzzFailure` on the first failing scheme or stream mismatch.
    """
    from repro.pipeline.debug import check_invariants
    from repro.verify.oracle import CommitRecorder, lockstep_run

    program = fp.build()
    fault = fp.variant == "faults"
    signatures: dict[str, list] = {}
    counts: dict[str, int] = {}
    for scheme in schemes_for(fp.variant, schemes):
        config = fuzz_config(scheme, fp.variant, fp.port_scheme)
        record = CommitRecorder()
        try:
            stats = lockstep_run(
                config, program,
                fault_model=FirstTouchFaults() if fault else None,
                program_budget=100_000,
                on_cycle=check_invariants, on_cycle_interval=8,
                on_commit=record)
        except Exception as exc:
            raise FuzzFailure(fp, scheme,
                              f"{type(exc).__name__}: {exc}") from exc
        signatures[scheme] = record.stream
        counts[scheme] = stats.committed

    baseline_scheme = next(iter(signatures))
    baseline = signatures[baseline_scheme]
    for scheme, stream in signatures.items():
        if stream != baseline:
            first = next(
                (i for i, (a, b) in enumerate(zip(baseline, stream)) if a != b),
                min(len(baseline), len(stream)),
            )
            raise FuzzFailure(
                fp, scheme,
                f"committed stream diverges from {baseline_scheme!r} at "
                f"commit #{first} "
                f"({baseline[first] if first < len(baseline) else '<end>'} vs "
                f"{stream[first] if first < len(stream) else '<end>'})",
            )
    return counts


# ---------------------------------------------------------------------- shrink
def _shrink_item(item: dict) -> list[dict]:
    """Smaller candidate replacements for one IR item (best first)."""
    if item["kind"] != "loop":
        return []
    candidates = []
    if item["count"] > 1:
        candidates.append({**item, "count": 1})
    candidates.append({**item, "body": item["body"][: len(item["body"]) // 2]})
    return candidates


def shrink(
    fp: FuzzProgram,
    fails: Callable[[FuzzProgram], bool],
    max_attempts: int = 2000,
) -> FuzzProgram:
    """Greedy delta-debugging: minimise ``fp`` while ``fails`` holds.

    Alternates chunked item removal (halving chunk sizes, ddmin-style)
    with per-item reductions (loop trip count -> 1, loop body halving,
    loop flattened to its body) until a fixpoint or the attempt budget.
    """
    attempts = 0

    def check(candidate: FuzzProgram) -> bool:
        nonlocal attempts
        attempts += 1
        if attempts > max_attempts:
            return False
        try:
            return fails(candidate)
        except Exception:
            return False  # a *different* crash in the predicate: reject

    current = fp
    improved = True
    while improved:
        improved = False
        # pass 1: drop chunks of items
        chunk = max(1, len(current.items) // 2)
        while chunk >= 1:
            idx = 0
            while idx < len(current.items):
                candidate = current.replace_items(
                    current.items[:idx] + current.items[idx + chunk:]
                )
                if candidate.items != current.items and check(candidate):
                    current = candidate
                    improved = True
                else:
                    idx += chunk
            chunk //= 2
        # pass 2: reduce surviving loops in place
        for idx, item in enumerate(list(current.items)):
            if item["kind"] == "loop":
                flattened = current.replace_items(
                    current.items[:idx] + item["body"]
                    + current.items[idx + 1:]
                )
                if check(flattened):
                    current = flattened
                    improved = True
                    continue
            for repl in _shrink_item(item):
                candidate = current.replace_items(
                    current.items[:idx] + [repl] + current.items[idx + 1:]
                )
                if check(candidate):
                    current = candidate
                    improved = True
                    break
    return current


# ------------------------------------------------------------------- campaign
def fuzz(
    count: int = 25,
    seed_base: int = 0,
    size: int = 40,
    schemes=ALL_SCHEMES,
    out_dir: Optional[str] = None,
    log: Callable[[str], None] = lambda msg: None,
) -> list[FuzzFailure]:
    """Run a fuzzing campaign of ``count`` seeded programs.

    Failing programs are shrunk and written to ``out_dir`` (when given) as
    ``repro_seed<N>.json`` reproducers.  Returns the list of failures
    (empty = clean campaign).
    """
    failures: list[FuzzFailure] = []
    for offset in range(count):
        seed = seed_base + offset
        fp = generate(seed, size=size)
        try:
            counts = run_case(fp, schemes=schemes)
        except FuzzFailure as failure:
            log(f"seed {seed} ({fp.variant}): FAIL — {failure.cause}")

            def still_fails(candidate: FuzzProgram) -> bool:
                try:
                    run_case(candidate, schemes=schemes)
                except FuzzFailure:
                    return True
                return False

            minimal = shrink(fp, still_fails)
            minimal.note = failure.cause
            log(f"seed {seed}: shrunk {fp.instruction_count()} -> "
                f"{minimal.instruction_count()} instructions")
            if out_dir is not None:
                path = Path(out_dir)
                path.mkdir(parents=True, exist_ok=True)
                minimal.save(path / f"repro_seed{seed}.json")
                log(f"seed {seed}: reproducer written to "
                    f"{path / f'repro_seed{seed}.json'}")
            failure.fuzz_program = minimal
            failures.append(failure)
        else:
            schemes_run = schemes_for(fp.variant, schemes)
            log(f"seed {seed} ({fp.variant}): ok — "
                f"{counts[schemes_run[0]]} insts × {len(schemes_run)} schemes")
    return failures
