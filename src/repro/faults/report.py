"""Campaign reporting: outcome counts, unexpected injections, reproducers."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.faults.injectors import KINDS


@dataclass
class CampaignReport:
    """Aggregated result of one fault-injection campaign.

    Every injection is classified into the
    masked/detected/recovered/silent/error/skipped taxonomy, and the
    campaign gates on one invariant — zero unexpected outcomes,
    ``silent`` never acceptable.
    """

    seed: int
    injections: int
    schemes: tuple
    #: {kind: {outcome: count}}
    counts: dict = field(default_factory=dict)
    #: records whose outcome was not in the kind's expected set
    unexpected: list = field(default_factory=list)
    #: ddmin-shrunk reproducers for the unexpected records
    reproducers: list = field(default_factory=list)

    @classmethod
    def from_records(cls, config, records) -> "CampaignReport":
        report = cls(seed=config.seed, injections=config.injections,
                     schemes=tuple(config.schemes))
        for record in records:
            by_outcome = report.counts.setdefault(record.spec.kind, {})
            by_outcome[record.outcome] = by_outcome.get(record.outcome, 0) + 1
            if not record.expected:
                report.unexpected.append(record.to_dict())
        return report

    # ------------------------------------------------------------------ queries
    @property
    def clean(self) -> bool:
        """True when every injection landed in its expected outcome set."""
        return not self.unexpected

    def total(self, outcome: str) -> int:
        return sum(by.get(outcome, 0) for by in self.counts.values())

    @property
    def classified(self) -> int:
        """Total injections that received a classification (all of them —
        the campaign has no fourth state; this exists so callers can
        assert ``classified == injections``)."""
        return sum(sum(by.values()) for by in self.counts.values())

    # ------------------------------------------------------------------ output
    def to_dict(self) -> dict:
        return {
            "title": "fault campaign",
            "seed": self.seed,
            "injections": self.injections,
            "schemes": list(self.schemes),
            "counts": self.counts,
            "unexpected": self.unexpected,
            "reproducers": self.reproducers,
            "clean": self.clean,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def save(self, path) -> None:
        Path(path).write_text(self.to_json() + "\n")

    def summary_lines(self) -> list[str]:
        lines = [
            f"fault campaign: seed {self.seed}, {self.injections} injections "
            f"across {', '.join(self.schemes)}",
            f"  {'kind':<20} " + " ".join(
                f"{o:>10}" for o in
                ("masked", "detected", "recovered", "silent", "error",
                 "skipped")),
        ]
        for kind in KINDS:
            by = self.counts.get(kind)
            if not by:
                continue
            lines.append(
                f"  {kind:<20} " + " ".join(
                    f"{by.get(o, 0):>10}" for o in
                    ("masked", "detected", "recovered", "silent", "error",
                     "skipped")))
        if self.clean:
            lines.append("  all injections classified within expected "
                         "outcomes (no silent corruption)")
        else:
            lines.append(f"  UNEXPECTED outcomes: {len(self.unexpected)} "
                         f"({len(self.reproducers)} shrunk reproducers)")
        return lines
