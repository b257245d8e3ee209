"""Table reproductions (Tables I, II and III)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.area import table2, validate_table3
from repro.area.equal_area import equal_area_banks
from repro.harness.render import text_table
from repro.pipeline.config import TABLE_I, TABLE_III


def table1() -> str:
    """Render Table I (system configuration)."""
    rows = []
    for section, entries in TABLE_I.items():
        for key, value in entries.items():
            rows.append([section, key, value])
            section = ""
    return text_table(["unit", "parameter", "value"], rows,
                      title="Table I: system configuration")


@dataclass
class Table2Result:
    rows: dict = field(default_factory=table2)

    def total_overhead(self) -> float:
        return self.rows["Total Overhead"][1]

    def render(self) -> str:
        table_rows = [[unit, cfg, f"{area:.4e}"]
                      for unit, (cfg, area) in self.rows.items()]
        return text_table(["unit", "configuration", "area (mm^2)"], table_rows,
                          title="Table II: area of register files and overheads")


def table2_result() -> Table2Result:
    return Table2Result()


@dataclass
class Table3Result:
    #: (baseline, paper banks, derived banks, paper util, derived util)
    rows: list = field(default_factory=list)

    def render(self) -> str:
        table_rows = [
            [baseline,
             "/".join(map(str, paper_banks)),
             f"{paper_util:.2f}",
             "/".join(map(str, derived_banks)),
             f"{derived_util:.2f}"]
            for baseline, paper_banks, paper_util, derived_banks, derived_util
            in self.rows
        ]
        return text_table(
            ["baseline regs", "paper banks (0/1/2/3-sh)", "paper area util",
             "derived banks", "derived area util"],
            table_rows,
            title="Table III: equal-area register file configurations")


def table3() -> Table3Result:
    result = Table3Result()
    validation = {row[0]: row for row in validate_table3()}
    from repro.area.equal_area import baseline_area, proposed_area

    for baseline in sorted(TABLE_III):
        paper_banks = TABLE_III[baseline]
        paper_util = validation[baseline][4]
        derived = equal_area_banks(baseline)
        derived_util = proposed_area(derived) / baseline_area(baseline)
        result.rows.append(
            (baseline, paper_banks, paper_util, derived, derived_util))
    return result
