"""Table III: long glitches spanning both loops (RQ5, §V-D)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exec import ExecOptions
from repro.experiments.render import render_table
from repro.experiments.table1 import scan_guards
from repro.hw.faults import FaultModel
from repro.hw.scan import LongGlitchScan, run_long_glitch_scan

#: paper totals: long-glitch success rates
PAPER_TOTALS = {
    "not_a": 0.00101,
    "a": 0.00730,
    "a_ne_const": 0.000992,
}


@dataclass
class Table3Result:
    scans: dict[str, LongGlitchScan] = field(default_factory=dict)

    def render(self) -> str:
        scans = self.scans
        cycle_labels = [f"0-{row.last_cycle}" for row in next(iter(scans.values())).rows]
        rows = []
        for label_index, label in enumerate(cycle_labels):
            row = [label]
            for guard in scans:
                row.append(scans[guard].rows[label_index].successes)
            rows.append(row)
        totals = ["Total"]
        rates = ["Total (%)"]
        for guard, scan in scans.items():
            totals.append(scan.total_successes)
            rates.append(f"{scan.success_rate * 100:.4f}%")
        rows.append(totals)
        rows.append(rates)
        header = ["Cycles"] + [g for g in scans]
        body = render_table(
            "Table III: long glitches against two subsequent while loops", header, rows
        )
        reference = ", ".join(
            f"{guard}={rate * 100:.3f}%" for guard, rate in PAPER_TOTALS.items()
        )
        return body + f"\npaper totals: {reference}"


def run_table3(
    stride: int = 1,
    last_cycles=range(10, 21),
    fault_model: FaultModel | str | None = None,
    execution: ExecOptions = ExecOptions(),
    obs=None,
) -> Table3Result:
    """Run Table III (model selection as for :func:`repro.experiments.table1.run_table1`)."""
    return Table3Result(scan_guards(
        "table3", run_long_glitch_scan, stride, fault_model, execution, obs,
        last_cycles=last_cycles,
    ))


__all__ = ["Table3Result", "run_table3", "PAPER_TOTALS"]
