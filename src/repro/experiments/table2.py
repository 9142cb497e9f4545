"""Table II: partial and full multi-glitch attacks (RQ5)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exec import ExecOptions
from repro.experiments.render import render_table
from repro.experiments.table1 import scan_guards
from repro.firmware.loops import guard_descriptor
from repro.hw.faults import FaultModel
from repro.hw.scan import MultiGlitchScan, run_multi_glitch_scan

#: paper totals per guard: (partial rate, full rate, reduction factor)
PAPER_TOTALS = {
    "not_a": {"partial": 0.01330, "full": 0.00494, "factor": 6.0},
    "a": {"partial": 0.00420, "full": 0.00068, "factor": 3.0},
    "a_ne_const": {"partial": 0.00413, "full": 0.00258, "factor": 1.6},
}


@dataclass
class Table2Result:
    scans: dict[str, MultiGlitchScan] = field(default_factory=dict)

    def render(self) -> str:
        rows = []
        for guard, scan in self.scans.items():
            reference = PAPER_TOTALS[guard]
            rows.append([
                guard_descriptor(guard).description,
                scan.total_partial,
                f"{scan.partial_rate * 100:.4f}%",
                scan.total_full,
                f"{scan.full_rate * 100:.4f}%",
                f"{reference['partial'] * 100:.3f}% / {reference['full'] * 100:.3f}%",
            ])
        header = [
            "Guard", "Partial", "Partial %", "Full", "Full %", "Paper (partial/full)",
        ]
        body = render_table(
            "Table II: multi-glitch attacks (two back-to-back triggers)", header, rows
        )
        notes = [
            "",
            "Per-cycle rows:",
        ]
        for guard, scan in self.scans.items():
            per_cycle = ", ".join(f"c{r.cycle}:{r.partial}/{r.full}" for r in scan.rows)
            notes.append(f"  {guard:<12} {per_cycle}")
        return body + "\n" + "\n".join(notes)

    def multi_glitch_harder_everywhere(self) -> bool:
        """§V-C's core claim: a full multi-glitch is significantly rarer
        than a partial one for every guard."""
        return all(
            scan.total_full < scan.total_partial or scan.total_partial == 0
            for scan in self.scans.values()
        )


def run_table2(
    stride: int = 1,
    cycles=range(8),
    fault_model: FaultModel | str | None = None,
    execution: ExecOptions = ExecOptions(),
    obs=None,
) -> Table2Result:
    """Run Table II (model selection as for :func:`repro.experiments.table1.run_table1`)."""
    return Table2Result(scan_guards(
        "table2", run_multi_glitch_scan, stride, fault_model, execution, obs,
        cycles=cycles,
    ))


__all__ = ["Table2Result", "run_table2", "PAPER_TOTALS"]
