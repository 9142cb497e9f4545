"""Table I: single-glitch scans of the three guard loops (RQ2, RQ3, RQ4)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exec import ExecOptions
from repro.experiments.render import render_table
from repro.firmware.loops import GUARD_KINDS, guard_descriptor
from repro.hw.faults import FaultModel
from repro.hw.models import resolve_fault_model
from repro.hw.scan import SingleGlitchScan, run_single_glitch_scan
from repro.obs import coerce_observer

#: paper totals: successes, attempts-per-cycle basis, success rate
PAPER_TOTALS = {
    "not_a": {"successes": 585, "rate": 0.00705, "unique_registers": 12},
    "a": {"successes": 272, "rate": 0.00347, "unique_registers": 7},
    "a_ne_const": {"successes": 352, "rate": 0.00449, "unique_registers": 7},
}


@dataclass
class Table1Result:
    scans: dict[str, SingleGlitchScan] = field(default_factory=dict)

    def render(self) -> str:
        parts = []
        for guard, scan in self.scans.items():
            descriptor = guard_descriptor(guard)
            rows = []
            for row in scan.rows:
                top = ", ".join(
                    f"{value:#x}×{count}"
                    for value, count in row.register_values.most_common(4)
                )
                rows.append([row.cycle, row.instruction, row.successes, top])
            reference = PAPER_TOTALS[guard]
            title = (
                f"Table I ({descriptor.description}) — "
                f"total {scan.total_successes}/{scan.total_attempts} "
                f"({scan.success_rate * 100:.3f}%), "
                f"{scan.unique_register_values} unique register values "
                f"[paper: {reference['successes']} succ, "
                f"{reference['rate'] * 100:.3f}%, {reference['unique_registers']} unique]"
            )
            parts.append(
                render_table(
                    title,
                    ["Cycle", "Instruction", "Successes", f"R{descriptor.comparator_register} (top)"],
                    rows,
                )
            )
            parts.append("")
        return "\n".join(parts)

    def ordering_matches_paper(self) -> bool:
        """The paper's RQ3 finding: while(!a) most vulnerable, while(a) most resilient."""
        rates = {guard: scan.success_rate for guard, scan in self.scans.items()}
        return rates["not_a"] > rates["a_ne_const"] > rates["a"]


def scan_guards(
    name: str, scan, stride: int, fault_model, execution: ExecOptions, obs, **keys
) -> dict:
    """``scan`` over every guard loop with one resolved fault model, under
    one ``name`` trace span: the body of Tables I-III."""
    model = resolve_fault_model(fault_model)
    obs = coerce_observer(obs)
    with obs.trace(name, stride=stride):
        return {
            guard: scan(guard, stride=stride, fault_model=model, execution=execution,
                        obs=obs, **keys)
            for guard in GUARD_KINDS
        }


def run_table1(
    stride: int = 1,
    cycles=range(8),
    fault_model: FaultModel | str | None = None,
    execution: ExecOptions = ExecOptions(),
    obs=None,
) -> Table1Result:
    """Run Table I under the paper's clock model, or the model or
    calibration ``fault_model`` selects (an instance or a registered name —
    see :func:`repro.hw.models.resolve_fault_model`).
    """
    return Table1Result(scan_guards(
        "table1", run_single_glitch_scan, stride, fault_model, execution, obs,
        cycles=cycles,
    ))


__all__ = ["Table1Result", "run_table1", "scan_guards", "PAPER_TOTALS"]
