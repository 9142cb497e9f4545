"""Table VI: effectiveness of the stacked defenses against real attacks (RQ7).

Two scenarios × two defense stacks × three attacks:

- scenarios: ``while(!a)`` (worst case) and ``if (a == SUCCESS)`` (best case);
- stacks: All and All\\Delay (plus the undefended baseline for reference);
- attacks: single glitch (cycle 0-10), long glitch (10-100 cycles), and
  the windowed 10-cycle long glitch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exec import ExecOptions
from repro.experiments.render import render_table
from repro.firmware.guards import build_defended_guard
from repro.hw.faults import FaultModel
from repro.hw.models import resolve_fault_model
from repro.hw.scan import DefenseScanResult, run_defense_scan
from repro.obs import coerce_observer
from repro.resistor import ResistorConfig

#: paper Table VI: (scenario, defense, attack) → (successes, success %, detection %)
PAPER_ROWS = {
    ("while_not_a", "all", "single"): (10, 0.0000928, 0.984),
    ("while_not_a", "all_no_delay", "single"): (4, 0.0000371, 0.996),
    ("while_not_a", "all", "long"): (258, 0.00263, 0.792),
    ("while_not_a", "all_no_delay", "long"): (262, 0.00267, 0.712),
    ("while_not_a", "all", "windowed"): (227, 0.00211, 0.891),
    ("while_not_a", "all_no_delay", "windowed"): (1281, 0.01188, 0.436),
    ("if_success", "all", "single"): (1, 0.00000928, 1.0),
    ("if_success", "all_no_delay", "single"): (1, 0.0000093, 0.954),
    ("if_success", "all", "long"): (3, 0.0000306, 0.997),
    ("if_success", "all_no_delay", "long"): (44, 0.000449, 0.862),
    ("if_success", "all", "windowed"): (10, 0.0000557, 0.997),
    ("if_success", "all_no_delay", "windowed"): (2, 0.0000186, 0.998),
}

DEFENSE_STACKS = {
    "none": ResistorConfig.none,
    "all": ResistorConfig.all,
    "all_no_delay": ResistorConfig.all_but_delay,
}

ATTACKS = ("single", "long", "windowed")
SCENARIOS = ("while_not_a", "if_success")


@dataclass
class Table6Result:
    results: dict[tuple[str, str, str], DefenseScanResult] = field(default_factory=dict)

    def get(self, scenario: str, defense: str, attack: str) -> DefenseScanResult:
        return self.results[(scenario, defense, attack)]

    def render(self) -> str:
        rows = []
        for (scenario, defense, attack), scan in sorted(self.results.items()):
            paper = PAPER_ROWS.get((scenario, defense, attack))
            paper_text = (
                f"{paper[0]} succ ({paper[1] * 100:.4g}%), det {paper[2] * 100:.1f}%"
                if paper
                else "-"
            )
            rows.append([
                scenario, defense, attack,
                f"{scan.successes}/{scan.attempts}",
                f"{scan.success_rate * 100:.5f}%",
                scan.detections,
                f"{scan.detection_rate * 100:.1f}%",
                paper_text,
            ])
        return render_table(
            "Table VI: defended-firmware attack outcomes",
            ["Scenario", "Defense", "Attack", "Succ", "Succ %", "Det", "Det %", "Paper"],
            rows,
        )

    def all_stack_beats_baseline(self) -> bool:
        for scenario in SCENARIOS:
            for attack in ATTACKS:
                key_all = (scenario, "all", attack)
                key_none = (scenario, "none", attack)
                if key_all in self.results and key_none in self.results:
                    if self.results[key_all].success_rate > self.results[key_none].success_rate:
                        return False
        return True


def run_table6(
    stride: int = 1,
    attacks: tuple[str, ...] = ATTACKS,
    scenarios: tuple[str, ...] = SCENARIOS,
    defenses: tuple[str, ...] = ("none", "all", "all_no_delay"),
    fault_model: FaultModel | str | None = None,
    execution: ExecOptions = ExecOptions(),
    obs=None,
) -> Table6Result:
    """Run Table VI (model selection as for :func:`repro.experiments.table1.run_table1`)."""
    model = resolve_fault_model(fault_model)
    obs = coerce_observer(obs)
    result = Table6Result()
    with obs.trace("table6", stride=stride):
        for scenario in scenarios:
            for defense in defenses:
                hardened = build_defended_guard(scenario, DEFENSE_STACKS[defense]())
                for attack in attacks:
                    result.results[(scenario, defense, attack)] = run_defense_scan(
                        hardened.image, attack, scenario=scenario, defense=defense,
                        stride=stride, fault_model=model, execution=execution, obs=obs,
                    )
    return result


__all__ = ["Table6Result", "run_table6", "PAPER_ROWS", "ATTACKS", "SCENARIOS", "DEFENSE_STACKS"]
