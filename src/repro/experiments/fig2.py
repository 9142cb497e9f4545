"""Figure 2: glitching effects in emulation (RQ1).

Three panels: (a) AND-model flips, (b) OR-model flips, (c) AND with the
hardened decoder that treats 0x0000 as invalid. We add the XOR model as an
ablation (the paper ran it and reports it lies between AND and OR).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exec import ExecOptions, FailedUnit
from repro.glitchsim import figure2 as _figure2_data
from repro.glitchsim import run_branch_campaign
from repro.glitchsim.results import (
    FigureData,
    render_figure_ascii,
    summarize_mean_success,
    to_csv,
)

#: the paper's headline numbers (Conclusion): "bit-level corruption can
#: 'skip' control flow instructions in ARM with a high likelihood in theory
#: (60% when flipping to 0 and 30% when flipping to 1)"
PAPER_MEAN_SUCCESS = {"and": 0.60, "or": 0.30}


@dataclass
class Figure2Result:
    panels: dict[str, FigureData] = field(default_factory=dict)
    #: quarantined world units of every panel (their branches are absent)
    failed_units: list[FailedUnit] = field(default_factory=list)

    def mean_success(self, panel: str) -> float:
        return summarize_mean_success(self.panels[panel])

    def render(self) -> str:
        parts = []
        for name, data in self.panels.items():
            parts.append(render_figure_ascii(data))
            parts.append("")
        parts.append("Cross-model summary (mean success over all 14 branches):")
        for name in self.panels:
            mean = self.mean_success(name)
            reference = PAPER_MEAN_SUCCESS.get(name.split("-")[0])
            ref_text = f" (paper ≈{reference * 100:.0f}%)" if reference else ""
            parts.append(f"  {name:<14} {mean * 100:6.2f}%{ref_text}")
        return "\n".join(parts)

    def to_csv(self) -> str:
        return "\n\n".join(f"# {name}\n{to_csv(data)}" for name, data in self.panels.items())


def run_figure2(
    k_values: tuple[int, ...] | None = None,
    conditions: list[str] | None = None,
    include_xor: bool = True,
    cache=None,
    execution: ExecOptions = ExecOptions(),
    obs=None,
    engine: str = "vector",
) -> Figure2Result:
    """Regenerate Figure 2. Full sweep by default; pass ``k_values`` /
    ``conditions`` to subsample for quick runs.

    ``execution`` (an :class:`~repro.exec.ExecOptions`) parallelises each
    panel's replay-world units, makes each panel's campaign resumable
    (panels checkpoint independently — the file name embeds the model)
    and quarantines failing sweeps instead of aborting the figure;
    ``cache`` (an ``OutcomeCache`` or a directory path) persists outcomes
    on disk, so the AND/XOR panels share corrupted-word executions and
    re-runs skip emulation entirely.

    ``engine`` selects the harness execution engine for every panel (the
    NumPy lock-step ``"vector"`` backend by default, or ``"snapshot"`` —
    see :class:`repro.glitchsim.SnippetHarness`); the tallies are
    identical for either engine. Each panel emulates a word once per
    replay world (5 for the 14 branches); with a shared cache the
    AND/OR/XOR panels together emulate at most 2^16 unique words per
    world.
    """
    from repro.obs import coerce_observer

    obs = coerce_observer(obs)
    result = Figure2Result()
    common = dict(k_values=k_values, conditions=conditions, cache=cache,
                  execution=execution, obs=obs, engine=engine)
    panels = [
        ("and", "Figure 2a: AND model (1→0 flips)", "and", False),
        ("or", "Figure 2b: OR model (0→1 flips)", "or", False),
        ("and-0invalid", "Figure 2c: AND model, 0x0000 decoded as invalid", "and", True),
    ]
    if include_xor:
        panels.append(
            ("xor", "Figure 2 ablation: XOR model (bidirectional flips)", "xor", False)
        )
    with obs.trace("fig2"):
        for name, title, model, zero_is_invalid in panels:
            campaign = run_branch_campaign(model, zero_is_invalid=zero_is_invalid,
                                           **common)
            result.panels[name] = _figure2_data(campaign, title=title)
            result.failed_units.extend(campaign.failed_units)
    return result


__all__ = ["Figure2Result", "run_figure2", "PAPER_MEAN_SUCCESS"]
