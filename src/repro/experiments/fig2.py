"""Figure 2: glitching effects in emulation (RQ1).

Three panels: (a) AND-model flips, (b) OR-model flips, (c) AND with the
hardened decoder that treats 0x0000 as invalid. We add the XOR model as an
ablation (the paper ran it and reports it lies between AND and OR).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exec import ExecOptions, FailedUnit
from repro.glitchsim import figure2 as _figure2_data
from repro.glitchsim.campaign import _run_campaigns, _select_snippets
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

#: (panel name, title, flip model, zero_is_invalid), in render order; the
#: XOR ablation comes last
_PANELS = (
    ("and", "Figure 2a: AND model (1→0 flips)", "and", False),
    ("or", "Figure 2b: OR model (0→1 flips)", "or", False),
    ("and-0invalid", "Figure 2c: AND model, 0x0000 decoded as invalid", "and", True),
    ("xor", "Figure 2 ablation: XOR model (bidirectional flips)", "xor", False),
)


@dataclass
class Figure2Result:
    panels: dict[str, FigureData] = field(default_factory=dict)
    #: quarantined world units (their branches are absent from every panel)
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

    The panels run as one campaign whose work unit is one replay world
    (5 for the 14 branches) under every panel: AND, OR and XOR on the
    plain decoder, then AND with 0x0000 invalid on a second harness of
    the world, which takes its codes from the plain decoder's batch (a
    word is ``invalid_instruction`` there iff its lane decoded 0x0000;
    :class:`repro.emu.vector.VectorRun`). So each corrupted word is
    emulated once per world, and the panels tally from that one
    classification. Snippets and harnesses live for this call only.

    ``execution`` (an :class:`~repro.exec.ExecOptions`) parallelises the
    world units, makes the campaign resumable (the checkpoint file name
    embeds its panels, ``branch-and+or+and-0invalid+xor``) and quarantines
    failing units instead of aborting the figure; a quarantined world is
    absent from every panel. ``cache`` (an ``OutcomeCache``
    or a directory path) persists outcomes on disk, so re-runs skip
    emulation entirely.

    ``engine`` accepts only ``"vector"``, the one batch engine, and
    anything else raises ``ValueError``. It survives for the benchmark
    workload in ``perfbench/workloads.py``, which calls
    ``run_figure2(engine="vector", obs=obs)``.
    """
    from repro.obs import coerce_observer

    if engine != "vector":
        raise ValueError(f"unknown engine {engine!r}; the only engine is 'vector'")
    obs = coerce_observer(obs)
    panels = _PANELS if include_xor else _PANELS[:3]
    snippets = _select_snippets(conditions)
    result = Figure2Result()
    with obs.trace("fig2"):
        runs = _run_campaigns(tuple((model, mode) for _, _, model, mode in panels),
                              snippets, k_values, cache, execution, obs)
        # the panels share the quarantined world units
        result.failed_units = runs[0].failed_units
        for (name, title, _, _), run in zip(panels, runs):
            result.panels[name] = _figure2_data(run, title=title)
    return result


__all__ = ["Figure2Result", "run_figure2", "PAPER_MEAN_SUCCESS"]
