"""Voltage glitching — the other low-cost technique the paper covers.

§II: "In practice, voltage glitching, which is done by either increasing
or decreasing the voltage for a brief period of time, and clock glitching
... are the most common glitching techniques." The tuning parameters
differ (§II-B: "the duration and voltage of the attack"), and §V-C notes a
physical constraint clock glitching doesn't have: "the time required to
recharge a capacitor could be greater than the time needed for the two
glitches, which would prohibit EM or voltage glitching".

This module adapts the clock-glitch machinery to a voltage model:

- parameters are (``ext_offset``, ``dip`` %, ``duration`` %), mapped onto
  the shared susceptibility field;
- the crash halo is wider (brown-out is the dominant failure of supply
  dips);
- a recharge constraint enforces a dead time between glitches: a second
  glitch within ``recharge_cycles`` of the first never bites, which is
  exactly why redundant-check defenses are *stronger* against voltage
  attackers than against clock attackers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import GlitchConfigError
from repro.hw.clock import GlitchParams
from repro.hw.faults import FaultEffect, FaultModel, PipelineView

#: capacitor recharge dead time (cycles) — at 48 MHz even a fast driver
#: needs several microseconds to restore the rail
DEFAULT_RECHARGE_CYCLES = 48


@dataclass(frozen=True)
class VoltageGlitchParams:
    """One voltage glitch: dip the rail by ``dip``% for ``duration``%-of-cycle."""

    ext_offset: int
    dip: int        # [-49, 49]: negative = undervolt, positive = overvolt
    duration: int   # [-49, 49]: ChipWhisperer-style normalized duration knob

    def __post_init__(self) -> None:
        if self.ext_offset < 0:
            raise GlitchConfigError(f"ext_offset must be non-negative, got {self.ext_offset}")
        if not -49 <= self.dip <= 49:
            raise GlitchConfigError(f"dip {self.dip} outside [-49, 49]")
        if not -49 <= self.duration <= 49:
            raise GlitchConfigError(f"duration {self.duration} outside [-49, 49]")

    def as_clock_params(self) -> GlitchParams:
        """Map onto the shared (width, offset) susceptibility field."""
        return GlitchParams(ext_offset=self.ext_offset, width=self.duration, offset=self.dip)


class VoltageFaultModel(FaultModel):
    """The clock fault model re-parameterised for supply glitching.

    Undervolting (negative dip) is where the action is, crashes dominate
    more of the parameter space, and the recharge constraint suppresses
    rapid-succession glitches entirely.
    """

    def __init__(
        self,
        seed: int = 0x0BAD_C0DE,
        recharge_cycles: int = DEFAULT_RECHARGE_CYCLES,
        **kwargs,
    ):
        defaults = dict(
            fault_amplitude=0.85,
            crash_amplitude=0.60,       # brown-out halo is fatter
            width_center=-24.0,         # deep-but-short undervolt sweet spot
            width_sigma=8.0,
            offset_center=-18.0,
            offset_sigma=10.0,
            follow_up_attenuation=0.0,  # superseded by the recharge dead time
        )
        defaults.update(kwargs)
        super().__init__(seed=seed, **defaults)
        self.recharge_cycles = recharge_cycles
        self._last_bite_cycle: Optional[int] = None

    def reset_recharge(self) -> None:
        self._last_bite_cycle = None

    def begin_run(self) -> None:
        """A fresh run starts with the injection capacitor fully charged."""
        self.reset_recharge()

    def effect_at(
        self,
        params: GlitchParams,
        rel_cycle: int,
        view: PipelineView,
        occurrence: int,
        window_index: int = 0,
        absolute_cycle: Optional[int] = None,
    ) -> Optional[FaultEffect]:
        """Like the base model, but a bite discharges the injection capacitor:
        nothing bites again for ``recharge_cycles``."""
        # The dead time is measured in *cycles*. Prefer the board clock;
        # without one, ``rel_cycle`` is still in cycle units (the glitcher
        # always passes ``absolute_cycle``; direct callers may not).
        # Comparing the *occurrence count* against the cycle budget — the
        # old fallback — wrongly capped every such caller at one bite per
        # ~48 realized effects regardless of elapsed time.
        marker = absolute_cycle if absolute_cycle is not None else rel_cycle
        if (
            self._last_bite_cycle is not None
            and marker - self._last_bite_cycle < self.recharge_cycles
        ):
            return None
        effect = super().effect_at(params, rel_cycle, view, occurrence, window_index=0)
        if effect is not None:
            self._last_bite_cycle = marker
        return effect


class VoltageGlitcher:
    """ChipWhisperer-crowbar-style controller over the shared board machinery.

    ``fault_model`` accepts a pre-built model or a
    :data:`repro.hw.models.FAULT_MODELS` name; by default a fresh
    :class:`VoltageFaultModel` is used.
    """

    def __init__(self, firmware, fault_model=None, **glitcher_kwargs):
        from repro.hw.glitcher import ClockGlitcher
        from repro.hw.models import resolve_fault_model

        self.fault_model = resolve_fault_model(fault_model) or VoltageFaultModel()
        self._inner = ClockGlitcher(
            firmware, fault_model=self.fault_model, **glitcher_kwargs
        )

    @property
    def board(self):
        return self._inner.board

    def run_attempt(self, params: VoltageGlitchParams):
        """Fire one voltage glitch and classify the outcome."""
        return self._inner.run_attempt(params.as_clock_params())

    def run_unglitched(self, max_cycles: int = 10_000):
        return self._inner.run_unglitched(max_cycles=max_cycles)


__all__ = [
    "VoltageGlitchParams",
    "VoltageFaultModel",
    "VoltageGlitcher",
    "DEFAULT_RECHARGE_CYCLES",
]
