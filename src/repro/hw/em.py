"""Electromagnetic fault injection, and the skip/replay abstractions.

Moro et al. (PAPERS.md) characterize EMFI against a 32-bit MCU very
differently from the timing-violation picture behind clock and voltage
glitching: the pulse couples into the flash/prefetch path, so "the fault
model is a precise instruction replacement" — the fetched or latched
encoding is corrupted with a *narrow*, *bidirectional* bit flip while the
execute stage is barely touched.  :class:`EMFaultModel` re-weights the
shared phenomenology machinery's tables accordingly:

- realization lands overwhelmingly on the fetch bus / decode latch;
- flips are XOR-dominant (set and clear both occur, unlike the 1→0
  bias of clock glitches);
- masks stay 1-2 bits wide even for long pulses — an EM pulse corrupts
  one encoding precisely rather than starving the bus for many cycles.

:class:`SkipReplayModel` is the higher-level abstraction both Moro et al.
and Lu use when reasoning about countermeasures: a faulted instruction
either does not execute at all (*skip*, modeled as a NOP replacement) or
the previous instruction executes again in its place (*replay*, the
prefetch buffer serving stale content).  Its bites land on its one
``skip``/``replay`` effect whatever stage the view shows; the crash and
follow-up-window decisions are the base model's.
:mod:`repro.hw.pipeline` applies the effect at instruction completion.
"""

from __future__ import annotations

from repro.errors import GlitchConfigError
from repro.hw.clock import GlitchParams
from repro.hw.faults import FaultModel, PipelineView


class EMFaultModel(FaultModel):
    """Moro-et-al.-style EMFI: precise instruction replacement in the front end."""

    #: the execute stage is nearly immune — tiny residual couplings only
    KIND_WEIGHTS = {
        "fetch": 0.78,
        "decode": 0.16,
        "load_data": 0.03,
        "cmp_transient": 0.04,
        "store_data": 0.03,
        "branch_decision": 0.02,
        "writeback": 0.01,
    }
    #: bidirectional: EM pulses set and clear bits alike
    MODE_WEIGHTS = {"xor": 0.56, "and": 0.22, "or": 0.22}

    def __init__(self, seed: int = 0xE1EC_7120, **kwargs):
        defaults = dict(
            fault_amplitude=0.90,
            crash_amplitude=0.30,   # pulses rarely brown the core out
            width_center=12.0,      # pulse-power knob on the shared grid
            width_sigma=11.0,
            offset_center=8.0,
            offset_sigma=12.0,
            follow_up_attenuation=0.30,  # coil recharge hurts rapid pairs
        )
        defaults.update(kwargs)
        super().__init__(seed=seed, **defaults)

    def _bit_count(self, roll: float, bits: int, repeat: int) -> int:
        # precise replacement: 1-2 flipped bits, independent of pulse length
        return 1 if roll < 0.75 else 2


class SkipReplayModel(FaultModel):
    """Deterministic instruction-skip / instruction-replay fault abstraction.

    Every bite realizes as exactly one effect — ``skip`` (the executing
    instruction never commits) or ``replay`` (the previously retired
    instruction executes again in its place) — with no mask randomness,
    so the same (seed, params, cycle) always yields the same corruption.
    """

    EFFECTS = ("skip", "replay")

    def __init__(self, effect: str = "skip", seed: int = 0x5EED_517E, **kwargs):
        if effect not in self.EFFECTS:
            raise GlitchConfigError(
                f"SkipReplayModel effect must be one of {self.EFFECTS}, got {effect!r}"
            )
        defaults = dict(
            fault_amplitude=0.90,
            crash_amplitude=0.25,
            follow_up_attenuation=0.60,
        )
        defaults.update(kwargs)
        super().__init__(seed=seed, **defaults)
        self.effect = effect

    def _pick_kind(
        self, params: GlitchParams, rel_cycle: int, view: PipelineView, occurrence: int
    ) -> str:
        return self.effect


__all__ = ["EMFaultModel", "SkipReplayModel"]
