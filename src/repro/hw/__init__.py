"""Section V substrate: a clock-glitchable, cycle-accurate MCU simulator.

This package replaces the paper's physical bench — a ChipWhisperer Lite
driving the clock of an STM32F071 (48 MHz Cortex-M0, 3-stage pipeline) —
with a simulated equivalent:

- :mod:`repro.hw.clock` — glitch parameters (trigger offset, width, offset
  into the clock cycle; Figure 1) and the scan grids.
- :mod:`repro.hw.faults` — the fault-physics model mapping (width, offset,
  pipeline state) to corruption effects, deterministic per parameter point.
- :mod:`repro.hw.em` — the EMFI (precise instruction replacement) and
  skip/replay fault models from the related work.
- :mod:`repro.hw.models` — the pluggable fault-model registry
  (``FAULT_MODELS``): the models and their named bench calibrations.
- :mod:`repro.hw.pipeline` — 3-stage fetch/decode/execute pipeline with
  Cortex-M0 cycle timings, built over :mod:`repro.emu`.
- :mod:`repro.hw.mcu` — the board: flash, SRAM, GPIO trigger, seed flash
  page, cycle counter.
- :mod:`repro.hw.glitcher` — the ChipWhisperer-style controller: arm a
  glitch, run the firmware, classify the outcome, read post-mortem state.
- :mod:`repro.hw.scan` — full parameter scans (Tables I, II, III, VI).
- :mod:`repro.hw.search` — the Section V-B optimal-parameter search.
"""

from repro.hw.clock import GlitchParams, WIDTH_RANGE, OFFSET_RANGE, iter_width_offset_grid
from repro.hw.faults import EFFECT_KINDS, FaultEffect, FaultModel, PipelineView
from repro.hw.em import EMFaultModel, SkipReplayModel
from repro.hw.models import FAULT_MODELS, resolve_fault_model
from repro.hw.mcu import Board, FLASH_BASE, SRAM_BASE, GPIO_BASE
from repro.hw.pipeline import PipelinedCPU
from repro.hw.glitcher import AttemptResult, ClockGlitcher
from repro.hw.scan import (
    SingleGlitchScan,
    MultiGlitchScan,
    LongGlitchScan,
    run_single_glitch_scan,
    run_multi_glitch_scan,
    run_long_glitch_scan,
)
from repro.hw.search import ParameterSearch, SearchResult
from repro.hw.voltage import VoltageFaultModel, VoltageGlitchParams, VoltageGlitcher

__all__ = [
    "GlitchParams",
    "WIDTH_RANGE",
    "OFFSET_RANGE",
    "iter_width_offset_grid",
    "EFFECT_KINDS",
    "FaultEffect",
    "FaultModel",
    "PipelineView",
    "EMFaultModel",
    "SkipReplayModel",
    "FAULT_MODELS",
    "resolve_fault_model",
    "Board",
    "FLASH_BASE",
    "SRAM_BASE",
    "GPIO_BASE",
    "PipelinedCPU",
    "AttemptResult",
    "ClockGlitcher",
    "SingleGlitchScan",
    "MultiGlitchScan",
    "LongGlitchScan",
    "run_single_glitch_scan",
    "run_multi_glitch_scan",
    "run_long_glitch_scan",
    "ParameterSearch",
    "SearchResult",
    "VoltageFaultModel",
    "VoltageGlitchParams",
    "VoltageGlitcher",
]
