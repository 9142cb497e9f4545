"""The fault-model zoo: one registry of injection techniques and calibrations.

The paper's quantitative tables are conditioned on one phenomenology —
the clock-glitch model in :mod:`repro.hw.faults` — but the related work
shows defense rankings shift with the injection technique.  This module
makes fault models first-class pluggable objects:

- :data:`FAULT_MODELS` maps a short name to a zero-argument factory: the
  models (``clock``, ``voltage``, ``em``, ``skip``, ``replay``) and the
  named bench calibrations of them (``cw-lite-clock``, ``em-probe-4mm``,
  ...), so glitchers, scans, experiment drivers and the CLI's
  ``--fault-model NAME`` construct either kind the same way;
- :func:`resolve_fault_model` is the single resolution point every layer
  shares: it accepts a model instance or a registered name, and returns
  ``None`` untouched so default campaigns keep their exact historical
  (clock-model) behaviour.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional, Union

from repro.errors import GlitchConfigError
from repro.hw.em import EMFaultModel, SkipReplayModel
from repro.hw.faults import FaultModel
from repro.hw.voltage import VoltageFaultModel

#: registered name → zero-argument factory of a model or a calibration
FAULT_MODELS: dict[str, Callable[[], FaultModel]] = {
    "clock": FaultModel,
    "voltage": VoltageFaultModel,
    "em": EMFaultModel,
    "skip": partial(SkipReplayModel, effect="skip"),
    "replay": partial(SkipReplayModel, effect="replay"),
    # ChipWhisperer-Lite clock glitcher against the STM32F071 — the
    # paper's bench; identical to the default clock model.
    "cw-lite-clock": FaultModel,
    # ChipWhisperer-Lite crowbar voltage glitcher, stock capacitor bank
    # (48-cycle recharge dead time).
    "cw-lite-voltage": VoltageFaultModel,
    # 4 mm EM injection probe per Moro et al.: precise instruction
    # replacement, slightly wider power band.
    "em-probe-4mm": partial(EMFaultModel, fault_amplitude=0.92, width_sigma=13.0),
    # Idealized instruction-skip attacker with a perfect trigger
    # (countermeasure worst-case analysis).
    "skip-precise": partial(
        SkipReplayModel, effect="skip", fault_amplitude=0.97, crash_amplitude=0.10
    ),
    # Idealized instruction-replay attacker (stale prefetch buffer served
    # in place of the faulted fetch).
    "replay-precise": partial(
        SkipReplayModel, effect="replay", fault_amplitude=0.97, crash_amplitude=0.10
    ),
}


def resolve_fault_model(
    fault_model: Union[FaultModel, str, None] = None,
) -> Optional[FaultModel]:
    """Resolve a model selection to an instance (or ``None`` for the default).

    ``fault_model`` may be a ready instance, a :data:`FAULT_MODELS` name,
    or ``None``, which is returned as is so callers keep their historical
    defaults bit-identically.
    """
    if not isinstance(fault_model, str):
        return fault_model
    try:
        factory = FAULT_MODELS[fault_model]
    except KeyError:
        raise GlitchConfigError(
            f"unknown fault model {fault_model!r}; registered: {sorted(FAULT_MODELS)}"
        ) from None
    return factory()


def model_meta(model: FaultModel) -> dict:
    """A fault model's checkpoint fingerprint: its class name plus every
    public calibration field.

    Two calibrations of one model (``em`` and ``em-probe-4mm``) differ in
    a field, so their checkpoints never collide.
    """
    return {"class": type(model).__name__, **model.calibration()}


__all__ = ["FAULT_MODELS", "resolve_fault_model", "model_meta"]
