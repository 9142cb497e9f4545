"""The fault-model zoo: a registry of injection techniques and calibrations.

The paper's quantitative tables are conditioned on one phenomenology —
the clock-glitch model in :mod:`repro.hw.faults` — but the related work
shows defense rankings shift with the injection technique.  This module
makes fault models first-class pluggable objects:

- :data:`FAULT_MODELS` maps a short name (``clock``, ``voltage``, ``em``,
  ``skip``, ``replay``) to a factory, so glitchers, scans, experiment
  drivers, and the CLI construct models by name;
- :class:`CalibrationProfile` bundles a named (seed, amplitude, band)
  parameterization — one per bench setup — and :data:`PROFILES` holds the
  built-in calibrations;
- :func:`resolve_fault_model` is the single resolution point every layer
  shares: it accepts a model instance, a registered name, or a profile
  name, and returns ``None`` untouched so default campaigns keep their
  exact historical (clock-model) behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro.errors import GlitchConfigError
from repro.hw.em import EMFaultModel, SkipReplayModel
from repro.hw.faults import FaultModel
from repro.hw.voltage import VoltageFaultModel

#: registered model name → factory accepting calibration keyword arguments
FAULT_MODELS: dict[str, Callable[..., FaultModel]] = {}


def register_fault_model(name: str, factory: Callable[..., FaultModel]) -> None:
    """Register (or replace) a fault-model factory under ``name``."""
    FAULT_MODELS[name] = factory


register_fault_model("clock", FaultModel)
register_fault_model("voltage", VoltageFaultModel)
register_fault_model("em", EMFaultModel)
register_fault_model("skip", lambda **kwargs: SkipReplayModel(effect="skip", **kwargs))
register_fault_model("replay", lambda **kwargs: SkipReplayModel(effect="replay", **kwargs))


@dataclass(frozen=True)
class CalibrationProfile:
    """A named, reproducible bench calibration for one registered model.

    ``params`` is a tuple of ``(keyword, value)`` pairs forwarded to the
    model factory (kept as a tuple so profiles stay hashable/frozen);
    ``seed`` overrides the model's default seed when set.
    """

    name: str
    model: str
    description: str = ""
    seed: Optional[int] = None
    params: tuple[tuple[str, float], ...] = ()

    def build(self) -> FaultModel:
        """Construct the calibrated model instance."""
        if self.model not in FAULT_MODELS:
            raise GlitchConfigError(
                f"profile {self.name!r} names unknown model {self.model!r}; "
                f"registered: {sorted(FAULT_MODELS)}"
            )
        kwargs = dict(self.params)
        if self.seed is not None:
            kwargs["seed"] = self.seed
        return FAULT_MODELS[self.model](**kwargs)


#: profile name → calibration
PROFILES: dict[str, CalibrationProfile] = {}


def register_profile(profile: CalibrationProfile) -> None:
    """Register (or replace) a calibration profile under its name."""
    PROFILES[profile.name] = profile


register_profile(CalibrationProfile(
    name="cw-lite-clock",
    model="clock",
    description="ChipWhisperer-Lite clock glitcher against the STM32F071 — "
                "the paper's bench; identical to the default clock model.",
))
register_profile(CalibrationProfile(
    name="cw-lite-voltage",
    model="voltage",
    description="ChipWhisperer-Lite crowbar voltage glitcher, stock "
                "capacitor bank (48-cycle recharge dead time).",
))
register_profile(CalibrationProfile(
    name="em-probe-4mm",
    model="em",
    description="4 mm EM injection probe per Moro et al.: precise "
                "instruction replacement, slightly wider power band.",
    params=(("fault_amplitude", 0.92), ("width_sigma", 13.0)),
))
register_profile(CalibrationProfile(
    name="skip-precise",
    model="skip",
    description="Idealized instruction-skip attacker with a perfect "
                "trigger (countermeasure worst-case analysis).",
    params=(("fault_amplitude", 0.97), ("crash_amplitude", 0.10)),
))
register_profile(CalibrationProfile(
    name="replay-precise",
    model="replay",
    description="Idealized instruction-replay attacker (stale prefetch "
                "buffer served in place of the faulted fetch).",
    params=(("fault_amplitude", 0.97), ("crash_amplitude", 0.10)),
))


def resolve_fault_model(
    fault_model: Union[FaultModel, str, None] = None,
    profile: Union[CalibrationProfile, str, None] = None,
) -> Optional[FaultModel]:
    """Resolve a model selection to an instance (or ``None`` for the default).

    ``fault_model`` may be a ready instance, a :data:`FAULT_MODELS` name,
    or ``None``; ``profile`` a :class:`CalibrationProfile` or a
    :data:`PROFILES` name.  A profile wins the calibration: combining it
    with a model *name* is allowed as a consistency assertion (the names
    must agree), but combining it with a pre-built instance is an error.
    ``None``/``None`` returns ``None`` so callers keep their historical
    defaults bit-identically.
    """
    if profile is not None:
        if isinstance(profile, str):
            try:
                profile = PROFILES[profile]
            except KeyError:
                raise GlitchConfigError(
                    f"unknown calibration profile {profile!r}; "
                    f"registered: {sorted(PROFILES)}"
                ) from None
        if isinstance(fault_model, FaultModel):
            raise GlitchConfigError(
                "pass either a pre-built fault_model instance or a profile, "
                "not both: the profile builds its own calibrated instance"
            )
        if isinstance(fault_model, str) and fault_model != profile.model:
            raise GlitchConfigError(
                f"profile {profile.name!r} calibrates the {profile.model!r} "
                f"model but fault_model={fault_model!r} was requested"
            )
        return profile.build()
    if fault_model is None:
        return None
    if isinstance(fault_model, str):
        try:
            factory = FAULT_MODELS[fault_model]
        except KeyError:
            raise GlitchConfigError(
                f"unknown fault model {fault_model!r}; "
                f"registered: {sorted(FAULT_MODELS)}"
            ) from None
        return factory()
    return fault_model


def model_label(model: Optional[FaultModel]) -> str:
    """Short registry-style label for a model instance (``None`` → clock)."""
    if model is None:
        return "clock"
    if isinstance(model, SkipReplayModel):
        return model.effect
    if isinstance(model, EMFaultModel):
        return "em"
    if isinstance(model, VoltageFaultModel):
        return "voltage"
    return "clock"


def model_meta(model: FaultModel) -> dict:
    """A fault model's checkpoint fingerprint: its class name plus every
    public calibration field.

    Two calibrations of one model (``em`` and the ``em-probe-4mm``
    profile) differ in a field, so their checkpoints never collide.
    """
    return {"class": type(model).__name__, **model.calibration()}


__all__ = [
    "FAULT_MODELS",
    "PROFILES",
    "CalibrationProfile",
    "register_fault_model",
    "register_profile",
    "resolve_fault_model",
    "model_label",
    "model_meta",
]
