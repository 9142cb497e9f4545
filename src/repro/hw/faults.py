"""The clock-glitch fault-physics model.

No software model can *be* the physics of a clock glitch; what it can do is
reproduce the phenomenology the paper (and the fault-model literature it
cites: Balasch+'11, Moro+'13, Korak & Hoefler '14, Timmers+'16) reports:

1. Only a band of (width, offset) combinations produces faults; points
   around the band tend to crash/reset the chip; most of the grid does
   nothing. (§II-B "tuning", §V-A scan results: 0.3-0.7% success over the
   9,801-point grid.)
2. Bit corruption is predominantly unidirectional 1→0 for clock/voltage
   glitches (§IV).
3. Faults land in pipeline stages: instruction-fetch/decode corruption is
   the dominant "skip" mechanism; loads are the most data-corruptible
   ("load and store instructions appear to be more susceptible"); pure
   register-register ALU ops are "exceptionally difficult to glitch" (§V-A).
4. *Whether* a parameter point faults is deterministic per point — that is
   what makes the paper's tuning phase converge to 100% repeatability
   (§V-B) — while *which bits* flip varies between occurrences, which is
   why back-to-back multi-glitches succeed far less often than single
   glitches (§V-C).

The model is fully deterministic given its ``seed``: occurrence decisions
hash (seed, width, offset, relative cycle); realizations additionally hash
an occurrence counter.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from typing import Optional

from repro.hw.clock import GlitchParams

#: Stage/kind of a realized corruption.
EFFECT_KINDS = (
    "fetch",       # corrupt the halfword on the fetch bus
    "decode",      # corrupt the halfword sitting in the decode latch
    "load_data",   # corrupt the data returned by a load (persistent)
    "cmp_transient",  # corrupt a compare's view of its operand (transient:
                      # the register file keeps the true value — post-mortem
                      # reads show the *correct* value, Table I's "0" rows)
    "store_data",  # corrupt the data written by a store
    "writeback",   # corrupt an ALU result being written back
    "branch_decision",  # flip a conditional branch's taken/not-taken decision
    "skip",        # squash the executing instruction (issues but never commits)
    "replay",      # re-execute the previously retired instruction instead
    "reset",       # the glitch crashed the core (brown-out / lockup)
)

#: memo marker for a (width, offset) point not yet decided
_UNSEEN = object()

_LOAD_SUBSTITUTES = ("zero", "bus_residue", "sp_leak", "pattern", "mask", "wrong_reg")


@dataclass(frozen=True)
class FaultEffect:
    """One realized corruption at one clock cycle."""

    kind: str
    rel_cycle: int
    mask: int = 0
    mode: str = "and"  # and | or | xor
    substitute: Optional[str] = None  # load_data only

    def cache_key(self) -> tuple:
        return (self.kind, self.rel_cycle, self.mask, self.mode, self.substitute)


@dataclass(frozen=True)
class PipelineView:
    """What the fault model can see of the pipeline at the glitched cycle."""

    executing_class: str  # "load" | "store" | "branch" | "alu" | "none"
    has_fetch: bool = True
    has_decode: bool = True


class FaultModel:
    """Deterministic (width, offset, cycle) → corruption mapping."""

    def __init__(
        self,
        seed: int = 0x600D5EED,
        fault_amplitude: float = 0.95,
        crash_amplitude: float = 0.40,
        width_center: float = 20.0,
        width_sigma: float = 9.0,
        offset_center: float = -10.0,
        offset_sigma: float = 13.0,
        follow_up_attenuation: float = 0.45,
    ):
        self.seed = seed
        self.fault_amplitude = fault_amplitude
        self.crash_amplitude = crash_amplitude
        self.width_center = width_center
        self.width_sigma = width_sigma
        self.offset_center = offset_center
        self.offset_sigma = offset_sigma
        #: chance that a glitch in a *follow-up* trigger window bites at all —
        #: "there are numerous physical limitations to generating multiple
        #: glitches in rapid succession" (§V-C)
        self.follow_up_attenuation = follow_up_attenuation
        #: (width, offset) -> :meth:`_point_decision`, filled on first use
        self._points: dict = {}

    def __getstate__(self) -> dict:
        # the point memo is derived data: ship models to workers without it
        state = self.__dict__.copy()
        state["_points"] = {}
        return state

    def begin_run(self) -> None:
        """Reset per-run state before an attempt starts.

        The clock model is stateless, so this is a no-op; stateful models
        (the voltage model's recharge capacitor) override it so that any
        driver — glitcher, scan, or direct use — starts each run clean.
        """

    # ------------------------------------------------------------------
    # susceptibility field
    # ------------------------------------------------------------------

    def fault_probability(self, width: int, offset: int) -> float:
        """Probability that (width, offset) lands in the fault-inducing band."""
        return self.fault_amplitude * self._gaussian(width, offset, 1.0)

    def crash_probability(self, width: int, offset: int) -> float:
        """Probability of a crash/reset: a wider halo around the sweet band."""
        halo = self.crash_amplitude * self._gaussian(width, offset, 2.2)
        # extreme widths brown the core out regardless of offset
        extreme = 0.35 if abs(width) >= 47 else 0.0
        return min(0.95, halo + extreme)

    def _gaussian(self, width: int, offset: int, spread: float) -> float:
        dw = (width - self.width_center) / (self.width_sigma * spread)
        do = (offset - self.offset_center) / (self.offset_sigma * spread)
        return math.exp(-(dw * dw + do * do))

    # ------------------------------------------------------------------
    # occurrence + realization
    # ------------------------------------------------------------------

    def effect_at(
        self,
        params: GlitchParams,
        rel_cycle: int,
        view: PipelineView,
        occurrence: int,
        window_index: int = 0,
        absolute_cycle: Optional[int] = None,
    ) -> Optional[FaultEffect]:
        """Decide whether the glitch at ``rel_cycle`` corrupts anything, and how.

        ``absolute_cycle`` (the board clock at the glitched cycle) is unused
        by the clock model but consumed by subclasses with time-dependent
        state (the voltage model's capacitor recharge).

        ``occurrence`` counts realized glitch events within the current run;
        it perturbs the realization (mask bits, substitution) but not the
        fault/crash decision, which stays parameter-deterministic.
        ``window_index`` is 0 for the first trigger window, 1+ for follow-up
        glitches fired in rapid succession, which bite less reliably.
        """
        decision = self.occurrence_decision(params, rel_cycle)
        if decision is None:
            return None
        if decision == "crash":
            return FaultEffect(kind="reset", rel_cycle=rel_cycle)
        if window_index > 0:
            follow = self._uniform(
                "follow", params.width, params.offset, rel_cycle, window_index, occurrence
            )
            if follow >= self.follow_up_attenuation:
                return None
        kind = self._pick_kind(params, rel_cycle, view, occurrence)
        if kind is None:
            # Nothing corruptible is visible at this cycle (a stalled
            # pipeline view with no latches and an unmatched executing
            # class): the glitch fires into dead air.
            return None
        if kind == "load_data":
            # "zero" models a failed load writing 0 (§V-D's long-glitch
            # hypothesis); "wrong_reg" models §V-A's observation that "the
            # LDR instruction was corrupted to load the [value] into the
            # wrong register"; the rest reproduce the Table I residue
            # families (bus/SP mixes, stuck-line patterns, plain flips).
            if params.repeat >= 4:
                # A glitch sustained across the load's address and data
                # cycles starves the bus: "glitching so many load
                # instructions could cause the various load instructions to
                # fail, which would write 0 into the register" (§V-D).
                weights = (0.80, 0.04, 0.02, 0.05, 0.05, 0.04)
            else:
                weights = (0.14, 0.15, 0.08, 0.19, 0.24, 0.20)
            substitute = self._pick(
                "subst", _LOAD_SUBSTITUTES, weights, params, rel_cycle, occurrence,
            )
            mask = self._mask(params, rel_cycle, occurrence, bits=32)
            return FaultEffect(
                kind=kind, rel_cycle=rel_cycle, mask=mask,
                mode=self._pick_mode(params, rel_cycle, occurrence), substitute=substitute,
            )
        if kind in ("fetch", "decode"):
            mask = self._mask(params, rel_cycle, occurrence, bits=16)
            return FaultEffect(
                kind=kind, rel_cycle=rel_cycle, mask=mask,
                mode=self._pick_mode(params, rel_cycle, occurrence),
            )
        if kind in ("store_data", "writeback", "cmp_transient"):
            mask = self._mask(params, rel_cycle, occurrence, bits=32)
            return FaultEffect(
                kind=kind, rel_cycle=rel_cycle, mask=mask,
                mode=self._pick_mode(params, rel_cycle, occurrence),
            )
        return FaultEffect(kind=kind, rel_cycle=rel_cycle)

    def occurrence_decision(self, params: GlitchParams, rel_cycle: int) -> Optional[str]:
        """Parameter-deterministic decision: ``"fault"``, ``"crash"``, or ``None``.

        Crashing is a property of the *parameter point* (a too-aggressive
        glitch browns the core out every time, at the first glitched
        cycle), while fault occurrence is additionally per-cycle — the
        vulnerable latch window of each cycle's logic differs.
        """
        point = self._point(params)
        if not isinstance(point, tuple):
            return point  # "crash", or None: no cycle of this point faults
        # Fault occurrence is strongly correlated within a parameter point:
        # the same timing margin is violated every cycle, so a point either
        # faults on most glitched cycles or on none — per-cycle variation is
        # secondary. (This is what makes long glitches "irrecoverable" in
        # the sweet band rather than conveniently sparse.)
        point_term, probability = point
        cycle_roll = self._uniform("occur", params.width, params.offset, rel_cycle)
        if point_term + 0.25 * cycle_roll < probability:
            return "fault"
        return None

    def first_occurrence(self, params: GlitchParams) -> Optional[tuple[int, str]]:
        """``(rel_cycle, decision)`` for the first glitched cycle whose
        :meth:`occurrence_decision` is not ``None``, or ``None``."""
        if self._point(params) is None:
            return None  # no cycle of this point faults
        for rel_cycle in params.glitched_cycles():
            decision = self.occurrence_decision(params, rel_cycle)
            if decision is not None:
                return rel_cycle, decision
        return None

    def _point(self, params: GlitchParams):
        """The memoized :meth:`_point_decision` of ``params``' grid point.

        Computed once per ``(width, offset)`` and kept on the model, so the
        model's parameters must not change after its first decision.
        """
        key = (params.width, params.offset)
        point = self._points.get(key, _UNSEEN)
        if point is _UNSEEN:
            point = self._points[key] = self._point_decision(*key)
        return point

    def _point_decision(self, width: int, offset: int):
        """The per-point part of :meth:`occurrence_decision`.

        ``"crash"``; ``None`` when no cycle of the point can fault; else
        ``(0.75 * point_roll, fault_probability)`` for the per-cycle blend.
        The ``None`` test is exact: the blend adds ``0.25 * cycle_roll >= 0``
        to ``0.75 * point_roll``, and adding a non-negative float never
        lowers a sum, so a point term at or above the probability stays
        there for every cycle roll.
        """
        crash_roll = self._uniform("crashpt", width, offset)
        if crash_roll < self.crash_probability(width, offset):
            return "crash"
        point_term = 0.75 * self._uniform("occurpt", width, offset)
        probability = self.fault_probability(width, offset)
        if point_term >= probability:
            return None
        return point_term, probability

    # ------------------------------------------------------------------

    def _pick_kind(
        self, params: GlitchParams, rel_cycle: int, view: PipelineView, occurrence: int
    ) -> Optional[str]:
        weights: list[tuple[str, float]] = []
        if view.has_fetch:
            weights.append(("fetch", 0.45))
        if view.has_decode:
            weights.append(("decode", 0.18))
        if view.executing_class == "load":
            weights.append(("load_data", 0.15))
        elif view.executing_class == "compare":
            # corrupt the comparator's operand path: the flags come out
            # wrong but the register file is untouched, so a redundant
            # recheck (GlitchResistor) sees the true value
            weights.append(("cmp_transient", 0.70))
        elif view.executing_class == "store":
            weights.append(("store_data", 0.30))
        elif view.executing_class == "branch":
            weights.append(("branch_decision", 0.18))
        elif view.executing_class == "alu":
            # "instructions which simply manipulate registers appear to be
            # exceptionally difficult to glitch" (§V-A)
            weights.append(("writeback", 0.04))
        names = tuple(name for name, _ in weights)
        probabilities = tuple(weight for _, weight in weights)
        return self._pick("kind", names, probabilities, params, rel_cycle, occurrence)

    def _pick_mode(self, params: GlitchParams, rel_cycle: int, occurrence: int) -> str:
        # unidirectional 1→0 dominates clock glitching (§IV)
        return self._pick(
            "mode", ("and", "or", "xor"), (0.72, 0.14, 0.14), params, rel_cycle, occurrence
        )

    def _mask(self, params: GlitchParams, rel_cycle: int, occurrence: int, bits: int) -> int:
        count_roll = self._uniform("bits", params.width, params.offset, rel_cycle, occurrence)
        if bits == 16 and params.repeat >= 4:
            # Sustained clock starvation mangles many bits of the fetched
            # halfword, which is why long glitches usually cause
            # "irrecoverable corruption" rather than a clean skip (§V-D).
            count = 2 + int(count_roll * 5)
        elif count_roll < 0.55:
            count = 1
        elif count_roll < 0.80:
            count = 2
        elif count_roll < 0.93:
            count = 3
        else:
            count = 4
        mask = 0
        for index in range(count):
            position = int(
                self._uniform("pos", params.width, params.offset, rel_cycle, occurrence, index)
                * bits
            ) % bits
            mask |= 1 << position
        return mask

    def _pick(
        self,
        label: str,
        names: tuple[str, ...],
        weights: tuple[float, ...],
        params: GlitchParams,
        rel_cycle: int,
        occurrence: int,
    ) -> Optional[str]:
        if not names:
            return None
        total = sum(weights)
        roll = self._uniform(label, params.width, params.offset, rel_cycle, occurrence) * total
        cumulative = 0.0
        for name, weight in zip(names, weights):
            cumulative += weight
            if roll < cumulative:
                return name
        return names[-1]

    def _uniform(self, label: str, *keys: int) -> float:
        payload = label.encode() + struct.pack(f"<q{len(keys)}q", self.seed, *keys)
        digest = hashlib.blake2b(payload, digest_size=8).digest()
        return int.from_bytes(digest, "little") / float(1 << 64)


__all__ = ["FaultEffect", "FaultModel", "PipelineView", "EFFECT_KINDS"]
