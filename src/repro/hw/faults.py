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
an occurrence counter.  Every roll is a pure function of the seed, a label
and integer keys (:func:`_roll`), memoized process-wide.  So is every
realization (:meth:`FaultModel.effect_at`) and every shape's fast-path
plan (:meth:`FaultModel.shape_plan`, memoized by ``repro.hw.scan``), given
the model's calibration (:meth:`FaultModel.memo_key`).
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from functools import lru_cache
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

#: memo marker for a (width, offset) point or a realization not yet decided
_UNSEEN = object()

_LOAD_SUBSTITUTES = ("zero", "bus_residue", "sp_leak", "pattern", "mask", "wrong_reg")

#: executing instruction class → the execute-stage kind a bite can realize
_EXECUTE_KINDS = {
    "load": "load_data",
    "compare": "cmp_transient",
    "store": "store_data",
    "branch": "branch_decision",
    "alu": "writeback",
}


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


@dataclass(frozen=True)
class ShapePlan:
    """The fast path's verdict on one ``(ext_offset, repeat)`` shape's grid.

    Every grid point whose first occurrence decision
    (:meth:`FaultModel.first_occurrence`) is ``None`` ends ``no_effect``
    and every one whose first decision is a crash ends ``reset``, both
    without simulation; the rest must be simulated.
    """

    no_effect: int
    resets: int
    simulate: tuple[GlitchParams, ...]  # in grid order


class FaultModel:
    """Deterministic (width, offset, cycle) → corruption mapping.

    Subclasses re-weight the realization through the class tables: a
    bite lands on a pipeline stage with :data:`KIND_WEIGHTS` (among the
    latches the view shows) and flips bits with :data:`MODE_WEIGHTS`.
    """

    #: relative weight of each corruptible stage; the execute-stage kinds
    #: apply only while an instruction of their class executes
    KIND_WEIGHTS = {
        "fetch": 0.45,
        "decode": 0.18,
        "load_data": 0.15,
        # corrupt the comparator's operand path: the flags come out wrong
        # but the register file is untouched, so a redundant recheck
        # (GlitchResistor) sees the true value
        "cmp_transient": 0.70,
        "store_data": 0.30,
        "branch_decision": 0.18,
        # "instructions which simply manipulate registers appear to be
        # exceptionally difficult to glitch" (§V-A)
        "writeback": 0.04,
    }
    #: flip mode → weight, in draw order: unidirectional 1→0 dominates
    #: clock glitching (§IV)
    MODE_WEIGHTS = {"and": 0.72, "or": 0.14, "xor": 0.14}

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
        #: :meth:`memo_key`, computed at the first realization or plan
        self._key: Optional[int] = None

    def __getstate__(self) -> dict:
        # the point memo is derived data: ship models to workers without it,
        # and without the memo key, which names a calibration in this
        # process's _CALIBRATIONS only
        state = self.__dict__.copy()
        state["_points"] = {}
        state["_key"] = None
        return state

    def calibration(self) -> dict:
        """Every public field: the parameters all decisions depend on."""
        return {name: value for name, value in vars(self).items() if not name.startswith("_")}

    def memo_key(self) -> int:
        """A small integer naming the model's class and :meth:`calibration`.

        Keys the process-wide realization and plan memos, so models with
        equal calibrations share entries and any differing field (``em``
        against its ``em-probe-4mm`` calibration, two clock seeds) keeps them
        apart.  Computed once, so like the point memo it assumes the
        calibration does not change after the model's first decision.
        """
        key = self._key
        if key is None:
            calibration = (type(self), tuple(sorted(self.calibration().items())))
            key = self._key = _CALIBRATIONS.setdefault(calibration, len(_CALIBRATIONS))
        return key

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

        The realization is a pure function of the calibration, ``width``,
        ``offset``, whether ``repeat >= 4``, ``rel_cycle``, ``view``,
        ``occurrence`` and ``window_index``, so it is memoized
        process-wide under :meth:`memo_key`: the rows of a Table VI
        regeneration, each with its own model, ask for the same ones
        again.  Bounded, so long campaigns keep a flat RSS.
        """
        key = (
            self.memo_key(), params.width, params.offset, params.repeat >= 4,
            rel_cycle, view, occurrence, window_index,
        )
        effect = _EFFECTS.get(key, _UNSEEN)
        if effect is _UNSEEN:
            if len(_EFFECTS) >= _EFFECT_LIMIT:
                _EFFECTS.clear()
            effect = _EFFECTS[key] = self._realize(
                params, rel_cycle, view, occurrence, window_index
            )
        return effect

    def _realize(
        self, params: GlitchParams, rel_cycle: int, view: PipelineView, occurrence: int,
        window_index: int,
    ) -> Optional[FaultEffect]:
        """The unmemoized :meth:`effect_at`."""
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

    def shape_plan(self, ext_offset: int, repeat: int, points) -> ShapePlan:
        """The :class:`ShapePlan` of the glitches ``(ext_offset, width,
        offset, repeat)`` for each ``(width, offset)`` of ``points``."""
        no_effect = resets = 0
        simulate = []
        for width, offset in points:
            params = GlitchParams(ext_offset, width, offset, repeat=repeat)
            first = self.first_occurrence(params)
            if first is None:
                no_effect += 1
            elif first[1] == "crash":
                resets += 1
            else:
                simulate.append(params)
        return ShapePlan(no_effect, resets, tuple(simulate))

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
        names = []
        if view.has_fetch:
            names.append("fetch")
        if view.has_decode:
            names.append("decode")
        execute = _EXECUTE_KINDS.get(view.executing_class)
        if execute is not None:
            names.append(execute)
        weights = self.KIND_WEIGHTS
        return self._pick(
            "kind", tuple(names), tuple(weights[name] for name in names),
            params, rel_cycle, occurrence,
        )

    def _pick_mode(self, params: GlitchParams, rel_cycle: int, occurrence: int) -> str:
        modes = self.MODE_WEIGHTS
        return self._pick(
            "mode", tuple(modes), tuple(modes.values()), params, rel_cycle, occurrence
        )

    def _mask(self, params: GlitchParams, rel_cycle: int, occurrence: int, bits: int) -> int:
        count_roll = self._uniform("bits", params.width, params.offset, rel_cycle, occurrence)
        mask = 0
        for index in range(self._bit_count(count_roll, bits, params.repeat)):
            position = int(
                self._uniform("pos", params.width, params.offset, rel_cycle, occurrence, index)
                * bits
            ) % bits
            mask |= 1 << position
        return mask

    def _bit_count(self, roll: float, bits: int, repeat: int) -> int:
        """How many bits a ``bits``-wide corruption flips, from a uniform ``roll``."""
        if bits == 16 and repeat >= 4:
            # Sustained clock starvation mangles many bits of the fetched
            # halfword, which is why long glitches usually cause
            # "irrecoverable corruption" rather than a clean skip (§V-D).
            return 2 + int(roll * 5)
        if roll < 0.55:
            return 1
        if roll < 0.80:
            return 2
        if roll < 0.93:
            return 3
        return 4

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
        return _roll(self.seed, label, keys)


#: (model class, sorted calibration items) -> FaultModel.memo_key
_CALIBRATIONS: dict = {}
#: memo key and realization inputs -> FaultModel.effect_at; cleared when full
_EFFECTS: dict = {}
_EFFECT_LIMIT = 1 << 14


# A roll is a pure function of its arguments, so it is memoized for the
# whole process: each Table VI row builds its own model, whose point memo
# starts empty, so the rows ask for the same grid points' rolls again.
# Behind the plan and realization memos, the first regeneration in a
# process asks for ~11.5k rolls (~3.2k distinct) and a later one ~1.5k.
# Bounded, so long campaigns keep a flat RSS.
@lru_cache(maxsize=1 << 16)
def _roll(seed: int, label: str, keys: tuple[int, ...]) -> float:
    """A uniform draw in ``[0, 1)`` hashed from ``seed``, ``label`` and ``keys``."""
    payload = label.encode() + struct.pack(f"<q{len(keys)}q", seed, *keys)
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "little") / float(1 << 64)


__all__ = ["FaultEffect", "FaultModel", "PipelineView", "ShapePlan", "EFFECT_KINDS"]
