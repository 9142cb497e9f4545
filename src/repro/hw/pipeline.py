"""A cycle-accurate 3-stage (fetch / decode / execute) Thumb pipeline.

Models the paper's target, an STM32F071 Cortex-M0 "48 MHz ARM Cortex M0
chip with a 3-stage pipeline" (§V), on top of the architectural core in
:mod:`repro.emu`:

- one halfword is fetched per cycle while the execute stage is free;
- decode moves the fetched halfword toward issue (BL joins its two
  halfwords in decode);
- execute charges Cortex-M0-style cycle costs (loads/stores 2 cycles,
  taken branches flush the pipeline — costing the architectural 3 cycles —
  everything else 1);
- a glitch resolver callback may corrupt the fetch bus, the decode latch,
  load/store data, an ALU writeback, or a branch decision at any cycle, or
  reset the core.

The mapping from clock cycle to in-flight instructions is exactly what
Table I's "Cycle → Instruction" column reports, and what bounds a glitch's
attribution in the paper's post-mortem analysis.

:meth:`PipelinedCPU.snapshot_state` / :meth:`PipelinedCPU.restore_state`
capture and rewind the pipeline mid-run (latches, execute slot, counters,
plus the architectural CPU state).  Paired with
:meth:`repro.emu.Memory.snapshot`, they power the glitcher's baseline
replay: a scan boots the firmware to the trigger once and replays every
(width, offset) attempt from that point instead of re-simulating from
reset — see ``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

from repro.emu.cpu import CPU, CPUSnapshot
from repro.errors import EmulationFault, HardFault, InvalidInstruction
from repro.hw.faults import FaultEffect, PipelineView
from repro.isa.decoder import decode
from repro.isa.instruction import Instruction

WORD_MASK = 0xFFFFFFFF

#: resolver(cycle, view) -> FaultEffect | None
GlitchResolver = Callable[[int, PipelineView], Optional[FaultEffect]]


@dataclass
class _Slot:
    """An instruction occupying the execute stage."""

    address: int
    raw: tuple[int, ...]  # one halfword, or two for BL
    cycles_left: int
    pending_effects: list[FaultEffect]


@dataclass(frozen=True)
class PipelineState:
    """A restore point for :class:`PipelinedCPU`, from :meth:`PipelinedCPU.snapshot_state`.

    Captures everything the pipeline needs to resume mid-run: the
    architectural CPU state plus the micro-architectural latches.  Memory
    is *not* included — pair this with :meth:`repro.emu.Memory.snapshot`
    (the glitcher's baseline replay does exactly that).

    Attributes
    ----------
    cpu : CPUSnapshot
        Architectural register/flag/halt state.
    cycles, fetch_address, retired : int
        Clock count, next fetch PC, and retired-instruction count.
    fetch_latch, decode_latch : tuple or None
        Front-end latch contents (immutable tuples, shared by reference).
    slot : tuple or None
        The execute-stage occupant as ``(address, raw, cycles_left,
        pending_effects)``, or ``None`` when the stage is free.
    stopped_at : int or None
        Stop-address hit, if the run already terminated.
    milestones : tuple of (int, int)
        ``(cycle, address)`` milestone issues recorded so far.
    last_bus_address : int or None
        The board's bus-residue hint (feeds the fault model's
        ``bus_residue`` substitution), carried so replays corrupt loads
        with the same residual value a fresh run would.
    last_retired_raw : tuple or None
        Raw halfwords of the most recently retired instruction — the
        victim a ``replay`` fault re-executes.
    """

    cpu: CPUSnapshot
    cycles: int
    fetch_address: int
    fetch_latch: Optional[tuple[int, int]]
    decode_latch: Optional[tuple[int, tuple[int, ...]]]
    slot: Optional[tuple[int, tuple[int, ...], int, tuple[FaultEffect, ...]]]
    retired: int
    stopped_at: Optional[int]
    milestones: tuple[tuple[int, int], ...]
    last_bus_address: Optional[int]
    last_retired_raw: Optional[tuple[int, ...]] = None


class PipelinedCPU:
    """Drives an architectural :class:`~repro.emu.cpu.CPU` cycle by cycle."""

    def __init__(self, cpu: CPU, glitch_resolver: Optional[GlitchResolver] = None):
        self.cpu = cpu
        self.glitch_resolver = glitch_resolver
        self.cycles = 0
        self.fetch_address = cpu.pc
        self.fetch_latch: Optional[tuple[int, int]] = None  # (address, halfword)
        self.decode_latch: Optional[tuple[int, tuple[int, ...]]] = None
        self.execute_slot: Optional[_Slot] = None
        self.retired = 0
        #: addresses whose *issue* terminates the run (checked at execute start)
        self.stop_addresses: frozenset[int] = frozenset()
        self.stopped_at: Optional[int] = None
        #: addresses whose issue is recorded (cycle, address) without stopping
        self.milestone_addresses: frozenset[int] = frozenset()
        self.milestones: list[tuple[int, int]] = []
        #: raw halfwords of the last retired instruction (replay-fault victim)
        self._last_retired_raw: Optional[tuple[int, ...]] = None
        #: called as trace_hook(cycle, address, raw) when an instruction
        #: occupies the execute stage (each cycle it occupies it)
        self.trace_hook: Optional[Callable[[int, int, tuple[int, ...]], None]] = None

    # ------------------------------------------------------------------

    def run(self, max_cycles: int) -> str:
        """Advance until a stop address issues, the core halts, or the budget ends.

        Returns ``"stop_addr"``, ``"halted"``, or ``"limit"``. Faults
        (including glitch-induced resets) propagate as exceptions.
        """
        while self.cycles < max_cycles:
            self.step_cycle()
            if self.stopped_at is not None:
                return "stop_addr"
            if self.cpu.halted:
                return "halted"
        return "limit"

    def step_cycle(self) -> None:
        """Advance the pipeline by one clock cycle.

        Stage order within a cycle:

        1. *issue* — if the execute stage is free, the decoded instruction
           moves into it, so the glitch resolver sees what executes this
           cycle (1-cycle instructions issue and complete within one step);
        2. *front end* — decode refills from fetch and a new halfword is
           fetched, so the resolver also sees the true in-flight younger
           instructions;
        3. *glitch* — fetch/decode corruptions land directly in the latches,
           execute-stage corruptions attach to the current slot;
        4. *execute* — the slot consumes one cycle; on completion the
           instruction runs architecturally and taken branches flush the
           (just-refilled) front end, which is what gives them their
           3-cycle cost.
        """
        if self.execute_slot is None:
            self.execute_slot = self._issue()
            if self.stopped_at is not None:
                return
        if self.execute_slot is not None and self.trace_hook is not None:
            slot = self.execute_slot
            self.trace_hook(self.cycles, slot.address, slot.raw)

        self._advance_front_end()

        effect = self._resolve_glitch()
        if effect is not None:
            if effect.kind == "reset":
                raise HardFault(f"glitch-induced reset at cycle {self.cycles}", None)
            self._apply_latch_effect(effect)

        self._execute_stage(effect)
        self.cycles += 1

    def _apply_latch_effect(self, effect: FaultEffect) -> None:
        if effect.kind == "fetch" and self.fetch_latch is not None:
            address, halfword = self.fetch_latch
            self.fetch_latch = (address, _apply_mask(halfword, effect.mask, effect.mode) & 0xFFFF)
        elif effect.kind == "decode" and self.decode_latch is not None:
            address, raw = self.decode_latch
            corrupted = _apply_mask(raw[-1], effect.mask, effect.mode) & 0xFFFF
            self.decode_latch = (address, raw[:-1] + (corrupted,))

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------

    def snapshot_state(self) -> PipelineState:
        """Capture the pipeline (and architectural CPU) state for later replay.

        Memory is deliberately *not* captured — callers pair this with
        :meth:`repro.emu.Memory.snapshot` on ``self.cpu.memory``.  The
        run configuration (``stop_addresses``, ``milestone_addresses``,
        ``glitch_resolver``, ``trace_hook``) is also left out: it belongs
        to the driver, which reinstalls it per run.

        Returns
        -------
        PipelineState
            Immutable state token; pass it to :meth:`restore_state`.
        """
        slot = self.execute_slot
        return PipelineState(
            cpu=self.cpu.snapshot(),
            cycles=self.cycles,
            fetch_address=self.fetch_address,
            fetch_latch=self.fetch_latch,
            decode_latch=self.decode_latch,
            slot=None if slot is None else (
                slot.address, slot.raw, slot.cycles_left, tuple(slot.pending_effects)
            ),
            retired=self.retired,
            stopped_at=self.stopped_at,
            milestones=tuple(self.milestones),
            last_bus_address=getattr(self.cpu, "last_bus_address", None),
            last_retired_raw=self._last_retired_raw,
        )

    def restore_state(self, state: PipelineState) -> None:
        """Rewind the pipeline to a :meth:`snapshot_state` capture.

        Restores registers, flags, latches, the execute slot, and the
        cycle/retire counters; leaves memory, stop/milestone address
        sets, the glitch resolver, and the trace hook untouched.

        Parameters
        ----------
        state : PipelineState
            Token from :meth:`snapshot_state` on this same pipeline.
        """
        self.cpu.reset_from(state.cpu)
        self.cpu.last_bus_address = state.last_bus_address
        self.cycles = state.cycles
        self.fetch_address = state.fetch_address
        self.fetch_latch = state.fetch_latch
        self.decode_latch = state.decode_latch
        if state.slot is None:
            self.execute_slot = None
        else:
            address, raw, cycles_left, effects = state.slot
            self.execute_slot = _Slot(
                address=address, raw=raw, cycles_left=cycles_left,
                pending_effects=list(effects),
            )
        self.retired = state.retired
        self.stopped_at = state.stopped_at
        self.milestones = list(state.milestones)
        self._last_retired_raw = state.last_retired_raw

    # ------------------------------------------------------------------
    # stages
    # ------------------------------------------------------------------

    def _resolve_glitch(self) -> Optional[FaultEffect]:
        if self.glitch_resolver is None:
            return None
        return self.glitch_resolver(self.cycles, self._view())

    def _view(self) -> PipelineView:
        slot = self.execute_slot
        has_decode = self.decode_latch is not None
        if slot is None:
            return _VIEWS["none", True, has_decode]
        # the front end is free while the slot is in its last cycle
        return _VIEWS[_classify_raw(slot.raw), slot.cycles_left <= 1, has_decode]

    def _execute_stage(self, effect: Optional[FaultEffect]) -> bool:
        """Run the execute stage for this cycle; True if the slot completed."""
        slot = self.execute_slot
        if slot is None:
            return False
        if effect is not None and effect.kind in (
            "load_data", "store_data", "writeback", "branch_decision",
            "cmp_transient", "skip", "replay",
        ):
            slot.pending_effects.append(effect)
        slot.cycles_left -= 1
        if slot.cycles_left > 0:
            return False
        self._complete(slot)
        self.execute_slot = None
        return True

    def _issue(self) -> Optional[_Slot]:
        if self.decode_latch is None:
            return None
        address, raw = self.decode_latch
        if len(raw) == 1 and (raw[0] >> 11) == 0b11110:
            return None  # lone BL prefix: wait for its suffix halfword
        self.decode_latch = None
        if address in self.milestone_addresses:
            self.milestones.append((self.cycles, address))
        if address in self.stop_addresses:
            self.stopped_at = address
            return None
        return _Slot(
            address=address,
            raw=raw,
            cycles_left=_issue_cost(raw),
            pending_effects=[],
        )

    def _complete(self, slot: _Slot) -> None:
        """Architecturally execute the slot, applying any pending corruptions."""
        effects = slot.pending_effects
        skip = replay = False
        if effects:
            skip = any(effect.kind == "skip" for effect in effects)
            replay = any(effect.kind == "replay" for effect in effects)
        victim_raw = slot.raw
        if replay and not skip and self._last_retired_raw is not None:
            # Re-issue the previously retired instruction in place of this
            # one; control falls through past the displaced instruction.
            victim_raw = self._last_retired_raw
        elif skip or replay:
            # Skip (or a replay with no retired predecessor): the
            # instruction issues but its architectural effects never
            # commit — the canonical "instruction skip" abstraction.
            self.cpu.pc = slot.address + 2 * len(slot.raw)
            self.retired += 1
            return
        instr = self._decode_raw(victim_raw)
        if effects:
            instr = self._apply_pre_effects(slot, instr)
        address = slot.address
        # A replayed victim may differ in size from the displaced slot, so
        # fall through past the *displaced* instruction, not the victim.
        fallthrough = address + (2 * len(slot.raw) if replay else instr.size)
        self._pre_regs = list(self.cpu.regs) if effects else None
        self.cpu.pc = fallthrough
        self.cpu.execute(instr, address)
        self.retired += 1
        self._last_retired_raw = victim_raw
        if effects:
            self._apply_post_effects(slot, instr)
        if self.cpu.pc != fallthrough:
            self._flush(self.cpu.pc)

    def _decode_raw(self, raw: tuple[int, ...]) -> Instruction:
        return _decode_halfwords(raw, self.cpu.zero_is_invalid)

    def _apply_pre_effects(self, slot: _Slot, instr: Instruction) -> Instruction:
        from dataclasses import replace

        for effect in slot.pending_effects:
            if effect.kind == "branch_decision" and instr.is_conditional_branch:
                # conditions pair up (eq/ne, cs/cc, ...): XOR 1 inverts
                from repro.isa.conditions import condition_name

                inverted = instr.cond ^ 1
                instr = replace(instr, cond=inverted, mnemonic=f"b{condition_name(inverted)}")
            elif effect.kind == "store_data" and instr.is_store and instr.rd is not None:
                corrupted = _apply_mask(self.cpu.regs[instr.rd], effect.mask, effect.mode)
                self.cpu.regs[instr.rd] = corrupted
            elif effect.kind == "cmp_transient" and instr.is_compare and instr.rd is not None:
                # corrupt the compare's operand view; _apply_post_effects
                # restores the register from the pre-execute snapshot
                corrupted = _apply_mask(self.cpu.regs[instr.rd], effect.mask, effect.mode)
                self.cpu.regs[instr.rd] = corrupted
        return instr

    def _apply_post_effects(self, slot: _Slot, instr: Instruction) -> None:
        for effect in slot.pending_effects:
            if effect.kind == "load_data" and instr.is_load:
                target = instr.rd if instr.rd is not None else _first_reg(instr)
                if target is None:
                    continue
                if effect.substitute == "wrong_reg" and self._pre_regs is not None:
                    # §V-A: "the LDR instruction was corrupted to load the
                    # [value] into the wrong register" — the loaded value
                    # lands in a neighbouring register and the intended
                    # destination keeps its stale pre-load contents.
                    other = (target + 1 + effect.mask % 3) % 8
                    loaded = self.cpu.regs[target]
                    self.cpu.regs[target] = self._pre_regs[target]
                    self.cpu.regs[other] = loaded
                    continue
                self.cpu.regs[target] = self._substitute_load(
                    self.cpu.regs[target], effect
                ) & WORD_MASK
            elif effect.kind == "writeback" and instr.rd is not None and not instr.is_memory:
                self.cpu.regs[instr.rd] = _apply_mask(
                    self.cpu.regs[instr.rd], effect.mask, effect.mode
                )
            elif effect.kind == "cmp_transient" and instr.is_compare and instr.rd is not None:
                if self._pre_regs is not None:
                    # the corruption was on the operand bus, not the register
                    self.cpu.regs[instr.rd] = self._pre_regs[instr.rd]

    def _substitute_load(self, correct: int, effect: FaultEffect) -> int:
        """Reproduce the Table I post-mortem value families.

        The paper attributes corrupted comparator values to load failures
        (0), residual bus values (the GPIO address, mixes of SP), SP leaks,
        stuck-line patterns (0x55, 0xFF, 0x08), and plain bit flips.
        """
        if effect.substitute == "zero":
            return 0
        if effect.substitute == "bus_residue":
            # mix of the last-touched bus address and corruption
            return (self._last_bus_value() ^ effect.mask) & WORD_MASK
        if effect.substitute == "sp_leak":
            return (self.cpu.sp ^ (effect.mask & 0xFF)) & WORD_MASK
        if effect.substitute == "pattern":
            pattern = (0x08, 0x55, 0xFF, 0x21, 0x68)[effect.mask % 5]
            return pattern
        return _apply_mask(correct, effect.mask, effect.mode)

    def _last_bus_value(self) -> int:
        # The most recently computed address-like value: approximate with SP
        # unless a device address was touched (tracked by the board).
        board_hint = getattr(self.cpu, "last_bus_address", None)
        if board_hint:
            return board_hint
        return self.cpu.sp

    def _advance_front_end(self) -> None:
        """Move halfwords toward issue: fetch → decode, memory → fetch."""
        if self.decode_latch is None and self.fetch_latch is not None:
            address, halfword = self.fetch_latch
            self.fetch_latch = None
            self.decode_latch = (address, (halfword,))
        elif self.decode_latch is not None and len(self.decode_latch[1]) == 1:
            address, raw = self.decode_latch
            if (raw[0] >> 11) == 0b11110 and self.fetch_latch is not None:
                _, suffix = self.fetch_latch
                self.fetch_latch = None
                self.decode_latch = (address, (raw[0], suffix))

        if self.fetch_latch is None:
            halfword = self.cpu.memory.try_fetch_u16(self.fetch_address)
            if halfword is not None:
                self.fetch_latch = (self.fetch_address, halfword)
                self.fetch_address += 2
            elif self.decode_latch is None and self.execute_slot is None:
                # Nothing older in flight: the corrupted PC has run the
                # pipeline into unmapped memory.
                from repro.errors import BadFetch

                raise BadFetch(
                    f"pipeline ran into unmapped memory at {self.fetch_address:#010x}",
                    self.fetch_address,
                )

    def _flush(self, new_pc: int) -> None:
        """Branch taken: squash younger stages and refetch (2 bubble cycles)."""
        self.fetch_latch = None
        self.decode_latch = None
        self.fetch_address = new_pc


# Decoding is a pure function of the raw halfwords, so the three helpers
# below are memoized process-wide by raw tuple: unmemoized, a Table VI
# regeneration made ~284k decode calls on a few hundred distinct encodings.
# Invalid encodings raise out of ``_decode_halfwords`` and are not cached (a
# cached exception would pin every frame it is re-raised through).

@lru_cache(maxsize=None)
def _decode_halfwords(raw: tuple[int, ...], zero_is_invalid: bool) -> Instruction:
    if len(raw) == 2:
        return decode(raw[0], raw[1], zero_is_invalid=zero_is_invalid)
    return decode(raw[0], zero_is_invalid=zero_is_invalid)


@lru_cache(maxsize=None)
def _classify_raw(raw: tuple[int, ...]) -> str:
    try:
        instr = decode(raw[0], raw[1] if len(raw) == 2 else 0xF800)
    except InvalidInstruction:
        return "alu"
    if instr.is_load:
        return "load"
    if instr.is_store:
        return "store"
    if instr.is_compare:
        return "compare"
    if instr.is_branch:
        return "branch"
    return "alu"


@lru_cache(maxsize=None)
def _issue_cost(raw: tuple[int, ...]) -> int:
    """Cortex-M0-flavoured execute-stage cycle costs."""
    try:
        instr = decode(raw[0], raw[1] if len(raw) == 2 else 0xF800)
    except InvalidInstruction:
        return 1
    if instr.mnemonic in ("push", "pop", "stmia", "ldmia"):
        return 1 + max(1, len(instr.reg_list))
    if instr.is_memory:
        return 2
    if instr.mnemonic == "bl":
        return 2
    return 1


#: the interned views: (executing class, has_fetch, has_decode) -> view
_VIEWS = {
    (executing, has_fetch, has_decode): PipelineView(executing, has_fetch, has_decode)
    for executing in ("none", "load", "store", "compare", "branch", "alu")
    for has_fetch in (False, True)
    for has_decode in (False, True)
}


def _apply_mask(value: int, mask: int, mode: str) -> int:
    if mode == "and":
        return value & ~mask & WORD_MASK
    if mode == "or":
        return (value | mask) & WORD_MASK
    return (value ^ mask) & WORD_MASK


def _first_reg(instr: Instruction) -> Optional[int]:
    if instr.reg_list:
        return instr.reg_list[0]
    return None


__all__ = ["PipelinedCPU", "PipelineState", "GlitchResolver"]
