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

Cycle accuracy matters only where a glitch can land.  Where nothing
watches the cycles (no glitch resolver, no trace hook),
:meth:`PipelinedCPU.step_instructions` runs whole instructions with the
same timing in closed form — issue cost, a 2-cycle refill after a taken
branch (3 to a BL), a 1-cycle wait for a BL's suffix after a 1-cycle
instruction — and leaves the pipeline exactly where
:meth:`PipelinedCPU.step_cycle` would at the cycle it returns at; states
it does not model go back to :meth:`~PipelinedCPU.step_cycle`.

:meth:`PipelinedCPU.snapshot_state` / :meth:`PipelinedCPU.restore_state`
capture and rewind the pipeline mid-run (latches, execute slot, counters,
plus the architectural CPU state).  Paired with the board's writable
memory (:meth:`repro.hw.mcu.Board.ram_image`), they power the glitcher's
boot records: a scan boots the firmware to the trigger once per power-on
seed page and restores every later (width, offset) attempt from that
point instead of re-simulating from reset — see ``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

from repro.emu.cpu import _DISPATCH, CPU, CPUSnapshot
from repro.emu.memory import MemoryRegion
from repro.errors import BadFetch, EmulationFault, HardFault, InvalidInstruction
from repro.hw.faults import FaultEffect, PipelineView
from repro.isa.decoder import decode
from repro.isa.instruction import Instruction
from repro.isa.registers import PC

WORD_MASK = 0xFFFFFFFF

#: effect kinds that attach to the executing slot (applied on completion)
_SLOT_EFFECTS = frozenset({
    "load_data", "store_data", "writeback", "branch_decision",
    "cmp_transient", "skip", "replay",
})

#: bytes at the end of the code region :meth:`PipelinedCPU.step_instructions`
#: leaves to :meth:`PipelinedCPU.step_cycle`: issuing at an address reads
#: flash up to two instructions ahead
_STEP_MARGIN = 10

#: resolver(cycle, view) -> FaultEffect | None
GlitchResolver = Callable[[int, PipelineView], Optional[FaultEffect]]


@dataclass(slots=True)
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
    is *not* included — the glitcher's boot records pair this with
    :meth:`repro.hw.mcu.Board.ram_image`.

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
    """Drives an architectural :class:`~repro.emu.cpu.CPU` cycle by cycle,
    or whole instructions at a time where no cycle is watched."""

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
        #: set by a device from inside an instruction whose effect the
        #: caller must see before the next one issues (the board's trigger
        #: edge); :meth:`step_instructions` returns after that instruction
        self.yield_requested = False
        # The first executable region's bytes (a live reference), fetched
        # from directly; any other fetch goes through Memory.try_fetch_u16.
        code = next((region for region in cpu.memory.regions
                     if region.executable and type(region) is MemoryRegion), None)
        self._code = bytearray() if code is None else code.data
        self._code_base = 0 if code is None else code.base
        #: code offsets at or past this one are not a whole halfword
        self._code_limit = len(self._code) - 1
        #: the last code offset :meth:`step_instructions` issues from: the
        #: front end two instructions on must still read whole halfwords.
        #: Writable code could change under its entries, so it runs none.
        self._stepped_limit = (
            -1 if code is None or code.writable else len(self._code) - _STEP_MARGIN
        )
        #: code address -> :func:`_step_entry` for :meth:`step_instructions`;
        #: every board of an image shares one (its flash never changes)
        self.decoded: dict[int, Optional[tuple]] = {}

    # ------------------------------------------------------------------

    def run(self, max_cycles: int) -> str:
        """Advance until a stop address issues, the core halts, or the budget ends.

        Returns ``"stop_addr"``, ``"halted"``, or ``"limit"``. Faults
        (including glitch-induced resets) propagate as exceptions.  Runs
        whole instructions where :meth:`step_instructions` can, else cycles.
        """
        while self.cycles < max_cycles:
            if not self.step_instructions(max_cycles):
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

        The stages are written out in one method because this is the
        per-cycle hot loop of every hw scan; the staged reference it is
        checked against lives in ``tests/oracles.py``.
        """
        slot = self.execute_slot
        if slot is None:
            # 1. issue
            latch = self.decode_latch
            if latch is not None:
                address, raw = latch
                # a lone BL prefix waits in decode for its suffix halfword
                if len(raw) != 1 or (raw[0] >> 11) != 0b11110:
                    self.decode_latch = None
                    if address in self.milestone_addresses:
                        self.milestones.append((self.cycles, address))
                    if address in self.stop_addresses:
                        self.stopped_at = address
                    else:
                        slot = self.execute_slot = _Slot(address, raw, _issue_cost(raw), [])
            if self.stopped_at is not None:
                return
        if slot is not None and self.trace_hook is not None:
            self.trace_hook(self.cycles, slot.address, slot.raw)

        # 2. front end: fetch -> decode, memory -> fetch
        fetch = self.fetch_latch
        latch = self.decode_latch
        if latch is None:
            if fetch is not None:
                latch = self.decode_latch = (fetch[0], (fetch[1],))
                fetch = self.fetch_latch = None
        elif fetch is not None and len(latch[1]) == 1 and (latch[1][0] >> 11) == 0b11110:
            latch = self.decode_latch = (latch[0], (latch[1][0], fetch[1]))
            fetch = self.fetch_latch = None
        if fetch is None:
            address = self.fetch_address
            offset = address - self._code_base
            if 0 <= offset < self._code_limit and not address & 1:
                code = self._code
                self.fetch_latch = (address, code[offset] | code[offset + 1] << 8)
                self.fetch_address = address + 2
            else:
                halfword = self.cpu.memory.try_fetch_u16(address)
                if halfword is not None:
                    self.fetch_latch = (address, halfword)
                    self.fetch_address = address + 2
                elif latch is None and slot is None:
                    # Nothing older in flight: the corrupted PC has run the
                    # pipeline into unmapped memory.
                    raise BadFetch(
                        f"pipeline ran into unmapped memory at {address:#010x}", address,
                    )

        # 3. glitch
        resolver = self.glitch_resolver
        effect = None
        if resolver is not None:
            if slot is None:
                view = _VIEWS["none", True, latch is not None]
            else:
                # the front end is free while the slot is in its last cycle
                view = _VIEWS[_classify_raw(slot.raw), slot.cycles_left <= 1, latch is not None]
            effect = resolver(self.cycles, view)
            if effect is not None:
                if effect.kind == "reset":
                    raise HardFault(f"glitch-induced reset at cycle {self.cycles}", None)
                self._apply_latch_effect(effect)

        # 4. execute
        if slot is not None:
            if effect is not None and effect.kind in _SLOT_EFFECTS:
                slot.pending_effects.append(effect)
            slot.cycles_left -= 1
            if slot.cycles_left <= 0:
                if slot.pending_effects:
                    self._complete(slot)
                else:
                    # _complete without effects
                    cpu = self.cpu
                    raw = slot.raw
                    instr = _decode_halfwords(raw, cpu.zero_is_invalid)
                    address = slot.address
                    fallthrough = address + instr.size
                    cpu.pc = fallthrough
                    cpu.execute(instr, address)
                    self.retired += 1
                    self._last_retired_raw = raw
                    if cpu.pc != fallthrough:
                        self._flush(cpu.pc)
                self.execute_slot = None
        self.cycles += 1

    def step_instructions(self, limit: int, check_points: bool = False) -> bool:
        """Advance by whole unglitched instructions towards the top of cycle
        ``limit``, in closed form; returns whether the pipeline moved.

        The twin of repeated :meth:`step_cycle` calls for stretches that no
        glitch resolver or trace hook watches.  An instruction issues, and
        completes :func:`_issue_cost` cycles later.  The next one issues in
        the cycle after, one cycle later when it is a BL that follows a
        1-cycle instruction (its suffix is still in fetch), and after a
        taken branch at the refilled pipeline's first issue: 2 cycles after
        the flush, 3 for a BL.  Each instruction runs through the same
        handler as in :meth:`step_cycle`, with :attr:`cycles` at its
        completion cycle, so DWT reads and trigger callbacks see the same
        count.

        It returns at the first of: the top of ``limit``, or of the issue
        cycle of an instruction that would complete at or past it; a stop
        address issuing, at its issue cycle; the cycle after an instruction
        that halted the core or set :attr:`yield_requested`; and, with
        ``check_points``, the flushed top after a taken branch.  A fault
        propagates from its completion cycle.  Latches, execute slot,
        counters, milestones and ``stopped_at`` are then exactly as
        :meth:`step_cycle` would leave them.  It does not move from a state
        it does not model (``False``): a busy execute slot, latches holding
        other than flash's halfwords at their addresses, code within
        ``_STEP_MARGIN`` bytes of the end of the code region, or an SVC.
        """
        cycles = self.cycles
        if (
            cycles >= limit or self.execute_slot is not None or self.stopped_at is not None
            or self.glitch_resolver is not None or self.trace_hook is not None
            or self.cpu.halted
        ):
            return False
        # the instruction in the front end and the cycles until it issues
        latch = self.decode_latch
        fetch = self.fetch_latch
        if latch is not None:
            address = latch[0]
            wait = 1 if len(latch[1]) == 1 and latch[1][0] >> 11 == 0b11110 else 0
        elif fetch is not None:
            address, wait = fetch[0], 1
        else:
            address, wait = self.fetch_address, 2
        decoded = self.decoded
        entry = decoded.get(address) or self._entry(address)
        if entry is None:
            return False
        if latch is None and entry[2] == 4:
            wait += 1  # a BL target waits for its suffix
        if (latch, fetch, self.fetch_address) != self._front(address, wait):
            return False  # corrupted latches

        cpu = self.cpu
        regs = cpu.regs
        stops = self.stop_addresses
        marks = self.milestone_addresses
        retired = self.retired
        last_raw = self._last_retired_raw
        issue = cycles + wait
        # the cycle after the latest taken branch
        flushed = -1
        self.yield_requested = False
        while True:
            if issue >= limit:
                at = limit
                break
            if address in stops:
                if address in marks:
                    self.milestones.append((issue, address))
                self.stopped_at = address
                at = issue
                break
            raw, cost, size, instr, handler, ends = entry
            done = issue + cost
            if done > limit:
                at = issue
                break
            if address in marks:
                self.milestones.append((issue, address))
            self.cycles = done - 1
            fallthrough = address + size
            try:
                if handler is None:
                    _decode_halfwords(raw, cpu.zero_is_invalid)  # raises
                regs[PC] = fallthrough
                handler(cpu, instr, address)
            except EmulationFault:
                # as step_cycle leaves a fault: the slot in its last cycle
                # and the front end refilled behind it
                self.retired = retired
                self._last_retired_raw = last_raw
                self.execute_slot = _Slot(address, raw, 0, [])
                self.decode_latch, self.fetch_latch, self.fetch_address = self._front(
                    fallthrough, cost == 1 and self._bl_at(fallthrough)
                )
                raise
            retired += 1
            last_raw = raw
            address = regs[PC]
            entry = decoded.get(address) or self._entry(address)
            if address != fallthrough:
                flushed = done
                if check_points or entry is None:
                    at = done
                    break
                issue = done + 2 + (entry[2] == 4)
            elif entry is None:
                at = done
                issue = done + (cost == 1 and self._bl_at(address))
                break
            else:
                issue = done + (cost == 1 and entry[2] == 4)
            if ends and (cpu.halted or self.yield_requested):
                at = done
                break

        self.cycles = at
        self.retired = retired
        self._last_retired_raw = last_raw
        if at == flushed:
            self.decode_latch = self.fetch_latch = None
            self.fetch_address = address
        else:
            latch, self.fetch_latch, self.fetch_address = self._front(address, issue - at)
            self.decode_latch = None if self.stopped_at is not None else latch
        return at != cycles or self.stopped_at is not None

    def _entry(self, address: int) -> Optional[tuple]:
        """The :attr:`decoded` entry of the instruction at ``address``, or
        ``None`` when :meth:`step_instructions` does not issue it."""
        offset = address - self._code_base
        if address & 1 or not 0 <= offset <= self._stepped_limit:
            return None
        code = self._code
        halfword = code[offset] | code[offset + 1] << 8
        raw = (halfword,)
        if halfword >> 11 == 0b11110:
            raw = (halfword, code[offset + 2] | code[offset + 3] << 8)
        entry = self.decoded[address] = _step_entry(raw, self.cpu.zero_is_invalid)
        return entry

    def _bl_at(self, address: int) -> bool:
        return self._code[address - self._code_base + 1] >> 3 == 0b11110

    def _front(self, address: int, wait: int) -> tuple:
        """``(decode latch, fetch latch, fetch address)`` at the top of the
        cycle ``wait`` cycles before the instruction at code ``address``
        issues, with the front end on flash: 0 is its issue cycle, 1 a BL's
        wait for its suffix or the cycle before, and 2 (a BL's 3) the top
        right after a flush."""
        code = self._code
        offset = address - self._code_base
        halfword = code[offset] | code[offset + 1] << 8
        if halfword >> 11 == 0b11110:
            if not wait:
                return (
                    (address, (halfword, code[offset + 2] | code[offset + 3] << 8)),
                    (address + 4, code[offset + 4] | code[offset + 5] << 8), address + 6,
                )
            wait -= 1
        if not wait:
            return (
                (address, (halfword,)), (address + 2, code[offset + 2] | code[offset + 3] << 8),
                address + 4,
            )
        if wait == 1:
            return None, (address, halfword), address + 2
        return None, None, address

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

        Memory is deliberately *not* captured — callers pair this with a
        capture of ``self.cpu.memory`` (the glitcher uses
        :meth:`repro.hw.mcu.Board.ram_image`).  The
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
            Token from :meth:`snapshot_state` on any pipeline running the
            same firmware (states hold no reference to their pipeline).
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
    # execute-stage completion with pending corruptions
    # ------------------------------------------------------------------

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
def _step_entry(raw: tuple[int, ...], zero_is_invalid: bool) -> Optional[tuple]:
    """``(raw, issue cost, size, instruction, handler, ends)`` for
    :meth:`PipelinedCPU.step_instructions`, where ``ends`` marks what may
    end a stretch (a halt, or a store that raises the trigger), or
    ``None`` for an SVC, whose handler may do anything."""
    try:
        instr = _decode_halfwords(raw, zero_is_invalid)
    except InvalidInstruction:
        # faults at its completion; the handler re-raises it
        return raw, _issue_cost(raw), 2 * len(raw), None, None, False
    handler = _DISPATCH.get(instr.mnemonic)
    if handler is None or instr.mnemonic == "svc":
        return None
    ends = instr.is_store or instr.mnemonic in ("bkpt", "wfi", "wfe")
    return raw, _issue_cost(raw), 2 * len(raw), instr, handler, ends


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
