"""The ChipWhisperer-style clock-glitch controller.

Drives one :class:`~repro.hw.mcu.Board` through glitched runs:

1. reset the board (power-cycle semantics — the seed flash page persists);
2. run until the firmware raises the GPIO trigger pin;
3. starting one cycle after the trigger (the paper's "perfect trigger...
   exactly 1 clock cycle before the targeted instruction"), apply the armed
   :class:`~repro.hw.clock.GlitchParams` for ``repeat`` contiguous cycles;
4. keep running until a terminal symbol issues (``win``,
   ``gr_detected``), the core crashes ("reset"), or the settle budget
   expires ("no_effect" / "partial").

A parameter-deterministic fast path skips full simulation for grid points
the fault model says produce neither a fault nor a crash — the
overwhelming majority of the 9,801-point scans.  A scan decides those
points in bulk from a memoized plan (``repro.hw.scan``) and calls
:meth:`ClockGlitcher.run_attempt` only for the rest; a single attempt
takes the same decision itself.

Simulated attempts additionally use *boot records* (the hw-layer face of
the snapshot engine, see ``docs/ARCHITECTURE.md``).  The run up to the
first glitched cycle is unglitched and deterministic given the image and
the power-on seed flash page, so the first full run from each power-on
seed page records the machine at the trigger cycle — the writable
memory, the pipeline latches via :class:`~repro.hw.pipeline.PipelineState`,
the GPIO pin — and every later attempt that powers on with the same page
restores that record into the board instead of re-simulating boot from
reset.  An attempt whose glitch starts ``ext_offset`` cycles after the
trigger also records the machine just before that cycle (a *prefix
record*), and later attempts restore the latest record at or before
their own ``ext_offset``: a scan's units run their shapes in increasing
``ext_offset``, and each unit's k-th simulated attempt powers on with the
same page, so each unit steps only the cycles since the previous unit's
glitch start.  A page keeps its trigger-cycle record and the latest
prefix record, no more.  Records belong to the glitcher, not to the
board, so they survive an external ``board.reset()``; firmware that
persists new seed-page state (the random-delay defense) just looks up a
different record.  Pass ``replay=False`` to force the from-reset path
(the differential tests do).

Most simulated attempts end ``no_effect`` with the firmware spinning in
a guard loop until the settle budget runs out.  The *settled-loop exit*
(:meth:`ClockGlitcher._skip_settled_periods`) notices when that loop can
no longer change and jumps whole loop periods to the deadline; the
attempt's result is exactly the full settle's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.emu.memory import MemoryRegion
from repro.errors import EmulationFault
from repro.hw.clock import GlitchParams
from repro.hw.faults import EFFECT_KINDS, FaultEffect, FaultModel, PipelineView
from repro.hw.mcu import Board
from repro.hw.pipeline import PipelineState
from repro.isa.assembler import AssembledProgram

#: cycles allowed from power-on to the (first) trigger
BOOT_BUDGET = 50_000
#: cycles allowed after the last glitched cycle for consequences to land
SETTLE_CYCLES = 400

#: per-glitcher attempt counters (see :attr:`ClockGlitcher.counters`):
#: attempts decided by the fault-model fast path, attempts simulated,
#: simulated attempts cut short by the settled-loop exit, machine states
#: that exit looked up, pipeline cycles run after the first trigger
#: (restored prefix cycles included), how each simulated run started —
#: booted from reset, or restored from a boot record — and the prefix
#: cycles restored from a record instead of stepped, and, per
#: :data:`~repro.hw.faults.EFFECT_KINDS` kind, the fault effects the
#: resolver realized (``reset`` included).  For scans,
#: ``hw.full_boots + hw.baseline_replays == hw.simulated``
#: (:meth:`ClockGlitcher.run_unglitched` runs count a start too).  The
#: last three depend on which records a glitcher holds, so serial and
#: parallel scans differ there; the others do not.
HW_COUNTERS = (
    "hw.fastpath", "hw.simulated", "hw.settled_exits", "hw.settle_checks",
    "hw.cycles", "hw.full_boots", "hw.baseline_replays", "hw.restored_cycles",
) + tuple(f"hw.effects.{kind}" for kind in EFFECT_KINDS)

#: machine states the settled-loop exit remembers per attempt
_HISTORY_LIMIT = 4096
#: a cycle count no run reaches
_NEVER = 1 << 62


@dataclass
class AttemptResult:
    """Outcome of one glitched run."""

    category: str  # success | detected | reset | no_effect | partial
    params: GlitchParams
    triggers_seen: int = 0
    cycles: int = 0
    registers: tuple[int, ...] = ()
    effects: tuple[FaultEffect, ...] = ()
    stop_symbol: Optional[str] = None
    simulated: bool = True  # False when the fast path decided the outcome

    @property
    def succeeded(self) -> bool:
        return self.category == "success"


@dataclass(frozen=True)
class _BootRecord:
    """The machine at the top-of-loop ``rel`` cycles after the trigger,
    keyed by the power-on seed page it booted from.

    ``rel`` is 0 (the trigger cycle) or the ``ext_offset`` of the attempt
    that captured it, whose run was still live there with one trigger
    window open and no glitch landed yet: every attempt from the same page
    with ``ext_offset >= rel`` passes through exactly this state.  Holds
    no reference to a board: :meth:`ClockGlitcher._simulate` restores it
    into whatever board the glitcher drives now.
    """

    ram: tuple[bytes, ...]  # Board.ram_image(): SRAM and the seed page
    pipe_state: PipelineState
    gpio_state: int
    trigger_cycle: int
    rel: int


class ClockGlitcher:
    """Arms and fires clock glitches against one firmware image.

    ``replay=True`` (the default) enables boot records: a simulated
    attempt whose power-on seed page was booted before restores the
    latest recorded state at or before its first glitched cycle instead
    of re-simulating boot from reset.  Outcomes are bit-identical either
    way.
    """

    def __init__(
        self,
        firmware: AssembledProgram,
        fault_model=None,
        win_symbol: str = "win",
        detect_symbol: Optional[str] = None,
        expected_triggers: int = 1,
        zero_is_invalid: bool = False,
        replay: bool = True,
    ):
        from repro.hw.models import resolve_fault_model

        self.board = Board(firmware, zero_is_invalid=zero_is_invalid)
        # fault_model accepts an instance or a registered name
        self.fault_model = resolve_fault_model(fault_model) or FaultModel()
        self.firmware = firmware
        self.expected_triggers = expected_triggers
        self.win_address = firmware.symbols.get(win_symbol)
        if self.win_address is None:
            raise ValueError(f"firmware does not define the {win_symbol!r} symbol")
        self.detect_address = (
            firmware.symbols.get(detect_symbol) if detect_symbol else None
        )
        if detect_symbol and self.detect_address is None:
            raise ValueError(f"firmware does not define the {detect_symbol!r} symbol")
        self.replay = replay
        #: power-on seed page -> its trigger-cycle record, then at most the
        #: latest prefix record (see _BootRecord)
        self._records: dict[bytes, list[_BootRecord]] = {}
        #: running totals of :data:`HW_COUNTERS`; scans report per-unit deltas
        self.counters = dict.fromkeys(HW_COUNTERS, 0)

    # ------------------------------------------------------------------

    def run_attempt(self, params: GlitchParams, force_simulation: bool = False) -> AttemptResult:
        """Run one glitched attempt and classify it."""
        first = self._occurrence_plan(params)
        counters = self.counters
        if not force_simulation:
            if first is None:
                counters["hw.fastpath"] += 1
                return AttemptResult(category="no_effect", params=params, simulated=False)
            if first[1] == "crash":
                # The first thing this parameter point does is crash the core.
                counters["hw.fastpath"] += 1
                return AttemptResult(category="reset", params=params, simulated=False)
        counters["hw.simulated"] += 1
        return self._simulate(params)

    def run_unglitched(self, max_cycles: int = BOOT_BUDGET) -> AttemptResult:
        """Baseline run with the glitcher disarmed (sanity/tuning)."""
        return self._simulate(None, max_cycles=max_cycles)

    # ------------------------------------------------------------------

    def _occurrence_plan(self, params: GlitchParams) -> Optional[tuple[int, str]]:
        """The first parameter-deterministic ``(rel_cycle, 'fault'|'crash')``
        decision of the glitch, or ``None`` when no glitched cycle faults.

        Only the first decision matters: a crash resets the core there,
        and a fault sends the attempt to full simulation.
        """
        return self.fault_model.first_occurrence(params)

    def _usable_baseline(self, ext_offset: int = 0) -> Optional[_BootRecord]:
        """The boot record the next simulated attempt restores when its
        glitch starts ``ext_offset`` cycles after the trigger — the latest
        at or before that cycle — or ``None`` when it boots from reset."""
        if not self.replay:
            return None
        records = self._records.get(bytes(self.board._seed_page))
        if records is None:
            return None
        return records[-1] if records[-1].rel <= ext_offset else records[0]

    def _capture_baseline(self, trigger_cycle: int, rel: int = 0) -> None:
        """Record the board ``rel`` cycles after the trigger, keyed by the
        power-on seed page (the live page is only persisted when the
        attempt ends).  A prefix record replaces the page's previous one."""
        board = self.board
        record = _BootRecord(
            ram=board.ram_image(),
            pipe_state=board.pipeline.snapshot_state(),
            gpio_state=board._gpio_state,
            trigger_cycle=trigger_cycle,
            rel=rel,
        )
        page = bytes(board._seed_page)
        if rel == 0:
            self._records[page] = [record]
        else:
            self._records[page][1:] = [record]

    def _loop_bounds(
        self, params: Optional[GlitchParams], windows: list[int], max_cycles: int
    ) -> tuple[int, int]:
        """``(deadline, quiet_from)`` for the simulation loop.

        The run stops at the first top-of-loop at or past ``deadline``:
        the settle budget after the last window once every expected
        trigger fired, a longer wait for a later trigger that may never
        come, or ``max_cycles``.  From cycle ``quiet_from`` on no glitch
        can land until another trigger opens a window; before the first
        trigger it is ``max_cycles``, so the settled-loop exit never runs
        during boot.
        """
        if not windows:
            return max_cycles, max_cycles
        if params is None:
            return max_cycles, windows[-1]
        glitch_end = params.ext_offset + params.repeat
        if len(windows) >= self.expected_triggers:
            limit = windows[-1] + glitch_end + SETTLE_CYCLES + 1
        else:
            limit = windows[0] + glitch_end + 4 * SETTLE_CYCLES + 1
        return min(max_cycles, limit), windows[-1] + glitch_end

    def _skip_settled_periods(self, history: dict, deadline: int) -> int:
        """Settled-loop exit: jump whole periods of a loop that can no
        longer change; returns the cycles skipped (0 when none).

        Called once no glitch can land, at every top-of-loop where the
        execute stage and both latches are empty: just after a taken
        branch flushed the pipeline.  Checking fewer points never makes
        the exit inexact, only later, and these points see every loop
        that fetches: with no glitch left only a taken branch moves the
        fetch address back, so a state that comes back after a fetch
        took a branch in between, and every taken branch goes through
        :meth:`~repro.hw.pipeline.PipelinedCPU._flush`.  Each period of
        such a loop passes a check point, so its repeat is seen at most
        one period later than a check at every cycle would see it.  (A
        front end stalled for good, a BL prefix whose suffix cannot be
        fetched, just steps to the deadline.)

        ``history`` maps each machine state seen at a check point to the
        counters and the memory write-log position there.  The state
        covers the registers, flags and halt bit, the fetch address, the
        last retired instruction, the bus-residue hint and the GPIO pin,
        plus the counts of MMIO reads and of milestones, so a repeat
        implies neither happened in between (the latches are empty at
        every check point).  The repeat counts only if memory is also
        unchanged: no write in between hit MMIO (a GPIO write can open a
        window), and every byte written holds its earlier value again.
        Then nothing read the cycle counter, no trigger can fire and the
        run from the repeated state replays the run from its first
        sighting, so every later period is identical: skipping whole
        periods up to the deadline leaves the final state, cycle count
        and outcome exactly those of the full settle.
        """
        board = self.board
        pipeline = board.pipeline
        cpu = pipeline.cpu
        log = cpu.memory.write_log
        if log is None:
            log = cpu.memory.write_log = []
        self.counters["hw.settle_checks"] += 1
        state = (
            tuple(cpu.regs), cpu.flags, cpu.halted, pipeline.fetch_address,
            pipeline._last_retired_raw, getattr(cpu, "last_bus_address", None),
            board._gpio_state, board.mmio_reads, len(pipeline.milestones),
        )
        seen = history.get(state)
        if seen is None or not _memory_unchanged(log, seen[3]):
            if len(history) >= _HISTORY_LIMIT:
                # a long non-repeating run: bound the memory
                history.clear()
                log.clear()
            history[state] = (pipeline.cycles, pipeline.retired, cpu.instruction_count, len(log))
            return 0
        cycles, retired, instructions, _ = seen
        period = pipeline.cycles - cycles
        periods = (deadline - pipeline.cycles) // period
        if periods == 0:
            return 0
        history.clear()
        log.clear()
        pipeline.cycles += periods * period
        pipeline.retired += periods * (pipeline.retired - retired)
        cpu.instruction_count += periods * (cpu.instruction_count - instructions)
        return periods * period

    def _simulate(
        self, params: Optional[GlitchParams], max_cycles: int = BOOT_BUDGET
    ) -> AttemptResult:
        board = self.board
        # a no-op for stateless models; resets e.g. the voltage model's
        # recharge capacitor so every attempt starts a fresh run
        self.fault_model.begin_run()
        # no glitch lands before rel cycle ``prefix``
        prefix = params.ext_offset if params is not None else 0
        record = self._usable_baseline(prefix)
        if record is not None:
            # Restore the run this power-on seed page leads to.  A
            # replayed attempt is still a power cycle as far as the
            # firmware and the tallies are concerned.
            board.load_ram_image(record.ram)
            board.pipeline.restore_state(record.pipe_state)
            board._gpio_state = record.gpio_state
            board.boot_count += 1
            self.counters["hw.baseline_replays"] += 1
            self.counters["hw.restored_cycles"] += record.rel
            windows: list[int] = [record.trigger_cycle]
            # rel cycles still to record at, in order
            pending: tuple[int, ...] = (prefix,) if record.rel < prefix else ()
        else:
            self.counters["hw.full_boots"] += 1
            board.reset()
            windows = []
            pending = ((0, prefix) if prefix else (0,)) if self.replay else ()
        # The whole run configuration is installed here: a restored
        # pipeline may carry another caller's (a trace hook, say).
        pipeline = board.pipeline
        stops = {self.win_address}
        if self.detect_address is not None:
            stops.add(self.detect_address)
        pipeline.stop_addresses = frozenset(stops)
        exit1 = self.firmware.symbols.get("exit1")
        pipeline.milestone_addresses = frozenset() if exit1 is None else frozenset({exit1})
        pipeline.glitch_resolver = None
        pipeline.trace_hook = None

        # The loop ends at the first top-of-loop whose cycle count reaches
        # ``deadline``; no glitch lands at or after cycle ``quiet_from``.
        # Both move only when a trigger opens a window.
        deadline, quiet_from = self._loop_bounds(params, windows, max_cycles)
        # The resolver is installed only on glitched cycles (it would
        # return None everywhere else); it is re-armed at ``rearm_at``.
        rearm_at = 0

        def on_trigger(value: int) -> None:
            nonlocal deadline, quiet_from, rearm_at
            windows.append(pipeline.cycles + 1)  # rel-cycle-0 anchor
            deadline, quiet_from = self._loop_bounds(params, windows, max_cycles)
            rearm_at = 0

        board.trigger_callback = on_trigger

        effects: list[FaultEffect] = []
        occurrence_counter = 0
        counters = self.counters

        def resolver(cycle: int, view: PipelineView) -> Optional[FaultEffect]:
            nonlocal occurrence_counter
            for window_index, base in enumerate(windows):
                if first_rel <= cycle - base < end_rel:
                    index = occurrence_counter
                    occurrence_counter += 1
                    effect = self.fault_model.effect_at(
                        params, cycle - base, view, index,
                        window_index=window_index, absolute_cycle=cycle,
                    )
                    if effect is not None:
                        effects.append(effect)
                        counters["hw.effects." + effect.kind] += 1
                    return effect
            return None

        glitched = params.glitched_cycles() if params is not None else range(0)
        first_rel, end_rel = glitched.start, glitched.stop

        def arm(cycle: int) -> int:
            """Install the resolver iff ``cycle`` is glitched; returns the
            next cycle at which that can change (short of a new trigger)."""
            active = False
            edge = _NEVER
            for base in windows:
                start, stop = base + first_rel, base + end_rel
                if start <= cycle < stop:
                    active = True
                    edge = min(edge, stop)
                elif cycle < start:
                    edge = min(edge, start)
            pipeline.glitch_resolver = resolver if active else None
            return edge

        cpu = board.cpu
        step = pipeline.step_cycle
        # the settled-loop exit assumes nothing outside the board observes
        # individual cycles
        watch = cpu.svc_handler is None
        history: dict = {}
        skipped = 0
        category = "no_effect"
        stop_symbol: Optional[str] = None
        try:
            while True:
                if pipeline.stopped_at is not None:
                    if pipeline.stopped_at == self.win_address:
                        category = "success"
                        stop_symbol = "win"
                    else:
                        category = "detected"
                        stop_symbol = "detected"
                    break
                if cpu.halted:
                    category = "no_effect"
                    stop_symbol = "halted"
                    break
                if pipeline.cycles >= deadline:
                    break
                if pending and windows:
                    # A live top-of-loop no later than rel cycle ``prefix``,
                    # which executes in the upcoming step at the earliest:
                    # no glitch has landed, so with one window open this
                    # state is attempt-independent.
                    if len(windows) > 1:
                        pending = ()
                    elif pipeline.cycles - windows[0] == pending[0]:
                        self._capture_baseline(windows[0], pending[0])
                        pending = pending[1:]
                if (
                    watch and pipeline.fetch_latch is None and pipeline.decode_latch is None
                    and pipeline.execute_slot is None and pipeline.cycles >= quiet_from
                ):
                    # a flushed pipeline: see _skip_settled_periods
                    jumped = self._skip_settled_periods(history, deadline)
                    if jumped:
                        skipped += jumped
                        counters["hw.settled_exits"] += 1
                        continue
                if pipeline.cycles >= rearm_at:
                    rearm_at = arm(pipeline.cycles)
                step()
        except EmulationFault:
            category = "reset"
        finally:
            cpu.memory.write_log = None  # only the settled-loop exit reads it

        if windows:
            counters["hw.cycles"] += pipeline.cycles - windows[0] - skipped
        if self.expected_triggers > 1 and category in ("no_effect", "reset"):
            # "Partial" = the first glitch broke out of loop 1 (observable:
            # the second trigger fired / the exit1 milestone issued) but the
            # run never reached the final success state.
            if len(windows) >= 2 or pipeline.milestones:
                category = "partial"

        board.persist_nonvolatile()
        return AttemptResult(
            category=category,
            params=params if params is not None else GlitchParams(0, 0, 0),
            triggers_seen=len(windows),
            cycles=pipeline.cycles,
            registers=tuple(board.cpu.regs),
            effects=tuple(effects),
            stop_symbol=stop_symbol,
        )


def _memory_unchanged(log: list, position: int) -> bool:
    """Whether the writes in ``log[position:]`` left memory as it was."""
    earlier: dict = {}  # (id(data), offset) -> (data, byte at ``position``)
    for region, offset, before in reversed(log[position:]):
        if type(region) is not MemoryRegion:
            return False  # MMIO: the write had a side effect
        data = region.data
        for index, value in enumerate(before, offset):
            earlier[id(data), index] = (data, value)
    return all(data[index] == value for (_, index), (data, value) in earlier.items())


__all__ = ["ClockGlitcher", "AttemptResult", "BOOT_BUDGET", "SETTLE_CYCLES"]
