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

The run up to the first glitched cycle is unglitched and deterministic
given the image and the power-on seed flash page, so simulated attempts
restore it from *boot records* (:class:`_BootRecord`, the hw-layer face
of the snapshot engine, see ``docs/ARCHITECTURE.md``) instead of
re-simulating boot from reset.

Once no glitch can land, two exits end an attempt early.  Both work on
one record of a run, :class:`_Run`: the machine at every top-of-loop
with a flushed pipeline (its *check points*), the writes in between, and
one loop test.

- The *settled-loop exit* (:meth:`ClockGlitcher._skip_settled_periods`):
  most simulated attempts end ``no_effect`` with the firmware spinning in
  a guard loop until the settle budget runs out.  The attempt's own run
  record, found looping, lets it jump whole loop periods to the deadline.
- The *rejoin exit* (:meth:`ClockGlitcher._rejoin`): many attempts are
  back on the unglitched run from the same power-on seed page, their
  *reference*, which is the same record of a run with no glitch.  An
  attempt found there ends with the reference's end.

Either exit leaves the attempt's result exactly that of stepping every
cycle.

Between glitch windows nothing watches individual cycles, so the boot up
to the trigger, the prefix up to the glitch and the tail after it run
whole instructions at a time
(:meth:`~repro.hw.pipeline.PipelinedCPU.step_instructions`), returning at
every cycle the loop acts at: a window edge, a record to take, a trigger,
each check point of the tail, the deadline.  Only glitch windows and the
states the stepper does not model step cycle by cycle.

``replay=False`` turns off boot records, the rejoin exit and
whole-instruction stepping, so it steps every cycle; the differential
tests compare against it.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import islice
from typing import Optional

from repro.emu.cpu import CPUSnapshot
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
#: simulated attempts cut short by the settled-loop exit, check points
#: that exit took, pipeline cycles run after the first trigger
#: (restored prefix cycles included), how each simulated run started —
#: booted from reset, or restored from a boot record — and the prefix
#: cycles restored from a record instead of stepped, and, per
#: :data:`~repro.hw.faults.EFFECT_KINDS` kind, the fault effects the
#: resolver realized (``reset`` included).  For scans,
#: ``hw.full_boots + hw.baseline_replays == hw.simulated``
#: (:meth:`ClockGlitcher.run_unglitched` runs count a start too; reference
#: runs do not).  ``hw.rejoins`` counts attempts ended by the rejoin exit
#: and ``hw.rejoined_cycles`` the cycles from there to their end, which
#: ``hw.cycles`` leaves out as it leaves out settled-loop skips;
#: ``hw.reference_cycles`` counts the cycles stepped on reference runs,
#: each up to the check point where its own loop test fires, and
#: ``hw.cycle_steps`` the cycles an attempt advanced through
#: :meth:`~repro.hw.pipeline.PipelinedCPU.step_cycle` rather than whole
#: instructions (boot included).
#: The boot split, ``hw.restored_cycles``, ``hw.reference_cycles`` and
#: ``hw.cycle_steps`` depend on which records a glitcher holds and which
#: references the process has stepped, so serial and parallel scans
#: differ there; the others do not.
HW_COUNTERS = (
    "hw.fastpath", "hw.simulated", "hw.settled_exits", "hw.settle_checks",
    "hw.cycles", "hw.full_boots", "hw.baseline_replays", "hw.restored_cycles",
    "hw.rejoins", "hw.rejoined_cycles", "hw.reference_cycles", "hw.cycle_steps",
) + tuple(f"hw.effects.{kind}" for kind in EFFECT_KINDS)

#: check points an attempt's run record keeps; a longer run without a
#: repeat starts a fresh record
_CHECK_LIMIT = 4096
#: reference key -> the :class:`_ImageRuns` of that image; only the image
#: last asked about is kept
_REFERENCES: dict = {}
#: reference runs one image keeps; all are dropped when one more is asked for
_REFERENCE_LIMIT = 1024
#: check points the rejoin exit looks at after each glitch window.  A
#: glitch that leaves nothing lasting is washed out within a loop round
#: or two: Tables I-III rejoin at the first two, Table VI by the fourth
#: (663 of 664 rejoins at stride 4 when the exit looked further).
#: Attempts that do not match by then step their reference no further.
_REJOIN_LOOKS = 4
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
    """The machine at the top-of-loop ``rel`` cycles after the trigger
    (writable memory, pipeline latches, GPIO pin), keyed by the power-on
    seed page it booted from.

    The first full run from each page records the trigger cycle
    (``rel == 0``).  An attempt whose glitch starts ``ext_offset`` cycles
    after the trigger also records the cycle just before it (a *prefix
    record*): its run is still live there with one window open and no
    glitch landed, so every attempt from the same page with
    ``ext_offset >= rel`` passes through exactly this state and restores
    the latest record at or before its own ``ext_offset``.  A scan's units
    run their shapes in increasing ``ext_offset``, and each unit's k-th
    simulated attempt powers on with the same page, so each unit steps
    only the cycles since the previous unit's glitch start.  A page keeps
    its trigger-cycle record and the latest prefix record, no more.

    Records belong to the glitcher, not to the board, so they survive an
    external ``board.reset()``; firmware that persists new seed-page state
    (the random-delay defense) just looks up a different record.  A
    prefix record sits at any cycle, not only at a check point, so records
    are not check points of the reference runs.
    """

    ram: tuple[bytes, ...]  # Board.ram_image(): SRAM and the seed page
    pipe_state: PipelineState
    gpio_state: int
    trigger_cycle: int
    rel: int


class _ImageRuns:
    """The reference runs of one image, the scratch board they are stepped
    on, the RAM every board of the image powers on with, and the run
    configuration.

    A reference depends on the image, the stop and milestone addresses,
    which stop is ``win``, ``zero_is_invalid`` (together the glitcher's
    ``_reference_key``) and its power-on seed page, not on the fault
    model: every scan of a build shares them.  :data:`_REFERENCES` keeps
    the runs of the image last asked about only.  A Table I-III or VI
    regeneration scans each build's attacks one after another, so the
    runs last one build and never outlive it (they hold no reference
    back, so dropping them frees them at once).
    """

    def __init__(self, glitcher: ClockGlitcher):
        self.board = Board(glitcher.firmware, zero_is_invalid=glitcher.board.zero_is_invalid)
        self.power_on = self.board.ram_image()
        self.stops = glitcher._stops
        self.milestones = glitcher._milestones
        self.win_address = glitcher.win_address
        #: power-on seed page -> its run
        self.runs: dict[bytes, _Run] = {}
        #: one copy of each seed page a run ends with
        self.pages: dict[bytes, bytes] = {}

    def reference(self, page: bytes, start: _BootRecord) -> _Run:
        """The run from ``page``; ``start`` is its trigger-cycle record."""
        run = self.runs.get(page)
        if run is None:
            if len(self.runs) >= _REFERENCE_LIMIT:
                self.runs.clear()
                self.pages.clear()
            run = self.runs[page] = _Run(
                _changes(self.board._ram_regions, self.power_on, start.ram),
                (start.pipe_state, start.gpio_state, 0),
            )
        return run

    def memory(self, journal: list, length: int) -> tuple:
        """Load the scratch board's RAM as it was after the first ``length``
        writes of a reference's ``journal``; returns its writable regions."""
        board = self.board
        board.load_ram_image(self.power_on)
        for region, offset, _, data in islice(journal, length):
            if type(region) is MemoryRegion:
                region.data[offset:offset + len(data)] = data
        return board._ram_regions

    def load(self, state: PipelineState, gpio: int, journal: list, length: int):
        """Put the scratch board at ``state`` with :meth:`memory`; returns
        its pipeline."""
        self.memory(journal, length)
        board = self.board
        board.pipeline.restore_state(state)
        board._gpio_state = gpio
        _configure(board, self.stops, self.milestones)
        return board.pipeline


class _Run:
    """The check points of one run on one board, and the writes between them.

    A check point is a top-of-loop where the execute stage and both
    latches are empty (:meth:`ClockGlitcher._skip_settled_periods` says
    why these points see every loop).  At each the record keeps the run's
    :func:`_machine_state`, trigger count, journal length and MMIO read
    count, and the retired counts a settled-loop skip moves on; never a
    whole RAM image.  The journal is the board's ``Memory.write_log``
    from the first check point on: ``(region, offset, bytes before,
    bytes written)`` per write, MMIO ones included, so up to a check
    point's length it is memory there, over memory where it began.
    :meth:`check` is the one loop test.

    An attempt keeps one from its first check point once no glitch can
    land.  A *reference*, the unglitched run from one power-on seed page
    from its trigger on, is one with a ``frontier``: its journal begins
    over its image's power-on RAM with the blocks where the page's
    trigger-cycle :class:`_BootRecord` differs, and it is stepped on the
    image's scratch board only as far as the latest cycle asked of it,
    never past its loop (:meth:`extend`).  The reference methods take
    that :class:`_ImageRuns`; a run holds no reference to it, so
    dropping an image frees its runs at once.
    """

    def __init__(self, journal: Optional[list] = None, frontier: Optional[tuple] = None):
        #: (region, offset, bytes before, bytes written) per write
        self.journal: list[tuple] = [] if journal is None else journal
        #: check-point cycle -> (state, trigger count, journal length, MMIO
        #: reads, retired and executed instructions), in cycle order
        self.checks: dict[int, tuple] = {}
        #: (state, trigger count) -> its latest check-point cycle
        self._latest: dict = {}
        #: (first cycle, period) once the run repeats for good
        self.loop: Optional[tuple[int, int]] = None
        #: the run's MMIO reads are ``mmio + board.mmio_reads``
        self.mmio = 0
        #: cycles whose step raised the trigger pin (references only)
        self.triggers: list[int] = []
        #: (cycle of the last step, end) once the run stopped, halted or faulted
        self.end: Optional[tuple[int, tuple]] = None
        #: deadline -> the run's end there
        self.ends: dict[int, tuple] = {}
        #: where a reference's stepping resumes: (pipeline state, GPIO pin,
        #: MMIO reads)
        self._frontier = frontier

    def check(self, board: Board, triggers: int) -> Optional[int]:
        """Take a check point of ``board``, which runs this run with
        ``triggers`` seen; returns the earlier check-point cycle the run
        repeats from for good, else ``None``.

        The loop test: the latest earlier check point with the same state
        and trigger count is repeated when no MMIO access came in between
        (a GPIO write can open a window, a DWT read sees the cycle
        counter) and every byte written since holds its value there
        again.  Then nothing read the cycle counter, no trigger can fire
        and the run from here replays the run from there, forever.
        """
        memory = board.cpu.memory
        if memory.write_log is not self.journal:
            memory.write_log = self.journal  # only writes from here on matter
        pipeline = board.pipeline
        cycle = pipeline.cycles
        state = _machine_state(board)
        key = (state, triggers)
        seen = self._latest.get(key)
        self._latest[key] = cycle
        length, mmio = len(self.journal), self.mmio + board.mmio_reads
        if seen is not None:
            # one copy of a repeated state
            state, _, before, reads, _, _ = self.checks[seen]
        self.checks[cycle] = (
            state, triggers, length, mmio, pipeline.retired, pipeline.cpu.instruction_count,
        )
        if seen is None or reads != mmio or not self._unchanged(before):
            return None
        self.loop = (seen, cycle - seen)
        return seen

    def _unchanged(self, length: int) -> bool:
        """Whether the writes since journal position ``length`` left memory
        as it was there, with no MMIO write among them."""
        there: dict = {}
        now: dict = {}
        for region, offset, before, after in self.journal[length:]:
            if type(region) is not MemoryRegion:
                return False  # MMIO: the write had a side effect
            key = id(region)
            for at, value in enumerate(before, offset):
                there.setdefault((key, at), value)
            for at, value in enumerate(after, offset):
                now[key, at] = value
        return there == now

    def extend(self, image: _ImageRuns, until: int) -> int:
        """Step the reference to the top of cycle ``until``, its loop or
        its end; returns the cycles stepped."""
        state, gpio, reads = self._frontier
        if self.end is not None or self.loop is not None or state.cycles >= until:
            return 0
        board = image.board
        pipeline = image.load(state, gpio, self.journal, len(self.journal))
        cpu = board.cpu
        cpu.memory.write_log = self.journal
        self.mmio = reads - board.mmio_reads
        triggers = self.triggers
        board.trigger_callback = lambda value: triggers.append(pipeline.cycles)
        checks = self.checks
        start = pipeline.cycles
        faulted = False
        try:
            while pipeline.stopped_at is None and not cpu.halted:
                cycle = pipeline.cycles
                if (
                    pipeline.fetch_latch is None and pipeline.decode_latch is None
                    and pipeline.execute_slot is None and cycle not in checks
                    and self.check(board, 1 + len(triggers)) is not None
                ):
                    return cycle - start
                if cycle >= until:
                    self._frontier = (
                        pipeline.snapshot_state(), board._gpio_state, self.mmio + board.mmio_reads
                    )
                    return cycle - start
                if not pipeline.step_instructions(until, True):
                    pipeline.step_cycle()
        except EmulationFault:
            faulted = True
        finally:
            cpu.memory.write_log = None
            board.trigger_callback = None
        # a stop or a fault ends the step at its cycle, a halt the step
        # that took the count past it
        halted = pipeline.stopped_at is None and not faulted
        last = pipeline.cycles - 1 if halted else pipeline.cycles
        self.end = (last, self._end_state(image, faulted))
        return pipeline.cycles - start

    def end_at(self, image: _ImageRuns, deadline: int) -> tuple[tuple, int]:
        """The reference's end (see :func:`_end`) for an attempt whose
        loop stops at ``deadline``, and the cycles stepped to find it.

        The reference must have been stepped that far.  The end is its own
        when it stopped, halted or faulted before the deadline; else the
        machine at the deadline, stepped again from the latest check point
        before it, once per deadline."""
        if self.end is not None and self.end[0] < deadline:
            return self.end[1], 0
        end = self.ends.get(deadline)
        if end is not None:
            return end, 0
        at = self.period_cycle(deadline)
        cycles = list(self.checks)
        cycle = cycles[bisect_right(cycles, at) - 1]
        state, _, length, _, _, _ = self.checks[cycle]
        regs, flags, halted, fetch_address, last_retired, bus, gpio, milestones = state
        pipeline = image.load(PipelineState(
            cpu=CPUSnapshot(regs, flags, halted, 0), cycles=cycle,
            fetch_address=fetch_address, fetch_latch=None, decode_latch=None, slot=None,
            retired=0, stopped_at=None, milestones=(), last_bus_address=bus,
            last_retired_raw=last_retired,
        ), gpio, self.journal, length)
        # no trigger, stop, halt or fault before the deadline
        while pipeline.cycles < at:
            if not pipeline.step_instructions(at):
                pipeline.step_cycle()
        end = self._end_state(image, False, milestones)
        end = self.ends[deadline] = end[:2] + (deadline,) + end[3:]
        return end, at - cycle

    def period_cycle(self, cycle: int) -> int:
        """The stepped cycle whose machine state ``cycle``'s is: ``cycle``
        itself, or its place in the loop the run repeats."""
        if self.loop is None or cycle < self.loop[0]:
            return cycle
        first, period = self.loop
        return first + (cycle - first) % period

    def _end_state(self, image: _ImageRuns, faulted: bool, milestones: int = 0) -> tuple:
        end = _end(image.board, image.win_address, faulted, milestones)
        return end[:4] + (image.pages.setdefault(end[4], end[4]),) + end[5:]


class ClockGlitcher:
    """Arms and fires clock glitches against one firmware image.

    ``replay=True`` (the default) enables boot records, the rejoin exit
    and whole-instruction stepping.  Outcomes are bit-identical either
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
        stops = {self.win_address}
        if self.detect_address is not None:
            stops.add(self.detect_address)
        self._stops = frozenset(stops)
        exit1 = firmware.symbols.get("exit1")
        self._milestones = frozenset() if exit1 is None else frozenset({exit1})
        #: what a reference run depends on besides its seed page
        self._reference_key = (
            hashlib.blake2b(firmware.code, digest_size=16).digest(), firmware.base,
            firmware.symbols.get("_start"), self.win_address, self._stops, self._milestones,
            zero_is_invalid,
        )
        #: running totals of :data:`HW_COUNTERS`; scans report per-unit deltas
        self.counters = dict.fromkeys(HW_COUNTERS, 0)

    # ------------------------------------------------------------------

    def run_attempt(self, params: GlitchParams, force_simulation: bool = False) -> AttemptResult:
        """Run one glitched attempt and classify it.

        ``force_simulation=True`` is a test hook: only tests pass it, to
        simulate points the fault-model fast path would decide.  It
        bypasses that fast path alone; boot records and the rejoin exit
        still apply (``replay=False`` turns those off).
        """
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

    def _skip_settled_periods(self, run: _Run, triggers: int, deadline: int) -> int:
        """Settled-loop exit: take a check point of the attempt's own
        :class:`_Run` and, when that finds the run looping, jump whole
        periods of the loop towards the deadline; returns the cycles
        skipped (0 when none).

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

        A repeat :meth:`_Run.check` finds replays the run from the
        earlier check point, so every later period is identical: skipping
        whole periods up to the deadline leaves the final state, cycle
        count and outcome exactly those of the full settle.
        """
        self.counters["hw.settle_checks"] += 1
        seen = run.check(self.board, triggers)
        if seen is None:
            return 0
        pipeline = self.board.pipeline
        cpu = pipeline.cpu
        period = pipeline.cycles - seen
        periods = (deadline - pipeline.cycles) // period
        if periods == 0:
            return 0
        retired, instructions = run.checks[seen][4:]
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
        _configure(board, self._stops, self._milestones)
        pipeline = board.pipeline

        # The loop ends at the first top-of-loop whose cycle count reaches
        # ``deadline``; no glitch lands at or after cycle ``quiet_from``.
        # Both move only when a trigger opens a window.
        deadline, quiet_from = self._loop_bounds(params, windows, max_cycles)
        # The resolver is installed only on glitched cycles (it would
        # return None everywhere else); it is re-armed at ``rearm_at``.
        rearm_at = 0
        # check points the rejoin exit still looks at; each window
        # renews them
        window_looks = _REJOIN_LOOKS if self.replay and params is not None else 0
        looks = window_looks

        def on_trigger(value: int) -> None:
            nonlocal deadline, quiet_from, rearm_at, looks
            windows.append(pipeline.cycles + 1)  # rel-cycle-0 anchor
            deadline, quiet_from = self._loop_bounds(params, windows, max_cycles)
            rearm_at = 0
            looks = window_looks

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
        # unglitched stretches run whole instructions at a time
        advance = pipeline.step_instructions if self.replay else None
        # the settled-loop and rejoin exits assume nothing outside the
        # board observes individual cycles
        watch = cpu.svc_handler is None
        run: Optional[_Run] = None
        skipped = 0
        steps = 0
        faulted = False
        end: Optional[tuple] = None
        try:
            while (
                pipeline.stopped_at is None and not cpu.halted and pipeline.cycles < deadline
            ):
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
                    # a flushed pipeline: see _rejoin and _skip_settled_periods
                    if looks:
                        looks -= 1
                        end = self._rejoin(len(windows), deadline)
                        if end is not None:
                            break
                    if run is None or len(run.checks) >= _CHECK_LIMIT:
                        # a fresh record also bounds the memory of a long
                        # run without a repeat
                        run = _Run()
                    jumped = self._skip_settled_periods(run, len(windows), deadline)
                    if jumped:
                        skipped += jumped
                        counters["hw.settled_exits"] += 1
                        continue
                cycle = pipeline.cycles
                if cycle >= rearm_at:
                    rearm_at = arm(cycle)
                if advance is not None and pipeline.glitch_resolver is None:
                    # up to the next cycle the loop acts at: a window edge,
                    # a record to take, the first check point or the deadline
                    limit = min(deadline, rearm_at)
                    if pending and windows:
                        limit = min(limit, windows[0] + pending[0])
                    quiet = watch and cycle >= quiet_from
                    if watch and not quiet:
                        limit = min(limit, quiet_from)
                    if advance(limit, quiet):
                        continue
                steps += 1
                step()
        except EmulationFault:
            faulted = True
        finally:
            cpu.memory.write_log = None  # only the run record reads it
            # both hooks close over this glitcher: left installed, they
            # would tie it and its board into a reference cycle
            board.trigger_callback = None
            pipeline.glitch_resolver = None

        counters["hw.cycle_steps"] += steps
        if windows:
            counters["hw.cycles"] += pipeline.cycles - windows[0] - skipped
        if end is None:
            end = _end(board, self.win_address, faulted)
        else:
            counters["hw.rejoins"] += 1
            counters["hw.rejoined_cycles"] += end[2] - pipeline.cycles
        category, stop_symbol, cycles, registers, page, milestones = end
        # A rejoined attempt takes the reference's end: only the seed page
        # is brought there, the rest of the board stays at the rejoin
        # cycle (the next run restores or resets it).
        board._seed_region.data[:] = page
        board.persist_nonvolatile()
        if self.expected_triggers > 1 and category in ("no_effect", "reset"):
            # "Partial" = the first glitch broke out of loop 1 (observable:
            # the second trigger fired / the exit1 milestone issued) but the
            # run never reached the final success state.
            if len(windows) >= 2 or milestones:
                category = "partial"

        return AttemptResult(
            category=category,
            params=params if params is not None else GlitchParams(0, 0, 0),
            triggers_seen=len(windows),
            cycles=cycles,
            registers=registers,
            effects=tuple(effects),
            stop_symbol=stop_symbol,
        )

    def _rejoin(self, triggers: int, deadline: int) -> Optional[tuple]:
        """Rejoin exit: the end of the attempt, taken from its reference
        (the unglitched run from the board's power-on seed page), when the
        board is back on that run for good; else ``None``.

        Called at the first :data:`_REJOIN_LOOKS` check points after each
        of the attempt's glitch windows, with its trigger count and
        deadline.  It is exact when both hold:

        - at the same absolute cycle the whole machine state is the
          reference's: :func:`_machine_state`, the trigger count, and SRAM
          plus the live seed page byte for byte;
        - the reference raises no trigger between that cycle and the
          attempt's deadline (a trigger would open a window the attempt
          glitches in).

        The run from there is then the reference's, so the attempt's
        category, stop symbol, cycles, registers and persisted seed page
        are the reference's at the deadline, or at an earlier stop, halt
        or fault; it keeps its own effects.  Which attempts rejoin depends
        only on the attempt, never on how far earlier attempts stepped the
        reference, so serial and parallel scans agree.
        """
        image = _REFERENCES.get(self._reference_key)
        if image is None:
            _REFERENCES.clear()
            image = _REFERENCES[self._reference_key] = _ImageRuns(self)
        board = self.board
        page = bytes(board._seed_page)
        reference = image.reference(page, self._records[page][0])
        cycle = board.pipeline.cycles
        counters = self.counters
        counters["hw.reference_cycles"] += reference.extend(image, cycle)
        check = reference.checks.get(reference.period_cycle(cycle))
        if check is None or check[1] != triggers or check[0] != _machine_state(board):
            return None
        # memory is rebuilt and compared only when the state tuple matches
        regions = image.memory(reference.journal, check[2])
        if any(a.data != b.data for a, b in zip(board._ram_regions, regions)):
            return None
        # stepped on to the deadline only when the whole state matches
        counters["hw.reference_cycles"] += reference.extend(image, deadline)
        index = bisect_left(reference.triggers, cycle)
        if index < len(reference.triggers) and reference.triggers[index] < deadline:
            return None
        end, stepped = reference.end_at(image, deadline)
        counters["hw.reference_cycles"] += stepped
        return end


def _configure(board: Board, stops: frozenset, milestones: frozenset) -> None:
    """Install a run configuration on ``board``: its stop and milestone
    addresses, and no glitch resolver, trace hook or trigger callback."""
    pipeline = board.pipeline
    pipeline.stop_addresses = stops
    pipeline.milestone_addresses = milestones
    pipeline.glitch_resolver = None
    pipeline.trace_hook = None
    board.trigger_callback = None


def _end(board: Board, win_address: int, faulted: bool, milestones: int = 0) -> tuple:
    """The end of a run on ``board``: ``(category, stop symbol, cycles,
    registers, live seed page, milestone count)``, with ``milestones``
    counted before the board's pipeline was loaded.  A fault, a stop at
    ``win`` or at the detection symbol, a halt, or else the deadline
    ended it."""
    pipeline = board.pipeline
    if faulted:
        ending = ("reset", None)
    elif pipeline.stopped_at == win_address:
        ending = ("success", "win")
    elif pipeline.stopped_at is not None:
        ending = ("detected", "detected")
    else:
        ending = ("no_effect", "halted" if pipeline.cpu.halted else None)
    return ending + (
        pipeline.cycles, tuple(board.cpu.regs), bytes(board._seed_region.data),
        milestones + len(pipeline.milestones),
    )


def _machine_state(board: Board) -> tuple:
    """The machine at a check point (empty latches) besides memory and the
    cycle count: registers, flags, halt bit, fetch address, last retired
    instruction, bus-residue hint, GPIO pin and milestone count.  Both
    exits compare it; ``Board.mmio_reads`` and ``boot_count`` only count."""
    pipeline = board.pipeline
    cpu = board.cpu
    return (
        tuple(cpu.regs), cpu.flags, cpu.halted, pipeline.fetch_address,
        pipeline._last_retired_raw, getattr(cpu, "last_bus_address", None),
        board._gpio_state, len(pipeline.milestones),
    )


def _changes(regions: tuple, bases: tuple, images: tuple, block: int = 256) -> list[tuple]:
    """The blocks where ``images`` differ from ``bases``, as journal writes
    to ``regions``: ``(region, offset, bytes in base, bytes in image)``."""
    return [
        (region, offset, base[offset:offset + block], data[offset:offset + block])
        for region, base, data in zip(regions, bases, images)
        for offset in range(0, len(data), block)
        if data[offset:offset + block] != base[offset:offset + block]
    ]


__all__ = ["ClockGlitcher", "AttemptResult", "BOOT_BUDGET", "SETTLE_CYCLES"]
