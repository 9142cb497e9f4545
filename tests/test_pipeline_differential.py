"""Differential tests of the pipeline.

- Pipelined core ≡ architectural core: random straight-line-plus-loops
  programs generated from a safe instruction vocabulary must produce
  identical architectural state on both executors.  This is the strongest
  single guarantee that the pipeline (with its latches, stalls, and
  flushes) is purely a *timing* model.
- Whole-instruction stepping ≡ cycle stepping:
  :meth:`PipelinedCPU.step_instructions` must leave the machine exactly
  where :meth:`PipelinedCPU.step_cycle` calls leave it at the same cycle,
  after every return, on synthetic programs and inside every simulated
  Table VI attempt.
"""

import weakref

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.emu import CPU, Memory
from repro.errors import EmulationFault
from repro.hw import pipeline as pipeline_module
from repro.hw.mcu import FLASH_BASE, Board
from repro.hw.pipeline import PipelinedCPU
from repro.isa import assemble

BASE = 0x0800_0000
RAM = 0x2000_0000


def _environment(code: bytes):
    memory = Memory()
    memory.map("flash", BASE, max(0x400, len(code) + 0x40), writable=False, executable=True)
    memory.map("ram", RAM, 0x1000)
    memory.load(BASE, code)
    return memory


def run_both(source: str, max_units: int = 5000):
    program = assemble(source, base=BASE)

    plain = CPU(_environment(program.code))
    plain.pc = BASE
    plain.sp = RAM + 0x1000
    plain_result = plain.run(max_units)

    piped_cpu = CPU(_environment(program.code))
    piped_cpu.pc = BASE
    piped_cpu.sp = RAM + 0x1000
    pipeline = PipelinedCPU(piped_cpu)
    pipeline_result = pipeline.run(max_units * 4)

    return plain, plain_result, piped_cpu, pipeline_result


# a vocabulary of instruction templates safe for random composition
_TEMPLATES = [
    "movs r{a}, #{imm8}",
    "adds r{a}, r{b}, r{c}",
    "subs r{a}, r{b}, #{imm3}",
    "adds r{a}, #{imm8}",
    "lsls r{a}, r{b}, #{sh}",
    "lsrs r{a}, r{b}, #{sh}",
    "ands r{a}, r{b}",
    "orrs r{a}, r{b}",
    "eors r{a}, r{b}",
    "mvns r{a}, r{b}",
    "cmp r{a}, #{imm8}",
    "muls r{a}, r{b}",
    "rev r{a}, r{b}",
    "sxtb r{a}, r{b}",
    "nop",
]


@st.composite
def random_program(draw):
    lines = []
    count = draw(st.integers(3, 25))
    for _ in range(count):
        template = draw(st.sampled_from(_TEMPLATES))
        # r7 is reserved as the loop counter when a loop wraps the body
        lines.append("    " + template.format(
            a=draw(st.integers(0, 6)),
            b=draw(st.integers(0, 6)),
            c=draw(st.integers(0, 6)),
            imm8=draw(st.integers(0, 255)),
            imm3=draw(st.integers(0, 7)),
            sh=draw(st.integers(0, 31)),
        ))
    # optionally wrap a counted loop around the body
    if draw(st.booleans()):
        iterations = draw(st.integers(1, 5))
        body = "\n".join(lines)
        return (
            f"    movs r7, #{iterations}\n"
            "loop:\n"
            f"{body}\n"
            "    subs r7, r7, #1\n"
            "    bne loop\n"
            "    bkpt #0\n"
        )
    return "\n".join(lines) + "\n    bkpt #0\n"


class TestPipelineDifferential:
    @given(random_program())
    @settings(max_examples=60, deadline=None)
    def test_architectural_state_identical(self, source):
        plain, plain_result, piped, pipeline_result = run_both(source)
        assert plain_result.reason == "halted"
        assert pipeline_result == "halted"
        assert plain.regs[:8] == piped.regs[:8]
        assert plain.flags == piped.flags
        assert plain.sp == piped.sp

    @given(random_program())
    @settings(max_examples=20, deadline=None)
    def test_pipeline_never_faster_than_one_per_cycle(self, source):
        program = assemble(source, base=BASE)
        cpu = CPU(_environment(program.code))
        cpu.pc = BASE
        cpu.sp = RAM + 0x1000
        pipeline = PipelinedCPU(cpu)
        assert pipeline.run(50_000) == "halted"
        # ≥1 cycle per retired instruction plus the 2-cycle pipeline fill
        assert pipeline.cycles >= pipeline.retired + 2

    def test_memory_programs_match(self):
        source = """
            ldr r0, =0x20000100
            movs r1, #0x77
            str r1, [r0]
            ldr r2, [r0]
            push {r1, r2}
            pop {r3, r4}
            stmia r0!, {r3, r4}
            bkpt #0
        """
        plain, _, piped, _ = run_both(source)
        assert plain.regs[:8] == piped.regs[:8]
        assert plain.memory.read_u32(0x2000_0100) == piped.memory.read_u32(0x2000_0100)

    def test_call_heavy_program_matches(self):
        source = """
            movs r0, #0
            bl add_ten
            bl add_ten
            bl add_ten
            bkpt #0
        add_ten:
            adds r0, #10
            bx lr
        """
        plain, _, piped, _ = run_both(source)
        assert plain.regs[0] == piped.regs[0] == 30


# ----------------------------------------------------------------------
# whole-instruction stepping vs step_cycle
# ----------------------------------------------------------------------

#: calls after 1- and 2-cycle instructions and at a branch target, a
#: counted loop, push/pop and a return through pop {pc}
CALLS = """
_start:
    movs r0, #1
    bl inc              @ BL after a 1-cycle instruction
    push {r0}
    ldr r1, [sp]        @ 2-cycle
    bl inc              @ BL after a 2-cycle instruction
    b there
    nop
there:
    bl inc              @ BL at a branch target
    movs r3, #3
loop:
    subs r3, #1
    bne loop
    bl frame
    pop {r1}
    bkpt #0
inc:
    adds r0, #1
    bx lr
frame:
    push {r4, r5, r6, r7, lr}
    movs r4, #4
    pop {r4, r5, r6, r7, pc}
"""

#: DWT cycle-counter reads around two GPIO trigger edges
DEVICES = """
_start:
    ldr r0, =0xE0001004
    ldr r1, [r0]        @ DWT CYCCNT
    ldr r2, =0x48000014
    movs r3, #1
    str r3, [r2]        @ trigger edge
    ldr r4, [r0]
    movs r3, #0
    str r3, [r2]
    b up
    nop
up:
    movs r3, #1
    str r3, [r2]        @ second edge, after a taken branch
    ldr r5, [r0]
    wfi
"""

#: a stop on a BL that is also a milestone, after another milestone
STOPS = """
_start:
    movs r0, #1
mid:
    movs r1, #2
target:
    bl inc
    bkpt #0
inc:
    bx lr
"""

#: code running off the end of flash into the seed page
END_OF_FLASH = """
    .org 0x0801F7E8
_start:
    movs r0, #1
    .space 22
"""

#: a BL prefix in the last halfword of flash: its suffix is never fetched
LONE_PREFIX = """
    .org 0x0801F7F0
_start:
    movs r0, #1
    b last
    .space 10
last:
    .hword 0xF000
"""

#: an undefined encoding after a few instructions, a BL behind it
INVALID = """
_start:
    movs r0, #1
    push {r0}
    .hword 0xE800
    bl inc
inc:
    bx lr
"""

#: a 1-cycle instruction that faults in execute (a BX to ARM state), a
#: BL behind it
BAD_BX = """
_start:
    movs r0, #0
    bx r0
    bl inc
inc:
    bx lr
"""


def _board(source: str, stops=(), milestones=(), zero_is_invalid=False):
    program = assemble(source, base=FLASH_BASE)
    board = Board(program, zero_is_invalid=zero_is_invalid)
    pipeline = board.pipeline
    pipeline.stop_addresses = frozenset(program.symbols[name] for name in stops)
    pipeline.milestone_addresses = frozenset(program.symbols[name] for name in milestones)
    triggers = []
    board.trigger_callback = lambda value: triggers.append(pipeline.cycles)
    return board, triggers


def _machine(board: Board, triggers: list) -> tuple:
    return board.pipeline.snapshot_state(), board.ram_image(), board._gpio_state, tuple(triggers)


def _lockstep(make, limit: int, check_points: bool = False) -> tuple[int, int]:
    """Drive one machine with ``step_instructions(limit, check_points)``,
    stepping a cycle where it does not move, and a twin with
    ``step_cycle`` alone to the same cycle after every call; both must
    agree throughout.  Returns the stepper's returns and the cycle steps."""
    board, triggers = make()
    twin, twin_triggers = make()
    pipeline, reference = board.pipeline, twin.pipeline
    returns = steps = 0
    while pipeline.cycles < limit and pipeline.stopped_at is None and not pipeline.cpu.halted:
        error = twin_error = None
        try:
            if pipeline.step_instructions(limit, check_points):
                returns += 1
                assert pipeline.cycles <= limit
            else:
                steps += 1
                pipeline.step_cycle()
        except EmulationFault as exc:
            error = type(exc)
        try:
            while reference.cycles < pipeline.cycles and reference.stopped_at is None:
                reference.step_cycle()
            if error is not None or (pipeline.stopped_at is not None) != (reference.stopped_at is not None):
                reference.step_cycle()  # the fault's or the stop's own step
        except EmulationFault as exc:
            twin_error = type(exc)
        assert error == twin_error
        assert _machine(board, triggers) == _machine(twin, twin_triggers)
        if error is not None:
            break
    return returns, steps


def _cycles_to_end(make, budget: int) -> int:
    board, _ = make()
    pipeline = board.pipeline
    try:
        pipeline.run(budget)
    except EmulationFault:
        pass
    return pipeline.cycles


def _every_limit(make, budget: int = 1_000) -> None:
    """Lockstep at every limit up to past the program's end (or
    ``budget``), with and without check points: limits land in refill
    bubbles, BL waits and multi-cycle instructions."""
    for limit in range(1, _cycles_to_end(make, budget) + 3):
        for check_points in (False, True):
            _lockstep(make, limit, check_points)


class TestWholeInstructionStepping:
    def test_calls_push_pop_and_loops(self):
        make = lambda: _board(CALLS)  # noqa: E731
        _every_limit(make)
        # the stepper models every state this program passes through
        returns, steps = _lockstep(make, 10_000)
        assert steps == 0 and returns == 1
        returns, steps = _lockstep(make, 10_000, check_points=True)
        assert steps == 0 and returns > 5

    def test_device_reads_and_trigger_edges(self):
        make = lambda: _board(DEVICES)  # noqa: E731
        _every_limit(make)
        returns, steps = _lockstep(make, 10_000)
        # each edge ends a stretch; the wfi ends the last
        assert steps == 0 and returns == 3
        board, triggers = make()
        board.pipeline.run(10_000)
        assert len(triggers) == 2 and board.cpu.regs[1] < board.cpu.regs[4] < board.cpu.regs[5]

    def test_stop_on_a_bl_with_milestones(self):
        make = lambda: _board(STOPS, stops=("target",), milestones=("mid", "target"))  # noqa: E731
        _every_limit(make)
        board, _ = make()
        assert board.pipeline.run(10_000) == "stop_addr"
        assert [address for _, address in board.pipeline.milestones] == [
            board.symbol("mid"), board.symbol("target"),
        ]

    def test_halt(self):
        make = lambda: _board("_start:\n    movs r0, #1\n    bkpt #0\n    movs r0, #2\n")  # noqa: E731
        _every_limit(make)
        board, _ = make()
        assert board.pipeline.run(10_000) == "halted" and board.cpu.regs[0] == 1

    def test_code_near_the_end_of_flash_is_left_to_step_cycle(self):
        make = lambda: _board(END_OF_FLASH)  # noqa: E731
        _every_limit(make)
        returns, steps = _lockstep(make, 10_000)
        assert returns >= 1 and steps > 0  # the fault comes from step_cycle

    def test_a_bl_prefix_without_its_suffix_stalls_as_in_step_cycle(self):
        _every_limit(lambda: _board(LONE_PREFIX), budget=30)

    def test_invalid_encodings_fault_at_their_completion(self):
        _every_limit(lambda: _board(INVALID))
        _every_limit(lambda: _board(BAD_BX))
        zero = "_start:\n    movs r0, #1\n    .hword 0x0000\n"
        _every_limit(lambda: _board(zero, zero_is_invalid=True))
        # without the option 0x0000 is a movs
        _every_limit(lambda: _board(zero + "    bkpt #0\n"))

    def test_corrupted_latches_are_handed_back(self):
        board, _ = _board(CALLS)
        pipeline = board.pipeline
        while pipeline.fetch_latch is None:
            pipeline.step_cycle()
        address, halfword = pipeline.fetch_latch
        pipeline.fetch_latch = (address, halfword ^ 0x0100)
        before = pipeline.snapshot_state()
        assert not pipeline.step_instructions(10_000)
        assert pipeline.snapshot_state() == before

    @given(random_program(), st.integers(1, 400), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_random_programs(self, source, limit, check_points):
        _lockstep(lambda: _board("_start:\n" + source), limit, check_points)


class _CheckedStepper:
    """Wraps :meth:`PipelinedCPU.step_instructions` so that every call is
    replayed with ``step_cycle`` on a twin board from the same state and
    compared after it returns (or faults)."""

    def __init__(self, monkeypatch):
        self.original = PipelinedCPU.step_instructions
        self.twins: dict = {}
        self.calls = self.moves = 0
        reset = Board.reset

        def tagged_reset(board):
            reset(board)
            board.pipeline.board = weakref.ref(board)

        monkeypatch.setattr(Board, "reset", tagged_reset)
        checked = self

        def step_instructions(pipeline, limit, check_points=False):
            return checked.check(pipeline, limit, check_points)

        monkeypatch.setattr(PipelinedCPU, "step_instructions", step_instructions)

    def check(self, pipeline, limit, check_points):
        board = pipeline.board()
        before = pipeline.snapshot_state(), board.ram_image(), board._gpio_state
        callback = board.trigger_callback
        triggers: list = []

        def recording(value):
            triggers.append(pipeline.cycles)
            if callback is not None:
                callback(value)

        board.trigger_callback = recording
        fault = error = None
        try:
            moved = self.original(pipeline, limit, check_points)
        except EmulationFault as exc:
            fault, error = exc, type(exc)
        finally:
            board.trigger_callback = callback
        self.calls += 1
        after = pipeline.snapshot_state(), board.ram_image(), board._gpio_state
        if error is None and not moved:
            assert after == before
            return moved
        self.moves += 1
        twin = self._twin(board)
        state, ram, gpio = before
        twin.load_ram_image(ram)
        twin.pipeline.restore_state(state)
        twin._gpio_state = gpio
        twin.pipeline.stop_addresses = pipeline.stop_addresses
        twin.pipeline.milestone_addresses = pipeline.milestone_addresses
        twin_triggers: list = []
        twin.trigger_callback = lambda value: twin_triggers.append(twin.pipeline.cycles)
        reference = twin.pipeline
        twin_error = None
        try:
            while reference.cycles < pipeline.cycles and reference.stopped_at is None:
                reference.step_cycle()
            if error is not None or (pipeline.stopped_at is not None) != (reference.stopped_at is not None):
                reference.step_cycle()
        except EmulationFault as exc:
            twin_error = type(exc)
        assert error == twin_error
        assert after == (reference.snapshot_state(), twin.ram_image(), twin._gpio_state)
        assert triggers == twin_triggers
        if fault is not None:
            raise fault
        return moved

    def _twin(self, board: Board) -> Board:
        twin = self.twins.get(id(board.firmware))
        if twin is None:
            twin = self.twins[id(board.firmware)] = (
                Board(board.firmware, zero_is_invalid=board.zero_is_invalid), board.firmware,
            )
        return twin[0]


def test_every_table6_stride12_stretch_matches_step_cycle(monkeypatch):
    """Every whole-instruction stretch of ``run_table6(stride=12)``
    (boots, prefixes, tails, references) leaves the machine as stepping
    each cycle does, and the table is unchanged."""
    from repro.experiments import run_table6
    from repro.hw import glitcher as glitcher_module

    monkeypatch.setattr(glitcher_module, "_REFERENCES", {})
    checked = _CheckedStepper(monkeypatch)
    table = run_table6(stride=12)
    assert checked.moves > 2000
    monkeypatch.undo()
    assert table.render() == run_table6(stride=12).render()


def test_step_entries_are_shared_by_encoding_and_image():
    """Step entries are memoized per encoding, and every board of an image
    (across its resets) looks them up through one address map."""
    board, _ = _board(CALLS)
    board.pipeline.run(10_000)
    entries = board.pipeline.decoded
    assert entries and all(
        entry is pipeline_module._step_entry(entry[0], False) for entry in entries.values()
    )
    board.reset()
    assert board.pipeline.decoded is entries
    assert _board(CALLS)[0].pipeline.decoded is entries
    assert _board(CALLS, zero_is_invalid=True)[0].pipeline.decoded is not entries
