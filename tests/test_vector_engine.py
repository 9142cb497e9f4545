"""Differential and regression tests for the NumPy lock-step engine.

The vector engine re-implements the scalar Thumb-16 semantics, so its
tests are overwhelmingly differential: the scalar snapshot replay run
over whole batches (``SnapshotSnippetHarness`` of tests/oracles.py,
itself pinned against the per-word rebuild oracle by
tests/test_snapshot.py) is the oracle.
The beq full-space sweep runs every one of the 2^16 corrupted words
through both; the hypothesis sweep samples word batches across all 14
branches and both decode modes three ways.  The instruction-class sweep
has no scalar path, so it is checked against the per-word rebuild
classifier of tests/oracles.py.

This file also carries the run_many batch-path regressions that landed
with the engine: original-word result keying, flush-fresh-on-crash, and
the vector.* observability counters.
"""

import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import discover_sites
from repro.campaign.harness import SiteHarness
from repro.emu import CPU, Memory
from repro.emu import vector as V
from repro.emu.vector import ST_HALTED, ST_LIMIT, ST_STOPPED
from repro.errors import EmulationFault
from repro.exec import OutcomeCache
from repro.exec.cache import CATEGORY_CODES, CODE_CATEGORIES
from repro.firmware.image import load_image
from repro.glitchsim.harness import SnippetHarness
from repro.glitchsim.snippets import all_branch_snippets, branch_snippet
from repro.isa.conditions import Flags
from repro.isa.registers import SP
from repro.obs import Observer, activate
from tests.oracles import (
    RebuildSiteHarness,
    RebuildSnippetHarness,
    SnapshotSiteHarness,
    SnapshotSnippetHarness,
    enumerate_class_sweep,
    rebuild_engine,
    snapshot_engine,
)

DEMO_HEX = os.path.join(os.path.dirname(__file__), "..", "examples", "demo_fw.hex")

ALL_MNEMONICS = [snippet.mnemonic for snippet in all_branch_snippets()]

# Persistent harnesses so hypothesis examples don't rebuild worlds;
# each entry is (snapshot, rebuild oracle, vector) for one (mnemonic, mode).
_HARNESS_CACHE: dict = {}


def _harness_trio(mnemonic, zero_is_invalid):
    key = (mnemonic, zero_is_invalid)
    trio = _HARNESS_CACHE.get(key)
    if trio is None:
        snippet = branch_snippet(mnemonic[1:])
        trio = (
            SnapshotSnippetHarness(snippet, zero_is_invalid=zero_is_invalid),
            RebuildSnippetHarness(snippet, zero_is_invalid=zero_is_invalid),
            SnippetHarness(snippet, zero_is_invalid=zero_is_invalid),
        )
        _HARNESS_CACHE[key] = trio
    return trio


def _full_word_space_mismatches(condition, zero_is_invalid):
    """Words whose category differs between the snapshot replay and the vector engine."""
    snippet = branch_snippet(condition)
    words = range(1 << 16)
    base = SnapshotSnippetHarness(snippet, zero_is_invalid=zero_is_invalid).run_many(words)
    vec = SnippetHarness(snippet, zero_is_invalid=zero_is_invalid).run_many(words)
    return [
        (word, base[word].category, vec[word].category)
        for word in words
        if base[word].category != vec[word].category
    ]


class TestVectorDifferential:
    @pytest.mark.parametrize("zero_is_invalid", [False, True])
    def test_beq_full_word_space_matches_snapshot(self, zero_is_invalid):
        """Every possible corrupted word, both decode modes, both engines."""
        assert _full_word_space_mismatches("eq", zero_is_invalid) == []

    @pytest.mark.slow
    @pytest.mark.parametrize("zero_is_invalid", [False, True])
    def test_bvs_full_word_space_matches_snapshot(self, zero_is_invalid):
        """bvs is the only world with a 60-step budget (a four-step set-up)."""
        assert _full_word_space_mismatches("vs", zero_is_invalid) == []

    @settings(max_examples=25, deadline=None)
    @given(
        mnemonic=st.sampled_from(ALL_MNEMONICS),
        zero_is_invalid=st.booleans(),
        words=st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=40),
    )
    def test_three_way_engine_agreement(self, mnemonic, zero_is_invalid, words):
        """vector == snapshot == rebuild categories on random word batches."""
        snapshot, rebuild, vector = _harness_trio(mnemonic, zero_is_invalid)
        vec = vector.run_many(words)
        snap = snapshot.run_many(words)
        for word in words:
            assert vec[word].category == snap[word].category, (mnemonic, word)
            assert (
                rebuild.run(word).category == snap[word].category
            ), (mnemonic, word)

    def test_fig2_slice_tallies_identical_across_engines(self):
        from repro.glitchsim import run_branch_campaign

        slice_kwargs = dict(k_values=(1, 2, 15), conditions=["eq", "vs"])
        by_engine = {"vector": run_branch_campaign("and", **slice_kwargs)}
        with snapshot_engine():
            by_engine["snapshot"] = run_branch_campaign("and", **slice_kwargs)
        with rebuild_engine():
            by_engine["rebuild"] = run_branch_campaign("and", **slice_kwargs)
        reprs = {engine: repr(result.sweeps) for engine, result in by_engine.items()}
        assert reprs["vector"] == reprs["snapshot"] == reprs["rebuild"]

    @pytest.mark.parametrize("instruction_class",
                             ["load", "store", "compare", "alu", "move"])
    def test_instruction_class_sweeps_identical(self, instruction_class):
        """The lock-step class sweep equals the per-word rebuild oracle."""
        from repro.glitchsim.instr_classes import sweep_instruction_class

        for model, k_values in (("and", None), ("xor", (1, 2))):
            batch = sweep_instruction_class(instruction_class, model, k_values)
            oracle = enumerate_class_sweep(instruction_class, model, k_values)
            assert batch == oracle, (model, k_values)


def _b(source: int, destination: int) -> int:
    """The Thumb ``b`` halfword at ``source`` that jumps to ``destination``."""
    return 0xE000 | (((destination - source - 4) >> 1) & 0x7FF)


#: loops that come back to the same PC in a different state and then leave
#: through the taken block (so the outcome is no_effect, not the limit);
#: the set-up parks r1 on a RAM word for ``count``
_LOOPS_SNIPPET = """
    mov r1, sp
    subs r1, #4
    movs r0, #1
    cmp r0, #1
target:
    beq taken
    ldr r2, =0xdead
    bkpt #0
taken:
    ldr r3, =0xaaaa
    bkpt #0
count:
    ldr r2, [r1]
    adds r2, #1
    str r2, [r1]
    cmp r2, #5
    bge taken
    movs r2, #0
    movs r4, #0
    b count
spin:
    adds r2, #1
    cmp r2, #12
    blt spin
    b taken
pad:
    movs r4, #0
    movs r4, #0
    movs r4, #0
toggle:
    bcc taken
    cmp r2, r0
    b toggle
"""


def _loops_snippet():
    from repro.glitchsim.snippets import FLASH_BASE, BranchSnippet
    from repro.isa import assemble

    program = assemble(_LOOPS_SNIPPET, base=FLASH_BASE)
    target = program.symbols["target"]
    return BranchSnippet(
        mnemonic="beq",
        program=program,
        target_address=target,
        target_word=program.halfwords[(target - FLASH_BASE) // 2],
    )


class TestEarlyExitBoundaries:
    """The straight-line and cycle exits at their edges, against snapshot.

    The beq world: the corrupted slot is 0x08000004 (62 budget steps),
    0x0800000E is a zero halfword before the ``0xdead`` literal (``udf``),
    and 0x08000016 starts the zero padding that runs 501 halfwords to the
    end of the 1 KiB flash.  A zero halfword is ``lsls r0, r0, #0`` unless
    ``zero_is_invalid``.  Each case also checks whether the vector lane was
    decided early, so a rule that stops firing cannot pass unnoticed.
    """

    TARGET = 0x0800_0004
    PAD_BEFORE_UDF = 0x0800_000E
    PADDING = 0x0800_0016
    FLASH_END = 0x0800_0400

    def _run(self, word, zero_is_invalid, *, budget=None, extra_stops=(), snippet=None):
        """(snapshot category, vector category, the lane's VectorRun)."""
        snippet = snippet or branch_snippet("eq")
        categories = []
        for harness_class in (SnapshotSnippetHarness, SnippetHarness):
            harness = harness_class(snippet, zero_is_invalid=zero_is_invalid)
            world = harness._snapshot_world()
            if budget is not None:
                world.budget = budget
            world.marker_stops = world.marker_stops | frozenset(extra_stops)
            categories.append(harness.run_many([word])[word].category)
        batch = harness._vector_engine(world).run(np.array([word]))
        return categories[0], categories[1], batch

    @pytest.mark.parametrize("zero_is_invalid", [False, True])
    @pytest.mark.parametrize(
        "destination,budget,expected",
        [
            # the padding's run (501) equals the 501 steps left after the b
            (PADDING, 502, "failed"),
            # one step more: the run ends at the end of flash within budget
            (PADDING, 503, "bad_fetch"),
            # a one-halfword sled before udf: run == steps left, then one more
            (PAD_BEFORE_UDF, 2, "failed"),
            (PAD_BEFORE_UDF, 3, "invalid_instruction"),
            # the default budget: the sled reaches udf
            (PAD_BEFORE_UDF, None, "invalid_instruction"),
            # ten halfwords before the end of flash
            (FLASH_END - 20, None, "bad_fetch"),
        ],
    )
    def test_straight_line_sleds(self, destination, budget, expected, zero_is_invalid):
        word = _b(self.TARGET, destination)
        snapshot, vector, batch = self._run(word, zero_is_invalid, budget=budget)
        assert vector == snapshot
        # under zero_is_invalid the first zero halfword already faults
        assert snapshot == ("invalid_instruction" if zero_is_invalid else expected)
        assert batch.early_exits == 1

    @pytest.mark.parametrize("zero_is_invalid", [False, True])
    @pytest.mark.parametrize(
        "budget,expected", [(None, "no_effect"), (8, "no_effect"), (7, "failed")]
    )
    def test_run_through_a_marker_stop_is_not_decided(self, budget, expected, zero_is_invalid):
        # a stop five halfwords into the padding, reached at step 6: it
        # classifies with two steps left (budget 8), but with one step left
        # (budget 7) the lane executes it and runs out of budget instead
        stop = self.PADDING + 10
        snapshot, vector, batch = self._run(
            _b(self.TARGET, self.PADDING), zero_is_invalid, budget=budget, extra_stops=(stop,)
        )
        assert vector == snapshot
        if not zero_is_invalid:
            assert snapshot == expected
            # the padding's run ends at the stop, which decides nothing
            assert batch.early_exits == 0

    @pytest.mark.parametrize("zero_is_invalid", [False, True])
    @pytest.mark.parametrize(
        "destination,steps",
        [
            # b .: snapshot at step 1, equal at step 2
            (TARGET, 2),
            # back into the movs/cmp set-up: a three-step cycle, snapshot at
            # step 4, equal at step 7
            (0x0800_0000, 7),
        ],
    )
    def test_cycles_exit_as_limit(self, destination, steps, zero_is_invalid):
        snapshot, vector, batch = self._run(_b(self.TARGET, destination), zero_is_invalid)
        assert snapshot == vector == "failed"
        assert batch.early_exits == 1
        assert batch.lane_steps == steps

    @pytest.mark.parametrize("zero_is_invalid", [False, True])
    @pytest.mark.parametrize(
        "loop",
        [
            # stores on every pass: registers and flags repeat at `b count`
            # (steps 8, 16, 24, ...), only the RAM counter moves
            "count",
            # registers differ: r2 counts while PC and flags repeat
            "spin",
            # flags differ: back at `toggle` (step 7) with the snapshot's
            # registers (step 4) but carry clear
            "pad",
        ],
    )
    def test_loops_that_leave_keep_stepping(self, loop, zero_is_invalid):
        snippet = _loops_snippet()
        word = _b(snippet.target_address, snippet.program.symbols[loop])
        snapshot, vector, batch = self._run(word, zero_is_invalid, snippet=snippet)
        assert snapshot == vector == "no_effect"
        assert batch.early_exits == 0


class TestRunManyRegressions:
    def test_results_keyed_by_original_unmasked_words(self):
        """run_many used to key results by `word & 0xFFFF`, so callers
        passing words >= 2^16 got a KeyError looking up their own input."""
        harness = SnippetHarness(branch_snippet("eq"))
        words = [0x1234, 0x1234 + (1 << 16), 0x2FFFF, 0xFFFF]
        results = harness.run_many(words)
        assert set(results) == set(words)
        # aliases after masking agree with each other and with run()
        assert results[0x1234].category == results[0x1234 + (1 << 16)].category
        assert results[0x2FFFF].category == results[0xFFFF].category
        for word in words:
            assert results[word].category == harness.run(word).category

    def test_duplicates_preserved_and_single_execution(self):
        harness = SnippetHarness(branch_snippet("eq"))
        results = harness.run_many([7, 7, 7])
        assert set(results) == {7}
        assert harness.words_executed == 1

    @pytest.mark.parametrize("engine", ["snapshot", "vector"])
    def test_mid_batch_crash_flushes_fresh_results(self, tmp_path, engine, monkeypatch):
        """An exception partway through a batch used to discard every
        already-classified entry; now `fresh` flushes in a finally."""
        cache = OutcomeCache(tmp_path / "cache")
        harness_class = SnippetHarness if engine == "vector" else SnapshotSnippetHarness
        harness = harness_class(branch_snippet("eq"), disk_cache=cache)
        if engine == "vector":
            # crash inside the batch executor, after classification started
            real_batch = harness._execute_vector_batch

            def exploding_batch(pending):
                real_batch(pending)
                raise RuntimeError("simulated unit-timeout kill")

            monkeypatch.setattr(harness, "_execute_vector_batch", exploding_batch)
        else:
            real_execute = harness._execute
            budget = iter(range(3))

            def exploding_execute(word):
                next(budget)  # 3 words classify, then the crash
                return real_execute(word)

            monkeypatch.setattr(harness, "_execute", exploding_execute)
        with pytest.raises((RuntimeError, StopIteration)):
            harness.run_many(range(64))
        shard = cache.get_shard_codes(harness.world_digest())
        cached = np.nonzero(shard)[0]
        assert cached.size > 0  # paid-for work survived the crash
        # and it is valid: a fresh harness serves those words from disk
        fresh = harness_class(branch_snippet("eq"), disk_cache=cache)
        word = int(cached[0])
        assert fresh.run(word).category == CODE_CATEGORIES[shard[word]]
        assert cache.hits == 1

    def test_memo_hits_counted_on_run_and_run_many(self, tmp_path):
        cache = OutcomeCache(tmp_path / "cache")
        harness = SnippetHarness(branch_snippet("eq"), disk_cache=cache)
        harness.run(5)
        assert cache.memo_hits == 0
        harness.run(5)
        assert cache.memo_hits == 1
        harness.run_many([5, 5, 6])
        # word 5 memo-resolves, plus one in-batch duplicate
        assert cache.memo_hits == 3
        assert cache.misses == 2  # words 5 and 6 each missed disk once


class TestVectorObservability:
    def test_vector_counters(self):
        obs = Observer()
        harness = SnippetHarness(branch_snippet("ne"))
        words = range(256)
        with activate(obs):
            harness.run_many(words)
        assert obs.counters["vector.batches"] == 1
        assert obs.counters["vector.lanes"] == 256
        assert harness.words_executed == 256

    def test_lane_step_and_early_exit_counters(self):
        # every forward b: some land in the zero padding and are decided there
        obs = Observer()
        harness = SnippetHarness(branch_snippet("ne"))
        with activate(obs):
            harness.run_many(range(0xE000, 0xE400))
        world = harness._snapshot_world()
        batch = harness._vector_engine(world).run(np.arange(0xE000, 0xE400))
        assert obs.counters["vector.lane_steps"] == batch.lane_steps
        assert obs.counters["vector.early_exits"] == batch.early_exits
        assert obs.counters["vector.survivors"] == batch.survivors.size
        assert 0 < batch.early_exits <= 1024
        assert batch.lane_steps >= 1024  # every lane fetches its own word

    def test_memoised_rerun_spawns_no_batch(self):
        obs = Observer()
        harness = SnippetHarness(branch_snippet("ne"))
        harness.run_many(range(64))
        with activate(obs):
            harness.run_many(range(64))
        assert "vector.batches" not in obs.counters

    def test_scalar_engines_emit_no_vector_counters(self):
        """Batches on the snapshot replay and both rebuild oracles stay scalar."""
        image = load_image(DEMO_HEX)
        snippet = branch_snippet("ne")
        for harness in (
            SnapshotSnippetHarness(snippet),
            RebuildSnippetHarness(snippet),
            RebuildSiteHarness(image, discover_sites(image)[0]),
        ):
            obs = Observer()
            with activate(obs):
                harness.run_many(range(64))
            assert harness.words_executed == 64, type(harness).__name__
            assert not any(name.startswith("vector.") for name in obs.counters), (
                type(harness).__name__
            )


#: operand-table opcodes whose lanes store to RAM
_STORING_OPS = (V.OP_STORE, V.OP_PUSH, V.OP_STMIA)


def _storing_words(engine) -> np.ndarray:
    return np.flatnonzero(np.isin(engine.table.op, _STORING_OPS))


def _scalar_cpu(engine, word: int):
    """A scalar CPU in the engine's decode mode, paused at its replay point
    with ``word`` at the target slot, and its memory."""
    flash = bytearray(engine.flash8.astype(np.uint8).tobytes())
    slot = engine.target_address - engine.flash_base
    flash[slot:slot + 2] = word.to_bytes(2, "little")
    memory = Memory()
    memory.map("flash", engine.flash_base, len(flash), writable=False, executable=True)
    memory.map("ram", engine.ram_base, engine.ram_size)
    memory.load(engine.flash_base, bytes(flash))
    memory.load(engine.ram_base, engine.base_ram.tobytes())
    cpu = CPU(memory, zero_is_invalid=engine.table is V.operand_table(True))
    cpu.regs = list(engine.init_regs)
    cpu.flags = engine.init_flags
    return cpu, memory


def _scalar_lane(engine, word: int) -> tuple:
    """``(reason, registers, RAM bytes)`` of ``word`` replayed on the scalar
    CPU from the engine's replay point, with the harnesses' stop rule."""
    cpu, memory = _scalar_cpu(engine, word)
    result = cpu.run(engine.budget, stop_addresses=engine.stops)
    if result.reason == "stop_addr" and engine.budget - result.steps < 2:
        result = cpu.run(engine.budget - result.steps)
    return result.reason, list(cpu.regs), bytes(memory.region_at(engine.ram_base).data)


def _scalar_states(engine, word: int) -> list[list[int]]:
    """The registers of ``word``'s scalar replay before its first step and
    after each step, until it halts, faults or spends the budget (marker
    stops ignored).  A faulting step commits nothing but its PC, as the
    vector engine keeps a faulted lane, so its state is the registers
    before it with the PC the fault left."""
    cpu, _ = _scalar_cpu(engine, word)
    states = [list(cpu.regs)]
    for _ in range(engine.budget):
        if cpu.halted:
            break
        before = list(cpu.regs)
        try:
            cpu.step()
        except EmulationFault:
            states.append(before[:15] + [cpu.regs[15]])
            break
        states.append(list(cpu.regs))
    return states


def _lane_ram(run, lane: int, size: int) -> bytes:
    """One lane's whole RAM image, read through the run's block layout."""
    pages = run.pages[run.block_map[run.lane_row[lane]]]
    return pages.reshape(-1)[:size].tobytes()


def _check_lanes_against_scalar(engine, words) -> tuple:
    """Replay every halted or stopped lane on the scalar CPU and compare its
    registers, its whole RAM image and (via ``read_ram_u32``) every word it
    changed; returns ``(run, lanes checked, checked lanes that stored)``."""
    words = np.asarray(words)
    run = engine.run(words)
    pristine = engine.base_ram.tobytes()
    ended = np.flatnonzero(np.isin(run.status, (ST_HALTED, ST_STOPPED))).tolist()
    stored: dict[int, dict[int, int]] = {}
    for lane in ended:
        word = int(words[lane])
        reason, regs, ram = _scalar_lane(engine, word)
        assert reason == ("halted" if run.status[lane] == ST_HALTED else "stop_addr"), hex(word)
        assert run.regs[:, lane].tolist() == regs, hex(word)
        assert _lane_ram(run, lane, engine.ram_size) == ram, hex(word)
        changed = {
            off: int.from_bytes(ram[off:off + 4], "little")
            for off in range(0, engine.ram_size, 4)
            if ram[off:off + 4] != pristine[off:off + 4]
        }
        if changed:
            stored[lane] = changed
    for off in sorted({off for changed in stored.values() for off in changed}):
        seen = run.read_ram_u32(engine.ram_base + off)
        for lane, changed in stored.items():
            if off in changed:
                assert int(seen[lane]) == changed[off], (hex(int(words[lane])), off)
    return run, len(ended), int(np.count_nonzero(run.lane_row[ended]))


def _class_world(instruction_class: str):
    """The engine of one instruction-class world."""
    from repro.glitchsim.instr_classes import _CLASS_CASES, FLASH_BASE, _class_engine
    from repro.isa import assemble

    source, judge_kind = _CLASS_CASES[instruction_class]
    program = assemble(source, base=FLASH_BASE)
    index = (program.symbols["target"] - FLASH_BASE) // 2
    return _class_engine(program.halfwords, index, judge_kind)


#: registers point into RAM blocks 1 (r1) and 15 (r2, and the stack top)
_BLOCKS_WORLD = """
    ldr r0, =0x11223344
    ldr r1, =0x20000100
    ldr r2, =0x20000f00
    ldr r3, =0x55667788
target:
    nop
    bkpt #0
"""


class TestLaneRam:
    """Copy-on-write lane RAM against the scalar CPU, lane by lane."""

    @pytest.mark.parametrize("instruction_class",
                             ["load", "store", "compare", "alu", "move"])
    def test_instruction_class_storing_lanes_match_scalar(self, instruction_class):
        engine = _class_world(instruction_class)
        _, checked, stored = _check_lanes_against_scalar(engine, _storing_words(engine))
        assert checked and stored

    def test_beq_storing_lanes_match_scalar(self):
        harness = SnippetHarness(branch_snippet("eq"))
        engine = harness._vector_engine(harness._snapshot_world())
        _, checked, stored = _check_lanes_against_scalar(engine, _storing_words(engine))
        # the 511 push lanes store, then stop at the fall-through marker
        assert checked >= stored >= 511

    def test_lanes_copy_only_the_blocks_they_write(self):
        from repro.glitchsim.instr_classes import FLASH_BASE, _class_engine
        from repro.isa import assemble

        program = assemble(_BLOCKS_WORLD, base=FLASH_BASE)
        index = (program.symbols["target"] - FLASH_BASE) // 2
        engine = _class_engine(program.halfwords, index, "blocks")
        cases = {
            "str r0, [r1]": {1},  # two lanes storing to different blocks
            "str r0, [r2]": {15},
            "stmia r1!, {r0, r3}": {1},  # one lane storing twice into one block
            "push {r0, r3}": {15},
        }
        words = [assemble(line).halfwords[0] for line in cases]
        run, checked, stored = _check_lanes_against_scalar(
            engine, np.concatenate([words, _storing_words(engine)])
        )
        assert checked >= stored >= len(cases)
        private_pages = []
        for lane, blocks in enumerate(cases.values()):
            row = run.block_map[run.lane_row[lane]].tolist()
            private = {block: page for block, page in enumerate(row) if page >= engine.blocks}
            assert set(private) == blocks
            private_pages.extend(private.values())
        assert len(set(private_pages)) == len(private_pages)  # no page is shared
        stmia = list(cases).index("stmia r1!, {r0, r3}")
        assert run.read_ram_u32(0x2000_0100)[stmia] == 0x11223344
        assert run.read_ram_u32(0x2000_0104)[stmia] == 0x55667788
        # the shared image itself is never written
        shared = run.pages[:engine.blocks].reshape(-1)[:engine.ram_size]
        assert shared.tobytes() == engine.base_ram.tobytes()


#: no marker stop after the target: a lane that lowered SP at step 0 (a
#: push, a sub sp) runs on and reads the stack back; with SP still at the
#: top of RAM the reader faults
_STACK_WORLD = """
    ldr r0, =0x11223344
    ldr r1, =0x20000100
    ldr r3, =0x55667788
target:
    nop
    {reader}
    bkpt #0
"""


class TestStepZeroStores:
    """Step 0 logs its stores: the lanes still running after step 1 get
    theirs replayed into their own RAM, the rest when a caller reads RAM."""

    @pytest.mark.parametrize("reader", ["pop {r4}", "ldr r4, [sp]"])
    def test_surviving_stores_match_scalar(self, reader):
        from repro.glitchsim.instr_classes import FLASH_BASE, _class_engine
        from repro.isa import assemble

        program = assemble(_STACK_WORLD.format(reader=reader), base=FLASH_BASE)
        index = (program.symbols["target"] - FLASH_BASE) // 2
        engine = _class_engine(program.halfwords, index, "stack")
        run, checked, stored = _check_lanes_against_scalar(engine, np.arange(1 << 16))
        pushes = np.flatnonzero((engine.table.op == V.OP_PUSH)
                                & (run.status == ST_HALTED))
        # every push lane reads its own store back, then halts
        assert pushes.size == 511 and checked >= stored >= 511
        assert np.isin(pushes, run.survivors).all()
        assert run.private_pages >= 511  # copied while the batch ran
        assert (run.reg(4)[pushes] == run.reg(0)[pushes]).any()

    def test_retired_stores_are_applied_on_first_ram_access(self):
        harness = SnippetHarness(branch_snippet("eq"))
        engine = harness._vector_engine(harness._snapshot_world())
        run = engine.run(np.arange(1 << 16))
        # the push lanes stop at the fall-through marker at step 1
        assert run.private_pages == 0 and run.retired_stores
        pushes = np.flatnonzero(engine.table.op == V.OP_PUSH)
        assert (run.lane_row[pushes] > 0).all()
        assert not run.retired_stores
        assert run.pages.shape[0] - engine.blocks >= pushes.size


#: the target, then loads of the target halfword by survivors: a word
#: through r3 (the target's aligned word) and its high byte through r2
_EDGE_WORLD = """
    nop
    nop
target:
    nop
    ldr r5, [r3]
    ldrb r6, [r2, #1]
    bkpt #0
"""


def _edge_layouts(flash_base: int, flash_end: int, target: int,
                  ram_base: int, ram_end: int) -> dict[str, dict[int, int]]:
    """Snapshot registers r0-r7 and SP per layout: load, pop and ldmia
    bases at the flash end, at the RAM end and off alignment.  r2 and r3
    always address the target halfword for the survivors' loads."""
    word_end = flash_end & ~3  # the last whole flash word ends here
    covering = {2: target, 3: target & ~3}
    return {
        "flash-end": {0: word_end - 4, 1: flash_end - 2, 4: word_end - 8,
                      5: flash_base - 4, 6: flash_end - 1, 7: target + 1,
                      SP: word_end - 4, **covering},
        "ram-end": {0: ram_end - 4, 1: ram_end - 2, 4: ram_end - 8, 5: ram_base,
                    6: ram_base - 4, 7: ram_end - 1, SP: ram_end - 8, **covering},
        "unaligned": {0: ram_base + 2, 1: ram_base + 1, 4: word_end - 2,
                      5: ram_end - 6, 6: flash_base + 1, 7: target - 1,
                      SP: ram_end - 6, **covering},
    }


def _scalar_status(engine, word: int) -> int:
    """The ``ST_*`` status ``word``'s scalar replay ends in (no marker stops)."""
    from repro.errors import AlignmentFault, BadFetch, BadRead, BadWrite, InvalidInstruction

    cpu, _ = _scalar_cpu(engine, word)
    try:
        result = cpu.run(engine.budget)
    except (BadRead, BadWrite, AlignmentFault):
        return V.ST_BAD_READ
    except InvalidInstruction:
        return V.ST_INVALID
    except BadFetch:
        return V.ST_BAD_FETCH
    except EmulationFault:
        return V.ST_FAILED
    return ST_HALTED if result.reason == "halted" else ST_LIMIT


class TestRegionEdges:
    """Word-view loads and the closed-form list check at region edges:
    every load, pop and ldmia word against the scalar CPU."""

    @pytest.mark.parametrize("layout, flash_base", [
        ("flash-end", 0x0800_0000), ("flash-end", 0x0800_0002),
        ("ram-end", 0x0800_0000), ("unaligned", 0x0800_0002),
    ], ids=["flash-end-word", "flash-end-halfword", "ram-end-word", "unaligned-halfword"])
    def test_loads_match_scalar(self, layout, flash_base):
        from repro.bits import halfwords_to_bytes
        from repro.isa import assemble

        program = assemble(_EDGE_WORLD, base=flash_base)
        target = program.symbols["target"]
        # a flash image of 2 mod 4 bytes, distinct words past the program
        halfwords = list(program.halfwords) + [0x1357 * (i + 1) & 0xFFFF for i in range(9)]
        flash = halfwords_to_bytes(halfwords)
        ram_base, ram = 0x2000_0000, bytes(range(256)) * 2
        flash_end, ram_end = flash_base + len(flash), ram_base + len(ram)
        regs = [0] * 16
        for register, value in _edge_layouts(flash_base, flash_end, target,
                                             ram_base, ram_end)[layout].items():
            regs[register] = value
        regs[15] = target
        engine = V.VectorEngine(
            flash_base=flash_base, flash_bytes=flash, target_address=target,
            ram_base=ram_base, ram_bytes=ram, init_regs=regs,
            init_flags=Flags(False, False, False, False), budget=4,
            zero_is_invalid=False,
        )
        words = np.flatnonzero(np.isin(engine.table.op, (V.OP_LOAD, V.OP_POP, V.OP_LDMIA)))
        run = engine.run(words)
        for lane, word in enumerate(words.tolist()):
            status = int(run.status[lane])
            assert status == _scalar_status(engine, word), hex(word)
            registers = run.regs[:, lane].tolist()
            states = _scalar_states(engine, word)
            if status == ST_LIMIT:  # possibly decided where its replay passes
                assert registers in states, hex(word)
            else:
                assert registers == states[-1], hex(word)
        assert V.ST_BAD_READ in run.status
        # survivors read the lane's own word back through r3 and r2 + 1
        halted = np.flatnonzero(run.status == ST_HALTED)
        own = words[halted]
        read_back = ((run.reg(5)[halted] >> 8 * (target & 3)) & 0xFFFF == own) & (
            run.reg(6)[halted] == own >> 8
        )
        assert read_back.sum() >= 100

    def test_touching_regions_and_unaligned_ram_are_rejected(self):
        harness = SnippetHarness(branch_snippet("eq"))
        engine = harness._vector_engine(harness._snapshot_world())
        flash = engine.flash8.astype(np.uint8).tobytes()
        kwargs = dict(
            flash_base=engine.flash_base, flash_bytes=flash,
            target_address=engine.target_address, ram_bytes=engine.base_ram.tobytes(),
            init_regs=engine.init_regs, init_flags=engine.init_flags,
            budget=engine.budget, zero_is_invalid=False,
        )
        V.VectorEngine(ram_base=engine.ram_base, **kwargs)
        with pytest.raises(ValueError, match="word-aligned"):
            V.VectorEngine(ram_base=engine.ram_base + 2, **kwargs)
        for ram_base in (engine.flash_end, engine.flash_base - engine.ram_size):
            with pytest.raises(ValueError, match="touch"):
                V.VectorEngine(ram_base=ram_base, **kwargs)


def _self_branch_site():
    from repro.firmware.image import FirmwareImage
    from repro.isa import assemble

    program = assemble("""
        movs r0, #0
    spin:
        beq spin
        bkpt #0
    """, base=0x0800_0000)
    image = FirmwareImage.from_program(program)
    (site,) = discover_sites(image)
    assert site.taken == site.address
    return image, site


class TestFirstStep:
    """Step 0's scalar checks at their edges, against the snapshot oracle."""

    @staticmethod
    def _categories(harness_class, *args, budget=None):
        harness = harness_class(*args)
        if budget is not None:
            harness._snapshot_world().budget = budget
        return harness.run_many_codes(range(1 << 16))[1]

    @pytest.mark.parametrize("budget", [None, 2, 1])
    def test_target_that_is_a_marker_stop(self, budget):
        # with two budget steps every lane stops before its fetch; with one
        # the stop cannot classify and each lane runs its word
        image, site = _self_branch_site()
        vector = self._categories(SiteHarness, image, site, budget=budget)
        snapshot = self._categories(SnapshotSiteHarness, image, site, budget=budget)
        assert (vector == snapshot).all()
        all_no_effect = bool((vector == CATEGORY_CODES["no_effect"]).all())
        assert all_no_effect == (budget != 1)

    @pytest.mark.parametrize("zero_is_invalid", [False, True])
    def test_budget_one_world(self, zero_is_invalid):
        snippet = branch_snippet("eq")
        vector = self._categories(SnippetHarness, snippet, zero_is_invalid, budget=1)
        snapshot = self._categories(SnapshotSnippetHarness, snippet, zero_is_invalid, budget=1)
        assert (vector == snapshot).all()

    def test_replay_point_must_be_paused_at_the_target(self):
        harness = SnippetHarness(branch_snippet("eq"))
        engine = harness._vector_engine(harness._snapshot_world())
        kwargs = dict(
            flash_base=engine.flash_base,
            flash_bytes=engine.flash8.astype(np.uint8).tobytes(),
            target_address=engine.target_address,
            ram_base=engine.ram_base,
            ram_bytes=engine.base_ram.tobytes(),
            init_regs=engine.init_regs,
            init_flags=engine.init_flags,
            budget=engine.budget,
            zero_is_invalid=False,
        )
        V.VectorEngine(**kwargs)
        regs = list(engine.init_regs)
        regs[15] += 2
        with pytest.raises(ValueError, match="PC"):
            V.VectorEngine(**{**kwargs, "init_regs": regs})
        outside = engine.flash_base + engine.flash8.size
        regs[15] = outside
        with pytest.raises(ValueError, match="flash halfword"):
            V.VectorEngine(**{**kwargs, "init_regs": regs, "target_address": outside})


def _engine_with_suffix(zero_is_invalid: bool, bl_suffix: bool):
    """The beq world's engine in one decode mode; with ``bl_suffix`` the
    halfword after the target is made a BL suffix, so a BL prefix at the
    target completes instead of faulting."""
    harness = SnippetHarness(branch_snippet("eq"), zero_is_invalid=zero_is_invalid)
    engine = harness._vector_engine(harness._snapshot_world())
    if not bl_suffix:
        return engine
    flash = bytearray(engine.flash8.astype(np.uint8).tobytes())
    after = engine.target_address + 2 - engine.flash_base
    flash[after:after + 2] = (0xF800 | 0x010).to_bytes(2, "little")
    return V.VectorEngine(
        flash_base=engine.flash_base,
        flash_bytes=bytes(flash),
        target_address=engine.target_address,
        ram_base=engine.ram_base,
        ram_bytes=engine.base_ram.tobytes(),
        init_regs=engine.init_regs,
        init_flags=engine.init_flags,
        budget=engine.budget,
        zero_is_invalid=zero_is_invalid,
        marker_stops=engine.stops,
    )


class TestStepZeroPlan:
    """A batch of the whole word space takes step 0 from its operand
    table's plan; any other batch builds its own with the same routine."""

    @pytest.mark.parametrize("bl_suffix", [False, True], ids=["no-suffix", "bl-suffix"])
    @pytest.mark.parametrize("zero_is_invalid", [False, True], ids=["base", "hardened"])
    def test_full_space_batch_equals_partial_batches(self, zero_is_invalid, bl_suffix):
        engine = _engine_with_suffix(zero_is_invalid, bl_suffix)
        assert bool(engine.first_suffix) == bl_suffix
        words = np.arange(1 << 16)
        full = engine.run(words)
        assert full.planned
        # four partial batches, one of them in descending word order
        chunks = np.split(words, 4)
        chunks[1] = chunks[1][::-1]
        parts = [engine.run(chunk) for chunk in chunks]
        assert not any(part.planned for part in parts)
        # every word, but not lane i = word i: planned by its own words
        backwards = engine.run(words[::-1])
        assert not backwards.planned
        np.testing.assert_array_equal(full.status[::-1], backwards.status)
        np.testing.assert_array_equal(full.regs[:, ::-1], backwards.regs)
        lanes = np.concatenate(chunks)
        np.testing.assert_array_equal(full.status[lanes], np.concatenate([p.status for p in parts]))
        np.testing.assert_array_equal(full.stop_pc[lanes],
                                      np.concatenate([p.stop_pc for p in parts]))
        np.testing.assert_array_equal(full.regs[:, lanes],
                                      np.concatenate([p.regs for p in parts], axis=1))
        assert full.lane_steps == sum(p.lane_steps for p in parts)
        assert full.early_exits == sum(p.early_exits for p in parts)
        # every RAM word in a block any lane wrote, as each lane sees it
        written = {
            block
            for run in (full, *parts)
            for block in np.flatnonzero((run.block_map >= engine.blocks).any(axis=0)).tolist()
        }
        assert written  # the push lanes store
        for block in sorted(written):
            for off in range(block * V.RAM_BLOCK, (block + 1) * V.RAM_BLOCK, 4):
                address = engine.ram_base + off
                np.testing.assert_array_equal(
                    full.read_ram_u32(address)[lanes],
                    np.concatenate([p.read_ram_u32(address) for p in parts]),
                )
        # with a suffix the BL prefixes at the target run, without one they fault
        prefixes = np.flatnonzero(engine.table.op == V.OP_BL_PREFIX)
        assert (full.status[prefixes] == V.ST_INVALID).all() != bl_suffix

    def test_plan_arrays_are_read_only(self):
        plan = V.operand_table(False).step_zero_plan()
        arrays = plan.arrays()
        assert len(arrays) > len(plan.groups)  # the invalid lanes and every group's lanes
        for array in arrays:
            assert array.dtype != np.int32  # lane indices stay int64
            with pytest.raises(ValueError):
                array[...] = 0

    def test_full_space_batch_counts_as_planned(self):
        obs = Observer()
        harness = SnippetHarness(branch_snippet("ne"))
        with activate(obs):
            harness.run_many(range(1 << 16))
            SnippetHarness(branch_snippet("eq")).run_many(range(1 << 15))
        assert obs.counters["vector.batches"] == 2
        assert obs.counters["vector.planned_batches"] == 1


class TestLaneRegisters:
    """A batch holds no dense register file: a lane that retired by step 1
    holds the snapshot's registers and step 0's writes, and a lane still
    running after step 1 (a survivor) its column of a compact file."""

    @pytest.mark.parametrize("zero_is_invalid", [False, True], ids=["base", "hardened"])
    def test_full_space_registers_match_scalar(self, zero_is_invalid):
        """Every survivor, and one lane per step-0 (opcode, aux) group and
        status it ends in, against the scalar CPU."""
        engine = _engine_with_suffix(zero_is_invalid, bl_suffix=False)
        words = np.arange(1 << 16)
        run = engine.run(words)
        survivors = set(run.survivors.tolist())
        assert survivors and len(survivors) < 100
        lanes = set(survivors)
        plan = engine.table.step_zero_plan()
        for group_lanes in [plan.invalid] + [group.lanes for group in plan.groups]:
            _, first = np.unique(run.status[group_lanes], return_index=True)
            lanes.update(group_lanes[first].tolist())
        for lane in sorted(lanes):
            word, status = int(words[lane]), int(run.status[lane])
            registers = run.regs[:, lane].tolist()
            assert registers == [int(run.reg(r)[lane]) for r in range(16)], hex(word)
            if status in (ST_HALTED, ST_STOPPED):
                assert registers == _scalar_lane(engine, word)[1], hex(word)
                continue
            states = _scalar_states(engine, word)
            if lane not in survivors:  # retired by step 1: as after step 0
                assert registers == states[1], hex(word)
            elif status == ST_LIMIT:  # decided where its scalar replay passes
                assert registers in states, hex(word)
            else:  # a fault after step 1
                assert registers == states[-1], hex(word)

    @pytest.mark.slow
    @pytest.mark.parametrize("zero_is_invalid", [False, True], ids=["base", "hardened"])
    def test_full_space_stopped_and_halted_lanes_match_scalar(self, zero_is_invalid):
        engine = _engine_with_suffix(zero_is_invalid, bl_suffix=False)
        run = engine.run(np.arange(1 << 16))
        ended = np.flatnonzero(np.isin(run.status, (ST_HALTED, ST_STOPPED)))
        assert ended.size > 10_000
        for word in ended.tolist():  # lane i holds word i
            assert run.regs[:, word].tolist() == _scalar_lane(engine, word)[1], hex(word)

    def test_full_space_batch_peak_memory(self):
        """One full-space batch stays within 4 MiB of Python allocations
        (a dense (16, 65536) int64 register file alone is 8 MiB)."""
        engine = _engine_with_suffix(False, bl_suffix=False)
        words = np.arange(1 << 16)
        engine.run(words)  # builds the table's step-0 plan, once per process
        tracemalloc.start()
        try:
            engine.run(words)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 << 20, peak
