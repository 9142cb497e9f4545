"""Snapshot-engine semantics: restore fidelity and fast/slow-path equivalence.

Three layers of guarantees, mirroring ``docs/ARCHITECTURE.md``:

1. ``Memory.snapshot``/``restore`` rewind every write issued through the
   Memory interface and drop post-snapshot regions (property-tested over
   arbitrary write/load/map sequences);
2. ``CPU.snapshot``/``reset_from`` and ``PipelinedCPU.snapshot_state``/
   ``restore_state`` round-trip the architectural and micro-architectural
   state so a restored machine replays the exact same trajectory;
3. the engines built on top — the harness ``snapshot`` engine and the
   glitcher boot records — produce tallies *and* observability counters
   bit-identical to the from-scratch slow paths (for the harness, the
   per-word rebuild oracle in tests/oracles.py).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.emu import CPU, Memory, MemoryRegion, PAGE_SIZE
from repro.isa.conditions import Flags

RAM_BASE = 0x2000_0000
RAM_SIZE = 8 * PAGE_SIZE
FLASH_BASE = 0x0800_0000
FLASH_SIZE = 4 * PAGE_SIZE
EXTRA_BASE = 0x4000_0000


def _build_memory() -> Memory:
    memory = Memory()
    memory.map("flash", FLASH_BASE, FLASH_SIZE, writable=False, executable=True)
    memory.map("ram", RAM_BASE, RAM_SIZE)
    memory.load(FLASH_BASE, bytes(range(256)) * (FLASH_SIZE // 256))
    memory.write(RAM_BASE, b"\xa5" * RAM_SIZE)
    return memory


# one post-snapshot mutation: a RAM write, a flash load (bypasses write
# permissions, still journaled), or mapping + dirtying a fresh region
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, RAM_SIZE - 8),
                  st.binary(min_size=1, max_size=8)),
        st.tuples(st.just("load"), st.integers(0, FLASH_SIZE - 8),
                  st.binary(min_size=1, max_size=8)),
        st.tuples(st.just("map"), st.integers(0, PAGE_SIZE - 4),
                  st.binary(min_size=1, max_size=4)),
    ),
    max_size=20,
)


class TestMemorySnapshot:
    @settings(max_examples=60, deadline=None)
    @given(ops=_ops)
    def test_restore_is_byte_identical(self, ops):
        """Any interface-level mutation sequence is fully undone by restore."""
        memory = _build_memory()
        before = {region.name: bytes(region.data) for region in memory.regions}
        regions_before = list(memory.regions)
        snapshot = memory.snapshot()
        mapped = 0
        for kind, offset, payload in ops:
            if kind == "write":
                memory.write(RAM_BASE + offset, payload)
            elif kind == "load":
                memory.load(FLASH_BASE + offset, payload)
            else:
                base = EXTRA_BASE + mapped * 0x1000
                mapped += 1
                memory.map(f"extra{mapped}", base, PAGE_SIZE)
                memory.write(base + offset, payload)
        memory.restore(snapshot)
        assert memory.regions == regions_before
        for region in memory.regions:
            assert bytes(region.data) == before[region.name]

    def test_restore_replays_repeatedly(self):
        """The journal re-arms after restore — the campaign replay loop."""
        memory = _build_memory()
        pristine = bytes(memory.region_at(RAM_BASE).data)
        snapshot = memory.snapshot()
        for round_number in range(3):
            memory.write(RAM_BASE + 4 * round_number, b"\xde\xad\xbe\xef")
            memory.restore(snapshot)
            assert bytes(memory.region_at(RAM_BASE).data) == pristine

    def test_stale_snapshot_rejected(self):
        memory = _build_memory()
        old = memory.snapshot()
        memory.snapshot()
        with pytest.raises(ValueError, match="stale"):
            memory.restore(old)

    def test_foreign_snapshot_rejected(self):
        with pytest.raises(ValueError):
            _build_memory().restore(_build_memory().snapshot())

    def test_dirtied_regions_tracks_interface_writes(self):
        memory = _build_memory()
        snapshot = memory.snapshot()
        assert memory.dirtied_regions() == []
        memory.write(RAM_BASE, b"\x01")
        assert [region.name for region in memory.dirtied_regions()] == ["ram"]
        memory.restore(snapshot)
        assert memory.dirtied_regions() == []

    def test_direct_region_mutation_bypasses_journal(self):
        """The documented caveat: poking region.data is invisible to restore."""
        memory = _build_memory()
        snapshot = memory.snapshot()
        region = memory.region_at(RAM_BASE)
        region.data[0] = 0x7F
        memory.restore(snapshot)
        assert region.data[0] == 0x7F


class TestCPUSnapshot:
    def _cpu(self) -> CPU:
        memory = Memory()
        memory.map("ram", RAM_BASE, RAM_SIZE)
        return CPU(memory)

    def test_roundtrip(self):
        cpu = self._cpu()
        cpu.regs[0] = 42
        cpu.regs[13] = RAM_BASE + RAM_SIZE
        cpu.flags = Flags(n=True, z=False, c=True, v=False)
        cpu.instruction_count = 7
        snapshot = cpu.snapshot()
        cpu.regs[0] = 0xDEAD
        cpu.flags = Flags(n=False, z=True, c=False, v=True)
        cpu.halted = True
        cpu.instruction_count = 99
        cpu.reset_from(snapshot)
        assert cpu.regs[0] == 42
        assert cpu.regs[13] == RAM_BASE + RAM_SIZE
        assert cpu.flags == Flags(n=True, z=False, c=True, v=False)
        assert cpu.halted is False
        assert cpu.instruction_count == 7

    def test_reset_from_keeps_decode_cache_and_memory(self):
        """reset_from rewinds architectural state only — caches/wiring stay."""
        cpu = self._cpu()
        memory = cpu.memory
        cpu.decode_cache = {0x4770: "sentinel"}
        snapshot = cpu.snapshot()
        cpu.regs[1] = 5
        cpu.reset_from(snapshot)
        assert cpu.decode_cache == {0x4770: "sentinel"}
        assert cpu.memory is memory

    def test_snapshot_is_immutable_view(self):
        cpu = self._cpu()
        cpu.regs[2] = 1
        snapshot = cpu.snapshot()
        cpu.regs[2] = 2
        assert snapshot.regs[2] == 1


class TestPipelineSnapshot:
    def test_restored_pipeline_replays_identical_trajectory(self):
        from repro.firmware.loops import build_guard_firmware
        from repro.hw.mcu import Board

        board = Board(build_guard_firmware("not_a", "single"))
        pipeline = board.pipeline
        for _ in range(20):
            pipeline.step_cycle()
        memory_snapshot = board.cpu.memory.snapshot()
        state = pipeline.snapshot_state()

        def trajectory(steps):
            points = []
            for _ in range(steps):
                pipeline.step_cycle()
                points.append((
                    pipeline.cycles, pipeline.fetch_address, pipeline.retired,
                    tuple(board.cpu.regs), board.cpu.flags,
                ))
            return points

        first = trajectory(40)
        board.cpu.memory.restore(memory_snapshot)
        pipeline.restore_state(state)
        second = trajectory(40)
        assert first == second


class TestHarnessEngineEquivalence:
    def _words(self, snippet):
        # a strided sample plus the interesting corners: the pristine word,
        # all-zero/all-one corruptions, and BL-prefix encodings that pull
        # the next halfword into the decode
        words = set(range(0, 0x10000, 251))
        words.update({0x0000, 0xFFFF, snippet.target_word,
                      0xF000, 0xF400, 0xF7FF, 0xDE00})
        return sorted(words)

    @pytest.mark.parametrize("condition,zero_is_invalid",
                             [("eq", False), ("vs", False), ("eq", True)])
    def test_engines_agree_per_word(self, condition, zero_is_invalid):
        from repro.glitchsim.snippets import branch_snippet
        from tests.oracles import RebuildSnippetHarness, SnapshotSnippetHarness

        snippet = branch_snippet(condition)
        fast = SnapshotSnippetHarness(snippet, zero_is_invalid=zero_is_invalid)
        slow = RebuildSnippetHarness(snippet, zero_is_invalid=zero_is_invalid)
        for word in self._words(snippet):
            fast_outcome = fast.run(word)
            slow_outcome = slow.run(word)
            assert (fast_outcome.category, fast_outcome.detail) == \
                (slow_outcome.category, slow_outcome.detail), hex(word)

    def test_missing_replay_point_raises(self):
        """A snippet whose setup prefix never reaches the target has no
        replay point; the harness says so instead of falling back."""
        from dataclasses import replace

        from repro.glitchsim.harness import SnippetHarness
        from repro.glitchsim.snippets import branch_snippet

        snippet = branch_snippet("eq")
        # past both marker blocks: the prefix halts before reaching it
        unreachable = replace(snippet, target_address=snippet.target_address + 0x100)
        with pytest.raises(ValueError, match="beq.*replay point"):
            SnippetHarness(unreachable).run(0)

    def test_fig2_slice_identical_tallies_and_counters(self):
        """Engine choice is invisible to tallies AND to the obs layer."""
        from repro.glitchsim.campaign import run_branch_campaign
        from repro.obs import Observer
        from tests.oracles import rebuild_engine, snapshot_engine

        outcomes = {}
        for engine, harnesses in (("snapshot", snapshot_engine()),
                                  ("rebuild", rebuild_engine())):
            obs = Observer()
            with harnesses:
                result = run_branch_campaign(
                    "and", k_values=(0, 1, 2), conditions=["eq", "ge"], obs=obs,
                )
            outcomes[engine] = (result, dict(obs.counters))
        snap_result, snap_counters = outcomes["snapshot"]
        slow_result, slow_counters = outcomes["rebuild"]
        for fast_sweep, slow_sweep in zip(snap_result.sweeps, slow_result.sweeps):
            assert fast_sweep.mnemonic == slow_sweep.mnemonic
            assert fast_sweep.by_k == slow_sweep.by_k
        assert snap_counters == slow_counters

    def test_fig2_slice_serial_parallel_resume_identical(self, tmp_path):
        """The snapshot replay preserves the serial/parallel/resume invariants.

        Forked workers inherit the swapped harness classes; spawned ones
        would run the vector engine, which tallies identically.
        """
        from repro.exec import ExecOptions
        from repro.glitchsim.campaign import run_branch_campaign
        from tests.oracles import snapshot_engine

        kwargs = dict(k_values=(1, 2), conditions=["eq", "ne"])
        checkpoint_dir = str(tmp_path / "ck")
        with snapshot_engine():
            serial = run_branch_campaign("xor", **kwargs)
            parallel = run_branch_campaign("xor", execution=ExecOptions(workers=2), **kwargs)
            run_branch_campaign("xor", conditions=["eq"], k_values=(1, 2),
                                execution=ExecOptions(checkpoint_dir=checkpoint_dir))
            resumed = run_branch_campaign(
                "xor", execution=ExecOptions(checkpoint_dir=checkpoint_dir, resume=True),
                **kwargs,
            )
        for other in (parallel, resumed):
            for fast_sweep, slow_sweep in zip(serial.sweeps, other.sweeps):
                assert fast_sweep.mnemonic == slow_sweep.mnemonic
                assert fast_sweep.by_k == slow_sweep.by_k


class TestGlitcherBaselineReplay:
    def _scan(self, replay: bool, obs=None, restore: bool = True):
        from repro.firmware.loops import build_guard_firmware
        from repro.hw.glitcher import ClockGlitcher
        from repro.hw.scan import run_single_glitch_scan

        glitcher = ClockGlitcher(build_guard_firmware("a", "single"),
                                 replay=replay)
        if not restore:
            # every attempt boots from reset; the rejoin exit stays on
            glitcher._usable_baseline = lambda ext_offset=0: None
        return run_single_glitch_scan("a", cycles=range(3), stride=16,
                                      glitcher=glitcher, obs=obs)

    def test_table1_slice_identical_tallies_and_counters(self):
        from repro.obs import Observer

        replay_obs, booted_obs, control_obs = Observer(), Observer(), Observer()
        replayed = self._scan(replay=True, obs=replay_obs)
        booted = self._scan(replay=True, obs=booted_obs, restore=False)
        control = self._scan(replay=False, obs=control_obs)
        for fast_row, booted_row, slow_row in zip(replayed.rows, booted.rows, control.rows):
            assert (fast_row.cycle, fast_row.attempts, fast_row.successes,
                    fast_row.resets, fast_row.register_values) == \
                (slow_row.cycle, slow_row.attempts, slow_row.successes,
                 slow_row.resets, slow_row.register_values) == \
                (booted_row.cycle, booted_row.attempts, booted_row.successes,
                 booted_row.resets, booted_row.register_values)
        # boot records change how simulated attempts start, nothing else
        replayed_counts, booted_counts = dict(replay_obs.counters), dict(booted_obs.counters)
        starts = ("hw.full_boots", "hw.baseline_replays")
        assert booted_counts.get("hw.baseline_replays", 0) == 0
        assert replayed_counts.get("hw.baseline_replays", 0) > 0
        # prefix cycles restored from a record still count in hw.cycles
        assert booted_counts.get("hw.restored_cycles", 0) == 0
        assert replayed_counts.pop("hw.restored_cycles") > 0
        assert sum(replayed_counts.pop(name, 0) for name in starts) == \
            sum(booted_counts.pop(name, 0) for name in starts)
        # the first scan stepped the reference runs both rejoin against
        assert replayed_counts.pop("hw.reference_cycles") > 0
        assert booted_counts.pop("hw.reference_cycles", 0) == 0
        assert replayed_counts["hw.rejoins"] > 0
        assert replayed_counts == booted_counts
        # replay=False steps every cycle
        assert control_obs.counters.get("hw.rejoins", 0) == 0

    def test_record_survives_external_reset(self):
        """Boot records are keyed by the power-on seed page and hold no
        board: after an external reset the next attempt still restores
        the record, and equals a run booted from reset."""
        from repro.firmware.loops import build_guard_firmware
        from repro.hw.clock import GlitchParams
        from repro.hw.glitcher import ClockGlitcher

        firmware = build_guard_firmware("not_a", "single")
        glitcher = ClockGlitcher(firmware)
        control = ClockGlitcher(firmware, replay=False)
        params = GlitchParams(0, 20, -10)
        glitcher.run_attempt(params, force_simulation=True)
        control.run_attempt(params, force_simulation=True)
        record = glitcher._usable_baseline()
        assert record is not None
        glitcher.board.reset()
        assert glitcher._usable_baseline() is record
        pipeline = glitcher.board.pipeline
        replayed = glitcher.run_attempt(params, force_simulation=True)
        assert glitcher.board.pipeline is pipeline  # restored, not rebooted
        assert replayed == control.run_attempt(params, force_simulation=True)
        assert glitcher.board._seed_page == control.board._seed_page

    def test_baseline_invalidated_by_seed_page_change(self):
        """Nonvolatile-state evolution (the random-delay defense) disables
        replay for the next attempt and triggers a fresh capture."""
        from repro.firmware.loops import build_guard_firmware
        from repro.hw.clock import GlitchParams
        from repro.hw.glitcher import ClockGlitcher

        glitcher = ClockGlitcher(build_guard_firmware("not_a", "single"))
        params = GlitchParams(0, 20, -10)
        first = glitcher.run_attempt(params, force_simulation=True)
        glitcher.board._seed_page[0] ^= 0xFF
        assert glitcher._usable_baseline() is None
        second = glitcher.run_attempt(params, force_simulation=True)
        assert glitcher._usable_baseline() is not None  # recaptured
        assert first.category == second.category

    def test_replayed_attempts_still_count_boots(self):
        from repro.firmware.loops import build_guard_firmware
        from repro.hw.clock import GlitchParams
        from repro.hw.glitcher import ClockGlitcher

        glitcher = ClockGlitcher(build_guard_firmware("not_a", "single"))
        boots_before = glitcher.board.boot_count
        for _ in range(3):
            glitcher.run_attempt(GlitchParams(0, 20, -10), force_simulation=True)
        assert glitcher.board.boot_count == boots_before + 3
