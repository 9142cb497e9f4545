"""Glitcher, firmware, scan, and search tests (Section V end-to-end)."""

import pytest

from repro.exec import ExecOptions
from repro.firmware import GUARD_KINDS, build_guard_firmware
from repro.firmware.loops import MAGIC_CONSTANT, STORED_VALUE, guard_descriptor
from repro.hw.clock import GlitchParams
from repro.hw.faults import FaultModel
from repro.hw.glitcher import ClockGlitcher
from repro.hw.scan import (
    map_cycles_to_instructions,
    run_long_glitch_scan,
    run_multi_glitch_scan,
    run_single_glitch_scan,
)
from repro.hw.search import CONFIRMATION_RUNS, ParameterSearch


class TestGuardFirmware:
    @pytest.mark.parametrize("kind", GUARD_KINDS)
    @pytest.mark.parametrize("variant", ["single", "double", "contiguous"])
    def test_builds_and_exports_symbols(self, kind, variant):
        firmware = build_guard_firmware(kind, variant)
        assert "_start" in firmware.symbols
        assert "loop" in firmware.symbols
        assert "win" in firmware.symbols
        if variant != "single":
            assert "exit1" in firmware.symbols
            assert "loop2" in firmware.symbols

    @pytest.mark.parametrize("kind", GUARD_KINDS)
    def test_unglitched_run_loops_forever(self, kind):
        glitcher = ClockGlitcher(build_guard_firmware(kind, "single"))
        result = glitcher.run_unglitched(max_cycles=500)
        assert result.category == "no_effect"
        assert result.triggers_seen == 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            build_guard_firmware("nope")
        with pytest.raises(ValueError):
            build_guard_firmware("a", "nope")

    def test_descriptor_lookup(self):
        assert guard_descriptor("a_ne_const").comparator_register == 2
        with pytest.raises(ValueError):
            guard_descriptor("zzz")

    def test_magic_constants_in_firmware(self):
        firmware = build_guard_firmware("a_ne_const", "single")
        assert MAGIC_CONSTANT.to_bytes(4, "little") in firmware.code
        assert STORED_VALUE.to_bytes(4, "little") in firmware.code

    def test_cycle_instruction_map_matches_table1(self):
        """The paper's Table Ia cycle → instruction column."""
        glitcher = ClockGlitcher(build_guard_firmware("not_a", "single"))
        mapping = map_cycles_to_instructions(glitcher, 8)
        assert mapping[0] == "mov r3, sp"
        assert mapping[1] == "adds r3, #7"
        assert mapping[2].startswith("ldrb r3")
        assert mapping[3].startswith("ldrb r3")  # 2-cycle load
        assert mapping[4] == "cmp r3, #0"
        assert mapping[5].startswith("beq")
        assert mapping[6].startswith("beq")  # branch bubbles attributed to BEQ
        assert mapping[7].startswith("beq")


class TestGlitcher:
    def test_inert_point_is_fast_path(self):
        glitcher = ClockGlitcher(build_guard_firmware("not_a", "single"))
        result = glitcher.run_attempt(GlitchParams(0, -49, 49))
        assert result.category == "no_effect"
        assert not result.simulated

    def test_attempts_are_deterministic(self):
        glitcher = ClockGlitcher(build_guard_firmware("not_a", "single"))
        params = GlitchParams(2, 20, -10)
        first = glitcher.run_attempt(params)
        second = glitcher.run_attempt(params)
        assert first.category == second.category
        assert first.registers == second.registers

    def test_force_simulation_matches_fast_path(self):
        glitcher = ClockGlitcher(build_guard_firmware("not_a", "single"))
        params = GlitchParams(0, -49, 49)
        fast = glitcher.run_attempt(params)
        slow = glitcher.run_attempt(params, force_simulation=True)
        assert fast.category == slow.category == "no_effect"

    def test_missing_win_symbol_rejected(self):
        from repro.isa import assemble
        from repro.hw.mcu import FLASH_BASE

        firmware = assemble("_start:\nnop\nbkpt #0", base=FLASH_BASE)
        with pytest.raises(ValueError):
            ClockGlitcher(firmware)

    def test_seed_page_persists_across_attempts(self):
        glitcher = ClockGlitcher(build_guard_firmware("not_a", "single"))
        board = glitcher.board
        board._seed_page[0:4] = b"\x01\x02\x03\x04"
        glitcher.run_attempt(GlitchParams(0, 20, -10))
        assert bytes(board._seed_page[0:4]) == b"\x01\x02\x03\x04"


class TestScans:
    """Strided scans keep these fast while checking the paper's orderings."""

    def test_single_glitch_not_a_most_vulnerable(self):
        rates = {}
        for guard in GUARD_KINDS:
            scan = run_single_glitch_scan(guard, stride=3)
            rates[guard] = scan.success_rate
            assert scan.total_attempts == len(range(-49, 50, 3)) ** 2 * 8
        assert rates["not_a"] > rates["a"]
        assert rates["not_a"] > rates["a_ne_const"]

    def test_single_glitch_rates_sub_percent(self):
        scan = run_single_glitch_scan("not_a", stride=3)
        assert 0.0 < scan.success_rate < 0.05

    def test_register_post_mortems_recorded(self):
        scan = run_single_glitch_scan("not_a", stride=2, cycles=range(4))
        assert scan.unique_register_values > 0
        values = set()
        for row in scan.rows:
            values.update(row.register_values)
        assert all(v <= 0xFFFFFFFF for v in values)

    def test_multi_glitch_partial_exceeds_full(self):
        """§V-C: 'It is clear that multi-glitching is significantly more
        difficult in practice than a single glitch.'"""
        scan = run_multi_glitch_scan("not_a", stride=3)
        assert scan.total_partial > scan.total_full

    def test_multi_glitch_reduces_success(self):
        single = run_single_glitch_scan("a", stride=3)
        multi = run_multi_glitch_scan("a", stride=3)
        assert multi.full_rate < single.success_rate

    def test_long_glitch_weaker_than_single_for_not_a(self):
        """§V-D: 'The condition that was previously the most vulnerable,
        while(!a), faired much better against this attack.'"""
        single = run_single_glitch_scan("not_a", stride=3)
        long_scan = run_long_glitch_scan("not_a", stride=3, last_cycles=(10, 14, 18))
        assert long_scan.success_rate < single.success_rate

    def test_long_glitch_beats_multi_full_for_a(self):
        """§V-D: while(a) is 'significantly more susceptible to long glitch
        attacks' than to full multi-glitches."""
        multi = run_multi_glitch_scan("a", stride=3)
        long_scan = run_long_glitch_scan("a", stride=3, last_cycles=(10, 14, 18))
        assert long_scan.success_rate > multi.full_rate


class TestScanRegressions:
    """Regressions for the scan-loop bugs fixed alongside the executor."""

    def test_generator_cycles_not_consumed(self):
        """max() used to drain a generator, leaving an empty scan."""
        scan = run_single_glitch_scan("not_a", cycles=iter([0, 1]), stride=12)
        assert len(scan.rows) == 2
        assert scan.total_attempts == 2 * len(range(-49, 50, 12)) ** 2

    def test_generator_matches_list_cycles(self):
        from_list = run_single_glitch_scan("not_a", cycles=[0, 1], stride=12)
        from_generator = run_single_glitch_scan("not_a", cycles=iter([0, 1]), stride=12)
        assert from_list == from_generator

    def test_glitcher_plus_fault_model_conflict_rejected(self):
        glitcher = ClockGlitcher(build_guard_firmware("not_a", "single"))
        with pytest.raises(ValueError, match="not both"):
            run_single_glitch_scan(
                "not_a", glitcher=glitcher, fault_model=FaultModel(seed=1), stride=12
            )

    def test_prebuilt_glitcher_still_accepted_alone(self):
        glitcher = ClockGlitcher(build_guard_firmware("not_a", "single"))
        scan = run_single_glitch_scan("not_a", glitcher=glitcher, stride=12, cycles=[0])
        assert scan.total_attempts > 0

    def test_prebuilt_glitcher_with_workers_rejected(self):
        glitcher = ClockGlitcher(build_guard_firmware("not_a", "single"))
        with pytest.raises(ValueError, match="workers"):
            run_single_glitch_scan("not_a", glitcher=glitcher, stride=12,
                                   execution=ExecOptions(workers=2))

    @pytest.mark.parametrize("stride", [0, -1, -3])
    def test_bad_stride_rejected_everywhere(self, stride):
        with pytest.raises(ValueError, match="stride"):
            run_single_glitch_scan("not_a", stride=stride)
        with pytest.raises(ValueError, match="stride"):
            run_multi_glitch_scan("not_a", stride=stride)
        with pytest.raises(ValueError, match="stride"):
            run_long_glitch_scan("not_a", stride=stride)

    def test_bad_stride_rejected_for_defense_scan(self):
        from repro.hw.scan import run_defense_scan

        with pytest.raises(ValueError, match="stride"):
            run_defense_scan(build_guard_firmware("not_a", "single"), "single", stride=0)

    def test_stride_subsamples_grid(self):
        scan = run_single_glitch_scan("not_a", cycles=[0], stride=7)
        assert scan.total_attempts == len(range(-49, 50, 7)) ** 2


class TestParallelScans:
    """workers=1 and workers=N must tally identically (chunked fan-out)."""

    def test_single_scan_parallel_equality(self):
        serial = run_single_glitch_scan("not_a", stride=10, cycles=range(4))
        parallel = run_single_glitch_scan("not_a", stride=10, cycles=range(4),
                                          execution=ExecOptions(workers=2))
        assert serial == parallel
        assert repr(serial) == repr(parallel)

    def test_multi_scan_parallel_equality(self):
        serial = run_multi_glitch_scan("a", stride=10, cycles=range(4))
        parallel = run_multi_glitch_scan("a", stride=10, cycles=range(4),
                                         execution=ExecOptions(workers=2))
        assert serial == parallel
        assert repr(serial) == repr(parallel)

    def test_long_scan_parallel_equality(self):
        serial = run_long_glitch_scan("a", stride=10, last_cycles=(10, 12))
        parallel = run_long_glitch_scan("a", stride=10, last_cycles=(10, 12),
                                        execution=ExecOptions(workers=2))
        assert serial == parallel
        assert repr(serial) == repr(parallel)

    def test_defense_scan_parallel_equality(self):
        from repro.hw.scan import run_defense_scan

        image = build_guard_firmware("not_a", "single")
        serial = run_defense_scan(image, "single", stride=12)
        parallel = run_defense_scan(image, "single", stride=12,
                                    execution=ExecOptions(workers=2))
        assert serial == parallel
        assert repr(serial) == repr(parallel)


class TestParameterSearch:
    def test_search_finds_repeatable_parameters(self):
        """§V-B: the tuning algorithm converges to 10-out-of-10 parameters."""
        search = ParameterSearch("a", coarse_stride=6)
        result = search.run()
        assert result.found
        assert result.confirmed_rate == 1.0
        assert result.attempts > 0
        assert result.modeled_minutes > 0

    def test_search_against_hamming_guard(self):
        search = ParameterSearch("a_ne_const", coarse_stride=6)
        result = search.run()
        assert result.found

    def test_confirmed_parameters_reproduce(self):
        search = ParameterSearch("not_a", coarse_stride=6)
        result = search.run()
        assert result.found
        for _ in range(5):
            assert search.glitcher.run_attempt(result.params).category == "success"

    @pytest.mark.parametrize("max_attempts", [1, 25, 60])
    def test_budget_aborts_both_phases(self, max_attempts):
        """Regression: the budget check used to exit only the inner
        offset/cycle loop, so both phases ran far past max_attempts."""
        search = ParameterSearch("a", coarse_stride=6)
        result = search.run(max_attempts=max_attempts)
        # only an in-flight confirmation run may overshoot the budget
        assert result.attempts <= max_attempts + CONFIRMATION_RUNS
        assert result.attempts == search.attempts

    def test_exhausted_budget_reports_not_found(self):
        search = ParameterSearch("a", coarse_stride=6)
        result = search.run(max_attempts=5)
        assert not result.found
        assert result.params is None
