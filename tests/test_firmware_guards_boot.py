"""Tests for the MiniC evaluation firmware (guards + boot)."""

from collections import Counter

import pytest

from repro.firmware.boot import BOOT_SOURCE, SENSITIVE_VARIABLES, build_boot_firmware
from repro.firmware.guards import GUARD_SOURCES, build_defended_guard
from repro.hw.clock import GlitchParams
from repro.hw.glitcher import ClockGlitcher
from repro.hw.mcu import Board
from repro.resistor import ResistorConfig


class TestGuardFirmware:
    @pytest.mark.parametrize("scenario", sorted(GUARD_SOURCES))
    @pytest.mark.parametrize(
        "config",
        [ResistorConfig.none(), ResistorConfig.all(), ResistorConfig.all_but_delay()],
        ids=lambda c: c.describe(),
    )
    def test_builds_and_loops_forever(self, scenario, config):
        hardened = build_defended_guard(scenario, config)
        assert "win" in hardened.image.symbols
        glitcher = ClockGlitcher(
            hardened.image,
            detect_symbol="gr_detected" if config.any_enabled else None,
        )
        result = glitcher.run_unglitched(max_cycles=20_000)
        assert result.category == "no_effect"
        assert result.triggers_seen == 1

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            build_defended_guard("nope", ResistorConfig.none())

    def test_defended_guard_has_detect_symbol(self):
        hardened = build_defended_guard("while_not_a", ResistorConfig.all())
        assert "gr_detected" in hardened.image.symbols

    def test_enum_guard_gets_diversified(self):
        hardened = build_defended_guard("if_success", ResistorConfig.all())
        assert "BootStatus" in hardened.report.enums_rewritten

    def test_branch_decision_glitch_detected_or_harmless(self):
        """Flipping the guard branch on the defended build must never win."""
        from repro.errors import EmulationFault
        from repro.hw.faults import FaultEffect

        hardened = build_defended_guard("if_success", ResistorConfig.all_but_delay())
        image = hardened.image
        win = image.symbols["win"]
        for cycle in range(0, 300, 7):
            board = Board(image)
            pipe = board.pipeline
            pipe.stop_addresses = frozenset({win, image.symbols["gr_detected"]})
            pipe.glitch_resolver = lambda c, view, target=cycle: (
                FaultEffect(kind="branch_decision", rel_cycle=0) if c == target else None
            )
            try:
                pipe.run(20_000)
            except EmulationFault:
                continue
            assert pipe.stopped_at != win


class TestBootFirmware:
    def test_source_matches_paper_description(self):
        # "two functions that use ENUMs and constant return values"
        assert "HAL_OK" in BOOT_SOURCE
        assert "check_tick_sane" in BOOT_SOURCE
        # "The firmware will call a success function if the tick value is
        # ever equal to 0, which was designed to be impossible."
        assert "win" in BOOT_SOURCE
        assert SENSITIVE_VARIABLES == ("uwTick",)

    @pytest.mark.parametrize(
        "config",
        [
            ResistorConfig.none(),
            ResistorConfig.only("integrity", sensitive=SENSITIVE_VARIABLES),
            ResistorConfig.all(sensitive=SENSITIVE_VARIABLES),
        ],
        ids=lambda c: c.describe(),
    )
    def test_boot_reaches_complete_and_never_wins(self, config):
        hardened = build_boot_firmware(config)
        board = Board(hardened.image)
        symbols = hardened.image.symbols
        board.pipeline.stop_addresses = frozenset({symbols["win"]})
        board.pipeline.milestone_addresses = frozenset({symbols["boot_complete"]})
        reason = board.pipeline.run(300_000)
        assert reason == "limit"  # loops forever, never wins
        assert board.pipeline.milestones, "boot_complete never issued"

    def test_integrity_autofills_sensitive(self):
        hardened = build_boot_firmware(ResistorConfig.only("integrity"))
        assert hardened.report.integrity_loads > 0

    def test_boot_under_glitch_can_be_detected(self):
        """Real fault-model glitches landed in the defended boot's tick loop
        are detected, and none of them reaches ``win``.

        The boot firmware never raises the trigger pin, so the glitcher's
        trigger-anchored windows cannot reach it.  Instead the board boots
        once to the ``boot_complete`` milestone, is snapshotted there, and
        each run replays from the snapshot with a resolver that realizes
        ``FaultModel.effect_at`` on its glitched cycles after the milestone.
        """
        from repro.errors import EmulationFault
        from repro.hw.faults import FaultModel

        hardened = build_boot_firmware(ResistorConfig.all(sensitive=SENSITIVE_VARIABLES))
        symbols = hardened.image.symbols
        board = Board(hardened.image)
        pipe = board.pipeline
        pipe.milestone_addresses = frozenset({symbols["boot_complete"]})
        while not pipe.milestones:
            pipe.step_cycle()
        memory_snapshot = board.cpu.memory.snapshot()
        booted = pipe.snapshot_state()
        pipe.stop_addresses = frozenset({symbols["win"], symbols["gr_detected"]})

        model = FaultModel()
        # grid points whose glitches fault (rather than crash or do nothing)
        faulting = [
            (width, offset)
            for width in range(-49, 50, 3)
            for offset in range(-49, 50, 3)
            if model.occurrence_decision(GlitchParams(0, width, offset), 0) == "fault"
        ]
        outcomes = Counter()
        effects = []
        for ext in range(0, 200, 10):
            for width, offset in faulting[::2]:
                params = GlitchParams(ext, width, offset)
                board.cpu.memory.restore(memory_snapshot)
                pipe.restore_state(booted)
                anchor = pipe.cycles
                occurrences = iter(range(params.repeat))

                def resolver(cycle, view, params=params, anchor=anchor,
                             occurrences=occurrences):
                    rel = cycle - anchor
                    if rel not in params.glitched_cycles():
                        return None
                    effect = model.effect_at(params, rel, view, next(occurrences))
                    if effect is not None:
                        effects.append(effect)
                    return effect

                pipe.glitch_resolver = resolver
                try:
                    reason = pipe.run(anchor + 600)
                except EmulationFault:
                    reason = "reset"
                if reason == "stop_addr":
                    reason = "win" if pipe.stopped_at == symbols["win"] else "detected"
                outcomes[reason] += 1
        assert len(effects) > 100
        assert {effect.kind for effect in effects} - {"reset"}
        assert outcomes["detected"] > 0
        assert outcomes["win"] == 0
