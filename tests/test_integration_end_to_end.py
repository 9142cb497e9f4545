"""End-to-end integration: the full story in one test module.

Each test walks a complete user journey across every layer of the stack —
the flows a downstream adopter of this repository would actually run.
"""

import pytest

from repro.hw.clock import GlitchParams
from repro.hw.glitcher import ClockGlitcher
from repro.hw.mcu import Board
from repro.hw.scan import run_defense_scan
from repro.hw.search import ParameterSearch
from repro.resistor import ResistorConfig, harden
from tests.oracles import Interpreter

FIRMWARE = """
enum AuthResult { AUTH_OK, AUTH_FAIL };

int attempts;
int vault_opened;

void win(void) {
    vault_opened = 1;
    for (;;) { }
}

int verify(int code) {
    attempts = attempts + 1;
    if (code == 0x5EC2E7) { return AUTH_OK; }
    return AUTH_FAIL;
}

int main(void) {
    *(volatile unsigned int *)0x48000014 = 1;
    for (int i = 0; i < 3; i = i + 1) {
        if (verify(i * 1000) == AUTH_OK) { win(); }
    }
    for (;;) { }
    return 0;
}
"""


class TestFullJourney:
    def test_write_harden_boot_attack_defend(self):
        """The complete loop: author firmware → check semantics → harden →
        attack undefended vs defended → defended must be strictly safer."""
        # 1. reference semantics: the vault must never open legitimately
        interp = Interpreter.from_source(
            FIRMWARE.replace("for (;;) { }\n    return 0;", "return attempts;"),
            mmio_write=lambda a, w, v: None,
            step_limit=100_000,
        )
        # (can't run main's infinite loop in the interpreter; verify() directly)
        assert interp.call("verify", (0,)) != interp.program.enum_values["AUTH_OK"]
        assert interp.call("verify", (0x5EC2E7,)) == interp.program.enum_values["AUTH_OK"]

        # 2. compile both variants
        undefended = harden(FIRMWARE, ResistorConfig.none())
        defended = harden(FIRMWARE, ResistorConfig.all(sensitive=("vault_opened",)))

        # 3. unglitched: neither build opens the vault
        for build in (undefended, defended):
            glitcher = ClockGlitcher(build.image)
            result = glitcher.run_unglitched(max_cycles=20_000)
            assert result.category == "no_effect"

        # 4. strided attack campaign on both
        attack_undefended = run_defense_scan(undefended.image, "single", stride=5)
        attack_defended = run_defense_scan(
            defended.image, "single", stride=5, detect_symbol="gr_detected"
        )
        assert attack_defended.success_rate <= attack_undefended.success_rate

    def test_tune_then_transfer_to_defended_build(self):
        """An attacker tunes against the undefended build; the tuned
        parameters must not transfer cleanly to the delay-defended build."""
        search = ParameterSearch("not_a", coarse_stride=6)
        tuned = search.run()
        assert tuned.found

        defended = harden(
            """
            volatile int a;
            void win(void) { for (;;) { } }
            int main(void) {
                a = 0;
                *(volatile unsigned int *)0x48000014 = 1;
                while (!a) { }
                win();
                return 0;
            }
            """,
            ResistorConfig.all(),
        )
        glitcher = ClockGlitcher(defended.image, detect_symbol="gr_detected")
        wins = sum(
            glitcher.run_attempt(tuned.params).category == "success" for _ in range(10)
        )
        assert wins < 10  # 100% transfer would mean the defense does nothing

    def test_trace_explains_the_attack_window(self):
        """The pipeline trace names the instructions a glitch window covers."""
        from repro.firmware.loops import build_guard_firmware
        from tests.oracles import trace_pipeline

        board = Board(build_guard_firmware("a_ne_const", "single"))
        trace = trace_pipeline(board, stop_after_trigger=10)
        window = trace.window(0, 8)
        texts = " | ".join(r.execute or "-" for r in window)
        assert "ldr r2" in texts and "cmp r2, r3" in texts and "bne" in texts

    def test_cross_layer_determinism(self):
        """Same firmware + same parameters + same seed = same outcome, across
        separately-constructed stacks (the reproducibility guarantee)."""
        params = GlitchParams(3, 22, -8)
        outcomes = []
        for _ in range(2):
            build = harden(FIRMWARE, ResistorConfig.all_but_delay())
            glitcher = ClockGlitcher(build.image, detect_symbol="gr_detected")
            result = glitcher.run_attempt(params)
            outcomes.append((result.category, result.registers))
        assert outcomes[0] == outcomes[1]
