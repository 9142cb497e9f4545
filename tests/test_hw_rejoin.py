"""The glitcher's rejoin exit against the attempts it ends early.

A glitched attempt whose machine state matches the unglitched run from
the same power-on seed page (its *reference*) at the same cycle, with no
trigger left before its deadline, takes the reference's end instead of
stepping there.  Checked here:

- every simulated Table VI attempt at stride 12, in grid order, against
  a digest pinned before the exit existed;
- random attempts on a random-delay build and on a two-trigger guard
  against ``replay=False`` glitchers, which step every cycle (and so
  also check whole-instruction stepping), and
  programs whose unglitched run stops, halts, faults, re-triggers or
  only seems to repeat;
- the ``hw.rejoins`` / ``hw.rejoined_cycles`` / ``hw.reference_cycles``
  counters, that reference runs are not attempt starts, that a looping
  reference stops at its repeat, that references last one image and are
  freed by refcount when dropped, and the seed page a rejoined attempt
  leaves on the board.
"""

import hashlib
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.table6 import DEFENSE_STACKS, run_table6
from repro.firmware import build_guard_firmware
from repro.firmware.guards import build_defended_guard
from repro.hw import glitcher as glitcher_module
from repro.hw.clock import OFFSET_RANGE, WIDTH_RANGE, GlitchParams
from repro.hw.glitcher import ClockGlitcher
from repro.hw.scan import ATTACK_SHAPES
from repro.isa import assemble

widths = st.integers(WIDTH_RANGE.start, WIDTH_RANGE.stop - 1)
offsets = st.integers(OFFSET_RANGE.start, OFFSET_RANGE.stop - 1)

#: sha256 over every simulated attempt of ``run_table6(stride=12)`` in
#: grid order (see :func:`attempt_digest`), pinned before the rejoin exit
TABLE6_STRIDE12_ATTEMPTS = "8ac426eada4bb0d85c4b48ea37a2abe4ec209c83a861402b7ba0d3dc8e46bbcf"


def attempt_digest(monkeypatch, run) -> tuple[str, int]:
    """``(sha256, attempts)`` over each simulated attempt ``run()`` makes:
    its category, stop symbol, cycles, registers, triggers seen and
    effects, then the seed page it persisted."""
    digest = hashlib.sha256()
    count = 0
    run_attempt = ClockGlitcher.run_attempt

    def recording(self, params, force_simulation=False):
        nonlocal count
        result = run_attempt(self, params, force_simulation)
        if result.simulated:
            count += 1
            digest.update(repr((
                result.category, result.stop_symbol, result.cycles, result.registers,
                result.triggers_seen, [effect.cache_key() for effect in result.effects],
            )).encode())
            digest.update(bytes(self.board._seed_page))
        return result

    monkeypatch.setattr(ClockGlitcher, "run_attempt", recording)
    run()
    return digest.hexdigest(), count


def test_table6_attempts_match_pinned_digest(monkeypatch):
    digest, count = attempt_digest(monkeypatch, lambda: run_table6(stride=12))
    assert count == 804
    assert digest == TABLE6_STRIDE12_ATTEMPTS


# ----------------------------------------------------------------------
# rejoin exit vs replay=False
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _defended_image(scenario: str, defense: str):
    return build_defended_guard(scenario, DEFENSE_STACKS[defense]()).image


def _assert_same_attempts(image, attempts, **kwargs) -> ClockGlitcher:
    """Run ``attempts`` in order on one ``replay=True`` glitcher and on one
    ``replay=False`` glitcher (which steps every cycle); every result and
    persisted seed page must agree.  Returns the replaying glitcher."""
    fast = ClockGlitcher(image, **kwargs)
    slow = ClockGlitcher(image, replay=False, **kwargs)
    for params in attempts:
        got = fast.run_attempt(params, force_simulation=True)
        assert got == slow.run_attempt(params, force_simulation=True), params
        assert bytes(fast.board._seed_page) == bytes(slow.board._seed_page)
    assert slow.counters["hw.rejoins"] == slow.counters["hw.reference_cycles"] == 0
    return fast


#: (width, offset) draws biased toward the fault band around (20, -10)
band_points = st.one_of(
    st.tuples(widths, offsets),
    st.tuples(st.integers(5, 35), st.integers(-30, 10)),
)

shape_params = st.builds(
    lambda shape, index, point: GlitchParams(
        ATTACK_SHAPES[shape][index % len(ATTACK_SHAPES[shape])][0], *point,
        repeat=ATTACK_SHAPES[shape][index % len(ATTACK_SHAPES[shape])][1],
    ),
    st.sampled_from(sorted(ATTACK_SHAPES)), st.integers(0, 10), band_points,
)


class TestRejoinDifferential:
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(attempts=st.lists(shape_params, min_size=1, max_size=6))
    def test_random_delay_build(self, attempts):
        # random delay: the seed page, and so the reference, changes
        # attempt by attempt
        _assert_same_attempts(_defended_image("if_success", "all"), attempts,
                              detect_symbol="gr_detected")

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(attempts=st.lists(
        st.builds(GlitchParams, st.integers(0, 7), widths, offsets)
        | st.builds(lambda cycle, point: GlitchParams(cycle, *point),
                    st.integers(0, 7), band_points),
        min_size=1, max_size=6,
    ))
    def test_two_trigger_guard(self, attempts):
        # Table II: a run may wait for a second trigger the reference
        # never raises, or rejoin after both fired
        _assert_same_attempts(build_guard_firmware("not_a", "double"), attempts,
                              expected_triggers=2)

    def test_single_rows_rejoin(self):
        """A Table VI single-glitch slice on the random-delay build: most
        simulated attempts rejoin, and each equals its from-reset run."""
        attempts = [GlitchParams(ext_offset, width, offset)
                    for ext_offset in (0, 4, 9) for width, offset in GRID]
        fast = _assert_same_attempts(_defended_image("while_not_a", "all"), attempts,
                                     detect_symbol="gr_detected")
        assert fast.counters["hw.rejoins"] > len(attempts) // 2
        assert fast.counters["hw.rejoined_cycles"] > 0

    @pytest.mark.parametrize("ending, count, outcome", [
        ("b win", 40, "success"),
        # the unglitched run wins between the deadlines of the long
        # glitch and of the single ones
        ("b win", 90, "success"),
        ("bkpt #0", 40, "no_effect"),
        ("ldr r3, =0x30000000\n    ldr r3, [r3]", 40, "reset"),
        # a second trigger: an attempt may not rejoin before it fires
        ("movs r1, #0\n    str r1, [r0]\n    movs r1, #1\n    str r1, [r0]\nspin:\n"
         "    b spin", 40, "no_effect"),
    ], ids=["stop", "stop-late", "halt", "fault", "retrigger"])
    def test_reference_ends_before_the_deadline(self, ending, count, outcome):
        """The unglitched run leaves its loop after ``count`` rounds (5
        cycles each): a rejoined attempt takes that stop, halt, fault or
        trigger when it comes before the attempt's deadline, and the
        deadline's state when it does not."""
        image = assemble(f"""
_start:
    ldr r0, =0x48000014
    movs r1, #1
    movs r2, #0
    str r1, [r0]
loop:
    adds r2, r2, #1
    cmp r2, #{count}
    bne loop
    {ending}
win:
    b win
""", base=0x0800_0000)
        assert ClockGlitcher(image).run_unglitched(max_cycles=600).category == outcome
        attempts = [GlitchParams(ext_offset, width, offset, repeat=repeat)
                    for ext_offset, repeat in ((0, 100), (0, 1), (5, 1), (3, 10))
                    for width, offset in GRID]
        fast = _assert_same_attempts(image, attempts)
        assert fast.counters["hw.rejoins"] > 0

    @pytest.mark.parametrize("body", [
        # a counter in SRAM: the registers repeat every round, memory not
        "ldr r2, [r3]\n    adds r2, r2, #1\n    str r2, [r3]\n    cmp r2, #30\n"
        "    beq win\n    movs r2, #0\n    b loop",
        # the cycle counter: registers and memory repeat, the read does not
        "ldr r2, [r4]\n    cmp r2, r5\n    bhi win\n    movs r2, #0\n    b loop",
    ], ids=["memory", "cycle-counter"])
    def test_repeating_states_that_move_on(self, body):
        """The unglitched run comes back to the same check-point state
        every round but still leaves its loop: a reference may take a run
        for a loop only when memory is unchanged and no MMIO was touched."""
        image = assemble(f"""
_start:
    ldr r0, =0x48000014
    ldr r3, =0x20000000
    ldr r4, =0xe0001004
    ldr r5, =300
    movs r1, #1
    movs r2, #0
    str r2, [r3]
    str r1, [r0]
loop:
    {body}
win:
    b win
""", base=0x0800_0000)
        assert ClockGlitcher(image).run_unglitched(max_cycles=600).category == "success"
        attempts = [GlitchParams(ext_offset, width, offset)
                    for ext_offset in (0, 3, 5) for width, offset in GRID]
        fast = _assert_same_attempts(image, attempts)
        assert fast.counters["hw.rejoins"] > 0


# ----------------------------------------------------------------------
# counters
# ----------------------------------------------------------------------

#: grid points around the clock model's fault band
GRID = [(width, offset) for width in range(5, 36, 6) for offset in range(-30, 11, 8)]


class TestRejoinCounters:
    def test_reference_runs_are_not_attempt_starts(self, monkeypatch):
        """A second glitcher finds every reference already stepped: it
        steps none, and rejoins exactly as the first did, with the same
        boot split (a reference run neither boots nor replays)."""
        monkeypatch.setattr(glitcher_module, "_REFERENCES", {})
        image = _defended_image("while_not_a", "all")
        attempts = [GlitchParams(ext_offset, width, offset)
                    for ext_offset in (0, 6) for width, offset in GRID]
        counters = []
        for _ in range(2):
            glitcher = ClockGlitcher(image, detect_symbol="gr_detected")
            for params in attempts:
                glitcher.run_attempt(params, force_simulation=True)
            counters.append(glitcher.counters)
        cold, warm = counters
        assert cold["hw.reference_cycles"] > 0
        assert warm["hw.reference_cycles"] == 0
        assert cold["hw.rejoins"] > 0
        assert cold["hw.full_boots"] + cold["hw.baseline_replays"] == cold["hw.simulated"]
        for counter in (cold, warm):
            del counter["hw.reference_cycles"]
        assert cold == warm

    def test_looping_reference_stops_at_the_repeat(self, monkeypatch):
        """The undefended guard's unglitched run settles into its loop: its
        reference is stepped to the first repeat, not to the deadlines some
        400 cycles past the trigger."""
        monkeypatch.setattr(glitcher_module, "_REFERENCES", {})
        glitcher = ClockGlitcher(_defended_image("while_not_a", "none"))
        for width, offset in GRID:
            glitcher.run_attempt(GlitchParams(0, width, offset), force_simulation=True)
        assert glitcher.counters["hw.rejoins"] > 0
        assert 0 < glitcher.counters["hw.reference_cycles"] < 100

    def test_references_last_one_image(self, monkeypatch):
        """The memo keeps the reference runs of the image last asked
        about: scans of one build share them, a new build drops them."""
        monkeypatch.setattr(glitcher_module, "_REFERENCES", {})
        attempts = [GlitchParams(0, width, offset) for width, offset in GRID]
        stepped = []
        for scenario in ("while_not_a", "if_success", "while_not_a"):
            glitcher = ClockGlitcher(_defended_image(scenario, "none"))
            for params in attempts:
                glitcher.run_attempt(params, force_simulation=True)
            assert list(glitcher_module._REFERENCES) == [glitcher._reference_key]
            stepped.append(glitcher.counters["hw.reference_cycles"])
        # the first build's runs were dropped: the third scan steps them again
        assert stepped[0] == stepped[2] > 0

    def test_dropped_references_are_freed_at_once(self, monkeypatch):
        """Reference runs hold no reference back to their image: when a
        new build replaces the memo, the last build's runs and scratch
        board go by refcount, with the cycle collector off."""
        import gc
        import weakref

        monkeypatch.setattr(glitcher_module, "_REFERENCES", {})
        attempts = [GlitchParams(0, width, offset) for width, offset in GRID]
        glitcher = ClockGlitcher(_defended_image("while_not_a", "none"))
        for params in attempts:
            glitcher.run_attempt(params, force_simulation=True)
        (image,) = glitcher_module._REFERENCES.values()
        assert image.runs
        dropped = [weakref.ref(obj) for obj in (image, image.board, *image.runs.values())]
        del image
        gc.disable()
        try:
            glitcher = ClockGlitcher(_defended_image("if_success", "none"))
            for params in attempts:
                glitcher.run_attempt(params, force_simulation=True)
            assert list(glitcher_module._REFERENCES) == [glitcher._reference_key]
            assert [ref() for ref in dropped] == [None] * len(dropped)
        finally:
            gc.enable()

    def test_board_holds_the_persisted_page(self):
        """The unglitched run writes the seed page every round, so a
        rejoined attempt's page at its deadline is not the page at the
        rejoin cycle: the board's live page is brought there too, and
        persisting it again changes nothing."""
        image = assemble("""
_start:
    ldr r0, =0x48000014
    ldr r3, =0x0801f800
    movs r1, #1
    movs r2, #0
    str r1, [r0]
loop:
    adds r2, r2, #1
    str r2, [r3]
    b loop
win:
    b win
""", base=0x0800_0000)
        glitcher = ClockGlitcher(image)
        control = ClockGlitcher(image, replay=False)
        for ext_offset in (0, 3, 5):
            for width, offset in GRID:
                params = GlitchParams(ext_offset, width, offset)
                assert glitcher.run_attempt(params, force_simulation=True) == (
                    control.run_attempt(params, force_simulation=True)
                )
                board = glitcher.board
                assert bytes(board._seed_page) == bytes(control.board._seed_page)
                board.persist_nonvolatile()
                assert bytes(board._seed_page) == bytes(control.board._seed_page)
        assert glitcher.counters["hw.rejoins"] > 0

    def test_replay_off_never_rejoins(self):
        glitcher = ClockGlitcher(_defended_image("while_not_a", "none"), replay=False)
        for ext_offset in (0, 5, 10):
            glitcher.run_attempt(GlitchParams(ext_offset, 40, 40), force_simulation=True)
        assert glitcher.counters["hw.rejoins"] == 0
        assert glitcher.counters["hw.reference_cycles"] == 0

    def test_unglitched_runs_never_rejoin(self):
        glitcher = ClockGlitcher(_defended_image("while_not_a", "none"))
        glitcher.run_attempt(GlitchParams(3, 40, 40), force_simulation=True)
        result = glitcher.run_unglitched(max_cycles=3_000)
        assert result.cycles == 3_000
        assert glitcher.counters["hw.rejoins"] == 1
