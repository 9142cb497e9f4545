"""Differentials for the hw hot path's exact fast paths.

Each fast path is checked against the slow computation it replaces:

- the point-memoized ``FaultModel.occurrence_decision`` against a direct
  recomputation from ``_uniform``, for every registered model;
- the first-decision ``ClockGlitcher._occurrence_plan`` against the first
  entry of the full per-cycle plan;
- the settled-loop exit against the full settle, field by field on
  ``AttemptResult`` and on the persisted seed page.

Also pins the ``hw.*`` scan counters and the process-wide decode memo.
"""

from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.table6 import DEFENSE_STACKS, SCENARIOS
from repro.firmware import build_guard_firmware
from repro.firmware.guards import build_defended_guard
from repro.hw import FAULT_MODELS
from repro.hw import pipeline as pipeline_module
from repro.hw.clock import OFFSET_RANGE, WIDTH_RANGE, GlitchParams
from repro.hw.faults import FaultModel
from repro.hw.glitcher import ClockGlitcher
from repro.hw.scan import ATTACK_SHAPES, run_defense_scan, run_long_glitch_scan
from repro.obs import Observer

widths = st.integers(WIDTH_RANGE.start, WIDTH_RANGE.stop - 1)
offsets = st.integers(OFFSET_RANGE.start, OFFSET_RANGE.stop - 1)


def _direct_decision(model: FaultModel, params: GlitchParams, rel_cycle: int):
    """The occurrence decision recomputed directly, without any memo."""
    width, offset = params.width, params.offset
    if model._uniform("crashpt", width, offset) < model.crash_probability(width, offset):
        return "crash"
    point_roll = model._uniform("occurpt", width, offset)
    cycle_roll = model._uniform("occur", width, offset, rel_cycle)
    if 0.75 * point_roll + 0.25 * cycle_roll < model.fault_probability(width, offset):
        return "fault"
    return None


def _full_plan(glitcher: ClockGlitcher, params: GlitchParams) -> list:
    """Every per-cycle decision up to the first crash (the pre-memo plan)."""
    plan = []
    for rel in params.glitched_cycles():
        decision = _direct_decision(glitcher.fault_model, params, rel)
        if decision is not None:
            plan.append((rel, decision))
            if decision == "crash":
                break
    return plan


class TestPointMemo:
    @pytest.mark.parametrize("name", sorted(FAULT_MODELS))
    @settings(max_examples=150, deadline=None)
    @given(width=widths, offset=offsets, rel_cycle=st.integers(0, 120))
    def test_memoized_decision_matches_direct(self, name, width, offset, rel_cycle):
        model = FAULT_MODELS[name]()
        params = GlitchParams(0, width, offset)
        expected = _direct_decision(model, params, rel_cycle)
        # cold (fills the memo) and warm (reads it) must both agree
        assert model.occurrence_decision(params, rel_cycle) == expected
        assert model.occurrence_decision(params, rel_cycle) == expected
        assert (width, offset) in model._points

    def test_memo_is_not_pickled(self):
        import pickle

        model = FaultModel()
        model.occurrence_decision(GlitchParams(0, 20, -10), 0)
        assert model._points
        clone = pickle.loads(pickle.dumps(model))
        assert clone._points == {}
        assert clone.occurrence_decision(GlitchParams(0, 20, -10), 3) == (
            model.occurrence_decision(GlitchParams(0, 20, -10), 3)
        )

    @pytest.mark.parametrize("name", sorted(FAULT_MODELS))
    @settings(max_examples=100, deadline=None)
    @given(
        width=widths, offset=offsets,
        ext_offset=st.integers(0, 100), repeat=st.integers(1, 100),
    )
    def test_first_decision_plan_matches_full_plan(
        self, name, width, offset, ext_offset, repeat
    ):
        glitcher = _plan_glitcher(name)
        params = GlitchParams(ext_offset, width, offset, repeat=repeat)
        full = _full_plan(glitcher, params)
        assert glitcher._occurrence_plan(params) == (full[0] if full else None)


@lru_cache(maxsize=None)
def _plan_glitcher(name: str) -> ClockGlitcher:
    return ClockGlitcher(build_guard_firmware("not_a", "single"), fault_model=name)


# ----------------------------------------------------------------------
# settled-loop exit vs full settle
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _defended_image(scenario: str, defense: str):
    return build_defended_guard(scenario, DEFENSE_STACKS[defense]()).image


def _glitcher_pair(image, replay: bool, **kwargs):
    """Two identical glitchers; the second never takes the settled exit."""
    fast = ClockGlitcher(image, replay=replay, **kwargs)
    full = ClockGlitcher(image, replay=replay, **kwargs)
    full._skip_settled_periods = lambda history, deadline: 0
    return fast, full


def _assert_same_attempt(fast: ClockGlitcher, full: ClockGlitcher, params) -> None:
    # force_simulation sends fast-path points through the simulator too:
    # those are the pure settle tails the exit exists for
    a = fast.run_attempt(params, force_simulation=True)
    b = full.run_attempt(params, force_simulation=True)
    for name in ("category", "params", "triggers_seen", "cycles", "registers",
                 "effects", "stop_symbol", "simulated"):
        assert getattr(a, name) == getattr(b, name), name
    assert bytes(fast.board._seed_page) == bytes(full.board._seed_page)


#: (width, offset) draws biased toward the fault band around (20, -10)
band_points = st.one_of(
    st.tuples(widths, offsets),
    st.tuples(st.integers(5, 35), st.integers(-30, 10)),
)


class TestSettledLoopExit:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("defense", ["none", "all", "all_no_delay"])
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        attempts=st.lists(
            st.tuples(st.sampled_from(sorted(ATTACK_SHAPES)), st.integers(0, 10), band_points),
            min_size=1, max_size=3,
        ),
        replay=st.booleans(),
    )
    def test_exit_matches_full_settle(self, scenario, defense, attempts, replay):
        image = _defended_image(scenario, defense)
        detect = "gr_detected" if "gr_detected" in image.symbols else None
        fast, full = _glitcher_pair(image, replay, detect_symbol=detect)
        # a sequence of attempts on one board: replays, and the random-delay
        # seed page evolving across attempts, must agree too
        for shape, index, (width, offset) in attempts:
            ext_offset, repeat = ATTACK_SHAPES[shape][index % len(ATTACK_SHAPES[shape])]
            _assert_same_attempt(
                fast, full, GlitchParams(ext_offset, width, offset, repeat=repeat)
            )

    @settings(max_examples=15, deadline=None)
    @given(cycle=st.integers(0, 7), point=band_points)
    def test_exit_matches_full_settle_double_trigger(self, cycle, point):
        # Table II firmware: the run may wait for a second trigger
        fast, full = _glitcher_pair(
            build_guard_firmware("not_a", "double"), True, expected_triggers=2
        )
        _assert_same_attempt(fast, full, GlitchParams(cycle, *point))

    def test_exit_matches_unglitched_run(self):
        fast, full = _glitcher_pair(_defended_image("while_not_a", "all_no_delay"), True,
                                    detect_symbol="gr_detected")
        a = fast.run_unglitched(max_cycles=5_000)
        b = full.run_unglitched(max_cycles=5_000)
        assert (a.category, a.cycles, a.registers) == (b.category, b.cycles, b.registers)
        assert a.cycles == 5_000
        assert fast.counters["hw.settled_exits"] == 1

    def test_exit_fires_and_cuts_stepped_cycles(self):
        fast, full = _glitcher_pair(_defended_image("while_not_a", "none"), True)
        params = GlitchParams(3, 40, 40)  # no fault lands: a pure settle tail
        _assert_same_attempt(fast, full, params)
        assert fast.counters["hw.settled_exits"] == 1
        assert full.counters["hw.settled_exits"] == 0
        assert fast.counters["hw.cycles"] < full.counters["hw.cycles"]

    @pytest.mark.parametrize("body, exits", [
        # stores that leave memory as it was each period: skipped
        ("movs r3, #1\n    str r3, [r2]\n    movs r3, #0\n    str r3, [r2]", True),
        # a counter kept in RAM: registers repeat, memory never does
        ("ldr r3, [r2]\n    adds r3, r3, #1\n    str r3, [r2]\n    movs r3, #0", False),
        # an MMIO read each period (the GPIO pin)
        ("ldr r3, [r0]\n    movs r3, #0", False),
        # an MMIO write each period (no rising edge, but a side effect)
        ("str r1, [r0]", False),
    ], ids=["restoring-stores", "ram-counter", "mmio-read", "mmio-write"])
    def test_exit_requires_unchanged_memory_and_no_mmio(self, body, exits):
        from repro.isa import assemble

        image = assemble(f"""
_start:
    ldr r0, =0x48000014
    movs r1, #1
    str r1, [r0]
    ldr r2, =0x20000000
loop:
    {body}
    b loop
win:
    b win
""", base=0x0800_0000)
        fast, full = _glitcher_pair(image, True)
        a = fast.run_unglitched(max_cycles=3_000)
        b = full.run_unglitched(max_cycles=3_000)
        assert (a.category, a.cycles, a.registers) == (b.category, b.cycles, b.registers)
        assert a.triggers_seen == b.triggers_seen == 1
        assert fast.counters["hw.settled_exits"] == int(exits)


# ----------------------------------------------------------------------
# hw counters
# ----------------------------------------------------------------------

HW_NAMES = ("hw.fastpath", "hw.simulated", "hw.settled_exits", "hw.cycles")


def _hw_counters(obs: Observer) -> dict:
    return {name: obs.counters[name] for name in HW_NAMES}


class TestHwCounters:
    def test_defense_scan_counters_serial_equals_parallel(self):
        image = _defended_image("while_not_a", "all_no_delay")
        counters = []
        for workers in (1, 2):
            obs = Observer()
            result = run_defense_scan(image, "windowed", stride=24, workers=workers, obs=obs)
            hw = _hw_counters(obs)
            assert hw["hw.fastpath"] + hw["hw.simulated"] == result.attempts
            assert obs.counters["attempts"] == result.attempts
            counters.append(hw)
        assert counters[0] == counters[1]
        assert counters[0]["hw.simulated"] > 0
        assert counters[0]["hw.settled_exits"] > 0

    def test_shared_glitcher_scan_counters_serial_equals_parallel(self):
        # the serial path shares one glitcher (and its baseline) across
        # rows; workers build one per row: the counters still agree
        counters = []
        for workers in (1, 2):
            obs = Observer()
            scan = run_long_glitch_scan("not_a", last_cycles=range(10, 13), stride=16,
                                        workers=workers, obs=obs)
            hw = _hw_counters(obs)
            assert hw["hw.fastpath"] + hw["hw.simulated"] == scan.total_attempts
            counters.append(hw)
        assert counters[0] == counters[1]


# ----------------------------------------------------------------------
# decode memo
# ----------------------------------------------------------------------

class TestDecodeMemo:
    def test_invalid_decodes_are_not_cached(self):
        from repro.errors import InvalidInstruction

        decode = pipeline_module._decode_halfwords
        with pytest.raises(InvalidInstruction):
            decode((0x0000,), True)
        info = decode.cache_info()
        with pytest.raises(InvalidInstruction):
            decode((0x0000,), True)
        assert decode.cache_info().currsize == info.currsize
        # the same halfword is valid (movs r0, r0) when zero is allowed
        assert decode((0x0000,), False) is decode((0x0000,), False)

    def test_views_are_interned(self):
        views = pipeline_module._VIEWS
        assert len(views) == 24
        for (executing, has_fetch, has_decode), view in views.items():
            assert (view.executing_class, view.has_fetch, view.has_decode) == (
                executing, has_fetch, has_decode
            )
