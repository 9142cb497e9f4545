"""Differentials for the hw hot path's exact fast paths.

Each fast path is checked against the slow computation it replaces:

- the point-memoized ``FaultModel.occurrence_decision`` against a direct
  recomputation from ``_uniform``, for every registered model;
- the first-decision ``ClockGlitcher._occurrence_plan`` against the first
  entry of the full per-cycle plan;
- the settled-loop exit against the full settle, field by field on
  ``AttemptResult`` and on the persisted seed page;
- seed-keyed boot records, shared by a scan's units, against
  ``replay=False`` glitchers booting every attempt from reset;
- the flat ``PipelinedCPU.step_cycle`` against the staged cycle in
  ``tests/oracles.py``, in lock-step under random glitch effects.

Also pins the ``hw.*`` scan counters and the process-wide decode memo.
"""

from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import EmulationFault
from repro.experiments.table6 import DEFENSE_STACKS, SCENARIOS
from repro.firmware import build_guard_firmware
from repro.firmware.guards import build_defended_guard
from repro.hw import FAULT_MODELS
from repro.hw import pipeline as pipeline_module
from repro.hw.clock import OFFSET_RANGE, WIDTH_RANGE, GlitchParams
from repro.hw.faults import EFFECT_KINDS, FaultEffect, FaultModel
from repro.hw.glitcher import ClockGlitcher
from repro.hw.mcu import Board
from repro.hw.scan import (
    ATTACK_SHAPES,
    map_cycles_to_instructions,
    run_defense_scan,
    run_long_glitch_scan,
)
from repro.obs import Observer
from tests.oracles import staged_step_cycle

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
# boot records vs from-reset runs
# ----------------------------------------------------------------------

#: one attempt: what happens to the board first, the attack shape element
#: and the grid point
record_attempts = st.tuples(
    st.sampled_from(("none", "reset", "map_cycles")),
    st.sampled_from(sorted(ATTACK_SHAPES)), st.integers(0, 10), band_points,
)


def _from_reset(image, detect, seed: bytes) -> ClockGlitcher:
    glitcher = ClockGlitcher(image, detect_symbol=detect, replay=False)
    glitcher.board._seed_page = bytearray(seed)
    return glitcher


class TestBootRecords:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("defense", ["none", "all"])
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(units=st.lists(st.lists(record_attempts, min_size=1, max_size=3),
                          min_size=2, max_size=3))
    def test_shared_records_match_from_reset(self, scenario, defense, units):
        """Units on one shared glitcher (as a serial defense scan runs
        them) equal per-attempt from-reset glitchers that follow the same
        seed-page sequence, including across an external ``board.reset()``
        and a ``map_cycles_to_instructions`` trace that leaves its hook on
        the board's pipeline."""
        image = _defended_image(scenario, defense)
        detect = "gr_detected" if "gr_detected" in image.symbols else None
        shared = ClockGlitcher(image, detect_symbol=detect)
        booted: set = set()  # power-on seed pages attempted so far
        for attempts in units:
            shared.board.erase_seed_page()  # what each defense-scan unit does
            seed = bytes(shared.board._seed_page)
            for before, shape, index, (width, offset) in attempts:
                if before == "reset":
                    shared.board.reset()
                elif before == "map_cycles":
                    reference = _from_reset(image, detect, seed)
                    assert map_cycles_to_instructions(shared, 8) == (
                        map_cycles_to_instructions(reference, 8)
                    )
                    seed = bytes(reference.board._seed_page)
                    assert bytes(shared.board._seed_page) == seed
                ext_offset, repeat = ATTACK_SHAPES[shape][index % len(ATTACK_SHAPES[shape])]
                params = GlitchParams(ext_offset, width, offset, repeat=repeat)
                control = _from_reset(image, detect, seed)
                # a record is restored exactly when this page booted before
                assert (shared._usable_baseline() is not None) == (seed in booted)
                booted.add(seed)
                counters = dict(shared.counters)
                got = shared.run_attempt(params, force_simulation=True)
                want = control.run_attempt(params, force_simulation=True)
                assert got == want
                for name in ("hw.settled_exits", "hw.cycles"):
                    assert shared.counters[name] - counters[name] == control.counters[name]
                seed = bytes(control.board._seed_page)
                assert bytes(shared.board._seed_page) == seed

    def test_replay_clears_a_stale_trace_hook(self):
        image = _defended_image("while_not_a", "none")
        params = GlitchParams(3, 40, 40)  # no fault lands: a pure settle tail
        traced, plain = ClockGlitcher(image), ClockGlitcher(image)
        traced.run_attempt(params, force_simulation=True)
        plain.run_attempt(params, force_simulation=True)
        map_cycles_to_instructions(traced, 8)
        # the trace's hook stays on the pipeline the next attempt restores
        # into; the glitcher must install its own run configuration
        stale, calls = traced.board.pipeline.trace_hook, []
        assert stale is not None
        traced.board.pipeline.trace_hook = lambda *args: calls.append(args) or stale(*args)
        assert traced._usable_baseline() is not None
        counters = [dict(glitcher.counters) for glitcher in (traced, plain)]
        assert traced.run_attempt(params, force_simulation=True) == (
            plain.run_attempt(params, force_simulation=True)
        )
        deltas = [
            {name: glitcher.counters[name] - before[name]
             for name in ("hw.settled_exits", "hw.cycles")}
            for glitcher, before in zip((traced, plain), counters)
        ]
        assert deltas[0] == deltas[1]
        assert deltas[0]["hw.settled_exits"] == 1
        assert not calls


# ----------------------------------------------------------------------
# flat step_cycle vs the staged oracle
# ----------------------------------------------------------------------

#: cycle -> (kind, mask, mode, load substitute) for the effects to inject
effect_schedules = st.dictionaries(
    keys=st.integers(0, 300),
    values=st.tuples(
        st.sampled_from(EFFECT_KINDS),
        st.integers(0, 0xFFFF),
        st.sampled_from(("and", "or", "xor")),
        st.sampled_from(("zero", "bus_residue", "sp_leak", "pattern", "mask", "wrong_reg")),
    ),
    max_size=10,
)


@lru_cache(maxsize=None)
def _lockstep_image(name: str):
    if name == "double":
        return build_guard_firmware("a", "double")
    if name == "defended":
        return _defended_image("if_success", "all_no_delay")
    return build_guard_firmware("not_a", "single")


class TestFlatStepCycle:
    @settings(max_examples=60, deadline=None)
    @given(
        image=st.sampled_from(("single", "double", "defended")),
        schedule=effect_schedules,
        gated=st.booleans(),
    )
    def test_matches_staged_cycle(self, image, schedule, gated):
        """Both step functions, one board each, under the same injected
        effects: same state and memory after every cycle, same resolver
        and trace-hook calls, same fault."""
        image = _lockstep_image(image)
        boards = (Board(image), Board(image))
        steps = (boards[0].pipeline.step_cycle,
                 lambda: staged_step_cycle(boards[1].pipeline))
        calls = ([], [])

        def resolver_for(log):
            def resolver(cycle, view):
                log.append((cycle, view))
                draw = schedule.get(cycle)
                if draw is None:
                    return None
                kind, mask, mode, substitute = draw
                return FaultEffect(kind, cycle, mask, mode,
                                   substitute if kind == "load_data" else None)
            return resolver

        for board, log in zip(boards, calls):
            pipeline = board.pipeline
            pipeline.stop_addresses = frozenset({image.symbols["win"]})
            if "exit1" in image.symbols:
                pipeline.milestone_addresses = frozenset({image.symbols["exit1"]})
            pipeline.glitch_resolver = resolver_for(log)
            pipeline.trace_hook = lambda *args, log=log: log.append(("trace",) + args)

        for cycle in range(400):
            if gated:
                # as the glitcher does: a resolver only on glitched cycles
                for board, log in zip(boards, calls):
                    board.pipeline.glitch_resolver = (
                        resolver_for(log) if cycle in schedule else None
                    )
            raised = []
            for step in steps:
                try:
                    step()
                except EmulationFault as exc:
                    raised.append(type(exc))
                else:
                    raised.append(None)
            assert raised[0] == raised[1]
            assert boards[0].pipeline.snapshot_state() == boards[1].pipeline.snapshot_state()
            assert boards[0].ram_image() == boards[1].ram_image()
            assert calls[0] == calls[1]
            pipeline = boards[0].pipeline
            if raised[0] is not None or pipeline.stopped_at is not None or pipeline.cpu.halted:
                break


# ----------------------------------------------------------------------
# hw counters
# ----------------------------------------------------------------------

HW_NAMES = ("hw.fastpath", "hw.simulated", "hw.settled_exits", "hw.cycles")


def _hw_counters(obs: Observer) -> dict:
    return {name: obs.counters[name] for name in HW_NAMES}


class TestHwCounters:
    def test_defense_scan_counters_serial_equals_parallel(self):
        # "all" adds random delay, whose seed page evolves attempt by
        # attempt: serial units share one glitcher's boot records and
        # workers do not, yet every unit must start from the factory page
        for scenario, defense in (("while_not_a", "all_no_delay"), ("if_success", "all")):
            image = _defended_image(scenario, defense)
            counters = []
            for workers in (1, 2):
                obs = Observer()
                result = run_defense_scan(image, "windowed", stride=24, workers=workers,
                                          obs=obs)
                hw = _hw_counters(obs)
                assert hw["hw.fastpath"] + hw["hw.simulated"] == result.attempts
                assert obs.counters["attempts"] == result.attempts
                counters.append(hw)
            assert counters[0] == counters[1], defense
            assert counters[0]["hw.simulated"] > 0
            assert counters[0]["hw.settled_exits"] > 0

    def test_shared_glitcher_scan_counters_serial_equals_parallel(self):
        # the serial path shares one glitcher (and its boot records) across
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
