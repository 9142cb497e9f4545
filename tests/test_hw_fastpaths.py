"""Differentials for the hw hot path's exact fast paths.

Each fast path is checked against the slow computation it replaces:

- the point-memoized ``FaultModel.occurrence_decision`` against a direct
  recomputation from ``_uniform``, for every registered model;
- the process-wide memoized ``FaultModel._uniform`` against the roll
  hashed afresh in ``tests/oracles.py``;
- the first-decision ``ClockGlitcher._occurrence_plan`` against the first
  entry of the full per-cycle plan;
- the memoized shape plans a scan unit decides its fast path from against
  per-point ``run_attempt`` decisions, and the process-wide effect memo
  against the unmemoized realization, for every zoo model and keyed
  apart by calibration;
- the settled-loop exit against the full settle, field by field on
  ``AttemptResult`` and on the persisted seed page, with its state
  lookups made once per loop period (after the taken branch);
- seed-keyed boot records, shared by a scan's units, against
  ``replay=False`` glitchers booting every attempt from reset and
  stepping every cycle, prefix
  records at the glitch start included, and their stepping counters
  against fresh ``replay=True`` glitchers that boot the attempt and take
  the same rejoin exit;
- the flat ``PipelinedCPU.step_cycle`` against the staged cycle in
  ``tests/oracles.py``, in lock-step under random glitch effects, and its
  direct flash fetch against ``Memory.try_fetch_u16``.

Also pins the ``hw.*`` scan counters and the process-wide decode memo.
"""

from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import EmulationFault
from repro.exec import ExecOptions
from repro.experiments.table6 import DEFENSE_STACKS, SCENARIOS, run_table6
from repro.firmware import build_guard_firmware
from repro.firmware.guards import build_defended_guard
from repro.hw import FAULT_MODELS, EMFaultModel, VoltageFaultModel
from repro.hw import pipeline as pipeline_module
from repro.hw.clock import OFFSET_RANGE, WIDTH_RANGE, GlitchParams
from repro.hw.faults import EFFECT_KINDS, FaultEffect, FaultModel, PipelineView
from repro.hw.glitcher import AttemptResult, ClockGlitcher
from repro.hw.mcu import FLASH_BASE, FLASH_SIZE, SEED_PAGE_BASE, SRAM_BASE, Board
from repro.hw.models import resolve_fault_model
from repro.hw.scan import (
    ATTACK_SHAPES,
    _defense_shape_unit,
    _grid,
    _GridSpec,
    _shape_plan,
    map_cycles_to_instructions,
    run_defense_scan,
    run_long_glitch_scan,
)
from repro.obs import Observer
from tests.oracles import staged_step_cycle, uniform_roll

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
        model.memo_key()
        assert model._points
        clone = pickle.loads(pickle.dumps(model))
        assert clone._points == {}
        # memo keys are interned per process: a worker computes its own
        assert clone._key is None
        assert clone.memo_key() == model.memo_key()
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


#: roll arguments: a signed 64-bit seed, a label and up to six keys
seeds = st.integers(-(1 << 63), (1 << 63) - 1)
labels = st.sampled_from(("crashpt", "occurpt", "occur", "follow", "kind", "mode",
                          "subst", "bits", "pos")) | st.text(max_size=8)
roll_keys = st.lists(st.integers(-(1 << 31), 1 << 31), max_size=6)


class TestRollMemo:
    @settings(max_examples=200, deadline=None)
    @given(seed=seeds, label=labels, keys=roll_keys)
    def test_memoized_roll_matches_oracle(self, seed, label, keys):
        model = FaultModel(seed=seed)
        expected = uniform_roll(seed, label, *keys)
        # cold (fills the memo) and warm (reads it)
        assert model._uniform(label, *keys) == expected
        assert model._uniform(label, *keys) == expected
        assert 0.0 <= expected < 1.0

    @settings(max_examples=100, deadline=None)
    @given(seeds=st.lists(seeds, min_size=2, max_size=2, unique=True),
           label=labels, keys=roll_keys)
    def test_rolls_are_keyed_by_seed(self, seeds, label, keys):
        # two models asked for the same (label, keys) back to back must
        # each get their own seed's roll, not the other's memo entry
        for seed in seeds:
            assert FaultModel(seed=seed)._uniform(label, *keys) == (
                uniform_roll(seed, label, *keys)
            )

    @pytest.mark.parametrize("model", [EMFaultModel(), VoltageFaultModel()],
                             ids=["em", "voltage"])
    @settings(max_examples=50, deadline=None)
    @given(label=labels, keys=roll_keys)
    def test_zoo_rolls_match_oracle(self, model, label, keys):
        assert model._uniform(label, *keys) == uniform_roll(model.seed, label, *keys)


@lru_cache(maxsize=None)
def _plan_glitcher(name: str) -> ClockGlitcher:
    return ClockGlitcher(build_guard_firmware("not_a", "single"), fault_model=name)


# ----------------------------------------------------------------------
# shape plans and the effect memo vs per-point decisions
# ----------------------------------------------------------------------

#: every zoo model and bench calibration: name -> glitcher kwargs
ZOO = {name: {"fault_model": name} for name in sorted(FAULT_MODELS)}
SHAPES = sorted({shape for shapes in ATTACK_SHAPES.values() for shape in shapes})


def _decision_glitcher(**kwargs) -> ClockGlitcher:
    """A glitcher whose simulations are stubbed out: ``run_attempt``
    takes its real fast-path decisions and marks every other attempt."""
    glitcher = ClockGlitcher(build_guard_firmware("not_a", "single"), **kwargs)
    glitcher._simulate = lambda params: AttemptResult(category="simulate", params=params)
    return glitcher


class TestShapePlans:
    @pytest.mark.parametrize("name", sorted(ZOO))
    def test_plan_matches_per_point_decisions(self, name):
        glitcher = _decision_glitcher(**ZOO[name])
        model = glitcher.fault_model
        for ext_offset, repeat in SHAPES:
            categories, simulated = {"no_effect": 0, "reset": 0}, []
            for width, offset in _grid(6):
                result = glitcher.run_attempt(GlitchParams(ext_offset, width, offset, repeat))
                if result.category == "simulate":
                    simulated.append(result.params)
                else:
                    categories[result.category] += 1
            plan = model.shape_plan(ext_offset, repeat, _grid(6))
            assert (plan.no_effect, plan.resets) == (categories["no_effect"], categories["reset"])
            assert plan.simulate == tuple(simulated)
            # the memoized plan a unit decides from, and the unit itself
            spec = _GridSpec(None, ext_offset, repeat, 6, model)
            assert _shape_plan(model, spec) == plan
            before = dict(glitcher.counters)
            tally, values = _defense_shape_unit(spec, glitcher)
            assert tally == Counter(categories, simulate=len(simulated))
            assert not values
            fastpath = glitcher.counters["hw.fastpath"] - before["hw.fastpath"]
            assert fastpath == plan.no_effect + plan.resets

    def test_plans_are_keyed_by_calibration(self):
        models = {
            "em": FAULT_MODELS["em"](),
            "em-probe-4mm": _zoo_model("em-probe-4mm"),
            "clock": FaultModel(),
            "clock-reseeded": FaultModel(seed=0x1234),
        }
        keys = {name: model.memo_key() for name, model in models.items()}
        assert len(set(keys.values())) == len(keys)
        # an equal calibration in another instance shares the key
        assert FaultModel().memo_key() == keys["clock"]
        for ext_offset, repeat in ((0, 1), (10, 10), (0, 40)):
            # asked back to back, each model gets its own calibration's plan
            for name, model in models.items():
                spec = _GridSpec(None, ext_offset, repeat, 6, model)
                assert _shape_plan(model, spec) == model.shape_plan(ext_offset, repeat, _grid(6))
        plans = {name: models[name].shape_plan(0, 1, _grid(6)) for name in models}
        assert plans["em"] != plans["em-probe-4mm"]
        assert plans["clock"] != plans["clock-reseeded"]


#: the fault-effect realizations the base model's memo serves
MEMO_ZOO = ("clock", "em", "em-probe-4mm", "replay", "skip", "voltage")
#: (width, offset) draws around the zoo models' fault bands
fault_band = st.tuples(st.integers(-30, 35), st.integers(-30, 20))
views = st.builds(PipelineView, st.sampled_from(("none", "load", "store", "compare",
                                                 "branch", "alu")),
                  st.booleans(), st.booleans())


def _zoo_model(name: str) -> FaultModel:
    return resolve_fault_model(**ZOO[name])


class TestEffectMemo:
    @pytest.mark.parametrize("name", MEMO_ZOO)
    @settings(max_examples=150, deadline=None)
    @given(point=st.one_of(st.tuples(widths, offsets), fault_band),
           ext_offset=st.integers(0, 100), repeat=st.integers(1, 100),
           rel_cycle=st.integers(0, 200), view=views,
           occurrence=st.integers(0, 40), window_index=st.integers(0, 2))
    def test_memoized_effect_matches_realization(
        self, name, point, ext_offset, repeat, rel_cycle, view, occurrence, window_index
    ):
        model, fresh = _zoo_model(name), _zoo_model(name)
        params = GlitchParams(ext_offset, *point, repeat=repeat)
        expected = fresh._realize(params, rel_cycle, view, occurrence, window_index)
        # the base realization; the voltage model's capacitor gate wraps it
        effect_at = FaultModel.effect_at
        # cold (fills the memo) and warm (reads it), from two instances
        assert effect_at(model, params, rel_cycle, view, occurrence, window_index) == expected
        assert effect_at(fresh, params, rel_cycle, view, occurrence, window_index) == expected
        # another shape of the same (width, offset) and glitch length class
        other = GlitchParams((ext_offset + 7) % 101, *point,
                             repeat=repeat if repeat < 4 else 4 + repeat % 50)
        assert effect_at(model, other, rel_cycle, view, occurrence, window_index) == expected

    @settings(max_examples=100, deadline=None)
    @given(point=fault_band, repeat=st.integers(1, 100), rel_cycle=st.integers(0, 200), view=views,
           occurrence=st.integers(0, 40), window_index=st.integers(0, 2))
    def test_calibrations_never_share_an_effect(
        self, point, repeat, rel_cycle, view, occurrence, window_index
    ):
        params = GlitchParams(0, *point, repeat=repeat)
        for pair in ((_zoo_model("em"), _zoo_model("em-probe-4mm")),
                     (FaultModel(), FaultModel(seed=0x1234))):
            assert pair[0].memo_key() != pair[1].memo_key()
            for model in pair + pair:
                assert model.effect_at(params, rel_cycle, view, occurrence, window_index) == (
                    model._realize(params, rel_cycle, view, occurrence, window_index)
                )


# ----------------------------------------------------------------------
# settled-loop exit vs full settle
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _defended_image(scenario: str, defense: str):
    return build_defended_guard(scenario, DEFENSE_STACKS[defense]()).image


def _glitcher_pair(image, replay: bool, **kwargs):
    """Two identical glitchers; the second never takes the settled exit.
    Neither takes the rejoin exit, which would end many of these attempts
    before the settled exit looks (``tests/test_hw_rejoin.py`` checks it)."""
    fast = ClockGlitcher(image, replay=replay, **kwargs)
    full = ClockGlitcher(image, replay=replay, **kwargs)
    full._skip_settled_periods = lambda run, triggers, deadline: 0
    for glitcher in (fast, full):
        glitcher._rejoin = lambda triggers, deadline: None
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

    def test_exit_checks_once_per_period_of_a_long_loop(self):
        """A loop body of 12 restoring instructions: the exit looks the
        state up once per period (after ``b loop`` flushes the pipeline),
        not at every instruction issue."""
        from repro.isa import assemble

        image = assemble("""
_start:
    ldr r0, =0x48000014
    movs r1, #1
    str r1, [r0]
    ldr r2, =0x20000000
loop:
    movs r3, #1
    str r3, [r2]
    movs r3, #2
    str r3, [r2, #4]
    movs r4, #3
    str r4, [r2, #8]
    adds r4, r4, r3
    movs r3, #0
    str r3, [r2]
    str r3, [r2, #4]
    movs r4, #0
    str r4, [r2, #8]
    b loop
win:
    b win
""", base=0x0800_0000)
        fast, full = _glitcher_pair(image, True)
        a = fast.run_unglitched(max_cycles=3_000)
        b = full.run_unglitched(max_cycles=3_000)
        assert (a.category, a.cycles, a.registers) == (b.category, b.cycles, b.registers)
        assert a.cycles == 3_000
        assert fast.counters["hw.settled_exits"] == 1
        # the loop's period, from the cycles at which its head issues
        board = Board(image)
        board.pipeline.milestone_addresses = frozenset({image.symbols["loop"]})
        board.run(200)
        heads = [cycle for cycle, _ in board.pipeline.milestones]
        period = heads[-1] - heads[-2]
        assert period == heads[-2] - heads[-3] > 12
        stepped = fast.counters["hw.cycles"]
        assert stepped < full.counters["hw.cycles"]
        checks = fast.counters["hw.settle_checks"]
        assert 0 < checks <= -(-stepped // period)


# ----------------------------------------------------------------------
# boot records vs from-reset runs
# ----------------------------------------------------------------------

#: one attempt: what happens to the board first, the attack shape element
#: and the grid point
record_attempts = st.tuples(
    st.sampled_from(("none", "reset", "map_cycles")),
    st.sampled_from(sorted(ATTACK_SHAPES)), st.integers(0, 10), band_points,
)


def _from_reset(image, detect, seed: bytes, replay: bool = False) -> ClockGlitcher:
    """A fresh glitcher powered off with ``seed``: its first attempt boots
    from reset.  ``replay=True`` keeps the rejoin exit on."""
    glitcher = ClockGlitcher(image, detect_symbol=detect, replay=replay)
    glitcher.board._seed_page = bytearray(seed)
    return glitcher


STEPPING = ("hw.settled_exits", "hw.cycles", "hw.rejoins", "hw.rejoined_cycles")


def _run_against_reset(shared: ClockGlitcher, image, detect, seed: bytes, params):
    """Run ``params`` on ``shared`` and on two from-reset glitchers from
    ``seed``: the attempts must be equal, and ``shared``'s stepping
    counters exactly those of the ``replay=True`` one (which boots, then
    takes the same exits), and of the ``replay=False`` one (which steps
    every cycle) when the attempt did not rejoin.  Returns the seed page
    the attempt persisted."""
    control = _from_reset(image, detect, seed)
    booted = _from_reset(image, detect, seed, replay=True)
    before = dict(shared.counters)
    got = shared.run_attempt(params, force_simulation=True)
    assert got == control.run_attempt(params, force_simulation=True)
    assert got == booted.run_attempt(params, force_simulation=True)
    assert (booted.counters["hw.full_boots"], booted.counters["hw.baseline_replays"]) == (1, 0)
    delta = {name: shared.counters[name] - before[name] for name in STEPPING}
    assert delta == {name: booted.counters[name] for name in STEPPING}
    if not delta["hw.rejoins"]:
        assert delta == {name: control.counters[name] for name in STEPPING}
    seed = bytes(control.board._seed_page)
    assert bytes(booted.board._seed_page) == bytes(shared.board._seed_page) == seed
    return seed


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
                # a record is restored exactly when this page booted before
                assert (shared._usable_baseline() is not None) == (seed in booted)
                booted.add(seed)
                seed = _run_against_reset(shared, image, detect, seed, params)

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
             for name in ("hw.settled_exits", "hw.cycles", "hw.rejoins")}
            for glitcher, before in zip((traced, plain), counters)
        ]
        assert deltas[0] == deltas[1]
        # the tail is the unglitched run's: the rejoin exit ends it
        assert deltas[0]["hw.rejoins"] == 1
        assert not calls


# ----------------------------------------------------------------------
# prefix records vs from-reset runs
# ----------------------------------------------------------------------

#: a Table VI scan's unit order, sampled: windowed shapes, then single ones
PREFIX_UNITS = [("windowed", index) for index in (0, 1, 3, 6)] + [
    ("single", index) for index in (0, 2, 5, 9)
]
#: each unit's grid points: faulting and crashing ones near the clock band
PREFIX_POINTS = [(20, -10), (14, -4), (26, -20), (47, 0)]

#: a Table II-style guard whose second trigger fires a few cycles after
#: the first, so glitches past the gap land in two open windows
TWO_TRIGGER_GUARD = """
_start:
    ldr r0, =0x48000014
    ldr r3, =0x20000000
    movs r1, #1
    movs r2, #0
    str r2, [r3]
    str r1, [r0]
    str r2, [r0]
    nop
    nop
    str r1, [r0]
loop:
    ldr r4, [r3]
    cmp r4, #0
    beq loop
win:
    b win
"""


class TestPrefixRecords:
    @pytest.mark.parametrize("scenario, defense", [("while_not_a", "all"),
                                                   ("if_success", "none")])
    def test_units_match_from_reset(self, scenario, defense):
        """Units on one shared glitcher, each from the factory page as a
        serial scan runs them, restore the latest record at or before
        their glitch start; every attempt equals a from-reset run."""
        image = _defended_image(scenario, defense)
        detect = "gr_detected" if "gr_detected" in image.symbols else None
        shared = ClockGlitcher(image, detect_symbol=detect)
        for shape, index in PREFIX_UNITS:
            shared.board.erase_seed_page()
            seed = bytes(shared.board._seed_page)
            ext_offset, repeat = ATTACK_SHAPES[shape][index]
            for width, offset in PREFIX_POINTS:
                params = GlitchParams(ext_offset, width, offset, repeat=repeat)
                seed = _run_against_reset(shared, image, detect, seed, params)
        assert shared.counters["hw.restored_cycles"] > 0
        # the exact counter checks above covered rejoined attempts
        assert shared.counters["hw.rejoins"] > 0
        assert all(len(records) <= 2 for records in shared._records.values())
        if defense == "all":
            # random delay: each attempt of a unit powers on with a new page
            assert len(shared._records) == len(PREFIX_POINTS)

    def test_two_trigger_guard_records_only_with_one_window_open(self):
        from repro.isa import assemble

        image = assemble(TWO_TRIGGER_GUARD, base=0x0800_0000)
        board, windows = Board(image), []
        board.trigger_callback = lambda value: windows.append(board.pipeline.cycles + 1)
        board.run(100)
        gap = windows[1] - windows[0]
        shared = ClockGlitcher(image, expected_triggers=2)
        captured = []
        capture = shared._capture_baseline
        shared._capture_baseline = (
            lambda trigger_cycle, rel=0: captured.append(rel) or capture(trigger_cycle, rel)
        )
        for ext_offset in (0, 2, gap - 1, gap, gap + 3, 1, gap + 1, 20):
            for point in PREFIX_POINTS:
                params = GlitchParams(ext_offset, *point)
                control = ClockGlitcher(image, expected_triggers=2, replay=False)
                assert shared.run_attempt(params, force_simulation=True) == (
                    control.run_attempt(params, force_simulation=True)
                )
        # recorded up to the cycle before the second window opens, never in it
        assert max(captured) == gap - 1
        assert shared.counters["hw.restored_cycles"] > 0

    def test_replay_off_keeps_no_records(self):
        image = _defended_image("while_not_a", "none")
        glitcher = ClockGlitcher(image, replay=False)
        for ext_offset in (0, 5, 10):
            glitcher.run_attempt(GlitchParams(ext_offset, 20, -10), force_simulation=True)
        assert glitcher._records == {}
        assert glitcher.counters["hw.restored_cycles"] == 0
        assert glitcher.counters["hw.baseline_replays"] == 0


# ----------------------------------------------------------------------
# direct flash fetch vs Memory.try_fetch_u16
# ----------------------------------------------------------------------

def _fetch_once(board: Board, address: int):
    """One cycle from an empty pipeline fetching at ``address``."""
    pipeline = board.pipeline
    pipeline.fetch_address = address
    pipeline.fetch_latch = pipeline.decode_latch = pipeline.execute_slot = None
    try:
        pipeline.step_cycle()
    except EmulationFault as exc:
        return type(exc), exc.address
    return pipeline.fetch_latch, pipeline.decode_latch, pipeline.fetch_address


#: fetch addresses at and around the edges of flash, plus other regions
fetch_addresses = st.one_of(
    st.sampled_from([FLASH_BASE - 2, FLASH_BASE - 1, FLASH_BASE, FLASH_BASE + 1,
                     FLASH_BASE + FLASH_SIZE - 3, FLASH_BASE + FLASH_SIZE - 2,
                     FLASH_BASE + FLASH_SIZE - 1, FLASH_BASE + FLASH_SIZE,
                     SEED_PAGE_BASE + 2, SRAM_BASE, 0x4800_0014, 0]),
    st.integers(FLASH_BASE, FLASH_BASE + 0x200),
)


class TestDirectFetch:
    @settings(max_examples=60, deadline=None)
    @given(address=fetch_addresses)
    def test_matches_memory_fetch(self, address):
        image = _lockstep_image("single")
        direct, reference = Board(image), Board(image)
        assert direct.pipeline._code_limit > 0
        # no bound region: every fetch goes through Memory.try_fetch_u16
        reference.pipeline._code_limit = 0
        assert _fetch_once(direct, address) == _fetch_once(reference, address)

    def test_reads_the_live_flash_bytes(self):
        board = Board(_lockstep_image("single"))
        board.cpu.memory.load(FLASH_BASE + 0x100, b"\x34\x12")
        assert _fetch_once(board, FLASH_BASE + 0x100)[0] == (FLASH_BASE + 0x100, 0x1234)


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

EFFECT_NAMES = tuple(f"hw.effects.{kind}" for kind in EFFECT_KINDS)
HW_NAMES = ("hw.fastpath", "hw.simulated", "hw.settled_exits", "hw.settle_checks",
            "hw.cycles", "hw.rejoins", "hw.rejoined_cycles") + EFFECT_NAMES


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
                result = run_defense_scan(image, "windowed", stride=24,
                                          execution=ExecOptions(workers=workers), obs=obs)
                hw = _hw_counters(obs)
                assert hw["hw.fastpath"] + hw["hw.simulated"] == result.attempts
                assert obs.counters["attempts"] == result.attempts
                counters.append(hw)
            assert counters[0] == counters[1], defense
            assert counters[0]["hw.simulated"] > 0
            assert counters[0]["hw.settled_exits"] > 0
            assert counters[0]["hw.settle_checks"] >= counters[0]["hw.settled_exits"]
            assert sum(counters[0][name] for name in EFFECT_NAMES) > 0

    def test_cycle_steps_count_the_attempts_step_cycle_calls(self, monkeypatch):
        # replay=False steps every cycle it runs and has no references, so
        # the counter is every step_cycle call; replay=True steps whole
        # instructions between glitch windows, and its references step
        # cycles the counter leaves out
        calls = 0
        step_cycle = pipeline_module.PipelinedCPU.step_cycle

        def counting(pipeline):
            nonlocal calls
            calls += 1
            step_cycle(pipeline)

        monkeypatch.setattr(pipeline_module.PipelinedCPU, "step_cycle", counting)
        image = build_guard_firmware("not_a", "single")
        points = [GlitchParams(0, width, offset) for width, offset in ((-5, 10), (12, -30), (40, 3))]
        steps = {}
        for replay in (False, True):
            glitcher = ClockGlitcher(image, replay=replay)
            calls = 0
            results = [glitcher.run_attempt(params, force_simulation=True) for params in points]
            steps[replay] = glitcher.counters["hw.cycle_steps"], calls, results
        assert steps[False][0] == steps[False][1] > 0
        assert steps[True][0] <= steps[True][1]
        assert steps[True][0] * 5 < steps[False][0]
        assert steps[True][2] == steps[False][2]

    def test_effect_counters_count_every_realized_effect(self, monkeypatch):
        results = []
        run_attempt = ClockGlitcher.run_attempt

        def recording(self, params, force_simulation=False):
            result = run_attempt(self, params, force_simulation)
            results.append(result)
            return result

        monkeypatch.setattr(ClockGlitcher, "run_attempt", recording)
        obs = Observer()
        run_defense_scan(_defended_image("while_not_a", "all_no_delay"), "windowed",
                         stride=24, obs=obs)
        realized = [effect.kind for result in results for effect in result.effects]
        assert realized
        assert sum(obs.counters[name] for name in EFFECT_NAMES) == len(realized)
        for kind in EFFECT_KINDS:
            assert obs.counters[f"hw.effects.{kind}"] == realized.count(kind), kind

    def test_reset_effects_are_counted(self):
        # a crash point, simulated anyway: the resolver realizes the reset
        glitcher = ClockGlitcher(build_guard_firmware("not_a", "single"))
        model = glitcher.fault_model
        params = next(
            GlitchParams(0, width, offset)
            for width in WIDTH_RANGE for offset in OFFSET_RANGE
            if model.occurrence_decision(GlitchParams(0, width, offset), 0) == "crash"
        )
        before = dict(glitcher.counters)
        result = glitcher.run_attempt(params, force_simulation=True)
        assert result.category == "reset"
        assert [effect.kind for effect in result.effects] == ["reset"]
        assert glitcher.counters["hw.effects.reset"] - before["hw.effects.reset"] == 1

    def test_table6_boot_counters_add_up_to_simulated(self):
        # every simulated attempt boots from reset or restores a boot
        # record; the split differs by worker count (serial shape units
        # share one glitcher's records, workers do not), so only the
        # identity is pinned, not serial == parallel boot counts
        for workers in (1, 2):
            obs = Observer()
            run_table6(stride=24, execution=ExecOptions(workers=workers), obs=obs)
            counters = obs.counters
            assert counters["hw.simulated"] > 0
            assert counters["hw.full_boots"] > 0
            assert counters["hw.baseline_replays"] > 0
            assert (counters["hw.full_boots"] + counters["hw.baseline_replays"]
                    == counters["hw.simulated"]), workers

    def test_shared_glitcher_scan_counters_serial_equals_parallel(self):
        # the serial path shares one glitcher (and its boot records) across
        # rows; workers build one per row: the counters still agree
        counters = []
        for workers in (1, 2):
            obs = Observer()
            scan = run_long_glitch_scan("not_a", last_cycles=range(10, 13), stride=16,
                                        execution=ExecOptions(workers=workers), obs=obs)
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
