"""The pluggable fault-model zoo: registry, calibrations, models, bugfixes.

Covers:

- the ``FAULT_MODELS`` registry of models and named bench calibrations,
  with every name's tallies, effect counters and checkpoint fingerprint
  pinned;
- the EMFI and skip/replay models, including their pipeline semantics
  and the skip/replay realization against its reference in
  ``tests/oracles.py``;
- the zoo-wide property/determinism contracts;
- regressions for the voltage recharge-by-cycles bug, the empty-weight
  ``_pick`` crash, and the ``VoltageGlitcher`` ``fault_model`` TypeError.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.emu import CPU, Memory
from repro.errors import GlitchConfigError
from repro.firmware import build_guard_firmware
from repro.hw import (
    EFFECT_KINDS,
    FAULT_MODELS,
    EMFaultModel,
    SkipReplayModel,
    resolve_fault_model,
)
from repro.experiments.table1 import run_table1
from repro.experiments.table6 import run_table6
from repro.hw.clock import OFFSET_RANGE, WIDTH_RANGE, GlitchParams
from repro.hw.faults import FaultEffect, FaultModel, PipelineView
from repro.hw.glitcher import ClockGlitcher
from repro.hw.models import model_meta
from repro.hw.pipeline import PipelinedCPU
from repro.hw.scan import run_single_glitch_scan
from repro.hw.voltage import (
    DEFAULT_RECHARGE_CYCLES,
    VoltageFaultModel,
    VoltageGlitcher,
)
from repro.isa import assemble
from repro.obs import Observer
from tests.oracles import skip_replay_effect

BASE = 0x0800_0000

#: every pipeline view a model can be shown, including the stalled
#: no-fetch/no-decode view PipelinedCPU.step_cycle builds mid-multi-cycle-op and
#: executing classes outside the current classifier's vocabulary
ALL_VIEWS = [
    PipelineView(executing_class=cls, has_fetch=fetch, has_decode=decode)
    for cls in ("load", "store", "compare", "branch", "alu", "none", "dsp")
    for fetch in (True, False)
    for decode in (True, False)
]

#: a band-crossing parameter sample that exercises fault, crash, and
#: no-effect decisions for every registered model
PARAM_SAMPLE = [
    GlitchParams(0, width, offset, repeat=repeat)
    for width in range(-49, 50, 14)
    for offset in range(-49, 50, 14)
    for repeat in (1, 5)
]


def _find_faulting_params(model, rel_cycle=0):
    for width in range(-49, 50):
        for offset in range(-49, 50, 3):
            params = GlitchParams(0, width, offset)
            if model.occurrence_decision(params, rel_cycle) == "fault":
                return params
    raise AssertionError("no faulting parameter point found")


# ----------------------------------------------------------------------
# registry: models and calibrations
# ----------------------------------------------------------------------

#: the five bench calibrations that share the registry with the models
CALIBRATIONS = ("cw-lite-clock", "cw-lite-voltage", "em-probe-4mm", "skip-precise",
                "replay-precise")


class TestRegistry:
    def test_builtin_models_registered(self):
        assert set(FAULT_MODELS) >= {"clock", "voltage", "em", "skip", "replay",
                                     *CALIBRATIONS}

    def test_resolve_by_name(self):
        assert isinstance(resolve_fault_model("clock"), FaultModel)
        assert isinstance(resolve_fault_model("voltage"), VoltageFaultModel)
        assert isinstance(resolve_fault_model("em"), EMFaultModel)
        assert resolve_fault_model("skip").effect == "skip"
        assert resolve_fault_model("replay").effect == "replay"

    def test_resolve_passthrough(self):
        model = EMFaultModel(seed=7)
        assert resolve_fault_model(model) is model
        assert resolve_fault_model(None) is None
        assert resolve_fault_model() is None

    def test_resolve_unknown_name(self):
        with pytest.raises(GlitchConfigError, match="unknown fault model"):
            resolve_fault_model("laser")

    def test_model_meta_names_the_full_calibration(self):
        meta = model_meta(resolve_fault_model("em-probe-4mm"))
        assert meta["class"] == "EMFaultModel"
        assert meta["fault_amplitude"] == 0.92 and meta["width_sigma"] == 13.0
        assert meta != model_meta(EMFaultModel())  # same class and seed
        assert model_meta(SkipReplayModel(effect="skip")) != model_meta(
            SkipReplayModel(effect="replay")
        )

    def test_skip_replay_effect_validated(self):
        with pytest.raises(GlitchConfigError):
            SkipReplayModel(effect="teleport")


class TestProfiles:
    def test_builtin_profiles(self):
        for name in CALIBRATIONS:
            assert isinstance(FAULT_MODELS[name](), FaultModel)
        # the paper's bench is the default clock model
        assert model_meta(resolve_fault_model("cw-lite-clock")) == model_meta(FaultModel())

    def test_profile_applies_calibration(self):
        model = resolve_fault_model("em-probe-4mm")
        assert isinstance(model, EMFaultModel)
        assert model.fault_amplitude == pytest.approx(0.92)
        assert model.width_sigma == pytest.approx(13.0)

    def test_unknown_profile(self):
        with pytest.raises(GlitchConfigError, match="unknown fault model"):
            resolve_fault_model("bench-42")


# ----------------------------------------------------------------------
# zoo-wide contracts
# ----------------------------------------------------------------------

class TestZooContracts:
    @pytest.mark.parametrize("name", sorted(FAULT_MODELS))
    def test_effects_are_none_or_known_kind(self, name):
        """Every model × every reachable view → None or a valid FaultEffect."""
        model = FAULT_MODELS[name]()
        for params in PARAM_SAMPLE:
            for view in ALL_VIEWS:
                effect = model.effect_at(params, 0, view, 0)
                if effect is None:
                    continue
                assert isinstance(effect, FaultEffect)
                assert effect.kind in EFFECT_KINDS

    @pytest.mark.parametrize("name", sorted(FAULT_MODELS))
    def test_deterministic_across_instances(self, name):
        """Same seed + params + cycle → identical effect, for the whole zoo."""
        first, second = FAULT_MODELS[name](), FAULT_MODELS[name]()
        view = PipelineView(executing_class="load")
        for params in PARAM_SAMPLE:
            for rel_cycle in (0, 3):
                a = first.effect_at(params, rel_cycle, view, 0, absolute_cycle=rel_cycle)
                b = second.effect_at(params, rel_cycle, view, 0, absolute_cycle=rel_cycle)
                assert a == b
                # stateful models need a fresh run before the next point
                first.begin_run()
                second.begin_run()

    @pytest.mark.parametrize("name", sorted(FAULT_MODELS))
    def test_scan_end_to_end(self, name):
        """One small scan per registered model completes with sane tallies."""
        scan = run_single_glitch_scan("not_a", stride=24, fault_model=name)
        assert scan.total_attempts > 0
        assert 0 <= scan.total_successes <= scan.total_attempts

    def test_em_model_is_front_end_dominated(self):
        """EMFI realizes overwhelmingly as fetch/decode replacement."""
        model = EMFaultModel()
        view = PipelineView(executing_class="load")
        kinds = {"front": 0, "other": 0}
        for width in range(-49, 50, 2):
            for offset in range(-49, 50, 2):
                effect = model.effect_at(GlitchParams(0, width, offset), 0, view, 0)
                if effect is None or effect.kind == "reset":
                    continue
                bucket = "front" if effect.kind in ("fetch", "decode") else "other"
                kinds[bucket] += 1
        assert kinds["front"] > 10 * max(kinds["other"], 1)

    def test_em_masks_stay_narrow(self):
        model = EMFaultModel()
        view = PipelineView(executing_class="none")
        for params in PARAM_SAMPLE:
            effect = model.effect_at(params, 0, view, 0)
            if effect is not None and effect.mask:
                assert bin(effect.mask).count("1") <= 2


# ----------------------------------------------------------------------
# satellite bugfix regressions
# ----------------------------------------------------------------------

class TestEmptyWeightPick:
    def test_pick_empty_names_returns_none(self):
        model = FaultModel()
        assert model._pick("kind", (), (), GlitchParams(0, 20, -10), 0, 0) is None

    def test_stalled_unmatched_view_returns_none(self):
        """A no-fetch/no-decode view with an unknown class must not raise."""
        model = FaultModel()
        params = _find_faulting_params(model)
        view = PipelineView(executing_class="dsp", has_fetch=False, has_decode=False)
        # the decision is "fault" but nothing is corruptible: no corruption
        assert model.effect_at(params, 0, view, 0) is None

    def test_pick_kind_empty_view(self):
        model = FaultModel()
        view = PipelineView(executing_class="none", has_fetch=False, has_decode=False)
        assert model._pick_kind(GlitchParams(0, 20, -10), 0, view, 0) is None


class TestVoltageRechargeByCycles:
    def test_dead_time_without_absolute_cycle(self):
        """The recharge window is measured in cycles even when the caller
        omits ``absolute_cycle`` — the old code compared the occurrence
        *count* against the 48-cycle budget, capping such callers at one
        bite per ~48 realized effects regardless of elapsed time."""
        model = VoltageFaultModel()
        view = PipelineView(executing_class="load")
        params = _find_faulting_params(model)
        model.begin_run()
        first = model.effect_at(params, 0, view, 0)
        assert first is not None
        # occurrence jumps by one but only a few cycles elapsed: dead time
        inside = model.effect_at(params, 5, view, 1)
        assert inside is None
        # the same occurrence counter far enough in the future bites again
        far_cycle = DEFAULT_RECHARGE_CYCLES + 10
        if model.occurrence_decision(params, far_cycle) == "fault":
            after = model.effect_at(params, far_cycle, view, 2)
            assert after is not None

    def test_begin_run_recharges(self):
        model = VoltageFaultModel()
        view = PipelineView(executing_class="load")
        params = _find_faulting_params(model)
        model.begin_run()
        assert model.effect_at(params, 0, view, 0) is not None
        assert model.effect_at(params, 1, view, 1) is None
        model.begin_run()  # a new run starts with a charged capacitor
        assert model.effect_at(params, 0, view, 0) is not None


class TestVoltageGlitcherInjection:
    def test_fault_model_kwarg_no_longer_raises(self):
        firmware = build_guard_firmware("not_a", "single")
        model = VoltageFaultModel(seed=0x1234)
        glitcher = VoltageGlitcher(firmware, fault_model=model)
        assert glitcher.fault_model is model

    def test_fault_model_by_name_and_profile(self):
        firmware = build_guard_firmware("not_a", "single")
        for name in ("voltage", "cw-lite-voltage"):
            assert isinstance(
                VoltageGlitcher(firmware, fault_model=name).fault_model,
                VoltageFaultModel,
            )

    def test_default_still_voltage_model(self):
        firmware = build_guard_firmware("not_a", "single")
        assert isinstance(VoltageGlitcher(firmware).fault_model, VoltageFaultModel)

    def test_clock_glitcher_accepts_names_and_profiles(self):
        firmware = build_guard_firmware("not_a", "single")
        assert isinstance(
            ClockGlitcher(firmware, fault_model="em").fault_model, EMFaultModel
        )
        assert isinstance(
            ClockGlitcher(firmware, fault_model="skip-precise").fault_model,
            SkipReplayModel,
        )

    def test_scan_rejects_glitcher_plus_profile(self):
        firmware = build_guard_firmware("not_a", "single")
        glitcher = ClockGlitcher(firmware)
        with pytest.raises(ValueError, match="not both"):
            run_single_glitch_scan("not_a", glitcher=glitcher, fault_model="cw-lite-clock")


# ----------------------------------------------------------------------
# skip/replay pipeline semantics
# ----------------------------------------------------------------------

def _build_pipeline(source: str):
    program = assemble(source, base=BASE)
    memory = Memory()
    memory.map("flash", BASE, max(0x400, len(program.code)), writable=False, executable=True)
    memory.map("ram", 0x2000_0000, 0x1000)
    memory.load(BASE, program.code)
    cpu = CPU(memory)
    cpu.pc = BASE
    cpu.sp = 0x2000_1000
    return program, PipelinedCPU(cpu)


def _inject_at(pipe: PipelinedCPU, kind: str, cycle: int) -> None:
    pipe.glitch_resolver = (
        lambda c, view: FaultEffect(kind=kind, rel_cycle=c) if c == cycle else None
    )


class TestSkipReplayPipeline:
    SOURCE = "movs r0, #1\nmovs r1, #2\nmovs r2, #3\nbkpt #0"

    def test_skip_squashes_one_instruction(self):
        # instruction i executes at cycle 2 + i: skip `movs r1, #2`
        _, pipe = _build_pipeline(self.SOURCE)
        _inject_at(pipe, "skip", 3)
        assert pipe.run(100) == "halted"
        assert pipe.cpu.regs[0] == 1
        assert pipe.cpu.regs[1] == 0  # skipped: never written
        assert pipe.cpu.regs[2] == 3  # younger instructions unaffected

    def test_replay_reexecutes_previous_instruction(self):
        # replay at `movs r1, #2` re-runs `movs r0, #1` in its place
        _, pipe = _build_pipeline(self.SOURCE)
        _inject_at(pipe, "replay", 3)
        assert pipe.run(100) == "halted"
        assert pipe.cpu.regs[0] == 1  # re-executed (same result)
        assert pipe.cpu.regs[1] == 0  # displaced: never written
        assert pipe.cpu.regs[2] == 3

    def test_replay_with_no_history_degrades_to_skip(self):
        # the very first instruction has no retired predecessor
        _, pipe = _build_pipeline(self.SOURCE)
        _inject_at(pipe, "replay", 2)
        assert pipe.run(100) == "halted"
        assert pipe.cpu.regs[0] == 0
        assert pipe.cpu.regs[1] == 2

    def test_skip_effect_kinds_registered(self):
        assert "skip" in EFFECT_KINDS and "replay" in EFFECT_KINDS

    def test_snapshot_round_trips_replay_history(self):
        _, pipe = _build_pipeline(self.SOURCE)
        for _ in range(4):
            pipe.step_cycle()
        state = pipe.snapshot_state()
        assert state.last_retired_raw is not None
        fresh = _build_pipeline(self.SOURCE)[1]
        fresh.restore_state(state)
        assert fresh._last_retired_raw == pipe._last_retired_raw

    @pytest.mark.parametrize("name", ["skip", "replay", "skip-precise", "replay-precise"])
    @settings(max_examples=150, deadline=None)
    @given(point=st.one_of(
               st.tuples(st.integers(WIDTH_RANGE.start, WIDTH_RANGE.stop - 1),
                         st.integers(OFFSET_RANGE.start, OFFSET_RANGE.stop - 1)),
               st.tuples(st.integers(5, 35), st.integers(-30, 10))),
           repeat=st.integers(1, 100), rel_cycle=st.integers(0, 200),
           view=st.sampled_from(ALL_VIEWS), occurrence=st.integers(0, 40),
           window_index=st.integers(0, 2))
    def test_realization_matches_oracle(
        self, name, point, repeat, rel_cycle, view, occurrence, window_index
    ):
        """The memoized base realization against the skip/replay reference."""
        model = resolve_fault_model(name)
        params = GlitchParams(0, *point, repeat=repeat)
        expected = skip_replay_effect(model, params, rel_cycle, view, occurrence, window_index)
        for _ in range(2):  # cold, then served by the memo
            assert model.effect_at(params, rel_cycle, view, occurrence, window_index) == expected

    def test_skip_model_end_to_end_success(self):
        """A skip attacker can break a guard loop through the glitcher."""
        firmware = build_guard_firmware("not_a", "single")
        glitcher = ClockGlitcher(firmware, fault_model="skip")
        scan = run_single_glitch_scan("not_a", stride=8, glitcher=glitcher)
        assert scan.total_attempts > 0
        # skipping the guard's compare/branch is exactly the paper's
        # "skip" mechanism: the attack must land at least once
        assert scan.total_successes > 0


# ----------------------------------------------------------------------
# every registry name, pinned
# ----------------------------------------------------------------------

#: Each registry name's behaviour, recorded when the five calibrations
#: were still built by a separate calibration-profile selector: Table I
#: at stride 6 as per-guard (successes, resets, unique register values),
#: that run's nonzero ``hw.effects.*`` counters, the Table VI
#: while(!a) ``single`` rows at stride 12 as per-defense (successes,
#: detections, resets, attempts), and the ``model_meta`` checkpoint
#: fingerprint (unchanged, so checkpoints written then still resume).
REGISTRY_PINS = {
    "clock": (
        {"not_a": (19, 234, 7), "a": (5, 234, 2), "a_ne_const": (8, 226, 2)},
        {"branch_decision": 9, "cmp_transient": 3, "decode": 27, "fetch": 95, "load_data": 22},
        {"none": (9, 0, 68, 891), "all_no_delay": (7, 2, 68, 891)},
        {"class": "FaultModel", "crash_amplitude": 0.4, "fault_amplitude": 0.95,
         "follow_up_attenuation": 0.45, "offset_center": -10.0, "offset_sigma": 13.0,
         "seed": 1611489005, "width_center": 20.0, "width_sigma": 9.0},
    ),
    "cw-lite-clock": (
        {"not_a": (19, 234, 7), "a": (5, 234, 2), "a_ne_const": (8, 226, 2)},
        {"branch_decision": 9, "cmp_transient": 3, "decode": 27, "fetch": 95, "load_data": 22},
        {"none": (9, 0, 68, 891), "all_no_delay": (7, 2, 68, 891)},
        {"class": "FaultModel", "crash_amplitude": 0.4, "fault_amplitude": 0.95,
         "follow_up_attenuation": 0.45, "offset_center": -10.0, "offset_sigma": 13.0,
         "seed": 1611489005, "width_center": 20.0, "width_sigma": 9.0},
    ),
    "cw-lite-voltage": (
        {"not_a": (2, 314, 2), "a": (0, 314, 0), "a_ne_const": (0, 312, 0)},
        {"decode": 7, "fetch": 8, "load_data": 1, "writeback": 2},
        {"none": (0, 0, 176, 891), "all_no_delay": (0, 0, 176, 891)},
        {"class": "VoltageFaultModel", "crash_amplitude": 0.6, "fault_amplitude": 0.85,
         "follow_up_attenuation": 0.0, "offset_center": -18.0, "offset_sigma": 10.0,
         "recharge_cycles": 48, "seed": 195936478, "width_center": -24.0,
         "width_sigma": 8.0},
    ),
    "em": (
        {"not_a": (20, 259, 5), "a": (4, 259, 1), "a_ne_const": (6, 256, 1)},
        {"branch_decision": 3, "decode": 41, "fetch": 107, "load_data": 11},
        {"none": (5, 0, 81, 891), "all_no_delay": (2, 3, 81, 891)},
        {"class": "EMFaultModel", "crash_amplitude": 0.3, "fault_amplitude": 0.9,
         "follow_up_attenuation": 0.3, "offset_center": 8.0, "offset_sigma": 12.0,
         "seed": 3790369056, "width_center": 12.0, "width_sigma": 11.0},
    ),
    "em-probe-4mm": (
        {"not_a": (25, 276, 7), "a": (6, 276, 2), "a_ne_const": (8, 273, 1)},
        {"branch_decision": 3, "cmp_transient": 3, "decode": 48, "fetch": 142, "load_data": 11},
        {"none": (7, 0, 84, 891), "all_no_delay": (3, 4, 84, 891)},
        {"class": "EMFaultModel", "crash_amplitude": 0.3, "fault_amplitude": 0.92,
         "follow_up_attenuation": 0.3, "offset_center": 8.0, "offset_sigma": 12.0,
         "seed": 3790369056, "width_center": 12.0, "width_sigma": 13.0},
    ),
    "replay": (
        {"not_a": (14, 195, 3), "a": (4, 195, 1), "a_ne_const": (10, 184, 1)},
        {"replay": 105},
        {"none": (3, 0, 121, 891), "all_no_delay": (3, 0, 121, 891)},
        {"class": "SkipReplayModel", "crash_amplitude": 0.25, "effect": "replay",
         "fault_amplitude": 0.9, "follow_up_attenuation": 0.6, "offset_center": -10.0,
         "offset_sigma": 13.0, "seed": 1592611198, "width_center": 20.0,
         "width_sigma": 9.0},
    ),
    "replay-precise": (
        {"not_a": (19, 187, 3), "a": (6, 187, 1), "a_ne_const": (15, 176, 1)},
        {"replay": 126},
        {"none": (6, 0, 121, 891), "all_no_delay": (5, 1, 121, 891)},
        {"class": "SkipReplayModel", "crash_amplitude": 0.1, "effect": "replay",
         "fault_amplitude": 0.97, "follow_up_attenuation": 0.6, "offset_center": -10.0,
         "offset_sigma": 13.0, "seed": 1592611198, "width_center": 20.0,
         "width_sigma": 9.0},
    ),
    "skip": (
        {"not_a": (19, 190, 3), "a": (4, 190, 1), "a_ne_const": (10, 184, 1)},
        {"skip": 105},
        {"none": (3, 0, 121, 891), "all_no_delay": (3, 0, 121, 891)},
        {"class": "SkipReplayModel", "crash_amplitude": 0.25, "effect": "skip",
         "fault_amplitude": 0.9, "follow_up_attenuation": 0.6, "offset_center": -10.0,
         "offset_sigma": 13.0, "seed": 1592611198, "width_center": 20.0,
         "width_sigma": 9.0},
    ),
    "skip-precise": (
        {"not_a": (24, 182, 3), "a": (6, 182, 1), "a_ne_const": (15, 176, 1)},
        {"skip": 126},
        {"none": (6, 0, 121, 891), "all_no_delay": (5, 1, 121, 891)},
        {"class": "SkipReplayModel", "crash_amplitude": 0.1, "effect": "skip",
         "fault_amplitude": 0.97, "follow_up_attenuation": 0.6, "offset_center": -10.0,
         "offset_sigma": 13.0, "seed": 1592611198, "width_center": 20.0,
         "width_sigma": 9.0},
    ),
    "voltage": (
        {"not_a": (2, 314, 2), "a": (0, 314, 0), "a_ne_const": (0, 312, 0)},
        {"decode": 7, "fetch": 8, "load_data": 1, "writeback": 2},
        {"none": (0, 0, 176, 891), "all_no_delay": (0, 0, 176, 891)},
        {"class": "VoltageFaultModel", "crash_amplitude": 0.6, "fault_amplitude": 0.85,
         "follow_up_attenuation": 0.0, "offset_center": -18.0, "offset_sigma": 10.0,
         "recharge_cycles": 48, "seed": 195936478, "width_center": -24.0,
         "width_sigma": 8.0},
    ),
}


#: Each registry name's :func:`_realization_digest`, recorded with
#: :data:`REGISTRY_PINS`: every mask, mode and substitute the model draws.
REALIZATION_DIGESTS = {
    "clock": "8047abb48a569666",
    "cw-lite-clock": "8047abb48a569666",
    "cw-lite-voltage": "3f8fe64163644c2c",
    "em": "968b43154d3f1725",
    "em-probe-4mm": "b7e83a684d9831b3",
    "replay": "3a5d582be93a2499",
    "replay-precise": "edc9cb0459dd1adc",
    "skip": "5b62038b4906e92a",
    "skip-precise": "8d83b46988be1aad",
    "voltage": "3f8fe64163644c2c",
}


def _realization_digest(model) -> str:
    """A digest of ``model.effect_at`` at every other grid point whose
    first glitched cycle faults: both glitch lengths, five pipeline views
    and two occurrences (the second in a follow-up window), each from a
    fresh run."""
    views = (PipelineView("load"), PipelineView("compare", False),
             PipelineView("store", True, False), PipelineView("branch"), PipelineView("alu"))
    effects = []
    for width in range(WIDTH_RANGE.start, WIDTH_RANGE.stop, 2):
        for offset in range(OFFSET_RANGE.start, OFFSET_RANGE.stop, 2):
            if model.first_occurrence(GlitchParams(0, width, offset)) != (0, "fault"):
                continue
            for repeat in (1, 5):
                params = GlitchParams(0, width, offset, repeat=repeat)
                for view in views:
                    for occurrence in (0, 1):
                        model.begin_run()
                        effect = model.effect_at(params, 0, view, occurrence, occurrence)
                        effects.append(effect and effect.cache_key())
    return hashlib.blake2b(repr(effects).encode(), digest_size=8).hexdigest()


class TestRegistryPins:
    def test_every_name_is_pinned(self):
        assert set(FAULT_MODELS) == set(REGISTRY_PINS) == set(REALIZATION_DIGESTS)

    @pytest.mark.parametrize("name", sorted(REGISTRY_PINS))
    def test_name_reproduces_its_pins(self, name):
        table1, effects, table6, meta = REGISTRY_PINS[name]
        obs = Observer()
        scans = run_table1(stride=6, fault_model=name, obs=obs).scans
        assert {
            guard: (scan.total_successes, sum(row.resets for row in scan.rows),
                    scan.unique_register_values)
            for guard, scan in scans.items()
        } == table1
        assert {
            counter[len("hw.effects."):]: value
            for counter, value in obs.counters.items()
            if counter.startswith("hw.effects.") and value
        } == effects
        rows = run_table6(stride=12, attacks=("single",), scenarios=("while_not_a",),
                          defenses=tuple(table6), fault_model=name).results
        assert {
            defense: (row.successes, row.detections, row.resets, row.attempts)
            for (_, defense, _), row in rows.items()
        } == table6
        assert model_meta(resolve_fault_model(name)) == meta

    @pytest.mark.parametrize("name", sorted(REALIZATION_DIGESTS))
    def test_name_realizes_its_pinned_effects(self, name):
        assert _realization_digest(resolve_fault_model(name)) == REALIZATION_DIGESTS[name]
