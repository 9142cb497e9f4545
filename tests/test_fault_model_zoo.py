"""The pluggable fault-model zoo: registry, profiles, new models, bugfixes.

Covers the ISSUE-7 tentpole and satellites:

- the ``FAULT_MODELS`` registry and named ``CalibrationProfile`` bundles;
- the EMFI and skip/replay models, including their pipeline semantics;
- the zoo-wide property/determinism contracts;
- regressions for the voltage recharge-by-cycles bug, the empty-weight
  ``_pick`` crash, and the ``VoltageGlitcher`` ``fault_model`` TypeError.
"""

import pytest

from repro.emu import CPU, Memory
from repro.errors import GlitchConfigError
from repro.firmware import build_guard_firmware
from repro.hw import (
    EFFECT_KINDS,
    FAULT_MODELS,
    PROFILES,
    CalibrationProfile,
    EMFaultModel,
    SkipReplayModel,
    model_label,
    resolve_fault_model,
)
from repro.hw.clock import GlitchParams
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
# registry + profiles
# ----------------------------------------------------------------------

class TestRegistry:
    def test_builtin_models_registered(self):
        assert set(FAULT_MODELS) >= {"clock", "voltage", "em", "skip", "replay"}

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

    def test_model_label(self):
        assert model_label(None) == "clock"
        assert model_label(FaultModel()) == "clock"
        assert model_label(VoltageFaultModel()) == "voltage"
        assert model_label(EMFaultModel()) == "em"
        assert model_label(SkipReplayModel(effect="skip")) == "skip"
        assert model_label(SkipReplayModel(effect="replay")) == "replay"

    def test_model_meta_names_the_full_calibration(self):
        meta = model_meta(PROFILES["em-probe-4mm"].build())
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
        assert set(PROFILES) >= {
            "cw-lite-clock", "cw-lite-voltage", "em-probe-4mm",
            "skip-precise", "replay-precise",
        }
        for profile in PROFILES.values():
            assert profile.model in FAULT_MODELS
            assert isinstance(profile.build(), FaultModel)

    def test_profile_applies_calibration(self):
        model = resolve_fault_model(profile="em-probe-4mm")
        assert isinstance(model, EMFaultModel)
        assert model.fault_amplitude == pytest.approx(0.92)
        assert model.width_sigma == pytest.approx(13.0)

    def test_profile_seed_override(self):
        profile = CalibrationProfile(name="x", model="clock", seed=0xABCD)
        assert profile.build().seed == 0xABCD

    def test_unknown_profile(self):
        with pytest.raises(GlitchConfigError, match="unknown calibration profile"):
            resolve_fault_model(profile="bench-42")

    def test_profile_with_matching_name_ok(self):
        model = resolve_fault_model("em", profile="em-probe-4mm")
        assert isinstance(model, EMFaultModel)

    def test_profile_with_mismatched_name(self):
        with pytest.raises(GlitchConfigError, match="calibrates"):
            resolve_fault_model("clock", profile="em-probe-4mm")

    def test_profile_with_instance(self):
        with pytest.raises(GlitchConfigError, match="not both"):
            resolve_fault_model(FaultModel(), profile="cw-lite-clock")

    def test_unknown_model_in_profile(self):
        profile = CalibrationProfile(name="x", model="laser")
        with pytest.raises(GlitchConfigError, match="unknown model"):
            profile.build()


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
        assert isinstance(
            VoltageGlitcher(firmware, fault_model="voltage").fault_model,
            VoltageFaultModel,
        )
        by_profile = VoltageGlitcher(firmware, profile="cw-lite-voltage")
        assert isinstance(by_profile.fault_model, VoltageFaultModel)

    def test_default_still_voltage_model(self):
        firmware = build_guard_firmware("not_a", "single")
        assert isinstance(VoltageGlitcher(firmware).fault_model, VoltageFaultModel)

    def test_clock_glitcher_accepts_names_and_profiles(self):
        firmware = build_guard_firmware("not_a", "single")
        assert isinstance(
            ClockGlitcher(firmware, fault_model="em").fault_model, EMFaultModel
        )
        assert isinstance(
            ClockGlitcher(firmware, profile="skip-precise").fault_model,
            SkipReplayModel,
        )

    def test_scan_rejects_glitcher_plus_profile(self):
        firmware = build_guard_firmware("not_a", "single")
        glitcher = ClockGlitcher(firmware)
        with pytest.raises(ValueError, match="not both"):
            run_single_glitch_scan("not_a", glitcher=glitcher, profile="cw-lite-clock")


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

    def test_skip_model_end_to_end_success(self):
        """A skip attacker can break a guard loop through the glitcher."""
        firmware = build_guard_firmware("not_a", "single")
        glitcher = ClockGlitcher(firmware, fault_model="skip")
        scan = run_single_glitch_scan("not_a", stride=8, glitcher=glitcher)
        assert scan.total_attempts > 0
        # skipping the guard's compare/branch is exactly the paper's
        # "skip" mechanism: the attack must land at least once
        assert scan.total_successes > 0
