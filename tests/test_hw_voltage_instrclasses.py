"""Tests for the voltage-glitcher variant and the instruction-class sweeps."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GlitchConfigError
from repro.firmware import build_guard_firmware
from repro.glitchsim.instr_classes import (
    sweep_all_classes,
    sweep_instruction_class,
)
from repro.hw.clock import GlitchParams
from repro.hw.faults import PipelineView
from repro.hw.voltage import (
    DEFAULT_RECHARGE_CYCLES,
    VoltageFaultModel,
    VoltageGlitchParams,
    VoltageGlitcher,
)


class TestVoltageParams:
    def test_valid(self):
        params = VoltageGlitchParams(ext_offset=2, dip=-30, duration=10)
        clock = params.as_clock_params()
        assert clock.ext_offset == 2
        assert (clock.width, clock.offset) == (10, -30)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ext_offset": -1, "dip": 0, "duration": 0},
            {"ext_offset": 0, "dip": -50, "duration": 0},
            {"ext_offset": 0, "dip": 0, "duration": 99},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(GlitchConfigError):
            VoltageGlitchParams(**kwargs)


class TestVoltageFaultModel:
    def test_undervolt_sweet_spot(self):
        model = VoltageFaultModel()
        # sweet spot sits at negative offset (deep undervolt)
        assert model.fault_probability(-24, -18) > 0.8
        assert model.fault_probability(40, 40) < 1e-6

    def test_crash_halo_fatter_than_clock(self):
        from repro.hw.faults import FaultModel

        voltage = VoltageFaultModel()
        clock = FaultModel()
        assert voltage.crash_amplitude > clock.crash_amplitude

    def test_recharge_dead_time(self):
        model = VoltageFaultModel()
        view = PipelineView(executing_class="load")
        # find a biting parameter point
        params = None
        for dip in range(-49, 0):
            for duration in range(-49, 50, 3):
                candidate = GlitchParams(0, duration, dip)
                if model.occurrence_decision(candidate, 0) == "fault":
                    params = candidate
                    break
            if params:
                break
        assert params is not None
        model.begin_run()
        first = model.effect_at(params, 0, view, 0, absolute_cycle=100)
        assert first is not None
        # a second glitch inside the recharge window never bites
        second = model.effect_at(params, 0, view, 1, absolute_cycle=110)
        assert second is None
        # after the capacitor recovers, it bites again
        third = model.effect_at(
            params, 0, view, 2, absolute_cycle=100 + DEFAULT_RECHARGE_CYCLES + 10
        )
        assert third is not None

    def test_reset_recharge_clears_state(self):
        model = VoltageFaultModel()
        model._last_bite_cycle = 5
        model.begin_run()
        assert model._last_bite_cycle is None


class TestVoltageGlitcher:
    @pytest.fixture(scope="class")
    def glitcher(self):
        return VoltageGlitcher(build_guard_firmware("not_a", "single"))

    def test_unglitched(self, glitcher):
        result = glitcher.run_unglitched(max_cycles=300)
        assert result.category == "no_effect"

    def test_attempts_classify(self, glitcher):
        categories = set()
        for dip in range(-49, 0, 4):
            for duration in range(-49, 50, 6):
                result = glitcher.run_attempt(VoltageGlitchParams(2, dip, duration))
                categories.add(result.category)
        assert categories <= {"success", "reset", "no_effect", "detected"}
        assert "reset" in categories  # the brown-out halo is easy to hit

    def test_multi_glitch_prohibited_by_recharge(self):
        """§V-C: the recharge constraint 'would prohibit EM or voltage
        glitching' for back-to-back multi-glitches.

        Full successes requiring *two bites* are impossible; the only
        survivors are single-bite attempts whose one corruption persistently
        poisons state for both loops (e.g. the ldrb→strb single-bit flip
        that writes a non-zero byte over the guarded variable itself) —
        verified by checking every success used at most one effect.
        """
        glitcher = VoltageGlitcher(
            build_guard_firmware("not_a", "double"), expected_triggers=2
        )
        full = partial = 0
        for dip in range(-49, 0, 2):
            for duration in range(-49, 50, 2):
                result = glitcher.run_attempt(VoltageGlitchParams(2, dip, duration))
                if result.category == "success":
                    full += 1
                    assert len(result.effects) <= 1, (
                        "a voltage multi-glitch success used two bites inside "
                        "the recharge dead time"
                    )
                elif result.category == "partial":
                    partial += 1
        assert partial >= 1
        assert full <= partial  # double glitching is the hard direction


class TestInstructionClassSweeps:
    @pytest.fixture(scope="class")
    def results(self):
        return sweep_all_classes("and")

    def test_all_classes_present(self, results):
        assert set(results) == {"load", "store", "compare", "alu", "move"}

    def test_rates_partition(self, results):
        for result in results.values():
            total = (
                result.silent_neutralizations + result.derailments + result.still_effective
            )
            assert total == result.attempts == 2 ** 16

    def test_memory_ops_derail_more_than_alu(self, results):
        """§V-A's shape at the encoding level: corrupted memory ops fault on
        wild addresses; corrupted register-register ALU ops rarely derail."""
        assert results["load"].derail_rate > results["alu"].derail_rate
        assert results["store"].derail_rate > results["move"].derail_rate

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError):
            sweep_instruction_class("fpu")

    def test_subsampled_ks(self):
        result = sweep_instruction_class("alu", k_values=(1, 2))
        assert result.attempts == 16 + 120

    @pytest.mark.parametrize("model", ["and", "or", "xor"])
    def test_algebra_equals_enumerate(self, model):
        from tests.oracles import enumerate_class_sweep

        kwargs = dict(model=model, k_values=(0, 1, 2, 16))
        algebra = sweep_instruction_class("compare", **kwargs)
        oracle = enumerate_class_sweep("compare", **kwargs)
        assert (
            algebra.attempts,
            algebra.still_effective,
            algebra.silent_neutralizations,
            algebra.derailments,
        ) == (
            oracle.attempts,
            oracle.still_effective,
            oracle.silent_neutralizations,
            oracle.derailments,
        )

    def test_unknown_tally_rejected(self):
        """There is one tallying strategy; the ``tally`` option is gone."""
        with pytest.raises(TypeError, match="tally"):
            sweep_instruction_class("alu", tally="algebra")

    def test_engine_option_rejected(self):
        """The sweep always runs one lock-step batch; the ``engine`` option is gone."""
        with pytest.raises(TypeError, match="engine"):
            sweep_instruction_class("alu", engine="vector")

    @given(st.sampled_from(["load", "compare", "alu"]))
    @settings(max_examples=3, deadline=None)
    def test_or_model_also_classifies(self, name):
        result = sweep_instruction_class(name, model="or", k_values=(1, 2, 3))
        assert result.attempts == 16 + 120 + 560
