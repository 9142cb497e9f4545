"""Ablation benchmarks for the design choices DESIGN.md calls out.

1. Complemented vs plain redundant compares: the paper complements the
   redundant comparison "so the same bit flips repeated twice would not be
   able to bypass both checks" — measured here as the fraction of
   identical-double-corruption events each variant lets through.
2. Random-delay depth: widening the NOP window spreads the glitch landing
   cycles further (boot-to-guard timing variance grows).
3. Per-defense single-glitch contribution on the worst-case guard.
"""

import pytest

from repro.compiler import ir
from repro.firmware.guards import build_defended_guard
from repro.hw.scan import run_defense_scan
from repro.resistor import ResistorConfig
from repro.resistor.runtime import lcg_reference


class TestComplementedChecksAblation:
    def _double_flip_survives(self, complemented: bool) -> int:
        """Model the §VI-B.b argument directly at the IR level: apply the
        *same* bit flip to the value feeding both the original and the
        redundant comparison; count bypasses over a basket of flips."""
        from repro.compiler.passes.constfold import _CMP

        survived = 0
        guard_value, compared = 0, 0  # while (a == 0) with a == 0
        for bit in range(32):
            flipped = guard_value ^ (1 << bit)
            first = _CMP["ne"](flipped, compared)  # glitched exit: a != 0
            if not first:
                continue
            if complemented:
                # redundant check sees the complement domain: ~a != ~0
                second = _CMP["ne"](flipped ^ 0xFFFFFFFF, compared ^ 0xFFFFFFFF)
            else:
                second = _CMP["ne"](flipped, compared)
            if second:
                survived += 1
        return survived

    def test_value_corruption_passes_both_variants(self):
        # a *consistent* value corruption passes both checks either way —
        # the volatile-variable hole the paper documents
        assert self._double_flip_survives(True) == self._double_flip_survives(False)

    def test_flag_flip_double_glitch(self):
        """For flag/decision flips (not value corruption) the complemented
        encoding uses the *opposite* branch polarity, so one tuned flip
        cannot service both branches — checked structurally on the IR."""
        hp = build_defended_guard("while_not_a", ResistorConfig(branches=True, loops=True))
        main_fn = hp.compiled.module.functions["main"]
        polarity = []
        for block in main_fn.blocks.values():
            term = block.terminator
            if isinstance(term, ir.CondBr) and block.instrs:
                last = block.instrs[-1]
                if isinstance(last, ir.Cmp) and last.result == term.cond:
                    detect_on_true = term.if_true.startswith("gr.detect")
                    polarity.append((last.op, term.redundant_clone, detect_on_true))
        ops = {op for op, clone, _ in polarity if clone}
        original_ops = {op for op, clone, _ in polarity if not clone}
        assert ops and original_ops


class TestDelayDepthAblation:
    @pytest.mark.parametrize("max_nops", [4, 10, 20])
    def test_wider_windows_spread_more(self, max_nops):
        counts = []
        state = 0x12345
        for _ in range(500):
            state = (state * 1103515245 + 12345) & 0xFFFFFFFF
            counts.append((((state >> 16) & 0xFFFF) * (max_nops + 1)) >> 16)
        assert max(counts) == max_nops
        assert min(counts) == 0

    def test_reference_model_window(self):
        counts = lcg_reference(seed=42, steps=1000)
        assert set(counts) == set(range(11))


class TestPerDefenseContribution:
    @pytest.fixture(scope="class")
    def rates(self, stride):
        configs = {
            "none": ResistorConfig.none(),
            "branches+loops": ResistorConfig(branches=True, loops=True),
            "all_no_delay": ResistorConfig.all_but_delay(),
            "all": ResistorConfig.all(),
        }
        rates = {}
        for name, config in configs.items():
            hp = build_defended_guard("while_not_a", config)
            scan = run_defense_scan(
                hp.image, "single", defense=name, stride=max(stride, 3)
            )
            rates[name] = scan
        return rates

    def test_contribution_render(self, benchmark, rates):
        benchmark.pedantic(lambda: rates, rounds=1, iterations=1)
        print()
        for name, scan in rates.items():
            print(
                f"  {name:<16} succ {scan.successes}/{scan.attempts} "
                f"({scan.success_rate * 100:.4f}%), det {scan.detections}"
            )

    def test_stacking_monotone(self, rates):
        assert rates["all"].success_rate <= rates["none"].success_rate
        assert rates["branches+loops"].success_rate <= rates["none"].success_rate

    def test_delay_adds_value(self, rates):
        assert rates["all"].success_rate <= rates["all_no_delay"].success_rate


class TestFaultModelRobustness:
    """The paper-shape conclusions must not hinge on the calibration seed."""

    def test_guard_ordering_robust_to_seed(self, benchmark):
        from repro.experiments.ablations import seed_robustness

        result = benchmark.pedantic(
            lambda: seed_robustness(stride=4), rounds=1, iterations=1
        )
        print()
        print(result.render())
        assert result.fraction_holding >= 0.75

    def test_guard_ordering_robust_to_band_location(self):
        from repro.experiments.ablations import band_robustness

        result = band_robustness(stride=5)
        print()
        print(result.render())
        assert result.fraction_holding >= 0.66

    def test_defense_win_robust_to_seed(self):
        from repro.experiments.ablations import defense_robustness

        result = defense_robustness(stride=8)
        print()
        print(result.render())
        assert result.fraction_holding == 1.0
