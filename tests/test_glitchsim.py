"""Tests for the Section IV emulation campaign (snippets, harness, campaign)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.glitchsim import (
    OUTCOME_CATEGORIES,
    SnippetHarness,
    all_branch_snippets,
    branch_snippet,
    figure2,
    run_branch_campaign,
    sweep_instruction,
)
from repro.glitchsim.results import render_figure_ascii, summarize_mean_success, to_csv
from repro.isa import decode
from repro.isa.conditions import CONDITION_NAMES
from tests.oracles import classify_branch_corruption


class TestSnippets:
    def test_all_fourteen_conditions_build(self):
        snippets = all_branch_snippets()
        assert len(snippets) == 14
        assert {s.mnemonic for s in snippets} == {f"b{c}" for c in CONDITION_NAMES}

    @pytest.mark.parametrize("condition", CONDITION_NAMES)
    def test_target_word_is_the_branch(self, condition):
        snippet = branch_snippet(condition)
        instr = decode(snippet.target_word)
        assert instr.mnemonic == f"b{condition}"

    def test_unknown_condition_rejected(self):
        with pytest.raises(ValueError):
            branch_snippet("xx")

    @pytest.mark.parametrize("condition", CONDITION_NAMES)
    def test_unmodified_run_takes_branch(self, condition):
        """With the original word, execution must land on the 0xaaaa path."""
        snippet = branch_snippet(condition)
        harness = SnippetHarness(snippet)
        outcome = harness.run(snippet.target_word)
        assert outcome.category == "no_effect", (condition, outcome)


class TestHarness:
    def test_all_zero_word_skips_branch(self):
        """0x0000 decodes to mov r0, r0 — a NOP — so the branch is skipped."""
        snippet = branch_snippet("eq")
        outcome = SnippetHarness(snippet).run(0x0000)
        assert outcome.category == "success"

    def test_all_zero_word_invalid_when_hardened(self):
        snippet = branch_snippet("eq")
        outcome = SnippetHarness(snippet, zero_is_invalid=True).run(0x0000)
        assert outcome.category == "invalid_instruction"

    def test_nop_word_is_success(self):
        outcome = classify_branch_corruption("beq", 0xBF00)  # literal nop
        assert outcome.category == "success"

    def test_udf_word_is_invalid(self):
        outcome = classify_branch_corruption("beq", 0xDE00)
        assert outcome.category == "invalid_instruction"

    def test_branch_to_nowhere_is_bad_fetch(self):
        # b with a large negative offset exits the mapped flash region
        outcome = classify_branch_corruption("beq", 0xE400)  # b -4096
        assert outcome.category == "bad_fetch"

    def test_load_from_small_address_is_bad_read(self):
        # ldr r0, [r0, #0] with r0 holding a flag-setup value near 0
        outcome = classify_branch_corruption("beq", 0x6800)
        assert outcome.category == "bad_read"

    def test_infinite_loop_is_failed(self):
        outcome = classify_branch_corruption("beq", 0xE7FE)  # b .
        assert outcome.category == "failed"

    def test_cache_returns_same_object(self):
        snippet = branch_snippet("ne")
        harness = SnippetHarness(snippet)
        assert harness.run(0x1234) is harness.run(0x1234)

    @given(st.integers(0, 0xFFFF))
    @settings(max_examples=200, deadline=None)
    def test_every_word_classifies(self, word):
        """Classification is total: every 16-bit word lands in a known bucket."""
        outcome = classify_branch_corruption("beq", word)
        assert outcome.category in OUTCOME_CATEGORIES


class TestSweep:
    def test_k_zero_is_unmodified(self):
        snippet = branch_snippet("eq")
        sweep = sweep_instruction(snippet, "and", k_values=(0,))
        assert sweep.by_k[0] == {"no_effect": 1}

    def test_mask_counts_match_binomial(self):
        snippet = branch_snippet("eq")
        sweep = sweep_instruction(snippet, "and", k_values=(1, 2, 15))
        for k in (1, 2, 15):
            assert sum(sweep.by_k[k].values()) == math.comb(16, k)

    def test_k16_and_model_is_all_zero_word(self):
        snippet = branch_snippet("eq")
        sweep = sweep_instruction(snippet, "and", k_values=(16,))
        # AND with every bit selected → 0x0000 → mov r0, r0 → success
        assert sweep.by_k[16] == {"success": 1}

    def test_k16_or_model_is_all_ones_word(self):
        snippet = branch_snippet("eq")
        sweep = sweep_instruction(snippet, "or", k_values=(16,))
        # 0xFFFF is a stray BL suffix → invalid
        assert sweep.by_k[16] == {"invalid_instruction": 1}

    def test_success_rate_bounds(self):
        snippet = branch_snippet("ne")
        sweep = sweep_instruction(snippet, "and", k_values=(0, 1, 2))
        assert 0.0 <= sweep.success_rate() <= 1.0
        fractions = sweep.category_fractions()
        assert abs(sum(fractions.values()) - 1.0) < 1e-9


class TestCampaign:
    def test_and_beats_or_full_sweep(self):
        """The paper's headline: 1→0 flips skip branches far more often than 0→1.

        This ordering only emerges over the *full* mask population (the
        restricted-k slices can invert it), so sweep all k for two branches.
        """
        conditions = ["eq", "ne"]
        and_result = run_branch_campaign("and", conditions=conditions)
        or_result = run_branch_campaign("or", conditions=conditions)
        and_mean = summarize_mean_success(figure2(and_result))
        or_mean = summarize_mean_success(figure2(or_result))
        assert and_mean > or_mean * 1.5

    def test_or_weakest_model_full_sweep(self):
        """OR is the weakest flip model; the AND/XOR ordering is only strict in
        the 14-instruction aggregate (checked by the Figure 2 benchmark)."""
        conditions = ["eq"]
        rates = {}
        for model in ("and", "or", "xor"):
            result = run_branch_campaign(model, conditions=conditions)
            rates[model] = summarize_mean_success(figure2(result))
        assert rates["or"] < rates["and"]
        assert rates["or"] < rates["xor"]

    def test_zero_invalid_changes_little_for_and(self):
        """Figure 2c: making 0x0000 invalid leaves the AND success rate similar."""
        ks = (1, 2, 3, 4)
        normal = run_branch_campaign("and", k_values=ks, conditions=["eq"])
        hardened = run_branch_campaign("and", zero_is_invalid=True, k_values=ks, conditions=["eq"])
        normal_rate = normal.sweeps[0].success_rate()
        hardened_rate = hardened.sweeps[0].success_rate()
        assert abs(normal_rate - hardened_rate) < 0.10

    def test_sweep_for_lookup(self):
        result = run_branch_campaign("and", k_values=(1,), conditions=["eq", "ne"])
        assert result.sweep_for("beq").mnemonic == "beq"
        with pytest.raises(KeyError):
            result.sweep_for("bxx")

    @pytest.mark.parametrize("model,kwargs", [
        ("andd", {}),
        ("and", {"conditions": ["al"]}),  # a condition code with no conditional branch
        ("and", {"conditions": ["nosuch"]}),
        ("and", {"conditions": ["eq", "bnosuch"]}),
    ])
    def test_bad_argument_raises_before_any_unit(self, model, kwargs):
        """Argument errors used to be quarantined per unit, returning a
        hollow campaign (0 sweeps) instead of raising."""
        from repro.obs import Observer

        obs = Observer()
        with pytest.raises(ValueError, match="unknown"):
            run_branch_campaign(model, k_values=(1,), obs=obs, **kwargs)
        assert not obs.counters

    def test_figure2_bad_engine_raises(self):
        """run_figure2 used to return all-zero panels for a typo'd engine."""
        from repro.experiments import run_figure2

        with pytest.raises(ValueError, match="unknown engine"):
            run_figure2(k_values=(1,), engine="rebuld")


class TestResults:
    def _small_campaign(self):
        return run_branch_campaign("and", k_values=(0, 1, 2), conditions=["eq", "ne"])

    def test_figure_structure(self):
        fig = figure2(self._small_campaign())
        assert set(fig.instructions) == {"BEQ", "BNE"}
        assert all(0.0 <= v <= 1.0 for v in fig.overall_success.values())
        # sorted by success, descending
        rates = [fig.overall_success[i] for i in fig.instructions]
        assert rates == sorted(rates, reverse=True)

    def test_csv_output(self):
        csv_text = to_csv(figure2(self._small_campaign()))
        assert csv_text.startswith("instruction,k,success_rate")
        assert "BEQ" in csv_text
        assert "no_effect" in csv_text

    def test_ascii_render(self):
        rendered = render_figure_ascii(figure2(self._small_campaign()))
        assert "Success" in rendered
        assert "BEQ" in rendered
