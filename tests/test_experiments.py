"""Tests for the experiment drivers (fast, strided/subsampled runs)."""

import pytest

from repro.exec import ExecOptions, ProgressReporter
from repro.experiments.fig2 import _PANELS, run_figure2
from repro.experiments.param_search import run_search
from repro.experiments.render import compare_line, pct, render_table
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import run_table3
from repro.experiments.table4 import CONFIGS, run_table4
from repro.experiments.table5 import run_table5
from repro.experiments.table6 import run_table6
from repro.experiments.table7 import run_table7
from repro.glitchsim import figure2, run_branch_campaign
from repro.obs import Observer


class TestRenderHelpers:
    def test_render_table_alignment(self):
        text = render_table("T", ["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert all(len(line) == len(lines[2]) for line in lines[2:])

    def test_pct(self):
        assert pct(0.5) == "50%"
        assert pct(0.00123) == "0.123%"

    def test_compare_line(self):
        line = compare_line("thing", "1%", "2%")
        assert "paper" in line and "measured" in line


class TestFigure2Driver:
    def test_subsampled_run(self):
        result = run_figure2(k_values=(1, 2), conditions=["eq", "ne"], include_xor=False)
        assert set(result.panels) == {"and", "or", "and-0invalid"}
        rendered = result.render()
        assert "Figure 2a" in rendered and "BEQ" in rendered

    def test_csv(self):
        result = run_figure2(k_values=(1,), conditions=["eq"], include_xor=False)
        assert "instruction,k,success_rate" in result.to_csv()

    #: the full figure: one batch per (replay world, decode mode), 5 worlds
    #: x 2 modes; the plain-decoder batches hold all 2^16 words (XOR reaches
    #: every word) and the 0x0000-invalid ones their worlds' AND submasks;
    #: the early exits keep lane-steps near one per lane
    FULL_FIGURE_COUNTERS = {
        "vector.batches": 10,
        "vector.lanes": 328_192,
        "vector.lane_steps": 329_173,
        "vector.early_exits": 7_026,
        "algebra.words_emulated": 328_192,
        "units.completed": 10,
        "attempts": 4 * 14 * 65_536,
        "algebra.masks_derived": 4 * 14 * 65_536,
    }

    def test_full_figure_counters_exact_and_repeatable(self):
        # a second figure in the same process emulates every word again:
        # no harness, snippet or outcome outlives a call
        for _ in range(2):
            obs = Observer()
            run_figure2(obs=obs)
            counters = {name: obs.counters.get(name) for name in self.FULL_FIGURE_COUNTERS}
            assert counters == self.FULL_FIGURE_COUNTERS

    def test_unit_time_is_classify_plus_tally(self):
        """Each world unit's wall time is its union batch and its sweeps.

        The smallest units take well under a millisecond, so a unit passes
        on its best of up to three traced figures (host noise, not the
        program, sets a single run's gaps).
        """
        best = [0.0] * 10
        for _ in range(3):
            obs = Observer()
            run_figure2(obs=obs)
            names, coverage, covered = [], [], 0.0
            for event in obs.events:
                if event["type"] == "span" and event["name"] in ("campaign.classify",
                                                                 "campaign.tally"):
                    names.append(event["name"])
                    covered += event["wall"]
                elif event["type"] == "unit":
                    coverage.append(covered / event["wall"])
                    covered = 0.0
            assert names == ["campaign.classify", "campaign.tally"] * 10
            best = [max(pair) for pair in zip(best, coverage, strict=True)]
            if min(best) >= 0.95:
                break
        assert min(best) >= 0.95, best


class TestFigure2SharedUnits:
    """Each panel of the multi-model campaigns equals its model's campaign
    run on its own, whatever the execution path."""

    KWARGS = dict(k_values=(1, 2), conditions=["eq", "ne", "cc", "vs"])

    @pytest.fixture(scope="class")
    def alone(self):
        return {
            name: figure2(run_branch_campaign(model, zero_is_invalid=zero_is_invalid,
                                              **self.KWARGS), title=title)
            for name, title, model, zero_is_invalid in _PANELS
        }

    @pytest.mark.parametrize("workers", [1, 2])
    def test_panels_match_single_model_campaigns(self, alone, workers):
        result = run_figure2(execution=ExecOptions(workers=workers), **self.KWARGS)
        assert result.panels == alone
        assert result.failed_units == []

    def test_resumed_panels_match_single_model_campaigns(self, alone, tmp_path):
        class KillInSecondMode(ProgressReporter):
            """Interrupts after six units: the plain decoder's four worlds
            and two of the 0x0000-invalid mode's."""

            done = 0

            def advance(self, units=1, attempts=0, categories=None):
                super().advance(units, attempts, categories)
                self.done += units
                if self.done == 6:
                    raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_figure2(execution=ExecOptions(checkpoint_dir=tmp_path,
                                              progress=KillInSecondMode()),
                        **self.KWARGS)
        obs = Observer()
        resumed = run_figure2(
            execution=ExecOptions(checkpoint_dir=tmp_path, resume=True, workers=2),
            obs=obs, **self.KWARGS,
        )
        assert resumed.panels == alone
        assert (obs.counters["units.replayed"], obs.counters["units.completed"]) == (6, 2)


class TestScanDrivers:
    def test_table1_driver(self):
        result = run_table1(stride=8, cycles=range(3))
        assert set(result.scans) == {"not_a", "a", "a_ne_const"}
        assert "Table I" in result.render()

    def test_table2_driver(self):
        result = run_table2(stride=8, cycles=range(3))
        assert "multi-glitch" in result.render()

    def test_table3_driver(self):
        result = run_table3(stride=8, last_cycles=(10, 12))
        rendered = result.render()
        assert "0-10" in rendered and "paper totals" in rendered

    def test_table6_driver_single_cell(self):
        result = run_table6(
            stride=8, attacks=("single",), defenses=("all",), scenarios=("if_success",)
        )
        scan = result.get("if_success", "all", "single")
        assert scan.attempts == 13 * 13 * 11
        assert "Table VI" in result.render()


class TestOverheadDrivers:
    @pytest.fixture(scope="class")
    def table4(self):
        return run_table4()

    @pytest.fixture(scope="class")
    def table5(self):
        return run_table5()

    def test_table4_rows_complete(self, table4):
        assert {row.defense for row in table4.rows} == set(CONFIGS)

    def test_table4_baseline_zero(self, table4):
        assert table4.row("None").increase_pct == 0.0
        with pytest.raises(KeyError):
            table4.row("Nope")

    def test_table4_all_is_most_expensive(self, table4):
        all_cycles = table4.row("All").cycles
        assert all(row.cycles <= all_cycles for row in table4.rows)

    def test_table4_render_mentions_paper(self, table4):
        assert "Paper" in table4.render()

    def test_table5_sections_positive(self, table5):
        for sizes in table5.sizes.values():
            assert sizes.text > 0
            assert sizes.total == sizes.text + sizes.data + sizes.bss

    def test_table5_overhead_monotone_for_all(self, table5):
        assert table5.overhead("All", "text") >= table5.overhead("Branches", "text")

    def test_table4_exact_cycles_and_constants(self, table4):
        # EXPERIMENTS.md Table IV: boot cycles and the pre-main constant
        assert {row.defense: (row.cycles, row.constant) for row in table4.rows} == {
            "None": (455, 0),
            "Branches": (575, 0),
            "Delay": (2823, 88),
            "Integrity": (483, 9),
            "Loops": (483, 0),
            "Returns": (461, 0),
            "All\\Delay": (637, 9),
            "All": (4770, 97),
        }

    def test_table5_exact_text_and_total_bytes(self, table5):
        # EXPERIMENTS.md Table V: text / total section bytes
        assert {
            defense: (sizes.text, sizes.total) for defense, sizes in table5.sizes.items()
        } == {
            "None": (536, 544),
            "Branches": (784, 792),
            "Delay": (816, 828),
            "Integrity": (724, 736),
            "Loops": (592, 600),
            "Returns": (588, 596),
            "All\\Delay": (1040, 1052),
            "All": (1356, 1372),
        }


class TestTable7Driver:
    def test_matrix_shape(self):
        result = run_table7()
        assert len(result.rows) == 9
        for values in result.rows.values():
            assert len(values) == 7

    def test_render(self):
        assert "GlitchResistor" in run_table7().render()


class TestSearchDriver:
    def test_search_driver(self):
        result = run_search(guards=("not_a",), coarse_stride=6)
        assert result.results["not_a"].found
        assert "10/10" in result.render() or "Guard" in result.render()
