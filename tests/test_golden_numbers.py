"""Golden-number regression tests pinning the EXPERIMENTS.md claims.

Every campaign here is deterministic given the default fault-model seed
(``FaultModel(seed=0x600D5EED)``), so the measured rates published in
EXPERIMENTS.md are exact — any drift means the emulator, fault model, or
campaign plumbing changed behaviour and the document must be re-measured.

The full Figure 2 sweep runs on the default vector engine in about a
second, so its golden is part of the default test run.  The stride-2
Table I, II, III and VI scans (~15 s) are marked ``slow`` and excluded
from it; select them with ``pytest -m slow``.
"""

import pytest

from repro.hw.faults import FaultModel


class TestFigure2Golden:
    """Figure 2 mean skip rates over all 14 branches (full mask population)."""

    @pytest.fixture(scope="class")
    def fig2(self):
        from repro.experiments import run_figure2

        return run_figure2()

    def test_no_quarantined_units(self, fig2):
        assert fig2.failed_units == []

    def test_and_model_mean_success(self, fig2):
        # EXPERIMENTS.md: 42.5% (paper ≈60%; same order, AND dominant)
        assert fig2.mean_success("and") == pytest.approx(0.4252232142857143, abs=1e-12)

    def test_or_model_mean_success(self, fig2):
        # EXPERIMENTS.md: 12.0% (paper ≈30%; same order, OR weak)
        assert fig2.mean_success("or") == pytest.approx(0.12009974888392858, abs=1e-12)

    def test_xor_model_between_and_and_or(self, fig2):
        # EXPERIMENTS.md: 41.6%, strictly between the OR and AND rates
        assert fig2.mean_success("xor") == pytest.approx(0.415924072265625, abs=1e-12)
        assert fig2.mean_success("or") < fig2.mean_success("xor") < fig2.mean_success("and")

    def test_zero_invalid_tweak_roughly_unchanged(self, fig2):
        # EXPERIMENTS.md: 42.5% → 40.3% ("effectively unchanged")
        assert fig2.mean_success("and-0invalid") == pytest.approx(
            0.40345982142857145, abs=1e-12
        )

    def test_and_to_or_ratio(self, fig2):
        # EXPERIMENTS.md: AND : OR ≈ 3.5× (paper claims 2×)
        assert fig2.mean_success("and") / fig2.mean_success("or") == pytest.approx(
            3.54, abs=0.01
        )


class TestTable1Golden:
    """Table I single-glitch success rates at stride 2 (20,000 attempts/guard)."""

    pytestmark = pytest.mark.slow

    @pytest.fixture(scope="class")
    def table1(self):
        from repro.experiments import run_table1

        return run_table1(stride=2, fault_model=FaultModel(seed=0x600D5EED))

    def test_no_quarantined_units(self, table1):
        assert [scan.failed_units for scan in table1.scans.values()] == [[]] * 3

    def test_default_seed_is_the_published_one(self):
        assert FaultModel().seed == 0x600D5EED

    @pytest.mark.parametrize(
        "guard,successes,rate",
        [
            ("not_a", 130, 0.0065),       # EXPERIMENTS.md: while(!a) — 0.650%
            ("a", 33, 0.00165),           # while(a) — 0.165%, most resilient
            ("a_ne_const", 48, 0.0024),   # while(a!=K) — 0.240%, middle
        ],
    )
    def test_guard_success_rate(self, table1, guard, successes, rate):
        scan = table1.scans[guard]
        assert scan.total_attempts == 20000
        assert scan.total_successes == successes
        assert scan.success_rate == pytest.approx(rate, abs=1e-12)

    def test_vulnerability_ordering(self, table1):
        # RQ3: !a > a!=K > a ("while(a) was the most resilient")
        rates = {g: s.success_rate for g, s in table1.scans.items()}
        assert rates["not_a"] > rates["a_ne_const"] > rates["a"]


class TestTable2Golden:
    """Table II partial/full multi-glitch rates at stride 2 (20,000 attempts/guard)."""

    pytestmark = pytest.mark.slow

    @pytest.fixture(scope="class")
    def table2(self):
        from repro.experiments.table2 import run_table2

        return run_table2(stride=2, fault_model=FaultModel(seed=0x600D5EED))

    def test_no_quarantined_units(self, table2):
        assert [scan.failed_units for scan in table2.scans.values()] == [[]] * 3

    @pytest.mark.parametrize(
        "guard,partial,full",
        [
            ("not_a", 113, 17),       # EXPERIMENTS.md: while(!a) — 0.565% / 0.085%
            ("a", 32, 2),             # while(a) — 0.160% / 0.010%
            ("a_ne_const", 46, 2),    # while(a!=K) — 0.230% / 0.010%
        ],
    )
    def test_guard_partial_and_full_rates(self, table2, guard, partial, full):
        scan = table2.scans[guard]
        assert scan.total_attempts == 20000
        assert (scan.total_partial, scan.total_full) == (partial, full)
        assert scan.partial_rate == pytest.approx(partial / 20000, abs=1e-12)
        assert scan.full_rate == pytest.approx(full / 20000, abs=1e-12)


class TestTable3Golden:
    """Table III long-glitch rates at stride 2 (27,500 attempts/guard)."""

    pytestmark = pytest.mark.slow

    @pytest.fixture(scope="class")
    def table3(self):
        from repro.experiments.table3 import run_table3

        return run_table3(stride=2, fault_model=FaultModel(seed=0x600D5EED))

    def test_no_quarantined_units(self, table3):
        assert [scan.failed_units for scan in table3.scans.values()] == [[]] * 3

    @pytest.mark.parametrize(
        "guard,successes",
        [
            ("not_a", 46),        # EXPERIMENTS.md: while(!a) — 0.167%
            ("a", 40),            # while(a) — 0.145%
            ("a_ne_const", 63),   # while(a!=K) — 0.229%
        ],
    )
    def test_guard_long_glitch_rate(self, table3, guard, successes):
        scan = table3.scans[guard]
        assert scan.total_attempts == 27500
        assert scan.total_successes == successes
        assert scan.success_rate == pytest.approx(successes / 27500, abs=1e-12)


class TestTable6Golden:
    """Table VI at stride 2 (27,500 / 25,000 attempts a row), every row.

    EXPERIMENTS.md quotes these successes and detection rates; the
    ``while(!a)`` / All / single row went stale there once unnoticed.
    """

    pytestmark = pytest.mark.slow

    #: (scenario, defense, attack) -> (attempts, successes, detections)
    ROWS = {
        ("while_not_a", "none", "single"): (27500, 150, 0),
        ("while_not_a", "none", "long"): (25000, 49, 0),
        ("while_not_a", "none", "windowed"): (27500, 74, 0),
        ("while_not_a", "all", "single"): (27500, 2, 1),
        ("while_not_a", "all", "long"): (25000, 2, 1),
        ("while_not_a", "all", "windowed"): (27500, 2, 2),
        ("while_not_a", "all_no_delay", "single"): (27500, 88, 68),
        ("while_not_a", "all_no_delay", "long"): (25000, 42, 32),
        ("while_not_a", "all_no_delay", "windowed"): (27500, 42, 127),
        ("if_success", "none", "single"): (27500, 76, 0),
        ("if_success", "none", "long"): (25000, 34, 0),
        ("if_success", "none", "windowed"): (27500, 22, 0),
        ("if_success", "all", "single"): (27500, 0, 1),
        ("if_success", "all", "long"): (25000, 0, 0),
        ("if_success", "all", "windowed"): (27500, 0, 0),
        ("if_success", "all_no_delay", "single"): (27500, 5, 33),
        ("if_success", "all_no_delay", "long"): (25000, 2, 36),
        ("if_success", "all_no_delay", "windowed"): (27500, 12, 29),
    }

    @pytest.fixture(scope="class")
    def table6(self):
        from repro.experiments.table6 import run_table6

        return run_table6(stride=2)

    def test_no_quarantined_units(self, table6):
        assert [scan.failed_units for scan in table6.results.values()] == [[]] * 18

    @pytest.mark.parametrize("row", sorted(ROWS), ids="-".join)
    def test_row(self, table6, row):
        scan = table6.get(*row)
        assert (scan.attempts, scan.successes, scan.detections) == self.ROWS[row]

    def test_worst_case_reduction(self, table6):
        # EXPERIMENTS.md: the full stack cuts while(!a) single-glitch
        # successes ~75× (150 → 2)
        undefended = table6.get("while_not_a", "none", "single").successes
        defended = table6.get("while_not_a", "all", "single").successes
        assert undefended / defended == 75
