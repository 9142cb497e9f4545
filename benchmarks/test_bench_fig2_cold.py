"""Cold full-Figure-2 benchmark: the vector engine, end to end.

Times the *whole* Figure 2 campaign (all four panels, all 14 branch
conditions, full ``k`` range) per engine and writes the measurements as
machine-readable JSON — ``BENCH_fig2.json`` by default,
``$REPRO_BENCH_FIG2_OUT`` to override — so CI can upload the artifact
and gate on regressions.

"Cold" means what a fresh process sees: an empty outcome cache (every
word is emulated) and no operand tables yet, so the run includes
building them. The gate asserts

- the vector engine's cold wall time stays within
  ``$REPRO_BENCH_FIG2_BUDGET`` seconds (default 3.0 — generous against
  the ~1 s measured on one core, to absorb CI machine variance),
- the vector and snapshot engines produce bit-identical panels, and
- the mean glitch-success rates match the paper's golden numbers.

The speedup field compares against a pinned 3.0 s baseline — the
pre-optimization cold vector time this suite documented — so the JSON
records how much headroom the cold path keeps, not just a boolean.
"""

import json
import os
import time

import pytest

from repro.experiments.fig2 import run_figure2
from tests.oracles import snapshot_engine

#: pre-optimization cold vector-engine wall time (s), pinned for speedup
BASELINE_S = 3.0

#: paper golden numbers: mean glitch-success rate per panel
GOLDEN_RATES = {
    "and": 0.42522321,
    "or": 0.12009975,
    "xor": 0.41592407,
    "and-0invalid": 0.40345982,
}


@pytest.fixture
def no_tables():
    """Empty the process-wide operand-table registry (restored afterwards)."""
    from repro.emu import vector

    saved = dict(vector._TABLES)
    vector._TABLES.clear()
    yield
    vector._TABLES.clear()
    vector._TABLES.update(saved)


def _timed_fig2(cache=None):
    start = time.perf_counter()
    result = run_figure2(cache=cache)
    return time.perf_counter() - start, result


def test_fig2_cold_times_and_budget(no_tables, tmp_path):
    report = {"figure": "fig2", "baseline_s": BASELINE_S, "engines": {}}

    # vector, cold: empty outcome cache, operand tables built in the run
    cold_s, cold = _timed_fig2()

    # vector, warm: second run against a populated disk cache
    cache_dir = tmp_path / "outcomes"
    _timed_fig2(cache=str(cache_dir))
    warm_s, warm = _timed_fig2(cache=str(cache_dir))

    # snapshot, cold: the scalar reference point (one repetition) on the
    # test-side snapshot oracle
    with snapshot_engine():
        snap_s, snap = _timed_fig2()

    report["engines"]["vector"] = {
        "cold_s": round(cold_s, 3),
        "warm_s": round(warm_s, 3),
        "speedup_vs_baseline": round(BASELINE_S / cold_s, 2),
    }
    report["engines"]["snapshot"] = {"cold_s": round(snap_s, 3)}
    report["rates"] = {
        name: round(cold.mean_success(name), 8) for name in GOLDEN_RATES
    }

    budget = float(os.environ.get("REPRO_BENCH_FIG2_BUDGET", "3.0"))
    report["budget_s"] = budget
    out = os.environ.get("REPRO_BENCH_FIG2_OUT", "BENCH_fig2.json")
    with open(out, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    print(f"\nfig2 cold: vector {cold_s:.2f}s (warm {warm_s:.2f}s), "
          f"snapshot {snap_s:.2f}s → {out}")

    # correctness before speed: all paths bit-identical, rates golden
    assert cold.panels == snap.panels == warm.panels
    for name, rate in GOLDEN_RATES.items():
        assert cold.mean_success(name) == pytest.approx(rate, abs=5e-9)

    assert cold_s <= budget, (
        f"cold vector Figure 2 took {cold_s:.2f}s > {budget:.2f}s budget "
        f"(baseline {BASELINE_S:.1f}s) — the cold vector path regressed"
    )
