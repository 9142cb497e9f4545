"""Figure 2 benchmarks: emulated bit-flip campaigns over all 14 branches.

Regenerates all three panels (plus the XOR ablation) with the full
:math:`\\sum_k \\binom{16}{k} = 2^{16}` mask population per instruction per
model, and checks the paper's qualitative findings:

- AND (1→0) ≫ OR (0→1) in mean skip rate (paper: ≈60% vs ≈30%);
- XOR lies between the two;
- decoding 0x0000 as invalid leaves the AND rate "effectively unchanged".
"""

import json
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from repro.experiments.fig2 import run_figure2


@lru_cache(maxsize=None)
def _campaign():
    return run_figure2()


@pytest.fixture(scope="module")
def figure2_result():
    return _campaign()


def test_fig2_full_reproduction(benchmark):
    """The headline run: all panels, full mask population, paper checks."""
    result = benchmark.pedantic(_campaign, rounds=1, iterations=1)
    print()
    print(result.render())
    and_mean = result.mean_success("and")
    or_mean = result.mean_success("or")
    xor_mean = result.mean_success("xor")
    hardened = result.mean_success("and-0invalid")
    assert and_mean > 2 * or_mean, "paper: AND ≈2× OR"
    assert or_mean < xor_mean <= and_mean * 1.05, "paper: XOR between OR and AND"
    assert abs(and_mean - hardened) < 0.05, "paper: 0x0000-invalid leaves AND unchanged"
    assert len(result.panels["and"].instructions) == 14


def test_fig2_and_beats_or(figure2_result):
    assert figure2_result.mean_success("and") > 2 * figure2_result.mean_success("or")


def test_fig2_csv_export(figure2_result):
    csv_text = figure2_result.to_csv()
    assert "instruction,k,success_rate" in csv_text
    assert "BEQ" in csv_text


#: the bvs full-word sweep on the rebuild oracle, then on the snapshot
#: engine; prints ``{engine: [seconds, {category: count}]}`` as JSON
_SWEEP_SCRIPT = """
import json
import time
from collections import Counter

from repro.glitchsim.harness import SnippetHarness
from repro.glitchsim.snippets import branch_snippet
from tests.oracles import RebuildSnippetHarness

snippet = branch_snippet("vs")
report = {}
for engine, harness_class in (("rebuild", RebuildSnippetHarness),
                              ("snapshot", SnippetHarness)):
    harness = harness_class(snippet)
    start = time.perf_counter()
    tally = Counter(harness.run(word).category for word in range(0x10000))
    report[engine] = [time.perf_counter() - start, dict(tally)]
print(json.dumps(report))
"""


def test_fig2_snapshot_engine_speedup():
    """The snapshot engine is ≥3× faster than per-word rebuild, tallies identical.

    A single-mnemonic sweep over every corrupted 16-bit word (the unit the
    Figure 2 campaign repeats 14 × 4 times) runs once on the rebuild
    oracle (tests/oracles.py) and once on the snapshot engine,
    back-to-back in the same process so the ratio is insulated from
    machine-load drift. ``bvs`` is used because its 4-instruction setup
    prefix is the longest of the 14 branches — the pre-glitch work the
    snapshot engine runs once instead of 2^16 times.

    That process is a fresh interpreter, so nothing earlier tests left
    in this one (process-wide memos, an aged heap) enters the ratio. In
    one process the snapshot sweep alone slowed from 0.88 s to
    1.06–1.30 s after a repeat sweep and a Figure 2 run, while the
    rebuild side stayed within noise (2-vCPU host).
    """
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    child = subprocess.run([sys.executable, "-c", _SWEEP_SCRIPT], cwd=root, env=env,
                           capture_output=True, text=True, check=True)
    report = json.loads(child.stdout)
    timings = {engine: seconds for engine, (seconds, _) in report.items()}
    tallies = {engine: tally for engine, (_, tally) in report.items()}
    assert tallies["snapshot"] == tallies["rebuild"]
    speedup = timings["rebuild"] / timings["snapshot"]
    print(
        f"\nbvs full-word sweep: rebuild {timings['rebuild']:.2f}s, "
        f"snapshot {timings['snapshot']:.2f}s, speedup {speedup:.2f}x"
    )
    assert speedup >= 3.0, f"snapshot engine speedup {speedup:.2f}x < 3x"
